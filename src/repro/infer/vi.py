"""The unified variational-inference engine.

One engine, many guides: :class:`VI` optimises any
:class:`~repro.guides.base.AutoGuide` against a
:class:`~repro.infer.potential.Potential` with Adam, evaluating multi-particle
ELBOs through the vectorized ``potential_and_grad_batched`` fast path (the
particles ride the chain axis of the batched tape).  Explicit DeepStan
``guide`` blocks run through :class:`ExplicitVI`, a wrapper over the
trace-based :class:`~repro.infer.svi.SVI` that exposes the same result API,
so ``compiled.condition(data).fit("vi", guide=...)`` behaves uniformly across
the whole guide spectrum:

* ``elbo_history`` / ``losses`` — the per-step objective trace;
* ``guide_sample()`` / ``posterior_draws()`` — draws from the fitted guide in
  constrained parameter space;
* ``guide_log_density()`` — the exact guide density of constrained values;
* ``psis_diagnostic()`` — Pareto-smoothed importance weights of guide draws
  reweighted against the model joint.  The fitted shape ``k-hat`` reports
  which guide family actually covers the posterior (k-hat < 0.7 is the usual
  "reliable" threshold), turning the paper's Fig. 10 contrast between
  mean-field ADVI and the explicit multimodal guide into a measurable number.

The Adam update is written in the exact arithmetic of the historical ADVI
optimiser, so ``VI(guide=AutoNormal())`` stays bitwise equal to it under a
fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.autodiff.tensor import Tensor, as_tensor
from repro.guides import AutoGuide, get_autoguide
from repro.infer.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointWriter,
    base_checkpoint_path,
    read_checkpoint,
    restore_rng,
    rng_state,
)
from repro.infer.importance import importance_ess, pareto_smoothed_log_weights
from repro.infer.potential import Potential
from repro.infer.results import Posterior, posterior_rng
from repro.ppl import handlers

VI_CHECKPOINT_FORMAT = "repro-vi-checkpoint"


@dataclass
class PSISResult:
    """Pareto-smoothed importance-sampling diagnostic of a fitted guide."""

    khat: float
    ess: float
    log_weights: np.ndarray
    num_samples: int

    #: k-hat threshold above which importance reweighting is unreliable
    #: (Vehtari et al. 2015).
    THRESHOLD = 0.7

    @property
    def ok(self) -> bool:
        return bool(np.isfinite(self.khat) and self.khat < self.THRESHOLD)

    def __repr__(self) -> str:
        return (f"PSISResult(khat={self.khat:.3f}, ess={self.ess:.1f}, "
                f"num_samples={self.num_samples}, ok={self.ok})")


class VI:
    """Stochastic VI of an automatic guide against a potential function.

    Parameters
    ----------
    potential:
        The model's :class:`~repro.infer.potential.Potential`.
    guide:
        An :class:`~repro.guides.base.AutoGuide` instance or a family name
        (``"auto_normal"``, ``"auto_mvn"``, ``"auto_lowrank"``,
        ``"auto_delta"``, ``"auto_neural"``; see
        :func:`repro.guides.get_autoguide` for aliases).
    learning_rate, num_particles, seed:
        Adam step size, Monte-Carlo particles per ELBO estimate, RNG seed.
        ``None`` for the first two defers to the guide family's preference
        (``default_learning_rate`` / ``default_num_particles``).
    """

    def __init__(self, potential: Potential, guide: Union[str, AutoGuide] = "auto_normal",
                 learning_rate: Optional[float] = None,
                 num_particles: Optional[int] = None,
                 seed: int = 0, **guide_kwargs):
        if isinstance(guide, str):
            guide = get_autoguide(guide, **guide_kwargs)
        elif guide_kwargs:
            raise ValueError("guide_kwargs only apply when the guide is given by name")
        if not isinstance(guide, AutoGuide):
            raise TypeError(f"expected an AutoGuide or family name, got {type(guide)!r}")
        self.potential = potential
        self.guide = guide.setup(potential)
        self.learning_rate = (learning_rate if learning_rate is not None
                              else guide.default_learning_rate)
        self.num_particles = (num_particles if num_particles is not None
                              else guide.default_num_particles)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.elbo_history: List[float] = []
        self._adam_m: Optional[List[np.ndarray]] = None
        self._adam_v: Optional[List[np.ndarray]] = None
        self._adam_t = 0
        #: extra run facts merged into ``posterior.metadata`` (the fluent
        #: pipeline records scheme/backend/model name here).
        self.metadata: Dict[str, Any] = {}
        self._posterior_cache: Optional[Posterior] = None
        self._run_target = 0
        self._snapshot_count = 0
        self.last_checkpoint_path: Optional[str] = None

    # ------------------------------------------------------------------
    # optimisation
    # ------------------------------------------------------------------
    @property
    def losses(self) -> List[float]:
        """Per-step negative-ELBO history (the minimised objective)."""
        return [-e for e in self.elbo_history]

    def step(self) -> float:
        """One ELBO ascent step; returns the ELBO estimate."""
        elbo, grads = self.guide.elbo_and_grads(self.potential, self.rng,
                                                self.num_particles)
        self.elbo_history.append(elbo)
        self._adam_update(grads)
        return elbo

    def _adam_update(self, grads: Sequence[np.ndarray]) -> None:
        # Kept operation-for-operation identical to the historical ADVI Adam
        # loop (descent form): seeded mean-field runs stay bitwise stable.
        params = self.guide.parameters()
        clip = self.guide.grad_clip
        if clip is not None:
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
            if norm > clip > 0:
                grads = [g * (clip / norm) for g in grads]
        beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
        if self._adam_m is None:
            self._adam_m = [np.zeros_like(p.data) for p in params]
            self._adam_v = [np.zeros_like(p.data) for p in params]
        self._adam_t += 1
        t = self._adam_t
        for p, g, m, v in zip(params, grads, self._adam_m, self._adam_v):
            m[:] = beta1 * m + (1 - beta1) * g
            v[:] = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1 ** t)
            v_hat = v / (1 - beta2 ** t)
            p.data = p.data - self.learning_rate * m_hat / (np.sqrt(v_hat) + eps_adam)

    def run(self, num_steps: int = 1000, checkpoint_every: Optional[int] = None,
            checkpoint_path: Optional[str] = None,
            checkpoint_keep: bool = False) -> "VI":
        """Optimise the guide for ``num_steps`` Adam steps.

        With ``checkpoint_every=N`` and ``checkpoint_path`` given, an
        optimizer-state snapshot (guide parameters, Adam moments, ELBO
        history, RNG bit-state) is written every ``N`` steps;
        ``checkpoint_keep`` additionally retains every snapshot as
        ``<path>.snap<k>``.  :meth:`resume` continues such a snapshot
        bitwise-identically to an uninterrupted run.
        """
        if checkpoint_every and not checkpoint_path:
            raise ValueError("checkpoint_every requires checkpoint_path")
        self._posterior_cache = None
        self._run_target = len(self.elbo_history) + int(num_steps)
        writer = None
        if checkpoint_every and checkpoint_path:
            # Resumed runs continue the history numbering where the
            # interrupted run left off (see CheckpointWriter).
            writer = CheckpointWriter(checkpoint_path, keep=checkpoint_keep,
                                      count=self._snapshot_count)
        for _ in range(num_steps):
            self.step()
            done = len(self.elbo_history)
            if writer is not None and \
                    done % int(checkpoint_every) == 0 and done < self._run_target:
                writer.write(self._checkpoint_payload(int(checkpoint_every),
                                                      writer.keep))
                self.last_checkpoint_path = writer.last_path
                self._snapshot_count = writer.count
        return self

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def _checkpoint_payload(self, checkpoint_every: int,
                            checkpoint_keep: bool = False) -> Dict[str, Any]:
        params = self.guide.parameters()
        return {
            "format": VI_CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "guide_name": self.guide.guide_name,
            "config": {
                "learning_rate": self.learning_rate,
                "num_particles": self.num_particles,
                "seed": self.seed,
            },
            "checkpoint_every": int(checkpoint_every),
            "checkpoint_keep": bool(checkpoint_keep),
            "steps_done": len(self.elbo_history),
            "target_steps": self._run_target,
            "elbo_history": list(self.elbo_history),
            "params": [np.array(p.data) for p in params],
            "adam": {
                "m": None if self._adam_m is None else [np.array(m) for m in self._adam_m],
                "v": None if self._adam_v is None else [np.array(v) for v in self._adam_v],
                "t": self._adam_t,
            },
            "rng_state": rng_state(self.rng),
        }

    @classmethod
    def resume(cls, path: str, potential: Potential,
               guide: Union[str, AutoGuide, None] = None,
               checkpoint_every: Optional[int] = None,
               checkpoint_path: Optional[str] = None,
               checkpoint_keep: Optional[bool] = None) -> "VI":
        """Continue an interrupted checkpointed fit to its target step count.

        ``potential`` must be rebuilt over the same model and data (model
        callables are deliberately not stored).  ``guide`` defaults to a
        fresh instance of the checkpoint's guide family; pass an instance
        for families constructed with non-default arguments (e.g.
        ``AutoLowRankMultivariateNormal(rank=4)``).  The continuation is
        bitwise-identical to an uninterrupted run: guide parameters, Adam
        moments and the RNG bit-state are all restored exactly.
        """
        payload = read_checkpoint(path, VI_CHECKPOINT_FORMAT)
        return cls.resume_payload(payload, potential, guide=guide,
                                  default_path=base_checkpoint_path(path),
                                  checkpoint_every=checkpoint_every,
                                  checkpoint_path=checkpoint_path,
                                  checkpoint_keep=checkpoint_keep)

    @classmethod
    def resume_payload(cls, payload: Dict[str, Any], potential: Potential,
                       guide: Union[str, AutoGuide, None] = None,
                       default_path: Optional[str] = None,
                       checkpoint_every: Optional[int] = None,
                       checkpoint_path: Optional[str] = None,
                       checkpoint_keep: Optional[bool] = None) -> "VI":
        """:meth:`resume` over an already-deserialized checkpoint payload."""
        if guide is None:
            guide = payload["guide_name"]
        engine = cls(potential, guide=guide, **payload["config"])
        params = engine.guide.parameters()
        saved = payload["params"]
        if len(params) != len(saved):
            raise ValueError(
                f"guide has {len(params)} parameter tensors, checkpoint stores "
                f"{len(saved)} — pass a guide constructed like the original")
        for p, value in zip(params, saved):
            p.data = np.array(value)
        adam = payload["adam"]
        engine._adam_m = None if adam["m"] is None else [np.array(m) for m in adam["m"]]
        engine._adam_v = None if adam["v"] is None else [np.array(v) for v in adam["v"]]
        engine._adam_t = int(adam["t"])
        engine.elbo_history = list(payload["elbo_history"])
        engine.rng = restore_rng(payload["rng_state"])
        engine._snapshot_count = int(payload.get("snapshot_count", 0))
        remaining = int(payload["target_steps"]) - int(payload["steps_done"])
        every = payload.get("checkpoint_every") if checkpoint_every is None \
            else checkpoint_every
        keep = bool(payload.get("checkpoint_keep", False)) if checkpoint_keep is None \
            else checkpoint_keep
        return engine.run(remaining, checkpoint_every=every or None,
                          checkpoint_path=checkpoint_path or default_path,
                          checkpoint_keep=keep)

    # ------------------------------------------------------------------
    # the fitted guide as a posterior approximation
    # ------------------------------------------------------------------
    @property
    def posterior(self) -> Posterior:
        """The fitted guide as a :class:`Posterior` (1000 draws, built once).

        Uses a dedicated RNG derived from the engine seed, so materialising
        the posterior never perturbs the training or ``posterior_draws``
        stream and is reproducible for a fixed seed.
        """
        if self._posterior_cache is None:
            num_samples = 1000
            rng = posterior_rng(self.seed)
            z = self.guide.sample_unconstrained(rng, num_samples)
            constrained = self.potential.constrained_dict_batched(z)
            draws = {name: value[None] for name, value in constrained.items()}
            metadata = {
                "method": "vi",
                "guide": self.guide.guide_name,
                "num_steps": len(self.elbo_history),
                "num_samples": num_samples,
                "seed": self.seed,
                "elbo_final": (float(np.mean(self.elbo_history[-10:]))
                               if self.elbo_history else None),
            }
            metadata.update(self.metadata)
            self._posterior_cache = Posterior(draws, unconstrained=z[None],
                                              metadata=metadata)
        return self._posterior_cache

    def posterior_draws(self, num_samples: int = 1000) -> Dict[str, np.ndarray]:
        """Draws from the fitted guide, mapped to constrained space."""
        z = self.guide.sample_unconstrained(self.rng, num_samples)
        return dict(self.potential.constrained_dict_batched(z))

    def guide_sample(self, num_samples: int = 1) -> Dict[str, np.ndarray]:
        """Like :meth:`posterior_draws`; a single draw loses the leading axis."""
        draws = self.posterior_draws(num_samples)
        if num_samples == 1:
            return {name: value[0] for name, value in draws.items()}
        return draws

    def guide_log_density(self, params: Dict[str, Any]):
        """Exact guide log density of *constrained* parameter values.

        ``params`` maps every latent site name to a value (or a batch of
        values with a leading sample axis).  The values are pulled back
        through the constraining transforms and the change-of-variables terms
        are subtracted, so this is a proper density over the constrained
        space.  Returns a float for a single draw, an array for a batch.
        """
        if not self.guide.has_density:
            raise RuntimeError(f"guide {self.guide.guide_name!r} has no density")
        sites = self.potential.sites
        missing = set(sites) - set(params)
        if missing:
            raise ValueError(f"missing latent sites: {sorted(missing)}")
        batched: Optional[bool] = None
        n = 1
        arrays = {}
        for name, info in sites.items():
            arr = np.asarray(params[name], dtype=float)
            extra = arr.ndim - len(info.constrained_shape)
            if extra not in (0, 1):
                raise ValueError(f"site {name!r}: shape {arr.shape} does not match "
                                 f"constrained shape {info.constrained_shape}")
            is_batch = extra == 1
            if batched is None:
                batched = is_batch
                n = arr.shape[0] if is_batch else 1
            elif is_batch != batched or (is_batch and arr.shape[0] != n):
                raise ValueError("inconsistent batch sizes across sites")
            arrays[name] = arr if is_batch else arr[None]
        z = np.empty((n, self.potential.dim))
        log_det = np.zeros(n)
        for name, info in sites.items():
            y_t = as_tensor(arrays[name])
            x_t = info.transform.inv(y_t)
            z[:, info.offset:info.offset + info.size] = \
                np.reshape(np.asarray(x_t.data, dtype=float), (n, info.size))
            term = info.transform.batched_log_abs_det_jacobian(x_t, y_t)
            log_det = log_det + np.asarray(term.data, dtype=float)
        out = self.guide.log_density(z) - log_det
        return out if batched else float(out[0])

    # ------------------------------------------------------------------
    # guide-quality diagnostics
    # ------------------------------------------------------------------
    def psis_diagnostic(self, num_samples: int = 1000,
                        seed: Optional[int] = None,
                        min_draws: Optional[int] = None) -> PSISResult:
        """PSIS of guide draws reweighted against the model joint.

        Importance ratios ``log p(z, x) - log q(z)`` are computed over
        unconstrained space (both densities include the same Jacobian terms,
        so the ratio is parameterisation independent).  Uses a dedicated RNG
        derived from the engine seed so the diagnostic never perturbs the
        training / posterior-draw stream.  ``min_draws`` makes the documented
        500-draw k-hat stability floor a hard error (see
        :func:`repro.infer.importance.pareto_smoothed_log_weights`).
        """
        if not self.guide.has_density:
            raise RuntimeError(
                f"guide {self.guide.guide_name!r} is a point mass; PSIS requires "
                "a proper guide density")
        rng = np.random.default_rng(self.seed + 1 if seed is None else seed)
        z = self.guide.sample_unconstrained(rng, num_samples)
        neg_logp = self.potential.potential_batched(z)
        log_q = self.guide.log_density(z)
        log_weights = (-neg_logp) - log_q
        slw, khat = pareto_smoothed_log_weights(log_weights, min_draws=min_draws)
        return PSISResult(khat=khat, ess=importance_ess(slw),
                          log_weights=slw, num_samples=num_samples)

    def diagnostics(self, num_psis_samples: int = 1000) -> Dict[str, Any]:
        """Summary of guide fit: ELBO trajectory plus the PSIS k-hat."""
        out: Dict[str, Any] = {
            "guide": self.guide.guide_name,
            "num_steps": len(self.elbo_history),
            "elbo_initial": self.elbo_history[0] if self.elbo_history else None,
            "elbo_final": (float(np.mean(self.elbo_history[-10:]))
                           if self.elbo_history else None),
        }
        if self.guide.has_density:
            psis = self.psis_diagnostic(num_samples=num_psis_samples)
            out["khat"] = psis.khat
            out["psis_ess"] = psis.ess
            out["psis_ok"] = psis.ok
        else:
            out["khat"] = None
            out["psis_ess"] = None
            out["psis_ok"] = None
        return out


class ExplicitVI:
    """VI against an explicit guide function (DeepStan ``guide`` blocks).

    Wraps the trace-based :class:`~repro.infer.svi.SVI` optimiser and exposes
    the same result interface as :class:`VI`, so ``fit("vi", guide=...)``
    callers can treat automatic and hand-written guides uniformly.
    ``model`` and ``guide`` are zero-argument callables over the
    :mod:`repro.ppl` primitives sharing latent site names.
    """

    guide_name = "explicit"

    def __init__(self, model: Callable, guide: Callable,
                 latent_names: Optional[Sequence[str]] = None,
                 learning_rate: Optional[float] = None,
                 num_particles: Optional[int] = None,
                 seed: int = 0):
        from repro.infer.svi import SVI, TraceELBO

        self.model = model
        self.guide_fn = guide
        self.latent_names = list(latent_names) if latent_names is not None else None
        self.seed = seed
        self.learning_rate = 0.05 if learning_rate is None else learning_rate
        # Trace-based particles re-execute the model, so the default stays 1.
        self.svi = SVI(model, guide, learning_rate=self.learning_rate,
                       loss=TraceELBO(num_particles=num_particles or 1), seed=seed)
        # Snapshot of the fitted guide parameters (see _restore_params).
        self._param_snapshot: Dict[str, np.ndarray] = {}
        #: extra run facts merged into ``posterior.metadata``.
        self.metadata: Dict[str, Any] = {}
        self._posterior_cache: Optional[Posterior] = None

    def run(self, num_steps: int = 1000) -> "ExplicitVI":
        self._posterior_cache = None
        self.svi.run(num_steps)
        from repro.ppl import primitives

        # The param store is global (Pyro's design); another fit may clear or
        # overwrite it.  Snapshotting the fitted values right after training —
        # and restoring them before every use of the guide — keeps each
        # ExplicitVI result self-contained.
        self._param_snapshot = {name: np.array(tensor.data)
                                for name, tensor in primitives.get_param_store().items()}
        return self

    def _restore_params(self) -> None:
        if not self._param_snapshot:
            return
        from repro.autodiff.tensor import Tensor as _Tensor
        from repro.ppl import primitives

        store = primitives.get_param_store()
        for name, value in self._param_snapshot.items():
            if name in store:
                store[name].data = np.array(value)
            else:
                tensor = _Tensor(np.array(value), requires_grad=True)
                tensor.name = name
                store[name] = tensor

    @property
    def losses(self) -> List[float]:
        return self.svi.losses

    @property
    def elbo_history(self) -> List[float]:
        return self.svi.elbo_history

    # ------------------------------------------------------------------
    @property
    def posterior(self) -> Posterior:
        """The fitted explicit guide as a :class:`Posterior` (1000 draws).

        Trace-based guides have no flat unconstrained parameterisation, so
        ``unconstrained`` is ``None``; the draw stream comes from a dedicated
        RNG derived from the engine seed.
        """
        if self._posterior_cache is None:
            num_samples = 1000
            self._restore_params()
            rng = posterior_rng(self.seed)
            out: Dict[str, List[np.ndarray]] = {}
            for _ in range(num_samples):
                latents, _ = self._sample_latents(rng)
                for name, value in latents.items():
                    if self.latent_names is None or name in self.latent_names:
                        out.setdefault(name, []).append(value)
            draws = {name: np.array(values)[None] for name, values in out.items()}
            metadata = {
                "method": "vi",
                "guide": self.guide_name,
                "num_steps": len(self.elbo_history),
                "num_samples": num_samples,
                "seed": self.seed,
                "elbo_final": (float(np.mean(self.elbo_history[-10:]))
                               if self.elbo_history else None),
            }
            metadata.update(self.metadata)
            self._posterior_cache = Posterior(draws, metadata=metadata)
        return self._posterior_cache

    def posterior_draws(self, num_samples: int = 1000) -> Dict[str, np.ndarray]:
        self._restore_params()
        return self.svi.sample_posterior(num_samples, site_names=self.latent_names)

    def guide_sample(self, num_samples: int = 1) -> Dict[str, np.ndarray]:
        draws = self.posterior_draws(num_samples)
        if num_samples == 1:
            return {name: value[0] for name, value in draws.items()}
        return draws

    def _sample_latents(self, rng: np.random.Generator):
        """One guide execution: ``(latent values, trace)`` — no density work.

        Callers must :meth:`_restore_params` first (once, not per draw).
        """
        tracer = handlers.trace()
        with handlers.seed(rng_seed=rng), tracer:
            self.guide_fn()
        latents: Dict[str, np.ndarray] = {}
        for name, site in handlers.latent_sites(tracer.trace).items():
            value = site["value"]
            raw = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=float)
            latents[name] = np.array(raw, dtype=float)
        return latents, tracer.trace

    def _trace_guide(self, rng: np.random.Generator):
        """One guide execution: latent values and their joint log density.

        Callers must :meth:`_restore_params` first (once, not per draw).
        """
        latents, trace = self._sample_latents(rng)
        log_q = 0.0
        for site in handlers.latent_sites(trace).values():
            lp = site["fn"].log_prob(site["value"])
            lp_val = lp.data if isinstance(lp, Tensor) else np.asarray(lp)
            log_q += float(np.sum(lp_val))
        return latents, log_q

    def guide_log_density(self, params: Dict[str, Any]) -> float:
        """Joint guide density of one set of latent values.

        The guide runs with its sample sites substituted by ``params`` — for
        branching guides this scores the branch the substituted values select.
        """
        self._restore_params()
        tracer = handlers.trace()
        with handlers.seed(rng_seed=self.seed), \
             handlers.substitute(data=dict(params)), tracer:
            self.guide_fn()
        total = 0.0
        for name, site in tracer.trace.items():
            if site["type"] != "sample" or site["is_observed"]:
                continue
            lp = site["fn"].log_prob(site["value"])
            lp_val = lp.data if isinstance(lp, Tensor) else np.asarray(lp)
            total += float(np.sum(lp_val))
        return total

    # ------------------------------------------------------------------
    def psis_diagnostic(self, num_samples: int = 500,
                        seed: Optional[int] = None,
                        min_draws: Optional[int] = None) -> PSISResult:
        """PSIS k-hat of the explicit guide against the model joint."""
        self._restore_params()
        rng = np.random.default_rng(self.seed + 1 if seed is None else seed)
        log_weights = np.empty(num_samples)
        for i in range(num_samples):
            latents, log_q = self._trace_guide(rng)
            log_p, _ = handlers.log_density(self.model, substituted=latents)
            log_weights[i] = float(log_p.data) - log_q
        slw, khat = pareto_smoothed_log_weights(log_weights, min_draws=min_draws)
        return PSISResult(khat=khat, ess=importance_ess(slw),
                          log_weights=slw, num_samples=num_samples)

    def diagnostics(self, num_psis_samples: int = 500) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "guide": self.guide_name,
            "num_steps": len(self.elbo_history),
            "elbo_initial": self.elbo_history[0] if self.elbo_history else None,
            "elbo_final": (float(np.mean(self.elbo_history[-10:]))
                           if self.elbo_history else None),
        }
        psis = self.psis_diagnostic(num_samples=num_psis_samples)
        out["khat"] = psis.khat
        out["psis_ess"] = psis.ess
        out["psis_ok"] = psis.ok
        return out
