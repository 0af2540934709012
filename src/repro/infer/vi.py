"""Variational inference: the autoguide engine and the fitted-guide surface.

Two engines optimise a guide.  :class:`VI` optimises any
:class:`~repro.guides.base.AutoGuide` against a
:class:`~repro.infer.potential.Potential` with Adam, evaluating multi-particle
ELBOs through the vectorized ``potential_and_grad_batched`` fast path (the
particles ride the chain axis of the batched tape).
:class:`~repro.infer.svi.SVI` optimises an explicit guide function (DeepStan
``guide`` blocks) with trace-based ELBOs.  Both are a :class:`FittedGuide`,
which writes the result surface once, so
``compiled.condition(data).fit("vi", guide=...)`` behaves uniformly across the
whole guide spectrum:

* ``elbo_history`` / ``losses`` — the per-step objective trace;
* ``posterior`` / ``guide_sample()`` / ``posterior_draws()`` — draws from the
  fitted guide in constrained parameter space;
* ``guide_log_density()`` — the exact guide density of constrained values;
* ``psis_diagnostic()`` — Pareto-smoothed importance weights of guide draws
  reweighted against the model joint.  The fitted shape ``k-hat`` reports
  which guide family actually covers the posterior (k-hat < 0.7 is the usual
  "reliable" threshold), turning the paper's Fig. 10 contrast between
  mean-field ADVI and the explicit multimodal guide into a measurable number.

An engine supplies only how it draws from its fitted guide
(:meth:`FittedGuide._draw`) and how it weights a draw
(:meth:`FittedGuide._log_weights`).

The Adam update of :class:`VI` is written in the exact arithmetic of the
historical ADVI optimiser, so ``VI(guide=AutoNormal())`` stays bitwise equal
to it under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autodiff.tensor import as_tensor
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


class FittedGuide:
    """The result surface of a fitted guide, shared by :class:`VI` and
    :class:`~repro.infer.svi.SVI`.

    An engine supplies two things: :meth:`_draw`, draws from its fitted
    guide, and :meth:`_log_weights`, the importance log weights
    ``log p(z, x) - log q(z)`` of fresh guide draws.  It also holds
    ``guide_name``, ``seed``, ``rng`` (the ``posterior_draws`` stream),
    ``elbo_history``, ``metadata`` (extra run facts merged into
    ``posterior.metadata``; the fluent pipeline records scheme/backend/model
    name here) and ``_posterior_cache``.
    """

    #: guide draws of ``psis_diagnostic()`` / ``diagnostics()`` by default.
    psis_draws = 1000
    has_density = True

    def _draw(self, rng: np.random.Generator, num_samples: int
              ) -> Tuple[Dict[str, np.ndarray], Optional[np.ndarray]]:
        """``num_samples`` constrained draws by site, and their unconstrained
        ``(num_samples, dim)`` matrix when the guide has one (else ``None``)."""
        raise NotImplementedError

    def _log_weights(self, rng: np.random.Generator, num_samples: int) -> np.ndarray:
        """``log p(z, x) - log q(z)`` of ``num_samples`` fresh guide draws."""
        raise NotImplementedError

    def _elbo_final(self) -> Optional[float]:
        return float(np.mean(self.elbo_history[-10:])) if self.elbo_history else None

    @property
    def posterior(self) -> Posterior:
        """The fitted guide as a :class:`Posterior` (1000 draws, built once).

        Uses a dedicated RNG derived from the engine seed, so materialising
        the posterior never perturbs the training or ``posterior_draws``
        stream and is reproducible for a fixed seed.
        """
        if self._posterior_cache is None:
            num_samples = 1000
            draws, z = self._draw(posterior_rng(self.seed), num_samples)
            metadata = {
                "method": "vi",
                "guide": self.guide_name,
                "num_steps": len(self.elbo_history),
                "num_samples": num_samples,
                "seed": self.seed,
                "elbo_final": self._elbo_final(),
            }
            metadata.update(self.metadata)
            self._posterior_cache = Posterior(
                {name: value[None] for name, value in draws.items()},
                unconstrained=None if z is None else z[None], metadata=metadata)
        return self._posterior_cache

    def posterior_draws(self, num_samples: int = 1000) -> Dict[str, np.ndarray]:
        """Draws from the fitted guide, mapped to constrained space."""
        return self._draw(self.rng, num_samples)[0]

    def guide_sample(self, num_samples: int = 1) -> Dict[str, np.ndarray]:
        """Like :meth:`posterior_draws`; a single draw loses the leading axis."""
        draws = self.posterior_draws(num_samples)
        if num_samples == 1:
            return {name: value[0] for name, value in draws.items()}
        return draws

    def psis_diagnostic(self, num_samples: Optional[int] = None,
                        seed: Optional[int] = None,
                        min_draws: Optional[int] = None) -> PSISResult:
        """PSIS of guide draws reweighted against the model joint.

        ``num_samples`` defaults to :attr:`psis_draws`.  Uses a dedicated RNG
        derived from the engine seed so the diagnostic never perturbs the
        training / posterior-draw stream.  ``min_draws`` makes the documented
        500-draw k-hat stability floor a hard error (see
        :func:`repro.infer.importance.pareto_smoothed_log_weights`).
        """
        if not self.has_density:
            raise RuntimeError(
                f"guide {self.guide_name!r} is a point mass; PSIS requires "
                "a proper guide density")
        rng = np.random.default_rng(self.seed + 1 if seed is None else seed)
        log_weights = self._log_weights(
            rng, self.psis_draws if num_samples is None else num_samples)
        slw, khat = pareto_smoothed_log_weights(log_weights, min_draws=min_draws)
        return PSISResult(khat=khat, ess=importance_ess(slw),
                          log_weights=slw, num_samples=len(log_weights))

    def diagnostics(self, num_psis_samples: Optional[int] = None) -> Dict[str, Any]:
        """Summary of guide fit: ELBO trajectory plus the PSIS k-hat."""
        out: Dict[str, Any] = {
            "guide": self.guide_name,
            "num_steps": len(self.elbo_history),
            "elbo_initial": self.elbo_history[0] if self.elbo_history else None,
            "elbo_final": self._elbo_final(),
            "khat": None, "psis_ess": None, "psis_ok": None,
        }
        if self.has_density:
            psis = self.psis_diagnostic(num_samples=num_psis_samples)
            out.update(khat=psis.khat, psis_ess=psis.ess, psis_ok=psis.ok)
        return out


class VI(FittedGuide):
    """Stochastic VI of an automatic guide against a potential function.

    Parameters
    ----------
    potential:
        The model's :class:`~repro.infer.potential.Potential`.
    guide:
        An :class:`~repro.guides.base.AutoGuide` instance or a family name
        (``"auto_normal"``, ``"auto_mvn"``, ``"auto_lowrank"``,
        ``"auto_delta"``, ``"auto_neural"``).
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
    def guide_name(self) -> str:
        return self.guide.guide_name

    @property
    def has_density(self) -> bool:
        return self.guide.has_density

    def _draw(self, rng, num_samples):
        z = self.guide.sample_unconstrained(rng, num_samples)
        return dict(self.potential.constrained_dict_batched(z)), z

    def _log_weights(self, rng, num_samples):
        # Over unconstrained space: both densities include the same Jacobian
        # terms, so the ratio is parameterisation independent.
        z = self.guide.sample_unconstrained(rng, num_samples)
        return -self.potential.potential_batched(z) - self.guide.log_density(z)

    def guide_log_density(self, params: Dict[str, Any]):
        """Exact guide log density of *constrained* parameter values.

        ``params`` maps every latent site name to a value (or a batch of
        values with a leading sample axis).  The values are pulled back
        through the constraining transforms and the change-of-variables terms
        are subtracted, so this is a proper density over the constrained
        space.  Returns a float for a single draw, an array for a batch.
        """
        if not self.has_density:
            raise RuntimeError(f"guide {self.guide_name!r} has no density")
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
