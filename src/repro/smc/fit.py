"""The streaming SMC engine: ``fit("smc")`` + ``extend(new_data)``.

:class:`StreamingFit` maintains a :class:`~repro.smc.ensemble.ParticleEnsemble`
whose particles ride the batched ``(C, dim)`` evaluation axis, and moves it
between posteriors with data-tempered :class:`SMCUpdate` steps:

1. **Initialize** (``fit("smc")``): seed the ensemble from an analytic
   diagonal-Gaussian reference — moment-matched to *prior* draws
   (``init="prior"``) or to a *guide* (``init="guide"``: an
   :class:`~repro.guides.base.AutoGuide`, a PR-8
   :class:`~repro.serve.AmortizedModel` artifact, or an autoguide name) —
   then temper from the reference to the conditioned posterior.  Sampling
   the ensemble *from* the reference makes the ``beta = 0`` weights exactly
   uniform; the tempering ladder is the importance correction.
2. **Assimilate** (``extend(new_data)``): temper from the potential over
   the previous data to the potential over the updated data, reusing the
   fitted ensemble instead of refitting from scratch.

Each :class:`SMCUpdate` runs the adaptive ladder: reweight (one value-only
batched evaluation of each bridge endpoint), pick the next rung by ESS
bisection (``smc.temper`` span), resample when the ESS decays
(``smc.resample`` span), and rejuvenate with generator-driven HMC/NUTS
transitions over the tempered potential, advanced by the same
:func:`~repro.infer.hmc.drive` loop as MCMC chains, so moves run batched
under ``chain_method="vectorized"`` and are bitwise-identical to the
sequential row loop.  A ``Posterior`` is emitted after every assimilation,
and the full engine state (ensemble, every RNG bit-state, ladder position,
move tuning) checkpoints through :mod:`repro.infer.checkpoint` so long-lived
streaming fits kill/resume bitwise.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.infer.checkpoint import CHECKPOINT_VERSION, CheckpointWriter
from repro.infer.hmc import HMC, answer_for, check_chain_method, drive
from repro.infer.nuts import NUTS
from repro.infer.results import Posterior

from .ensemble import ParticleEnsemble
from .resample import get_resampler
from .tempering import GaussianReference, TemperedPotential, next_beta

SMC_CHECKPOINT_FORMAT = "repro-smc-checkpoint"

#: domain tags for the dedicated RNG streams (posterior materialization and
#: reference construction) — derived from the fit seed, never touching the
#: ensemble's per-particle streams.
_EMIT_TAG = 0x534D4350   # "SMCP"
_INIT_TAG = 0x534D4349   # "SMCI"

#: constructor knobs carried verbatim in the checkpoint config.
_CONFIG_KEYS = ("num_particles", "seed", "init", "resampler", "ess_threshold",
                "num_moves", "move_num_steps", "move_kernel", "max_tree_depth",
                "chain_method", "init_draws", "init_inflation", "target_accept")


class SMCUpdate:
    """One data-tempering assimilation: bridge ``base -> target``.

    Owns the adaptive ladder loop over a shared ensemble; the
    :class:`StreamingFit` front constructs one per ``fit("smc")`` /
    ``extend()`` call and drives it to ``beta = 1``.  ``beta`` and the
    ladder trace are exposed so the front can checkpoint mid-bridge and a
    resumed update continues from the recorded rung.
    """

    def __init__(self, fit: "StreamingFit", base, target,
                 beta: float = 0.0, ladder: Optional[List[dict]] = None):
        self.fit = fit
        self.base = base
        self.target = target
        self.bridge = TemperedPotential(base, target, beta=beta)
        self.beta = float(beta)
        self.ladder: List[dict] = list(ladder or [])

    @property
    def done(self) -> bool:
        return self.beta >= 1.0

    def run(self) -> List[dict]:
        """Advance the ladder to ``beta = 1``; returns the rung trace."""
        fit = self.fit
        ensemble = fit.ensemble
        n = ensemble.num_particles
        target_ess = fit.ess_threshold * n
        telemetry = fit.telemetry
        while self.beta < 1.0:
            with telemetry.span("smc.step", assimilation=fit.assimilations,
                                step=len(self.ladder), beta=self.beta) as span:
                u0 = self.base.potential_batched(ensemble.positions)
                u1 = self.target.potential_batched(ensemble.positions)
                delta = u0 - u1
                with telemetry.span("smc.temper", beta=self.beta):
                    beta_new = next_beta(ensemble.log_weights, delta,
                                         self.beta, target_ess)
                ensemble.log_weights = ensemble.log_weights \
                    + (beta_new - self.beta) * delta
                self.beta = beta_new
                self.bridge.beta = beta_new
                ess_now = ensemble.ess()
                rung = {"beta": beta_new, "ess": ess_now,
                        "resampled": False, "accept_mean": None}
                # Every intermediate rung resamples and moves (the bisection
                # pins the post-update ESS at the threshold, so skipping
                # would let weight degeneracy compound); the final rung only
                # rejuvenates if the last jump overshot the ESS budget.
                if beta_new < 1.0 or ess_now < target_ess:
                    with telemetry.span("smc.resample",
                                        scheme=fit.resampler_name,
                                        ess=ess_now):
                        ensemble.resample(fit.resampler_fn)
                    fit.metrics.inc("smc.resamples")
                    rung["resampled"] = True
                    rung["accept_mean"] = fit._rejuvenate(self.bridge)
                fit.metrics.inc("smc.steps")
                fit.metrics.set_info("smc.beta", round(beta_new, 6))
                fit.metrics.set_info("smc.ess", round(ensemble.ess(), 2))
                span.set(beta_next=beta_new, ess=ess_now,
                         resampled=rung["resampled"])
                self.ladder.append(rung)
                fit.steps_total += 1
                fit._maybe_checkpoint()
        return self.ladder


class StreamingFit:
    """The ``fit("smc")`` engine and its ``extend()`` streaming front.

    Satisfies the :class:`~repro.infer.results.FitResult` protocol
    (``.posterior`` + ``.diagnostics()``).  ``posteriors`` keeps the full
    per-assimilation history; ``posterior`` is the latest.
    """

    def __init__(self, conditioned, *, num_particles: int = 256,
                 seed: int = 0, init: str = "prior", guide: Any = None,
                 resampler: str = "systematic", ess_threshold: float = 0.5,
                 num_moves: int = 2, move_num_steps: int = 5,
                 move_kernel: str = "hmc", max_tree_depth: int = 6,
                 target_accept: float = 0.8,
                 chain_method: Optional[str] = None,
                 init_draws: int = 128, init_inflation: float = 1.5,
                 engine: Any = None,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_path: Optional[str] = None,
                 checkpoint_keep: bool = False):
        if not 0.0 < ess_threshold <= 1.0:
            raise ValueError("ess_threshold must be in (0, 1]")
        if move_kernel not in ("hmc", "nuts"):
            raise ValueError(f"move_kernel must be 'hmc' or 'nuts', "
                             f"got {move_kernel!r}")
        self.conditioned = conditioned
        self.num_particles = int(num_particles)
        self.seed = int(seed)
        self.init = init
        self.guide = guide
        self.resampler_name = resampler
        self.resampler_fn = get_resampler(resampler)
        self.ess_threshold = float(ess_threshold)
        self.num_moves = int(num_moves)
        self.move_num_steps = int(move_num_steps)
        self.move_kernel = move_kernel
        self.max_tree_depth = int(max_tree_depth)
        self.target_accept = float(target_accept)
        self.chain_method = check_chain_method(
            "vectorized" if chain_method is None else chain_method)
        self.init_draws = int(init_draws)
        self.init_inflation = float(init_inflation)
        self.engine = engine
        self.engine_config = conditioned.compiled.resolved_engine(engine)

        # The batched fast/loop classification is structural — how the model
        # graph vectorizes over the particle axis, not the chunk length — so
        # every potential in the stream (the initial target, each extend()'s
        # target, resumed bases) shares one tier table: only the first
        # assimilation pays the probe validation, and extend() goes straight
        # to the validated tier.  The runtime demote guard still protects
        # each potential individually.
        self._batched_tiers: Dict[int, str] = {}
        self.target = conditioned.potential(self.seed, engine=engine)
        self.target.share_batched_classification(self._batched_tiers)
        self.telemetry = self.target.telemetry
        from repro.obs import MetricsRegistry
        self.metrics = self.telemetry.attach_registry("smc", MetricsRegistry())

        self.ensemble: Optional[ParticleEnsemble] = None
        self.posteriors: List[Posterior] = []
        self.ladders: List[List[dict]] = []
        self.assimilations = 0
        self.steps_total = 0
        self.emit_count = 0
        self.move_step_size = 0.25
        self.runtime_seconds = 0.0
        self._last_accept: Optional[np.ndarray] = None
        self._divergences = 0
        self._update: Optional[SMCUpdate] = None
        self._base_spec: Optional[dict] = None
        self.metadata: Dict[str, Any] = conditioned._metadata(
            "smc", self.seed, self.engine_config)

        self.checkpoint_every = checkpoint_every
        self._writer = CheckpointWriter(checkpoint_path, keep=checkpoint_keep) \
            if checkpoint_path and checkpoint_every else None

    # ------------------------------------------------------------------
    # initialization (fit("smc"))
    # ------------------------------------------------------------------
    def run(self) -> "StreamingFit":
        """Seed the ensemble from the reference and temper to the posterior."""
        if self.ensemble is not None:
            raise RuntimeError("this StreamingFit already ran; use extend()")
        start = time.perf_counter()
        with self.telemetry.span("smc.run", phase="init", init=self.init,
                                 num_particles=self.num_particles):
            reference = self._build_reference()
            self.ensemble = ParticleEnsemble.allocate(
                self.num_particles, self.target.dim, self.seed)
            # Each particle draws its start from its own slot stream, so the
            # initial state depends only on (seed, slot) — and sampling from
            # the reference makes the beta=0 weights exactly uniform.
            for i in range(self.num_particles):
                self.ensemble.positions[i] = reference.sample(
                    self.ensemble.rngs[i], 1)[0]
            self._base_spec = {"kind": "reference", **reference.snapshot()}
            self._last_accept = None
            self._divergences = 0
            self._update = SMCUpdate(self, reference, self.target)
            self._update.run()
            self._finish_assimilation()
        self.runtime_seconds += time.perf_counter() - start
        return self

    def _build_reference(self) -> GaussianReference:
        if self.init == "prior":
            draws = self._prior_unconstrained_draws()
            return GaussianReference.from_draws(
                draws, inflation=self.init_inflation)
        if self.init == "guide":
            return self._guide_reference()
        raise ValueError(f"unknown init {self.init!r}; "
                         "expected 'prior' or 'guide'")

    def _prior_unconstrained_draws(self) -> np.ndarray:
        """Prior draws packed to the unconstrained scale, ``(S, dim)``."""
        pot = self.target
        draws = self.conditioned.sample_prior(num_draws=self.init_draws,
                                              seed=self.seed)
        packed = np.zeros((self.init_draws, pot.dim))
        for name, info in pot.sites.items():
            values = draws.get(name)
            if values is None:
                continue
            for s in range(self.init_draws):
                unc = info.transform.inv(values[s])
                unc = np.asarray(getattr(unc, "data", unc), dtype=float)
                packed[s, info.offset:info.offset + info.size] = unc.reshape(-1)
        return packed

    def _guide_reference(self) -> GaussianReference:
        guide = self.guide
        if guide is None:
            raise ValueError('init="guide" needs guide=<AutoGuide instance, '
                             "AmortizedModel, or autoguide name>")
        # A PR-8 amortized artifact predicts the guide moments for *this*
        # dataset directly from its observed-vector features — the warm
        # start the serving layer already computes per query.
        if hasattr(guide, "moments_for") and hasattr(guide, "features_for"):
            features = np.asarray(guide.features_for(self.target), dtype=float)
            if features.ndim == 1:
                features = features[None, :]
            loc, scale = guide.moments_for(features)
            return GaussianReference.from_moments(
                np.asarray(loc)[0], np.asarray(scale)[0],
                inflation=self.init_inflation)
        if isinstance(guide, str):
            from repro.guides import get_autoguide
            guide = get_autoguide(guide)
        if getattr(guide, "dim", None) != self.target.dim:
            guide.setup(self.target)
        rng = np.random.default_rng([self.seed, _INIT_TAG])
        draws = np.asarray(guide.sample_unconstrained(
            rng, max(self.init_draws, 64)), dtype=float)
        return GaussianReference.from_draws(draws,
                                            inflation=self.init_inflation)

    # ------------------------------------------------------------------
    # streaming (extend)
    # ------------------------------------------------------------------
    def extend(self, data: Dict[str, Any]) -> Posterior:
        """Absorb ``data`` (the *full* updated dataset) into the posterior.

        Tempers from the potential over the previous data to the potential
        over ``data`` — the fitted ensemble is the bridge's starting
        distribution, so no refit from scratch.  The model's unconstrained
        dimension must not change (true for growing-observation streams;
        enumerated discrete states are marginalized out and never enter the
        particle state).  Returns the newly emitted :class:`Posterior`.
        """
        if self.ensemble is None:
            raise RuntimeError("run() this fit before extending it")
        start = time.perf_counter()
        previous = self.conditioned
        base = self.target
        new_conditioned = previous.compiled.condition(dict(data))
        new_target = new_conditioned.potential(self.seed, engine=self.engine)
        if new_target.dim != base.dim:
            raise ValueError(
                f"extend() changed the unconstrained dimension "
                f"({base.dim} -> {new_target.dim}); streaming SMC requires "
                "a fixed parameter space")
        new_target.share_batched_classification(self._batched_tiers)
        with self.telemetry.span("smc.run", phase="extend",
                                 assimilation=self.assimilations):
            self.conditioned = new_conditioned
            self.target = new_target
            self._base_spec = {"kind": "data",
                               "data": _snapshot_data(previous.data)}
            self._last_accept = None
            self._divergences = 0
            self._update = SMCUpdate(self, base, new_target)
            self._update.run()
            posterior = self._finish_assimilation()
        self.runtime_seconds += time.perf_counter() - start
        return posterior

    # ------------------------------------------------------------------
    # rejuvenation (resample-move)
    # ------------------------------------------------------------------
    def _make_move_kernel(self, bridge: TemperedPotential):
        if self.move_kernel == "nuts":
            return NUTS(bridge, step_size=self.move_step_size,
                        max_tree_depth=self.max_tree_depth,
                        adapt_step_size=False, adapt_mass_matrix=False,
                        target_accept=self.target_accept)
        return HMC(bridge, step_size=self.move_step_size,
                   num_steps=self.move_num_steps,
                   adapt_step_size=False, adapt_mass_matrix=False,
                   target_accept=self.target_accept)

    def _rejuvenate(self, bridge: TemperedPotential) -> float:
        """``num_moves`` invariant transitions per particle at the current rung.

        The inverse mass matrix is the ensemble's own (post-resample)
        variance; the step size is tuned *between* rejuvenations from the
        realized acceptance — a deterministic function of the ensemble
        history, so checkpoints restore the tuning state exactly.
        """
        kernel = self._make_move_kernel(bridge)
        answer = answer_for(bridge, self.chain_method, self.ensemble.num_particles,
                            self.telemetry)
        inv_mass = self.ensemble.weighted_variance()
        accept = np.zeros(self.ensemble.num_particles)
        for _ in range(self.num_moves):
            infos = self._move_round(kernel, answer, self.move_step_size, inv_mass)
            accept = np.array([info["accept_prob"] for info in infos])
            self.metrics.inc("smc.moves")
        self._divergences = int(kernel.divergences)
        self._last_accept = accept
        mean_accept = float(np.mean(accept))
        self.metrics.set_info("smc.accept_mean", round(mean_accept, 4))
        if mean_accept < 0.4:
            self.move_step_size = max(self.move_step_size * 0.5, 1e-5)
        elif mean_accept > 0.85:
            self.move_step_size = min(self.move_step_size * 1.4, 2.0)
        return mean_accept

    def _move_round(self, kernel, answer, step_size: float,
                    inv_mass: np.ndarray) -> List[dict]:
        """One transition per particle, all advanced by one :func:`drive`.

        ``answer`` is the chain method's: the sequential row loop or one
        ``potential_and_grad_batched`` call per round.  The bridge inherits
        the endpoints' batched-vs-sequential bitwise contract, so both give
        identical ensembles.
        """
        ensemble = self.ensemble
        new_positions = np.empty_like(ensemble.positions)
        infos: List[Optional[dict]] = [None] * ensemble.num_particles

        def finished(i, result):
            new_positions[i], infos[i] = result
        drive([kernel._transition_gen(position.copy(), rng, step_size, inv_mass)
               for position, rng in zip(ensemble.positions, ensemble.rngs)],
              answer, finished)
        ensemble.positions = new_positions
        return infos  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # posterior emission
    # ------------------------------------------------------------------
    def _finish_assimilation(self) -> Posterior:
        ladder = self._update.ladder if self._update is not None else []
        self.ladders.append(ladder)
        self.assimilations += 1
        self._update = None
        self._base_spec = None
        posterior = self._emit_posterior(ladder)
        self.posteriors.append(posterior)
        self._maybe_checkpoint(force_boundary=True)
        return posterior

    def _emit_posterior(self, ladder: List[dict]) -> Posterior:
        """Materialize the weighted ensemble as an equal-weight Posterior.

        Importance-resamples the particles with a dedicated per-emission RNG
        (derived from ``(seed, tag, emit_count)``), so building a posterior
        never perturbs the engine streams and every emission is independent
        of when it happens.
        """
        ensemble = self.ensemble
        n = ensemble.num_particles
        rng = np.random.default_rng([self.seed, _EMIT_TAG, self.emit_count])
        weights = ensemble.weights()
        cumulative = np.cumsum(weights)
        cumulative[-1] = 1.0
        indices = np.searchsorted(cumulative, rng.random(n), side="right")
        z = ensemble.positions[indices]
        constrained = self.target.constrained_dict_batched(z)
        draws = {name: value[None, ...] for name, value in constrained.items()}
        log_norm = ensemble.log_weights \
            - np.log(np.sum(np.exp(ensemble.log_weights
                                   - np.max(ensemble.log_weights)))) \
            - np.max(ensemble.log_weights)
        stats: Dict[str, np.ndarray] = {"log_weight": log_norm[indices][None]}
        if self._last_accept is not None:
            stats["accept_prob"] = self._last_accept[indices][None]
        metadata = dict(self.metadata)
        metadata.update(
            num_particles=n,
            assimilation=self.assimilations,
            tempering_steps=len(ladder),
            beta_ladder=[round(r["beta"], 6) for r in ladder],
            ess=ensemble.ess(),
            normalized_ess=ensemble.normalized_ess(),
            resampler=self.resampler_name,
            init=self.init,
            chain_method=self.chain_method,
            divergences=self._divergences,
        )
        self.emit_count += 1
        return Posterior(draws=draws, stats=stats, unconstrained=z[None],
                         metadata=metadata)

    # ------------------------------------------------------------------
    # FitResult protocol
    # ------------------------------------------------------------------
    @property
    def posterior(self) -> Posterior:
        if not self.posteriors:
            raise RuntimeError("no posterior emitted yet; run() the fit first")
        return self.posteriors[-1]

    def diagnostics(self) -> Dict[str, Any]:
        ensemble = self.ensemble
        return {
            "assimilations": self.assimilations,
            "tempering_steps": self.steps_total,
            "ess": ensemble.ess() if ensemble is not None else None,
            "normalized_ess": (ensemble.normalized_ess()
                               if ensemble is not None else None),
            "beta_ladders": [[round(r["beta"], 6) for r in ladder]
                             for ladder in self.ladders],
            "move_step_size": self.move_step_size,
            "divergences": self._divergences,
            "posteriors_emitted": len(self.posteriors),
            "runtime_seconds": self.runtime_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"StreamingFit(particles={self.num_particles}, "
                f"assimilations={self.assimilations}, "
                f"posteriors={len(self.posteriors)})")

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _maybe_checkpoint(self, force_boundary: bool = False) -> None:
        if self._writer is None:
            return
        if force_boundary or (self.checkpoint_every
                              and self.steps_total % self.checkpoint_every == 0):
            self._writer.write(self.checkpoint_payload())

    def checkpoint_payload(self) -> Dict[str, Any]:
        """The full engine state (PR-3 checkpoint protocol, SMC format)."""
        stage: Dict[str, Any] = {
            "assimilations": self.assimilations,
            "steps_total": self.steps_total,
            "emit_count": self.emit_count,
            "move_step_size": self.move_step_size,
            "divergences": self._divergences,
            "last_accept": (None if self._last_accept is None
                            else self._last_accept.copy()),
            "runtime_so_far": self.runtime_seconds,
            "data": _snapshot_data(self.conditioned.data),
            "base": self._base_spec,
            "beta": self._update.beta if self._update is not None else None,
            "ladder": (list(self._update.ladder)
                       if self._update is not None else None),
        }
        return {
            "format": SMC_CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": {key: getattr(self, _ATTR_FOR_KEY.get(key, key))
                       for key in _CONFIG_KEYS},
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_keep": (self._writer.keep
                                if self._writer is not None else False),
            "stage": stage,
            "ensemble": self.ensemble.snapshot(),
            "history": [_posterior_state(p) for p in self.posteriors],
            "ladders": [list(ladder) for ladder in self.ladders],
        }

    @classmethod
    def resume_payload(cls, payload: Dict[str, Any], conditioned,
                       default_path: Optional[str] = None,
                       checkpoint_every: Optional[int] = None,
                       checkpoint_path: Optional[str] = None,
                       checkpoint_keep: Optional[bool] = None,
                       engine: Any = None) -> "StreamingFit":
        """Rebuild a streaming fit from its checkpoint and finish any
        in-flight assimilation.

        The conditioned data recorded in the checkpoint wins over whatever
        ``conditioned`` currently holds (the snapshot *is* the stream
        position); ``conditioned`` supplies the compiled model.  The
        continuation is bitwise-identical to the uninterrupted fit; further
        ``extend()`` calls pick up the stream from there.
        """
        config = dict(payload["config"])
        stage = payload["stage"]
        compiled = conditioned.compiled
        every = checkpoint_every if checkpoint_every is not None \
            else payload.get("checkpoint_every")
        keep = checkpoint_keep if checkpoint_keep is not None \
            else payload.get("checkpoint_keep", False)
        path = checkpoint_path or default_path
        fit = cls(compiled.condition(stage["data"]), engine=engine,
                  checkpoint_every=every, checkpoint_path=path,
                  checkpoint_keep=bool(keep), **config)
        if fit._writer is not None:
            fit._writer.count = int(payload.get("snapshot_count", 0))
        fit.ensemble = ParticleEnsemble.from_snapshot(payload["ensemble"])
        fit.posteriors = [_posterior_from_state(state)
                          for state in payload.get("history", [])]
        fit.ladders = [list(ladder) for ladder in payload.get("ladders", [])]
        fit.assimilations = int(stage["assimilations"])
        fit.steps_total = int(stage["steps_total"])
        fit.emit_count = int(stage["emit_count"])
        fit.move_step_size = float(stage["move_step_size"])
        fit._divergences = int(stage.get("divergences", 0))
        fit.runtime_seconds = float(stage.get("runtime_so_far", 0.0))
        if stage.get("last_accept") is not None:
            fit._last_accept = np.asarray(stage["last_accept"], dtype=float)
        base_spec = stage.get("base")
        if base_spec is not None:
            # The checkpoint landed mid-bridge: rebuild the base endpoint
            # and drive the recorded ladder position to beta = 1.
            start = time.perf_counter()
            if base_spec["kind"] == "reference":
                base = GaussianReference(base_spec["loc"], base_spec["scale"])
            else:
                base = compiled.condition(base_spec["data"]).potential(
                    fit.seed, engine=engine)
                base.share_batched_classification(fit._batched_tiers)
            fit._base_spec = base_spec
            fit._update = SMCUpdate(fit, base, fit.target,
                                    beta=float(stage["beta"]),
                                    ladder=stage.get("ladder") or [])
            with fit.telemetry.span("smc.run", phase="resume",
                                    assimilation=fit.assimilations):
                fit._update.run()
                fit._finish_assimilation()
            fit.runtime_seconds += time.perf_counter() - start
        return fit


#: config keys whose attribute name differs from the checkpoint key.
_ATTR_FOR_KEY = {"resampler": "resampler_name"}


def _snapshot_data(data: Dict[str, Any]) -> Dict[str, Any]:
    """A deep-enough copy of a data dict for the checkpoint payload."""
    out: Dict[str, Any] = {}
    for name, value in data.items():
        arr = np.asarray(value)
        out[name] = arr.copy() if arr.ndim else value
    return out


def _posterior_state(posterior: Posterior) -> Dict[str, Any]:
    return {
        "draws": {k: v.copy() for k, v in posterior.draws.items()},
        "stats": {k: v.copy() for k, v in posterior.stats.items()},
        "unconstrained": (None if posterior.unconstrained is None
                          else posterior.unconstrained.copy()),
        "metadata": dict(posterior.metadata),
    }


def _posterior_from_state(state: Dict[str, Any]) -> Posterior:
    return Posterior(draws=state["draws"], stats=state["stats"],
                     unconstrained=state["unconstrained"],
                     metadata=state["metadata"])
