"""MCMC driver: chains, warmup, thinning, checkpointing and result collection.

The interface mirrors the one shared by CmdStanPy, Pyro and NumPyro that the
paper's evaluation scripts use: construct with a kernel, call ``run`` with
iteration counts, then read the :class:`~repro.infer.results.Posterior` via
``.posterior`` (or the legacy ``get_samples()`` accessors, which delegate).

Every chain runs through one loop, :func:`~repro.infer.hmc.drive`, which
advances one transition generator per chain; ``chain_method`` only chooses
how a round of evaluation requests is answered:

* ``"sequential"`` — a row loop of single-row evaluations, the batched
  tape's oracle (NumPyro's ``chain_method="sequential"``);
* ``"vectorized"`` — one batched ``(chains, dim)`` potential/gradient
  evaluation per round (NumPyro's ``chain_method="vectorized"``).

Per-chain RNG streams are spawned from one :class:`numpy.random.SeedSequence`,
so chain ``c`` consumes exactly the same randomness under either method and
for any total chain count — the two methods produce identical draws for a
fixed seed.

Checkpoint / resume
-------------------

``run(checkpoint_every=N, checkpoint_path=path)`` snapshots the complete
explicit sampler state — per-chain positions, step sizes, dual-averaging and
Welford accumulators, retained draws and the RNG bit-states — at barriers
where every chain sits at an iteration multiple of ``N`` and no transition
generator is mid-flight.  Both chain methods write the same layout.
:meth:`MCMC.resume` rebuilds the run from such a file and continues
**bitwise-identically** to an uninterrupted run: every chain's remaining
trajectory is a deterministic function of the restored state.  The model
itself is not stored (generated code is not picklable); ``resume`` takes the
rebuilt kernel.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.infer.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointWriter,
    base_checkpoint_path,
    read_checkpoint,
    restore_rng,
    rng_state,
)
from repro.infer.hmc import (
    HMC,
    DualAveraging,
    WelfordVariance,
    answer_for,
    check_chain_method,
    check_kernel_config,
    drive,
    kernel_config,
)
from repro.infer.potential import Potential
from repro.infer.results import Posterior
from repro.obs import as_telemetry

MCMC_CHECKPOINT_FORMAT = "repro-mcmc-checkpoint"


class _ChainState:
    """Everything one chain carries between transitions.

    Position, RNG, step size, diagonal inverse mass, the *scalar*
    :class:`~repro.infer.hmc.DualAveraging` recursion, a
    :class:`~repro.infer.hmc.WelfordVariance`, the iteration count and the
    ``(U, grad)`` at the position.  (A NumPy-vectorized dual-averaging update
    can differ from the scalar one by an ulp, which compounds into different
    trajectories; the recursion is a handful of scalar ops per iteration,
    nowhere near the sampling hot path.)  :meth:`snapshot` is the MCMC
    checkpoint layout under both chain methods.
    """

    __slots__ = ("position", "rng", "step_size", "inv_mass", "dual_avg",
                 "welford", "iteration", "last_eval")

    def __init__(self, position: np.ndarray, rng: np.random.Generator, kernel: HMC):
        self.position = position
        self.rng = rng
        self.step_size = float(kernel.step_size)
        # Fresh chains adapt from identity; a manually configured matrix
        # (adapt_mass_matrix=False) is every chain's to keep.
        self.inv_mass = np.ones(kernel.potential.dim) if kernel.adapt_mass_matrix \
            else np.asarray(kernel.inv_mass, dtype=float).copy()
        self.dual_avg = DualAveraging(target_accept=kernel.target_accept)
        self.welford = WelfordVariance(kernel.potential.dim)
        self.iteration = 0
        self.last_eval: Optional[Tuple[float, np.ndarray]] = None

    def start(self, potential: Potential, may_move: bool):
        """The generator evaluating a fresh chain's start point.

        Its first evaluation decides feasibility: with ``may_move``, a
        non-finite ``U`` at the jittered start moves the chain to the
        prior-draw point, which is then evaluated.  The ``(U, grad)`` at
        the final start becomes :attr:`last_eval`, which the step-size
        search and the first transition reuse.
        """
        u, grad = yield self.position
        if may_move and not np.isfinite(u):
            self.position = potential.initial_unconstrained()
            u, grad = yield self.position
        self.last_eval = (u, grad)

    def transition(self, kernel: HMC):
        """The generator of this chain's next transition.

        A transition reuses the ``(U, grad)`` at its start when the chain
        holds it — from the previous transition's returned position, or
        from :meth:`start` for a fresh chain — and evaluates it otherwise;
        evaluations are deterministic, so either way the draws are
        identical.
        """
        return kernel._transition_gen(self.position, self.rng, self.step_size,
                                      self.inv_mass, initial_eval=self.last_eval)

    def advance(self, kernel: HMC, z: np.ndarray, info: dict, num_warmup: int) -> None:
        """Take the transition's result, then one warmup-adaptation update."""
        self.last_eval = info.pop("_next_eval")
        self.position = z
        iteration = self.iteration
        self.iteration += 1
        if iteration < num_warmup:
            if kernel.adapt_step_size:
                self.step_size = self.dual_avg.update(info["accept_prob"])
            if kernel.adapt_mass_matrix:
                self.welford.update(z)
                # Update the mass matrix at a few fixed points of the warmup.
                if iteration in (int(num_warmup * 0.5), int(num_warmup * 0.75)) \
                        and self.welford.count > 10:
                    self.inv_mass = self.welford.variance()
                    self.welford.reset()
            if iteration == num_warmup - 1 and kernel.adapt_step_size:
                self.step_size = self.dual_avg.adapted_step_size
        info["step_size"] = self.step_size

    # -- explicit state (checkpoint/resume) ---------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable copy of everything the next transition depends on."""
        last_eval = self.last_eval
        return {
            "position": np.array(self.position, dtype=float),
            "rng_state": rng_state(self.rng),
            "step_size": float(self.step_size),
            "inv_mass": np.array(self.inv_mass, dtype=float),
            "dual_avg": dataclasses.asdict(self.dual_avg),
            "welford": dataclasses.asdict(self.welford),
            "iteration": int(self.iteration),
            "last_eval": None if last_eval is None
            else (float(last_eval[0]), np.array(last_eval[1], dtype=float)),
        }

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Any], kernel: HMC) -> "_ChainState":
        state = cls(np.array(snap["position"], dtype=float),
                    restore_rng(snap["rng_state"]), kernel)
        state.step_size = float(snap["step_size"])
        state.inv_mass = np.array(snap["inv_mass"], dtype=float)
        state.dual_avg = DualAveraging(**snap["dual_avg"])
        welford = snap["welford"]
        state.welford = WelfordVariance(dim=int(welford["dim"]))
        state.welford.count = int(welford["count"])
        state.welford.mean = np.array(welford["mean"], dtype=float)
        state.welford.m2 = np.array(welford["m2"], dtype=float)
        state.iteration = int(snap["iteration"])
        state.last_eval = snap["last_eval"]
        return state


class _ChainCollector:
    """Accumulates one chain's retained draws and sampler stats.

    Both chain methods stream transitions through this class, so the
    keep-rule (warmup cut + thinning) and the stat keys cannot drift apart
    between them, and non-retained iterations cost no memory.
    """

    STAT_KEYS = ("accept_prob", "step_size", "divergent", "tree_depth",
                 "num_steps", "potential_energy")

    def __init__(self, num_warmup: int, thinning: int):
        self.num_warmup = num_warmup
        self.thinning = thinning
        self.draws: List[np.ndarray] = []
        self.stats: Dict[str, List[float]] = {key: [] for key in self.STAT_KEYS}

    def add(self, iteration: int, z: np.ndarray, info: dict) -> None:
        if iteration < self.num_warmup or (iteration - self.num_warmup) % self.thinning != 0:
            return
        self.draws.append(z.copy())
        stats = self.stats
        stats["accept_prob"].append(info.get("accept_prob", np.nan))
        stats["step_size"].append(info.get("step_size", np.nan))
        stats["divergent"].append(float(info.get("divergent", False)))
        # Kernel-specific fields: NUTS reports tree_depth, HMC does not;
        # NaN marks "not produced by this kernel".
        stats["tree_depth"].append(float(info.get("tree_depth", np.nan)))
        stats["num_steps"].append(float(info.get("num_steps", np.nan)))
        stats["potential_energy"].append(float(info.get("potential_energy", np.nan)))

    def arrays(self):
        return np.array(self.draws), {k: np.array(v) for k, v in self.stats.items()}

    # -- explicit state (checkpoint/resume) ---------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {"draws": [np.array(d) for d in self.draws],
                "stats": {k: list(v) for k, v in self.stats.items()}}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.draws = [np.array(d) for d in state["draws"]]
        self.stats = {k: list(v) for k, v in state["stats"].items()}


class _ProgressMeter:
    """Live progress line over the unified iteration stream.

    Both chain methods feed :meth:`MCMC._emit`, which drives this meter —
    there is a single progress code path.  The line shows completed
    iterations, the running divergence count and the potential's current
    evaluation tier; rendering is time-throttled and goes to ``stderr``,
    so it never perturbs draws or stdout-consuming callers.
    """

    def __init__(self, total_iters: int, num_chains: int,
                 stream=None, min_interval: float = 0.1):
        self.total = int(total_iters) * int(num_chains)
        self.num_chains = int(num_chains)
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = float(min_interval)
        self.done = 0
        self.divergences = 0
        self.potential: Optional[Potential] = None
        self._last_render = 0.0
        self._rendered = False

    def update(self, chain: int, iteration: int, info: dict) -> None:
        self.done += 1
        if info.get("divergent"):
            self.divergences += 1
        now = time.monotonic()
        if self.done < self.total and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        tier = ""
        if self.potential is not None:
            eval_tier = getattr(self.potential, "eval_tier", None)
            if eval_tier is not None:
                tier = f" | tier {eval_tier(self.num_chains)}"
        self.stream.write(
            f"\r[mcmc] {self.done}/{self.total} iterations "
            f"({self.num_chains} chain{'s' if self.num_chains != 1 else ''})"
            f" | divergences {self.divergences}{tier}")
        self.stream.flush()
        self._rendered = True

    def close(self) -> None:
        if self._rendered:
            self.stream.write("\n")
            self.stream.flush()


class _Checkpointer:
    """Builds MCMC snapshot payloads and hands them to a shared writer."""

    def __init__(self, mcmc: "MCMC", every: int, path: str, keep: bool,
                 init_params: Optional[np.ndarray], base_runtime: float,
                 start_count: int = 0):
        self.mcmc = mcmc
        self.every = int(every)
        self.writer = CheckpointWriter(path, keep=keep, count=start_count)
        self.init_params = None if init_params is None else np.array(init_params)
        self.base_runtime = float(base_runtime)
        self.start = time.perf_counter()

    def write(self, chains_payload: List[Dict[str, Any]]) -> None:
        mcmc = self.mcmc
        self.writer.write({
            "format": MCMC_CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": {
                "num_warmup": mcmc.num_warmup,
                "num_samples": mcmc.num_samples,
                "num_chains": mcmc.num_chains,
                "thinning": mcmc.thinning,
                "seed": mcmc.seed,
                "chain_method": mcmc.chain_method,
            },
            "checkpoint_every": self.every,
            "checkpoint_keep": self.writer.keep,
            "kernel": dict(mcmc._kernel_config or {}),
            "init_params": self.init_params,
            "runtime_so_far": self.base_runtime + (time.perf_counter() - self.start),
            "chains": chains_payload,
        })


class MCMC:
    """Run one or more chains of an HMC-family kernel.

    Parameters
    ----------
    kernel:
        An :class:`~repro.infer.hmc.HMC` or :class:`~repro.infer.nuts.NUTS`
        kernel.  Kernels hold configuration only, so one instance serves
        every chain.
    num_warmup, num_samples:
        Warmup (adaptation) iterations and retained post-warmup draws.
    num_chains:
        Number of independent chains.
    thinning:
        Keep every ``thinning``-th post-warmup draw (PosteriorDB configs use
        thinning for a few models).
    chain_method:
        ``"sequential"`` (default) or ``"vectorized"``: how a round of the
        chains' evaluation requests is answered.  Both produce the same draws
        for a fixed seed.
    """

    def __init__(self, kernel: HMC, num_warmup: int = 500, num_samples: int = 500,
                 num_chains: int = 1, thinning: int = 1, seed: int = 0,
                 progress: bool = False, chain_method: str = "sequential",
                 telemetry=None, on_iteration: Optional[Callable] = None):
        self.kernel = kernel
        self.num_warmup = int(num_warmup)
        self.num_samples = int(num_samples)
        self.num_chains = int(num_chains)
        self.thinning = max(int(thinning), 1)
        self.seed = seed
        self.progress = progress
        #: telemetry session (or the null sink); accepts anything
        #: :func:`repro.obs.as_telemetry` does — a Telemetry, ObsConfig,
        #: bool or dict.
        self.telemetry = as_telemetry(telemetry)
        #: optional user sink ``on_iteration(chain, iteration, z, info)``
        #: called for every transition of every chain (warmup included),
        #: under both chain methods: in iteration order per chain, with the
        #: chains interleaved.
        self.on_iteration = on_iteration
        self.chain_method = check_chain_method(chain_method)
        self._samples_by_chain: List[Dict[str, np.ndarray]] = []
        self._stats_by_chain: List[Dict[str, np.ndarray]] = []
        self._unconstrained_by_chain: List[np.ndarray] = []
        self.runtime_seconds: float = 0.0
        #: extra run facts merged into ``posterior.metadata`` (the fluent
        #: pipeline records scheme/backend/model name here).
        self.metadata: Dict[str, Any] = {}
        self._kernel_name: Optional[str] = None
        self._kernel_config: Optional[Dict[str, Any]] = None
        self._posterior_cache: Optional[Posterior] = None
        self.last_checkpoint_path: Optional[str] = None
        self._progress: Optional[_ProgressMeter] = None

    def _chain_rngs(self) -> List[np.random.Generator]:
        """Per-chain generators spawned from one SeedSequence.

        Chain ``c``'s stream depends only on ``(seed, c)`` — not on the chain
        method or on how many chains run in total — so results are
        reproducible across both.
        """
        children = np.random.SeedSequence(self.seed).spawn(self.num_chains)
        return [np.random.default_rng(child) for child in children]

    # ------------------------------------------------------------------
    def run(self, init_params: Optional[np.ndarray] = None,
            checkpoint_every: Optional[int] = None,
            checkpoint_path: Optional[str] = None,
            checkpoint_keep: bool = False) -> "MCMC":
        """Run all chains; returns ``self`` for chaining.

        With ``checkpoint_every=N`` and ``checkpoint_path`` given, a snapshot
        of the complete sampler state is written (atomically, overwriting the
        previous one) each time every chain has completed another ``N``
        iterations; ``checkpoint_keep`` additionally retains every snapshot as
        ``<path>.snap<k>``.  A snapshot can be continued with :meth:`resume`.
        """
        return self._run(init_params, resume=None, checkpoint_every=checkpoint_every,
                         checkpoint_path=checkpoint_path, checkpoint_keep=checkpoint_keep)

    @classmethod
    def resume(cls, path: str, kernel, checkpoint_every: Optional[int] = None,
               checkpoint_path: Optional[str] = None,
               checkpoint_keep: Optional[bool] = None) -> "MCMC":
        """Continue an interrupted checkpointed run to completion.

        ``kernel`` must be rebuilt over the same model and data (kernels hold
        the model callable, which checkpoints deliberately do not store) with
        the same options — the checkpoint records the draw-determining kernel
        configuration (method, tree depth, target accept, ...) and a mismatch
        raises rather than silently diverging.  The run configuration
        (iteration counts, seed, chain method) comes from the file.  The
        continued run produces draws bitwise-identical to an uninterrupted
        run, and keeps checkpointing with the same cadence and path unless
        overridden (pass ``checkpoint_every=0`` to disable).
        """
        payload = read_checkpoint(path, MCMC_CHECKPOINT_FORMAT)
        return cls.resume_payload(payload, kernel,
                                  default_path=base_checkpoint_path(path),
                                  checkpoint_every=checkpoint_every,
                                  checkpoint_path=checkpoint_path,
                                  checkpoint_keep=checkpoint_keep)

    @classmethod
    def resume_payload(cls, payload: Dict[str, Any], kernel,
                       default_path: Optional[str] = None,
                       checkpoint_every: Optional[int] = None,
                       checkpoint_path: Optional[str] = None,
                       checkpoint_keep: Optional[bool] = None) -> "MCMC":
        """:meth:`resume` over an already-deserialized checkpoint payload."""
        mcmc = cls(kernel, **payload["config"])
        stored_kernel = payload.get("kernel")
        if stored_kernel:
            check_kernel_config(kernel, stored_kernel)
        every = payload.get("checkpoint_every") if checkpoint_every is None \
            else checkpoint_every
        keep = bool(payload.get("checkpoint_keep", False)) if checkpoint_keep is None \
            else checkpoint_keep
        return mcmc._run(payload.get("init_params"), resume=payload,
                         checkpoint_every=every or None,
                         checkpoint_path=checkpoint_path or default_path,
                         checkpoint_keep=keep)

    def _run(self, init_params, resume, checkpoint_every, checkpoint_path,
             checkpoint_keep) -> "MCMC":
        start = time.perf_counter()
        base_runtime = float(resume.get("runtime_so_far", 0.0)) if resume else 0.0
        self._samples_by_chain = []
        self._stats_by_chain = []
        self._unconstrained_by_chain = []
        self._posterior_cache = None
        ckpt = None
        if checkpoint_every:
            if not checkpoint_path:
                raise ValueError("checkpoint_every requires checkpoint_path")
            ckpt = _Checkpointer(self, checkpoint_every, checkpoint_path,
                                 checkpoint_keep, init_params, base_runtime,
                                 start_count=int(resume.get("snapshot_count", 0))
                                 if resume else 0)
        total_iters = self.num_warmup + self.num_samples * self.thinning
        self._progress = _ProgressMeter(total_iters, self.num_chains) \
            if self.progress else None
        with self.telemetry.span(
                "sampler.run", chain_method=self.chain_method,
                num_chains=self.num_chains, num_warmup=self.num_warmup,
                num_samples=self.num_samples, thinning=self.thinning,
                seed=self.seed, resumed=resume is not None) as span:
            try:
                # A divergent trajectory overflows the kinetic energy
                # (``HMC._kinetic``); the kernels treat the non-finite energy
                # as a divergence, so the warning is noise.  Silenced once
                # per fit: a per-call ``np.errstate`` would tax the leapfrog.
                with np.errstate(over="ignore"):
                    self._run_chains(init_params, resume["chains"] if resume else None,
                                     ckpt)
            finally:
                if self._progress is not None:
                    self._progress.close()
                    self._progress = None
            span.set(method=self._kernel_name or "mcmc")
        if ckpt is not None and ckpt.writer.last_path is not None:
            self.last_checkpoint_path = ckpt.writer.last_path
        self.runtime_seconds = base_runtime + (time.perf_counter() - start)
        return self

    def _emit(self, collector: "_ChainCollector", chain: int, iteration: int,
              z: np.ndarray, info: dict) -> None:
        """The single per-transition sink shared by both chain methods.

        Routes each completed transition to the draw collector, the
        telemetry iteration stream, the divergence flight recorder, the
        progress meter and the user ``on_iteration`` hook.  Read-only with
        respect to the sampler: nothing here touches RNGs or positions.
        """
        divergence_info = info.pop("divergence_info", None)
        collector.add(iteration, z, info)
        telemetry = self.telemetry
        if telemetry.enabled:
            warmup = iteration < self.num_warmup
            telemetry.record_iteration(chain, iteration, warmup, info)
            if divergence_info is not None:
                telemetry.record_divergence(chain, iteration, warmup, divergence_info)
        if self._progress is not None:
            self._progress.update(chain, iteration, info)
        if self.on_iteration is not None:
            self.on_iteration(chain, iteration, z, info)

    def _store_chain(self, potential: Potential, collector: "_ChainCollector") -> None:
        draws, stats = collector.arrays()
        constrained = self._constrain_all(potential, draws)
        self._samples_by_chain.append(constrained)
        self._stats_by_chain.append(stats)
        self._unconstrained_by_chain.append(draws)

    def _run_chains(self, init_params: Optional[np.ndarray],
                    resume_chains: Optional[List[Dict[str, Any]]],
                    ckpt: Optional[_Checkpointer]) -> None:
        """Run every chain, under either chain method, through one :func:`drive`.

        Chains pause at barriers, iteration multiples of ``checkpoint_every``,
        where no transition is mid-flight and every chain's state is
        explicit.  Pausing cannot change the draws: chains are mutually
        independent, so holding a fast chain at a barrier only delays *when*
        its next transition runs, not what it computes.
        """
        kernel = self.kernel
        potential = kernel.potential
        self._kernel_name = type(kernel).__name__.lower()
        self._kernel_config = kernel_config(kernel)
        kernel.record_divergences = self.telemetry.wants_divergences
        if self._progress is not None:
            self._progress.potential = potential
        total_iters = self.num_warmup + self.num_samples * self.thinning
        collectors = [_ChainCollector(self.num_warmup, self.thinning)
                      for _ in range(self.num_chains)]
        # A single chain has nothing to batch.
        method = self.chain_method if self.num_chains > 1 else "sequential"
        answer = answer_for(potential, method, self.num_chains, self.telemetry)
        if resume_chains is not None:
            for collector, snap in zip(collectors, resume_chains):
                collector.load_state_dict(snap["collector"])
            chains = [_ChainState.from_snapshot(snap["state"], kernel)
                      for snap in resume_chains]
            kernel.divergences = int(resume_chains[0]["divergences"])
        else:
            chains = [_ChainState(potential.initial_unconstrained(rng=rng)
                                  if init_params is None
                                  else np.asarray(init_params, dtype=float).copy(),
                                  rng, kernel)
                      for rng in self._chain_rngs()]
            drive([state.start(potential, may_move=init_params is None)
                   for state in chains], answer, lambda c, _: None)
            if kernel.adapt_step_size:
                def found(c, step_size):
                    chains[c].step_size = step_size
                    chains[c].dual_avg.initialize(step_size)
                drive([kernel._step_size_gen(state.position, state.rng, state.inv_mass,
                                             initial_eval=state.last_eval)
                       for state in chains], answer, found)
        stop_at = min((state.iteration for state in chains), default=0)

        def finished(c, result):
            z, info = result
            state = chains[c]
            state.advance(kernel, z, info, self.num_warmup)
            self._emit(collectors[c], c, state.iteration - 1, z, info)
            return state.transition(kernel) if state.iteration < stop_at else None

        every = ckpt.every if ckpt is not None else total_iters
        while stop_at < total_iters:
            stop_at = min((stop_at // every + 1) * every, total_iters)
            drive([state.transition(kernel) for state in chains], answer, finished)
            if ckpt is not None and stop_at < total_iters:
                ckpt.write([{"state": state.snapshot(),
                             "collector": collector.state_dict(),
                             "divergences": int(kernel.divergences)}
                            for state, collector in zip(chains, collectors)])
        for collector in collectors:
            self._store_chain(potential, collector)

    @staticmethod
    def _constrain_all(potential: Potential, unconstrained: np.ndarray) -> Dict[str, np.ndarray]:
        if unconstrained.size == 0:
            return OrderedDict((name, np.array([])) for name in potential.sites)
        # One batched change-of-variables over the whole chain of draws
        # (row-validated; falls back to a per-draw loop for models that do
        # not broadcast along the batch axis).
        values = potential.constrained_dict_batched(unconstrained)
        return OrderedDict((name, values[name]) for name in potential.sites)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def posterior(self) -> Posterior:
        """The run's draws and stats as a :class:`Posterior` (built once)."""
        if self._posterior_cache is None:
            if not self._samples_by_chain:
                raise RuntimeError("run() must be called before posterior")
            draws = {
                name: np.stack([chain[name] for chain in self._samples_by_chain])
                for name in self._samples_by_chain[0]
            }
            stats = {
                key: np.stack([chain[key] for chain in self._stats_by_chain])
                for key in self._stats_by_chain[0]
            }
            try:
                unconstrained = np.stack(self._unconstrained_by_chain)
            except ValueError:
                unconstrained = None
            metadata = {
                "method": self._kernel_name or "mcmc",
                "num_warmup": self.num_warmup,
                "num_samples": self.num_samples,
                "num_chains": self.num_chains,
                "thinning": self.thinning,
                "seed": self.seed,
                "chain_method": self.chain_method,
                "runtime_seconds": self.runtime_seconds,
            }
            if self._kernel_config:
                # Draw-determining kernel options (max_tree_depth feeds the
                # max-tree-depth-hit diagnostic downstream).
                metadata["kernel"] = dict(self._kernel_config)
            if self.telemetry.enabled:
                metadata["telemetry"] = self.telemetry.digest()
                if self.telemetry.wants_divergences:
                    metadata["divergence_records"] = self.telemetry.flight.to_jsonable()
            metadata.update(self.metadata)
            self._posterior_cache = Posterior(draws, stats=stats,
                                              unconstrained=unconstrained,
                                              metadata=metadata)
        return self._posterior_cache

    def diagnostics(self) -> Dict[str, Any]:
        """Chain diagnostics: cached summary, divergence count, runtime."""
        out = self.posterior.diagnostics()
        out["runtime_seconds"] = self.runtime_seconds
        return out

    # ------------------------------------------------------------------
    # NumPyro-style accessors (thin delegations over the posterior)
    # ------------------------------------------------------------------
    def get_samples(self, group_by_chain: bool = False) -> Dict[str, np.ndarray]:
        """Posterior draws per site; chains are concatenated unless grouped."""
        if not self._samples_by_chain:
            raise RuntimeError("run() must be called before get_samples()")
        return self.posterior.get_samples(group_by_chain=group_by_chain)

    def get_extra_fields(self, group_by_chain: bool = False) -> Dict[str, np.ndarray]:
        """Sampler statistics (accept_prob, step_size, divergent).

        ``group_by_chain=True`` returns ``(num_chains, num_draws)`` arrays
        per stat, ``False`` concatenates the chains — the same treatment as
        :meth:`get_samples`.
        """
        if not self._stats_by_chain:
            raise RuntimeError("run() must be called before get_extra_fields()")
        stats = self.posterior.stats
        if group_by_chain:
            return dict(stats)
        return {
            key: value.reshape((-1,) + value.shape[2:])
            for key, value in stats.items()
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Posterior summary (mean, std, quantiles, n_eff, r_hat) per scalar.

        Computed once per run and cached on the posterior — repeated calls
        do not re-stack chains or recompute R-hat/ESS.
        """
        return self.posterior.summary()
