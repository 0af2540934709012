"""MCMC driver: chains, warmup, thinning, checkpointing and result collection.

The interface mirrors the one shared by CmdStanPy, Pyro and NumPyro that the
paper's evaluation scripts use: construct with a kernel, call ``run`` with
iteration counts, then read the :class:`~repro.infer.results.Posterior` via
``.posterior`` (or the legacy ``get_samples()`` accessors, which delegate).

Chains can be run two ways (``chain_method``):

* ``"sequential"`` — one chain at a time, the correctness oracle;
* ``"vectorized"`` — all chains advance as one batched ``(chains, dim)``
  state; every synchronized step of every chain is served by a single batched
  potential/gradient evaluation (NumPyro's ``chain_method="vectorized"``).

Per-chain RNG streams are spawned from one :class:`numpy.random.SeedSequence`,
so chain ``c`` consumes exactly the same randomness under either method and
for any total chain count — the two methods produce identical draws for a
fixed seed.

Checkpoint / resume
-------------------

``run(checkpoint_every=N, checkpoint_path=path)`` snapshots the complete
explicit sampler state — per-chain positions, step sizes, dual-averaging and
Welford accumulators, retained draws and the RNG bit-states — at iteration
boundaries (under ``"vectorized"``, at synchronization barriers where no
transition generator is mid-flight).  :meth:`MCMC.resume` rebuilds the run
from such a file and continues **bitwise-identically** to an uninterrupted
run: every chain's remaining trajectory is a deterministic function of the
restored state.  The model itself is not stored (generated code is not
picklable); ``resume`` takes the rebuilt kernel.
"""

from __future__ import annotations

import sys
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional

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
    VectorizedChains,
    check_kernel_config,
    kernel_config,
    restore_kernel_state,
    snapshot_kernel_state,
)
from repro.infer.potential import Potential
from repro.infer.results import Posterior
from repro.obs import as_telemetry

CHAIN_METHODS = ("sequential", "vectorized")

MCMC_CHECKPOINT_FORMAT = "repro-mcmc-checkpoint"

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
        stats = {k: list(v) for k, v in state["stats"].items()}
        # Checkpoints written before a stat key existed lack its column;
        # backfill with NaN so resumed runs keep a rectangular stats table.
        for key in self.STAT_KEYS:
            stats.setdefault(key, [float("nan")] * len(self.draws))
        self.stats = stats


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
        Callable returning a fresh kernel (e.g. ``lambda: NUTS(potential)``),
        or a kernel instance (reused across chains with re-initialisation).
    num_warmup, num_samples:
        Warmup (adaptation) iterations and retained post-warmup draws.
    num_chains:
        Number of independent chains.
    thinning:
        Keep every ``thinning``-th post-warmup draw (PosteriorDB configs use
        thinning for a few models).
    chain_method:
        ``"sequential"`` (default) or ``"vectorized"``; both produce the same
        draws for a fixed seed.
    """

    def __init__(self, kernel, num_warmup: int = 500, num_samples: int = 500,
                 num_chains: int = 1, thinning: int = 1, seed: int = 0,
                 progress: bool = False, chain_method: str = "sequential",
                 telemetry=None, on_iteration: Optional[Callable] = None):
        self._kernel_factory = kernel if callable(kernel) and not isinstance(kernel, HMC) else None
        self._kernel_instance = kernel if isinstance(kernel, HMC) else None
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
        #: under both chain methods.
        self.on_iteration = on_iteration
        if chain_method not in CHAIN_METHODS:
            raise ValueError(
                f"unknown chain_method {chain_method!r}; expected one of {CHAIN_METHODS}")
        self.chain_method = chain_method
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

    def _get_kernel(self) -> HMC:
        if self._kernel_instance is not None:
            return self._kernel_instance
        return self._kernel_factory()

    def _chain_rngs(self) -> List[np.random.Generator]:
        """Per-chain generators spawned from one SeedSequence.

        Chain ``c``'s stream depends only on ``(seed, c)`` — not on the chain
        method or on how many chains run in total — so results are
        reproducible across both.
        """
        children = np.random.SeedSequence(self.seed).spawn(self.num_chains)
        return [np.random.default_rng(child) for child in children]

    @staticmethod
    def _initial_position(potential: Potential, rng: np.random.Generator,
                          init_params: Optional[np.ndarray]) -> np.ndarray:
        if init_params is not None:
            return np.asarray(init_params, dtype=float).copy()
        z = potential.initial_unconstrained(rng=rng)
        # Fall back to the prior-draw point if the jittered start is infeasible.
        if not np.isfinite(potential.potential(z)):
            z = potential.initial_unconstrained()
        return z

    # ------------------------------------------------------------------
    def run(self, init_params: Optional[np.ndarray] = None,
            checkpoint_every: Optional[int] = None,
            checkpoint_path: Optional[str] = None,
            checkpoint_keep: bool = False) -> "MCMC":
        """Run all chains; returns ``self`` for chaining.

        With ``checkpoint_every=N`` and ``checkpoint_path`` given, a snapshot
        of the complete sampler state is written (atomically, overwriting the
        previous one) every ``N`` per-chain iterations; ``checkpoint_keep``
        additionally retains every snapshot as ``<path>.snap<k>``.  A snapshot
        can be continued with :meth:`resume`.
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
            check_kernel_config(mcmc._get_kernel(), stored_kernel)
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
        rngs = self._chain_rngs()
        resume_chains = resume["chains"] if resume else None
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
                    if self.chain_method == "vectorized" and self.num_chains > 1:
                        self._run_vectorized(rngs, init_params, resume_chains, ckpt)
                    else:
                        self._run_sequential(rngs, init_params, resume_chains, ckpt)
            finally:
                if self._progress is not None:
                    self._progress.close()
                    self._progress = None
            span.set(method=self._kernel_name or "mcmc")
        if ckpt is not None and ckpt.writer.last_path is not None:
            self.last_checkpoint_path = ckpt.writer.last_path
        self.runtime_seconds = base_runtime + (time.perf_counter() - start)
        return self

    def _new_collector(self) -> "_ChainCollector":
        return _ChainCollector(self.num_warmup, self.thinning)

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

    def _run_sequential(self, rngs: List[np.random.Generator],
                        init_params: Optional[np.ndarray],
                        resume_chains: Optional[List[Dict[str, Any]]],
                        ckpt: Optional[_Checkpointer]) -> None:
        total_iters = self.num_warmup + self.num_samples * self.thinning
        collectors: List[_ChainCollector] = []
        for chain in range(self.num_chains):
            snap = resume_chains[chain] if resume_chains else None
            kernel = self._get_kernel()
            self._kernel_name = type(kernel).__name__.lower()
            if chain == 0:
                # Captured before any transition mutates the kernel, so
                # checkpoints record the *configured* options.
                self._kernel_config = kernel_config(kernel)
            potential = kernel.potential
            kernel.record_divergences = self.telemetry.wants_divergences
            if self._progress is not None:
                self._progress.potential = potential
            collector = self._new_collector()
            collectors.append(collector)
            if snap is not None and snap["status"] == "done":
                # Completed before the snapshot: replay the retained draws.
                collector.load_state_dict(snap["collector"])
                self._store_chain(potential, collector)
                continue
            rng = rngs[chain]
            if snap is not None and snap["status"] == "running":
                collector.load_state_dict(snap["collector"])
                z = np.array(snap["position"], dtype=float)
                rng = restore_rng(snap["rng_state"])
                restore_kernel_state(kernel, snap["kernel"], self.num_warmup)
                start_iter = int(snap["kernel"]["iteration"])
            else:
                z = self._initial_position(potential, rng, init_params)
                kernel.setup(z, rng, self.num_warmup)
                start_iter = 0
            for i in range(start_iter, total_iters):
                z, info = kernel.sample(z, rng)
                self._emit(collector, chain, i, z, info)
                if ckpt is not None and (i + 1) % ckpt.every == 0 and (i + 1) < total_iters:
                    ckpt.write(self._sequential_payload(collectors, chain, z, rng, kernel))
            self._store_chain(potential, collector)

    def _sequential_payload(self, collectors: List[_ChainCollector], chain: int,
                            z: np.ndarray, rng: np.random.Generator,
                            kernel: HMC) -> List[Dict[str, Any]]:
        chains: List[Dict[str, Any]] = []
        for ci in range(self.num_chains):
            if ci < chain:
                chains.append({"status": "done",
                               "collector": collectors[ci].state_dict()})
            elif ci == chain:
                chains.append({
                    "status": "running",
                    "position": np.array(z, dtype=float),
                    "rng_state": rng_state(rng),
                    "kernel": snapshot_kernel_state(kernel),
                    "collector": collectors[ci].state_dict(),
                })
            else:
                # Untouched: chain rngs depend only on (seed, index), so a
                # resumed run re-spawns them and starts these chains fresh.
                chains.append({"status": "pending"})
        return chains

    def _run_vectorized(self, rngs: List[np.random.Generator],
                        init_params: Optional[np.ndarray],
                        resume_chains: Optional[List[Dict[str, Any]]],
                        ckpt: Optional[_Checkpointer]) -> None:
        kernel = self._get_kernel()
        self._kernel_name = type(kernel).__name__.lower()
        self._kernel_config = kernel_config(kernel)
        potential = kernel.potential
        kernel.record_divergences = self.telemetry.wants_divergences
        if self._progress is not None:
            self._progress.potential = potential
        total_iters = self.num_warmup + self.num_samples * self.thinning
        collectors = [self._new_collector() for _ in range(self.num_chains)]
        positions = None
        resume_states = None
        if resume_chains is not None:
            for collector, snap in zip(collectors, resume_chains):
                collector.load_state_dict(snap["collector"])
            resume_states = [snap["state"] for snap in resume_chains]
            kernel.divergences = int(resume_chains[0].get("divergences",
                                                          kernel.divergences))
        else:
            positions = np.stack([
                self._initial_position(potential, rngs[c], init_params)
                for c in range(self.num_chains)
            ])
        driver = VectorizedChains(kernel, self.num_chains,
                                  telemetry=self.telemetry)
        on_barrier = None
        if ckpt is not None:
            def on_barrier(chains, iteration):
                ckpt.write([
                    {"status": "running",
                     "state": state.snapshot(),
                     "collector": collectors[state.index].state_dict(),
                     "divergences": int(kernel.divergences)}
                    for state in chains
                ])
        driver.run(positions, rngs, self.num_warmup, total_iters,
                   on_result=lambda chain, i, z, info:
                   self._emit(collectors[chain], chain, i, z, info),
                   barrier_every=ckpt.every if ckpt is not None else None,
                   on_barrier=on_barrier, resume_states=resume_states)
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
