"""The compiler driver: parse, check, compile, generate code, run inference.

This is the user-facing entry point corresponding to the paper's modified
Stanc3 pipeline plus its thin Python driver (CmdStanPy-like), redesigned
around the posterior-first pipeline:

>>> from repro import compile_model
>>> compiled = compile_model(source, backend="numpyro", scheme="comprehensive")
>>> fit = compiled.condition({"N": 5, "x": [1, 1, 0, 1, 1]}).fit("nuts", num_samples=200)
>>> fit.posterior.summary()["z"]["mean"]
>>> fit.posterior.save("posterior")          # npz + json, exact round trip

``condition(data)`` returns a :class:`ConditionedModel` that caches the
derived :class:`~repro.infer.Potential` and exposes ``fit`` (NUTS / HMC /
VI / SVI / importance — every result satisfies the
:class:`~repro.infer.FitResult` protocol), ``sample_prior`` and
``generated_quantities``.  Compilation of string sources is memoised on
``(source, scheme, backend, name, allow_enumeration)``.

Three compilation schemes are exposed (``generative``, ``comprehensive``,
``mixed``) and two backends (``pyro``: eager effect-handler runtime,
``numpyro``: vectorised potential-function runtime), matching §4.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.core import analysis, codegen, mixed as mixed_mod, schemes
from repro.core.codegen import sanitize
from repro.core.schemes import CompileError
from repro.engine import EngineConfig, EnumConfig
from repro.frontend import ast
from repro.frontend.parser import parse_program
from repro.frontend.semantics import check_program
from repro.gprob import ir
from repro.guides import AutoGuide
from repro.infer import HMC, MCMC, NUTS, SVI, VI, ImportanceSampling, Potential
from repro.infer.results import FitResult, Posterior
from repro.obs import NULL_TELEMETRY, as_telemetry
from repro.ppl import handlers

SCHEMES = ("generative", "comprehensive", "mixed")
BACKENDS = ("pyro", "numpyro")

#: inference methods accepted by :meth:`ConditionedModel.fit`.
FIT_METHODS = ("nuts", "hmc", "vi", "svi", "importance", "smc")

#: the :meth:`~repro.infer.Potential.metrics_view` counters whose per-fit
#: deltas every fit records in ``metadata["eval_counters"]``.
EVAL_COUNTERS = ("grad_evals", "value_evals", "compiled_evals", "tape_seconds")


@dataclass
class CompiledModel:
    """A Stan program compiled to a generative Python model."""

    program: ast.Program
    scheme: str
    backend: str
    source: str
    namespace: Dict[str, Any]
    model_ir: ir.GExpr
    guide_ir: Optional[ir.GExpr] = None
    compile_time_seconds: float = 0.0
    #: the resolved evaluation-engine configuration (see :mod:`repro.engine`).
    engine_config: EngineConfig = EngineConfig()
    #: the telemetry session (see :mod:`repro.obs`) threaded through every
    #: derived potential and fit; the shared null sink unless the model was
    #: compiled with ``obs=``.
    telemetry: Any = NULL_TELEMETRY

    # ------------------------------------------------------------------
    # structural accessors
    # ------------------------------------------------------------------
    @property
    def data_names(self) -> List[str]:
        return [d.name for d in self.program.data.decls]

    @property
    def transformed_data_names(self) -> List[str]:
        return [d.name for d in self.program.transformed_data.decls]

    @property
    def parameter_names(self) -> List[str]:
        return [d.name for d in self.program.parameters.decls]

    @property
    def transformed_parameter_names(self) -> List[str]:
        return [d.name for d in self.program.transformed_parameters.decls]

    @property
    def has_guide(self) -> bool:
        return self.guide_ir is not None

    # ------------------------------------------------------------------
    # networks (DeepStan §5.2)
    # ------------------------------------------------------------------
    def bind_networks(self, networks: Dict[str, Callable]) -> "CompiledModel":
        """Register the PyTorch-style networks declared in the ``networks`` block."""
        declared = {n.name for n in self.program.networks}
        unknown = set(networks) - declared
        if unknown:
            raise CompileError(f"unknown networks: {sorted(unknown)}; declared: {sorted(declared)}")
        self.namespace["_NETWORKS"].update(networks)
        return self

    # ------------------------------------------------------------------
    # running the generated functions
    # ------------------------------------------------------------------
    def _prepare_inputs(self, data: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        # Entries not declared in the data block are ignored, mirroring how
        # CmdStan accepts data files that carry extra columns.
        data = {k: v for k, v in (data or {}).items() if k in self.data_names}
        transformed = self.namespace["transformed_data"](
            **{sanitize(k): _as_array(v) for k, v in data.items()}
        )
        inputs = {sanitize(k): _as_array(v) for k, v in data.items()}
        inputs.update({sanitize(k): v for k, v in (transformed or {}).items()})
        return inputs

    def model_callable(self, data: Optional[Dict[str, Any]] = None) -> Callable[[], Dict[str, Any]]:
        """A zero-argument callable running the compiled model on ``data``."""
        inputs = self._prepare_inputs(data)
        model_fn = self.namespace["model"]
        return lambda: model_fn(**inputs)

    def guide_callable(self, data: Optional[Dict[str, Any]] = None) -> Callable[[], Dict[str, Any]]:
        if not self.has_guide:
            raise CompileError("this program has no guide block")
        inputs = self._prepare_inputs(data)
        guide_fn = self.namespace["guide"]
        return lambda: guide_fn(**inputs)

    def resolved_engine(self, engine: Union[None, str, EngineConfig] = None) -> EngineConfig:
        """The model's :class:`EngineConfig`, optionally overridden.

        ``engine`` may be ``None`` (use the config recorded at compile time),
        an engine name (override just the ``engine`` field), or a full
        :class:`EngineConfig` (replace the config wholesale).
        """
        if engine is None:
            return self.engine_config
        if isinstance(engine, str):
            return self.engine_config.replace(engine=engine)
        return EngineConfig.coerce(engine)

    def potential(self, data: Optional[Dict[str, Any]] = None, rng_seed: int = 0,
                  engine: Union[None, str, EngineConfig] = None) -> Potential:
        """Potential-energy object over the model's latent parameters.

        With ``enum="auto"`` the potential is the **exact marginal**
        over the model's discrete latent sites (see :mod:`repro.enum`), so
        gradient-based inference runs unchanged on the continuous remainder.
        ``engine`` overrides the evaluation engine recorded at compile time
        (an engine name or a full :class:`~repro.engine.EngineConfig`).
        """
        return Potential(self.model_callable(data), rng_seed=rng_seed,
                         fast=(self.backend == "numpyro"),
                         engine=self.resolved_engine(engine),
                         obs=self.telemetry)

    def log_joint(self, data: Dict[str, Any], params: Dict[str, Any]) -> float:
        """Log joint density of ``params`` and ``data`` under the compiled model.

        Used by the correctness tests for Theorem 3.3: up to the constant
        contributed by bounded-uniform priors this equals the Stan ``target``.
        """
        substituted = {k: _as_array(v) for k, v in params.items()}
        log_prob, _ = handlers.log_density(self.model_callable(data), substituted=substituted)
        return float(log_prob.data)

    # ------------------------------------------------------------------
    # the fluent pipeline
    # ------------------------------------------------------------------
    def condition(self, data: Optional[Dict[str, Any]] = None) -> "ConditionedModel":
        """Bind ``data`` to the compiled model, yielding a fit-ready pipeline.

        The returned :class:`ConditionedModel` caches the derived
        :class:`~repro.infer.Potential` per RNG seed, so repeated
        (service-style) fits against the same data skip site re-discovery,
        and exposes ``.fit(method)``, ``.sample_prior`` and
        ``.generated_quantities``.
        """
        return ConditionedModel(self, data)


def _as_array(value):
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, np.ndarray):
        return value
    return np.asarray(value, dtype=float)


class ConditionedModel:
    """A compiled model bound to data: the fit-ready stage of the pipeline.

    Produced by :meth:`CompiledModel.condition`.  Caches the derived
    :class:`~repro.infer.Potential` (per RNG seed) and the zero-argument
    model callable, so a service issuing many fits against the same data
    pays site discovery and ``transformed data`` preparation once:

    >>> model = compile_model(source).condition(data)
    >>> fit = model.fit("nuts", num_samples=500, seed=0)     # -> MCMC
    >>> fit.posterior.save("posterior")                      # npz + json
    >>> vi = model.fit("vi", guide="auto_mvn", seed=0)       # -> VI
    >>> prior = model.sample_prior(100)
    >>> gq = model.generated_quantities(fit.posterior)

    Every ``fit`` result satisfies the :class:`~repro.infer.FitResult`
    protocol (``.posterior`` + ``.diagnostics()``) and records the
    compilation scheme/backend in ``posterior.metadata``.
    """

    def __init__(self, compiled: CompiledModel, data: Optional[Dict[str, Any]] = None):
        self.compiled = compiled
        self.data: Dict[str, Any] = dict(data or {})
        self._potentials: Dict[Any, Potential] = {}
        self._model_callable: Optional[Callable[[], Dict[str, Any]]] = None

    def __repr__(self) -> str:
        return (f"ConditionedModel(scheme={self.compiled.scheme!r}, "
                f"backend={self.compiled.backend!r}, data={sorted(self.data)})")

    # ------------------------------------------------------------------
    # cached derived objects
    # ------------------------------------------------------------------
    def potential(self, seed: int = 0,
                  engine: Union[None, str, EngineConfig] = None) -> Potential:
        """The model's :class:`Potential` over ``data`` (cached per seed/engine)."""
        config = self.compiled.resolved_engine(engine)
        key = (seed, config)
        if key not in self._potentials:
            self._potentials[key] = self.compiled.potential(
                self.data, rng_seed=seed, engine=config)
        return self._potentials[key]

    def model_callable(self) -> Callable[[], Dict[str, Any]]:
        if self._model_callable is None:
            self._model_callable = self.compiled.model_callable(self.data)
        return self._model_callable

    def _metadata(self, method: str, seed: int,
                  config: Optional[EngineConfig] = None) -> Dict[str, Any]:
        config = config if config is not None else self.compiled.resolved_engine()
        return {
            "method": method,
            "scheme": self.compiled.scheme,
            "backend": self.compiled.backend,
            "seed": seed,
            "engine": config.engine,
            "engine_config": config.to_metadata(),
        }

    @staticmethod
    def _stamp_eval_counters(result, potential: Potential,
                             before: Dict[str, Any]) -> None:
        """Record the fit's share of the potential's evaluation counters.

        The counters accumulate across the potential's lifetime (it is cached
        per seed/engine), so the per-fit figure is the delta between two
        :meth:`~repro.infer.Potential.metrics_view` snapshots.
        """
        after = potential.metrics_view()
        counters = {key: after[key] - before[key] for key in EVAL_COUNTERS}
        counters["tape_seconds"] = round(float(counters["tape_seconds"]), 6)
        result.metadata["eval_counters"] = counters
        enum_meta = potential.enum_metadata()
        if enum_meta is not None:
            result.metadata["enum"] = enum_meta

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(self, method: str = "nuts", **kwargs) -> FitResult:
        """Run inference; returns a :class:`~repro.infer.FitResult`.

        ``method`` is one of:

        * ``"nuts"`` / ``"hmc"`` — MCMC; returns the completed
          :class:`~repro.infer.MCMC` driver.  Supports ``num_warmup``,
          ``num_samples``, ``num_chains``, ``thinning``, ``seed``,
          ``chain_method``, kernel options, and checkpointing
          (``checkpoint_every``/``checkpoint_path``; see
          :meth:`ConditionedModel.resume`).
        * ``"vi"`` — variational inference over any autoguide family (or the
          explicit DeepStan guide); returns the fitted
          :class:`~repro.infer.VI` (autoguides) or :class:`~repro.infer.SVI`
          (explicit guides).
          Mean-field ADVI (Stan's baseline in Fig. 10) is
          ``fit("vi", guide="auto_normal")``.
        * ``"svi"`` — ``fit("vi", guide="explicit")`` with learning rate
          0.01 by default; returns the fitted :class:`~repro.infer.SVI`.
        * ``"importance"`` — likelihood-weighted sampling from the compiled
          prior; returns the completed
          :class:`~repro.infer.ImportanceSampling`.
        * ``"smc"`` — streaming SMC; returns the
          :class:`~repro.smc.StreamingFit`, whose ``extend(new_data)``
          absorbs new observations without refitting.
        """
        key = str(method).lower().strip()
        if key == "nuts":
            return self._fit_mcmc("nuts", **kwargs)
        if key == "hmc":
            return self._fit_mcmc("hmc", **kwargs)
        if key == "vi":
            return self._fit_vi(**kwargs)
        if key == "svi":
            kwargs.setdefault("guide", "explicit")
            kwargs.setdefault("learning_rate", 0.01)
            return self._fit_vi(**kwargs)
        if key == "importance":
            return self._fit_importance(**kwargs)
        if key == "smc":
            return self._fit_smc(**kwargs)
        raise ValueError(f"unknown fit method {method!r}; expected one of {FIT_METHODS}")

    def _make_kernel(self, method: str, seed: int, max_tree_depth: int = 10,
                     target_accept: float = 0.8, step_size: float = 0.1,
                     num_steps: int = 10,
                     engine: Union[None, str, EngineConfig] = None):
        potential = self.potential(seed, engine=engine)
        if method == "nuts":
            return NUTS(potential, step_size=step_size,
                        max_tree_depth=max_tree_depth,
                        target_accept=target_accept)
        return HMC(potential, step_size=step_size, num_steps=num_steps,
                   target_accept=target_accept)

    def _fit_mcmc(self, method: str, num_warmup: int = 300, num_samples: int = 300,
                  num_chains: int = 1, thinning: int = 1, seed: int = 0,
                  max_tree_depth: int = 10, target_accept: float = 0.8,
                  step_size: float = 0.1, num_steps: int = 10,
                  chain_method: str = "sequential",
                  engine: Union[None, str, EngineConfig] = None,
                  init_params: Optional[np.ndarray] = None,
                  checkpoint_every: Optional[int] = None,
                  checkpoint_path: Optional[str] = None,
                  checkpoint_keep: bool = False,
                  progress: bool = False,
                  on_iteration: Optional[Callable] = None) -> MCMC:
        config = self.compiled.resolved_engine(engine)
        kernel = self._make_kernel(method, seed, max_tree_depth=max_tree_depth,
                                   target_accept=target_accept,
                                   step_size=step_size, num_steps=num_steps,
                                   engine=config)
        mcmc = MCMC(kernel, num_warmup=num_warmup, num_samples=num_samples,
                    num_chains=num_chains, thinning=thinning, seed=seed,
                    chain_method=chain_method, progress=progress,
                    telemetry=self.compiled.telemetry, on_iteration=on_iteration)
        mcmc.metadata.update(self._metadata(method, seed, config))
        potential = self.potential(seed, engine=config)
        before = potential.metrics_view()
        result = mcmc.run(init_params=init_params, checkpoint_every=checkpoint_every,
                          checkpoint_path=checkpoint_path,
                          checkpoint_keep=checkpoint_keep)
        self._stamp_eval_counters(mcmc, potential, before)
        return result

    def _fit_vi(self, guide: Any = "auto_normal", num_steps: int = 1000,
                learning_rate: Optional[float] = None,
                num_particles: Optional[int] = None, seed: int = 0,
                guide_kwargs: Optional[Dict[str, Any]] = None,
                engine: Union[None, str, EngineConfig] = None,
                checkpoint_every: Optional[int] = None,
                checkpoint_path: Optional[str] = None,
                checkpoint_keep: bool = False):
        """Variational fit; ``guide`` selects the family.

        * an autoguide name — ``"auto_normal"`` (mean-field), ``"auto_mvn"``
          (full-rank), ``"auto_lowrank"``, ``"auto_delta"`` (MAP),
          ``"auto_neural"`` (amortized MLP) — or an
          :class:`~repro.guides.AutoGuide` instance;
        * ``"explicit"`` (or ``None`` on a program with a ``guide`` block, or
          any other callable) — the DeepStan explicit guide, optimised with
          trace-based :class:`~repro.infer.SVI` (learning rate 0.05 unless
          given).  The explicit path clears the global param store first so
          repeated fits do not leak state into each other.
        """
        guide_kwargs = dict(guide_kwargs or {})
        if isinstance(guide, type) and issubclass(guide, AutoGuide):
            guide = guide(**guide_kwargs)
            guide_kwargs = {}
        explicit = False
        if guide is None:
            if self.compiled.has_guide:
                explicit = True
            else:
                guide = "auto_normal"
        elif isinstance(guide, str) and guide.lower() == "explicit":
            explicit = True
        elif callable(guide) and not isinstance(guide, AutoGuide):
            explicit = True
        if explicit:
            if guide_kwargs:
                raise ValueError(
                    f"guide_kwargs {sorted(guide_kwargs)} only apply to autoguide "
                    "families, not explicit guides")
            if checkpoint_every or checkpoint_path:
                raise ValueError(
                    "checkpointing is supported for autoguide VI fits only "
                    "(explicit guides keep their state in the global param store)")
            if callable(guide) and not isinstance(guide, str):
                guide_fn = guide
            else:
                if not self.compiled.has_guide:
                    raise CompileError("guide='explicit' requires a guide block")
                guide_fn = self.compiled.guide_callable(self.data)
            from repro.ppl import primitives

            primitives.clear_param_store()
            # Trace-based particles re-execute the model, so the default is 1.
            driver = SVI(self.model_callable(), guide_fn,
                         learning_rate=0.05 if learning_rate is None else learning_rate,
                         num_particles=num_particles or 1, seed=seed,
                         latent_names=self.compiled.parameter_names)
            driver.metadata.update(self._metadata("vi", seed))
            return driver.run(num_steps)
        config = self.compiled.resolved_engine(engine)
        potential = self.potential(seed, engine=config)
        driver = VI(potential, guide=guide, learning_rate=learning_rate,
                    num_particles=num_particles, seed=seed, **guide_kwargs)
        driver.metadata.update(self._metadata("vi", seed, config))
        before = potential.metrics_view()
        telemetry = self.compiled.telemetry
        with telemetry.span("vi.run", guide=str(guide), num_steps=num_steps,
                            seed=seed):
            result = driver.run(num_steps, checkpoint_every=checkpoint_every,
                                checkpoint_path=checkpoint_path,
                                checkpoint_keep=checkpoint_keep)
        self._stamp_eval_counters(driver, potential, before)
        if telemetry.enabled:
            driver.metadata["telemetry"] = telemetry.digest()
        return result

    def _fit_importance(self, num_samples: int = 1000, seed: int = 0) -> ImportanceSampling:
        sampler = ImportanceSampling(self.model_callable(), num_samples=num_samples,
                                     seed=seed)
        sampler.metadata.update(self._metadata("importance", seed))
        return sampler.run()

    def _fit_smc(self, **kwargs):
        """Streaming SMC: temper from a prior/guide-seeded reference to the
        posterior; the returned :class:`~repro.smc.StreamingFit` then absorbs
        new observations via ``extend(new_data)`` without refitting."""
        from repro.smc import StreamingFit

        return StreamingFit(self, **kwargs).run()

    # ------------------------------------------------------------------
    # resuming checkpointed fits
    # ------------------------------------------------------------------
    def resume(self, path: str, **kwargs) -> FitResult:
        """Continue a checkpointed ``fit`` from its snapshot file.

        Dispatches on the checkpoint kind.  MCMC snapshots rebuild the
        kernel from the options *recorded in the checkpoint* (method, tree
        depth, target accept, ..., and the fit seed), so the continuation
        matches the original ``fit`` call without re-specifying anything;
        explicit kwargs override and a genuine mismatch raises rather than
        silently diverging.  VI snapshots rebuild the potential with the
        recorded seed (pass ``guide`` for non-default guide constructions).
        The continuation is bitwise-identical to an uninterrupted fit.
        """
        from repro.infer.checkpoint import base_checkpoint_path, read_checkpoint
        from repro.infer.mcmc import MCMC_CHECKPOINT_FORMAT
        from repro.infer.vi import VI_CHECKPOINT_FORMAT

        payload = read_checkpoint(path)
        kind = payload["format"]
        if kind == MCMC_CHECKPOINT_FORMAT:
            stored = payload.get("kernel") or {}
            method = kwargs.pop("method", stored.get("method", "nuts"))
            # The original fit's seed lives in the checkpoint config; it must
            # also seed the rebuilt potential, or the resumed run could
            # diverge (e.g. a pending chain's prior-draw fallback start).
            seed = self._resume_seed(kwargs, payload["config"]["seed"])
            checkpoint = {k: kwargs.pop(k) for k in
                          ("checkpoint_every", "checkpoint_path", "checkpoint_keep")
                          if k in kwargs}
            kernel_kwargs = {}
            for key in ("max_tree_depth", "target_accept", "step_size", "num_steps"):
                if key in kwargs:
                    kernel_kwargs[key] = kwargs.pop(key)
                elif key in stored:
                    kernel_kwargs[key] = stored[key]
            kernel = self._make_kernel(method, seed, **kernel_kwargs)
            if kwargs:
                raise TypeError(f"unexpected resume arguments: {sorted(kwargs)}")
            mcmc = MCMC.resume_payload(payload, kernel,
                                       default_path=base_checkpoint_path(path),
                                       **checkpoint)
            mcmc.metadata.update(self._metadata(method, seed))
            return mcmc
        if kind == VI_CHECKPOINT_FORMAT:
            seed = self._resume_seed(kwargs, payload["config"]["seed"])
            engine = VI.resume_payload(payload, self.potential(seed),
                                       default_path=base_checkpoint_path(path),
                                       **kwargs)
            engine.metadata.update(self._metadata("vi", engine.seed))
            return engine
        from repro.smc import SMC_CHECKPOINT_FORMAT, StreamingFit
        if kind == SMC_CHECKPOINT_FORMAT:
            self._resume_seed(kwargs, payload["config"]["seed"])
            return StreamingFit.resume_payload(
                payload, self, default_path=base_checkpoint_path(path),
                **kwargs)
        raise ValueError(f"{path} is not a recognised checkpoint (format={kind!r})")

    @staticmethod
    def _resume_seed(kwargs: Dict[str, Any], stored_seed: int) -> int:
        """The fit seed of a resumed run — always the checkpoint's.

        The restored RNG bit-states and the run config already encode the
        original seed; a different one would produce a silent hybrid run
        (new-potential site discovery, old chain streams), so an explicit
        mismatching ``seed=`` is an error rather than a knob.
        """
        seed = kwargs.pop("seed", stored_seed)
        if seed != stored_seed:
            raise ValueError(
                f"cannot resume with seed={seed!r}: the checkpoint was written "
                f"by a fit with seed={stored_seed!r} (a resumed run always "
                "continues the original seed)")
        return seed

    # ------------------------------------------------------------------
    # discrete posteriors (the enumeration engine's post-pass)
    # ------------------------------------------------------------------
    def infer_discrete(self, posterior: Union[Posterior, FitResult],
                       mode: str = "marginal", seed: int = 0,
                       include_marginals: bool = True) -> Posterior:
        """Recover the discrete sites a marginalized fit summed out.

        For every retained draw the per-assignment posterior over the joint
        enumeration table is recomputed conditional on that draw's
        continuous parameters, and read out per ``mode``:

        * ``"marginal"`` — per-element marginal probabilities
          (responsibilities), integer draws are the per-element modes;
        * ``"max"`` — the joint MAP assignment per draw;
        * ``"sample"`` — one seeded exact assignment sample per draw.

        Returns a **new** :class:`~repro.infer.Posterior` whose draws merge
        the integer-valued discrete sites into the continuous ones (so
        ``summary()`` reports mode/support probabilities for them); with
        ``include_marginals=True`` each discrete site also gets a
        ``<name>__marginal`` probability array with a trailing support axis.
        """
        from repro.enum import infer_discrete as _infer_discrete

        if not isinstance(posterior, Posterior):
            posterior = posterior.posterior
        if posterior.unconstrained is None:
            raise ValueError(
                "infer_discrete needs the posterior's unconstrained states; "
                "this posterior does not carry them (trace-based methods drop "
                "them — use an MCMC or Gaussian-family VI fit)")
        fit_seed = int(posterior.metadata.get("seed", 0))
        potential = self.potential(fit_seed)
        result = _infer_discrete(potential, posterior.unconstrained, mode=mode,
                                 seed=seed)
        draws = dict(posterior.draws)
        draws.update(result.draws)
        if include_marginals:
            for name, probs in result.marginals.items():
                draws[f"{name}__marginal"] = probs
        metadata = dict(posterior.metadata)
        metadata["infer_discrete"] = {
            "mode": mode,
            "seed": seed,
            "sites": sorted(result.draws),
            "support": {name: values.tolist()
                        for name, values in result.support.items()},
        }
        return Posterior(draws, stats=posterior.stats,
                         unconstrained=posterior.unconstrained, metadata=metadata)

    # ------------------------------------------------------------------
    # the generative directions
    # ------------------------------------------------------------------
    def sample_prior(self, num_draws: int = 1, seed: int = 0) -> Dict[str, np.ndarray]:
        """Forward-sample the compiled prior; returns per-site draw arrays.

        Runs the generative model ``num_draws`` times under a seeded trace
        and collects the latent sample sites, each as an array with a
        leading draw axis.
        """
        from repro.autodiff.tensor import Tensor as _Tensor

        model = self.model_callable()
        rng = np.random.default_rng(seed)
        out: Dict[str, List[np.ndarray]] = {}
        for _ in range(int(num_draws)):
            tracer = handlers.trace()
            with handlers.seed(rng_seed=rng), tracer:
                model()
            for name, site in handlers.latent_sites(tracer.trace).items():
                value = site["value"]
                raw = value.data if isinstance(value, _Tensor) else np.asarray(value)
                out.setdefault(name, []).append(np.array(raw, dtype=float))
        return {name: np.array(values) for name, values in out.items()}

    def generated_quantities(self, posterior: Union[Posterior, Dict[str, np.ndarray]],
                             num_draws: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Post-process draws through the ``generated quantities`` block.

        Accepts a :class:`~repro.infer.Posterior` (chains are concatenated)
        or a plain dict of per-site draw arrays.
        """
        draws = posterior.get_samples() if isinstance(posterior, Posterior) else posterior
        compiled = self.compiled
        inputs = compiled._prepare_inputs(self.data)
        gq_fn = compiled.namespace["generated_quantities"]
        names = list(draws.keys())
        total = len(draws[names[0]]) if names else 0
        if num_draws is not None:
            total = min(total, num_draws)
        results: Dict[str, List[np.ndarray]] = {}
        for i in range(total):
            kwargs = dict(inputs)
            kwargs.update({sanitize(name): draws[name][i] for name in names})
            out = gq_fn(**kwargs) or {}
            for key, value in out.items():
                results.setdefault(key, []).append(np.asarray(value, dtype=float))
        return {key: np.array(vals) for key, vals in results.items()}


# ----------------------------------------------------------------------
# compilation entry points
# ----------------------------------------------------------------------
#: the telemetry session of the in-flight :func:`compile_model` call.  The
#: compilation cache key must stay ``(source, scheme, backend, name,
#: allow_enumeration)`` — a telemetry argument would defeat the memoisation
#: — so the frontend spans reach :func:`_compile_cached` through this module
#: global instead (set around the call, restored in a ``finally``).  Cache
#: hits simply emit no frontend spans: no parse or codegen ran.
_ACTIVE_TELEMETRY = NULL_TELEMETRY

#: Serialises the frontend (parse/check/codegen) section of
#: :func:`compile_model`.  The ``lru_cache`` dict itself is protected by the
#: GIL, but the telemetry hand-off around it is not: the module-global
#: ``_ACTIVE_TELEMETRY`` swap plus the hits-before/hits-after cache-outcome
#: read are a multi-step critical section, and two threads compiling the
#: same *new* source would otherwise both miss and parse twice (or worse,
#: attribute each other's frontend spans).  Serving-layer registries compile
#: from worker threads, so the section takes this lock; cache *hits* still
#: resolve in microseconds, the lock only ever holds one cold parse.
_COMPILE_LOCK = threading.RLock()


def _build_program(program: ast.Program, backend: str, scheme: str, name: str,
                   allow_enumeration: bool = False):
    """Check + scheme-compile + codegen; returns (model_ir, guide_ir, source, code)."""
    telemetry = _ACTIVE_TELEMETRY
    check_program(program, allow_int_parameters=allow_enumeration)
    if scheme == "generative":
        model_ir = schemes.compile_generative(program)
    else:
        model_ir = schemes.compile_comprehensive(program)
        if scheme == "mixed":
            model_ir = mixed_mod.compile_mixed(model_ir, {d.name for d in program.parameters.decls})
    guide_ir = None
    if not program.guide.is_empty:
        guide_ir = schemes.compile_guide(program)
    with telemetry.span("frontend.codegen", backend=backend, scheme=scheme) as span:
        source = codegen.generate_module(program, model_ir, backend=backend,
                                         guide_ir=guide_ir, scheme=scheme)
        code = compile(source, filename=f"<{name}.{backend}.{scheme}>", mode="exec")
        span.set(generated_lines=source.count("\n") + 1,
                 has_guide=guide_ir is not None)
    return model_ir, guide_ir, source, code


@functools.lru_cache(maxsize=128)
def _compile_cached(source: str, backend: str, scheme: str, name: str,
                    allow_enumeration: bool = False):
    """Parse + codegen, memoised on all five arguments.

    The LRU dict hashes the source text itself — an explicit digest would
    be pure overhead on top of the string hash.

    Only the *stateless* products are cached — the parsed program, the IRs,
    the generated source and its compiled code object.  Every
    :func:`compile_model` call executes the code object into a **fresh**
    namespace, so cached compilations share no mutable state (network
    bindings, generated-function globals) across :class:`CompiledModel`
    instances.  This is the hot path of service-style deployments: repeated
    ``compile_model(source).condition(data).fit(...)`` calls skip the parser
    and code generator entirely.
    """
    with _ACTIVE_TELEMETRY.span("frontend.parse", model=name) as span:
        program = parse_program(source, name=name)
        span.set(source_lines=source.count("\n") + 1)
    model_ir, guide_ir, gen_source, code = _build_program(
        program, backend, scheme, name, allow_enumeration=allow_enumeration)
    return program, model_ir, guide_ir, gen_source, code


def compile_cache_info():
    """Hit/miss statistics of the compilation cache (``functools`` format)."""
    return _compile_cached.cache_info()


def clear_compile_cache() -> None:
    """Drop every cached compilation (tests and long-lived services)."""
    _compile_cached.cache_clear()


def compile_model(source_or_program, backend: str = "numpyro", scheme: str = "comprehensive",
                  name: str = "model",
                  engine: Union[None, str, EngineConfig] = None,
                  obs: Any = None,
                  enum: Union[None, str, EnumConfig] = None) -> CompiledModel:
    """Compile Stan source (or a parsed program) to a :class:`CompiledModel`.

    String sources are memoised: the parse/check/codegen products are cached
    on ``(source, scheme, backend, name, allow_enumeration)`` (LRU, 128
    entries; ``allow_enumeration`` is whether the ``enum`` strategy is not
    ``"off"``), so repeated service-style calls only pay a fresh module
    execution.

    ``obs`` enables the telemetry subsystem (see :mod:`repro.obs`): pass
    ``True``, an :class:`~repro.obs.ObsConfig`, or an existing
    :class:`~repro.obs.Telemetry` session.  The session is threaded through
    every derived potential and fit — compile-cache hits/misses, frontend
    parse/codegen, tape compilation, enumeration analysis and the sampler
    all record into the same trace — and is off (a shared null sink with
    no recording and no overhead) by default.

    ``engine`` configures evaluation wholesale — pass an engine name
    (``"compiled"``/``"interpreted"``) or a full
    :class:`~repro.engine.EngineConfig` carrying the engine and the ``enum``
    config.  Fast-path validation tolerances are fixed constants
    (:mod:`repro.infer.validated`), not options.

    ``enum`` configures discrete-latent enumeration — pass a strategy name
    (``"auto"``/``"parallel"``/``"off"``) or a full
    :class:`~repro.engine.EnumConfig` carrying the strategy and the table
    cap.  ``enum="auto"`` (the recommended
    spelling) resolves in a documented order: tensor variable elimination
    over the model's discrete factor graph (independent elements in
    ``O(N*K)``, chains by the forward algorithm in ``O(T*K^2)``, and a
    greedy contraction order for trees, grids and multi-site coupling such
    as factorial HMMs), then the joint assignment table, then a
    :class:`~repro.enum.TableSizeError` naming the cap knob.
    ``enum="parallel"`` forces the joint-table engine (exponential in
    array-site length, bitwise-stable draws).  The resolved strategy and the
    planner's cost estimate are stamped into every fit's
    ``metadata["enum"]``.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    config = EngineConfig.coerce(engine)
    if enum is not None:
        config = config.replace(enum=EnumConfig.coerce(enum))
    telemetry = as_telemetry(obs)
    allow_enum = config.enum.strategy != "off"
    global _ACTIVE_TELEMETRY
    start = time.perf_counter()
    with telemetry.span("compiler.compile", backend=backend, scheme=scheme,
                        model=str(name)) as span:
        with _COMPILE_LOCK:
            prev, _ACTIVE_TELEMETRY = _ACTIVE_TELEMETRY, telemetry
            try:
                if isinstance(source_or_program, ast.Program):
                    program = source_or_program
                    model_ir, guide_ir, source, code = _build_program(
                        program, backend, scheme, name, allow_enumeration=allow_enum)
                    span.set(cache="bypass")  # pre-parsed programs are not memoised
                else:
                    hits_before = _compile_cached.cache_info().hits
                    program, model_ir, guide_ir, source, code = _compile_cached(
                        str(source_or_program), backend, scheme, str(name), allow_enum)
                    outcome = ("hit" if _compile_cached.cache_info().hits > hits_before
                               else "miss")
                    span.set(cache=outcome)
                    if telemetry.enabled:
                        telemetry.event("compile.cache", outcome=outcome, name=str(name))
            finally:
                _ACTIVE_TELEMETRY = prev
        namespace: Dict[str, Any] = {}
        exec(code, namespace)  # noqa: S102 - executing our own generated code
    elapsed = time.perf_counter() - start
    return CompiledModel(program=program, scheme=scheme, backend=backend, source=source,
                         namespace=namespace, model_ir=model_ir, guide_ir=guide_ir,
                         compile_time_seconds=elapsed, engine_config=config,
                         telemetry=telemetry)


def compile_file(path: str, **kwargs) -> CompiledModel:
    """Compile a ``.stan`` file."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return compile_model(source, name=path, **kwargs)


def analyze_source(source: str, name: str = "model") -> analysis.FeatureReport:
    """Parse and analyse a program's non-generative features (Table 1)."""
    program = parse_program(source, name=name)
    return analysis.analyze(program)
