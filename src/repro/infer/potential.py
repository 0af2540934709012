"""Building potential-energy functions from generative models.

NumPyro's speed relative to Pyro (Table 3) comes largely from evaluating the
model as a *pure function* of an unconstrained parameter vector.  This module
performs the same extraction for our runtime:

1.  run the model once under a ``trace``/``seed`` handler to discover the
    latent sample sites, their shapes and their supports;
2.  associate each latent site with the bijector mapping unconstrained reals
    onto its support (:func:`repro.ppl.transforms.biject_to`);
3.  expose ``potential_fn(z)``/``grad`` over the flat unconstrained vector
    ``z``: the negative log joint density of (transformed) latents and data,
    including the change-of-variables Jacobian terms.

Both the HMC/NUTS kernels and the VI engine consume this object.

:meth:`Potential.potential_and_grad_batched` evaluates a whole
``(num_chains, dim)`` matrix of states in *one* tape: every latent site
carries a leading chain axis (scalar sites are ``(C, 1)`` so they broadcast
against data vectors), per-site terms reduce over their trailing axes only,
and one reverse pass seeded with ones yields the per-chain gradients.  The
first batched call classifies its row count as the potential's *width*;
every later batch is padded up to it or split into width-sized blocks, so no
batched program runs at a shape it was not validated at.

With ``enum="auto"`` (or ``"parallel"``) bounded discrete latents are
marginalized exactly: ``"contract"`` eliminates them by tensor variable
elimination (:mod:`repro.enum.contract`; no joint table, so sizes like
``2^500`` evaluate in milliseconds), ``"parallel"`` runs the flattened joint
table through one vectorized execution, and ``"rows"`` executes the model
once per joint assignment.  Under the batched tape the enumeration rides
behind the chain axis (``C * B`` gridded rows contracted per chain, or
``(C * T, dim)`` table rows reduced by a ``(C, T)`` logsumexp).

Every fast path here — compiled programs, batched widths, the enumeration
strategy and table, the batched constrain — is a
:class:`~repro.infer.validated.ValidatedPath`, served only after it agrees
with its oracle under the contract stated in :mod:`repro.infer.validated`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.autodiff import ops
from repro.autodiff.compile import compile_tape
from repro.autodiff.functional import value_and_grad
from repro.autodiff.tensor import Tensor, as_tensor, no_grad
from repro.engine import EngineConfig, EnumConfig
from repro.infer.validated import (CONSTRAIN_ATOL, CONSTRAIN_RTOL,
                                   CROSS_CHECK_TABLE_CAP, VALIDATION_PROBES,
                                   VALUE_ATOL, VALUE_RTOL, ValidatedPath,
                                   describe_error)
from repro.obs import MetricsRegistry, as_telemetry
from repro.ppl import handlers
from repro.ppl.distributions.base import param_value
from repro.ppl.transforms import Transform, biject_to


class DiscreteLatentError(RuntimeError):
    """Raised when a model has a discrete latent site on the non-enumerated path."""


@dataclass
class SiteInfo:
    """Metadata for one latent sample site."""

    name: str
    constrained_shape: Tuple[int, ...]
    unconstrained_shape: Tuple[int, ...]
    transform: Transform
    offset: int
    size: int


class Potential:
    """Negative log joint density over a flat unconstrained vector."""

    def __init__(self, model: Callable, model_args: Tuple = (), model_kwargs: Optional[Dict] = None,
                 observed: Optional[Dict[str, Any]] = None, rng_seed: int = 0,
                 fast: bool = False,
                 engine: Union[None, str, "EngineConfig"] = None,
                 obs: Any = None,
                 enum: Union[None, str, "EnumConfig"] = None):
        #: the resolved evaluation-engine configuration.  ``engine`` accepts
        #: an engine name or a full :class:`~repro.engine.EngineConfig`;
        #: ``enum=`` (a strategy name or :class:`~repro.engine.EnumConfig`)
        #: overrides its marginalization config.
        self.engine_config = EngineConfig.coerce(engine)
        if enum is not None:
            self.engine_config = self.engine_config.replace(
                enum=EnumConfig.coerce(enum))
        #: the resolved discrete-marginalization configuration.
        self.enum_config = self.engine_config.enum
        self.model = model
        self.model_args = tuple(model_args)
        self.model_kwargs = dict(model_kwargs or {})
        self.observed = dict(observed or {})
        self.rng_seed = rng_seed
        # ``fast=True`` evaluates the log joint through the NumPyro-style
        # direct-accumulation context instead of the effect-handler stack.
        self.fast = fast
        #: joint assignment table over the discrete latent sites
        #: (``None`` unless enumeration is enabled and found any).
        self.enum_plan = None
        #: telemetry session (the shared null sink unless ``obs=`` was
        #: given) and the unified engine metrics registry.
        self.telemetry = as_telemetry(obs)
        self.metrics = self.telemetry.attach_registry("potential", MetricsRegistry())
        self.sites: "OrderedDict[str, SiteInfo]" = OrderedDict()
        self._initial_values: Dict[str, np.ndarray] = {}
        with self.telemetry.span("potential.discover") as span:
            self._discover_sites()
            span.set(sites=len(self.sites),
                     enumerated=self.enum_plan is not None)
        self._vg = value_and_grad(self._neg_log_joint_tensor)
        # Guards every classification and demotion (and the observed-sites
        # probe): each is a multi-step read-validate-write.  Reentrant
        # because validations call back into evaluation paths.
        self._validation_lock = threading.RLock()
        self._decisions: List[Dict[str, Any]] = []
        # The fast paths (see repro.infer.validated).  The single tape and
        # the widths' paths are dropped whenever the graph structure changes;
        # a width's tier lives only in the (possibly shared) store
        # ``_batched_tiers``.
        self._single: Optional[ValidatedPath] = None
        self._batched_tiers: Dict[int, str] = {}
        self._widths: Dict[int, _WidthPath] = {}
        self._marginal = ValidatedPath(self, "enum", "strategy", ("contract", None, "joint"),
                                       "joint", tolerance=(VALUE_RTOL, VALUE_ATOL))
        self._table = ValidatedPath(self, "enum", "table", ("parallel", None, "rows"), "rows")
        self._constrain = ValidatedPath(self, "constrain", "batched", ("batched", None, "rows"),
                                        "rows", tolerance=(CONSTRAIN_RTOL, CONSTRAIN_ATOL))

    # ------------------------------------------------------------------
    # site discovery and packing
    # ------------------------------------------------------------------
    def _run_traced(self, rng_seed: Optional[int] = None):
        from repro.ppl.primitives import reset_site_counter

        # Auto-generated ``observe__N`` names must be stable across traced
        # runs so sites can be matched between the discovery and probe traces.
        reset_site_counter()
        tracer = handlers.trace()
        with handlers.seed(rng_seed=self.rng_seed if rng_seed is None else rng_seed), \
             handlers.condition(data=self.observed), tracer:
            self.model(*self.model_args, **self.model_kwargs)
        return tracer.trace

    def _discover_sites(self) -> None:
        model_trace = self._run_traced()
        offset = 0
        self._observed_raw: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, site in model_trace.items():
            if site["type"] == "sample" and site["is_observed"]:
                self._observed_raw[name] = np.asarray(param_value(site["value"]),
                                                      dtype=float)
        self._observed_sites: Optional["OrderedDict[str, np.ndarray]"] = None
        discrete: "OrderedDict[str, Tuple[Any, Tuple[int, ...]]]" = OrderedDict()
        for name, site in handlers.latent_sites(model_trace).items():
            fn = site["fn"]
            if getattr(fn, "is_discrete", False):
                if self.enum_config.strategy == "off":
                    raise DiscreteLatentError(
                        f"latent site {name!r} is discrete; NUTS/HMC requires "
                        "continuous parameters. Bounded discrete latents can be "
                        'marginalized exactly instead: compile_model(source, enum="auto") '
                        "(tensor variable elimination with joint-table fallback) or "
                        'enum="parallel" (the joint table), or Potential(enum=...).')
                value = np.asarray(param_value(site["value"]), dtype=float)
                discrete[name] = (fn, value.shape)
                continue
            value = np.asarray(param_value(site["value"]), dtype=float)
            transform = biject_to(fn.support)
            unconstrained_shape = transform.unconstrained_shape(value.shape)
            size = int(np.prod(unconstrained_shape)) if unconstrained_shape else 1
            self.sites[name] = SiteInfo(
                name=name,
                constrained_shape=value.shape,
                unconstrained_shape=tuple(unconstrained_shape),
                transform=transform,
                offset=offset,
                size=size,
            )
            self._initial_values[name] = value
            offset += size
        if discrete:
            from repro.enum import EnumerationPlan

            # The structured strategies (contract / auto) may never
            # materialize the joint table, so their size cap is checked
            # lazily (only on joint fallback).
            self.enum_plan = EnumerationPlan.from_trace_sites(
                discrete, max_table_size=self.enum_config.max_table_size,
                defer_size_check=self.enum_config.strategy == "auto")
        self.dim = offset
        if self.dim == 0:
            if self.enum_plan is not None:
                raise RuntimeError(
                    "model has no continuous latent sites (every parameter is "
                    "an enumerated discrete latent); gradient-based inference "
                    "needs at least one continuous parameter")
            raise RuntimeError("model has no continuous latent sites")

    @property
    def observed_sites(self) -> "OrderedDict[str, np.ndarray]":
        """Observed sites whose values are genuinely data.

        Under the comprehensive scheme a prior statement also traces as an
        observed site, but its value is the (seed-dependent) latent draw — a
        probe trace with a second seed, run lazily on first access so the
        common sampling paths never pay for it, keeps only the seed-invariant
        values.
        """
        if self._observed_sites is None:
            with self._validation_lock:
                if self._observed_sites is not None:
                    return self._observed_sites
                probe_trace = self._run_traced(rng_seed=self.rng_seed + 1)
                sites: "OrderedDict[str, np.ndarray]" = OrderedDict()
                for name, value in self._observed_raw.items():
                    probe = probe_trace.get(name)
                    if probe is None:
                        continue
                    probe_value = np.asarray(param_value(probe["value"]), dtype=float)
                    if value.shape == probe_value.shape and \
                            np.array_equal(value, probe_value, equal_nan=True):
                        sites[name] = value
                self._observed_sites = sites
        return self._observed_sites

    def observed_vector(self) -> np.ndarray:
        """All observed site values flattened into one feature vector.

        Amortized guides (:class:`repro.guides.neural.AutoNeural`) condition
        their variational parameters on this vector.  Models without observed
        sample sites yield a single zero so downstream networks always have an
        input.
        """
        parts = [np.reshape(value, -1) for value in self.observed_sites.values()]
        if not parts:
            return np.zeros(1)
        return np.concatenate(parts)

    # ------------------------------------------------------------------
    # packing between flat unconstrained vectors and per-site values
    # ------------------------------------------------------------------
    def initial_unconstrained(self, rng: Optional[np.random.Generator] = None,
                              jitter: float = 1.0) -> np.ndarray:
        """Initial point: transform of the prior draw, plus optional jitter.

        Stan initialises parameters uniformly in ``(-2, 2)`` on the
        unconstrained scale; we mimic this when ``rng`` is given.
        """
        if rng is not None:
            return rng.uniform(-jitter, jitter, size=self.dim)
        z = np.zeros(self.dim)
        for name, info in self.sites.items():
            constrained = as_tensor(self._initial_values[name])
            try:
                unconstrained = info.transform.inv(constrained).data
            except Exception:
                unconstrained = np.zeros(info.unconstrained_shape)
            z[info.offset:info.offset + info.size] = np.reshape(unconstrained, -1)
        return z

    def unpack(self, z: Tensor) -> "OrderedDict[str, Tensor]":
        """Split a flat unconstrained tensor into per-site unconstrained tensors."""
        out: "OrderedDict[str, Tensor]" = OrderedDict()
        for name, info in self.sites.items():
            segment = ops.getitem(z, slice(info.offset, info.offset + info.size))
            if info.unconstrained_shape != (info.size,):
                segment = ops.reshape(segment, info.unconstrained_shape if info.unconstrained_shape else ())
            out[name] = segment
        return out

    def constrain(self, z: Tensor) -> Tuple["OrderedDict[str, Tensor]", Tensor]:
        """Map unconstrained tensors to constrained values; also return sum of log|J|."""
        constrained: "OrderedDict[str, Tensor]" = OrderedDict()
        log_det = as_tensor(0.0)
        for name, segment in self.unpack(z).items():
            info = self.sites[name]
            value = info.transform(segment)
            if value.data.shape != info.constrained_shape:
                value = ops.reshape(value, info.constrained_shape)
            constrained[name] = value
            log_det = ops.add(log_det, info.transform.log_abs_det_jacobian(segment, value))
        return constrained, log_det

    def constrained_dict(self, z: np.ndarray) -> Dict[str, np.ndarray]:
        """Constrained NumPy values for a flat unconstrained vector (no grad)."""
        constrained, _ = self.constrain(as_tensor(np.asarray(z, dtype=float)))
        return {name: np.array(value.data) for name, value in constrained.items()}

    # ------------------------------------------------------------------
    # model executions
    # ------------------------------------------------------------------
    def _run_fast(self, substitution: Dict[str, Any], batch_size: Optional[int] = None,
                  collect_names: bool = False):
        """One model execution under the direct-accumulation context."""
        from repro.ppl.primitives import FastLogDensityContext

        ctx = FastLogDensityContext(substitution=substitution,
                                    rng=np.random.default_rng(self.rng_seed),
                                    batch_size=batch_size, collect_names=collect_names)
        with ctx:
            self.model(*self.model_args, **self.model_kwargs)
        return ctx

    def _log_joint(self, substitution: Dict[str, Any]) -> Tensor:
        """Log joint of one model execution with ``substitution`` in place."""
        if self.fast:
            return self._run_fast(substitution).total()
        tracer = handlers.trace()
        with handlers.seed(rng_seed=self.rng_seed), \
             handlers.condition(data=self.observed), \
             handlers.substitute(data=substitution), tracer:
            self.model(*self.model_args, **self.model_kwargs)
        return handlers.trace_log_density(tracer.trace)

    @staticmethod
    def _batched(value) -> Tensor:
        """``value`` as a tensor whose leading axis is marked as the row axis."""
        tensor = as_tensor(value)
        tensor.is_batched = True
        return tensor

    # ------------------------------------------------------------------
    # enumerated (marginalized) density evaluation
    # ------------------------------------------------------------------
    def _enum_log_joint_parallel(self, constrained: "OrderedDict[str, Tensor]") -> Tensor:
        """Per-assignment log joints ``(T,)`` from one vectorized execution.

        The flattened joint table is substituted at the discrete sites with
        the table axis marked ``is_batched``, so the assignment rows ride the
        existing vectorized-evaluation machinery exactly like chains do.
        """
        plan = self.enum_plan
        t_size = plan.table_size
        if self.fast:
            substitution = {**self.observed, **constrained}
            substitution.update({name: self._batched(value)
                                 for name, value in plan.flat_values().items()})
            total = self._run_fast(substitution, t_size).total()
        else:
            from repro.enum import enum_log_density

            total, _ = enum_log_density(
                self.model, plan, model_args=self.model_args,
                model_kwargs=self.model_kwargs, substituted=dict(constrained),
                observed=self.observed, rng_seed=self.rng_seed)
        if total.data.shape != (t_size,):
            raise RuntimeError(
                f"enumerated log joint has shape {total.data.shape}, expected ({t_size},)")
        return total

    def _enum_log_joint_rows(self, constrained: "OrderedDict[str, Tensor]") -> Tensor:
        """Per-assignment log joints via the always-correct assignment loop."""
        plan = self.enum_plan
        return ops.stack([
            self._log_joint({**self.observed, **constrained,
                             **{name: as_tensor(value)
                                for name, value in plan.decode(t).items()}})
            for t in range(plan.table_size)])

    def _enum_log_joint(self, constrained: "OrderedDict[str, Tensor]") -> Tensor:
        """Per-assignment log joints through the validated table strategy."""
        path = self._table
        if path.tier is None:
            with self._validation_lock:
                if path.tier is None:
                    def table(vectorized, z):
                        at, _ = self.constrain(as_tensor(z))
                        run = (self._enum_log_joint_parallel if vectorized
                               else self._enum_log_joint_rows)
                        return (run(at).data,)

                    path.decide(*path.compare(
                        partial(table, True), partial(table, False),
                        [self._canonical_probe((self.dim,))]))
        if path.tier == "parallel":
            try:
                return self._enum_log_joint_parallel(constrained)
            except Exception as exc:  # noqa: BLE001
                path.demote(exc)
        return self._enum_log_joint_rows(constrained)

    # ------------------------------------------------------------------
    # structured (tensor-variable-elimination) marginalization
    # ------------------------------------------------------------------
    def _run_gridded(self, constrained: "OrderedDict[str, Tensor]",
                     chains: Optional[int] = None):
        """One gridded model execution; returns the collected, checked terms.

        With ``chains``, ``constrained`` holds ``(C, ...)`` chain rows and
        each is paired with the whole grid: ``C * B`` rows, chain-major.
        """
        from repro.enum.factorize import reset_generated_site_names

        fplan = self.factorization
        rows = fplan.batch_rows
        substitution: Dict[str, Any] = dict(self.observed)
        for name, value in constrained.items():
            substitution[name] = (value if chains is None
                                  else self._batched(self._tile_rows(value, rows)))
        for name, grid in fplan.grids().items():
            substitution[name] = self._batched(
                grid if chains is None else np.tile(grid, (chains, 1)))
        reset_generated_site_names()
        ctx = self._run_fast(substitution, rows * (chains or 1), collect_names=True)
        fplan.check_terms(ctx.term_names)
        return ctx.log_prob_terms

    def _enum_contract_marginal(self, constrained: "OrderedDict[str, Tensor]") -> Tensor:
        """Exact marginal log joint via the tensor contraction."""
        return self.factorization.contract(self._run_gridded(constrained))

    def _enum_marginal(self, constrained: "OrderedDict[str, Tensor]",
                       trial: Optional[str] = None) -> Tensor:
        """Marginal log joint over the discrete latents (scalar tensor).

        Uses the resolved strategy, or ``trial`` (``"contract"`` /
        ``"joint"``) while the cross-check compares the two.
        """
        if trial == "contract":
            return self._enum_contract_marginal(constrained)
        if trial is None and self._marginal.tier == "contract":
            try:
                return self._enum_contract_marginal(constrained)
            except Exception as exc:  # noqa: BLE001
                # Structure violations (assignment-dependent control flow)
                # may only trigger away from the analysis point.
                self._demote_structured(exc)
        return ops.logsumexp(self._enum_log_joint(constrained))

    def _demote_structured(self, reason) -> None:
        """Fall back for good from the contraction to the joint table.

        Every compiled program recorded the structured graph: the single
        tape is classified afresh and each width's program is rechecked
        against the interpreted batched tape.  Raises
        :class:`~repro.enum.TableSizeError` (with the elimination context) if
        the joint table does not fit the cap.
        """
        with self._validation_lock:
            self._single = None
            self._widths.clear()
            self._marginal.decide(
                "joint", f"elimination planning was attempted and bailed: {reason}")
        self.enum_plan.ensure_table_capacity(self._marginal.reason)

    def _ensure_enum_strategy(self) -> None:
        """Resolve the marginalization strategy before the first evaluation."""
        if self.enum_plan is not None and self._marginal.tier is None:
            with self._validation_lock:
                if self._marginal.tier is None:
                    self._resolve_enum_strategy()

    def _resolve_enum_strategy(self) -> None:
        """Pick the marginalization strategy once, at the canonical probe.

        ``"auto"`` resolves in order: tensor variable elimination
        (cross-checked against the joint table while that is at most
        :data:`~repro.infer.validated.CROSS_CHECK_TABLE_CAP` entries) ->
        joint table -> TableSizeError when nothing fits; ``"parallel"`` goes
        straight to the joint table.  The contraction plan is the
        ``enum``/``strategy`` path's candidate, and each decision's reason
        says how the strategy resolved.
        """
        from repro.enum import FactorizationError, analyze_contraction

        path, plan = self._marginal, self.enum_plan
        if self.enum_config.strategy != "auto":
            return path.decide("joint", f"strategy {self.enum_config.strategy!r}")
        if not self.fast:
            path.decide("joint", "tensor variable elimination requires the "
                        "vectorized (numpyro) runtime; this potential uses the "
                        "trace-based handler stack")
            return plan.ensure_table_capacity(path.reason)
        if all(not site.event_shape for site in plan.sites) \
                and plan.table_size <= plan.max_table_size:
            # Scalar sites only *and* the table fits: keep the joint
            # arithmetic so draws stay bitwise identical to the joint-table
            # engine.  Many scalar sites can still blow the cap (2^17
            # Bernoullis) — those fall through to the contraction, which
            # eliminates each scalar site in O(K).
            return path.decide("joint", "all discrete sites are scalar; the joint "
                               "table is already small and keeps bitwise-stable draws")
        probe = self._canonical_probe((self.dim,))
        try:
            with np.errstate(all="ignore"):
                constrained, _ = self.constrain(as_tensor(probe))
            path.program = analyze_contraction(
                self.model, plan, model_args=self.model_args,
                model_kwargs=self.model_kwargs, observed=self.observed,
                constrained=dict(constrained), rng_seed=self.rng_seed,
                max_table_size=plan.max_table_size, telemetry=self.telemetry)
        except FactorizationError as exc:
            return self._demote_structured(exc)
        description = path.program.describe()
        if plan.table_size > min(plan.max_table_size, CROSS_CHECK_TABLE_CAP):
            return path.decide("contract", description + (
                "; joint table too large for oracle cross-validation — "
                "trusting the exact graph-walk dependency analysis"))
        tier, reason = path.compare(
            value_and_grad(partial(self._neg_log_joint_tensor, trial="contract")),
            value_and_grad(partial(self._neg_log_joint_tensor, trial="joint")),
            [probe])
        if tier == "contract":
            path.decide(tier, f"{description}; {reason}")
        else:
            self._demote_structured(f"the joint-table oracle disagrees ({reason})")

    @property
    def factorization(self):
        """The contraction layout the ``enum``/``strategy`` path serves (a
        :class:`~repro.enum.ContractionPlan`), or ``None`` on the joint table."""
        return self._marginal.program

    @property
    def enum_strategy(self) -> Optional[str]:
        """The validated enumerated-evaluation strategy.

        ``"contract"`` (tensor variable elimination), ``"parallel"`` (one
        table-vectorized execution) or ``"rows"`` (the per-assignment oracle
        loop); ``None`` for non-enumerated potentials.  Before the first
        evaluation this reports the strategy pending validation (``"auto"``
        until the planner resolves it).
        """
        if self.enum_plan is None:
            return None
        strategy = self._marginal.tier or self.enum_config.strategy
        if strategy in ("contract", "auto"):
            return strategy
        return self._table.tier or "parallel"

    def assignment_log_joints(self, z: np.ndarray) -> np.ndarray:
        """Per-assignment log joints ``(table_size,)`` at unconstrained ``z``.

        The constant change-of-variables term is omitted — it cancels in the
        softmax over assignments that :func:`repro.enum.infer_discrete`
        applies.  Gradients are not returned, but the evaluation keeps the
        graph recorded: the trace-based reduction classifies terms by graph
        provenance, and the classification here must match the one the
        sampling path was validated under.

        Always evaluates through the **joint table** (used by the table-based
        discrete post-pass and as the contraction's oracle), so it raises
        :class:`~repro.enum.TableSizeError` when the table exceeds the cap —
        contract potentials expose :meth:`factorized_factors` instead.
        """
        if self.enum_plan is None:
            raise RuntimeError("assignment_log_joints requires an enumerated potential")
        self.enum_plan.ensure_table_capacity(self._marginal.reason)
        with np.errstate(all="ignore"):
            constrained, _ = self.constrain(as_tensor(np.asarray(z, dtype=float)))
            return np.asarray(self._enum_log_joint(constrained).data, dtype=float)

    def factorized_factors(self, z: np.ndarray):
        """Per-component discrete posterior log factors at unconstrained ``z``.

        Returns a :class:`~repro.enum.ContractFactors` (the isolated
        elements' log factors plus the coupled factor graph and its
        elimination order) under the contract strategy, or ``None`` when the
        potential resolved to the joint table (callers then use
        :meth:`assignment_log_joints`).
        """
        if self.enum_plan is None:
            raise RuntimeError("factorized_factors requires an enumerated potential")
        self._ensure_enum_strategy()
        if self._marginal.tier != "contract":
            return None
        with np.errstate(all="ignore"), no_grad():
            constrained, _ = self.constrain(as_tensor(np.asarray(z, dtype=float)))
            return self.factorization.posterior_factors(self._run_gridded(constrained))

    def enum_metadata(self) -> Optional[Dict[str, Any]]:
        """Resolved-enumeration record for fit metadata and BENCH_*.json.

        ``None`` for non-enumerated potentials; otherwise the requested and
        *resolved* strategy, the planner cost estimate (total contraction
        table entries for structured strategies, the joint table size for the
        joint fallback), and the resolution note: the reason of the
        ``enum``/``strategy`` path's last decision.
        """
        if self.enum_plan is None:
            return None
        plan = self.factorization
        return {"requested": self.enum_config.strategy,
                "strategy": self.enum_strategy,
                "note": self._marginal.reason,
                "cost_estimate": int(plan.cost_estimate() if plan is not None
                                     else self.enum_plan.table_size)}

    # ------------------------------------------------------------------
    # density evaluation
    # ------------------------------------------------------------------
    def _neg_log_joint_tensor(self, z: Tensor, trial: Optional[str] = None) -> Tensor:
        constrained, log_det = self.constrain(z)
        if self.enum_plan is not None:
            log_joint = self._enum_marginal(constrained, trial)
        else:
            log_joint = self._log_joint({**self.observed, **constrained})
        return ops.neg(ops.add(log_joint, log_det))

    def potential(self, z: np.ndarray) -> float:
        """Potential energy (negative log joint) at ``z``."""
        z = np.asarray(z, dtype=float)
        self._ensure_enum_strategy()
        self.metrics.inc("value_evals")
        start = time.perf_counter()
        try:
            out = self._compiled_value(z)
            if out is not None:
                return float(out)
            return float(self._single_vg(z)[0])
        finally:
            self.metrics.inc("tape_seconds", time.perf_counter() - start)

    def potential_and_grad(self, z: np.ndarray) -> Tuple[float, np.ndarray]:
        """Potential energy and its gradient at ``z``."""
        z = np.asarray(z, dtype=float)
        self._ensure_enum_strategy()
        self.metrics.inc("grad_evals")
        start = time.perf_counter()
        try:
            return self._single_vg(z)
        finally:
            self.metrics.inc("tape_seconds", time.perf_counter() - start)

    def log_prob(self, z: np.ndarray) -> float:
        """Log joint density (the negation of the potential)."""
        return -self.potential(z)

    # ------------------------------------------------------------------
    # the compiled engine (fused tape programs; repro.autodiff.compile)
    # ------------------------------------------------------------------
    # A graph the potential evaluates repeatedly — the single-row tape, a
    # batched width's tape — is lowered once into a straight-line NumPy
    # program.  The single tape's shape/dtype guard invalidates its program
    # when the input signature changes; the retrace is classified afresh.
    def _single_vg(self, z: np.ndarray) -> Tuple[float, np.ndarray]:
        """Engine dispatch for one ``(dim,)`` evaluation."""
        if self.engine_config.engine != "compiled":
            return self._vg(z)
        value, grad = self._compiled_vg(z) or self._vg(z)
        return float(value), np.asarray(grad, dtype=float)

    def _compiled_vg(self, z: np.ndarray):
        """``(value, grad)`` for ``z`` through the single tape's program.

        Classifies the program against the interpreted tape on first use;
        ``None`` unless the program serves gradients (the ``fast`` tier, and
        it did not raise).
        """
        path = self._single
        if path is None or (path.program is not None and not path.program.matches(z)):
            with self._validation_lock:
                if self._single is path:  # not reclassified meanwhile
                    self._single = self._classify_program(z.shape)
                path = self._single
        if path.tier == "fast" and path.program is not None:
            try:
                return self._compiled(path.program.value_and_grad, z)
            except Exception as exc:  # noqa: BLE001
                path.demote(exc)
        return None

    def _classify_program(self, shape: Tuple[int, ...]) -> ValidatedPath:
        path = ValidatedPath(self, "tape", "single", ("fast", "value_fast", "off"),
                             "interpreted")
        with self.telemetry.span("tape.compile", key="single") as span:
            tier, reason = "off", self._lower(path, self._neg_log_joint_tensor, shape, span)
            if reason is None:
                tier, reason = path.compare(path.program.value_and_grad, self._vg,
                                            self._probes(shape), span)
            span.set(tier=tier)
            path.decide(tier, reason)
        return path

    def _lower(self, path: ValidatedPath, fn: Callable, shape: Tuple[int, ...],
               span) -> Optional[str]:
        """Lower ``fn`` at the canonical probe into ``path.program``; the
        error when the graph does not lower."""
        try:
            path.program = compile_tape(fn, self._canonical_probe(shape),
                                        telemetry=self.telemetry)
        except Exception as exc:  # noqa: BLE001 - the graph does not lower
            span.set(compile_error=describe_error(exc))
            return describe_error(exc)
        return None

    def _compiled(self, run: Callable, z: np.ndarray):
        """``run(z)`` of a compiled program, counted in ``compiled_evals``."""
        out = run(z)
        self.metrics.inc("compiled_evals")
        return out

    def _canonical_probe(self, shape: Tuple[int, ...],
                         salt: int = 0) -> np.ndarray:
        """Deterministic generic point(s) for fast-path validation.

        Fixed jitter around the prior-init point: generic enough that a
        coincidental bitwise match is as unlikely as anywhere else on the
        trajectory, and identical across runs of the same potential.
        """
        rng = np.random.default_rng(1729 + salt)
        base = self.initial_unconstrained()
        if shape == base.shape:
            return base + 0.1 * rng.standard_normal(shape)
        if len(shape) == 2 and shape[1] == base.size:
            return base[None, :] + 0.1 * rng.standard_normal(shape)
        return 0.1 * rng.standard_normal(shape)  # unexpected layout

    def _probes(self, shape: Tuple[int, ...]):
        return (self._canonical_probe(shape, salt)
                for salt in range(VALIDATION_PROBES))

    def _compiled_value(self, z: np.ndarray):
        """Value via the single tape's forward program, or ``None`` to interpret.

        ``value_fast`` programs qualify (their values are bitwise).  Never
        classifies: that needs gradients, so the gradient path does it.
        """
        path = self._single
        if (path is None or path.program is None
                or path.tier not in ("fast", "value_fast")
                or not path.program.matches(z)):
            return None
        try:
            return self._compiled(path.program.value, z)
        except Exception as exc:  # noqa: BLE001
            path.demote(exc)
            return None

    def decisions(self) -> List[Dict[str, Any]]:
        """Every classification and demotion so far, oldest first.

        Records are ``{path, key, tier, oracle, reason}`` copies (see
        :mod:`repro.infer.validated`).
        """
        with self._validation_lock:
            return [dict(record) for record in self._decisions]

    def metrics_view(self) -> Dict[str, Any]:
        """Engine observability snapshot: resolved engine, tape tiers, counters.

        ``tape_modes`` maps each compiled program's label (``"single"``,
        ``"batched-<width>"``) to the tier it serves at (``"off"`` when it
        serves nothing); ``grad_evals``, ``value_evals``, ``compiled_evals``
        and ``tape_seconds`` read the :attr:`metrics` registry.
        """
        paths = {"single": self._single}
        if self.engine_config.engine == "compiled":
            paths.update((f"batched-{w}", path) for w, path in list(self._widths.items()))
        modes = {label: path.tier if path.program is not None else "off"
                 for label, path in paths.items() if path is not None}
        counters = self.metrics.counters()
        return {"engine": self.engine_config.engine, "tape_modes": modes,
                "grad_evals": int(counters.get("grad_evals", 0)),
                "value_evals": int(counters.get("value_evals", 0)),
                "compiled_evals": int(counters.get("compiled_evals", 0)),
                "tape_seconds": float(counters.get("tape_seconds", 0.0))}

    def eval_tier(self, num_chains: Optional[int] = None) -> str:
        """One-line evaluation-tier summary, e.g. ``compiled:fast vec:fast``.

        Reports the engine plus the single-evaluation tape tier, the batched
        tier of the width that serves ``num_chains`` rows (once a width is
        classified), and the enumeration strategy for enumerated potentials.
        Consumed by the live progress meter and the telemetry report.
        """
        parts = [self.engine_config.engine]
        single = self._single
        if single is not None:
            parts[0] = f"{self.engine_config.engine}:{single.tier}"
        if num_chains is not None and num_chains > 1:
            width = self._serving_width(num_chains)
            if width is not None:
                parts.append(f"vec:{self._batched_tiers[width]}")
        if self.enum_plan is not None:
            parts.append(f"enum:{self.enum_strategy}")
        return " ".join(parts)

    # ------------------------------------------------------------------
    # vectorized multi-chain fast path
    # ------------------------------------------------------------------
    def unpack_batched(self, z: Tensor) -> "OrderedDict[str, Tensor]":
        """Split a ``(C, dim)`` tensor into per-site batched unconstrained tensors.

        Scalar sites keep a trailing singleton axis (``(C, 1)``) so that
        per-chain scalars broadcast correctly against data vectors.
        """
        c = z.data.shape[0]
        out: "OrderedDict[str, Tensor]" = OrderedDict()
        for name, info in self.sites.items():
            segment = ops.getitem(z, (slice(None), slice(info.offset, info.offset + info.size)))
            if info.unconstrained_shape not in ((), (info.size,)):
                segment = ops.reshape(segment, (c,) + info.unconstrained_shape)
            out[name] = segment
        return out

    def constrain_batched(self, z: Tensor) -> Tuple["OrderedDict[str, Tensor]", Tensor]:
        """Batched :meth:`constrain`: per-site constrained values + per-chain log|J|."""
        c = z.data.shape[0]
        constrained: "OrderedDict[str, Tensor]" = OrderedDict()
        log_det = as_tensor(0.0)
        for name, segment in self.unpack_batched(z).items():
            info = self.sites[name]
            value = info.transform(segment)
            expected = (c,) + info.constrained_shape if info.constrained_shape else (c, 1)
            if value.data.shape != expected:
                value = ops.reshape(value, expected)
            value.is_batched = True
            constrained[name] = value
            log_det = ops.add(log_det, info.transform.batched_log_abs_det_jacobian(segment, value))
        return constrained, log_det

    @staticmethod
    def _tile_rows(value: Tensor, repeats: int) -> Tensor:
        """Repeat each leading-axis row ``repeats`` times consecutively.

        ``(C, *rest) -> (C * repeats, *rest)`` inside the graph (gradients
        sum back over the repeats), used to pair every chain row with every
        joint assignment of the enumeration table.
        """
        rest = value.data.shape[1:]
        c = value.data.shape[0]
        expanded = ops.reshape(value, (c, 1) + rest)
        expanded = ops.mul(expanded, np.ones((1, repeats) + (1,) * len(rest)))
        return ops.reshape(expanded, (c * repeats,) + rest)

    def _neg_log_joint_tensor_batched(self, z: Tensor) -> Tensor:
        c = z.data.shape[0]
        constrained, log_det = self.constrain_batched(z)
        if self.enum_plan is not None and self._marginal.tier == "contract":
            # Structured multi-chain tape: one execution over C * B gridded
            # rows, then each chain's rows contracted separately — the
            # single-chain arithmetic, so the per-chain subgraphs stay
            # disjoint until the shared leaves.
            b = self.factorization.batch_rows
            terms = self._run_gridded(constrained, chains=c)
            per_chain = ops.stack([
                self.factorization.contract(terms, offset=i * b, total_rows=c * b)
                for i in range(c)])
            return ops.neg(ops.add(per_chain, log_det))
        substitution = {**self.observed, **constrained}
        rows = c
        if self.enum_plan is not None:
            # The enumeration axis rides behind the chain axis: C * T rows,
            # chain-major, reduced per chain by a (C, T) logsumexp.
            t_size = self.enum_plan.table_size
            rows = c * t_size
            for name, value in constrained.items():
                substitution[name] = self._batched(self._tile_rows(value, t_size))
            for name, value in self.enum_plan.flat_values().items():
                substitution[name] = self._batched(
                    np.tile(value, (c,) + (1,) * (value.ndim - 1)))
        total = self._run_fast(substitution, rows).total()
        if total.data.shape != (rows,):
            raise RuntimeError(
                f"batched log joint has shape {total.data.shape}, expected ({rows},)")
        if self.enum_plan is not None:
            total = ops.logsumexp(ops.reshape(total, (c, t_size)), axis=1)
        return ops.neg(ops.add(total, log_det))

    def _batched_fast_interpreted(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        t = Tensor(z, requires_grad=True)
        with np.errstate(all="ignore"):
            out = self._neg_log_joint_tensor_batched(t)
            out.backward(np.ones(z.shape[0]))
        grad = t.grad if t.grad is not None else np.zeros_like(z)
        return np.asarray(out.data, dtype=float), np.asarray(grad, dtype=float)

    def _potential_and_grad_batched_loop(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        values = np.empty(z.shape[0])
        grads = np.empty_like(z)
        for i in range(z.shape[0]):
            values[i], grads[i] = self._single_vg(z[i])
        return values, grads

    def potential_and_grad_batched(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Potential energies ``(C,)`` and gradients ``(C, dim)`` for a batch ``z``.

        The first batched call classifies its row count as the potential's
        width (a ``batched`` path of :mod:`repro.infer.validated`).  Every
        later batch, of any size, is served at a classified width (see
        :meth:`_serving_width`); a single row takes the single tape.
        """
        z = np.asarray(z, dtype=float)
        if z.ndim != 2:
            raise ValueError(f"expected a (num_chains, dim) batch, got shape {z.shape}")
        c = z.shape[0]
        self._ensure_enum_strategy()
        self.metrics.inc("grad_evals", c)
        start = time.perf_counter()
        try:
            return self._potential_and_grad_batched_impl(z, c)
        finally:
            self.metrics.inc("tape_seconds", time.perf_counter() - start)

    def _potential_and_grad_batched_impl(self, z: np.ndarray, c: int
                                         ) -> Tuple[np.ndarray, np.ndarray]:
        if c <= 1:
            # A single row gains nothing from the batched tape (and vectorized
            # NUTS runs shrink to one straggler chain at the end of every run)
            # — the sequential evaluation is the cheaper identical computation.
            return self._potential_and_grad_batched_loop(z)
        width = self._serving_width(c)
        if width is None:
            with self._validation_lock:
                if self._serving_width(c) is None:
                    self._classify_width(c, z.shape[1])
            return self._potential_and_grad_batched_impl(z, c)
        serve = (self._width_vg(width, z.shape[1])
                 if self._batched_tiers[width] == "fast" else None)
        if serve is not None:
            try:
                return self._in_blocks(serve, z, width)
            except Exception as exc:  # noqa: BLE001
                # A state-dependent branch may only trigger away from the
                # probes (e.g. a latent crossing a control-flow boundary).
                self._width_path(width).demote(exc)
        return self._potential_and_grad_batched_loop(z)

    def _serving_width(self, c: int) -> Optional[int]:
        """The classified width that serves a ``c``-row batch.

        The smallest width ``>= c`` (the batch is padded up to it), else the
        largest width (the batch is split into blocks of it); ``None`` until
        the first classification.  Rows never interact in the batched graph
        — plain models broadcast, and the enumerated C×B graph contracts
        each chain separately — so padding reuses exactly the evidence that
        lets a width serve batches of its own row count.
        """
        fits = [w for w in self._batched_tiers if w >= c]
        return min(fits) if fits else max(self._batched_tiers, default=None)

    def _in_blocks(self, fn: Callable, z: np.ndarray, width: int
                   ) -> Tuple[np.ndarray, ...]:
        """``fn`` over ``z`` in ``width``-row blocks, cut back to ``z``'s rows.

        ``fn`` maps a ``(width, dim)`` block to a tuple of arrays whose
        leading axis is the row axis.  The last block is padded with copies
        of its last real row, so every call runs at the validated shape and
        padding never feeds the program a point the batch did not contain.
        """
        parts = []
        for start in range(0, z.shape[0], width):
            block = z[start:start + width]
            rows = block.shape[0]
            if rows < width:
                block = np.concatenate(
                    [block, np.repeat(block[-1:], width - rows, axis=0)])
                self.metrics.inc("batched.padded_rows", width - rows)
            parts.append(tuple(out[:rows] for out in fn(block)))
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(column) for column in zip(*parts))

    def _width_path(self, width: int) -> "_WidthPath":
        """This potential's path for ``width`` (one made here records a
        demotion of a width it never checked)."""
        return self._widths.setdefault(width, _WidthPath(self, width, "loop"))

    def _classify_width(self, width: int, dim: int) -> None:
        """Classify ``width`` against the per-row loop.

        The candidate is the compiled batched program under the compiled
        engine (the interpreted batched tape when the graph does not lower);
        it then serves the width directly, with the loop as its only oracle.
        """
        path, shape = _WidthPath(self, width, "loop"), (width, dim)
        with self.telemetry.span("batched.validate", num_chains=width, dim=dim) as span:
            candidate = self._batched_fast_interpreted
            if self.engine_config.engine == "compiled":
                with self.telemetry.span("tape.compile", key=f"batched-{width}") as lowering:
                    if self._lower(path, self._neg_log_joint_tensor_batched,
                                   shape, lowering) is None:
                        candidate = path.program.value_and_grad
            tier, reason = path.compare(candidate, self._potential_and_grad_batched_loop,
                                        self._probes(shape), span)
            if tier == "fast" and self.enum_plan is not None:
                tier, reason = "value_fast", reason + "; enumerated widths cap at value_fast"
            path.decide(tier, reason)
        self._widths[width] = path

    def _check_inherited(self, width: int, dim: int) -> "_WidthPath":
        """Check the compiled program of a ``fast`` width this potential did
        not classify against the interpreted batched tape.

        The program serves gradients bitwise or not at all: one that does
        not lower or misses demotes the width for every sharer.
        """
        path, shape = _WidthPath(self, width, "interpreted"), (width, dim)
        with self.telemetry.span("tape.compile", key=f"batched-{width}") as span:
            tier, reason = "loop", self._lower(
                path, self._neg_log_joint_tensor_batched, shape, span)
            if reason is None:
                tier, reason = path.compare(path.program.value_and_grad,
                                            self._batched_fast_interpreted,
                                            self._probes(shape), span)
            path.decide("fast" if tier == "fast" else "loop", reason)
        return path

    def _width_vg(self, width: int, dim: int) -> Optional[Callable]:
        """What serves gradients at the ``fast`` width ``width``: its compiled
        program, else the interpreted batched tape; ``None`` once this
        potential's path no longer serves gradients."""
        if self.engine_config.engine != "compiled":
            return self._batched_fast_interpreted
        with self._validation_lock:
            if width not in self._widths:
                self._widths[width] = self._check_inherited(width, dim)
            path = self._widths[width]
        if path.tier != "fast":
            return None
        if path.program is None:
            return self._batched_fast_interpreted
        return partial(self._compiled, path.program.value_and_grad)

    def share_batched_classification(self, store: Dict[int, str]) -> None:
        """Adopt ``store`` as this potential's batched-tier table.

        The fast/loop classification is *structural*: it depends on how the
        model's graph vectorizes over the chain axis, not on the observed
        values — so potentials over same-shaped data for the same model can
        share one table instead of each paying the row-loop comparison on
        first batched use (the serving layer's cold-dataset k-hat tax).  The
        store's widths serve every batch size of every sharer, so a
        potential that adopts a non-empty store never classifies a width:
        an inherited width's compiled program is checked against the
        interpreted batched tape on first gradient use, and a program that
        misses demotes the width for every sharer.  Tiers this potential
        already established are merged in; where the store holds a better
        tier, this potential's verdict demotes it (a recorded decision).
        Later classifications and demotions write straight into the shared
        dict; only a demotion overwrites a tier there.
        """
        with self._validation_lock:
            own, self._batched_tiers = self._batched_tiers, store
            for width, tier in own.items():
                held = store.setdefault(width, tier)
                if _WIDTH_TIERS.index(tier) > _WIDTH_TIERS.index(held):
                    self._width_path(width).decide(
                        tier, f"this potential's verdict; the shared store held {held!r}")

    def potential_batched(self, z: np.ndarray) -> np.ndarray:
        """Batched potential *values* only, shape ``(C,)`` — no gradients.

        The diagnostics path (PSIS reweighting of guide draws) needs large
        batches of densities but never their gradients; skipping the reverse
        pass roughly halves the cost.  Served like
        :meth:`potential_and_grad_batched`, at a classified width in padded
        blocks; it classifies (through that method, at this batch's row
        count) only when no width exists yet.
        """
        z = np.asarray(z, dtype=float)
        if z.ndim != 2:
            raise ValueError(f"expected a (num_chains, dim) batch, got shape {z.shape}")
        c = z.shape[0]
        self._ensure_enum_strategy()
        width = self._serving_width(c)
        if width is None:
            return self.potential_and_grad_batched(z)[0]
        self.metrics.inc("value_evals", c)
        start = time.perf_counter()
        try:
            return self._potential_batched_impl(z, width)
        finally:
            self.metrics.inc("tape_seconds", time.perf_counter() - start)

    def _potential_batched_impl(self, z: np.ndarray, width: int) -> np.ndarray:
        if z.shape[0] > 1 and self._batched_tiers[width] in ("fast", "value_fast"):
            try:
                return self._in_blocks(self._width_values, z, width)[0]
            except Exception as exc:  # noqa: BLE001
                self._width_path(width).demote(exc)
        with no_grad():
            return np.array([float(self._values(zi)) for zi in z])

    def _width_values(self, block: np.ndarray) -> Tuple[np.ndarray]:
        """``(values,)`` of a width-row block: the width's program when this
        potential classified or checked it, else the interpreted batched
        tape."""
        path = self._widths.get(block.shape[0])
        if path is not None and path.program is not None:
            return (self._compiled(path.program.value, block),)
        return (self._interpreted_values(self._neg_log_joint_tensor_batched, block),)

    def _values(self, z: np.ndarray) -> np.ndarray:
        """Value at one row: the single tape's program when it serves values,
        else the interpreted tape."""
        out = self._compiled_value(z)
        if out is not None:
            return np.asarray(out, dtype=float)
        return self._interpreted_values(self._neg_log_joint_tensor, z)

    @staticmethod
    def _interpreted_values(fn: Callable, z: np.ndarray) -> np.ndarray:
        # Recorded like the validated gradient tape, not under no_grad: the
        # runtime recognizes derived per-chain tensors by their graph
        # provenance, which no_grad erases.
        with np.errstate(all="ignore"):
            return np.asarray(fn(Tensor(z, requires_grad=True)).data, dtype=float)

    def _constrained_rows(self, z: np.ndarray) -> Dict[str, np.ndarray]:
        """Per-row :meth:`constrained_dict` of a batch, stacked per site."""
        rows = [self.constrained_dict(zi) for zi in z]
        return {name: np.array([row[name] for row in rows]) for name in self.sites}

    def _constrained_batched(self, z: np.ndarray) -> Dict[str, np.ndarray]:
        with no_grad():
            constrained, _ = self.constrain_batched(as_tensor(z))
        return {name: np.asarray(value.data).reshape(
                    (z.shape[0],) + self.sites[name].constrained_shape)
                for name, value in constrained.items()}

    def constrained_dict_batched(self, z: np.ndarray) -> Dict[str, np.ndarray]:
        """Constrained NumPy values for a ``(C, dim)`` batch (no grad).

        Returns arrays of shape ``(C, *constrained_shape)`` per site, from
        one batched constrain once it agrees with per-row
        :meth:`constrained_dict` at the canonical probe; a row loop
        otherwise.
        """
        z = np.asarray(z, dtype=float)
        if z.ndim != 2:
            raise ValueError(f"expected a (num_chains, dim) batch, got shape {z.shape}")
        path = self._constrain
        if path.tier is None:
            with self._validation_lock:
                if path.tier is None:
                    def flat(constrain, probe):
                        out = constrain(probe)
                        return (np.concatenate([np.ravel(out[name])
                                                for name in self.sites]),)

                    path.decide(*path.compare(
                        partial(flat, self._constrained_batched),
                        partial(flat, self._constrained_rows),
                        [self._canonical_probe(z.shape)]))
        if path.tier == "batched":
            try:
                return self._constrained_batched(z)
            except Exception as exc:  # noqa: BLE001
                path.demote(exc)
        return self._constrained_rows(z)


#: a batched width's tiers, best first.
_WIDTH_TIERS = ("fast", "value_fast", "loop")


class _WidthPath(ValidatedPath):
    """A batched width's path.  Its tier lives only in the owner's (possibly
    shared) store ``_batched_tiers``."""

    def __init__(self, owner: Potential, width: int, oracle: str) -> None:
        super().__init__(owner, "batched", width, _WIDTH_TIERS, oracle)

    @property
    def tier(self) -> Optional[str]:
        return self.owner._batched_tiers.get(self.key)

    @tier.setter
    def tier(self, tier: str) -> None:
        # The store keeps the worse of its tier and this one: a sharer's
        # passing check cannot undo another sharer's demotion.  The
        # read-modify-write holds only this potential's lock; sharers never
        # evaluate concurrently (model evaluation is not thread-safe, and the
        # serving layer serialises it under ``repro.serve.EVAL_LOCK``).
        store = self.owner._batched_tiers
        store[self.key] = max(store.get(self.key, tier), tier, key=_WIDTH_TIERS.index)


def make_potential(model: Callable, *model_args, observed: Optional[Dict[str, Any]] = None,
                   rng_seed: int = 0, fast: bool = False,
                   engine: Union[None, str, EngineConfig] = None,
                   obs: Any = None,
                   enum: Union[None, str, EnumConfig] = None,
                   **model_kwargs) -> Potential:
    """Convenience constructor used throughout the benchmarks and examples."""
    return Potential(model, model_args, model_kwargs, observed=observed, rng_seed=rng_seed,
                     fast=fast, engine=engine, obs=obs, enum=enum)
