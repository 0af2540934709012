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

Both the HMC/NUTS kernels and ADVI consume this object.

Vectorized multi-chain fast path
--------------------------------

:meth:`Potential.potential_and_grad_batched` evaluates the potential and its
gradient for a whole ``(num_chains, dim)`` matrix of unconstrained states in
*one* tape.  The model is executed once with every latent site carrying a
leading chain axis (scalar sites are shaped ``(C, 1)`` so they broadcast
against data vectors), the per-site log-probability terms are reduced over
their trailing axes only, and a single reverse pass seeded with ones yields
the per-chain gradients — chains never interact, so the rows of ``dU/dZ`` are
exactly the per-chain gradients.

Because the model is arbitrary Python, batching is *optimistic*: the first
batched call validates the vectorized evaluation at its row count (the
potential's one classified *width*) against the per-row sequential oracle; if
the model does something that does not broadcast along the chain axis (axis-0
indexing of locals, data-dependent branching on latents, matrix ops that
contract the wrong axis, ...) the potential silently falls back to an
API-compatible row loop, keeping semantics identical.  Every later batch is
served at a classified width — padded with copies of its last row, or split
into width-sized blocks — so no batched program ever runs at a shape it was
not validated at, and straggler chains or large diagnostic batches never pay
a second validation.

Discrete-latent enumeration
---------------------------

With ``enum="auto"`` (or ``"parallel"``) a model may contain *discrete*
latent sites with finite support (bounded ``int`` parameters).  The
potential then evaluates the **exact marginal** density, so HMC/NUTS/VI see
a purely continuous, differentiable potential over the remaining
parameters.  Three evaluation strategies exist, following the same
optimistic pattern as chain batching:

* ``"contract"`` — tensor variable elimination (:mod:`repro.enum.contract`):
  a one-time element-level dependency analysis over the autodiff graph
  (:mod:`repro.enum.factorize`) yields the discrete factor graph; each
  site's isolated elements reduce as one ``O(N * K)`` logsumexp block and
  the coupled rest is eliminated in a greedy order (a chain in
  ``O(T * K^2)``, the forward algorithm) — no joint table is ever built, so
  sizes like ``2^500`` assignments evaluate in milliseconds.
  Cross-validated against the joint oracle at small table sizes (tolerance
  tier — the two strategies sum in different orders) with permanent
  demotion on mismatch; structures no elimination handles fall back to the
  joint table.
* ``"parallel"`` — one vectorized execution per density evaluation: the
  flattened joint table rides the batched-evaluation machinery (table rows
  behave exactly like chains), per-assignment log joints come back as a
  ``(T,)`` vector, and ``logsumexp`` produces the marginal.  Validated
  bitwise on first use against the rows oracle.
* ``"rows"`` — the always-correct oracle: one model execution per joint
  assignment (concrete integer values substituted), stacked and
  ``logsumexp``-ed in the same tape.  Models that do not vectorize across
  the table (per-assignment control flow, axis-mixing ops) silently land
  here; slower, identical semantics.

Under the multi-chain fast path the enumeration structure rides *behind*
the chain axis: the joint-table tape evaluates ``(C * T, dim)`` rows
(chain-major) reduced by a ``(C, T)`` logsumexp; the contraction tape
evaluates ``C * B`` gridded rows and contracts each chain's slice
separately.  Acceptance of either tape follows the tolerance-tiered
validation contract defined below.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.autodiff import ops
from repro.autodiff.compile import compile_tape
from repro.autodiff.functional import value_and_grad
from repro.autodiff.tensor import Tensor, as_tensor, no_grad
from repro.deprecation import warn_once
from repro.engine import EngineConfig, EnumConfig
from repro.obs import MetricsRegistry, as_telemetry
from repro.ppl import handlers
from repro.ppl.distributions.base import param_value
from repro.ppl.transforms import Transform, biject_to


class DiscreteLatentError(RuntimeError):
    """Raised when a model has a discrete latent site on the non-enumerated path."""


# ----------------------------------------------------------------------
# The tolerance-tiered validation contract
# ----------------------------------------------------------------------
# Every optimistic evaluation strategy is validated against its oracle on
# first use, in two tiers:
#
# * **decision tier — bitwise.**  Potential *values* feed threshold decisions
#   inside the samplers (accept, slice, U-turn), so any strategy whose values
#   differ from the oracle's at all is rejected: a sub-tolerance discrepancy
#   could flip a knife-edge decision and break the identical-draws contract
#   between chain methods.
# * **gradient tier — documented tolerance.**  Gradients reach the sampler
#   only through leapfrog positions; two algebraically identical tapes may
#   reorder floating point (gemm vs gemv, SIMD lanes vs scalar tails) and
#   diverge at the last few ulps.  A batched tape whose values are bitwise
#   but whose gradients agree only within (GRAD_VALIDATION_RTOL,
#   GRAD_VALIDATION_ATOL) is recorded as ``"value_fast"``: *value-only*
#   consumers (``potential_batched`` — the VI/PSIS diagnostics path) keep the
#   batched tape, while ``potential_and_grad_batched`` falls back to the
#   per-row loop so trajectories (and therefore draws) remain bitwise
#   identical between chain methods.  This recovers the multi-chain C×T
#   enumerated tape that a purely bitwise contract had to demote outright.
#
# Cross-*strategy* validation (contraction vs joint table) cannot
# be bitwise by construction — the two sum the same terms in different orders
# — so it uses the value tolerance tier below; within the chosen strategy,
# every evaluation path is still held to the bitwise decision tier.
GRAD_VALIDATION_RTOL = 1e-9
GRAD_VALIDATION_ATOL = 1e-12
#: contraction-vs-joint marginal agreement (different logsumexp orders).
ENUM_VALUE_RTOL = 1e-10
ENUM_VALUE_ATOL = 1e-8
#: largest joint table the contract strategy is cross-validated against;
#: beyond it the oracle itself is intractable and the (exact, graph-walk
#: based) dependency analysis is trusted.
ENUM_VALIDATION_TABLE_CAP = 4096


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
                 fast: bool = False, enumerate: Optional[str] = None,
                 max_table_size: Optional[int] = None,
                 engine: Union[None, str, "EngineConfig"] = None,
                 obs: Any = None,
                 enum: Union[None, str, "EnumConfig"] = None):
        #: the resolved evaluation-engine configuration.  ``engine`` accepts
        #: an engine name or a full :class:`~repro.engine.EngineConfig`; the
        #: legacy ``enumerate=`` / ``max_table_size=`` keywords override the
        #: corresponding config fields when given (``EngineConfig`` rejects
        #: unknown spellings), and ``enum=`` (a strategy name or
        #: :class:`~repro.engine.EnumConfig`) overrides everything.
        self.engine_config = EngineConfig.coerce(
            engine, enumerate=enumerate, max_enum_table_size=max_table_size)
        if enumerate is not None:
            warn_once(
                "potential-enumerate-kwarg",
                'Potential(enumerate=...) is deprecated; pass enum="auto" / '
                "enum=EnumConfig(...) (or an EngineConfig with enum=) instead.")
        if max_table_size is not None:
            warn_once(
                "potential-max-table-size-kwarg",
                "Potential(max_table_size=...) is deprecated; pass "
                "enum=EnumConfig(max_table_size=...) instead.")
        if enum is not None:
            self.engine_config = self.engine_config.replace(
                enum=EnumConfig.coerce(enum))
        #: the resolved discrete-marginalization configuration (the legacy
        #: ``enumerate`` spellings map onto it; see EngineConfig.resolved_enum).
        self.enum_config = self.engine_config.resolved_enum()
        self.model = model
        self.model_args = tuple(model_args)
        self.model_kwargs = dict(model_kwargs or {})
        self.observed = dict(observed or {})
        self.rng_seed = rng_seed
        # ``fast=True`` evaluates the log joint through the NumPyro-style
        # direct-accumulation context instead of the effect-handler stack.
        self.fast = fast
        # Legacy mirrors (external readers): ``enumerate`` reports the
        # resolved strategy name (``None`` for "off"), ``max_table_size``
        # the resolved cap.
        self.enumerate = (None if self.enum_config.strategy == "off"
                          else self.enum_config.strategy)
        self.max_table_size = self.enum_config.max_table_size
        #: joint assignment table over the discrete latent sites
        #: (``None`` unless enumeration is enabled and found any).
        self.enum_plan = None
        # Joint-table evaluation strategy: "parallel" once validated against
        # the per-assignment rows oracle, "rows" if the model does not
        # vectorize across the table; ``None`` until the first evaluation.
        self._enum_mode: Optional[str] = None
        # Marginalization strategy: "contract" (tensor variable elimination)
        # or "joint" (assignment table); ``None`` until resolved on first use.
        self._marginal_mode: Optional[str] = None
        #: the contraction layout (a :class:`~repro.enum.ContractionPlan`, set
        #: when the dependency analysis succeeds and the strategy validates).
        self.factorization = None
        #: why the contract strategy does / does not apply (human-readable;
        #: threaded into TableSizeError so the failure is actionable).
        self.factorization_note: Optional[str] = None
        #: telemetry session (the shared null sink unless ``obs=`` was
        #: given) and the unified engine metrics registry — the successor
        #: of the ad-hoc ``eval_counters`` dict.
        self.telemetry = as_telemetry(obs)
        self.metrics = self.telemetry.attach_registry("potential", MetricsRegistry())
        self.sites: "OrderedDict[str, SiteInfo]" = OrderedDict()
        self._initial_values: Dict[str, np.ndarray] = {}
        with self.telemetry.span("potential.discover") as span:
            self._discover_sites()
            span.set(sites=len(self.sites),
                     enumerated=self.enum_plan is not None)
        self._vg = value_and_grad(self._neg_log_joint_tensor)
        # Batched-evaluation mode per classified width (row count): "fast"
        # once validated against the sequential oracle, "loop" if the model
        # does not batch.  Every batch size is served from these widths.
        self._batched_mode: Dict[int, str] = {}
        self._constrain_batched_ok: Optional[bool] = None
        # Compiled-tape states, keyed ("single",) / ("batched", width): each is
        # {"tape": CompiledTape|None, "mode": None|"fast"|"value_fast"|"off"}
        # relative to its interpreted oracle.  Cleared whenever the graph
        # structure changes (enumeration-strategy demotion).
        self._tapes: Dict[Tuple, Dict[str, Any]] = {}
        # Guards every first-call validate-and-cache decision (batched tier,
        # tape tier, enum strategy, observed-sites probe, constrain check).
        # Each is a multi-step read-validate-write; two threads arriving at
        # an unvalidated potential would otherwise double-validate or
        # interleave a demotion with a promotion.  Reentrant because the
        # validations call back into evaluation paths that re-check state.
        self._validation_lock = threading.RLock()

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
                        "marginalized exactly instead — recompile with "
                        'enum="auto" (compile_model(source, enum="auto"); '
                        "tensor variable elimination — O(N*K) for independent "
                        "elements, O(T*K^2) for chains — with joint-table "
                        'fallback) or enum="parallel" (the joint-table '
                        "engine), or build the Potential with either.")
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
                discrete, max_table_size=self.max_table_size,
                defer_size_check=(self.enum_config.strategy
                                  in ("contract", "auto")))
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
            from repro.ppl.primitives import FastLogDensityContext

            substitution = dict(self.observed)
            substitution.update(constrained)
            for name, value in plan.flat_values().items():
                tensor = as_tensor(value)
                tensor.is_batched = True
                substitution[name] = tensor
            ctx = FastLogDensityContext(substitution=substitution,
                                        rng=np.random.default_rng(self.rng_seed),
                                        batch_size=t_size)
            with ctx:
                self.model(*self.model_args, **self.model_kwargs)
            total = ctx.total()
        else:
            from repro.enum import enum_log_density

            # The flat layout: generated code indexes sites elementwise
            # (``z[n]``), which the ``is_batched`` marking routes around the
            # table axis; the per-site "axes" layout is for hand-written
            # broadcast-style models.
            total, _ = enum_log_density(
                self.model, plan, model_args=self.model_args,
                model_kwargs=self.model_kwargs, substituted=dict(constrained),
                observed=self.observed, rng_seed=self.rng_seed, layout="flat")
        if total.data.shape != (t_size,):
            raise RuntimeError(
                f"enumerated log joint has shape {total.data.shape}, expected ({t_size},)")
        return total

    def _enum_log_joint_rows(self, constrained: "OrderedDict[str, Tensor]") -> Tensor:
        """Per-assignment log joints via the always-correct assignment loop."""
        plan = self.enum_plan
        terms = []
        for t in range(plan.table_size):
            substitution = dict(self.observed)
            substitution.update(constrained)
            substitution.update({name: as_tensor(value)
                                 for name, value in plan.decode(t).items()})
            if self.fast:
                from repro.ppl.primitives import FastLogDensityContext

                ctx = FastLogDensityContext(substitution=substitution,
                                            rng=np.random.default_rng(self.rng_seed))
                with ctx:
                    self.model(*self.model_args, **self.model_kwargs)
                terms.append(ctx.total())
            else:
                tracer = handlers.trace()
                with handlers.seed(rng_seed=self.rng_seed), \
                     handlers.condition(data=self.observed), \
                     handlers.substitute(data=substitution), tracer:
                    self.model(*self.model_args, **self.model_kwargs)
                terms.append(handlers.trace_log_density(tracer.trace))
        return ops.stack(terms)

    def _enum_log_joint(self, constrained: "OrderedDict[str, Tensor]") -> Tensor:
        """Per-assignment log joints, picking the validated strategy.

        The first evaluation validates the vectorized table execution
        bitwise against the per-assignment rows oracle (the same optimistic
        pattern the chain batching uses); models that do not vectorize
        across the table keep the rows strategy for good.
        """
        mode = self._enum_mode
        if mode == "rows":
            return self._enum_log_joint_rows(constrained)
        if mode == "parallel":
            try:
                return self._enum_log_joint_parallel(constrained)
            except Exception:
                # Assignment-dependent control flow may only trigger away
                # from the validation point; demote permanently.
                self._enum_mode = "rows"
                return self._enum_log_joint_rows(constrained)
        rows = self._enum_log_joint_rows(constrained)
        try:
            parallel = self._enum_log_joint_parallel(constrained)
            ok = np.array_equal(parallel.data, rows.data, equal_nan=True)
        except Exception:
            ok = False
        self._enum_mode = "parallel" if ok else "rows"
        return parallel if ok else rows

    # ------------------------------------------------------------------
    # structured (tensor-variable-elimination) marginalization
    # ------------------------------------------------------------------
    def _run_gridded(self, constrained: "OrderedDict[str, Tensor]"):
        """One gridded model execution; returns the collected, checked terms."""
        from repro.enum.factorize import reset_generated_site_names
        from repro.ppl.primitives import FastLogDensityContext

        fplan = self.factorization
        substitution: Dict[str, Any] = dict(self.observed)
        substitution.update(constrained)
        for name, grid in fplan.grids().items():
            tensor = as_tensor(grid)
            tensor.is_batched = True
            substitution[name] = tensor
        reset_generated_site_names()
        ctx = FastLogDensityContext(substitution=substitution,
                                    rng=np.random.default_rng(self.rng_seed),
                                    batch_size=fplan.batch_rows,
                                    collect_names=True)
        with ctx:
            self.model(*self.model_args, **self.model_kwargs)
        fplan.check_terms(ctx.term_names)
        return ctx.log_prob_terms

    def _enum_contract_marginal(self, constrained: "OrderedDict[str, Tensor]") -> Tensor:
        """Exact marginal log joint via the tensor contraction."""
        return self.factorization.contract(self._run_gridded(constrained))

    def _attempted_strategy(self) -> Optional[str]:
        """The structured strategy this potential attempted (or would attempt).

        ``None`` when no structured elimination applies (``"parallel"`` /
        ``"off"``); used to thread an honest strategy name into
        :meth:`~repro.enum.EnumerationPlan.ensure_table_capacity` fallback
        diagnostics.
        """
        if self._marginal_mode == "contract":
            return self._marginal_mode
        strategy = self.enum_config.strategy
        return strategy if strategy in ("contract", "auto") else None

    def _demote_structured(self, reason: str) -> None:
        """Permanently fall back from a structured strategy to the joint table.

        Mirrors the established optimistic-validation pattern: a structure
        violation may only trigger away from the analysis point, so demotion
        is one-way.  Raises :class:`~repro.enum.TableSizeError` (with the
        elimination context) if the joint table does not fit the cap.
        """
        attempted = self._attempted_strategy() or "contract"
        note = (f"elimination planning (strategy {attempted!r}) was attempted "
                f"and bailed: {reason}")
        self.factorization_note = note
        self.factorization = None
        self._marginal_mode = "joint"
        # Any compiled program recorded the old (structured) graph structure.
        self._tapes.clear()
        # Record the demotion before the capacity check below, which may
        # raise TableSizeError when the joint table does not fit either.
        self.telemetry.event("enum.demote", reason=str(reason))
        self.metrics.set_info("enum.strategy", "joint")
        self.enum_plan.ensure_table_capacity(note, strategy=attempted)

    def _resolve_factorization(self, constrained: "OrderedDict[str, Tensor]") -> None:
        """Pick the marginalization strategy once.

        Resolution order of ``strategy="auto"`` (and ``"contract"``): tensor
        variable elimination -> joint table -> error (TableSizeError when
        nothing fits); ``"parallel"`` goes straight to the joint table.
        Value-tier validation against the joint oracle happens in
        :meth:`_ensure_enum_strategy` (which has the unconstrained vector and
        can compare full gradients).
        """
        from repro.enum import FactorizationError, analyze_contraction

        if self._marginal_mode is not None:
            return
        if self.enum_config.strategy not in ("contract", "auto"):
            self._marginal_mode = "joint"
            return
        if not self.fast:
            self.factorization_note = (
                "tensor variable elimination requires the vectorized (numpyro) "
                "runtime; this potential uses the trace-based handler stack")
            self._marginal_mode = "joint"
            self.enum_plan.ensure_table_capacity(self.factorization_note)
            return
        if all(not site.event_shape for site in self.enum_plan.sites) \
                and self.enum_plan.table_size <= self.enum_plan.max_table_size:
            # Scalar sites only *and* the table fits: keep the joint
            # arithmetic so draws stay bitwise identical to the joint-table
            # engine.  Many scalar sites can still blow the cap (2^17
            # Bernoullis) — those fall through to the contraction, which
            # eliminates each scalar site in O(K); there is no joint-table
            # run to stay bitwise with in that regime.
            self.factorization_note = (
                "all discrete sites are scalar; the joint table is already "
                "small and keeps bitwise-stable draws")
            self._marginal_mode = "joint"
            return
        try:
            self.factorization = analyze_contraction(
                self.model, self.enum_plan, model_args=self.model_args,
                model_kwargs=self.model_kwargs, observed=self.observed,
                constrained=dict(constrained), rng_seed=self.rng_seed,
                max_table_size=self.enum_plan.max_table_size,
                telemetry=self.telemetry)
        except FactorizationError as exc:
            self._demote_structured(exc)
            return
        self._marginal_mode = self.factorization.strategy
        self.factorization_note = self.factorization.describe()
        self.metrics.set_info("enum.strategy", self._marginal_mode)

    def _enum_marginal(self, constrained: "OrderedDict[str, Tensor]") -> Tensor:
        """Marginal log joint over the discrete latents (scalar tensor)."""
        if self._marginal_mode is None:
            # Every public evaluation entry point resolves the strategy —
            # both validation tiers — via _ensure_enum_strategy before the
            # tape runs; reaching this point means an internal caller went
            # straight to the tensor function.  Resolve the structure and
            # proceed; the oracle cross-validation lives in one place only
            # (_ensure_enum_strategy), not here.
            self._resolve_factorization(constrained)
        if self._marginal_mode == "contract":
            try:
                return self._enum_contract_marginal(constrained)
            except Exception as exc:  # noqa: BLE001
                # Structure violations (assignment-dependent control flow)
                # may only trigger away from the analysis point.
                self._demote_structured(exc)
        return ops.logsumexp(self._enum_log_joint(constrained))

    def _ensure_enum_strategy(self, z: np.ndarray) -> None:
        """Resolve the marginalization strategy, gradient tier included.

        Public evaluation entry points call this before their first real
        evaluation so the contract strategy is validated against the joint
        oracle on *both* tiers of the validation contract: marginal values
        within (ENUM_VALUE_RTOL, ENUM_VALUE_ATOL) and gradients within
        (GRAD_VALIDATION_RTOL, GRAD_VALIDATION_ATOL).
        """
        if self.enum_plan is None or self._marginal_mode is not None:
            return
        with self._validation_lock:
            if self._marginal_mode is not None:
                return
            self._ensure_enum_strategy_locked(z)

    def _ensure_enum_strategy_locked(self, z: np.ndarray) -> None:
        z = np.asarray(z, dtype=float).reshape(-1)
        with np.errstate(all="ignore"):
            constrained, _ = self.constrain(as_tensor(z))
            self._resolve_factorization(constrained)
            trial = self._marginal_mode
            if trial != "contract":
                return
            if not self.enum_config.validate:
                self.factorization_note += (
                    "; oracle cross-validation disabled by "
                    "EnumConfig(validate=False)")
                return
            cap = min(self.enum_plan.max_table_size,
                      self.enum_config.validation_table_cap)
            if self.enum_plan.table_size > cap:
                self.factorization_note += (
                    "; joint table too large for oracle cross-validation — "
                    "trusting the exact graph-walk dependency analysis")
                return
            try:
                value_f, grad_f = self._vg(z)
            except Exception as exc:  # noqa: BLE001
                self._demote_structured(exc)
                return
            if self._marginal_mode != trial:
                # the structured trial demoted itself (structure violation
                # surfaced during evaluation); the note already explains why
                return
            self._marginal_mode = "joint"
            try:
                value_j, grad_j = self._vg(z)
            except Exception as exc:  # noqa: BLE001
                self._demote_structured(exc)
                return
            value_ok = bool(np.isclose(value_f, value_j,
                                       rtol=self.enum_config.value_rtol,
                                       atol=self.enum_config.value_atol,
                                       equal_nan=True))
            grad_ok = bool(np.allclose(grad_f, grad_j,
                                       rtol=GRAD_VALIDATION_RTOL,
                                       atol=GRAD_VALIDATION_ATOL, equal_nan=True))
            if value_ok and grad_ok and self.factorization is not None:
                self._marginal_mode = trial
            else:
                self._marginal_mode = trial  # demote from the trial's context
                self._demote_structured(
                    "validation against the joint oracle failed "
                    f"(values within tolerance: {value_ok}, gradients within "
                    f"tolerance: {grad_ok})")

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
        if self._marginal_mode == "contract":
            return self._marginal_mode
        if self._marginal_mode is None and \
                self.enum_config.strategy in ("contract", "auto"):
            return self.enum_config.strategy
        return self._enum_mode or "parallel"

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
        self.enum_plan.ensure_table_capacity(self.factorization_note,
                                             strategy=self._attempted_strategy())
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
        self._ensure_enum_strategy(np.asarray(z, dtype=float))
        if self._marginal_mode != "contract":
            return None
        with np.errstate(all="ignore"), no_grad():
            constrained, _ = self.constrain(as_tensor(np.asarray(z, dtype=float)))
            terms = self._run_gridded(constrained)
            return self.factorization.posterior_factors(terms)

    def enum_metadata(self) -> Optional[Dict[str, Any]]:
        """Resolved-enumeration record for fit metadata and BENCH_*.json.

        ``None`` for non-enumerated potentials; otherwise the requested and
        *resolved* strategy, the planner cost estimate (total contraction
        table entries for structured strategies, the joint table size for the
        joint fallback), and the human-readable resolution note.
        """
        if self.enum_plan is None:
            return None
        meta: Dict[str, Any] = {
            "requested": self.enum_config.strategy,
            "strategy": self.enum_strategy,
            "note": self.factorization_note,
        }
        if self.factorization is not None:
            meta["cost_estimate"] = int(self.factorization.cost_estimate())
        else:
            meta["cost_estimate"] = int(self.enum_plan.table_size)
        return meta

    # ------------------------------------------------------------------
    # density evaluation
    # ------------------------------------------------------------------
    def _neg_log_joint_tensor(self, z: Tensor) -> Tensor:
        constrained, log_det = self.constrain(z)
        if self.enum_plan is not None:
            return ops.neg(ops.add(self._enum_marginal(constrained), log_det))
        if self.fast:
            from repro.ppl.primitives import FastLogDensityContext

            substitution = dict(self.observed)
            substitution.update(constrained)
            ctx = FastLogDensityContext(substitution=substitution,
                                        rng=np.random.default_rng(self.rng_seed))
            with ctx:
                self.model(*self.model_args, **self.model_kwargs)
            log_joint = ctx.total()
        else:
            tracer = handlers.trace()
            with handlers.seed(rng_seed=self.rng_seed), \
                 handlers.condition(data=self.observed), \
                 handlers.substitute(data=constrained), tracer:
                self.model(*self.model_args, **self.model_kwargs)
            log_joint = handlers.trace_log_density(tracer.trace)
        return ops.neg(ops.add(log_joint, log_det))

    def potential(self, z: np.ndarray) -> float:
        """Potential energy (negative log joint) at ``z``."""
        z = np.asarray(z, dtype=float)
        self._ensure_enum_strategy(z)
        self.metrics.inc("value_evals")
        start = time.perf_counter()
        try:
            if self.engine_config.engine == "compiled":
                out = self._compiled_value(("single",), z)
                if out is not None:
                    return float(out)
                return float(self._single_vg(z)[0])
            return self._vg(z)[0]
        finally:
            self.metrics.inc("tape_seconds", time.perf_counter() - start)

    def potential_and_grad(self, z: np.ndarray) -> Tuple[float, np.ndarray]:
        """Potential energy and its gradient at ``z``."""
        z = np.asarray(z, dtype=float)
        self._ensure_enum_strategy(z)
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
    # Each graph the potential evaluates repeatedly — the single-row tape and
    # the batched tape of each classified width (including the enumerated C×B
    # contraction, which is part of the batched graph) — can be lowered once
    # into a fused straight-line NumPy program.  Acceptance follows the same
    # tolerance-tiered contract as every other optimistic fast path, with the
    # *interpreted* evaluation of the same graph as oracle:
    #
    # * values and gradients bitwise        -> "fast" (program serves both);
    # * values bitwise, gradients within
    #   (grad_rtol, grad_atol)              -> "value_fast" (program serves
    #   value-only consumers; gradient consumers stay interpreted);
    # * anything else, a compilation error
    #   (e.g. value-dependent control flow,
    #   which a frozen program cannot
    #   replay), or an evaluation error     -> "off" (permanent demotion).
    #
    # A shape/dtype guard invalidates the program when the input signature
    # changes; the retrace then revalidates from scratch, and a retrace that
    # disagrees with its oracle demotes permanently.
    def _single_vg(self, z: np.ndarray) -> Tuple[float, np.ndarray]:
        """Engine dispatch for one ``(dim,)`` evaluation."""
        if self.engine_config.engine != "compiled":
            return self._vg(z)
        value, grad = self._compiled_vg(("single",), z,
                                        self._neg_log_joint_tensor, self._vg)
        return float(value), np.asarray(grad, dtype=float)

    def _compiled_vg(self, key: Tuple, z: np.ndarray, fn: Callable,
                     oracle: Callable):
        """``(value, grad)`` for ``z`` through the compiled engine.

        Serves from the validated fused program when the tier allows;
        compiles + validates on first use (returning the oracle's result for
        that call); falls back to ``oracle`` otherwise.  Exceptions from the
        compiled program demote it; exceptions from the oracle propagate
        (callers own that contract).
        """
        state = self._tapes.setdefault(key, {"tape": None, "mode": None})
        tape = state["tape"]
        if tape is not None and not tape.matches(z):
            # Shape/dtype guard tripped: the program is invalid for this
            # input.  Retrace and revalidate below (a retrace that disagrees
            # demotes permanently).
            state["tape"] = tape = None
            state["mode"] = None
        mode = state["mode"]
        if mode == "fast":
            try:
                value, grad = tape.value_and_grad(z)
                self.metrics.inc("compiled_evals")
                return value, grad
            except Exception as exc:  # noqa: BLE001
                self._demote_tape(key, state, reason=exc)
                return oracle(z)
        if mode in ("off", "value_fast"):
            return oracle(z)
        # First use for this key/signature: compile and validate at the
        # *canonical* probes (see :meth:`_canonical_probe`) so the tier — and
        # the frozen control flow of the traced program — is a pure function
        # of the potential, not of whichever trajectory point arrived first
        # (a fresh run and a checkpoint-resumed run must classify alike).
        with self._validation_lock:
            if state["mode"] is not None:
                # Another thread finished validating while we waited.
                return self._compiled_vg(key, z, fn, oracle)
            return self._compile_and_validate_tape(key, state, z, fn, oracle)

    def _compile_and_validate_tape(self, key: Tuple, state: Dict[str, Any],
                                   z: np.ndarray, fn: Callable, oracle: Callable):
        cfg = self.engine_config
        values_ok = grads_bitwise = grads_tol = True
        compile_error: Optional[str] = None
        with self.telemetry.span("tape.compile", key=self._tape_label(key)) as span:
            try:
                tape = compile_tape(fn, self._canonical_probe(z.shape),
                                    telemetry=self.telemetry)
                for salt in range(self.VALIDATION_PROBES):
                    probe = self._canonical_probe(z.shape, salt)
                    value_p, grad_p = oracle(probe)
                    value_c, grad_c = tape.value_and_grad(probe)
                    values_ok &= np.array_equal(np.asarray(value_c),
                                                np.asarray(value_p),
                                                equal_nan=True)
                    grads_bitwise &= np.array_equal(grad_c, np.asarray(grad_p),
                                                    equal_nan=True)
                    grads_tol &= np.allclose(grad_c, np.asarray(grad_p),
                                             rtol=cfg.grad_rtol,
                                             atol=cfg.grad_atol, equal_nan=True)
                    if not values_ok:
                        break
            except Exception as exc:  # noqa: BLE001
                tape = None
                values_ok = grads_bitwise = grads_tol = False
                compile_error = f"{type(exc).__name__}: {exc}"
            if values_ok and grads_bitwise:
                state["tape"], state["mode"] = tape, "fast"
            elif values_ok and grads_tol:
                state["tape"], state["mode"] = tape, "value_fast"
            else:
                state["tape"], state["mode"] = None, "off"
            span.set(tier=state["mode"], values_bitwise=bool(values_ok),
                     grads_bitwise=bool(grads_bitwise),
                     grads_within_tolerance=bool(grads_tol))
            if compile_error is not None:
                span.set(compile_error=compile_error)
        self.metrics.set_info(f"tape.{self._tape_label(key)}", state["mode"])
        return self._compiled_vg(key, z, fn, oracle)

    @staticmethod
    def _tape_label(key: Tuple) -> str:
        """Human-readable label for a tape key, e.g. ``batched-4``."""
        return "-".join(str(part) for part in key)

    def _demote_tape(self, key: Tuple, state: Dict[str, Any], reason) -> None:
        """Permanently turn a validated program off after a runtime failure."""
        state["mode"] = "off"
        label = self._tape_label(key)
        self.metrics.set_info(f"tape.{label}", "off")
        self.telemetry.event("tape.demote", key=label,
                             reason=f"{type(reason).__name__}: {reason}")

    #: validation points per tier decision: a fast path whose agreement with
    #: its oracle is *coincidental* (last-ulp reduction-order drift that
    #: happens to cancel at one point) must not validate into a bitwise tier
    #: off a single lucky sample.
    VALIDATION_PROBES = 3

    def _canonical_probe(self, shape: Tuple[int, ...],
                         salt: int = 0) -> np.ndarray:
        """Deterministic generic point(s) for fast-path validation.

        Fixed jitter around the prior-init point: generic enough that a
        coincidental bitwise match is as unlikely as anywhere else on the
        trajectory, and identical across runs of the same potential — the
        validation verdict must not depend on evaluation history, or a
        resumed run could land in a different tier than the run that wrote
        the checkpoint and break the bitwise-resume contract.
        """
        rng = np.random.default_rng(1729 + salt)
        base = self.initial_unconstrained()
        if shape == base.shape:
            return base + 0.1 * rng.standard_normal(shape)
        if len(shape) == 2 and shape[1] == base.size:
            return base[None, :] + 0.1 * rng.standard_normal(shape)
        return 0.1 * rng.standard_normal(shape)  # unexpected layout

    def _compiled_value(self, key: Tuple, z: np.ndarray):
        """Value via the compiled forward program, or ``None`` to interpret.

        ``value_fast`` programs qualify: their *values* validated bitwise
        (only their gradients sit in the tolerance tier).  Never compiles —
        validation needs gradients, so unvalidated keys return ``None`` and
        the caller's gradient path compiles as a side effect.
        """
        state = self._tapes.get(key)
        if (not state or state["tape"] is None
                or state["mode"] not in ("fast", "value_fast")
                or not state["tape"].matches(z)):
            return None
        try:
            out = state["tape"].value(z)
            self.metrics.inc("compiled_evals")
            return out
        except Exception as exc:  # noqa: BLE001
            self._demote_tape(key, state, reason=exc)
            return None

    @property
    def eval_counters(self) -> Dict[str, float]:
        """Evaluation counts + wall-clock, as the historical dict view.

        Backed by the unified :attr:`metrics` registry; kept as a read-only
        property so fit-metadata stamping (``metadata["eval_counters"]``)
        and existing callers see the same shape as the old mutable dict.
        """
        counters = self.metrics.counters()
        return {"grad_evals": int(counters.get("grad_evals", 0)),
                "value_evals": int(counters.get("value_evals", 0)),
                "compiled_evals": int(counters.get("compiled_evals", 0)),
                "tape_seconds": float(counters.get("tape_seconds", 0.0))}

    def metrics_view(self) -> Dict[str, Any]:
        """Engine observability snapshot: resolved engine, tape tiers, counters.

        The supported successor of :meth:`engine_stats` — same dict shape,
        sourced from the unified metrics registry.
        """
        modes = {self._tape_label(key): state["mode"]
                 for key, state in self._tapes.items()}
        stats: Dict[str, Any] = {"engine": self.engine_config.engine,
                                 "tape_modes": modes}
        stats.update(self.eval_counters)
        return stats

    def engine_stats(self) -> Dict[str, Any]:
        """Deprecated alias of :meth:`metrics_view` (warns once per process)."""
        warn_once(
            "potential-engine-stats",
            "Potential.engine_stats() is deprecated; use "
            "Potential.metrics_view() (or the obs telemetry metrics "
            "registry) instead.")
        return self.metrics_view()

    def eval_tier(self, num_chains: Optional[int] = None) -> str:
        """One-line evaluation-tier summary, e.g. ``compiled:fast vec:fast``.

        Reports the engine plus the single-evaluation tape tier, the batched
        tier of the width that serves ``num_chains`` rows (once a width is
        classified), and the enumeration strategy for enumerated potentials.
        Consumed by the live progress meter and the telemetry report.
        """
        parts = [self.engine_config.engine]
        single = self._tapes.get(("single",))
        if single is not None and single["mode"] is not None:
            parts[0] = f"{self.engine_config.engine}:{single['mode']}"
        if num_chains is not None and num_chains > 1:
            width = self._serving_width(num_chains)
            if width is not None:
                parts.append(f"vec:{self._batched_mode[width]}")
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
        from repro.ppl.primitives import FastLogDensityContext

        c = z.data.shape[0]
        constrained, log_det = self.constrain_batched(z)
        if self.enum_plan is not None and self._marginal_mode == "contract":
            # Structured multi-chain tape: the batch is C * B rows
            # (chain-major, B = the gridded batch), one model execution,
            # then each chain's rows are contracted separately — the same
            # per-chain arithmetic as the single-chain contraction, so the
            # per-chain subgraphs stay disjoint until the shared leaves.
            fplan = self.factorization
            b = fplan.batch_rows
            substitution: Dict[str, Any] = dict(self.observed)
            for name, value in constrained.items():
                expanded = self._tile_rows(value, b)
                expanded.is_batched = True
                substitution[name] = expanded
            for name, grid in fplan.grids().items():
                tiled = as_tensor(np.tile(grid, (c, 1)))
                tiled.is_batched = True
                substitution[name] = tiled
            from repro.enum.factorize import reset_generated_site_names

            reset_generated_site_names()
            ctx = FastLogDensityContext(substitution=substitution,
                                        rng=np.random.default_rng(self.rng_seed),
                                        batch_size=c * b, collect_names=True)
            with ctx:
                self.model(*self.model_args, **self.model_kwargs)
            fplan.check_terms(ctx.term_names)
            per_chain = ops.stack([
                fplan.contract(ctx.log_prob_terms, offset=i * b, total_rows=c * b)
                for i in range(c)
            ])
            return ops.neg(ops.add(per_chain, log_det))
        if self.enum_plan is not None:
            # Enumeration axis rides behind the chain axis: the batch is
            # C * T rows, chain-major, reduced back per chain by a (C, T)
            # logsumexp over the table axis.
            t_size = self.enum_plan.table_size
            b = c * t_size
            substitution = dict(self.observed)
            for name, value in constrained.items():
                expanded = self._tile_rows(value, t_size)
                expanded.is_batched = True
                substitution[name] = expanded
            for name, value in self.enum_plan.flat_values().items():
                tiled = as_tensor(np.tile(value, (c,) + (1,) * (value.ndim - 1)))
                tiled.is_batched = True
                substitution[name] = tiled
            ctx = FastLogDensityContext(substitution=substitution,
                                        rng=np.random.default_rng(self.rng_seed),
                                        batch_size=b)
            with ctx:
                self.model(*self.model_args, **self.model_kwargs)
            total = ctx.total()
            if total.data.shape != (b,):
                raise RuntimeError(
                    f"batched enumerated log joint has shape {total.data.shape}, "
                    f"expected ({b},)")
            per_chain = ops.logsumexp(ops.reshape(total, (c, t_size)), axis=1)
            return ops.neg(ops.add(per_chain, log_det))
        substitution = dict(self.observed)
        substitution.update(constrained)
        ctx = FastLogDensityContext(substitution=substitution,
                                    rng=np.random.default_rng(self.rng_seed),
                                    batch_size=c)
        with ctx:
            self.model(*self.model_args, **self.model_kwargs)
        total = ctx.total()
        if total.data.shape != (c,):
            raise RuntimeError(f"batched log joint has shape {total.data.shape}, expected ({c},)")
        return ops.neg(ops.add(total, log_det))

    def _batched_fast_interpreted(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        t = Tensor(z, requires_grad=True)
        with np.errstate(all="ignore"):
            out = self._neg_log_joint_tensor_batched(t)
            out.backward(np.ones(z.shape[0]))
        grad = t.grad if t.grad is not None else np.zeros_like(z)
        return np.asarray(out.data, dtype=float), np.asarray(grad, dtype=float)

    def _potential_and_grad_batched_fast(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The batched tape, through the configured engine.

        Under ``engine="compiled"`` the whole batched graph — including the
        enumerated C×B contraction when that strategy is active — is lowered
        into one fused program per classified width, validated against the
        interpreted batched tape under the tiered contract.
        """
        if self.engine_config.engine != "compiled":
            return self._batched_fast_interpreted(z)
        value, grad = self._compiled_vg(("batched", z.shape[0]), z,
                                        self._neg_log_joint_tensor_batched,
                                        self._batched_fast_interpreted)
        return np.asarray(value, dtype=float), np.asarray(grad, dtype=float)

    def _potential_and_grad_batched_loop(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        values = np.empty(z.shape[0])
        grads = np.empty_like(z)
        for i in range(z.shape[0]):
            values[i], grads[i] = self._single_vg(z[i])
        return values, grads

    def potential_and_grad_batched(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Potential energies ``(C,)`` and gradients ``(C, dim)`` for a batch ``z``.

        The first batched call classifies its row count as the potential's
        width: the vectorized evaluation is validated against the per-row
        sequential oracle under the tolerance-tiered contract (see module
        constants).  Values must match **bitwise** (they feed sampler
        threshold decisions); gradients may match bitwise (``"fast"`` — the
        tape serves everything) or within the documented tolerance
        (``"value_fast"`` — value-only consumers keep the tape, gradient
        consumers take the row loop so trajectories stay bitwise identical
        between chain methods); anything else falls back to an equivalent
        row loop.  Every later batch, of any size, is served at a classified
        width (see :meth:`_serving_width`); a single row takes the single
        tape.
        """
        z = np.asarray(z, dtype=float)
        if z.ndim != 2:
            raise ValueError(f"expected a (num_chains, dim) batch, got shape {z.shape}")
        c = z.shape[0]
        if c and z.shape[1]:
            self._ensure_enum_strategy(z[0])
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
                    self._classify_batched(c, z.shape[1])
            return self._potential_and_grad_batched_impl(z, c)
        if self._batched_mode[width] == "fast":
            try:
                return self._in_blocks(self._potential_and_grad_batched_fast,
                                       z, width)
            except Exception as exc:
                # A state-dependent branch may only trigger away from the
                # validation point (e.g. a latent crossing a control-flow
                # boundary); demote this width to the row loop for good.
                self._demote_batched(width, reason=exc)
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
        fits = [w for w in self._batched_mode if w >= c]
        return min(fits) if fits else max(self._batched_mode, default=None)

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

    def _classify_batched(self, c: int, dim: int) -> None:
        """Validate the vectorized evaluation at width ``c`` and set its tier
        — at a *canonical* probe batch, not the caller's point.

        A potential classifies once, at the row count of its first batched
        call, and only while its (possibly shared) tier table holds no width;
        every other batch size is then padded or split onto that width.

        The tier must be a pure function of the potential: a checkpointed
        run classifies on its first warmup batch while a resumed run
        classifies mid-trajectory, and a model whose vectorized gradients
        agree with the row loop only *sometimes* (last-ulp reduction-order
        drift) would land in different tiers and break the bitwise
        resume contract.  The fixed probe from :meth:`_canonical_probe`
        gives every run of the same potential the same answer.
        """
        span = self.telemetry.span("batched.validate", num_chains=c, dim=dim)
        span.__enter__()
        try:
            self._classify_batched_inner(c, dim, span)
        finally:
            span.__exit__(None, None, None)

    def _classify_batched_inner(self, c: int, dim: int, span) -> None:
        values_ok = grads_bitwise = grads_tol = True
        try:
            for salt in range(self.VALIDATION_PROBES):
                probe = self._canonical_probe((c, dim), salt)
                values, grads = self._potential_and_grad_batched_loop(probe)
                fast_values, fast_grads = \
                    self._potential_and_grad_batched_fast(probe)
                # Decision tier: *bitwise* value agreement with the
                # sequential oracle, not just tolerance — sampler decisions
                # (accept, slice, U-turn) threshold on these values, so a
                # sub-tolerance discrepancy could flip a knife-edge decision
                # and break the identical-draws contract between the chain
                # methods.
                values_ok &= np.array_equal(fast_values, values, equal_nan=True)
                grads_bitwise &= np.array_equal(fast_grads, grads,
                                                equal_nan=True)
                # Gradient tier: a tape that reorders floating point (gemm
                # vs gemv, tiled reductions) may diverge in the last ulps;
                # within the documented tolerance the tape stays usable for
                # value-only consumers (potential_batched) while gradient
                # consumers keep the loop — this recovers the multi-chain
                # enumerated C×T tape.
                grads_tol &= np.allclose(fast_grads, grads,
                                         rtol=GRAD_VALIDATION_RTOL,
                                         atol=GRAD_VALIDATION_ATOL,
                                         equal_nan=True)
                if not values_ok:
                    break
        except Exception:
            values_ok = grads_bitwise = grads_tol = False
        # Structural cap for enumerated potentials: the vectorized C×B
        # contraction reduces over the assignment axis in a different
        # floating-point order than the per-row contraction, so bitwise
        # gradient agreement at the probes is coincidental, not structural —
        # and serving coincidentally-matching gradients would let the chain
        # methods diverge at the first unlucky trajectory point.  Plain
        # models vectorize by pure broadcasting (identical per-row reduction
        # order), where probe agreement is evidence of structure.
        if values_ok and grads_bitwise and self.enum_plan is None:
            self._batched_mode[c] = "fast"
        elif values_ok and grads_tol:
            self._batched_mode[c] = "value_fast"
        else:
            self._batched_mode[c] = "loop"
        span.set(tier=self._batched_mode[c], values_bitwise=bool(values_ok),
                 grads_bitwise=bool(grads_bitwise),
                 grads_within_tolerance=bool(grads_tol))
        self.metrics.set_info(f"batched.{c}", self._batched_mode[c])

    def _demote_batched(self, width: int, reason) -> None:
        """Permanently demote ``width`` to the row loop at runtime."""
        self._batched_mode[width] = "loop"
        self.metrics.set_info(f"batched.{width}", "loop")
        self.telemetry.event("batched.demote", num_chains=width,
                             reason=f"{type(reason).__name__}: {reason}")

    def share_batched_classification(self, store: Dict[int, str]) -> None:
        """Adopt ``store`` as this potential's batched-tier table.

        The fast/loop classification is *structural*: it depends on how the
        model's graph vectorizes over the chain axis, not on the observed
        values — so potentials over same-shaped data for the same model can
        share one table instead of each paying the full
        ``VALIDATION_PROBES``-probe row-loop comparison on first batched
        use (the serving layer's cold-dataset k-hat tax).  The store's widths
        serve every batch size of every sharer (padded or split onto them,
        see :meth:`_serving_width`), so a potential that adopts a non-empty
        store never classifies.  Tiers this potential already established
        are merged in without overwriting the store's; afterwards
        classification results (including runtime demotions, which are
        conservative) are written straight into the shared dict, visible to
        every sharer.  The runtime demote-on-error guard still protects each
        potential individually if the structural assumption is ever wrong
        for a particular dataset.
        """
        with self._validation_lock:
            for count, mode in self._batched_mode.items():
                store.setdefault(count, mode)
            self._batched_mode = store

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
        if c and z.shape[1]:
            self._ensure_enum_strategy(z[0])
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
        if z.shape[0] > 1 and self._batched_mode[width] in ("fast", "value_fast"):
            # ``value_fast``: the tape's *values* validated bitwise against
            # the oracle (only its gradients sit in the tolerance tier), so
            # value-only consumers keep the batched evaluation.
            try:
                return self._in_blocks(
                    lambda block: (self._batched_values(block),), z, width)[0]
            except Exception as exc:
                self._demote_batched(width, reason=exc)
        with no_grad():
            return np.array([self._compiled_or_interpreted_value(zi) for zi in z])

    def _batched_values(self, z: np.ndarray) -> np.ndarray:
        if self.engine_config.engine == "compiled":
            out = self._compiled_value(("batched", z.shape[0]), z)
            if out is not None:
                return np.asarray(out, dtype=float)
        # Recorded like the validated gradient tape, not under no_grad: the
        # runtime recognizes derived per-chain tensors by their graph
        # provenance, which no_grad erases.
        with np.errstate(all="ignore"):
            out = self._neg_log_joint_tensor_batched(Tensor(z, requires_grad=True))
        return np.asarray(out.data, dtype=float)

    def _compiled_or_interpreted_value(self, zi: np.ndarray) -> float:
        if self.engine_config.engine == "compiled":
            out = self._compiled_value(("single",), zi)
            if out is not None:
                return float(out)
        return float(self._neg_log_joint_tensor(as_tensor(zi)).data)

    def _constrained_rows(self, z: np.ndarray) -> Dict[str, np.ndarray]:
        """Per-row :meth:`constrained_dict` of a batch, stacked per site."""
        rows = [self.constrained_dict(zi) for zi in z]
        return {name: np.array([row[name] for row in rows]) for name in self.sites}

    def constrained_dict_batched(self, z: np.ndarray) -> Dict[str, np.ndarray]:
        """Constrained NumPy values for a ``(C, dim)`` batch (no grad).

        Returns arrays of shape ``(C, *constrained_shape)`` per site.  The
        first call validates *every* row against :meth:`constrained_dict`
        (once per potential); models that do not batch fall back to a row
        loop.
        """
        z = np.asarray(z, dtype=float)
        if z.ndim != 2:
            raise ValueError(f"expected a (num_chains, dim) batch, got shape {z.shape}")
        if self._constrain_batched_ok is not False:
            try:
                with no_grad():
                    constrained, _ = self.constrain_batched(as_tensor(z))
                out = {}
                for name, value in constrained.items():
                    info = self.sites[name]
                    arr = np.asarray(value.data)
                    out[name] = arr.reshape((z.shape[0],) + info.constrained_shape)
                if self._constrain_batched_ok is None:
                    with self._validation_lock:
                        if self._constrain_batched_ok is None:
                            rows = self._constrained_rows(z)
                            self._constrain_batched_ok = all(
                                np.allclose(out[name], rows[name],
                                            rtol=1e-8, atol=1e-10, equal_nan=True)
                                for name in self.sites
                            )
                            if not self._constrain_batched_ok:
                                # The oracle rows were just computed — reuse them.
                                return rows
                if self._constrain_batched_ok:
                    return out
            except Exception:
                self._constrain_batched_ok = False
        return self._constrained_rows(z)


def make_potential(model: Callable, *model_args, observed: Optional[Dict[str, Any]] = None,
                   rng_seed: int = 0, fast: bool = False, enumerate: Optional[str] = None,
                   max_table_size: Optional[int] = None,
                   engine: Union[None, str, EngineConfig] = None,
                   obs: Any = None,
                   enum: Union[None, str, EnumConfig] = None,
                   **model_kwargs) -> Potential:
    """Convenience constructor used throughout the benchmarks and examples."""
    return Potential(model, model_args, model_kwargs, observed=observed, rng_seed=rng_seed,
                     fast=fast, enumerate=enumerate, max_table_size=max_table_size,
                     engine=engine, obs=obs, enum=enum)
