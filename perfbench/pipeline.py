"""One model from Stan source to summarized posterior, and the output checks.

Everything here goes through the program's stable API:
``compile_model(..., enum=...)``, ``condition(data)``, ``.potential(seed)``,
``potential_and_grad[_batched]``, ``.fit(...)``, ``posterior.summary()``,
``eval_tier()`` and ``fit.metadata``.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

import numpy as np

from repro import clear_compile_cache, compile_model
from repro.autodiff import as_tensor
from repro.corpus import models as corpus
from repro.stanref import StanModel

from tracing import Tracer
from workloads import PSIS_DRAWS, ModelSpec

#: operations per model and pass, in pipeline order; an exception fails the
#: stage it happened in and every later one.
STAGES = ("compile", "fit", "summary")

#: the benchmark span around each fit method (the span's self time is the
#: driver's own overhead: the NUTS loop, or the VI optimiser).
FIT_SPANS = {"nuts": "sampler", "vi": "vi.fit", "svi": "svi.fit"}

#: fixed unconstrained probe points of the density check (Theorem 3.3).
PROBE_SEED = 20210620
NUM_PROBES = 3


def _draw_digest(draws: Dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(draws):
        value = np.ascontiguousarray(np.asarray(draws[name], dtype=float))
        digest.update(name.encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()[:16]


def _min_ess(summary: Dict[str, Dict[str, float]], params: List[str]) -> float:
    values = [row["n_eff"] for key, row in summary.items()
              if key.split("[")[0] in params and "n_eff" in row]
    return float(min(values)) if values else float("nan")


def _instrument(potential, tracer: Tracer) -> None:
    """Route the potential's public evaluation calls through spans.

    The samplers and guides call these methods on the potential object, so
    instance attributes shadowing them see every call the fit makes.
    """
    potential.potential_and_grad = tracer.wrap(
        "potential.grad", potential.potential_and_grad, rows=lambda z: 1)
    potential.potential_and_grad_batched = tracer.wrap(
        "potential.batch", potential.potential_and_grad_batched,
        rows=lambda z: int(np.shape(z)[0]))
    potential.constrained_dict_batched = tracer.wrap(
        "infer.constrain", potential.constrained_dict_batched)


def run_model(spec: ModelSpec, data: Dict[str, Any], seed: int,
              tracer: Optional[Tracer] = None, obs=None) -> Dict[str, Any]:
    """Run ``spec`` cold, from source text to summary; returns its record.

    ``record["failed"]`` counts failed operations (see :data:`STAGES`);
    ``record["error"]`` holds the first failure's message.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    record: Dict[str, Any] = {"model": spec.title, "failed": 0, "error": None}
    stage = 0
    start = time.perf_counter()
    try:
        clear_compile_cache()
        with span("core.compile"):
            compiled = compile_model(corpus.get(spec.name), name=spec.name,
                                     enum=spec.enum, obs=obs)
        conditioned = compiled.condition(data)
        with span("potential.discover"):
            potential = conditioned.potential(seed)
        z0 = potential.initial_unconstrained()
        with span("tape.compile"):
            potential.potential_and_grad(z0)
        rows = spec.batch_rows
        if rows > 1:
            with span("batched.validate"):
                potential.potential_and_grad_batched(np.tile(z0, (rows, 1)))
        ready = time.perf_counter()
        record["setup_s"] = ready - start
        record["generated_lines"] = compiled.source.count("\n") + 1
        stage = 1

        kwargs = dict(spec.fit_kwargs, seed=seed)
        if tracer is not None:
            _instrument(potential, tracer)
            if spec.method == "svi":
                kwargs["guide"] = tracer.wrap(
                    "svi.guide", compiled.guide_callable(conditioned.data))
        with span(FIT_SPANS[spec.method]):
            fit = conditioned.fit(spec.method, **kwargs)
        fitted = time.perf_counter()
        record["fit_s"] = fitted - ready
        posterior = fit.posterior
        draws = posterior.get_samples(group_by_chain=True)
        record["digest"] = _draw_digest(draws)
        problems = [name for name, value in draws.items()
                    if not np.all(np.isfinite(np.asarray(value, dtype=float)))]
        if spec.method == "nuts":
            record["divergences"] = int(np.nansum(posterior.stats["divergent"]))
            record["leapfrog_steps"] = int(np.nansum(posterior.stats["num_steps"]))
        else:
            record["elbo"] = float(np.mean(fit.elbo_history[-10:]))
            if not math.isfinite(record["elbo"]):
                problems.append("elbo")
        if problems:
            raise ValueError(f"non-finite outputs: {problems}")
        stage = 2

        with span("infer.summary"):
            summary = posterior.summary()
        if spec.method == "nuts":
            record["min_ess"] = _min_ess(summary, compiled.parameter_names)
        else:
            with span("vi.psis"):
                record["khat"] = float(fit.psis_diagnostic(
                    num_samples=PSIS_DRAWS).khat)
            if not math.isfinite(record["khat"]):
                raise ValueError(f"non-finite k-hat {record['khat']}")
        record["summary_s"] = time.perf_counter() - fitted
        stage = 3

        record["tier"] = potential.eval_tier(rows or None)
        counters = fit.metadata.get("eval_counters")
        if counters:
            record["grad_evals"] = int(counters["grad_evals"])
            record["compiled_evals"] = int(counters["compiled_evals"])
        enum_meta = fit.metadata.get("enum")
        if enum_meta:
            record["enum_strategy"] = enum_meta["strategy"]
            record["planner_cost"] = int(enum_meta["cost_estimate"])
    except Exception as exc:  # noqa: BLE001 - the benchmark keeps running
        record["failed"] = len(STAGES) - stage
        record["error"] = f"{STAGES[stage]}: {type(exc).__name__}: {exc}"
        record["traceback"] = traceback.format_exc()
    record["total_s"] = time.perf_counter() - start
    return record


def reference_check(spec: ModelSpec, data: Dict[str, Any]) -> Optional[str]:
    """Theorem 3.3 at fixed probes; ``None`` when it holds, else why not.

    ``potential(z) + target(constrain(z)) + log|J(z)|`` must not depend on
    ``z``: the compiled log joint and the reference interpreter's ``target``
    differ by a constant.  Enumerated models are checked against their
    hand-marginalized twin's ``target``.
    """
    try:
        reference = StanModel(corpus.get(spec.reference or spec.name))
        compiled = compile_model(corpus.get(spec.name), name=spec.name,
                                 enum=spec.enum)
        potential = compiled.condition(data).potential(0)
        rng = np.random.default_rng(PROBE_SEED)
        offsets = []
        for _ in range(NUM_PROBES):
            z = rng.normal(0.0, 0.5, size=potential.dim)
            constrained, log_det = potential.constrain(as_tensor(z))
            params = {name: np.asarray(value.data)
                      for name, value in constrained.items()}
            offsets.append(potential.potential(z) + reference.target(data, params)
                           + float(np.asarray(log_det.data)))
    except Exception as exc:  # noqa: BLE001
        return f"{type(exc).__name__}: {exc}"
    if not all(math.isfinite(v) for v in offsets):
        return f"non-finite density offsets {offsets}"
    spread = max(offsets) - min(offsets)
    if spread > 1e-6 * (1.0 + abs(offsets[0])):
        return f"density offset varies by {spread:.3g} across probes {offsets}"
    return None
