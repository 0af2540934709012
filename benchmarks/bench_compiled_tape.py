"""Compiled-tape vs interpreted-tape gradient cost (BENCH_compiled_tape.json).

The tape compiler (:mod:`repro.autodiff.compile`) records the op graph from
one tracing evaluation of the potential, folds constants, eliminates dead
nodes and emits a fused forward + reverse program over batched NumPy kernels
— no per-op Python dispatch.  The contract is tiered: the compiled program
must reproduce the interpreted tape **bitwise** to run in ``"fast"`` mode
(gradients within the documented tolerances keep the value path only,
``"value_fast"``; anything worse demotes the model back to the interpreted
tape permanently).

This bench measures steady-state ``potential_and_grad`` cost of the two
enum-scaling twins — the hand-marginalized mixture (N=500) and the 4-state
forward-algorithm HMM (T=200) — under both engines, asserts the bitwise
tier held, and gates the speedup.  It also records each twin's first-gradient
latency on a fresh compiled potential (trace, lower and validate the tape)
as ``first_grad_seconds``, and the cost of one 4-row batched gradient over
four single ones as ``batched4_over_4_single``; those are recorded, not
gated.  Each twin's program length (``forward_lines``/``backward_lines``,
statements emitted) is recorded too, and the mixture's forward program is
capped: the superword pass stacks its per-observation terms, so the length
must not grow with N (``forward_lines_cap``, read back by
``check_bench_regressions.py``).
``REPRO_BENCH_ITERS`` (CI smoke) shrinks the datasets;
``REPRO_ENUM_SCALING=1`` forces the full acceptance sizes.
"""

import os
import time

import numpy as np
from conftest import record, record_json

from repro import ObsConfig
from repro.core import compile_model
from repro.posteriordb import datagen, get

BENCH_ITERS = int(os.environ.get("REPRO_BENCH_ITERS", "0"))
FULL_RUN = BENCH_ITERS == 0
FULL_SIZES = FULL_RUN or bool(os.environ.get("REPRO_ENUM_SCALING"))

#: steady-state speedup the compiled engine must deliver over the
#: interpreted tape.  The acceptance sizes measure ~10x on both workloads;
#: 5x is the gate (regression guard reads the recorded value back from the
#: JSON).  Smoke sizes are too small to amortize per-call overhead
#: identically, so the gate is proportionally looser there.
SPEEDUP_THRESHOLD = 5.0 if FULL_SIZES else 3.0

#: the mixture twin's forward program, in statements, at N=100 and N=500
#: alike (86 when the cap was set; per-observation lowering gives 465+).
MIXTURE_FORWARD_LINES_CAP = 100

if FULL_SIZES:
    WORKLOADS = (
        ("gauss_mix_marginal-synthetic_mixture_large", None, "N=500"),
        ("hmm_k_marginal-synthetic_hmm4", None, "T=200,K=4"),
    )
else:
    WORKLOADS = (
        ("gauss_mix_marginal-synthetic_mixture_large",
         datagen.gauss_mix_enum_large_data(seed=0, n=100), "N=100"),
        ("hmm_k_marginal-synthetic_hmm4",
         datagen.hmm_k_data(seed=0, t=50, k=4), "T=50,K=4"),
    )


def _measure(entry_name, data, repeats=7):
    """Steady-state per-eval cost under both engines + agreement check."""
    entry = get(entry_name)
    # telemetry only records spans at compile/classification time; the
    # single program's ``tape.lower`` span carries its statement counts
    compiled_model = compile_model(entry.source, name=entry.name,
                                   obs=ObsConfig(enabled=True))
    model = compiled_model.condition(entry.data() if data is None else data)
    seconds = {}
    first_grad = {}
    potentials = {}
    for engine in ("interpreted", "compiled"):
        potential = model.potential(0, engine=engine)
        z0 = potential.initial_unconstrained()
        start = time.perf_counter()
        potential.potential_and_grad(z0)      # resolve + trace, lower, validate
        first_grad[engine] = time.perf_counter() - start
        potential.potential_and_grad(z0)
        best = float("inf")
        for i in range(repeats):
            start = time.perf_counter()
            potential.potential_and_grad(z0 + 1e-3 * (i + 1))
            best = min(best, time.perf_counter() - start)
        seconds[engine] = best
        potentials[engine] = potential
    compiled = potentials["compiled"]
    z = compiled.initial_unconstrained() + 1e-2
    vc, gc = compiled.potential_and_grad(z)
    vi, gi = potentials["interpreted"].potential_and_grad(z)
    batch = np.tile(z, (4, 1)) + 1e-3 * np.arange(4)[:, None]
    compiled.potential_and_grad_batched(batch)     # trace, lower, validate
    compiled.potential_and_grad_batched(batch)
    batched = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        compiled.potential_and_grad_batched(batch)
        batched = min(batched, time.perf_counter() - start)
    stats = compiled.metrics_view()
    spans = compiled_model.telemetry.log.spans()
    single = next(s["id"] for s in spans if s["name"] == "tape.compile"
                  and s["attrs"]["key"] == "single")
    program = next(s["attrs"] for s in spans
                   if s["name"] == "tape.lower" and s["parent"] == single)
    row = {
        "interpreted_eval_seconds": seconds["interpreted"],
        "compiled_eval_seconds": seconds["compiled"],
        "speedup": seconds["interpreted"] / seconds["compiled"],
        "first_grad_seconds": first_grad["compiled"],
        "tape_mode": stats["tape_modes"].get("single"),
        "bitwise_value": bool(vc == vi),
        "bitwise_grad": bool(np.array_equal(gc, gi)),
        "eval_counters": compiled.eval_counters,
        "engine": "compiled",
        "baseline_engine": "interpreted",
        "forward_lines": program["forward_lines"],
        "backward_lines": program["backward_lines"],
        "batched4_over_4_single": batched / (4 * seconds["compiled"]),
    }
    if entry_name.startswith("gauss_mix_marginal"):
        row["forward_lines_cap"] = MIXTURE_FORWARD_LINES_CAP
    return row


def test_compiled_tape_gradient_speedup(benchmark):
    """The tentpole gate: fused tape >= SPEEDUP_THRESHOLD x on both twins,
    in the bitwise tier of the validation contract."""

    def run_all():
        return {name: dict(_measure(name, data), size=size)
                for name, data, size in WORKLOADS}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [f"{'workload':<42} {'size':>10} {'interp[ms]':>11} "
             f"{'compiled[ms]':>13} {'speedup':>8} {'mode':>11} "
             f"{'first_grad[s]':>14} {'fwd/bwd lines':>14} {'batch4/4':>9}"]
    payload = {"speedup_threshold": SPEEDUP_THRESHOLD,
               "full_sizes": FULL_SIZES, "workloads": {}}
    for name, row in results.items():
        lines.append(
            f"{name:<42} {row['size']:>10} "
            f"{row['interpreted_eval_seconds'] * 1e3:>11.1f} "
            f"{row['compiled_eval_seconds'] * 1e3:>13.1f} "
            f"{row['speedup']:>7.1f}x {row['tape_mode']:>11} "
            f"{row['first_grad_seconds']:>14.2f} "
            f"{row['forward_lines']:>6}/{row['backward_lines']:<7} "
            f"{row['batched4_over_4_single']:>9.2f}")
        payload["workloads"][name] = row
    lines.append("[fused forward+reverse programs, validated bitwise against "
                 "the interpreted tape before use; first_grad = first "
                 "potential_and_grad on a fresh compiled potential]")
    record("BENCH_compiled_tape — fused tape vs interpreted gradient cost",
           lines)
    record_json("BENCH_compiled_tape.json", payload)

    for name, row in results.items():
        # the compiled program must have passed bitwise validation ("fast");
        # "value_fast" (grads within tolerance) is contract-acceptable but
        # on these workloads would signal a kernel regression.
        assert row["tape_mode"] == "fast", (name, row["tape_mode"])
        assert row["bitwise_value"] and row["bitwise_grad"], (name, row)
        assert row["speedup"] >= SPEEDUP_THRESHOLD, (
            name, row["speedup"], SPEEDUP_THRESHOLD)
        assert row["forward_lines"] <= row.get("forward_lines_cap", row["forward_lines"]), (
            name, row["forward_lines"], row["forward_lines_cap"])
