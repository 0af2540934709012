"""Source-to-posterior benchmark: end-to-end fit metrics and a per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload table5_nuts --seed 1 --seconds 35 --trace 0

One run checks the compiled densities against the reference interpreter,
then repeats cold passes over the workload's models (compile -> condition
-> ready-to-sample -> fit -> summary) until ``--seconds`` are used, and
reports medians over the passes, corrected for the host's slowdown
(``perfbench/contention.py``).  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics.  The last line of standard output
is one JSON object; spans and per-model records are written under
``perfbench/out/``.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> int:
    """One BLAS/OpenMP thread per process (at most ``nproc``); returns nproc."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return nproc


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        spec_text = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
        import numpy  # noqa: F401
        import repro
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot load the program or BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not from this "
              f"checkout's src/", file=sys.stderr)
        return 2
    import ledger
    from workloads import WORKLOADS

    bench = json.loads(spec_text)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = {"nproc": nproc, "python": platform.python_version(),
           "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
           "threads": {var: os.environ[var] for var in THREAD_VARS}}
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} | nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas_threads=1")

    run = ledger.Run(workload, args.seed, paired=bool(args.trace))
    run.check_references()
    deadline = time.perf_counter() + args.seconds
    # Every input seed gets a pass (an untraced and a traced one when tracing),
    # even when the first passes use up ``--seconds``.
    min_passes = ledger.INPUT_SEEDS * (2 if args.trace else 1)
    while True:
        started = time.perf_counter()
        # Traced runs alternate untraced and traced passes, so the tracing
        # overhead compares passes made under the same conditions.
        run.run_pass(traced=bool(args.trace) and len(run.passes) % 2 == 1)
        took = time.perf_counter() - started
        if len(run.passes) >= min_passes and time.perf_counter() + took > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    section = "per_layer" if args.trace else "end_to_end"
    values = (run.per_layer() if args.trace
              else run.end_to_end(peak_rss_mb=peak_rss_mb))
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in bench[section]}
    for line in run.report(values):
        print(line)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run.tracer.save(str(stem) + ".spans.jsonl")
    (Path(str(stem) + ".json")).write_text(json.dumps(
        {"environment": env, "metrics": metrics, "references": run.references,
         "passes": run.passes}, indent=1, default=str), encoding="utf-8")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
