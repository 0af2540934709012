"""Vectorized multi-chain engine speedup on the Table 5 corpus models.

For each Table 5 entry the same NUTS configuration runs four chains twice —
``chain_method="sequential"`` and ``chain_method="vectorized"`` — under the
same seed.  The vectorized engine must produce *identical* draws (it answers
every synchronized evaluation of all chains with one batched tape) and be at
least 2x faster in aggregate.  Each vectorized fit also records the batch
widths its potential classified: one width (the chain count) must serve the
straggler batches too, which ``check_bench_regressions.py`` gates as a count.

``REPRO_BENCH_ITERS`` cuts the iteration counts (CI smoke runs use 20) so the
script's wiring is exercised on every push without burning minutes.
"""

import os
import time

import numpy as np
from conftest import record, record_json

from repro import compile_model
from repro.infer import MCMC, NUTS
from repro.posteriordb import get

TABLE5_ENTRIES = [
    "coin-flips",
    "eight_schools_centered-eight_schools",
    "kidscore_momiq-kidiq",
    "nes-nes2000",
]

NUM_CHAINS = 4
BENCH_ITERS = int(os.environ.get("REPRO_BENCH_ITERS", "0"))
FULL_RUN = BENCH_ITERS == 0


def _iters(config):
    if not FULL_RUN:
        return BENCH_ITERS, BENCH_ITERS
    return max(int(config.num_warmup * 0.3), 50), max(int(config.num_samples * 0.3), 50)


def _run(entry, data, warmup, samples, chain_method):
    compiled = compile_model(entry.source, backend="numpyro", scheme="comprehensive",
                             name=entry.name)
    potential = compiled.potential(data)
    kernel = NUTS(potential, max_tree_depth=entry.config.max_tree_depth)
    mcmc = MCMC(kernel, num_warmup=warmup, num_samples=samples,
                num_chains=NUM_CHAINS, seed=0, chain_method=chain_method)
    start = time.perf_counter()
    mcmc.run()
    widths = {d["key"] for d in potential.decisions() if d["path"] == "batched"}
    return mcmc, time.perf_counter() - start, sorted(widths)


def test_vectorized_chain_speedup(benchmark):
    def run_table():
        rows = []
        for name in TABLE5_ENTRIES:
            entry = get(name)
            data = entry.data()
            warmup, samples = _iters(entry.config)
            seq, seq_time, _ = _run(entry, data, warmup, samples, "sequential")
            vec, vec_time, widths = _run(entry, data, warmup, samples, "vectorized")
            seq_draws = seq.get_samples(group_by_chain=True)
            vec_draws = vec.get_samples(group_by_chain=True)
            identical = all(
                np.array_equal(vec_draws[site], seq_draws[site], equal_nan=True)
                for site in seq_draws
            )
            rows.append((entry.name, seq_time, vec_time, identical, widths))
        return rows

    rows = benchmark.pedantic(run_table, rounds=1, iterations=1)
    lines = [f"{'entry':<28} {'sequential':>12} {'vectorized':>12} {'speedup':>9}  "
             f"({NUM_CHAINS} chains, NUTS, same seed)"]
    speedups = []
    for name, seq_time, vec_time, identical, _ in rows:
        speedup = seq_time / vec_time
        speedups.append(speedup)
        lines.append(f"{name:<28} {seq_time:10.2f}s {vec_time:10.2f}s {speedup:8.2f}x"
                     f"{'' if identical else '  DRAWS DIVERGED'}")
    lines.append(f"{'geometric mean':<28} {'':>12} {'':>12} "
                 f"{float(np.exp(np.mean(np.log(speedups)))):8.2f}x")
    record("Vectorized multi-chain engine — 4-chain NUTS speedup", lines)
    mean_speedup = float(np.exp(np.mean(np.log(speedups))))
    record_json("BENCH_vectorized.json", {
        "num_chains": NUM_CHAINS,
        "rows": [{"entry": name, "sequential_seconds": seq_time,
                  "vectorized_seconds": vec_time, "speedup": seq_time / vec_time,
                  "identical_draws": bool(identical),
                  "classified_widths": widths}
                 for name, seq_time, vec_time, identical, widths in rows],
        "geometric_mean_speedup": mean_speedup,
        # the regression guard (check_bench_regressions.py) gates on this;
        # cut runs record no threshold — timings are meaningless there
        "speedup_threshold": 2.0 if FULL_RUN else None,
    })

    # The vectorized path is only a valid optimisation if it is a bitwise
    # re-ordering of the same computation.
    assert all(identical for *_, identical, _ in rows)
    if FULL_RUN:
        assert mean_speedup >= 2.0, f"expected >=2x aggregate speedup, got {mean_speedup:.2f}x"
