"""Table 3: accuracy and speed of the backends against the Stan reference.

For each selected registry entry the Stan-reference NUTS run provides the
reference posterior and baseline runtime; the NumPyro backend is then run
under the comprehensive, mixed and (where applicable) generative schemes and
the Pyro backend under the comprehensive scheme.  Accuracy uses the paper's
30%-of-reference-stddev criterion, and the headline number is the
geometric-mean speedup of NumPyro (comprehensive) over Stan.
"""

import numpy as np
from conftest import record

from repro.evaluation.harness import (
    accuracy_and_speed_row,
    geometric_mean_speedup,
    run_reference,
)
from repro.posteriordb import get

# A representative slice of Table 3's rows, scaled down (see "Substitutions"
# under "Tests and benchmarks" in README.md).
TABLE3_ENTRIES = [
    "coin-flips",
    "eight_schools_centered-eight_schools",
    "eight_schools_noncentered-eight_schools",
    "earn_height-earnings",
    "kidscore_momiq-kidiq",
    "mesquite-mesquite",
    "nes-nes1980",
    "kilpisjarvi-kilpisjarvi_mod",
    "blr-sblri",
    "garch11-garch",
    "gp_regr-gp_pois_regr",
    "lotka_volterra-hudson_lynx_hare",
]

SCALE = 0.25  # fraction of each entry's reference iteration budget


def _symbol(row):
    return {"match": "ok", "mismatch": "MISMATCH", "error": "error"}[row.status]


def test_table3_accuracy_and_speed(benchmark):
    def run_table():
        rows = []
        stan_times, numpyro_times = [], []
        for name in TABLE3_ENTRIES:
            entry = get(name)
            if entry.expect_unsupported:
                reference, stan_time = {}, float("nan")
            else:
                reference, stan_time = run_reference(entry, scale=SCALE)
            cells = {}
            for backend, scheme in (("numpyro", "comprehensive"), ("numpyro", "mixed"),
                                    ("numpyro", "generative"), ("pyro", "comprehensive")):
                cells[(backend, scheme)] = accuracy_and_speed_row(
                    entry, reference, backend=backend, scheme=scheme, scale=SCALE)
            rows.append((entry, stan_time, cells))
            main = cells[("numpyro", "comprehensive")]
            if np.isfinite(stan_time) and main.status == "match":
                stan_times.append(stan_time)
                numpyro_times.append(main.runtime_seconds)
        return rows, stan_times, numpyro_times

    rows, stan_times, numpyro_times = benchmark.pedantic(run_table, rounds=1, iterations=1)

    header = (f"{'entry':<42} {'Stan[s]':>8} {'NP-compr':>12} {'NP-mixed':>12} "
              f"{'NP-gener':>12} {'Pyro-compr':>12} {'speedup':>8}")
    lines = [header]
    for entry, stan_time, cells in rows:
        main = cells[("numpyro", "comprehensive")]
        speedup = stan_time / main.runtime_seconds if np.isfinite(stan_time) and main.status == "match" else float("nan")
        lines.append(
            f"{entry.name:<42} {stan_time:>8.2f} "
            f"{_symbol(cells[('numpyro', 'comprehensive')]):>4}/{cells[('numpyro', 'comprehensive')].runtime_seconds:>6.2f} "
            f"{_symbol(cells[('numpyro', 'mixed')]):>4}/{cells[('numpyro', 'mixed')].runtime_seconds:>6.2f} "
            f"{_symbol(cells[('numpyro', 'generative')]):>4}/{cells[('numpyro', 'generative')].runtime_seconds:>6.2f} "
            f"{_symbol(cells[('pyro', 'comprehensive')]):>4}/{cells[('pyro', 'comprehensive')].runtime_seconds:>6.2f} "
            f"{speedup:>8.2f}")
    geo = geometric_mean_speedup(stan_times, numpyro_times)
    lines.append(f"geometric-mean speedup (NumPyro comprehensive vs Stan reference): {geo:.2f}x "
                 f"[paper: 2.3x over 26 benchmarks]")
    record("Table 3 — accuracy and speed vs the Stan reference", lines)

    # Shape assertions: most supported entries match; unsupported ones error.
    supported = [cells[("numpyro", "comprehensive")] for entry, _, cells in rows
                 if not entry.expect_unsupported and not entry.expect_mismatch]
    matches = sum(1 for row in supported if row.status == "match")
    assert matches >= int(0.7 * len(supported))
    unsupported = [cells[("numpyro", "comprehensive")] for entry, _, cells in rows
                   if entry.expect_unsupported]
    assert all(row.status == "error" for row in unsupported)
    assert geo > 1.0  # the compiled vectorised backend beats the interpreted reference
