"""Amortized serving throughput gate (BENCH_serving.json).

The serving layer's economic claim is that coalescing concurrent queries
into micro-batches amortizes the per-request cost: one trained guide
answers N concurrent queries with far fewer than N batched evaluations.
This bench trains one amortized eight-schools guide, warms the per-dataset
cache (potentials + k-hat scores, the one-time cost of a cold dataset),
and then serves the same 64-request workload two ways through identically
configured servers sharing one registry:

* ``batched`` — all 64 requests in flight at once (``serve_many``): the
  micro-batcher coalesces them, so the batching window and the executor
  round trips are paid per *batch*;
* ``sequential`` — the same requests awaited one at a time: every request
  pays the full batching window and round trip alone.

One burst of the batched arm lasts ~50 ms, too short for one timing to
resolve anything on a shared host, so both arms run ``REPEATS``
interleaved repetitions of the workload; the JSON records every
repetition's speedup and their quartiles, and ``speedup`` is their median.

The gate: median batched throughput >= ``SPEEDUP_MIN`` x sequential, and
every measured repetition used strictly fewer batched evaluations than
requests.
Also recorded (and gated by the regression guard): every response carries
a finite k-hat, and sampled responses are bitwise-identical to
``AmortizedModel.query_direct``.  ``REPRO_BENCH_ITERS`` (CI smoke) shrinks
the training run, not the concurrency — 64 concurrent queries *is* the
acceptance workload.
"""

import os
import time
import warnings

import numpy as np
from conftest import record, record_json

from repro.serve import (
    AmortizedModel,
    ModelRegistry,
    PosteriorServer,
    ServerConfig,
    make_request,
)

BENCH_ITERS = int(os.environ.get("REPRO_BENCH_ITERS", "0"))
FULL_RUN = BENCH_ITERS == 0

#: the acceptance bar: batched serving throughput over sequential.
SPEEDUP_MIN = 3.0
#: the acceptance workload: this many queries in flight at once.
CONCURRENCY = 64
#: interleaved timed repetitions of the workload per arm.
REPEATS = 7
#: distinct datasets cycled across the workload (each is one cache entry).
POOL = 8
NUM_DRAWS = 32
TRAIN_STEPS = 400 if FULL_RUN else 120

EIGHT_SCHOOLS = """
data {
  int<lower=0> J;
  real y[J];
  real<lower=0> sigma[J];
}
parameters {
  real mu;
  real<lower=0> tau;
  real theta_tilde[J];
}
model {
  mu ~ normal(0, 5);
  tau ~ cauchy(0, 5);
  theta_tilde ~ normal(0, 1);
  for (j in 1:J)
    y[j] ~ normal(mu + tau * theta_tilde[j], sigma[j]);
}
"""

DATA = {
    "J": 8,
    "y": [28.0, 8.0, -3.0, 7.0, -1.0, 1.0, 18.0, 12.0],
    "sigma": [15.0, 10.0, 16.0, 11.0, 9.0, 11.0, 10.0, 18.0],
}

#: one config for both arms — the comparison is the access pattern
#: (concurrent vs one-at-a-time), not the server tuning.  The 5 ms batching
#: window is the realistic serving trade: a solo request waits it out, a
#: concurrent burst fills batches long before it expires.  The wide k-hat
#: threshold keeps the trust gate out of the timing (its fallback path has
#: its own tests); ``khat_min_draws=None`` accepts the small diagnostic
#: draw count with a warning instead of the hard PSIS floor.
CONFIG = ServerConfig(max_batch_size=16, max_wait_ms=5.0, khat_threshold=2.0,
                      khat_draws=64, khat_min_draws=None)


def _datasets():
    return [{**DATA, "y": [v + 0.2 * i for v in DATA["y"]]}
            for i in range(POOL)]


def _requests(datasets):
    return [make_request(datasets[i % POOL], seed=1000 + i,
                         num_draws=NUM_DRAWS, fallback="none")
            for i in range(CONCURRENCY)]


def _latency_ms(responses):
    return np.asarray([r["metadata"]["latency_ms"] for r in responses])


def test_batched_serving_beats_sequential():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # khat draws < PSIS floor
        model = AmortizedModel(EIGHT_SCHOOLS, name="eight_schools",
                               hidden=(16,))
        model.train(DATA, num_steps=TRAIN_STEPS, seed=0, khat_draws=128,
                    khat_min_draws=None)
    registry = ModelRegistry()
    registry.register(model)
    datasets = _datasets()
    requests = _requests(datasets)

    with PosteriorServer(registry, CONFIG) as batched, \
            PosteriorServer(registry, CONFIG) as sequential:
        # Warm everything the measurement should not contain: the shared
        # per-dataset cache (potential + k-hat, built once per dataset),
        # each server's loop/executor threads, and the batched server's
        # fused-vs-rows validation batch.
        batched.serve_many(requests, timeout=600.0)
        for request in requests[:4]:
            sequential.query(request, timeout=600.0)

        batched_walls, sequential_walls, batch_evals = [], [], []
        batched_runs, sequential_runs = [], []
        for _ in range(REPEATS):
            evals_before = batched.metrics.value("serve.batch_evals")
            start = time.perf_counter()
            batched_runs.append(batched.serve_many(requests, timeout=600.0))
            batched_walls.append(time.perf_counter() - start)
            batch_evals.append(
                batched.metrics.value("serve.batch_evals") - evals_before)

            start = time.perf_counter()
            sequential_runs.append([sequential.query(request, timeout=600.0)
                                    for request in requests])
            sequential_walls.append(time.perf_counter() - start)

    batched_responses = [r for run in batched_runs for r in run]
    sequential_responses = [r for run in sequential_runs for r in run]
    assert all(r["status"] == "ok"
               for r in batched_responses + sequential_responses)
    khat_all_present = all(np.isfinite(r["khat"]) for r in batched_responses)

    # The bitwise serving contract, sampled across the dataset pool.
    bitwise = True
    for i in range(0, CONCURRENCY, 13):
        direct = model.query_direct(data=datasets[i % POOL],
                                    num_draws=NUM_DRAWS, seed=1000 + i)
        for site, value in direct["draws"].items():
            for run in batched_runs:
                served = np.asarray(run[i]["draws"][site])
                bitwise = bitwise and np.array_equal(served, value)

    # Per repetition: batched over sequential throughput, i.e. the
    # sequential wall over the batched one.
    speedups = np.asarray(sequential_walls) / np.asarray(batched_walls)
    speedup = float(np.median(speedups))
    batched_wall = float(np.median(batched_walls))
    sequential_wall = float(np.median(sequential_walls))
    batched_qps = CONCURRENCY / batched_wall
    sequential_qps = CONCURRENCY / sequential_wall
    batch_evals = max(batch_evals)
    batched_lat = _latency_ms(batched_responses)
    sequential_lat = _latency_ms(sequential_responses)
    row = {
        "concurrency": CONCURRENCY,
        "dataset_pool": POOL,
        "num_draws": NUM_DRAWS,
        "train_steps": TRAIN_STEPS,
        "repeats": REPEATS,
        "batch_mode": batched_responses[0]["metadata"]["batch_mode"],
        "speedup": speedup,
        "speedups": [float(v) for v in speedups],
        "speedup_quartiles": [float(np.percentile(speedups, 25)),
                              float(np.percentile(speedups, 75))],
        "speedup_min": SPEEDUP_MIN,
        "batch_evals": int(batch_evals),
        "khat_all_present": bool(khat_all_present),
        "bitwise_with_query_direct": bool(bitwise),
        "batched": {
            "wall_seconds": batched_wall,
            "throughput_qps": batched_qps,
            "latency_p50_ms": float(np.percentile(batched_lat, 50)),
            "latency_p95_ms": float(np.percentile(batched_lat, 95)),
        },
        "sequential": {
            "wall_seconds": sequential_wall,
            "throughput_qps": sequential_qps,
            "latency_p50_ms": float(np.percentile(sequential_lat, 50)),
            "latency_p95_ms": float(np.percentile(sequential_lat, 95)),
        },
    }

    record("amortized serving throughput (batched vs sequential)", [
        f"batched:    {batched_qps:8.1f} posteriors/s "
        f"(p50 {row['batched']['latency_p50_ms']:.1f}ms, "
        f"p95 {row['batched']['latency_p95_ms']:.1f}ms, "
        f"at most {batch_evals} batched evals for {CONCURRENCY} requests, "
        f"mode {row['batch_mode']})",
        f"sequential: {sequential_qps:8.1f} posteriors/s "
        f"(p50 {row['sequential']['latency_p50_ms']:.1f}ms, "
        f"p95 {row['sequential']['latency_p95_ms']:.1f}ms)",
        f"speedup: median {speedup:.2f}x over {REPEATS} repetitions "
        f"(quartiles {row['speedup_quartiles'][0]:.2f}-"
        f"{row['speedup_quartiles'][1]:.2f}x; gate >= {SPEEDUP_MIN}x) | "
        f"khat on every response: {khat_all_present} | "
        f"bitwise vs query_direct: {bitwise}",
    ])
    record_json("BENCH_serving.json", row)

    assert khat_all_present, "a served response is missing its k-hat"
    assert bitwise, "served draws diverged from query_direct"
    assert batch_evals < CONCURRENCY, (
        f"{batch_evals} batched evaluations for {CONCURRENCY} requests — "
        "the micro-batcher did not coalesce")
    assert speedup >= SPEEDUP_MIN, (
        f"median batched serving speedup {speedup:.2f}x fell below the "
        f"{SPEEDUP_MIN}x acceptance bar")
