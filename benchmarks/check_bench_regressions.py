#!/usr/bin/env python
"""Benchmark regression guard: turn the BENCH_*.json artifacts into a gate.

The CI smoke job produces ``BENCH_*.json`` files and uploads them as
artifacts; without a check, a regression that still *completes* (a strategy
demotion, a blown-out posterior disagreement, a vanished speedup) would ride
along silently — the artifact upload is a dump, not a gate.  This script
loads whichever of the known artifacts exist in the directory and fails
(exit 1) if any recorded assertion field regressed past its threshold:

* ``BENCH_discrete.json`` — every workload's ``max_mcse_sigmas`` < 4 (the
  honest two-finite-runs agreement metric), ``accuracy_passed`` true, and
  responsibilities present;
* ``BENCH_enum_scaling.json`` — both workloads resolved the ``contract``
  strategy and per-evaluation cost grew at most linearly (the recorded
  ``cost_ratio`` <= its recorded bound);
* ``BENCH_enum_scaling_posteriors.json`` — the unrepresentable-table
  workloads stayed on the contraction path and within
  ``max_mcse_sigmas`` < 4;
* ``BENCH_enum_contract.json`` — the cross-site-coupled workloads
  (factorial HMM, tree-coupled mixture) resolved the ``contract`` strategy
  and both the wall-clock cost ratio and the deterministic planner cost
  ratio stayed linear in the element count at fixed treewidth;
* ``BENCH_enum_contract_posteriors.json`` — the coupled workloads stayed on
  the contraction path and within ``max_mcse_sigmas`` < 4;
* ``BENCH_compiled_tape.json`` — every workload's compiled program stayed
  in a validated tier (``fast``/``value_fast``), the compiled-over-
  interpreted gradient speedup stayed >= the recorded threshold, and a
  forward program with a recorded ``forward_lines_cap`` (the mixture
  twin's, the same cap at N=100 and N=500) stayed within it — a count, so
  runner noise cannot flake it;
* ``BENCH_vectorized.json`` — the geometric-mean multi-chain speedup stayed
  >= the recorded assertion threshold, when the file records one, and no
  vectorized fit classified more than one batch width (straggler batches
  are served by the chain-count width — a count, so noise cannot flake it);
* ``BENCH_obs_overhead.json`` — the default (telemetry-off) evaluation path
  stayed within the recorded overhead cap of the engine-dispatch floor and
  telemetry never perturbed an evaluation result;
* ``BENCH_serving.json`` — batched serving throughput stayed >= the recorded
  multiple of sequential, the micro-batcher used strictly fewer batched
  evaluations than requests, every response carried a k-hat, and served
  draws stayed bitwise-identical to the direct guide evaluation;
* ``BENCH_smc.json`` — every streaming workload's final ``extend()`` still
  beat the full NUTS refit wall-clock (``speedup >= speedup_min``) and the
  streaming posterior agreed with the refit twin within
  ``max_mcse_sigmas`` < 4.

Usage::

    python benchmarks/check_bench_regressions.py [directory]

Missing files are reported but do not fail the check (benchmark cuts differ
between jobs); a present file with a regressed field does.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Callable, Dict, List

MCSE_SIGMAS_THRESHOLD = 4.0


def _check_discrete(payload: dict, problems: List[str]) -> None:
    for name, row in payload.get("workloads", {}).items():
        sigmas = row.get("max_mcse_sigmas")
        if sigmas is None or sigmas >= MCSE_SIGMAS_THRESHOLD:
            problems.append(
                f"BENCH_discrete: {name} max_mcse_sigmas={sigmas!r} "
                f"(threshold < {MCSE_SIGMAS_THRESHOLD})")
        if not row.get("accuracy_passed", False):
            problems.append(f"BENCH_discrete: {name} accuracy_passed is false")
        if not row.get("mean_responsibilities"):
            problems.append(f"BENCH_discrete: {name} has no responsibilities")


def _check_enum_scaling(payload: dict, problems: List[str]) -> None:
    for name, row in payload.get("workloads", {}).items():
        strategies = row.get("strategies", [])
        if any(s != "contract" for s in strategies):
            problems.append(
                f"BENCH_enum_scaling: {name} strategies={strategies!r} "
                "(regressed off the contraction path)")
        ratio = row.get("cost_ratio")
        bound = row.get("cost_ratio_bound")
        if ratio is None or bound is None or ratio > bound:
            problems.append(
                f"BENCH_enum_scaling: {name} cost_ratio={ratio!r} exceeds "
                f"bound {bound!r} (super-linear growth)")


def _check_enum_posteriors(payload: dict, problems: List[str]) -> None:
    for name, row in payload.get("workloads", {}).items():
        if row.get("enum_strategy") != "contract":
            problems.append(
                f"BENCH_enum_scaling_posteriors: {name} "
                f"strategy={row.get('enum_strategy')!r} (expected contract)")
        sigmas = row.get("max_mcse_sigmas")
        if sigmas is None or sigmas >= MCSE_SIGMAS_THRESHOLD:
            problems.append(
                f"BENCH_enum_scaling_posteriors: {name} "
                f"max_mcse_sigmas={sigmas!r} (threshold < {MCSE_SIGMAS_THRESHOLD})")


def _check_enum_contract(payload: dict, problems: List[str]) -> None:
    for name, row in payload.get("workloads", {}).items():
        strategies = row.get("strategies", [])
        if any(s != "contract" for s in strategies):
            problems.append(
                f"BENCH_enum_contract: {name} strategies={strategies!r} "
                "(regressed off the contraction path)")
        ratio = row.get("cost_ratio")
        bound = row.get("cost_ratio_bound")
        if ratio is None or bound is None or ratio > bound:
            problems.append(
                f"BENCH_enum_contract: {name} cost_ratio={ratio!r} exceeds "
                f"bound {bound!r} (super-linear growth)")
        plan_ratio = row.get("planner_cost_ratio")
        sizes = row.get("sizes") or []
        size_ratio = sizes[1] / sizes[0] if len(sizes) == 2 and sizes[0] else None
        if plan_ratio is None or size_ratio is None or \
                plan_ratio > 1.1 * size_ratio:
            problems.append(
                f"BENCH_enum_contract: {name} planner_cost_ratio="
                f"{plan_ratio!r} exceeds 1.1x the size ratio {size_ratio!r} "
                "(elimination cost no longer linear at fixed treewidth)")


def _check_contract_posteriors(payload: dict, problems: List[str]) -> None:
    for name, row in payload.get("workloads", {}).items():
        if row.get("enum_strategy") != "contract":
            problems.append(
                f"BENCH_enum_contract_posteriors: {name} "
                f"strategy={row.get('enum_strategy')!r} (expected contract)")
        sigmas = row.get("max_mcse_sigmas")
        if sigmas is None or sigmas >= MCSE_SIGMAS_THRESHOLD:
            problems.append(
                f"BENCH_enum_contract_posteriors: {name} "
                f"max_mcse_sigmas={sigmas!r} (threshold < {MCSE_SIGMAS_THRESHOLD})")


def _check_compiled_tape(payload: dict, problems: List[str]) -> None:
    threshold = payload.get("speedup_threshold")
    for name, row in payload.get("workloads", {}).items():
        mode = row.get("tape_mode")
        if mode not in ("fast", "value_fast"):
            problems.append(
                f"BENCH_compiled_tape: {name} tape_mode={mode!r} "
                "(compiled program demoted off the validated fast tiers)")
        speedup = row.get("speedup")
        if threshold is None or speedup is None or speedup < threshold:
            problems.append(
                f"BENCH_compiled_tape: {name} speedup={speedup!r} fell below "
                f"the recorded threshold {threshold!r}")
        cap = row.get("forward_lines_cap")
        lines = row.get("forward_lines")
        if cap is not None and (lines is None or lines > cap):
            problems.append(
                f"BENCH_compiled_tape: {name} forward_lines={lines!r} exceeds "
                f"the recorded cap {cap!r} (the program grew with the data)")


def _check_obs_overhead(payload: dict, problems: List[str]) -> None:
    cap = payload.get("overhead_pct_max")
    for name, row in payload.get("workloads", {}).items():
        pct = row.get("disabled_overhead_pct")
        if cap is None or pct is None or pct > cap:
            problems.append(
                f"BENCH_obs_overhead: {name} disabled_overhead_pct={pct!r} "
                f"exceeds the recorded cap {cap!r}")
        if not row.get("bitwise_with_telemetry", False):
            problems.append(
                f"BENCH_obs_overhead: {name} telemetry perturbed evaluation "
                "results (bitwise_with_telemetry is false)")


def _check_serving(payload: dict, problems: List[str]) -> None:
    speedup = payload.get("speedup")
    threshold = payload.get("speedup_min")
    if speedup is None or threshold is None or speedup < threshold:
        problems.append(
            f"BENCH_serving: speedup={speedup!r} fell below the recorded "
            f"threshold {threshold!r}")
    evals = payload.get("batch_evals")
    concurrency = payload.get("concurrency")
    if evals is None or concurrency is None or evals >= concurrency:
        problems.append(
            f"BENCH_serving: batch_evals={evals!r} for "
            f"concurrency={concurrency!r} (micro-batcher did not coalesce)")
    if not payload.get("khat_all_present", False):
        problems.append("BENCH_serving: a response shipped without a k-hat")
    if not payload.get("bitwise_with_query_direct", False):
        problems.append(
            "BENCH_serving: served draws diverged from the direct guide "
            "evaluation (bitwise_with_query_direct is false)")


def _check_smc(payload: dict, problems: List[str]) -> None:
    threshold = payload.get("mcse_sigmas_threshold", MCSE_SIGMAS_THRESHOLD)
    for name, row in payload.get("workloads", {}).items():
        sigmas = row.get("max_mcse_sigmas")
        if sigmas is None or sigmas >= threshold:
            problems.append(
                f"BENCH_smc: {name} max_mcse_sigmas={sigmas!r} "
                f"(threshold < {threshold})")
        if not row.get("agreement_passed", False):
            problems.append(f"BENCH_smc: {name} agreement_passed is false")
        speedup = row.get("speedup")
        speedup_min = row.get("speedup_min")
        if speedup is None or speedup_min is None or speedup < speedup_min:
            problems.append(
                f"BENCH_smc: {name} speedup={speedup!r} — extend() no longer "
                f"beats the full refit (threshold >= {speedup_min!r})")


def _check_vectorized(payload: dict, problems: List[str]) -> None:
    speedup = payload.get("geometric_mean_speedup")
    threshold = payload.get("speedup_threshold")
    if speedup is not None and threshold is not None and speedup < threshold:
        problems.append(
            f"BENCH_vectorized: geometric_mean_speedup={speedup!r} fell below "
            f"the recorded threshold {threshold!r}")
    for row in payload.get("rows", []):
        widths = row.get("classified_widths", [])
        if len(widths) > 1:
            problems.append(
                f"BENCH_vectorized: {row.get('entry')} classified batch widths "
                f"{widths!r}; one width must serve every batch size")


CHECKS: Dict[str, Callable[[dict, List[str]], None]] = {
    "BENCH_discrete.json": _check_discrete,
    "BENCH_enum_scaling.json": _check_enum_scaling,
    "BENCH_enum_scaling_posteriors.json": _check_enum_posteriors,
    "BENCH_enum_contract.json": _check_enum_contract,
    "BENCH_enum_contract_posteriors.json": _check_contract_posteriors,
    "BENCH_compiled_tape.json": _check_compiled_tape,
    "BENCH_vectorized.json": _check_vectorized,
    "BENCH_obs_overhead.json": _check_obs_overhead,
    "BENCH_serving.json": _check_serving,
    "BENCH_smc.json": _check_smc,
}


def main(argv: List[str]) -> int:
    directory = pathlib.Path(argv[1]) if len(argv) > 1 else \
        pathlib.Path(__file__).resolve().parent
    problems: List[str] = []
    seen = 0
    for filename, check in CHECKS.items():
        path = directory / filename
        if not path.exists():
            print(f"[skip] {filename}: not produced by this run")
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{filename}: unreadable ({exc})")
            continue
        seen += 1
        before = len(problems)
        check(payload, problems)
        status = "ok" if len(problems) == before else "REGRESSED"
        print(f"[{status}] {filename}")
    if seen == 0:
        print("no BENCH_*.json artifacts found — nothing to gate", file=sys.stderr)
        return 1
    if problems:
        print("\nbenchmark regressions detected:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"\n{seen} artifact(s) checked, no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
