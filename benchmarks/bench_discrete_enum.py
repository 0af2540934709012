"""Discrete-latent enumeration vs hand-marginalization (BENCH_discrete.json).

The flagship "model class Stan forbids" of the paper: models with bounded
``int`` parameters.  Each registered workload pair runs NUTS twice —

* the enumerated formulation (``int`` parameters, ``enum="auto"``, exact
  marginalization by the engine), and
* the hand-marginalized formulation (``log_sum_exp`` algebra in the model
  block, the rewrite Stan forces on users today)

— and the bench asserts the paper-style accuracy criterion between the two
continuous posteriors: same posterior, no manual algebra.  The enumerated
side also recovers the per-observation assignment posteriors
(:func:`repro.enum.infer_discrete`), which the hand-marginalized model
cannot express at all.

``REPRO_BENCH_ITERS`` (CI smoke) scales the iteration counts down; results
are appended to ``results.txt`` and emitted as ``BENCH_discrete.json``.
"""

import os

import numpy as np
import pytest
from conftest import record, record_json

from repro.evaluation.discrete import discrete_enumeration_experiment
from repro.posteriordb import get

BENCH_ITERS = int(os.environ.get("REPRO_BENCH_ITERS", "0"))
FULL_RUN = BENCH_ITERS == 0
SCALE = 1.0 if FULL_RUN else max(BENCH_ITERS / 200.0, 0.05)


def test_discrete_enumeration_vs_hand_marginalization(benchmark):
    results = benchmark.pedantic(discrete_enumeration_experiment,
                                 kwargs={"scale": SCALE, "seed": 0},
                                 rounds=1, iterations=1)

    lines = [f"{'workload':<36} {'match':>6} {'rel.err':>8} {'mcse-z':>7} "
             f"{'enum[s]':>8} {'manual[s]':>10} {'table':>6} {'strategy':>9}"]
    payload = {"scale": SCALE, "workloads": {}}
    for name, comp in results.items():
        lines.append(
            f"{name:<36} {'ok' if comp.accuracy_passed else 'FAIL':>6} "
            f"{comp.relative_error:>8.4f} {comp.max_mcse_sigmas:>7.2f} "
            f"{comp.enum_runtime_seconds:>8.2f} "
            f"{comp.marginal_runtime_seconds:>10.2f} {comp.table_size:>6} "
            f"{comp.enum_strategy:>9}")
        payload["workloads"][name] = {
            "marginal_entry": comp.marginal_entry,
            "accuracy_passed": bool(comp.accuracy_passed),
            "relative_error": comp.relative_error,
            "max_mcse_sigmas": comp.max_mcse_sigmas,
            "enum_runtime_seconds": comp.enum_runtime_seconds,
            "marginal_runtime_seconds": comp.marginal_runtime_seconds,
            "table_size": comp.table_size,
            "enum_strategy": comp.enum_strategy,
            "engine": comp.engine,
            "mean_responsibilities": {
                site: probs.tolist()
                for site, probs in comp.responsibilities.items()
            },
        }
    lines.append("[enumerated NUTS recovers the hand-marginalized posterior "
                 "without any manual log_sum_exp algebra]")
    record("BENCH_discrete — enumeration vs hand-marginalization", lines)
    record_json("BENCH_discrete.json", payload)

    for comp in results.values():
        # Two finite NUTS runs of the same posterior agree up to Monte Carlo
        # error: every posterior-mean difference within a few combined MCSEs
        # (the paper's 0.3-sigma criterion is also recorded above, but at a
        # few hundred draws its threshold is of the same order as the MCSE).
        assert comp.max_mcse_sigmas < 4.0, (comp.enum_entry, comp.max_mcse_sigmas)
        # every responsibility row is a (near-)normalized distribution
        for probs in comp.responsibilities.values():
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


def test_hmm_enumeration_runs_without_forward_algorithm(benchmark):
    """The HMM workload: exact path-sum by enumeration, no hand-written
    forward algorithm, posterior over the emission means recovered."""
    from repro.core import compile_model

    entry = get("hmm_enum-synthetic_hmm")
    scale = SCALE

    def run_hmm():
        compiled = compile_model(entry.source, backend="numpyro",
                                 scheme="comprehensive", name=entry.name,
                                 enum=entry.enum)
        model = compiled.condition(entry.data())
        fit = model.fit("nuts",
                        num_warmup=max(int(entry.config.num_warmup * scale), 10),
                        num_samples=max(int(entry.config.num_samples * scale), 10),
                        seed=0, max_tree_depth=entry.config.max_tree_depth)
        return model, fit

    model, fit = benchmark.pedantic(run_hmm, rounds=1, iterations=1)
    summary = fit.posterior.summary()
    potential = model.potential(0)
    discrete = model.infer_discrete(fit, mode="max")
    map_path = discrete.draws["z"][0, -1]
    record("BENCH_discrete — HMM by enumeration", [
        f"table size: {potential.enum_plan.table_size} paths, "
        f"strategy: {potential.enum_strategy}",
        f"mu[1] = {summary['mu[0]']['mean']:.2f}, mu[2] = {summary['mu[1]']['mean']:.2f} "
        "[generating values: -1, +1]",
        f"MAP state path (last draw): {map_path.astype(int).tolist()}",
    ])
    if FULL_RUN:
        assert summary["mu[0]"]["mean"] < 0 < summary["mu[1]"]["mean"]


def test_structured_enumeration_scales_linearly(benchmark):
    """The asymptotic gate for the structured engine (BENCH_enum_scaling.json).

    Measures steady-state ``potential_and_grad`` cost of the mixture at
    N=250 vs N=500 (per-element enumeration) and the 4-state HMM at T=100 vs
    T=200 (chain elimination) — sizes whose joint table (``2^N`` / ``4^T``)
    is unrepresentable, so a regression back to the exponential path cannot
    even complete.  Runs under **both** evaluation engines (the interpreted
    tape and the fused compiled tape) and asserts, for each, that the
    contract strategy resolved and that cost grows at most linearly
    (x2 slack for timer noise) in N / T at fixed K, i.e. the measured
    O(N*K) / O(T*K^2) asymptotic.
    """
    from repro.evaluation.discrete import enum_scaling_experiment

    def run_both_engines():
        return {engine: enum_scaling_experiment(repeats=3, seed=0, engine=engine)
                for engine in ("interpreted", "compiled")}

    by_engine = benchmark.pedantic(run_both_engines, rounds=1, iterations=1)
    lines = [f"{'workload':<32} {'sizes':>12} {'eval[s]':>20} "
             f"{'cost ratio':>10} {'bound':>6}"]
    payload = {"workloads": {}}
    for engine, results in by_engine.items():
        for name, scaling in results.items():
            bound = 2.0 * scaling.size_ratio
            label = f"{name}[{engine}]"
            lines.append(
                f"{label:<32} {str(scaling.sizes):>12} "
                f"{scaling.eval_seconds[0]:>9.4f} {scaling.eval_seconds[1]:>9.4f} "
                f"{scaling.cost_ratio:>10.2f} {bound:>6.1f}")
            payload["workloads"][label] = {
                "sizes": list(scaling.sizes),
                "eval_seconds": list(scaling.eval_seconds),
                "cost_ratio": scaling.cost_ratio,
                "cost_ratio_bound": bound,
                "strategies": list(scaling.strategies),
                "engine": scaling.engine,
            }
            assert scaling.strategies == ("contract", "contract"), scaling
            # Linear growth in the element count at fixed K: doubling the
            # size must cost at most ~2x (the joint table would be 2^250
            # times worse for the mixture step alone).
            assert scaling.cost_ratio <= bound, scaling
    lines.append("[cost grows linearly in N/T under both engines: per-element "
                 "O(N*K) and chain-elimination O(T*K^2), never the K^N table]")
    record("BENCH_enum_scaling — structured enumeration asymptotics", lines)
    record_json("BENCH_enum_scaling.json", payload)


@pytest.mark.skipif(
    not FULL_RUN and not os.environ.get("REPRO_ENUM_SCALING"),
    reason="NUTS at N=500 / T=200 is the enum-scaling job's budget, not the "
           "smoke cut's (set REPRO_ENUM_SCALING=1 to force)")
def test_unrepresentable_table_workloads_match_hand_marginalization(benchmark):
    """The enum-scaling gate: mixture at N=500 and the 4-state HMM at T=200.

    The joint assignment tables would hold 2^500 and 4^200 entries — only
    the contract path can run these — and the recovered posteriors must
    agree with the hand-marginalized twins within Monte Carlo error.
    CI runs this in the dedicated ``enum-scaling`` job under a wall-clock
    budget; the smoke job skips it (cut draw counts would make the
    agreement assertion vacuous anyway).
    """
    from repro.evaluation.discrete import SCALING_PAIRS, run_discrete_comparison

    scale = 1.0 if FULL_RUN else max(BENCH_ITERS / 40.0, 0.25)

    def run_pairs():
        return {
            enum_name: run_discrete_comparison(get(enum_name), get(marginal_name),
                                               scale=scale, seed=0)
            for enum_name, marginal_name in SCALING_PAIRS
        }

    results = benchmark.pedantic(run_pairs, rounds=1, iterations=1)
    lines = [f"{'workload':<40} {'mcse-z':>7} {'enum[s]':>8} {'manual[s]':>10} "
             f"{'log10(table)':>13} {'strategy':>11}"]
    payload = {"scale": scale, "workloads": {}}
    for name, comp in results.items():
        digits = len(str(comp.table_size)) - 1
        lines.append(
            f"{name:<40} {comp.max_mcse_sigmas:>7.2f} "
            f"{comp.enum_runtime_seconds:>8.1f} "
            f"{comp.marginal_runtime_seconds:>10.1f} {digits:>13} "
            f"{comp.enum_strategy:>11}")
        payload["workloads"][name] = {
            "marginal_entry": comp.marginal_entry,
            "max_mcse_sigmas": comp.max_mcse_sigmas,
            "enum_runtime_seconds": comp.enum_runtime_seconds,
            "marginal_runtime_seconds": comp.marginal_runtime_seconds,
            "table_size_digits": digits,
            "enum_strategy": comp.enum_strategy,
            "engine": comp.engine,
        }
        assert comp.enum_strategy == "contract", (name, comp.enum_strategy)
        # the whole point: the joint table is unrepresentable at these sizes
        assert comp.table_size > 10 ** 100, (name, comp.table_size)
        assert comp.max_mcse_sigmas < 4.0, (name, comp.max_mcse_sigmas)
    lines.append("[posteriors at joint-table-unrepresentable sizes match the "
                 "hand-marginalized twins within Monte Carlo error]")
    record("BENCH_enum_scaling — unrepresentable-table workloads", lines)
    record_json("BENCH_enum_scaling_posteriors.json", payload)


def test_contract_enumeration_scales_linearly(benchmark):
    """The asymptotic gate for the contraction engine (BENCH_enum_contract.json).

    Measures steady-state ``potential_and_grad`` cost of the factorial HMM
    (ladder factor graph, treewidth 3) at T=50 vs T=100 and the tree-coupled
    mixture at N=100 vs N=200 — sizes whose joint tables (``4^T`` / ``2^N``)
    are unrepresentable, reachable only through greedy tensor variable
    elimination.  Asserts that both sizes resolve to the ``contract``
    strategy and that cost stays linear in the element count at fixed
    treewidth, on two independent axes: the measured wall-clock (x2 slack
    for timer noise) and the *deterministic* planner cost (total
    contraction-table entries, x1.1 slack for the constant term).
    """
    from repro.evaluation.discrete import contract_scaling_experiment

    results = benchmark.pedantic(
        lambda: contract_scaling_experiment(repeats=3, seed=0,
                                            engine="interpreted"),
        rounds=1, iterations=1)
    lines = [f"{'workload':<24} {'sizes':>12} {'eval[s]':>20} "
             f"{'cost ratio':>10} {'plan ratio':>10} {'bound':>6}"]
    payload = {"workloads": {}}
    for name, scaling in results.items():
        bound = 2.0 * scaling.size_ratio
        lines.append(
            f"{name:<24} {str(scaling.sizes):>12} "
            f"{scaling.eval_seconds[0]:>9.4f} {scaling.eval_seconds[1]:>9.4f} "
            f"{scaling.cost_ratio:>10.2f} {scaling.planner_cost_ratio:>10.2f} "
            f"{bound:>6.1f}")
        payload["workloads"][name] = {
            "sizes": list(scaling.sizes),
            "eval_seconds": list(scaling.eval_seconds),
            "cost_ratio": scaling.cost_ratio,
            "cost_ratio_bound": bound,
            "planner_costs": list(scaling.planner_costs),
            "planner_cost_ratio": scaling.planner_cost_ratio,
            "strategies": list(scaling.strategies),
            "engine": scaling.engine,
        }
        assert scaling.strategies == ("contract", "contract"), scaling
        # Exact, timer-free asymptotic: total clique entries grow linearly
        # in T / N at fixed treewidth (doubling the size at most ~doubles
        # the planner cost; 1.1x covers the constant endpoint cliques).
        assert scaling.planner_cost_ratio <= 1.1 * scaling.size_ratio, scaling
        assert scaling.cost_ratio <= bound, scaling
    lines.append("[greedy elimination keeps cost linear in T/N at fixed "
                 "treewidth: ladder and tree coupling never build the "
                 "4^T / 2^N joint table]")
    record("BENCH_enum_contract — contraction asymptotics", lines)
    record_json("BENCH_enum_contract.json", payload)


@pytest.mark.skipif(
    not FULL_RUN and not os.environ.get("REPRO_ENUM_SCALING"),
    reason="NUTS on the factorial HMM / tree workloads is the enum-scaling "
           "job's budget, not the smoke cut's (set REPRO_ENUM_SCALING=1 to "
           "force)")
def test_contract_workloads_match_hand_marginalization(benchmark):
    """The contract-strategy gate: factorial HMM at T=100, tree mix at N=200.

    The joint assignment tables would hold 4^100 and 2^200 entries — beyond
    the joint engine, with cross-site / cross-element coupling that needs a
    general elimination order — and the posteriors recovered through greedy
    tensor variable elimination must agree with the hand-marginalized twins
    (product-chain forward algorithm / upward belief propagation) within
    Monte Carlo error.  Runs in the dedicated ``enum-scaling`` CI job.
    """
    from repro.evaluation.discrete import CONTRACT_PAIRS, run_discrete_comparison

    scale = 1.0 if FULL_RUN else max(BENCH_ITERS / 40.0, 0.25)

    def run_pairs():
        return {
            enum_name: run_discrete_comparison(get(enum_name), get(marginal_name),
                                               scale=scale, seed=0)
            for enum_name, marginal_name in CONTRACT_PAIRS
        }

    results = benchmark.pedantic(run_pairs, rounds=1, iterations=1)
    lines = [f"{'workload':<40} {'mcse-z':>7} {'enum[s]':>8} {'manual[s]':>10} "
             f"{'log10(table)':>13} {'strategy':>11}"]
    payload = {"scale": scale, "workloads": {}}
    for name, comp in results.items():
        digits = len(str(comp.table_size)) - 1
        lines.append(
            f"{name:<40} {comp.max_mcse_sigmas:>7.2f} "
            f"{comp.enum_runtime_seconds:>8.1f} "
            f"{comp.marginal_runtime_seconds:>10.1f} {digits:>13} "
            f"{comp.enum_strategy:>11}")
        payload["workloads"][name] = {
            "marginal_entry": comp.marginal_entry,
            "max_mcse_sigmas": comp.max_mcse_sigmas,
            "enum_runtime_seconds": comp.enum_runtime_seconds,
            "marginal_runtime_seconds": comp.marginal_runtime_seconds,
            "table_size_digits": digits,
            "enum_strategy": comp.enum_strategy,
            "engine": comp.engine,
        }
        assert comp.enum_strategy == "contract", (name, comp.enum_strategy)
        # the whole point: the joint table is unrepresentable at these sizes
        assert comp.table_size > 10 ** 50, (name, comp.table_size)
        assert comp.max_mcse_sigmas < 4.0, (name, comp.max_mcse_sigmas)
    lines.append("[cross-site-coupled posteriors at joint-table-"
                 "unrepresentable sizes match the hand-marginalized twins "
                 "within Monte Carlo error]")
    record("BENCH_enum_contract — coupled workloads vs hand-marginalization",
           lines)
    record_json("BENCH_enum_contract_posteriors.json", payload)
