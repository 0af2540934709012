"""The discrete-latent enumeration experiment.

The paper's headline claim is that compiling Stan to a generative PPL
unlocks model classes Stan forbids; the flagship example is discrete latent
variables.  This experiment makes the claim quantitative on a registry
workload pair: the *same* model written

* with explicit ``int`` parameters, compiled with ``enum="auto"`` (exact
  marginalization by the enumeration engine), versus
* with the marginalization done by hand in the model block
  (``log_sum_exp`` algebra — what Stan forces users to write today).

Both define the same posterior over the continuous parameters, so the
experiment reports the paper-style accuracy criterion between the two NUTS
runs, per-backend runtimes, and — for the enumerated side only, because the
hand-marginalized model has lost its discrete structure — the recovered
assignment posteriors from :func:`repro.enum.infer_discrete`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

import numpy as np

from repro.core import compile_model
from repro.corpus import models as corpus_models
from repro.engine import EngineConfig, EnumConfig
from repro.infer import diagnostics
from repro.posteriordb import Entry, datagen, get


@dataclass
class DiscreteComparison:
    """Enumerated-vs-hand-marginalized NUTS comparison on one workload."""

    enum_entry: str
    marginal_entry: str
    accuracy_passed: bool
    relative_error: float
    #: worst per-component |mean difference| in units of the combined Monte
    #: Carlo standard error — the statistically meaningful agreement metric
    #: between two finite MCMC runs of the same posterior (< ~4 is consistent).
    max_mcse_sigmas: float
    enum_runtime_seconds: float
    marginal_runtime_seconds: float
    table_size: int
    enum_strategy: str
    #: resolved evaluation engine of the enumerated run (fit metadata)
    engine: str = "interpreted"
    summaries: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: posterior-mean per-element marginals of each discrete site
    responsibilities: Dict[str, np.ndarray] = field(default_factory=dict)


def mcse_sigmas(summary_a: Dict[str, Dict[str, float]],
                summary_b: Dict[str, Dict[str, float]]) -> float:
    """Worst per-component mean difference in combined-MCSE units.

    ``MCSE = std / sqrt(n_eff)`` per run; the difference of two independent
    runs of the same posterior is ~N(0, MCSE_a^2 + MCSE_b^2), so values
    within a few sigmas mean the runs agree up to Monte Carlo error.
    """
    worst = 0.0
    for name, a in summary_a.items():
        b = summary_b.get(name)
        if b is None or "mean" not in a or "mean" not in b:
            continue
        var = (a["std"] ** 2 / max(a.get("n_eff", 1.0), 1.0)
               + b["std"] ** 2 / max(b.get("n_eff", 1.0), 1.0))
        if var <= 0:
            continue
        worst = max(worst, abs(a["mean"] - b["mean"]) / float(np.sqrt(var)))
    return worst


def run_discrete_comparison(enum_entry: Entry, marginal_entry: Entry,
                            scale: float = 1.0, seed: int = 0,
                            num_chains: int = 1,
                            chain_method: str = "sequential",
                            infer_mode: str = "marginal") -> DiscreteComparison:
    """NUTS on the enumerated and hand-marginalized formulations of a workload.

    The continuous posteriors must agree (paper §6 accuracy criterion); the
    enumerated run additionally recovers the discrete posteriors.
    """
    config = enum_entry.config
    warmup = max(int(config.num_warmup * scale), 10)
    samples = max(int(config.num_samples * scale), 10)

    enum_compiled = compile_model(
        enum_entry.source, backend="numpyro", scheme="comprehensive",
        name=enum_entry.name, enum=enum_entry.enum)
    enum_model = enum_compiled.condition(enum_entry.data())
    start = time.perf_counter()
    enum_fit = enum_model.fit("nuts", num_warmup=warmup, num_samples=samples,
                              num_chains=num_chains, seed=seed,
                              max_tree_depth=config.max_tree_depth,
                              chain_method=chain_method)
    enum_elapsed = time.perf_counter() - start

    marginal_compiled = compile_model(marginal_entry.source, backend="numpyro",
                                      scheme="comprehensive",
                                      name=marginal_entry.name)
    start = time.perf_counter()
    marginal_fit = marginal_compiled.condition(marginal_entry.data()).fit(
        "nuts", num_warmup=warmup, num_samples=samples, num_chains=num_chains,
        seed=seed, max_tree_depth=config.max_tree_depth,
        chain_method=chain_method)
    marginal_elapsed = time.perf_counter() - start

    marginal_samples = marginal_fit.posterior.get_samples()
    enum_samples = {k: v for k, v in enum_fit.posterior.get_samples().items()
                    if k in marginal_samples}
    passed, rel_err = diagnostics.accuracy_check(marginal_samples, enum_samples)
    sigmas = mcse_sigmas(enum_fit.posterior.summary(),
                         marginal_fit.posterior.summary())

    from repro.enum import infer_discrete

    potential = enum_model.potential(seed)
    discrete = infer_discrete(potential, enum_fit.posterior.unconstrained,
                              mode=infer_mode, seed=seed)
    responsibilities = discrete.mean_marginals()

    return DiscreteComparison(
        enum_entry=enum_entry.name,
        marginal_entry=marginal_entry.name,
        accuracy_passed=passed,
        relative_error=rel_err,
        max_mcse_sigmas=sigmas,
        enum_runtime_seconds=enum_elapsed,
        marginal_runtime_seconds=marginal_elapsed,
        table_size=potential.enum_plan.table_size,
        enum_strategy=potential.enum_strategy,
        engine=enum_fit.metadata.get("engine", "interpreted"),
        summaries={
            "enumerated": enum_fit.posterior.summary(),
            "marginalized": marginal_fit.posterior.summary(),
        },
        responsibilities=responsibilities,
    )


#: the registry's (enumerated, hand-marginalized) workload pairs.
WORKLOAD_PAIRS = (
    ("gauss_mix_enum-synthetic_mixture", "gauss_mix_marginal-synthetic_mixture"),
    ("zip_poisson_enum-synthetic_zip", "zip_poisson_marginal-synthetic_zip"),
)

#: pairs at sizes whose joint table (2^500, 4^200) is unrepresentable —
#: only the contract strategy can evaluate the enumerated side (the CI
#: ``enum-scaling`` job runs these under a wall-clock budget).
SCALING_PAIRS = (
    ("gauss_mix_enum-synthetic_mixture_large",
     "gauss_mix_marginal-synthetic_mixture_large"),
    ("hmm_k_enum-synthetic_hmm4", "hmm_k_marginal-synthetic_hmm4"),
)

#: pairs whose discrete structure needs a general contraction order
#: (cross-site or tree coupling): a factorial HMM (two coupled chains,
#: joint table 4^100) and a tree-coupled mixture (2^200).
#: The CI ``enum-scaling`` job asserts posterior agreement with the
#: hand-marginalized twins.
CONTRACT_PAIRS = (
    ("factorial_hmm_enum-synthetic_factorial",
     "factorial_hmm_marginal-synthetic_factorial"),
    ("tree_mix_enum-synthetic_tree", "tree_mix_marginal-synthetic_tree"),
)


def discrete_enumeration_experiment(scale: float = 1.0, seed: int = 0,
                                    pairs=WORKLOAD_PAIRS) -> Dict[str, DiscreteComparison]:
    """Run every registered (enumerated, hand-marginalized) workload pair."""
    return {
        enum_name: run_discrete_comparison(get(enum_name), get(marginal_name),
                                           scale=scale, seed=seed)
        for enum_name, marginal_name in pairs
    }


# ----------------------------------------------------------------------
# asymptotic-cost measurement (the regression gate for ROADMAP item #1)
# ----------------------------------------------------------------------
@dataclass
class EnumScaling:
    """Measured per-evaluation cost of one workload at two sizes.

    The contraction engine is ``O(N * K)`` for independent elements and
    ``O(T * K^2)`` for chains — *linear* in the element count at fixed K —
    while the joint table is ``K ** N``.  ``cost_ratio`` close to
    ``size_ratio`` certifies the linear asymptotic; a regression back to the
    exponential path would not complete at these sizes at all.
    """

    model_name: str
    sizes: Tuple[int, int]
    eval_seconds: Tuple[float, float]
    strategies: Tuple[str, str]
    #: which evaluation engine the costs were measured under ("interpreted"
    #: walks the autodiff graph per call; "compiled" runs the fused tape
    #: program — see repro.autodiff.compile).
    engine: str = "interpreted"
    #: deterministic planner cost (total contraction-table entries, from
    #: ``Potential.enum_metadata()``) at each size — exact, timer-free
    #: evidence of the asymptotic, alongside the measured wall-clock.
    planner_costs: Tuple[int, int] = (0, 0)

    @property
    def size_ratio(self) -> float:
        return self.sizes[1] / self.sizes[0]

    @property
    def cost_ratio(self) -> float:
        return self.eval_seconds[1] / self.eval_seconds[0]

    @property
    def planner_cost_ratio(self) -> float:
        if not self.planner_costs[0]:
            return float("nan")
        return self.planner_costs[1] / self.planner_costs[0]


def measure_enum_cost(model_name: str, data_for_size, sizes: Tuple[int, int],
                      repeats: int = 3, seed: int = 0,
                      engine: str = "interpreted") -> EnumScaling:
    """Per-evaluation ``potential_and_grad`` cost of a workload at two sizes.

    ``data_for_size(size)`` builds the dataset; ``seed`` seeds the potential
    (dataset seeding is the caller's closure).  Both sizes must resolve to
    the ``"contract"`` strategy under ``enum="auto"`` — a silent demotion
    mid-measurement would time the wrong engine, so it raises here rather
    than relying on callers to inspect the returned ``strategies``.  The
    first evaluation (strategy resolution + analysis) is excluded; the
    steady-state cost is the *minimum* over ``repeats`` timed evaluations,
    the usual robust-to-noise choice for microbenchmarks.  ``engine``
    selects the evaluation engine
    ("interpreted" or "compiled"); under ``"compiled"`` the warm-up
    evaluation also compiles and validates the tape, so the timed steady
    state is the fused program.
    """
    config = EngineConfig(engine=engine, enum=EnumConfig(strategy="auto"))
    times: list = []
    strategies: list = []
    planner_costs: list = []
    for size in sizes:
        compiled = compile_model(corpus_models.get(model_name),
                                 engine=config, name=model_name)
        potential = compiled.condition(data_for_size(size)).potential(seed)
        z0 = potential.initial_unconstrained()
        potential.potential_and_grad(z0)          # resolve + validate
        potential.potential_and_grad(z0)          # compile + validate tape
        if potential.enum_strategy != "contract":
            raise RuntimeError(
                f"{model_name} at size {size} resolved to "
                f"{potential.enum_strategy!r}, not the contract strategy "
                f"({potential.enum_metadata()['note']}) — the cost measurement "
                "would time the wrong engine")
        best = float("inf")
        for i in range(repeats):
            start = time.perf_counter()
            potential.potential_and_grad(z0 + 1e-3 * (i + 1))
            best = min(best, time.perf_counter() - start)
        times.append(best)
        strategies.append(potential.enum_strategy)
        planner_costs.append(int(potential.enum_metadata()["cost_estimate"]))
    return EnumScaling(model_name=model_name, sizes=tuple(sizes),
                       eval_seconds=tuple(times), strategies=tuple(strategies),
                       engine=engine, planner_costs=tuple(planner_costs))


def enum_scaling_experiment(repeats: int = 3, seed: int = 0,
                            engine: str = "interpreted") -> Dict[str, EnumScaling]:
    """Measure the contraction engine's cost growth on both workload shapes.

    Mixture (independent elements) at N=250 vs N=500 and the 4-state HMM
    (chain elimination) at T=100 vs T=200 — every size far beyond what the
    joint table (``2^N`` / ``4^T`` rows) could represent.  ``seed`` seeds
    both the synthetic datasets and the potentials; ``engine`` selects the
    evaluation engine the costs are measured under.
    """
    return {
        "gauss_mix_enum": measure_enum_cost(
            "gauss_mix_enum",
            lambda n: datagen.gauss_mix_enum_data(seed=seed, n=n), (250, 500),
            repeats=repeats, seed=seed, engine=engine),
        "hmm_k_enum": measure_enum_cost(
            "hmm_k_enum",
            lambda t: datagen.hmm_k_data(seed=seed, t=t, k=4), (100, 200),
            repeats=repeats, seed=seed, engine=engine),
    }


def contract_scaling_experiment(repeats: int = 3, seed: int = 0,
                                engine: str = "interpreted") -> Dict[str, EnumScaling]:
    """Cost growth of the general contraction engine at fixed treewidth.

    The factorial HMM (ladder factor graph) at T=50 vs T=100 and the
    tree-coupled mixture at N=100 vs N=200 — both at sizes whose joint
    table (``4^T`` / ``2^N``) is unrepresentable.  Greedy elimination keeps
    the per-evaluation cost linear in the element count at fixed treewidth,
    so ``cost_ratio`` should track ``size_ratio`` exactly as for the
    mixture and the chain.
    """
    return {
        "factorial_hmm_enum": measure_enum_cost(
            "factorial_hmm_enum",
            lambda t: datagen.factorial_hmm_data(seed=seed, t=t), (50, 100),
            repeats=repeats, seed=seed, engine=engine),
        "tree_mix_enum": measure_enum_cost(
            "tree_mix_enum",
            lambda n: datagen.tree_mix_data(seed=seed, n=n), (100, 200),
            repeats=repeats, seed=seed, engine=engine),
    }
