"""The PosteriorDB-style registry: (model, dataset, config, reference) entries.

Each :class:`Entry` bundles what PosteriorDB provides for a posterior —
the Stan program, the dataset, the sampler configuration used for the
reference run, and a way to obtain reference posterior draws — plus two
pieces of reproduction metadata:

* ``expect_unsupported`` marks entries whose models use standard-library
  features none of our backends implement (``cov_exp_quad``, ODE solvers,
  ``student_t_lccdf``), reproducing the error rows of Tables 2-4;
* ``expect_mismatch`` marks entries the paper itself reports as mismatches
  (``garch11``'s data-dependent constraint, ``low_dim_gauss_mix``'s ordered
  constraint under the older Pyro versions).

The sampler configurations are scaled down from PosteriorDB's (10k draws) to
keep the whole benchmark suite under a few minutes of wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


from repro.corpus import models as corpus_models
from repro.posteriordb import datagen


@dataclass
class InferenceConfig:
    """Scaled-down analogue of PosteriorDB's reference sampler configuration."""

    num_warmup: int = 200
    num_samples: int = 200
    num_chains: int = 1
    thinning: int = 1
    seed: int = 0
    max_tree_depth: int = 8


@dataclass
class Entry:
    """One (model, dataset) pair of the registry."""

    name: str
    model_name: str
    dataset_name: str
    data_fn: Callable[[], Dict[str, Any]]
    config: InferenceConfig = field(default_factory=InferenceConfig)
    expect_unsupported: bool = False
    expect_mismatch: bool = False
    description: str = ""
    #: enumeration strategy (``compile_model(..., enum=entry.enum)``) for
    #: models with bounded ``int`` parameters — they only compile through
    #: the discrete-latent enumeration engine and are excluded from the
    #: plain-path tables like ``expect_unsupported`` entries.  ``"auto"``
    #: runs tensor variable elimination: O(N*K) for independent elements,
    #: O(T*K^2) for chains, a greedy contraction order for trees and
    #: multi-site coupling, joint-table fallback otherwise.
    enum: Optional[str] = None

    @property
    def source(self) -> str:
        return corpus_models.get(self.model_name)

    def data(self) -> Dict[str, Any]:
        return self.data_fn()


_REGISTRY: Dict[str, Entry] = {}


def register(entry: Entry) -> Entry:
    _REGISTRY[entry.name] = entry
    return entry


def get(name: str) -> Entry:
    return _REGISTRY[name]


def names(include_unsupported: bool = True) -> List[str]:
    return sorted(
        name for name, entry in _REGISTRY.items()
        if include_unsupported
        or not (entry.expect_unsupported or entry.enum is not None)
    )


def entries(include_unsupported: bool = True) -> List[Entry]:
    return [_REGISTRY[name] for name in names(include_unsupported)]


def supported_entries() -> List[Entry]:
    return entries(include_unsupported=False)


# ----------------------------------------------------------------------
# registry contents (the Table 3 rows, scaled down)
# ----------------------------------------------------------------------
register(Entry("coin-flips", "coin", "flips", datagen.coin_data,
               description="running example of Fig. 1"))
register(Entry("eight_schools_centered-eight_schools", "eight_schools_centered",
               "eight_schools", datagen.eight_schools_data,
               config=InferenceConfig(num_warmup=300, num_samples=300),
               description="hierarchical meta-analysis, centered parameterisation"))
register(Entry("eight_schools_noncentered-eight_schools", "eight_schools_noncentered",
               "eight_schools", datagen.eight_schools_data,
               config=InferenceConfig(num_warmup=300, num_samples=300),
               description="non-centered parameterisation"))
register(Entry("earn_height-earnings", "earn_height", "earnings", datagen.earnings_data))
register(Entry("logearn_height-earnings", "logearn_height", "earnings", datagen.earnings_data))
register(Entry("logearn_height_male-earnings", "logearn_height_male", "earnings",
               datagen.earnings_data))
register(Entry("logearn_logheight_male-earnings", "logearn_logheight_male", "earnings",
               datagen.earnings_data))
register(Entry("log10earn_height-earnings", "log10earn_height", "earnings",
               datagen.earnings_data))
register(Entry("kidscore_momiq-kidiq", "kidscore_momiq", "kidiq", datagen.kidiq_data))
register(Entry("kidscore_momhs-kidiq", "kidscore_momhs", "kidiq", datagen.kidiq_data))
register(Entry("kidscore_momhsiq-kidiq", "kidscore_momhsiq", "kidiq", datagen.kidiq_data))
register(Entry("kidscore_interaction-kidiq", "kidscore_interaction", "kidiq", datagen.kidiq_data))
register(Entry("kidscore_mom_work-kidiq_with_mom_work", "kidscore_mom_work",
               "kidiq_with_mom_work", datagen.kidiq_data))
register(Entry("mesquite-mesquite", "mesquite", "mesquite", datagen.mesquite_data))
register(Entry("logmesquite_logvas-mesquite", "logmesquite_logvas", "mesquite",
               datagen.mesquite_data))
register(Entry("kilpisjarvi-kilpisjarvi_mod", "kilpisjarvi", "kilpisjarvi_mod",
               datagen.kilpisjarvi_data))
register(Entry("blr-sblri", "blr", "sblri", datagen.blr_data))
register(Entry("nes-nes1980", "nes_logit", "nes1980", lambda: datagen.nes_data(seed=1980)))
register(Entry("nes-nes1996", "nes_logit", "nes1996", lambda: datagen.nes_data(seed=1996)))
register(Entry("nes-nes2000", "nes_logit", "nes2000", lambda: datagen.nes_data(seed=2000)))
register(Entry("arK-arK", "arK", "arK", datagen.ar_data,
               config=InferenceConfig(num_warmup=150, num_samples=150, max_tree_depth=6),
               description="AR(K) model with a nested sequential loop"))
register(Entry("arma11-arma", "arma11", "arma", datagen.arma_data,
               config=InferenceConfig(num_warmup=150, num_samples=150, max_tree_depth=6),
               description="ARMA(1,1); sequential loop over time"))
register(Entry("garch11-garch", "garch11", "garch", datagen.garch_data,
               config=InferenceConfig(num_warmup=150, num_samples=150, max_tree_depth=6),
               expect_mismatch=True,
               description="GARCH(1,1); the paper reports a mismatch because one "
                           "parameter's constraint depends on another parameter"))
register(Entry("dogs-dogs", "dogs", "dogs", datagen.dogs_data,
               config=InferenceConfig(num_warmup=150, num_samples=150, max_tree_depth=6),
               description="avoidance-learning model with nested loops"))
register(Entry("dogs_log-dogs", "dogs_log", "dogs", datagen.dogs_data,
               config=InferenceConfig(num_warmup=150, num_samples=150, max_tree_depth=6)))
register(Entry("hmm_example-hmm_example", "hmm_example", "hmm_example", datagen.hmm_data,
               config=InferenceConfig(num_warmup=100, num_samples=100, max_tree_depth=6),
               expect_mismatch=True,
               description="forward-algorithm HMM; arrays of simplex parameters are "
                           "outside the supported constraint set of this reproduction"))
register(Entry("low_dim_gauss_mix-low_dim_gauss_mix", "low_dim_gauss_mix",
               "low_dim_gauss_mix", datagen.gauss_mix_data,
               config=InferenceConfig(num_warmup=200, num_samples=200, max_tree_depth=6),
               expect_mismatch=True,
               description="two-component mixture with an ordered constraint (the paper "
                           "reports a mismatch for the Pyro/NumPyro versions it used)"))
register(Entry("poisson_counts-synthetic", "poisson_counts", "synthetic",
               datagen.poisson_data))
register(Entry("seeds_binomial-seeds", "seeds_binomial", "seeds", datagen.seeds_data))
# Unsupported standard-library features (error rows of Tables 2-4).
register(Entry("gp_regr-gp_pois_regr", "gp_regr", "gp_pois_regr", datagen.gp_data,
               expect_unsupported=True,
               description="requires cov_exp_quad (missing from the runtime library)"))
register(Entry("accel_gp-mcycle_gp", "accel_gp", "mcycle_gp", datagen.gp_data,
               expect_unsupported=True,
               description="requires cov_exp_quad (missing from the runtime library)"))
register(Entry("lotka_volterra-hudson_lynx_hare", "lotka_volterra", "hudson_lynx_hare",
               datagen.lotka_volterra_data, expect_unsupported=True,
               description="requires the ODE solver integrate_ode_rk45"))
register(Entry("one_comp_mm_elim_abs-one_comp_mm_elim_abs", "one_comp_mm_elim_abs",
               "one_comp_mm_elim_abs", datagen.one_comp_data, expect_unsupported=True,
               description="requires the ODE solver integrate_ode_bdf"))
register(Entry("diamonds-diamonds", "diamonds", "diamonds", datagen.diamonds_data,
               expect_unsupported=True,
               description="requires student_t_lccdf (missing from the runtime library)"))
# Discrete latent variables (the enumeration engine's workloads).  The
# `_enum` entries declare bounded int parameters — Stan itself rejects them,
# and so does our plain compile path; they run via
# compile_model(..., enum=entry.enum).  Each has a hand-marginalized
# counterpart defining the same continuous posterior (BENCH_discrete compares
# the two).
register(Entry("gauss_mix_enum-synthetic_mixture", "gauss_mix_enum", "synthetic_mixture",
               datagen.gauss_mix_enum_data, enum="auto",
               config=InferenceConfig(num_warmup=200, num_samples=200, max_tree_depth=7),
               description="2-component mixture with int<lower=1,upper=2> assignments, "
                           "marginalized by per-element enumeration"))
register(Entry("gauss_mix_marginal-synthetic_mixture", "gauss_mix_marginal",
               "synthetic_mixture", datagen.gauss_mix_enum_data,
               config=InferenceConfig(num_warmup=200, num_samples=200, max_tree_depth=7),
               description="hand-marginalized formulation of gauss_mix_enum "
                           "(what Stan forces users to write)"))
register(Entry("zip_poisson_enum-synthetic_zip", "zip_poisson_enum", "synthetic_zip",
               datagen.zip_poisson_data, enum="auto",
               config=InferenceConfig(num_warmup=200, num_samples=200, max_tree_depth=7),
               description="occupancy/zero-inflated Poisson with Bernoulli latents"))
register(Entry("zip_poisson_marginal-synthetic_zip", "zip_poisson_marginal",
               "synthetic_zip", datagen.zip_poisson_data,
               config=InferenceConfig(num_warmup=200, num_samples=200, max_tree_depth=7),
               description="hand-marginalized zero-inflated Poisson"))
register(Entry("hmm_enum-synthetic_hmm", "hmm_enum", "synthetic_hmm",
               datagen.hmm_enum_data, enum="auto",
               config=InferenceConfig(num_warmup=200, num_samples=200, max_tree_depth=7),
               description="short 2-state HMM: the contraction engine detects the "
                           "chain and runs the forward algorithm automatically"))
# Scaling workloads: sizes whose joint assignment table (2^500, 4^200) is
# unrepresentable — only the contract strategy can evaluate them.  Each has
# a hand-marginalized twin defining the same continuous posterior; the CI
# `enum-scaling` job asserts posterior agreement between the pairs.
register(Entry("gauss_mix_enum-synthetic_mixture_large", "gauss_mix_enum",
               "synthetic_mixture_large", datagen.gauss_mix_enum_large_data,
               enum="auto",
               config=InferenceConfig(num_warmup=40, num_samples=40, max_tree_depth=6),
               description="the mixture at N=500: joint table would be 2^500; "
                           "per-element enumeration runs it in O(N*K)"))
register(Entry("gauss_mix_marginal-synthetic_mixture_large", "gauss_mix_marginal",
               "synthetic_mixture_large", datagen.gauss_mix_enum_large_data,
               config=InferenceConfig(num_warmup=40, num_samples=40, max_tree_depth=6),
               description="hand-marginalized twin of the N=500 mixture"))
register(Entry("hmm_k_enum-synthetic_hmm4", "hmm_k_enum", "synthetic_hmm4",
               datagen.hmm_k_data, enum="auto",
               config=InferenceConfig(num_warmup=40, num_samples=40, max_tree_depth=6),
               description="4-state HMM at T=200: joint table would be 4^200; "
                           "chain elimination runs it in O(T*K^2)"))
register(Entry("hmm_k_marginal-synthetic_hmm4", "hmm_k_marginal", "synthetic_hmm4",
               datagen.hmm_k_data,
               config=InferenceConfig(num_warmup=40, num_samples=40, max_tree_depth=6),
               description="hand-written forward algorithm twin of hmm_k_enum "
                           "(the log_sum_exp algebra the paper's users must write)"))
register(Entry("hmm_marginal-synthetic_hmm", "hmm_marginal", "synthetic_hmm",
               datagen.hmm_enum_data,
               config=InferenceConfig(num_warmup=200, num_samples=200, max_tree_depth=7),
               description="hand-written forward algorithm twin of hmm_enum"))
# General-contraction workloads (enum="auto" resolves to the "contract"
# strategy): discrete structure outside every special case — two coupled
# chains sharing an emission (a ladder factor graph) and a tree of coupled
# component labels.  Sizes put the joint table beyond 10^50 entries
# (4^100, 2^200); greedy tensor variable elimination runs them in cost
# linear in the element count at fixed treewidth.  Each has a
# hand-marginalized twin (product-chain forward algorithm / upward belief
# propagation) defining the same continuous posterior.
register(Entry("factorial_hmm_enum-synthetic_factorial", "factorial_hmm_enum",
               "synthetic_factorial", datagen.factorial_hmm_data, enum="auto",
               config=InferenceConfig(num_warmup=40, num_samples=40, max_tree_depth=6),
               description="two coupled binary chains with a joint emission at "
                           "T=100: joint table would be 4^100; the contract "
                           "strategy eliminates the ladder in O(T) messages"))
register(Entry("factorial_hmm_marginal-synthetic_factorial", "factorial_hmm_marginal",
               "synthetic_factorial", datagen.factorial_hmm_data,
               config=InferenceConfig(num_warmup=40, num_samples=40, max_tree_depth=6),
               description="hand-written forward algorithm on the 4-state "
                           "product chain, twin of factorial_hmm_enum"))
register(Entry("tree_mix_enum-synthetic_tree", "tree_mix_enum", "synthetic_tree",
               datagen.tree_mix_data, enum="auto",
               config=InferenceConfig(num_warmup=40, num_samples=40, max_tree_depth=6),
               description="tree-coupled binary mixture at N=200: joint table "
                           "would be 2^200; tree elimination is linear in N"))
register(Entry("tree_mix_marginal-synthetic_tree", "tree_mix_marginal",
               "synthetic_tree", datagen.tree_mix_data,
               config=InferenceConfig(num_warmup=40, num_samples=40, max_tree_depth=6),
               description="upward belief-propagation twin of tree_mix_enum"))
