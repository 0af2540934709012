"""Discrete-latent enumeration engine: exact marginalization of ``int`` parameters.

Stan rejects ``int`` parameters outright — mixture assignments, occupancy
states and HMM paths must be marginalized by hand (``log_sum_exp`` algebra in
the model block).  Compiling to a generative PPL removes that restriction:
this package makes bounded discrete latents first-class by enumerating their
joint support and summing them out of the density *exactly*.

Pieces
------

* :class:`~repro.enum.plan.EnumerationPlan` / :class:`DiscreteSiteInfo` —
  the joint assignment table over the discrete latent sites, with the
  unbounded-support and table-size guard rails
  (:class:`EnumerationError` / :class:`TableSizeError`).
* :class:`~repro.enum.handler.enum_sites` — the effect handler lifting each
  discrete site onto its own reserved broadcast axis so one traced execution
  evaluates all joint assignments (plus the trace reduction
  :func:`enum_trace_log_density` and the convenience
  :func:`enum_log_density`).
* :func:`~repro.enum.factorize.collect_term_structure` — element-level
  dependency analysis: one model run with per-element leaf tensors, each
  log-prob term classified by the enumerated elements its autodiff graph
  touches.
* :func:`~repro.enum.contract.analyze_contraction` /
  :class:`~repro.enum.contract.ContractionPlan` — the structured engine,
  tensor variable elimination: the per-element log factors form a factor
  graph (unary + n-ary, cross-site allowed).  Each site's isolated elements
  (mixtures, zero inflation) reduce as one O(N*K) logsumexp block; the
  coupled rest is eliminated in a greedy min-fill order as batched
  logsumexp contractions on the autodiff tape — chains in O(T*K^2) (the
  forward algorithm), trees, bounded-treewidth grids and factorial-HMM
  multi-site coupling — replacing the exponential joint table wherever the
  structure allows.
* :func:`~repro.enum.discrete.infer_discrete` — the post-pass recovering
  per-draw discrete posteriors (marginal responsibilities / joint MAP /
  exact samples) from the continuous draws of a marginalized fit; on
  contract potentials it reads isolated elements out as one softmax per
  site and calibrates the elimination tree for the coupled rest
  (forward-backward / Viterbi / backward sampling on a chain) instead of
  materializing the table.

The compile-side entry point is ``compile_model(source, enum="auto")`` (an
:class:`repro.engine.EnumConfig` strategy; ``enum="parallel"`` forces the
joint table); the density-side integration lives in
:class:`repro.infer.Potential`, whose marginalized evaluation contracts (or
``logsumexp``-es) the enumeration structure so NUTS/HMC/VI run unchanged.
"""

from repro.enum.plan import (
    DEFAULT_MAX_TABLE_SIZE,
    DiscreteSiteInfo,
    EnumerationError,
    EnumerationPlan,
    TableSizeError,
    site_support,
)
from repro.enum.factorize import DEFAULT_MAX_BATCH_ROWS, FactorizationError
from repro.enum.contract import (
    ContractFactors,
    ContractionError,
    ContractionPlan,
    analyze_contraction,
    plan_elimination,
)
from repro.enum.handler import enum_log_density, enum_sites, enum_trace_log_density
from repro.enum.discrete import DiscretePosterior, discrete_rng, infer_discrete

__all__ = [
    "DEFAULT_MAX_TABLE_SIZE",
    "DEFAULT_MAX_BATCH_ROWS",
    "ContractFactors",
    "ContractionError",
    "ContractionPlan",
    "DiscreteSiteInfo",
    "EnumerationError",
    "EnumerationPlan",
    "FactorizationError",
    "TableSizeError",
    "analyze_contraction",
    "plan_elimination",
    "site_support",
    "enum_sites",
    "enum_log_density",
    "enum_trace_log_density",
    "DiscretePosterior",
    "discrete_rng",
    "infer_discrete",
]
