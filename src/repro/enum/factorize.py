"""Element-level dependency analysis of an enumerated model's log-prob terms.

The joint assignment table of :class:`~repro.enum.plan.EnumerationPlan` is
exact but exponential: an array site ``int z[N]`` with per-element support
``K`` contributes ``K ** N`` table rows.  Hand marginalization — the
``log_sum_exp`` algebra Stan forces on users — is ``O(N * K)`` for mixtures
and ``O(T * K^2)`` for HMMs, because the per-element (or per-transition)
factors are conditionally independent given the continuous parameters.
Recovering those asymptotics automatically, the way funsor-style tensor
variable elimination does, starts with knowing which elements each term
touches.

:func:`collect_term_structure` runs the model once with every discrete site
represented by *per-element leaf tensors* (the runtime's ``_index`` returns
the element's own leaf), so walking the autodiff graph of each collected
log-prob term tells exactly which elements it touched — the same exact
graph-walk classification the joint engine uses, refined to element
granularity.  Each term becomes a :class:`CollectedTerm`: a constant, a
site's own declaration prior, or a factor over the elements in its scope
(any arity, cross-site allowed).  Structure no elimination can handle — a
term using a whole array (``sum(z)``), a multi-dimensional site, or a
declaration prior that depends on another site — raises
:class:`FactorizationError` and the caller falls back to the joint table.

:mod:`repro.enum.contract` turns the collected terms into a factor graph
and eliminates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Tensor, as_tensor
from repro.enum.plan import EnumerationError, EnumerationPlan

#: cap on the gridded batch axis (the product of the mixed-radix digits —
#: ``K`` for isolated elements, ``K^2`` for a chain); a structure needing more
#: rows does not profit from elimination.
DEFAULT_MAX_BATCH_ROWS = 10_000


class FactorizationError(EnumerationError):
    """The discrete structure does not factorize; joint-table fallback applies."""


@dataclass(frozen=True)
class CollectedTerm:
    """Strategy-neutral classification of one collected log-prob term.

    The first stage of the contraction planner of :mod:`repro.enum.contract`:
    ``kind`` is ``"const"`` (touches no enumerated element), ``"site_prior"``
    (a site's own declaration prior, elementwise by construction) or
    ``"factor"`` (touches the enumerated elements in ``scope``, sorted by
    site plan-order then element index — any arity, cross-site allowed).
    """

    position: int
    name: Optional[str]
    kind: str                      # "const" | "site_prior" | "factor"
    site: Optional[str] = None
    scope: Tuple[Tuple[str, int], ...] = ()


def _walk_elements(term: Tensor, leaf_ids: Mapping[int, Tuple[str, int]],
                   array_ids: Mapping[int, str]) -> Tuple[set, set]:
    """Element refs and whole-array sites reachable in a term's graph."""
    elems: set = set()
    whole: set = set()
    stack: List[Tensor] = [term]
    seen: set = set()
    while stack:
        node = stack.pop()
        key = id(node)
        if key in seen:
            continue
        seen.add(key)
        ref = leaf_ids.get(key)
        if ref is not None:
            elems.add(ref)
        site = array_ids.get(key)
        if site is not None:
            whole.add(site)
        stack.extend(node.parents)
    return elems, whole


def _reduce_rows(term: Tensor, rows: int) -> Tensor:
    """Sum a term's trailing (event) axes down to a ``(rows,)`` vector."""
    if term.data.ndim == 0:
        raise FactorizationError(
            "an assignment-dependent term evaluated to a scalar under the "
            "enumeration grid (control flow collapsed the batch axis)")
    if term.data.shape[0] != rows:
        raise FactorizationError(
            f"term rides {term.data.shape[0]} rows, expected {rows}")
    if term.data.ndim > 1:
        return ops.sum_(term, axis=tuple(range(1, term.data.ndim)))
    return term


def reset_generated_site_names() -> None:
    """Reset the auto-generated site-name counters before a collection run.

    Term matching between the analysis execution and later gridded
    executions is positional *and* name-checked; anonymous ``observe``/
    ``factor`` sites draw from process-global counters, so both runs must
    start from the same state.
    """
    from repro.backends import runtime
    from repro.ppl.primitives import reset_site_counter

    reset_site_counter()
    runtime._FRESH_COUNTER[0] = 0


def collect_term_structure(model: Callable, plan: EnumerationPlan,
                           model_args: Tuple = (),
                           model_kwargs: Optional[Dict] = None,
                           observed: Optional[Dict[str, Any]] = None,
                           constrained: Optional[Mapping[str, Any]] = None,
                           rng_seed: int = 0) -> List[CollectedTerm]:
    """Run the model once with per-element leaves and classify every term.

    The first stage of :func:`repro.enum.contract.analyze_contraction`: each
    collected log-prob term is walked back through the autodiff graph to the
    enumerated leaves it touches and recorded as a :class:`CollectedTerm`.
    Raises :class:`FactorizationError` for structure *no* elimination can
    handle: multi-dimensional sites, terms using a whole enumerated array
    (``sum(z)``), and declaration priors that depend on other sites.
    """
    from repro.ppl.primitives import FastLogDensityContext

    leaves: Dict[str, List[Tensor]] = {}
    substitution: Dict[str, Any] = dict(observed or {})
    substitution.update(constrained or {})
    for site in plan.sites:
        if len(site.event_shape) > 1:
            raise FactorizationError(
                f"site {site.name!r} has event shape {site.event_shape}; "
                "elimination handles scalar and 1-D array sites")
        els = [Tensor(float(site.support[0])) for _ in range(max(site.numel, 1))]
        if site.event_shape:
            assembled = ops.stack(els)
            assembled.enum_elements = els
        else:
            assembled = els[0]
        leaves[site.name] = els
        substitution[site.name] = assembled

    reset_generated_site_names()
    ctx = FastLogDensityContext(substitution=substitution,
                                rng=np.random.default_rng(rng_seed),
                                collect_names=True)
    with np.errstate(all="ignore"), ctx:
        model(*model_args, **(model_kwargs or {}))

    leaf_ids: Dict[int, Tuple[str, int]] = {}
    array_ids: Dict[int, str] = {}
    for site in plan.sites:
        for j, el in enumerate(leaves[site.name]):
            leaf_ids[id(el)] = (site.name, j)
        assembled = substitution[site.name]
        if getattr(assembled, "enum_elements", None) is not None:
            array_ids[id(assembled)] = site.name

    site_names = set(plan.site_names)
    site_order = {name: i for i, name in enumerate(plan.site_names)}
    collected: List[CollectedTerm] = []
    for pos, (raw, name) in enumerate(zip(ctx.log_prob_terms, ctx.term_names)):
        term = as_tensor(raw)
        elems, whole = _walk_elements(term, leaf_ids, array_ids)
        if name in site_names:
            # The site's own declaration prior: elementwise-independent by
            # construction (every enumerable family factorizes over elements),
            # so its ``(rows, numel)`` log-prob block is read column-wise.
            others = {s for s, _ in elems if s != name} | (whole - {name})
            if others:
                raise FactorizationError(
                    f"declaration prior of site {name!r} also depends on "
                    f"site(s) {sorted(others)}")
            collected.append(CollectedTerm(pos, name, "site_prior", site=name))
            continue
        if whole:
            raise FactorizationError(
                f"term {name!r} uses whole enumerated array(s) {sorted(whole)} "
                "(e.g. sum(z) or a vectorized statement over the full site), "
                "which does not factorize element-wise")
        if not elems:
            collected.append(CollectedTerm(pos, name, "const"))
            continue
        scope = tuple(sorted(elems, key=lambda ref: (site_order[ref[0]], ref[1])))
        collected.append(CollectedTerm(pos, name, "factor", scope=scope))
    return collected
