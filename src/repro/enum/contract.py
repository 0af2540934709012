"""Tensor variable elimination with a greedy contraction order.

The structured enumeration engine.  The per-element log-factors collected by
:func:`repro.enum.factorize.collect_term_structure` are treated as a
*general factor graph* (unary plus n-ary factors over enumerated elements,
``n >= 2`` and cross-site allowed), an elimination order is chosen with an
opt_einsum-style greedy heuristic (score = size of the intermediate
produced by eliminating a variable, deterministic tie-break by
site/element order), and the order executes as a sequence of
broadcast-``add`` / ``logsumexp`` contractions on the autodiff tape, so
NUTS/VI gradients flow through unchanged.  Chains eliminate endpoint-first
(the forward algorithm, ``O(T * K^2)``), trees leaf-first in
``O(N * K^2)``, factorial HMMs (two coupled chains) in ``O(T * K^3)``
cliques, bounded-treewidth grids in ``O(N * K^(w+1))`` — sizes whose joint
table is astronomically unrepresentable.

A variable that appears in no n-ary factor is *isolated* (every mixture and
zero-inflation element is one).  Isolated variables need no order: each
site's isolated variables are eliminated together as one ``(K, n)`` gather
from the site's prior-plus-unary block, one ``logsumexp`` over the support
axis and one sum — ``O(N * K)`` in a handful of tape ops.  Only the coupled
rest goes through the greedy planner.

Layout: every enumerated element is a *variable* ``(site, elem)``.  A
greedy proper coloring of the co-occurrence graph assigns each variable a
mixed-radix *digit* of the batch row index (co-occurring variables always
get distinct digits; isolated variables ride digit 0), so one gridded
model execution with ``batch_rows = prod(radix)`` rows enumerates every
joint assignment any single factor needs; factor tables are then gathered
straight out of the collected row vectors with stride arithmetic
(``ops.getitem`` keeps the gather differentiable).

:class:`ContractFactors` re-exposes the same factor tables as NumPy arrays
with the elimination order attached; :func:`repro.enum.discrete.infer_discrete`
reads the isolated variables out as one softmax per site and runs
calibration over the elimination tree (a backward pass) for exact
marginals, max-product MAP, and joint posterior sampling of the coupled
rest — forward-backward/Viterbi/FFBS on a chain, generalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import ops
from repro.autodiff.compile import _lse
from repro.autodiff.tensor import Tensor, as_tensor
from repro.enum.factorize import (
    DEFAULT_MAX_BATCH_ROWS,
    CollectedTerm,
    FactorizationError,
    _reduce_rows,
    collect_term_structure,
)
from repro.enum.plan import DEFAULT_MAX_TABLE_SIZE, EnumerationPlan

#: a variable of the factor graph: ``(site_name, element_index)``.
Var = Tuple[str, int]


class ContractionError(FactorizationError):
    """The factor graph cannot be contracted within the configured caps."""


@dataclass(frozen=True)
class EliminationStep:
    """One greedy elimination: combine every live factor touching ``var``.

    ``clique`` is the sorted scope of the combined table ``Phi_var``
    (``var`` plus its live neighbours at elimination time, fill-in edges
    included); ``message`` is ``clique`` minus ``var`` — the scope of the
    ``logsumexp`` result handed back to the factor pool (empty for the last
    variable of a connected component, whose message is a scalar added to
    the marginal total).
    """

    var: Var
    clique: Tuple[Var, ...]
    message: Tuple[Var, ...]
    table_size: int

    def axis(self) -> int:
        return self.clique.index(self.var)


@dataclass(frozen=True)
class EliminationOrder:
    """A complete greedy elimination order with its cost accounting."""

    steps: Tuple[EliminationStep, ...]
    #: total entries across all materialized cliques (the planner cost
    #: estimate stamped into fit metadata and ``BENCH_*.json``).
    cost: int
    #: largest single clique table (the treewidth-governed bottleneck).
    max_intermediate: int


def plan_elimination(variables: Sequence[Var], cards: Mapping[Var, int],
                     scopes: Sequence[Tuple[Var, ...]],
                     max_table_size: Optional[int] = None) -> EliminationOrder:
    """Greedy elimination order over the co-occurrence graph.

    opt_einsum-style greedy path: at each step eliminate the variable whose
    combined clique's *message* (the produced intermediate, size = product
    of the live neighbours' cardinalities) is smallest, breaking ties by the
    deterministic ``variables`` order — on a path this is the endpoint-first
    left-to-right order of the forward algorithm.  Fill-in edges
    are tracked so later scores see earlier messages.  Raises
    :class:`ContractionError` as soon as any clique table would exceed
    ``max_table_size``, reporting the greedy path cost accumulated so far.
    """
    cap = DEFAULT_MAX_TABLE_SIZE if max_table_size is None else int(max_table_size)
    order_index = {v: i for i, v in enumerate(variables)}
    adj: Dict[Var, set] = {v: set() for v in variables}
    for scope in scopes:
        for u in scope:
            for w in scope:
                if u != w:
                    adj[u].add(w)

    remaining = set(variables)
    steps: List[EliminationStep] = []
    cost = 0
    max_intermediate = 0
    while remaining:
        best_key = None
        best_var = None
        for v in variables:
            if v not in remaining:
                continue
            size = 1
            for u in adj[v]:
                size *= cards[u]
            key = (size, order_index[v])
            if best_key is None or key < best_key:
                best_key, best_var = key, v
        v = best_var
        nbrs = set(adj[v])
        clique = tuple(sorted([v, *nbrs], key=order_index.__getitem__))
        table = 1
        for u in clique:
            table *= cards[u]
        if table > cap:
            raise ContractionError(
                f"greedy elimination of variable {v} materializes a "
                f"{table}-entry clique over {len(clique)} variables, "
                f"exceeding the table cap of {cap} (greedy path cost before "
                f"this step: {cost} entries); the coupling treewidth is too "
                "high — reduce the discrete state space or raise the cap "
                "via EnumConfig(max_table_size=...)")
        message = tuple(u for u in clique if u != v)
        steps.append(EliminationStep(v, clique, message, int(table)))
        cost += table
        max_intermediate = max(max_intermediate, table)
        for u in nbrs:
            adj[u].discard(v)
            adj[u].update(nbrs - {u})
        del adj[v]
        remaining.discard(v)
    return EliminationOrder(tuple(steps), int(cost), int(max_intermediate))


class ContractionPlan:
    """The tensor-variable-elimination layout for one enumerated model.

    Built by :func:`analyze_contraction`.  :class:`repro.infer.Potential`
    drives it through ``batch_rows`` / :meth:`grids` / :meth:`check_terms` /
    :meth:`contract` / :meth:`posterior_factors`.
    """

    #: resolved-strategy tag read by the potential / metadata stamping.
    strategy = "contract"

    def __init__(self, plan: EnumerationPlan, terms: Sequence[CollectedTerm],
                 max_batch_rows: Optional[int] = None,
                 max_table_size: Optional[int] = None):
        self.plan = plan
        self.terms = list(terms)
        variables: List[Var] = []
        cards: Dict[Var, int] = {}
        for site in plan.sites:
            for n in range(max(site.numel, 1)):
                v = (site.name, n)
                variables.append(v)
                cards[v] = site.cardinality
        self.variables: Tuple[Var, ...] = tuple(variables)
        self.cards = cards

        scopes = [ct.scope for ct in self.terms
                  if ct.kind == "factor" and len(ct.scope) >= 2]
        cooc: Dict[Var, set] = {v: set() for v in variables}
        for scope in scopes:
            for u in scope:
                for w in scope:
                    if u != w:
                        cooc[u].add(w)
        #: per site, the elements that appear in no n-ary factor; each
        #: site's isolated elements are eliminated as one block.
        self.isolated: Dict[str, Tuple[int, ...]] = {
            site.name: tuple(n for n in range(max(site.numel, 1))
                             if not cooc[(site.name, n)])
            for site in plan.sites}
        #: the variables the greedy planner orders, in variable order.
        self.coupled: Tuple[Var, ...] = tuple(v for v in variables if cooc[v])
        self.order = plan_elimination(self.coupled, cards, scopes,
                                      max_table_size=max_table_size)

        # Mixed-radix digit assignment: greedy proper coloring of the
        # co-occurrence graph in deterministic variable order, so every
        # factor's scope variables ride distinct digits of the batch row
        # (an isolated variable has no neighbours, so it rides digit 0).
        colors: Dict[Var, int] = {}
        for v in self.variables:
            used = {colors[u] for u in cooc[v] if u in colors}
            c = 0
            while c in used:
                c += 1
            colors[v] = c
        ndigits = (max(colors.values()) + 1) if colors else 1
        radix = [1] * ndigits
        for v, c in colors.items():
            radix[c] = max(radix[c], cards[v])
        strides = [1] * ndigits
        for d in range(1, ndigits):
            strides[d] = strides[d - 1] * radix[d - 1]
        rows = strides[-1] * radix[-1]
        cap = DEFAULT_MAX_BATCH_ROWS if max_batch_rows is None else int(max_batch_rows)
        if rows > cap:
            raise ContractionError(
                f"contraction batch needs {rows} rows ({ndigits} digits of "
                f"radix {tuple(radix)}), exceeding the cap of {cap}")
        self._colors = colors
        self._radix = tuple(radix)
        self._strides = tuple(strides)
        self.batch_rows = int(rows)
        self._grid_cache: Optional[Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------
    # description / bookkeeping
    # ------------------------------------------------------------------
    def describe(self) -> str:
        parts = []
        n_isolated = sum(len(elems) for elems in self.isolated.values())
        if n_isolated:
            parts.append(f"{n_isolated} isolated variable(s) eliminated as "
                         "one logsumexp block per site (O(N*K))")
        if self.coupled:
            n_nary = sum(1 for ct in self.terms
                         if ct.kind == "factor" and len(ct.scope) >= 2)
            parts.append(f"{len(self.coupled)} coupled variable(s), {n_nary} "
                         f"coupling factor(s), greedy elimination cost "
                         f"{self.order.cost} entries, max intermediate "
                         f"{self.order.max_intermediate}")
        return (f"tensor variable elimination over {len(self.plan.sites)} "
                f"site(s): " + "; ".join(parts))

    def __repr__(self) -> str:
        return f"ContractionPlan({self.describe()}; batch_rows={self.batch_rows})"

    def cost_estimate(self) -> int:
        """Total contraction table cost: ``K`` entries per isolated variable
        plus the clique entries summed over the greedy eliminations."""
        isolated = sum(len(elems) * self.plan.site(name).cardinality
                       for name, elems in self.isolated.items())
        return int(isolated + self.order.cost)

    # ------------------------------------------------------------------
    # the substitution grids
    # ------------------------------------------------------------------
    def grids(self) -> Dict[str, np.ndarray]:
        """``{site: (batch_rows, numel)}`` mixed-radix substitution values.

        Element ``n`` of a site rides digit ``d = color(site, n)``:
        its column is ``support[((r // stride_d) % radix_d) % K]``, so the
        rows whose *other* digits are zero enumerate exactly the joint
        assignments each factor's scope needs.
        """
        if self._grid_cache is None:
            out: Dict[str, np.ndarray] = {}
            r = np.arange(self.batch_rows)
            for site in self.plan.sites:
                k = site.cardinality
                cols = np.empty((self.batch_rows, max(site.numel, 1)))
                for n in range(max(site.numel, 1)):
                    d = self._colors[(site.name, n)]
                    digit = (r // self._strides[d]) % self._radix[d]
                    cols[:, n] = site.support[digit % k]
                out[site.name] = cols
            self._grid_cache = out
        return self._grid_cache

    # ------------------------------------------------------------------
    # term extraction
    # ------------------------------------------------------------------
    def check_terms(self, names: Sequence[Optional[str]]) -> None:
        """Verify a collected-term sequence matches the analysed structure."""
        if len(names) != len(self.terms):
            raise FactorizationError(
                f"model produced {len(names)} log-prob terms, the contraction "
                f"analysis saw {len(self.terms)} — assignment-dependent "
                "control flow cannot be contracted")
        for role, name in zip(self.terms, names):
            if role.name != name:
                raise FactorizationError(
                    f"term {role.position} is {name!r}, analysis saw {role.name!r}")

    def _extract(self, terms: Sequence[Tensor], total_rows: int, offset: int
                 ) -> Tuple[Optional[Tensor], Dict[str, Tensor], Dict[Var, Tensor],
                            List[Tuple[Tuple[Var, ...], Tensor]]]:
        """Constant total, isolated blocks, coupled unary and n-ary factors.

        ``offset = c * batch_rows`` addresses one chain's rows inside a
        multi-chain ``C * batch_rows`` tape; a constant term that rides
        that batch axis (it depends on per-chain continuous values)
        contributes its ``offset`` row.  Each site with isolated elements
        gets one ``(rows, n)`` block: its declaration prior plus the
        stacked unary factors of those elements.  A coupled variable's
        unary factor is gathered from the prior and its unary terms at its
        own digit's rows, and a factor over scope ``(v_1, ..., v_m)`` at
        rows ``offset + sum_i a_i * stride(digit(v_i))`` — the proper
        coloring keeps the scope's digits distinct, so the gather
        enumerates the full ``(K_1, ..., K_m)`` table.
        """
        const_total: Optional[Tensor] = None
        prior_blocks: Dict[str, Tensor] = {}
        unary_vecs: Dict[Var, List[Tensor]] = {}
        nary_groups: Dict[Tuple[Var, ...], List[Tensor]] = {}
        for ct, raw in zip(self.terms, terms):
            term = as_tensor(raw)
            if ct.kind == "const":
                if term.data.ndim >= 1 and term.data.shape[0] == total_rows \
                        and total_rows > self.batch_rows:
                    reduced = _reduce_rows(term, total_rows)
                    reduced = ops.getitem(reduced, offset)
                else:
                    reduced = term.sum() if term.data.ndim > 0 else term
                const_total = reduced if const_total is None \
                    else ops.add(const_total, reduced)
            elif ct.kind == "site_prior":
                site = self.plan.site(ct.site)
                numel = max(site.numel, 1)
                if term.data.ndim == 1:
                    term = ops.reshape(term, (term.data.shape[0], 1))
                elif term.data.ndim > 2:
                    term = ops.sum_(term, axis=tuple(range(2, term.data.ndim)))
                if term.data.shape != (total_rows, numel):
                    raise FactorizationError(
                        f"site prior {ct.site!r} has shape {term.data.shape}, "
                        f"expected ({total_rows}, {numel})")
                prior_blocks[ct.site] = term
            else:
                reduced = _reduce_rows(term, total_rows)
                if len(ct.scope) == 1:
                    unary_vecs.setdefault(ct.scope[0], []).append(reduced)
                else:
                    nary_groups.setdefault(ct.scope, []).append(reduced)

        blocks: Dict[str, Tensor] = {}
        for site in self.plan.sites:
            prior = prior_blocks.get(site.name)
            if prior is None:
                raise FactorizationError(
                    f"site {site.name!r} produced no declaration-prior term")
            elems = self.isolated[site.name]
            if not elems:
                continue
            if len(elems) < max(site.numel, 1):
                prior = ops.getitem(prior, (slice(None), np.asarray(elems)))
            if any((site.name, n) in unary_vecs for n in elems):
                columns: List[Tensor] = []
                zero_col: Optional[Tensor] = None
                for n in elems:
                    parts = unary_vecs.get((site.name, n))
                    if parts is None:
                        if zero_col is None:
                            zero_col = as_tensor(np.zeros(total_rows))
                        columns.append(zero_col)
                        continue
                    total = parts[0]
                    for extra in parts[1:]:
                        total = ops.add(total, extra)
                    columns.append(total)
                prior = ops.add(prior, ops.stack(columns, axis=1))
            blocks[site.name] = prior

        unary: Dict[Var, Tensor] = {}
        for v in self.coupled:
            k = self.cards[v]
            row_idx = offset + np.arange(k) * self._strides[self._colors[v]]
            col = ops.getitem(prior_blocks[v[0]], (row_idx, np.full(k, v[1], dtype=int)))
            for extra in unary_vecs.get(v, ()):
                col = ops.add(col, ops.getitem(extra, row_idx))
            unary[v] = col

        nary: List[Tuple[Tuple[Var, ...], Tensor]] = []
        for scope, parts in nary_groups.items():
            total = parts[0]
            for extra in parts[1:]:
                total = ops.add(total, extra)
            m = len(scope)
            idx: Any = offset
            for i, v in enumerate(scope):
                axes = (1,) * i + (-1,) + (1,) * (m - 1 - i)
                a = np.arange(self.cards[v]).reshape(axes)
                idx = idx + a * self._strides[self._colors[v]]
            nary.append((scope, ops.getitem(total, idx)))
        return const_total, blocks, unary, nary

    def _isolated_columns(self, name: str, block: Tensor, offset: int) -> Tensor:
        """``(K, n)`` log factors of a site's isolated elements: digit 0 has
        stride 1, so rows ``offset .. offset + K - 1`` enumerate them."""
        k = self.plan.site(name).cardinality
        row_idx = offset + np.arange(k)
        cols = np.arange(len(self.isolated[name]))
        return ops.getitem(block, (row_idx[:, None], cols[None, :]))

    # ------------------------------------------------------------------
    # the contraction (exact marginal log joint)
    # ------------------------------------------------------------------
    def contract(self, terms: Sequence[Tensor], offset: int = 0,
                 total_rows: Optional[int] = None) -> Tensor:
        """Exact marginal log joint (a scalar tensor) from collected terms.

        The constant terms first, then each site's isolated block (one
        ``logsumexp`` over the support axis, summed), then the planned
        elimination order: each step pulls every live factor touching the
        step variable, aligns them onto the clique scope (sorted scopes
        make alignment a pure reshape-with-singleton-axes — no
        transposes), sums by broadcast, and ``logsumexp``-reduces the
        variable's axis.  The resulting message re-enters the factor pool;
        an empty-scope message closes a connected component and adds to the
        running total.  Every op is differentiable, so the tape carries
        exact gradients of the marginal.
        """
        const_total, blocks, unary, nary = self._extract(
            terms, total_rows or self.batch_rows, offset)
        total = const_total if const_total is not None else as_tensor(0.0)
        for name, block in blocks.items():
            per_element = ops.logsumexp(
                self._isolated_columns(name, block, offset), axis=0)
            total = ops.add(total, ops.sum_(per_element))
        pool: List[Tuple[Tuple[Var, ...], Tensor]] = \
            [((v,), unary[v]) for v in self.coupled]
        pool.extend(nary)
        for step in self.order.steps:
            group = [f for f in pool if step.var in f[0]]
            pool = [f for f in pool if step.var not in f[0]]
            shape_full = tuple(self.cards[u] for u in step.clique)
            phi: Optional[Tensor] = None
            for scope, t in group:
                scope_set = set(scope)
                shape = tuple(self.cards[u] if u in scope_set else 1
                              for u in step.clique)
                aligned = t if t.data.shape == shape else ops.reshape(t, shape)
                phi = aligned if phi is None else ops.add(phi, aligned)
            if phi.data.shape != shape_full:
                phi = ops.add(phi, as_tensor(np.zeros(shape_full)))
            msg = ops.logsumexp(phi, axis=step.axis())
            if step.message:
                pool.append((step.message, msg))
            else:
                total = ops.add(total, msg)
        return total

    # ------------------------------------------------------------------
    # posterior factors (the infer_discrete backward pass)
    # ------------------------------------------------------------------
    def posterior_factors(self, terms: Sequence[Tensor],
                          offset: int = 0) -> "ContractFactors":
        """NumPy factor tables of one gridded execution, order attached.

        The discrete posterior conditional on the continuous draw is the
        normalized factor graph itself: isolated elements are independent
        categoricals in their ``(n, K)`` block, and :class:`ContractFactors`
        runs calibration over the elimination tree for the coupled rest.
        """
        _, blocks, unary, nary = self._extract(terms, self.batch_rows, offset)
        isolated = {
            name: (np.asarray(self.isolated[name], dtype=int),
                   np.array(self._isolated_columns(name, block, offset).data).T)
            for name, block in blocks.items()}
        factors: List[Tuple[Tuple[Var, ...], np.ndarray]] = [
            ((v,), np.array(unary[v].data, dtype=float)) for v in self.coupled]
        for scope, t in nary:
            factors.append((scope, np.array(t.data, dtype=float)))
        return ContractFactors(steps=self.order.steps, cards=dict(self.cards),
                               factors=factors, isolated=isolated)


@dataclass
class ContractFactors:
    """One draw's discrete-posterior factor graph plus its elimination order.

    Isolated variables read out as one ``(n, K)`` softmax per site.  For the
    coupled rest, calibration over the elimination tree (one forward sweep
    in step order, one backward sweep in reverse) yields exact
    per-variable marginals; a max-product forward sweep with reverse-order
    backtracking yields the joint MAP; reverse-order conditional sampling
    from the sum-product cliques yields exact joint posterior draws (FFBS
    on a chain is the special case).
    """

    steps: Tuple[EliminationStep, ...]
    cards: Dict[Var, int]
    factors: List[Tuple[Tuple[Var, ...], np.ndarray]]
    #: ``{site: (element indices, (n, K) log factors)}`` of the isolated
    #: variables, in site order.
    isolated: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def _isolated_probs(self) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """``{site: (element indices, (n, K) probabilities)}``."""
        with np.errstate(all="ignore"):
            return {site: (idx, np.exp(logits - _lse(logits, axis=1, keepdims=True)))
                    for site, (idx, logits) in self.isolated.items()}

    def _forward(self, use_max: bool = False
                 ) -> Tuple[List[np.ndarray], List[np.ndarray], List[Optional[int]]]:
        """Replay the elimination, keeping every clique table.

        Returns per-step clique tables ``Phi``, messages, and each step's
        *parent* — the later step that consumed its message (``None`` for
        component roots).  The parent pointers are the elimination tree the
        backward pass walks.
        """
        pool: List[Tuple[Tuple[Var, ...], np.ndarray, Optional[int]]] = \
            [(scope, arr, None) for scope, arr in self.factors]
        cliques: List[np.ndarray] = []
        messages: List[np.ndarray] = []
        parents: List[Optional[int]] = []
        with np.errstate(all="ignore"):
            for si, step in enumerate(self.steps):
                group = [f for f in pool if step.var in f[0]]
                pool = [f for f in pool if step.var not in f[0]]
                shape_full = tuple(self.cards[u] for u in step.clique)
                phi = np.zeros(shape_full)
                for scope, arr, origin in group:
                    scope_set = set(scope)
                    shape = tuple(self.cards[u] if u in scope_set else 1
                                  for u in step.clique)
                    phi = phi + np.asarray(arr, dtype=float).reshape(shape)
                    if origin is not None:
                        parents[origin] = si
                axis = step.axis()
                if use_max:
                    msg = phi.max(axis=axis)
                else:
                    msg = _lse(phi, axis=axis)
                cliques.append(phi)
                messages.append(msg)
                parents.append(None)
                if step.message:
                    pool.append((step.message, msg, si))
        return cliques, messages, parents

    def _beliefs(self) -> List[np.ndarray]:
        """Calibrated clique beliefs: ``Phi_v`` plus the backward message.

        ``beta_v = Phi_v + extend(reduce(beta_parent) - m_v)``: the parent's
        belief marginalized down to the message scope, with the forward
        message divided back out so no evidence is double-counted.
        """
        cliques, messages, parents = self._forward()
        n = len(self.steps)
        beliefs: List[Optional[np.ndarray]] = [None] * n
        with np.errstate(all="ignore"):
            for si in range(n - 1, -1, -1):
                step = self.steps[si]
                phi = cliques[si]
                p = parents[si]
                if p is None:
                    beliefs[si] = phi
                    continue
                pstep = self.steps[p]
                keep = {pstep.clique.index(u) for u in step.message}
                drop = tuple(ax for ax in range(len(pstep.clique))
                             if ax not in keep)
                back = _lse(beliefs[p], axis=drop) if drop else beliefs[p]
                msg = messages[si]
                dead = np.isneginf(msg)
                back = np.where(dead, -np.inf,
                                back - np.where(dead, 0.0, msg))
                beliefs[si] = phi + np.expand_dims(back, step.axis())
        return beliefs

    def marginals(self) -> Dict[Var, np.ndarray]:
        """Exact ``{variable: (K,) posterior probabilities}``."""
        out: Dict[Var, np.ndarray] = {}
        for site, (idx, probs) in self._isolated_probs().items():
            for n, row in zip(idx, probs):
                out[(site, int(n))] = row
        beliefs = self._beliefs()
        with np.errstate(all="ignore"):
            for si, step in enumerate(self.steps):
                b = beliefs[si]
                axis = step.axis()
                drop = tuple(ax for ax in range(b.ndim) if ax != axis)
                lm = _lse(b, axis=drop) if drop else b
                lm = lm - _lse(lm)
                out[step.var] = np.exp(lm)
        return out

    def _backtrack(self, cliques: List[np.ndarray],
                   pick: Callable[[np.ndarray], int]) -> Dict[Var, int]:
        """Reverse-elimination-order assignment: every non-step variable of a
        clique lives in the message scope, hence was eliminated later and is
        already assigned when the sweep reaches the clique."""
        assign: Dict[Var, int] = {}
        for si in range(len(self.steps) - 1, -1, -1):
            step = self.steps[si]
            idx = tuple(slice(None) if u == step.var else assign[u]
                        for u in step.clique)
            vec = np.asarray(cliques[si][idx], dtype=float).reshape(-1)
            assign[step.var] = pick(vec)
        return assign

    def map_assignment(self) -> Dict[Var, int]:
        """The joint posterior mode: per-element argmax of the isolated
        variables, max-product + backtracking for the coupled rest."""
        assign: Dict[Var, int] = {}
        for site, (idx, probs) in self._isolated_probs().items():
            for n, pick in zip(idx, np.argmax(probs, axis=1)):
                assign[(site, int(n))] = int(pick)
        cliques, _, _ = self._forward(use_max=True)
        assign.update(self._backtrack(cliques, lambda vec: int(np.argmax(vec))))
        return assign

    def sample(self, rng: np.random.Generator) -> Dict[Var, int]:
        """One exact joint posterior draw: the isolated variables first (site
        order, then element order), then conditional sampling of the coupled
        rest in reverse elimination order."""
        assign: Dict[Var, int] = {}
        for site, (idx, probs) in self._isolated_probs().items():
            for n, row in zip(idx, probs):
                assign[(site, int(n))] = int(rng.choice(row.size, p=row / row.sum()))
        cliques, _, _ = self._forward()

        def pick(vec: np.ndarray) -> int:
            with np.errstate(all="ignore"):
                probs = np.exp(vec - _lse(vec))
            probs = probs / probs.sum()
            return int(rng.choice(probs.size, p=probs))

        assign.update(self._backtrack(cliques, pick))
        return assign


def analyze_contraction(model: Callable, plan: EnumerationPlan,
                        model_args: Tuple = (),
                        model_kwargs: Optional[Dict] = None,
                        observed: Optional[Dict[str, Any]] = None,
                        constrained: Optional[Mapping[str, Any]] = None,
                        rng_seed: int = 0,
                        max_batch_rows: Optional[int] = None,
                        max_table_size: Optional[int] = None,
                        telemetry=None) -> ContractionPlan:
    """Plan elimination for a model's discrete factor graph.

    Collects the per-element log-factor structure once
    (:func:`~repro.enum.factorize.collect_term_structure`) and plans it as a
    :class:`ContractionPlan`.  Raises :class:`FactorizationError` (or its
    subclass :class:`ContractionError` with the greedy cost report) when no
    elimination fits; callers fall back to the joint table.

    ``telemetry`` receives an ``enum.analyze`` span with the resolved
    strategy, the isolated-variable count and the planner cost estimate.
    """
    from repro.obs import as_telemetry

    with as_telemetry(telemetry).span(
            "enum.analyze", sites=len(plan.sites),
            table_size=plan.table_size) as span:
        collected = collect_term_structure(
            model, plan, model_args=model_args, model_kwargs=model_kwargs,
            observed=observed, constrained=constrained, rng_seed=rng_seed)
        result = ContractionPlan(plan, collected,
                                 max_batch_rows=max_batch_rows,
                                 max_table_size=max_table_size)
        span.set(strategy="contract",
                 isolated=sum(len(e) for e in result.isolated.values()),
                 elimination_cost=result.cost_estimate(),
                 max_intermediate=result.order.max_intermediate)
        return result
