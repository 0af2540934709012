"""Enumeration plans: the exact-marginalization table over discrete latents.

Stan forbids ``int`` parameters because HMC cannot move through a discrete
space; the paper's pitch is that compiling to a generative PPL lifts that
restriction.  This module is the bookkeeping half of our discrete-latent
engine: given the discrete latent sample sites of a traced model execution it
builds an :class:`EnumerationPlan` describing the *joint assignment table* —
every combination of values the discrete latents can take.

Layout conventions
------------------

Each discrete site owns one reserved broadcast axis.  A site whose value is
an array (e.g. ``int<lower=1,upper=2> z[N]``) enumerates the cartesian
product over its elements, so its axis has ``K ** N`` entries.  The plan
offers two equivalent views of the table:

* ``flat_values()`` — every site as a ``(T, *event_shape)`` array whose
  leading axis is the *flattened joint table* (``T = prod(site sizes)``,
  row-major over sites in trace order).  This is what the vectorized
  potential fast path substitutes: the table rides the existing batched
  evaluation machinery, with per-assignment log joints coming back as a
  ``(T,)`` vector to be ``logsumexp``-ed.
* ``axis_values(name)`` — the same values shaped ``(1, ..., A_i, ..., 1,
  *event_shape)`` with site ``i``'s axis at position ``i`` of the reserved
  prefix, used by the :class:`repro.enum.handler.enum_sites` effect handler
  (one traced execution evaluates all joint assignments by broadcasting).

Guard rails: a site whose distribution has no finite support (``Poisson``,
an unbounded ``int`` declaration) raises :class:`EnumerationError`; a joint
table larger than the configurable cap raises :class:`TableSizeError` — both
carry actionable messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

#: default cap on the joint assignment table (``prod_i K_i ** numel_i``).
DEFAULT_MAX_TABLE_SIZE = 100_000


class EnumerationError(RuntimeError):
    """A discrete latent site cannot be marginalized exactly."""


class TableSizeError(EnumerationError):
    """The joint enumeration table exceeds the configured size cap."""


def site_support(name: str, fn) -> np.ndarray:
    """Per-element support of a discrete site's distribution, or raise.

    Wraps ``fn.enumerate_support()`` and converts an unbounded/unknown
    support into an :class:`EnumerationError` naming the site.
    """
    try:
        support = np.asarray(fn.enumerate_support(), dtype=float)
    except NotImplementedError as exc:
        raise EnumerationError(
            f"discrete latent site {name!r} ({type(fn).__name__}) cannot be "
            f"enumerated: {exc}. Exact marginalization needs a finite support — "
            "declare the parameter with finite bounds (int<lower=..,upper=..>) "
            "or reformulate the unbounded distribution (e.g. truncate a Poisson "
            "latent to a bounded range)."
        ) from exc
    if support.ndim != 1 or support.size == 0:
        raise EnumerationError(
            f"discrete latent site {name!r}: enumerate_support() returned an "
            f"invalid support of shape {support.shape}")
    return support


@dataclass(frozen=True)
class DiscreteSiteInfo:
    """Metadata for one discrete latent sample site."""

    name: str
    support: np.ndarray          # (K,) per-element support values
    event_shape: Tuple[int, ...]

    @property
    def cardinality(self) -> int:
        """Per-element support size ``K``."""
        return int(self.support.size)

    @property
    def numel(self) -> int:
        return int(np.prod(self.event_shape)) if self.event_shape else 1

    @property
    def num_assignments(self) -> int:
        """Joint assignments of the whole site: ``K ** numel``."""
        return self.cardinality ** self.numel

    def assignments(self) -> np.ndarray:
        """``(num_assignments, *event_shape)`` joint support of the site.

        Row-major: the last element of the site varies fastest, mirroring
        ``numpy`` reshape order so axis/flat views stay consistent.
        """
        k, m = self.cardinality, self.numel
        idx = np.arange(self.num_assignments)
        strides = k ** np.arange(m - 1, -1, -1)
        digits = (idx[:, None] // strides[None, :]) % k
        values = self.support[digits]
        return values.reshape((self.num_assignments,) + self.event_shape)

    def element_digits(self, assignment_idx: np.ndarray) -> np.ndarray:
        """Per-element support indices ``(len(idx), numel)`` of assignments."""
        k, m = self.cardinality, self.numel
        strides = k ** np.arange(m - 1, -1, -1)
        return (np.asarray(assignment_idx)[:, None] // strides[None, :]) % k


class EnumerationPlan:
    """The joint assignment table over all discrete latent sites of a model."""

    def __init__(self, sites: List[DiscreteSiteInfo],
                 max_table_size: Optional[int] = None,
                 defer_size_check: bool = False):
        self.sites: List[DiscreteSiteInfo] = list(sites)
        if not self.sites:
            raise ValueError("an EnumerationPlan needs at least one discrete site")
        self.max_table_size = (DEFAULT_MAX_TABLE_SIZE if max_table_size is None
                               else int(max_table_size))
        table_size = 1
        for site in self.sites:
            table_size *= site.num_assignments
        # Python int arithmetic on purpose: a contract plan may describe a
        # table (2^500 joint assignments) that is never materialized.
        self.table_size = int(table_size)
        if not defer_size_check:
            self.ensure_table_capacity()
        self._flat_cache: Optional[Dict[str, np.ndarray]] = None
        # draw-independent bookkeeping, built once and reused by the
        # infer_discrete post-pass (called once per retained draw)
        self._rows_cache: Dict[str, np.ndarray] = {}
        self._digits_cache: Dict[str, np.ndarray] = {}

    def ensure_table_capacity(self, factorization_note: Optional[str] = None,
                              strategy: Optional[str] = None) -> None:
        """Raise :class:`TableSizeError` if the joint table exceeds the cap.

        Called at construction for joint-table plans and *lazily* — only when
        a joint evaluation is actually needed — for contract plans, whose
        table may be astronomically large without ever being built.
        ``factorization_note`` reports whether the structured strategy was
        attempted and why it did not apply; ``strategy`` names the strategy
        that was requested (``"auto"`` or ``"contract"``) so the fallback
        diagnostic does not mislead.
        """
        if self.table_size <= self.max_table_size:
            return
        detail = ", ".join(
            f"{s.name}: {s.cardinality}^{s.numel} = {s.num_assignments}"
            for s in self.sites)
        if factorization_note is None:
            attempted = (f"the {strategy} strategy was not attempted"
                         if strategy else
                         "tensor variable elimination was not attempted")
            factorization_note = (
                f"{attempted} on this path — "
                'recompile with enum="auto" (instead of the joint-table '
                'enum="parallel") so the contraction planner eliminates '
                "conditionally-independent elements in O(N*K), chains in "
                "O(T*K^2) and bounded-treewidth coupling in O(N*K^w) without "
                "a joint table")
        raise TableSizeError(
            f"joint enumeration table has {self.table_size} entries "
            f"({detail}), exceeding the cap of {self.max_table_size}. "
            f"{factorization_note}. Otherwise reduce the discrete state space "
            "(fewer elements / tighter bounds) or raise the cap "
            "(compile_model(..., enum=EnumConfig(max_table_size=...)) / "
            "Potential(enum=EnumConfig(max_table_size=...))).")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_trace_sites(cls, trace_sites: Mapping[str, Tuple[object, Tuple[int, ...]]],
                         max_table_size: Optional[int] = None,
                         defer_size_check: bool = False) -> "EnumerationPlan":
        """Build a plan from ``{name: (distribution, event_shape)}`` entries."""
        sites = [
            DiscreteSiteInfo(name=name, support=site_support(name, fn),
                             event_shape=tuple(shape))
            for name, (fn, shape) in trace_sites.items()
        ]
        return cls(sites, max_table_size=max_table_size,
                   defer_size_check=defer_size_check)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def site_names(self) -> List[str]:
        return [site.name for site in self.sites]

    @property
    def axis_sizes(self) -> Tuple[int, ...]:
        """One reserved axis per site: ``(A_0, ..., A_{E-1})``."""
        return tuple(site.num_assignments for site in self.sites)

    def __contains__(self, name: str) -> bool:
        return any(site.name == name for site in self.sites)

    def site(self, name: str) -> DiscreteSiteInfo:
        for site in self.sites:
            if site.name == name:
                return site
        raise KeyError(name)

    def site_axis(self, name: str) -> int:
        for i, site in enumerate(self.sites):
            if site.name == name:
                return i
        raise KeyError(name)

    def __repr__(self) -> str:
        detail = ", ".join(f"{s.name}({s.num_assignments})" for s in self.sites)
        return f"EnumerationPlan({detail}; table_size={self.table_size})"

    # ------------------------------------------------------------------
    # table views
    # ------------------------------------------------------------------
    def _site_strides(self) -> List[int]:
        """Row-major stride of each site's axis in the flattened table."""
        strides = []
        stride = self.table_size
        for site in self.sites:
            stride //= site.num_assignments
            strides.append(stride)
        return strides

    def site_assignment_indices(self, name: str,
                                table_idx: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-site assignment index of each (given) flat table row.

        The full-table variant (``table_idx=None``) is cached — it is pure
        plan bookkeeping and the discrete post-pass asks for it per draw.
        """
        if table_idx is None:
            if name not in self._rows_cache:
                self._rows_cache[name] = self.site_assignment_indices(
                    name, np.arange(self.table_size))
            return self._rows_cache[name]
        axis = self.site_axis(name)
        site = self.sites[axis]
        stride = self._site_strides()[axis]
        return (np.asarray(table_idx) // stride) % site.num_assignments

    @staticmethod
    def _event_pad(site: DiscreteSiteInfo) -> Tuple[int, ...]:
        """Trailing shape of a site's table values.

        Scalar sites keep a trailing singleton axis (mirroring the batched
        runtime's per-chain-scalar ``(C, 1)`` convention) so that an
        enumerated scalar broadcasts against data vectors instead of
        colliding with them; array sites use their event shape.
        """
        return site.event_shape if site.event_shape else (1,)

    def flat_values(self) -> Dict[str, np.ndarray]:
        """``{name: (table_size, *event)}`` — the flattened joint table.

        Scalar sites are shaped ``(table_size, 1)`` (see :meth:`_event_pad`).
        """
        if self._flat_cache is None:
            self.ensure_table_capacity()
            out: Dict[str, np.ndarray] = {}
            for site in self.sites:
                rows = self.site_assignment_indices(site.name)
                values = site.assignments()[rows]
                out[site.name] = values.reshape(
                    (self.table_size,) + self._event_pad(site))
            self._flat_cache = out
        return self._flat_cache

    def axis_values(self, name: str) -> np.ndarray:
        """Site values with the site's own reserved broadcast axis.

        Shape ``(1, ..., A_i, ..., 1, *event_shape)`` — axis ``i`` of the
        ``E`` reserved leading axes carries the site's joint assignments;
        every other reserved axis is a singleton, so values of different
        sites broadcast against each other into the full joint table.
        """
        axis = self.site_axis(name)
        site = self.sites[axis]
        e = len(self.sites)
        shape = (1,) * axis + (site.num_assignments,) + (1,) * (e - 1 - axis)
        return site.assignments().reshape(shape + self._event_pad(site))

    def decode(self, table_idx: int) -> Dict[str, np.ndarray]:
        """Concrete per-site values of one joint assignment (flat row)."""
        out: Dict[str, np.ndarray] = {}
        for site in self.sites:
            a = int(self.site_assignment_indices(site.name, np.array([table_idx]))[0])
            out[site.name] = site.assignments()[a]
        return out

    # ------------------------------------------------------------------
    # posteriors over assignments (the infer_discrete post-pass)
    # ------------------------------------------------------------------
    def element_marginals(self, name: str, weights: np.ndarray) -> np.ndarray:
        """Per-element marginal probabilities of a site.

        ``weights`` is a normalized ``(table_size,)`` distribution over joint
        assignments; returns ``(*event_shape, K)`` with ``out[..., k]`` the
        marginal probability that the element takes ``support[k]``.
        """
        site = self.site(name)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.table_size,):
            raise ValueError(
                f"weights must have shape ({self.table_size},), got {weights.shape}")
        if name not in self._digits_cache:
            rows = self.site_assignment_indices(name)
            self._digits_cache[name] = site.element_digits(rows)   # (T, numel)
        digits = self._digits_cache[name]
        out = np.empty((site.numel, site.cardinality))
        for m in range(site.numel):
            out[m] = np.bincount(digits[:, m], weights=weights,
                                 minlength=site.cardinality)
        return out.reshape(site.event_shape + (site.cardinality,))
