"""The parallel-enumeration effect handler.

:class:`enum_sites` is an ordinary effect handler (a
:class:`repro.ppl.handlers.Messenger`): at every discrete latent sample site
named in its :class:`~repro.enum.plan.EnumerationPlan` it supplies the site's
values over the flattened joint table (``plan.flat_values()``) instead of a
single draw, the leading table axis marked ``is_batched`` so the runtime's
indexing helpers (``_index``, ``_mul``) treat it exactly like a chain
batch.  One traced execution of the model therefore evaluates every
joint assignment of the discrete latents at once, and
:func:`enum_trace_log_density` reduces the log-probability terms to a
per-assignment log-joint vector that the potential ``logsumexp``-es into
the exact marginal density.

The handler materializes the **joint** table (``prod_i K_i^numel_i`` rows)
and therefore serves the ``"parallel"``/``"rows"`` strategies only; the
``"contract"`` strategy (:mod:`repro.enum.contract`) substitutes mixed-radix
per-element grids through the fast log-density context instead and never
builds the table.  The graph-walk term classification below
(:func:`_depends_on`) is the site-granular ancestor of the element-granular
analysis in :mod:`repro.enum.factorize`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Tensor, as_tensor, is_grad_enabled
from repro.enum.plan import EnumerationPlan
from repro.ppl import handlers


class enum_sites(handlers.Messenger):
    """Substitute every planned discrete latent site with its support table."""

    def __init__(self, fn: Optional[Callable] = None,
                 plan: Optional[EnumerationPlan] = None):
        super().__init__(fn)
        if plan is None:
            raise ValueError("enum_sites requires an EnumerationPlan")
        self.plan = plan

    def process_message(self, msg: Dict[str, Any]) -> None:
        if msg["type"] != "sample" or msg["is_observed"] or msg["value"] is not None:
            return
        name = msg["name"]
        if name not in self.plan:
            return
        value = as_tensor(self.plan.flat_values()[name])
        value.is_batched = True
        msg["value"] = value
        msg["enumerated"] = True


def _depends_on(tensor: Tensor, target_ids) -> bool:
    """Whether ``tensor`` was computed from any tensor in ``target_ids``.

    Walks the recorded autodiff graph (iterative, memo-free DFS with a
    visited set) — the exact way to know if a log-prob term is
    assignment-dependent, with no shape coincidences.
    """
    stack = [tensor]
    seen = set()
    while stack:
        node = stack.pop()
        if id(node) in target_ids:
            return True
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
    return False


def _enum_term_ids(model_trace: Dict[str, Dict[str, Any]]) -> set:
    """ids of the enumerated value tensors substituted into a trace."""
    return {
        id(site["value"]) for site in model_trace.values()
        if site.get("enumerated") and isinstance(site["value"], Tensor)
    }


def _reduce_enum_term(lp: Tensor, enum_indexed: bool) -> Tensor:
    """Sum a log-prob term over its trailing (event/data) axes.

    A term that carries the leading table axis keeps it; a term that never
    touched an enumerated value is summed to a scalar (it is constant across
    assignments and broadcasts into the joint table).
    """
    if not enum_indexed:
        return lp.sum() if lp.data.ndim > 0 else lp
    if lp.data.ndim > 1:
        return ops.sum_(lp, axis=tuple(range(1, lp.data.ndim)))
    return lp


def enum_trace_log_density(model_trace: Dict[str, Dict[str, Any]],
                           plan: EnumerationPlan) -> Tensor:
    """Per-assignment log joint of an enumerated trace.

    Returns a ``(table_size,)`` tensor: entry ``t`` is the log joint density
    of the trace with the discrete latents fixed to joint assignment ``t``
    (row ``t`` of the flattened table).

    Assignment-dependence of each term is decided by walking the recorded
    autodiff graph back to the enumerated value tensors — exact, no shape
    coincidences (a data vector whose length happens to equal the table
    size is still summed to a scalar).  Under ``no_grad`` no graph is
    recorded and a term whose leading axis has the table's length counts
    as assignment-dependent; inside :class:`repro.infer.Potential`
    evaluations additionally sit behind the bitwise rows-oracle validation.
    """
    enum_ids = _enum_term_ids(model_trace)
    use_graph = is_grad_enabled()
    t_size = plan.table_size
    total = as_tensor(np.zeros(t_size))
    for site in model_trace.values():
        if site["type"] == "sample":
            lp = as_tensor(site["fn"].log_prob(site["value"]))
        elif site["type"] == "factor":
            lp = as_tensor(site["value"])
        else:
            continue
        enum_indexed = _depends_on(lp, enum_ids) if use_graph else (
            lp.data.ndim >= 1 and lp.data.shape[0] == t_size)
        total = ops.add(total, _reduce_enum_term(lp, enum_indexed))
    return total


def enum_log_density(model: Callable, plan: EnumerationPlan, model_args=(),
                     model_kwargs=None, substituted: Optional[Dict[str, Any]] = None,
                     observed: Optional[Dict[str, Any]] = None, rng_seed: int = 0):
    """Run ``model`` once with parallel enumeration; return per-assignment log joints.

    ``substituted`` fixes the continuous latent sites; ``observed`` conditions
    data sites.  Returns ``(per_assignment, trace)`` where ``per_assignment``
    is a differentiable ``(table_size,)`` tensor.
    """
    model_kwargs = model_kwargs or {}
    tracer = handlers.trace()
    with handlers.seed(rng_seed=rng_seed), \
         handlers.condition(data=observed or {}), \
         handlers.substitute(data=substituted or {}), \
         enum_sites(plan=plan), tracer:
        model(*model_args, **model_kwargs)
    return enum_trace_log_density(tracer.trace, plan), tracer.trace
