"""Runtime library imported by the code the backends generate.

The generated Python modules start with ``from repro.backends.runtime import *``
and then use:

* the probabilistic primitives ``sample`` / ``observe`` / ``factor`` /
  ``param`` (re-exported from :mod:`repro.ppl`),
* distribution constructors under their Stan names (``normal``, ``beta``,
  ``bernoulli``, ``improper_uniform``, ...),
* the standard-library dispatcher ``_call("sum", x)``,
* indexing helpers implementing Stan's one-based indexing and functional
  array updates (``_index`` / ``_index_update``), matching the explicit copies
  the paper's NumPyro backend introduces for in-loop array mutation (§4),
* ``fori_loop`` — the NumPyro-style loop combinator used when the backend
  lambda-lifts loop bodies (§4).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

import numpy as np

from repro.autodiff import compile as tape_compile
from repro.autodiff import ops
from repro.autodiff.tensor import Tensor, as_tensor
from repro.core import stanlib
from repro.ppl.primitives import BatchMixingError, current_batch_size, factor, observe, param, sample

__all__ = [
    "sample",
    "observe",
    "factor",
    "param",
    "np",
    "Tensor",
    "_call",
    "_index",
    "_index_update",
    "_slice_index",
    "_zeros",
    "_irange",
    "_truthy",
    "_cmp",
    "_int",
    "_mul",
    "_div",
    "_elt_mul",
    "_elt_div",
    "_pow",
    "_mod",
    "_idiv",
    "_transpose",
    "_neg",
    "_not",
    "_and",
    "_or",
    "_array",
    "_row_vector",
    "_to_value",
    "_fresh_site",
    "_iter",
    "_call_network",
    "_positive_param",
    "fori_loop",
    "vectorized_range",
] + sorted(stanlib.KNOWN_DISTRIBUTIONS)


# ----------------------------------------------------------------------
# distribution constructors under their Stan names
# ----------------------------------------------------------------------
def _make_ctor(dist_name: str) -> Callable:
    factory = stanlib.KNOWN_DISTRIBUTIONS[dist_name]

    def ctor(*args, **kwargs):
        return factory(*args, **kwargs)

    ctor.__name__ = dist_name
    ctor.__doc__ = f"Stan distribution constructor for ``{dist_name}``."
    return ctor


_GLOBALS = globals()
for _name in stanlib.KNOWN_DISTRIBUTIONS:
    _GLOBALS[_name] = _make_ctor(_name)


# ----------------------------------------------------------------------
# standard-library dispatch and user-function support
# ----------------------------------------------------------------------
def _is_per_chain(x, batch: int) -> bool:
    """Whether ``x`` carries the leading chain axis of a batched evaluation.

    Derived tensors don't inherit ``is_batched`` from the substituted leaves,
    but under a batched evaluation every graph-connected tensor descends from
    batched latents, so a leading axis of length ``batch`` is the chain axis.
    """
    return isinstance(x, Tensor) and (
        getattr(x, "is_batched", False)
        or (x.data.ndim >= 1 and x.data.shape[0] == batch and x._requires_graph()))


def _call(name: str, *args):
    """Dispatch a Stan standard-library call by name.

    During vectorized multi-chain evaluation, calls on tensors that carry a
    leading chain axis (``is_batched``) must not collapse that axis: a plain
    ``sum(theta)`` would silently mix all chains into one scalar, and a
    branch on the result would bypass the :func:`_truthy` mixing guard (the
    reduced value is size 1).  ``sum``/``mean`` therefore reduce per chain,
    and any other call whose result loses the chain axis aborts the batched
    evaluation so the potential falls back to the per-chain row loop.
    Arguments count as per-chain by the rule of :func:`_is_per_chain`, so
    sums of per-chain terms (which lose the ``is_batched`` flag) still reduce
    per chain.
    """
    batch = current_batch_size()
    if batch is not None and any(_is_per_chain(a, batch) for a in args):
        if name == "log_sum_exp" and len(args) > 1:
            # Binary ``log_sum_exp(a, b)`` over per-chain terms: stack the
            # terms on a trailing axis and reduce per chain below (the
            # scalar library's leading-axis stack would reduce over the
            # chain axis too).
            terms = [as_tensor(a) for a in args]
            shape = np.broadcast_shapes(*(t.data.shape for t in terms))
            args = (ops.stack([t if t.data.shape == shape
                               else ops.mul(t, np.ones(shape)) for t in terms],
                              axis=-1),)
        if name in ("sum", "mean", "log_sum_exp") and len(args) == 1:
            x = as_tensor(args[0])
            reduce = {"sum": ops.sum_, "mean": ops.mean,
                      "log_sum_exp": ops.logsumexp}[name]
            out = reduce(x, axis=tuple(range(1, x.data.ndim)))
            out = ops.reshape(out, (batch, 1))
            out.is_batched = True
            return out
        lpdf_base = next((name[:-len(s)] for s in ("_lpdf", "_lpmf", "_log")
                          if name.endswith(s)), None)
        if args and lpdf_base in stanlib.KNOWN_DISTRIBUTIONS:
            # Stan's scalar ``*_lpdf`` semantics sum the log density over
            # every vectorized element — which would mix the chain axis into
            # one scalar.  Recompute per chain: elementwise log_prob, reduced
            # over the event axes only (per-chain scalars, e.g.
            # ``normal_lpdf(y[t], mu[k], 0.5)`` in a forward recurrence,
            # have no event axes and pass through unsummed).
            lp = stanlib.make_distribution(lpdf_base, *args[1:]).log_prob(
                as_tensor(args[0]))
            if (isinstance(lp, Tensor) and lp.data.ndim >= 1
                    and lp.data.shape[0] == batch):
                if lp.data.ndim > 1:
                    lp = ops.sum_(lp, axis=tuple(range(1, lp.data.ndim)))
                out = ops.reshape(lp, (batch, 1))
                out.is_batched = True
                return out
        result = stanlib.lookup_function(name)(*args)
        shape = np.shape(_to_value(result))
        if len(shape) == 0 or shape[0] != batch:
            raise BatchMixingError(
                f"stanlib call {name!r} lost the chain axis (result shape {shape})")
        if isinstance(result, Tensor):
            result.is_batched = True
        return result
    return stanlib.lookup_function(name)(*args)


def _to_value(x):
    """Plain NumPy value of a possibly-Tensor quantity."""
    return x.data if isinstance(x, Tensor) else x


def _int(x) -> int:
    if isinstance(x, Tensor):
        return int(x.data)
    return int(np.asarray(x))


_CMP_OPS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


def _cmp(op: str, a, b):
    """Stan comparison operator over possibly-Tensor operands.

    Comparisons escape the autodiff graph (their result feeds control flow
    or boolean arithmetic, not the tape), so a comparison on a
    graph-connected value during tape tracing marks the trace as dynamically
    branching — a compiled program would freeze its outcome.
    """
    if tape_compile.TRACING:
        for operand in (a, b):
            if isinstance(operand, Tensor) and operand._requires_graph():
                tape_compile.note_dynamic_branch()
                break
    return _CMP_OPS[op](_to_value(a), _to_value(b))


def _truthy(x) -> bool:
    if tape_compile.TRACING and isinstance(x, Tensor) and x._requires_graph():
        # The tape compiler is tracing: a branch on an input-derived value
        # cannot be frozen into a compiled program.
        tape_compile.note_dynamic_branch()
    value = _to_value(x)
    arr = np.asarray(value)
    if arr.size == 1:
        return bool(arr)
    batch = current_batch_size()
    if batch is not None and arr.ndim >= 1 and arr.shape[0] == batch:
        # Branching on a per-chain quantity cannot be batched: each chain may
        # take a different path.  Raising aborts the vectorized evaluation so
        # the potential falls back to the per-chain row loop.
        raise BatchMixingError("control flow depends on a per-chain value")
    return bool(np.all(arr))


# ----------------------------------------------------------------------
# indexing (Stan is one-based; slices are inclusive on both ends)
# ----------------------------------------------------------------------
def _normalize_index(idx):
    if isinstance(idx, slice):
        return idx
    if isinstance(idx, Tensor):
        arr = idx.data
        if arr.ndim == 0:
            return int(arr) - 1
        return arr.astype(int) - 1
    arr = np.asarray(idx)
    if arr.ndim == 0:
        return int(arr) - 1
    return arr.astype(int) - 1


def _slice_index(lower=None, upper=None):
    """Build a Python slice from Stan's inclusive one-based bounds."""
    lo = None if lower is None else _int(lower) - 1
    hi = None if upper is None else _int(upper)
    return slice(lo, hi)


def _tie_index_tensors(out, indices):
    """Zero-valued graph edges from tensor indices into an indexed result.

    Indexing is not differentiable in the index, but provenance analyses
    (the enumeration engine's term classification) need ``mu[z]`` to record
    its dependence on ``z``.  Only applied when the index broadcasts cleanly
    into the result; otherwise the caller's validation nets handle it.
    """
    if not isinstance(out, Tensor):
        return out
    for idx in indices:
        if isinstance(idx, Tensor):
            try:
                if np.broadcast_shapes(out.data.shape, idx.data.shape) == out.data.shape:
                    out = ops.add(out, ops.mul(idx, 0.0))
            except ValueError:
                pass
    return out


def _index(base, *indices):
    """One-based indexing of arrays, vectors, matrices and Tensors.

    During vectorized multi-chain evaluation, tensors that carry a leading
    chain axis (``is_batched``) are indexed on their *event* axes: ``beta[2]``
    picks column 1 of the ``(chains, 2)`` matrix and stays per-chain, shaped
    ``(chains, 1)`` so it broadcasts against data vectors like a scalar.
    """
    norm = tuple(_normalize_index(i) for i in indices)
    elements = getattr(base, "enum_elements", None) if isinstance(base, Tensor) else None
    if elements is not None and len(norm) == 1 and isinstance(norm[0], int):
        # Factorized-enumeration dependency analysis: the site value is a
        # 1-D array assembled from per-element leaf tensors; returning the
        # leaf (instead of slicing the assembled tensor) lets the graph walk
        # see exactly which element each log-prob term touched.
        return elements[norm[0]]
    if isinstance(base, Tensor) and getattr(base, "is_batched", False):
        b = base.data.shape[0]
        arrays = [i for i in norm if isinstance(i, np.ndarray) and i.ndim >= 1]
        if arrays and all(a.shape[0] == b for a in arrays):
            # Per-row indices (e.g. a latent vector indexed by an enumerated
            # assignment): gather row-wise so row i of the result reads row i
            # of the base — a plain advanced index would take the outer
            # product of the batch axes instead.
            idx_shape = np.broadcast_shapes(*[a.shape for a in arrays])
            rows = np.arange(b).reshape((b,) + (1,) * (len(idx_shape) - 1))
            out = base[(rows,) + norm]
        else:
            out = base[(slice(None),) + norm]
        if out.data.ndim == 1:
            out = out.reshape((out.data.shape[0], 1))
        out = _tie_index_tensors(out, indices)
        out.is_batched = True
        return out
    if len(norm) == 1:
        norm = norm[0]
    if isinstance(base, Tensor):
        return _tie_index_tensors(base[norm], indices)
    if isinstance(base, (list, tuple)):
        if isinstance(norm, tuple):
            out = base
            for i in norm:
                out = out[i]
            return out
        return base[norm]
    if any(isinstance(i, Tensor) for i in indices):
        # Data indexed by a latent/enumerated tensor (``Gamma[z[t-1]]``): the
        # numeric result is index-selected data, but provenance analyses (the
        # enumeration engine's term classification) must still see that it
        # depends on the indexing tensor — tie it into the graph.
        return _tie_index_tensors(as_tensor(np.asarray(base)[norm]), indices)
    return np.asarray(base)[norm]


def _index_update(base, indices: Tuple, value):
    """Functional one-based indexed update (returns a new container)."""
    norm = tuple(_normalize_index(i) for i in indices)
    batch = current_batch_size()
    base_batched = isinstance(base, Tensor) and getattr(base, "is_batched", False)
    value_batched = batch is not None and _is_per_chain(value, batch)
    if batch is not None and (base_batched or value_batched):
        # Vectorized multi-chain evaluation: the indices address event axes,
        # so the write must go to ``[:, norm]`` with the leading chain axis
        # untouched.  An unbatched base (e.g. a ``_zeros`` local) is first
        # lifted onto the chain axis so every chain gets its own copy.
        base_t = as_tensor(base)
        if not base_batched:
            lifted = (batch,) + base_t.data.shape
            if base_t._requires_graph():
                base_t = ops.mul(
                    ops.reshape(base_t, (1,) + base_t.data.shape),
                    np.ones((batch,) + (1,) * base_t.data.ndim),
                )
            else:
                base_t = as_tensor(np.broadcast_to(base_t.data, lifted).copy())
        idx = (slice(None),) + norm
        value_t = as_tensor(value)
        cell_shape = np.broadcast_to(False, base_t.data.shape)[idx].shape
        if (
            value_batched
            and value_t.data.shape == (batch, 1)
            and cell_shape == (batch,)
        ):
            # A per-chain scalar ``(batch, 1)`` written into one scalar cell
            # per chain (``(batch,)`` target): drop the trailing event axis.
            value_t = ops.reshape(value_t, (batch,))
        out = ops.index_update(base_t, idx, value_t)
        out.is_batched = True
        return out
    if len(norm) == 1:
        norm = norm[0]
    if isinstance(base, Tensor) or isinstance(value, Tensor):
        return ops.index_update(as_tensor(base), norm, as_tensor(value))
    arr = np.array(base, dtype=float, copy=True)
    arr[norm] = _to_value(value)
    return arr


def _zeros(*dims):
    """Zero-initialised container for a local Stan declaration."""
    if not dims:
        return 0.0
    shape = tuple(_int(d) for d in dims)
    return np.zeros(shape)


def _irange(lower, upper):
    """Stan's inclusive integer range ``lower:upper`` as a Python range."""
    return range(_int(lower), _int(upper) + 1)


# ----------------------------------------------------------------------
# operators with Stan semantics
# ----------------------------------------------------------------------
def _is_matrixlike(x) -> bool:
    return np.ndim(_to_value(x)) >= 1


def _is_chain_scalar(x, batch) -> bool:
    """A per-chain scalar: a batched tensor of shape ``(batch, 1)``."""
    return (
        isinstance(x, Tensor)
        and getattr(x, "is_batched", False)
        and x.data.ndim == 2
        and x.data.shape == (batch, 1)
    )


def _is_row_scalar(x, batch) -> bool:
    """A per-row scalar of the enumeration tape: a batched ``(rows,)`` tensor.

    Enumerated array elements (``z[i]``) are Stan scalars, but the contract
    engine evaluates them as one column per enumeration row — products of
    two such columns are per-row scalar products, never a dot product.
    """
    return (
        isinstance(x, Tensor)
        and getattr(x, "is_batched", False)
        and x.data.ndim == 1
        and x.data.shape == (batch,)
    )


def _mul(a, b):
    """Stan ``*``: matrix/vector multiplication when both sides are containers,
    otherwise scalar scaling.

    During vectorized multi-chain evaluation, per-chain scalars ``(C, 1)``
    multiply elementwise (they are scalars per chain, not matrices), and a
    data matrix times a batched parameter vector ``(C, D)`` contracts the
    event axis per chain.
    """
    batch = current_batch_size()
    if batch is not None:
        a_scalar = _is_chain_scalar(a, batch)
        b_scalar = _is_chain_scalar(b, batch)
        if a_scalar or b_scalar:
            out = ops.mul(as_tensor(a), as_tensor(b))
            if out.data.ndim >= 1 and out.data.shape[0] == batch:
                out.is_batched = True
            return out
        a_row = _is_row_scalar(a, batch)
        b_row = _is_row_scalar(b, batch)
        if (a_row and (b_row or np.ndim(_to_value(b)) == 0)) or \
                (b_row and np.ndim(_to_value(a)) == 0):
            out = ops.mul(as_tensor(a), as_tensor(b))
            out.is_batched = True
            return out
        if (isinstance(a, Tensor) and isinstance(b, Tensor)
                and a.data.shape == (batch, 1) and b.data.shape == (batch, 1)):
            # Derived per-row scalars that lost their is_batched mark through
            # plain arithmetic (e.g. ``(2 * z[i] - 3) * (2 * z[j] - 3)`` on
            # the enumeration tape): a ``(batch, 1) @ (batch, 1)`` matmul is
            # never well-formed, so the only consistent reading is the
            # per-row scalar product.
            out = ops.mul(a, b)
            out.is_batched = True
            return out
        a_batched = isinstance(a, Tensor) and getattr(a, "is_batched", False)
        b_batched = isinstance(b, Tensor) and getattr(b, "is_batched", False)
        if b_batched and b.data.ndim == 2 and not a_batched and np.ndim(_to_value(a)) == 2:
            # X (N, D) * beta (C, D)  ->  per-chain X @ beta_c, shape (C, N).
            out = ops.matmul(as_tensor(b), ops.transpose(as_tensor(a)))
            out.is_batched = True
            return out
        if (a_batched or b_batched) and np.ndim(_to_value(a)) >= 1 and np.ndim(_to_value(b)) >= 1:
            # row_vector (C, K) * vector (K,) (or symmetric): per-chain dot.
            lhs, rhs = as_tensor(a), as_tensor(b)
            out = ops.sum_(ops.mul(lhs, rhs), axis=-1, keepdims=True)
            out.is_batched = True
            return out
    a_nd = np.ndim(_to_value(a))
    b_nd = np.ndim(_to_value(b))
    if a_nd >= 1 and b_nd >= 1 and (a_nd >= 2 or b_nd >= 2):
        return ops.matmul(as_tensor(a), as_tensor(b)) if isinstance(a, Tensor) or isinstance(b, Tensor) \
            else _to_value(a) @ _to_value(b)
    if a_nd == 1 and b_nd == 1:
        # row_vector * vector (dot product); Stan forbids vector * vector, but
        # after parsing we cannot distinguish them, so the dot product is the
        # only consistent reading.
        return stanlib.stan_dot_product(a, b)
    return a * b if not isinstance(b, Tensor) or isinstance(a, Tensor) else b * a


def _div(a, b):
    return a / b if isinstance(a, Tensor) or not isinstance(b, Tensor) else as_tensor(a) / b


def _elt_mul(a, b):
    return a * b if isinstance(a, Tensor) or not isinstance(b, Tensor) else b * a


def _elt_div(a, b):
    return _div(a, b)


def _pow(a, b):
    return ops.pow_(as_tensor(a), as_tensor(b)) if isinstance(a, Tensor) or isinstance(b, Tensor) \
        else np.power(a, b)


def _mod(a, b):
    return _int(a) % _int(b)


def _idiv(a, b):
    return _int(a) // _int(b)


def _transpose(a):
    if isinstance(a, Tensor):
        return ops.transpose(a) if a.data.ndim >= 2 else a
    arr = np.asarray(a)
    return arr.T if arr.ndim >= 2 else arr


def _neg(a):
    return -as_tensor(a) if isinstance(a, Tensor) else -np.asarray(a) if np.ndim(a) else -a


def _not(a):
    return 0.0 if _truthy(a) else 1.0


def _and(a, b):
    return 1.0 if (_truthy(a) and _truthy(b)) else 0.0


def _or(a, b):
    return 1.0 if (_truthy(a) or _truthy(b)) else 0.0


def _array(*elements):
    """Stan brace array literal ``{e1, ..., en}``.

    During vectorized evaluation an array of per-chain scalars (``(C, 1)``
    tensors) becomes a per-chain vector ``(C, n)`` — stacking along a new
    leading axis would bury the chain axis and mix rows downstream.
    """
    batch = current_batch_size()
    if batch is not None and any(_is_chain_scalar(e, batch) for e in elements):
        columns = []
        for e in elements:
            t = as_tensor(e)
            if t.data.ndim == 0:
                t = ops.mul(ops.reshape(t, (1, 1)), np.ones((batch, 1)))
            elif t.data.shape != (batch, 1):
                raise BatchMixingError(
                    "array literal mixes per-chain scalars with an element of "
                    f"shape {t.data.shape}")
            columns.append(t)
        out = ops.concatenate(columns, axis=-1)
        out.is_batched = True
        return out
    if any(isinstance(e, Tensor) for e in elements):
        return ops.stack([as_tensor(e) for e in elements])
    return np.array([_to_value(e) for e in elements], dtype=float)


def _row_vector(*elements):
    """Stan bracket literal ``[e1, ..., en]``."""
    return _array(*elements)


# ----------------------------------------------------------------------
# NumPyro-style control-flow combinators
# ----------------------------------------------------------------------
def _positive_param(name: str, init=None):
    """A learnable parameter constrained to be positive (guide parameters).

    Stored in log space (the same trick Pyro's constrained param store uses)
    so unconstrained gradient steps keep the value strictly positive.
    """
    shape = np.shape(_to_value(init)) if init is not None else ()
    log_value = param(name + "__log", np.zeros(shape))
    return ops.exp(as_tensor(log_value))


def _call_network(module, lifted_params: Dict[str, Any], *args):
    """Invoke a DeepStan network, substituting lifted (sampled) parameters.

    This is the runtime half of the paper's ``pyro.random_module`` treatment
    (§5.3): when the Stan ``parameters`` block lifts network parameters
    (``mlp.l1.weight`` ...), the compiled model samples them as ordinary sites
    and passes the sampled tensors here; the network is copied, the sampled
    values are installed, and the forward pass runs with them so gradients
    flow back to the samples.
    """
    import copy as _copy

    if not lifted_params:
        return module(*args)
    lifted = _copy.deepcopy(module)
    for path, value in lifted_params.items():
        lifted.set_parameter(path, value)
    return lifted(*args)


_FRESH_COUNTER = [0]


def _fresh_site(prefix: str) -> str:
    """Fresh site name for anonymous ``factor``/``sample`` sites (loop postfixing, §4)."""
    _FRESH_COUNTER[0] += 1
    return f"{prefix}__{_FRESH_COUNTER[0]}"


def _iter(seq):
    """Iterate over the leading dimension of a Stan container (for-each loops)."""
    value = _to_value(seq)
    arr = np.asarray(value)
    if isinstance(seq, Tensor):
        for i in range(arr.shape[0]):
            return_value = seq[i]
            yield return_value
    else:
        for element in arr:
            yield element


def fori_loop(lower, upper, body_fn: Callable, init_val):
    """``fori_loop(lo, hi, f, init)`` — applies ``f(i, acc)`` for ``i`` in
    ``[lo, hi)`` (exclusive upper bound, mirroring ``jax.lax.fori_loop``)."""
    acc = init_val
    for i in range(_int(lower), _int(upper)):
        acc = body_fn(i, acc)
    return acc


def vectorized_range(lower, upper) -> np.ndarray:
    """The index vector ``lo..hi`` (inclusive), used by vectorised observations."""
    return np.arange(_int(lower), _int(upper) + 1)
