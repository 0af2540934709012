"""The tape-lowering pass (:mod:`repro.autodiff.compile`).

The compiler records the op graph from one tracing evaluation, folds
constants, eliminates dead nodes, fuses single-use elementwise chains and
emits a straight-line forward + reverse NumPy program.  The contract the
engine layer builds on — and what these tests pin down — is *bitwise*
agreement with the interpreted tape: the generated program mirrors the
interpreter's exact traversal and accumulation order, so validated programs
may serve in the ``"fast"`` tier with zero numeric drift.
"""

import re

import numpy as np
import pytest
import scipy.special as sps

from repro.autodiff import ops
from repro.autodiff.compile import (
    MAX_INLINE_LEN,
    CompiledTape,
    TapeCompilationError,
    _Lowering,
    _lse,
    compile_tape,
    trace,
)
from repro.autodiff.tensor import Tensor


def interpreted(fn, z):
    """Oracle: the same function through the interpreted tape."""
    root = Tensor(np.asarray(z, dtype=float), requires_grad=True)
    with np.errstate(all="ignore"):
        out = fn(root)
        out.backward(np.ones(out.shape))
    return out.data, root.grad


def same(a, b):
    """Bitwise equality: shape, dtype and bytes, so ``-0.0`` differs from
    ``0.0`` and a NaN equals the same NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def probes(z0, offsets):
    """``z0`` shifted by each offset, then ``z0`` with every third cell set to
    ``0.0`` / ``-0.0``, to ``inf`` / ``-inf`` and to NaN, so values pass
    through signed zeros, infinities and NaNs."""
    yield from (z0 + dz for dz in offsets)
    for specials in ((0.0, -0.0), (np.inf, -np.inf), (np.nan,)):
        z = np.array(z0, dtype=float)
        flat = z.reshape(-1)
        for k, value in enumerate(specials):
            flat[k::3] = value
        yield z


def mixed_fn(t):
    """Elementwise chains + reductions + indexing + broadcasting."""
    a = ops.exp(ops.mul(t, 0.5))
    b = ops.log1p(ops.square(ops.sub(t, 1.25)))
    c = ops.logsumexp(ops.stack([a, b]), axis=0)
    d = ops.add(ops.getitem(t, 0), ops.sum_(c))
    return ops.add(d, ops.sum_(ops.sigmoid(t)))


Z0 = np.linspace(-1.2, 0.8, 7)


def test_compiled_matches_interpreted_bitwise():
    tape = compile_tape(mixed_fn, Z0)
    for dz in (0.0, 0.37, -0.8):
        z = Z0 + dz
        v_c, g_c = tape.value_and_grad(z)
        v_i, g_i = interpreted(mixed_fn, z)
        assert np.array_equal(v_c, v_i)
        assert np.array_equal(g_c, g_i)
        # the forward-only program agrees with the forward+reverse one
        assert np.array_equal(tape.value(z), v_c)


def test_constant_folding_and_dead_node_elimination():
    noise = []

    def fn(t):
        # a constant subgraph (no path to the input) ...
        k = ops.mul(ops.exp(Tensor(np.arange(3.0))), 2.0)
        # ... and a dead computation whose result is discarded
        noise.append(ops.lgamma(ops.add(t, 5.0)))
        return ops.sum_(ops.mul(t, ops.sum_(k)))

    tape = compile_tape(fn, Z0)
    stats = tape.stats
    assert stats.folded > 0, "constant subgraph should fold into _c[...]"
    # the discarded lgamma/add chain is recorded but unreachable from the
    # output, so dead-node elimination must keep it out of the program
    assert "lgamma" not in tape.source, "dead op must not be emitted"
    assert stats.dynamic < stats.reachable, "constants must not stay dynamic"
    v_c, g_c = tape.value_and_grad(Z0 + 0.1)
    v_i, g_i = interpreted(fn, Z0 + 0.1)
    assert np.array_equal(v_c, v_i) and np.array_equal(g_c, g_i)


def test_elementwise_chains_fuse_into_single_expressions():
    def fn(t):
        return ops.sum_(ops.exp(ops.neg(ops.square(ops.mul(t, 0.3)))))

    tape = compile_tape(fn, Z0)
    # single-use intermediates inline into their consumers: the elementwise
    # chain collapses into fused expressions instead of per-op statements
    assert tape.stats.fused >= 3
    val_src = tape.source.split("def _tape_val")[1]
    assignments = [line for line in val_src.splitlines()
                   if "=" in line and "==" not in line]
    assert len(assignments) < tape.stats.dynamic


def test_shape_and_dtype_guard():
    tape = compile_tape(mixed_fn, Z0)
    assert tape.matches(Z0)
    assert tape.matches(Z0 + 1.0)
    assert not tape.matches(np.zeros(Z0.size + 1))
    assert not tape.matches(Z0.astype(np.float32))
    assert not tape.matches(Z0.reshape(1, -1))


@pytest.mark.parametrize("escape", [
    lambda t: ops.exp(t) if float(ops.sum_(t)) > 0 else ops.log(t),
    lambda t: ops.mul(t, 2.0) if bool(ops.sum_(t) > 0) else t,
    lambda t: ops.getitem(t, int(ops.sum_(ops.abs_(t))) % t.size),
])
def test_value_dependent_control_flow_is_rejected(escape):
    # branching on (or indexing by) an input-derived value would freeze the
    # traced path into the program; tracing must reject, not mis-compile
    with pytest.raises(TapeCompilationError):
        compile_tape(escape, Z0)


def test_static_branch_on_constants_is_allowed():
    # control flow over *constants* resolves at trace time and is fine
    def fn(t):
        scale = 2.0 if len(Z0) > 3 else 3.0
        return ops.sum_(ops.mul(t, scale))

    v, g = compile_tape(fn, Z0).value_and_grad(Z0)
    v_i, g_i = interpreted(fn, Z0)
    assert np.array_equal(v, v_i) and np.array_equal(g, g_i)


def test_trace_returns_annotated_nodes():
    out, root, recorded = trace(lambda t: ops.exp(ops.mul(t, 2.0)), Z0)
    assert isinstance(out, Tensor) and root.requires_grad
    assert {node.op for node in recorded} >= {"mul", "exp"}


def test_non_tensor_output_is_rejected():
    with pytest.raises(TapeCompilationError):
        compile_tape(lambda t: 1.0, Z0)


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False),
                                           (0, True), (1, False), (-1, True)])
def test_lse_is_bitwise_scipy_logsumexp(axis, keepdims):
    rng = np.random.default_rng(3)
    grids = [
        rng.normal(size=(4, 6)) * 100,
        np.full((2, 3), -np.inf),
        np.array([[0.0, 0.0, 0.0], [5.0, 5.0, -np.inf]]),
        np.array([[700.0, 700.0, 1.0], [-745.0, -745.0, -745.0]]),
    ]
    for a in grids:
        # the tape programs run under errstate(all="ignore"), matching here
        with np.errstate(all="ignore"):
            got = _lse(a, axis=axis, keepdims=keepdims)
            want = sps.logsumexp(a, axis=axis, keepdims=keepdims)
        assert np.array_equal(np.asarray(got), np.asarray(want),
                              equal_nan=True), (a, axis, keepdims)


def test_getitem_single_cell_gradient_matches_add_at():
    def fn(t):
        return ops.add(ops.mul(ops.getitem(t, 2), 3.0),
                       ops.getitem(t, (slice(1, 4),)).sum())

    tape = compile_tape(fn, Z0)
    for z in probes(Z0, (0.0,)):
        v_c, g_c = tape.value_and_grad(z)
        v_i, g_i = interpreted(fn, z)
        assert same(v_c, v_i) and same(g_c, g_i), z
    # the reads overlap, so the input gradient keeps its fold of
    # per-read arrays instead of disjoint stores into one
    assert "np.zeros_like(z) + gz" in tape.source


def every_rule(t):
    """A graph in which every cheap-idiom rule of the emitter fires."""
    mu = ops.reshape(ops.getitem(t, slice(0, 1)), ())   # one cell: ``z[0]``
    v = ops.getitem(t, slice(1, 5))                     # disjoint reads of z
    w = ops.getitem(t, slice(5, 7))
    s0 = ops.sum_(mu)                                   # 0-d sum: ``x + 0.0``
    s1 = ops.sum_(ops.mul(v, ops.exp(mu)))              # add.reduce, np.full,
    s2 = ops.mean(ops.softmax(w))                       # static unbroadcast
    p = ops.pow_(ops.exp(mu), ops.mul(ops.getitem(w, 0), 0.5))  # np.power
    return ops.add(ops.add(ops.add(s0, s1), s2), p)     # scalar: baked seed


def test_compiled_tape_is_reusable_and_stateless():
    tape = compile_tape(every_rule, Z0)
    assert isinstance(tape, CompiledTape)
    for idiom in ("np.add.reduce(", "np.maximum.reduce(", "np.full(", "z[0]",
                  "grad = np.zeros((7,))", "np.power("):
        assert idiom in tape.source, idiom
    assert re.search(r"\(v\d+ \+ 0\.0\)", tape.source), tape.source
    for idiom in ("np.sum(", "np.max(", "np.broadcast_to(", "unbroadcast(",
                  "np.zeros_like(", "np.add.at(", "np.ones(", "**"):
        assert idiom not in tape.source, idiom
    first = tape.value_and_grad(Z0)
    kept = [np.array(out) for out in first]
    second = tape.value_and_grad(Z0)
    assert same(first[0], second[0]) and same(first[1], second[1])
    assert second[1] is not first[1]
    # writing into a returned gradient leaves later calls alone
    first[1][...] = 7.0
    third = tape.value_and_grad(Z0)
    v_i, g_i = interpreted(every_rule, Z0)
    for v, g in (kept, second, third):
        assert same(v, v_i) and same(g, g_i)


# ----------------------------------------------------------------------
# per-op lowering: every op the emitter handles, bitwise against the tape
# ----------------------------------------------------------------------
Z_POS = np.linspace(0.35, 1.6, 12)   # in every op's domain (log, sqrt, ...)
COND = np.arange(12) % 3 == 0


def weighted(y):
    """Reduce to a scalar through non-uniform weights, so every VJP sees an
    incoming gradient other than ones."""
    w = np.linspace(0.5, 1.5, int(np.prod(y.shape))).reshape(y.shape)
    return ops.sum_(ops.mul(y, w))


def part(t, start, stop):
    return ops.getitem(t, slice(start, stop))


def grid(t):
    return ops.reshape(t, (3, 4))


def _unary_case(name):
    op = ops.abs_ if name == "abs" else getattr(ops, name)
    # abs and neg around 0 so both signs occur; the rest on Z_POS's domain
    if name in ("abs", "neg"):
        return lambda t: weighted(op(ops.sub(t, 1.0)))
    return lambda t: weighted(op(t))


def _long_chain(t):
    x = t
    for i in range(60):
        x = ops.add(ops.mul(x, 0.99), 0.01 * i)
    return weighted(x)


def _shared_node(t):
    # ``a`` feeds four consumers, so its gradient accumulates in the
    # reverse program instead of being assigned once
    a = ops.exp(ops.mul(t, 0.3))
    return ops.add(ops.add(weighted(ops.mul(a, a)), ops.sum_(ops.sin(a))),
                   ops.getitem(a, 0))


LOWERING_CASES = {
    **{f"unary-{name}": _unary_case(name) for name in _Lowering._UNARY_FWD},
    "square": lambda t: weighted(ops.square(ops.sub(t, 1.0))),
    "binary-broadcast": lambda t: weighted(ops.div(
        ops.sub(grid(t), part(t, 0, 4)),
        ops.add(ops.mul(ops.reshape(part(t, 4, 7), (3, 1)), t[0]), 2.0))),
    "pow-base": lambda t: weighted(ops.pow_(t, 2.5)),
    "pow-exponent": lambda t: weighted(ops.pow_(1.7, t)),
    "pow-both": lambda t: weighted(ops.pow_(t, ops.mul(t, 0.5))),
    "relu": lambda t: weighted(ops.relu(ops.sub(t, 1.0))),
    "minimum": lambda t: weighted(ops.minimum(t, ops.sub(2.0, t))),
    "maximum": lambda t: weighted(ops.maximum(t, ops.sub(2.0, t))),
    "clip": lambda t: weighted(ops.clip(t, 0.6, 1.2)),
    "where": lambda t: weighted(ops.where(COND, ops.exp(t), ops.mul(t, t))),
    **{f"{name}-axis{axis}-keepdims{keepdims}":
       (lambda op, axis, keepdims: lambda t: weighted(
           op(grid(t), axis=axis, keepdims=keepdims)))(op, axis, keepdims)
       for name, op in (("sum", ops.sum_), ("mean", ops.mean))
       for axis, keepdims in ((None, False), (None, True), (0, False),
                              (0, True), (1, False), (-1, True))},
    **{f"logsumexp-axis{axis}-keepdims{keepdims}":
       (lambda axis, keepdims: lambda t: weighted(
           ops.logsumexp(grid(t), axis=axis, keepdims=keepdims)))(axis, keepdims)
       for axis, keepdims in ((None, False), (None, True), (0, False),
                              (1, True), (-1, False))},
    "softmax": lambda t: weighted(ops.softmax(grid(t), axis=-1)),
    "softmax-axis0": lambda t: weighted(ops.softmax(grid(t), axis=0)),
    "log_softmax": lambda t: weighted(ops.log_softmax(grid(t), axis=-1)),
    "log_softmax-axis0": lambda t: weighted(ops.log_softmax(grid(t), axis=0)),
    "cumsum": lambda t: weighted(ops.cumsum(t)),
    "cumsum-axis0": lambda t: weighted(ops.cumsum(grid(t), axis=0)),
    "matmul-1d-1d": lambda t: weighted(ops.matmul(part(t, 0, 4), part(t, 4, 8))),
    "matmul-2d-1d": lambda t: weighted(ops.matmul(grid(t), part(t, 2, 6))),
    "matmul-1d-2d": lambda t: weighted(ops.matmul(part(t, 1, 4), grid(t))),
    "matmul-2d-2d": lambda t: weighted(
        ops.matmul(grid(t), ops.transpose(ops.exp(grid(t))))),
    "dot": lambda t: weighted(ops.dot(part(t, 0, 6), ops.exp(part(t, 6, 12)))),
    "outer": lambda t: weighted(ops.outer(part(t, 0, 3), part(t, 3, 7))),
    "transpose": lambda t: weighted(ops.mul(ops.transpose(grid(t)),
                                            part(t, 0, 3))),
    "transpose-axes": lambda t: weighted(
        ops.transpose(ops.reshape(t, (2, 3, 2)), (2, 0, 1))),
    "reshape": lambda t: weighted(ops.reshape(ops.exp(t), (4, 3))),
    "concatenate-0d-part": lambda t: weighted(ops.concatenate(
        [part(t, 0, 3), ops.getitem(t, 5), ops.exp(part(t, 6, 9))])),
    "stack": lambda t: weighted(ops.stack(
        [part(t, 0, 4), ops.exp(part(t, 4, 8)), part(t, 8, 12)], axis=1)),
    "getitem-cell": lambda t: ops.add(ops.mul(ops.getitem(grid(t), (1, 2)), 3.0),
                                      ops.getitem(t, 7)),
    "getitem-repeated-fancy": lambda t: weighted(
        ops.getitem(t, np.array([0, 3, 3, 7, 0, 11]))),
    "index_update": lambda t: weighted(ops.index_update(
        ops.exp(t), 4, ops.mul(ops.getitem(t, 2), 3.0))),
    "index_update-slice": lambda t: weighted(ops.index_update(
        grid(t), (slice(None), 1), ops.log(part(t, 0, 3)))),
    "long-chain": _long_chain,
    "shared-node": _shared_node,
}


@pytest.mark.parametrize("case", sorted(LOWERING_CASES))
def test_each_lowered_op_is_bitwise_interpreted(case):
    fn = LOWERING_CASES[case]
    tape = compile_tape(fn, Z_POS)
    for z in probes(Z_POS, (0.0, 0.11, -0.19)):
        v_c, g_c = tape.value_and_grad(z)
        v_i, g_i = interpreted(fn, z)
        assert same(v_c, v_i), (case, z)
        assert same(g_c, g_i), (case, z)
        assert same(tape.value(z), v_i), (case, z)
    if case == "long-chain":
        # the fused expression outgrows MAX_INLINE_LEN, so the chain is
        # materialized in pieces instead of one unbounded line
        body = tape.source.split("def _tape_val(z, _c):\n")[1].splitlines()
        assert len(body) > 2
        assert all(len(line) < 3 * MAX_INLINE_LEN for line in body)
    if case == "shared-node":
        assert re.search(r"\b(g\d+) = \1 \+ ", tape.source), tape.source


# ----------------------------------------------------------------------
# superword groups: isomorphic independent nodes stacked into one op
# ----------------------------------------------------------------------
#: a single input of 12 parameters, and a 3-row batch of them (the batched
#: tape: every parameter cell is a per-row vector)
Z_SINGLE = np.linspace(0.35, 1.6, 12)
Z_BATCHED = Z_SINGLE + np.array([[0.0], [0.05], [-0.07]])


def cells(t):
    """Parameter rows: ``cells(t)[i]`` is one scalar, or a (3,) batch column."""
    return ops.transpose(t) if t.ndim == 2 else t


def finish(parts):
    """Stack member values and reduce to a scalar (single) or (3,) (batched)
    through non-uniform weights."""
    y = ops.stack(parts)
    w = np.linspace(0.5, 1.5, y.shape[0]).reshape((-1,) + (1,) * (y.ndim - 1))
    return ops.sum_(ops.mul(y, w), axis=0)


def chain(x, i):
    """One scalar chain; copies differ only in their constants."""
    a = ops.exp(ops.mul(x, 0.5 + 0.01 * i))
    b = ops.log1p(ops.square(ops.sub(x, 1.25)))
    return ops.add(ops.div(a, ops.add(b, 1.0)), ops.sin(ops.mul(x, x)))


def copies(n):
    def fn(t):
        p = cells(t)
        return finish([chain(ops.getitem(p, i % 12), i) for i in range(n)])
    return fn


#: fold term scales: large cancelling terms, so the summation order shows
FOLD_SCALES = (1e16, 1.0, -1e16, 3.0, 1e-3, 7.0, 1e16, 1.0, -1e16, 5.0, 2.0, 1.0)


def fold(t):
    # ``target +=`` over 12 isomorphic terms: past the 8-element block,
    # pairwise summation would round differently from the interpreter's
    # left fold
    p = cells(t)
    acc = ops.mul(ops.getitem(p, 0), 0.5)
    for i, scale in enumerate(FOLD_SCALES):
        acc = ops.add(acc, ops.mul(ops.exp(ops.getitem(p, i)), scale))
    return acc


def interleaved(t):
    # two groups (``s * a_i`` and ``s * v[i]``) feed the scalar ``s`` and,
    # through single-cell reads, the vector ``v``, alternating member by
    # member; a_0 = -0.0 makes one contribution to ``s`` exactly -0.0
    p = cells(t)
    s = ops.mul(ops.getitem(p, 0), 1.5)
    v = ops.exp(ops.stack([ops.getitem(p, k) for k in range(1, 6)]))
    parts = []
    for i in range(5):
        parts.append(ops.mul(s, (-0.0, 0.3, -1.1, 2.0, 0.7)[i]))
        parts.append(ops.mul(ops.getitem(v, i), ops.mul(s, s)))
    return finish(parts)


def reduction(op, axis, keepdims):
    def fn(t):
        p = cells(t)
        grid = ops.stack([ops.getitem(p, k) for k in range(6)])
        grid = ops.reshape(grid, (2, 3) + grid.shape[1:])
        members = [op(ops.mul(grid, 0.4 + 0.3 * i), axis=axis, keepdims=keepdims)
                   for i in range(4)]
        return ops.sum_(ops.mul(ops.stack(members), 0.75))
    return fn


def columns(t):
    # per-row parameter reads as ``t[:, k]`` on the batched tape: the int
    # axis is not the leading one
    def col(k):
        return ops.getitem(t, (slice(None), k) if t.ndim == 2 else k)
    return finish([ops.mul(ops.exp(col(k)), col((k + 5) % 12)) for k in range(12)])


def zoo(t):
    # every stackable elementwise op, six isomorphic copies of each
    p = cells(t)
    parts = []
    for i in range(6):
        x = ops.getitem(p, i)
        y = ops.sub(x, 1.0)
        parts += [getattr(ops, name)(y if name in ("neg", "abs_") else x)
                  for name in ("exp", "expm1", "log", "log1p", "sqrt", "sin", "cos",
                               "tanh", "sigmoid", "softplus", "lgamma", "digamma",
                               "erf", "erfc", "neg", "abs_", "square", "relu")]
        parts += [ops.relu(y), ops.minimum(x, ops.sub(2.0, x)),
                  ops.maximum(x, ops.sub(2.0, x)), ops.clip(x, 0.6, 1.2),
                  ops.where(i % 2 == 0, ops.exp(x), ops.mul(x, x)),
                  ops.pow_(x, 2.5), ops.pow_(1.7, x), ops.pow_(x, ops.mul(x, 0.5)),
                  ops.div(y, ops.add(x, 1.0))]
    return finish(parts)


def ragged(t):
    # member gradients accumulate different numbers of contributions, so
    # the stacked streams are padded
    p = cells(t)
    a = [ops.exp(ops.mul(ops.getitem(p, i), 0.7)) for i in range(5)]
    parts = [ops.mul(x, x) for x in a]
    parts += [ops.sin(x) for x in a[:2]] + [ops.log(a[0]), ops.mul(a[3], -0.0)]
    return finish(parts)


def cell_reads(t):
    # a vector read cell by cell into a fold, some cells twice and one read
    # scaled by -0.0: the reads' gradients scatter into the vector's
    p = cells(t)
    v = ops.exp(ops.mul(ops.stack([ops.getitem(p, k % 12) for k in range(40)]), 0.3))
    acc = ops.mul(ops.getitem(p, 0), 0.5)
    for i in range(60):
        acc = ops.add(acc, ops.mul(ops.getitem(v, 7 * i % 40), -0.0 if i == 5 else 0.1 * i))
    return acc


def dense_and_cells(t):
    # a vector whose gradient takes whole-vector rows, then cell reads,
    # then more rows: the scatter and the row fold continue a running sum
    p = cells(t)
    v = ops.exp(ops.mul(ops.stack([ops.getitem(p, k) for k in range(10)]), 0.4))
    early = [ops.sum_(ops.mul(v, 0.1 * (i + 1)), axis=0) for i in range(9)]
    reads = [ops.mul(ops.getitem(v, i), 1.0 + i) for i in range(10)]
    late = [ops.sum_(ops.mul(ops.exp(ops.mul(v, 0.05 * i)), 2.0), axis=0) for i in range(9)]
    return finish(early + reads + late)


def row_sources(t):
    # cells read from rows of a group (eight vectors computed by one op):
    # one read group over all rows, another over the same rows, and reads
    # of one shared row; each row's gradient takes several cells
    p = cells(t)
    vec = ops.stack([ops.getitem(p, k) for k in range(4)])
    rows = [ops.exp(ops.mul(vec, 0.2 + 0.1 * i)) for i in range(8)]
    parts = [ops.mul(ops.getitem(r, i % 4), 1.5) for i, r in enumerate(rows)]
    parts += [ops.sin(ops.getitem(r, (i + 1) % 4)) for i, r in enumerate(rows)]
    parts += [ops.getitem(rows[0], k) for k in range(4)]
    return finish(parts)


def mixed_axes(t):
    # ``m[i]`` and ``m[:, j]`` reads of one matrix and of the rows of a
    # group of matrices: cells over different axes never share a scatter
    p = cells(t)
    grid = ops.stack([ops.getitem(p, k) for k in range(6)])
    grid = ops.reshape(grid, (2, 3) + grid.shape[1:])
    mats = [ops.exp(ops.mul(grid, 0.3 + 0.1 * i)) for i in range(8)]
    parts = []
    for m in mats + [grid] * 8:
        parts += [ops.sum_(ops.getitem(m, len(parts) % 2), axis=0),
                  ops.sum_(ops.getitem(m, (slice(None), len(parts) % 3)), axis=0)]
    return finish(parts)


SUPERWORD_CASES = {
    **{f"copies-{n}": copies(n) for n in (1, 2, 7, 8, 9, 64)},
    "cell-reads": cell_reads,
    "columns": columns,
    "dense-and-cells": dense_and_cells,
    "mixed-axes": mixed_axes,
    "row-sources": row_sources,
    "elementwise-zoo": zoo,
    "ragged-streams": ragged,
    "fold": fold,
    "interleaved": interleaved,
    **{f"{name}-axis{axis}-keepdims{keepdims}": reduction(op, axis, keepdims)
       for name, op in (("sum", ops.sum_), ("mean", ops.mean),
                        ("logsumexp", ops.logsumexp))
       for axis in (None, 0, 1, -1) for keepdims in (False, True)},
}


@pytest.mark.parametrize("case", sorted(SUPERWORD_CASES))
@pytest.mark.parametrize("z0", [Z_SINGLE, Z_BATCHED], ids=["single", "batched-3"])
def test_superword_groups_are_bitwise_interpreted(case, z0):
    fn = SUPERWORD_CASES[case]
    tape = compile_tape(fn, z0)
    for z in probes(z0, (0.0, 0.13, -0.21)):
        v_c, g_c = tape.value_and_grad(z)
        v_i, g_i = interpreted(fn, z)
        assert same(v_c, v_i), (case, z)
        assert same(g_c, g_i), (case, z)
        assert same(tape.value(z), v_i), (case, z)
    if case != "copies-1":
        assert tape.stats.groups >= 1 and tape.stats.grouped > tape.stats.groups


@pytest.mark.parametrize("z0", [Z_SINGLE, Z_BATCHED], ids=["single", "batched-3"])
def test_program_length_does_not_grow_with_copies(z0):
    lines = {n: compile_tape(copies(n), z0).stats.forward_lines
             for n in (1, 2, 7, 8, 9, 64)}
    assert len({lines[n] for n in (2, 7, 8, 9, 64)}) == 1, lines
    assert lines[1] <= lines[2], lines


# ----------------------------------------------------------------------
# cheap idioms: each rule emits a cheaper form of the same bits
# ----------------------------------------------------------------------
def block(t, a, b):
    """Parameters ``a`` to ``b - 1``, read as ``Potential.unpack`` (single)
    or ``unpack_batched`` (batched: one row per chain) reads a site."""
    return ops.getitem(t, slice(a, b) if t.ndim == 1 else (slice(None), slice(a, b)))


def scalar(t, k):
    """Parameter ``k`` as ``unpack`` reads a scalar site: a one-cell slice
    reshaped to ``()`` (the batched read keeps its ``(3, 1)`` column)."""
    cell = block(t, k, k + 1)
    return ops.reshape(cell, ()) if t.ndim == 1 else cell


def per_row(y):
    """Sum the last axis: one value (single) or one per chain (batched)."""
    return ops.sum_(y, axis=-1)


#: rule -> (graph, input ranks it applies to, idioms the program no longer
#: contains, idioms it contains instead)
RULES = {
    "reduce-ufunc": (
        lambda t: per_row(ops.add(ops.softmax(block(t, 0, 6)),
                                  ops.log_softmax(block(t, 6, 12)))),
        (1, 2), ("np.sum(", "np.max("), ("np.add.reduce(", "np.maximum.reduce(")),
    # the 0-d sum's sign reaches the output through the product
    "zero-d-sum": (
        lambda t: ops.mul(ops.sum_(scalar(t, 1)), per_row(block(t, 2, 5))),
        (1,), ("np.sum(",), ("+ 0.0)",)),
    "sum-mean-vjp": (
        lambda t: per_row(ops.mul(ops.mean(block(t, 0, 6), axis=-1, keepdims=True),
                                  ops.exp(block(t, 6, 12)))),
        (1, 2), ("np.broadcast_to(", ".copy()"), ("np.full(",)),
    "static-unbroadcast": (
        lambda t: per_row(ops.mul(block(t, 0, 6), ops.exp(scalar(t, 7)))),
        (1, 2), ("unbroadcast(",), ("np.add.reduce(",)),
    "input-gradient": (
        lambda t: per_row(ops.mul(ops.exp(block(t, 0, 5)), block(t, 5, 10))),
        (1, 2), ("np.add.at(", "np.zeros_like(", "gz"), ("grad = np.zeros(", "grad[_c[")),
    "one-cell-reshape": (
        lambda t: ops.mul(ops.exp(scalar(t, 3)), per_row(block(t, 4, 8))),
        (1,), ("np.reshape(z[",), ("z[3]",)),
    "scalar-seed": (
        lambda t: per_row(ops.exp(block(t, 0, 12))),
        (1,), ("np.ones(",), ()),
    "power": (
        lambda t: ops.pow_(ops.exp(scalar(t, 0)), ops.mul(scalar(t, 1), 0.5)),
        (1, 2), ("**",), ("np.power(",)),
}


@pytest.mark.parametrize("rule,z0", [
    pytest.param(rule, z0, id=f"{rule}-{label}")
    for rule, (_, ranks, _, _) in RULES.items()
    for z0, label in ((Z_SINGLE, "single"), (Z_BATCHED, "batched-3")) if z0.ndim in ranks])
def test_each_cheap_idiom_rule_is_bitwise_interpreted(rule, z0):
    fn, _, old, new = RULES[rule]
    tape = compile_tape(fn, z0)
    for idiom in old:
        assert idiom not in tape.source, (rule, idiom, tape.source)
    for idiom in new:
        assert idiom in tape.source, (rule, idiom, tape.source)
    # 0.17 and -0.04 are points where NumPy's scalar ``**`` (C ``pow``) and
    # its array loop round one of the single program's powers differently
    for z in probes(z0, (0.0, 0.17, -0.04)):
        v_c, g_c = tape.value_and_grad(z)
        v_i, g_i = interpreted(fn, z)
        assert same(v_c, v_i) and same(g_c, g_i), (rule, z)
        assert same(tape.value(z), v_i), (rule, z)
    if rule == "scalar-seed":
        assert any(type(c) is np.float64 and c == 1.0 for c in tape._consts)


def test_table5_programs_use_only_the_cheap_idioms(monkeypatch):
    """The four Table 5 models' gradient programs keep none of the idioms
    whose fixed per-call price the rules remove."""
    from repro import compile_model
    from repro.corpus import models
    from repro.infer import potential as potential_module
    from repro.posteriordb import datagen

    tapes = []
    real_compile = potential_module.compile_tape

    def capture(fn, z0, **kwargs):
        tapes.append(real_compile(fn, z0, **kwargs))
        return tapes[-1]

    monkeypatch.setattr(potential_module, "compile_tape", capture)
    for name, data in (("eight_schools_centered", datagen.eight_schools_data),
                       ("kidscore_momiq", datagen.kidiq_data),
                       ("arK", datagen.ar_data), ("garch11", datagen.garch_data)):
        potential = compile_model(models.get(name)).condition(data(1)).potential(0)
        potential.potential_and_grad(potential.initial_unconstrained())
        assert potential.metrics_view()["tape_modes"]["single"] == "fast", name
    assert len(tapes) == 4
    for tape in tapes:
        for idiom in ("np.broadcast_to(", "unbroadcast(", "np.zeros_like("):
            assert idiom not in tape.source, (idiom, tape.source)


def test_add_chain_collapses_to_a_strict_left_fold():
    tape = compile_tape(fold, Z_SINGLE)
    assert "np.add.accumulate(" in tape.source.split("def _tape_val")[1]
    # the case is sensitive to the summation order: numpy's pairwise sum of
    # the same terms rounds differently from the left fold
    p = Z_SINGLE
    terms = [p[0] * 0.5] + [np.exp(p[i]) * scale for i, scale in enumerate(FOLD_SCALES)]
    left = terms[0]
    for term in terms[1:]:
        left = left + term
    assert np.add.reduce(np.array(terms)) != left
    assert tape.value(Z_SINGLE) == left


def test_lowering_span_reports_stacked_statements():
    from repro.obs import ObsConfig, as_telemetry

    telemetry = as_telemetry(ObsConfig(enabled=True))
    tape = compile_tape(copies(9), Z_SINGLE, telemetry=telemetry)
    (span,) = [s for s in telemetry.log.spans() if s["name"] == "tape.lower"]
    attrs = span["attrs"]
    assert attrs["forward_lines"] == tape.stats.forward_lines
    assert (attrs["groups"], attrs["grouped"]) == (tape.stats.groups, tape.stats.grouped)
    # nine copies of each op stack into one statement per op
    assert tape.stats.grouped >= 9 * tape.stats.groups


def backward_folds(tape):
    """``np.add.accumulate`` folds of the reverse program (the value
    program is the forward half of the value-and-gradient one)."""
    vg, val = tape.source.split("def _tape_val")
    return vg.count("np.add.accumulate(") - val.count("np.add.accumulate(")


@pytest.mark.parametrize("case", ["copies-9", "elementwise-zoo", "interleaved",
                                  "ragged-streams", "row-sources"])
@pytest.mark.parametrize("z0", [Z_SINGLE, Z_BATCHED], ids=["single", "batched-3"])
def test_gathered_gradient_cap_folds_with_add(monkeypatch, case, z0):
    from repro.autodiff import compile as compile_module

    fn = SUPERWORD_CASES[case]
    assert backward_folds(compile_tape(fn, z0)) > 0
    monkeypatch.setattr(compile_module, "MAX_STACKED_CELLS", 1)
    tape = compile_tape(fn, z0)
    # past the cap no gradient is gathered into one array: every stream
    # folds with ``+``, and the results stay bitwise
    assert backward_folds(tape) == 0
    for z in probes(z0, (0.0, 0.13)):
        v_c, g_c = tape.value_and_grad(z)
        v_i, g_i = interpreted(fn, z)
        assert same(v_c, v_i) and same(g_c, g_i), (case, z)


def test_cell_reads_scatter_in_linear_memory():
    # n reads of an n-vector: each read's gradient is a zero vector with one
    # cell set, so a reverse pass holding them would need n * n floats
    import tracemalloc

    n = 2000
    w = np.linspace(0.5, 1.5, n)

    def fn(t):
        v = ops.exp(ops.mul(ops.getitem(t, 0), np.linspace(-1.0, 1.0, n)))
        acc = ops.mul(ops.getitem(t, 1), 0.5)
        for k in range(n):
            acc = ops.add(acc, ops.mul(ops.getitem(v, k), w[k]))
        return acc

    z = np.array([0.3, 0.7])
    tape = compile_tape(fn, z)
    v_i, g_i = interpreted(fn, z)
    tracemalloc.start()
    try:
        v_c, g_c = tape.value_and_grad(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(v_c, v_i) and np.array_equal(g_c, g_i)
    assert peak < 40 * n * 8, peak
    assert tape.stats.forward_lines < 20


def test_scatter_folds_cell_contributions_exactly():
    # what the reverse program's scatter relies on: a fold of zero arrays
    # each holding ``0.0 + g`` at one cell equals ``acc + 0.0`` followed by
    # ``np.add.at`` of the stored values in order, bit for bit (signed
    # zeros, infinities and NaNs included; a cell may be read twice)
    rng = np.random.default_rng(0)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, 1.0])

    def draw(size):
        x = rng.normal(size=size) * 10.0 ** rng.integers(-5, 5, size=size)
        mask = rng.random(size) < 0.4
        x[mask] = rng.choice(special, size=mask.sum())
        return x

    with np.errstate(all="ignore"):
        for _ in range(2000):
            size, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            cells_read, g, acc = rng.integers(0, size, size=m), draw(m), draw(size)
            fresh = rng.random() < 0.5      # the run starts the gradient
            folded = None if fresh else acc
            for cell, value in zip(cells_read, g):
                contribution = np.zeros(size)
                np.add.at(contribution, cell, value)
                folded = contribution if folded is None else folded + contribution
            scattered = np.zeros(size) if fresh else acc + 0.0
            np.add.at(scattered, cells_read, 0.0 + g)
            assert folded.tobytes() == scattered.tobytes()


def test_stream_padding_bakes_one_constant_row():
    # 64 vector members; eight take a third gradient contribution, so the
    # other 56 streams are padded with -0.0 — baked once, not once a cell
    def fn(t):
        p = cells(t)
        v = ops.stack([ops.getitem(p, k % 12) for k in range(50)])
        a = [ops.exp(ops.mul(v, 0.01 * i)) for i in range(64)]
        parts = [ops.sum_(ops.mul(x, x), axis=0) for x in a]
        return finish(parts + [ops.sum_(ops.sin(x), axis=0) for x in a[:8]])

    tape = compile_tape(fn, Z_SINGLE)
    v_c, g_c = tape.value_and_grad(Z_SINGLE)
    v_i, g_i = interpreted(fn, Z_SINGLE)
    assert np.array_equal(v_c, v_i) and np.array_equal(g_c, g_i)
    pads = [c for c in tape._consts if isinstance(c, np.ndarray) and c.dtype == float
            and c.size and not c.any() and np.signbit(c).all()]
    assert pads and all(len(c) == 1 for c in pads), [c.shape for c in pads]
