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
    out = fn(root)
    out.backward(np.ones(out.shape))
    return out.data, root.grad


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
    v_c, g_c = tape.value_and_grad(Z0)
    v_i, g_i = interpreted(fn, Z0)
    assert np.array_equal(v_c, v_i) and np.array_equal(g_c, g_i)


def test_compiled_tape_is_reusable_and_stateless():
    tape = compile_tape(mixed_fn, Z0)
    assert isinstance(tape, CompiledTape)
    first = tape.value_and_grad(Z0)
    second = tape.value_and_grad(Z0)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


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
    for dz in (0.0, 0.11, -0.19):
        z = Z_POS + dz
        v_c, g_c = tape.value_and_grad(z)
        v_i, g_i = interpreted(fn, z)
        assert np.array_equal(v_c, v_i), (case, dz)
        assert np.array_equal(g_c, g_i), (case, dz)
        assert np.array_equal(tape.value(z), v_i), (case, dz)
    if case == "long-chain":
        # the fused expression outgrows MAX_INLINE_LEN, so the chain is
        # materialized in pieces instead of one unbounded line
        body = tape.source.split("def _tape_val(z, _c):\n")[1].splitlines()
        assert len(body) > 2
        assert all(len(line) < 3 * MAX_INLINE_LEN for line in body)
    if case == "shared-node":
        assert re.search(r"\b(g\d+) = \1 \+ ", tape.source), tape.source
