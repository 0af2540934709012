"""Tape compilation: lower one recorded evaluation to straight-line NumPy.

The interpreted engine replays a Python-object graph on every density
evaluation — each op pays for tensor wrapping, closure allocation, a
topological sort and dict-based gradient accumulation.  For the potential
functions the samplers hammer (thousands of gradient evaluations per fit)
that interpreter tax dominates the actual numerical work.

This module removes it.  :func:`compile_tape` runs the target function once
with a *tracing sink* installed in :mod:`repro.autodiff.ops` (the single
place graph nodes are constructed), so every node records its op name and
static parameters.  The recorded graph is then lowered into one generated
Python function of batched NumPy calls.  Lowering emits a statement IR — a
target, a format template and an explicit operand list per statement — and
one rendering pass over it prints the program:

* **dead-node elimination** — only nodes reachable from the output are kept
  (side computations of the traced run disappear);
* **constant folding** — every node that does not depend on the input vector
  is baked into a constant (data-only subgraphs — observed-value transforms,
  loop-built index tables — collapse into arrays captured at compile time);
* **fusion** — single-use elementwise intermediates are inlined into their
  consumer expression, so chains like ``-((x - mu) / sigma) ** 2 / 2``
  become one line instead of five temporaries (use counts come from the
  operand lists; a consumer's template is filled with the text its operands
  already rendered to);
* **hand-derived reverse program** — the backward pass is emitted as
  straight-line code textually mirroring the interpreted VJP closures, in
  the interpreter's exact traversal and accumulation order, so results are
  bitwise identical to the interpreted tape (gradient contributions are
  reduced with the same :func:`~repro.autodiff.tensor.unbroadcast`, skipped
  statically where the traced shapes prove it is the identity).

The compiled program freezes the traced control flow, so it is only valid
for inputs with the trace's shape and dtype — :class:`CompiledTape.matches`
is the guard callers must check, recompiling (and revalidating) on mismatch.
Value-dependent branches that change *shape* invalidate the program through
that guard; the first-call validation contract in
:mod:`repro.infer.potential` covers the rest.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import special as sps

from repro.autodiff import ops
from repro.autodiff.tensor import Tensor, _topological_order, unbroadcast


class TapeCompilationError(RuntimeError):
    """Raised when a recorded tape cannot be lowered to generated code."""


#: hard cap on the number of dynamic nodes lowered into one function —
#: beyond this the generated source itself becomes the bottleneck.
MAX_PROGRAM_NODES = 200_000

#: expressions longer than this are materialized instead of inlined, keeping
#: generated lines readable and CPython's parser happy.
MAX_INLINE_LEN = 300

_ERF_COEF = 2.0 / np.sqrt(np.pi)


def _lse(a, axis=None, keepdims=False):
    """``scipy.special.logsumexp`` (real, unweighted) without dispatch overhead.

    The interpreted tape calls :func:`scipy.special.logsumexp`, whose
    array-API wrapper costs tens of microseconds per call — on scalar-heavy
    tapes (one ``log_sum_exp`` per observation) that dominates the whole
    evaluation.  This mirrors the exact operation sequence of scipy's
    ``_logsumexp`` for real unweighted input, so results are bitwise
    identical (the first-call validation contract checks, and demotes the
    tape if a scipy upgrade ever changes the algorithm).
    """
    a = np.asarray(a)
    ax = tuple(range(a.ndim)) if axis is None else axis
    a_max = np.maximum.reduce(a, axis=ax, keepdims=True)
    mask = a == a_max
    # ``np.add.reduce`` is what np.sum dispatches to — same result, less
    # wrapper overhead.  The negative-weight guards of scipy's general code
    # (``s < -1`` wrap, ``abs(m)``) are identities for unweighted real input
    # and are elided; ``m`` is the max-element multiplicity, always >= 1.
    s = np.add.reduce(np.exp(np.where(mask, -np.inf, a) - a_max),
                      axis=ax, keepdims=True)
    m = np.add.reduce(mask.astype(a.dtype), axis=ax, keepdims=True)
    s = np.where(s == 0, s, s / m)
    out = np.log1p(s) + np.log(m) + a_max
    finite = np.isfinite(out)
    if not finite.all():
        out_inf = np.log(np.add.reduce(np.exp(a), axis=ax, keepdims=True))
        out = np.where(finite, out, out_inf)
    if not keepdims:
        out = np.squeeze(out, axis=ax)
    return out[()] if out.ndim == 0 else out


def _lit(x) -> str:
    """Render a static op parameter as a Python source literal."""
    if x is None:
        return "None"
    if isinstance(x, bool):
        return repr(x)
    if isinstance(x, (int, np.integer)):
        return repr(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, tuple):
        inner = ", ".join(_lit(i) for i in x)
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    raise TapeCompilationError(f"cannot render static parameter {x!r}")


@dataclass
class TapeStats:
    """What the lowering pass did to the recorded graph."""

    recorded: int        #: nodes created during the tracing evaluation
    reachable: int       #: nodes reachable from the output (rest eliminated)
    dynamic: int         #: reachable nodes that depend on the input
    folded: int          #: reachable constant nodes baked into ``_c[...]``
    fused: int           #: single-use intermediates inlined into consumers
    forward_lines: int   #: forward statements in the emitted program
    backward_lines: int  #: backward statements in the emitted program


@dataclass
class CompiledTape:
    """A lowered tape: generated forward/reverse NumPy programs plus guards."""

    signature: Tuple[Tuple[int, ...], str]
    stats: TapeStats
    source: str
    _vg_fn: Callable
    _val_fn: Callable
    _consts: Tuple[Any, ...]

    def matches(self, z: np.ndarray) -> bool:
        """Shape/dtype guard: is the program valid for this input?"""
        z = np.asarray(z)
        return (z.shape, z.dtype.str) == self.signature

    def value_and_grad(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Forward + reverse program: ``(value, d value / d z)``."""
        with np.errstate(all="ignore"):
            return self._vg_fn(np.asarray(z, dtype=float), self._consts)

    def value(self, z: np.ndarray) -> np.ndarray:
        """Forward program only (the value-only consumers' fast path)."""
        with np.errstate(all="ignore"):
            return self._val_fn(np.asarray(z, dtype=float), self._consts)


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
#: ``True`` while a tracing evaluation is running (read by runtime helpers
#: that observe value-dependent control flow, e.g. ``_truthy``).
TRACING = False

_DYNAMIC_BRANCH = [False]

#: Tensor dunders whose *result* escapes the graph as a concrete Python /
#: NumPy value — a branch or mask computed from the input would be frozen
#: into the compiled program, so observing any of them on a graph-connected
#: tensor during tracing rejects the model.
_VALUE_ESCAPE_DUNDERS = ("__bool__", "__int__", "__float__", "__lt__",
                         "__le__", "__gt__", "__ge__", "__eq__", "__ne__")


def note_dynamic_branch() -> None:
    """Record that the tracing evaluation branched on an input-derived value."""
    _DYNAMIC_BRANCH[0] = True


def _watch(method: Callable) -> Callable:
    def wrapped(self, *args):
        if self._requires_graph():
            note_dynamic_branch()
        return method(self, *args)

    return wrapped


def _watch_data(slot) -> property:
    """Watched replacement for the ``Tensor.data`` slot during tracing.

    Reading ``.data`` hands the caller the raw buffer — a value escape the
    dunder watches cannot see (``float(t.data)`` never touches
    ``Tensor.__float__``).  Reads from the evaluation machinery itself
    (``repro.*`` modules: ops computing forward values, runtime helpers
    checking shapes) are trusted — value-dependent branching there goes
    through explicit :func:`note_dynamic_branch` hooks — but a read from
    model code on a graph-connected tensor is indistinguishable from a
    frozen branch, so it rejects the trace.
    """
    def getter(self):
        module = sys._getframe(1).f_globals.get("__name__", "")
        if not (module == "repro" or module.startswith("repro.")):
            if self._requires_graph():
                note_dynamic_branch()
        return slot.__get__(self, Tensor)

    return property(getter, lambda self, value: slot.__set__(self, value))


def trace(fn: Callable[[Tensor], Tensor], z0: np.ndarray):
    """Run ``fn`` once with the tracing sink installed.

    Returns ``(out, root, recorded)``: the output tensor, the input leaf and
    the list of every node :func:`repro.autodiff.ops._make` built during the
    evaluation (each carrying its ``op``/``op_ctx`` annotation).

    The compiled program freezes the traced control flow, so tracing watches
    for value-dependent escapes: comparisons, ``bool``/``int``/``float``
    coercions of graph-connected tensors, and runtime branch helpers
    (:func:`note_dynamic_branch`).  Any such observation raises
    :class:`TapeCompilationError` — the model must stay on the interpreted
    tape, which re-executes the Python control flow on every evaluation.
    """
    global TRACING
    z0 = np.asarray(z0, dtype=float)
    root = Tensor(z0, requires_grad=True)
    prev = ops._TRACE_SINK
    recorded: List[Tensor] = []
    saved = {name: getattr(Tensor, name) for name in _VALUE_ESCAPE_DUNDERS}
    saved_data = Tensor.data  # the raw slot descriptor
    prev_tracing, prev_flag = TRACING, _DYNAMIC_BRANCH[0]
    ops._TRACE_SINK = recorded
    TRACING = True
    _DYNAMIC_BRANCH[0] = False
    for name, method in saved.items():
        setattr(Tensor, name, _watch(method))
    Tensor.data = _watch_data(saved_data)
    try:
        with np.errstate(all="ignore"):
            out = fn(root)
        branched = _DYNAMIC_BRANCH[0]
    finally:
        ops._TRACE_SINK = prev
        TRACING = prev_tracing
        _DYNAMIC_BRANCH[0] = prev_flag
        for name, method in saved.items():
            setattr(Tensor, name, method)
        Tensor.data = saved_data
    if not isinstance(out, Tensor):
        raise TapeCompilationError(
            "traced function returned a non-tensor (constant w.r.t. the input)")
    if branched:
        raise TapeCompilationError(
            "the evaluation branches on an input-derived value; the compiled "
            "program would freeze that control flow")
    return out, root, recorded


# ----------------------------------------------------------------------
# the program IR
# ----------------------------------------------------------------------
#: an expression: a ``%``-format template with one ``%s`` slot per operand
#: occurrence, and the operands that fill those slots, in order.
_Expr = Tuple[str, Tuple[str, ...]]


class _Stmt:
    """One statement of the generated program.

    ``template % operands`` is the right-hand side.  ``operands`` are the
    names the statement reads, one per ``%s`` slot: program variables
    (``v12``, ``g7``, ``t3``, ``m4``, ``z``, ``gz``, ``grad``) and constant
    slots (``_c[5]``).  Static op parameters are literal text in the template.
    ``target`` is the variable the statement assigns (``target[index] = ...``
    when the constant slot ``index`` is set), or ``None`` for a bare call
    (``np.add.at(...)``, ``return ...``).
    """

    __slots__ = ("target", "template", "operands", "index")

    def __init__(self, target: Optional[str], template: str,
                 operands: Tuple[str, ...], index: Optional[str] = None):
        self.target = target
        self.template = template
        self.operands = operands
        self.index = index

    def line(self, rhs: str) -> str:
        """The source line, given the rendered right-hand side."""
        if self.target is None:
            return rhs
        if self.index is None:
            return f"{self.target} = {rhs}"
        return f"{self.target}[{self.index}] = {rhs}"


class _Unit:
    """One schedulable statement group of the generated program."""

    __slots__ = ("target", "stmts", "inlinable")

    def __init__(self, target: str, stmts: List[_Stmt], inlinable: bool):
        self.target = target
        self.stmts = stmts
        self.inlinable = inlinable


def _assign(target: str, expr: _Expr, inlinable: bool = True) -> _Unit:
    return _Unit(target, [_Stmt(target, *expr)], inlinable)


def _render(units: List[_Unit], ret: _Stmt, fn_name: str) -> Tuple[str, int]:
    """Liveness-prune, inline single-use pure assignments, emit source.

    Liveness and use/assignment counts come from the operand lists.  Each
    statement is then rendered once, in program order: its template is
    filled with what its operands already rendered to — the pending
    expression of a fused temporary, else the operand's name.  A fused
    temporary has exactly one use, so its expression is spent there.
    """
    # liveness from the return statement backwards
    needed = set(ret.operands)
    live: List[_Unit] = []
    for unit in reversed(units):
        if unit.target in needed:
            for stmt in unit.stmts:
                needed.update(stmt.operands)
            live.append(unit)
    live.reverse()

    # use/assignment counts over the live program
    uses = Counter([name for unit in live for stmt in unit.stmts
                    for name in stmt.operands])
    uses.update(ret.operands)
    assigns = Counter([unit.target for unit in live])

    # single-use, singly-assigned pure expressions fuse into their consumer
    pending: Dict[str, str] = {}
    fused = 0
    body: List[str] = []

    def rhs(stmt: _Stmt) -> str:
        return stmt.template % tuple([pending.pop(name, name)
                                      for name in stmt.operands])

    for unit in live:
        texts = [rhs(stmt) for stmt in unit.stmts]
        if (unit.inlinable and len(texts) == 1
                and uses[unit.target] == 1 and assigns[unit.target] == 1
                and len(texts[0]) <= MAX_INLINE_LEN):
            pending[unit.target] = texts[0]
            fused += 1
            continue
        body.extend(stmt.line(text) for stmt, text in zip(unit.stmts, texts))

    lines = [f"def {fn_name}(z, _c):"]
    lines.extend(f"    {s}" for s in body)
    lines.append(f"    {ret.line(rhs(ret))}")
    return "\n".join(lines) + "\n", fused


# ----------------------------------------------------------------------
# the lowering pass
# ----------------------------------------------------------------------
class _Lowering:
    def __init__(self, out: Tensor, root: Tensor, recorded: Sequence[Tensor]):
        self.out = out
        self.root = root
        self.recorded = recorded
        self.order = _topological_order(out)          # root-first
        self.consts: List[Any] = []
        self._const_ids: Dict[int, int] = {}
        self._baked: set = set()
        self.names: Dict[int, str] = {id(root): "z"}
        self.aux: Dict[int, str] = {}                 # node id -> mask var
        self._temp = 0

        # constant classification: dynamic = depends on the input leaf
        self.dynamic: set = {id(root)}
        for node in reversed(self.order):
            if id(node) in self.dynamic:
                continue
            if any(id(p) in self.dynamic for p in node.parents):
                self.dynamic.add(id(node))
        if id(out) not in self.dynamic:
            raise TapeCompilationError("output does not depend on the input")

    # -- naming ---------------------------------------------------------
    def temp(self) -> str:
        self._temp += 1
        return f"t{self._temp}"

    def const(self, obj) -> str:
        key = id(obj)
        idx = self._const_ids.get(key)
        if idx is None:
            idx = len(self.consts)
            self.consts.append(obj)
            self._const_ids[key] = idx
        return f"_c[{idx}]"

    def ref(self, node: Tensor) -> str:
        if id(node) in self.names:
            return self.names[id(node)]
        if id(node) in self.dynamic:
            raise TapeCompilationError("dynamic node referenced before definition")
        self._baked.add(id(node))
        return self.const(node.data)

    @staticmethod
    def op_of(node: Tensor) -> str:
        op = getattr(node, "op", None)
        if op is None:
            raise TapeCompilationError(
                "graph node without an op annotation (built outside the "
                "tracing sink)")
        return op

    # -- forward --------------------------------------------------------
    #: forward templates of the ops whose expression reads each parent once,
    #: in order
    _UNARY_FWD = {
        "neg": "(-%s)",
        "exp": "np.exp(%s)", "expm1": "np.expm1(%s)", "log": "np.log(%s)",
        "log1p": "np.log1p(%s)", "sqrt": "np.sqrt(%s)", "sin": "np.sin(%s)",
        "cos": "np.cos(%s)", "tanh": "np.tanh(%s)",
        "sigmoid": "sps.expit(%s)", "softplus": "np.logaddexp(0.0, %s)",
        "lgamma": "sps.gammaln(%s)", "digamma": "sps.digamma(%s)",
        "erf": "sps.erf(%s)", "erfc": "sps.erfc(%s)", "abs": "np.abs(%s)",
    }
    _BINARY_FWD = {
        "add": "(%s + %s)", "sub": "(%s - %s)", "mul": "(%s * %s)",
        "div": "(%s / %s)", "pow": "(%s ** %s)", "matmul": "(%s @ %s)",
        "dot": "np.dot(%s, %s)", "outer": "np.outer(%s, %s)",
    }

    def mask(self, node: Tensor, var: str) -> str:
        """Name the boolean mask a masking op saves for its VJP."""
        mask = f"m{var[1:]}"
        self.aux[id(node)] = mask
        return mask

    def forward_unit(self, node: Tensor, var: str) -> _Unit:
        op = self.op_of(node)
        ctx = getattr(node, "op_ctx", ())
        p = tuple(self.ref(parent) for parent in node.parents)
        stmts: List[_Stmt] = []
        template = self._UNARY_FWD.get(op) or self._BINARY_FWD.get(op)
        if template is not None:
            expr = (template, p)
        elif op == "square":
            expr = ("(%s * %s)", (p[0], p[0]))
        elif op == "relu":
            mask = self.mask(node, var)
            stmts.append(_Stmt(mask, "%s > 0", p))
            expr = ("np.where(%s, %s, 0.0)", (mask, p[0]))
        elif op in ("minimum", "maximum"):
            mask = self.mask(node, var)
            cmp = "<=" if op == "minimum" else ">="
            stmts.append(_Stmt(mask, f"%s {cmp} %s", p))
            expr = (f"np.{op}(%s, %s)", p)
        elif op == "clip":
            lo, hi = (_lit(bound) for bound in ctx)
            mask = self.mask(node, var)
            stmts.append(_Stmt(mask, f"(%s >= {lo}) & (%s <= {hi})", (p[0], p[0])))
            expr = (f"np.clip(%s, {lo}, {hi})", p)
        elif op == "where":
            expr = ("np.where(%s, %s, %s)", (self.const(ctx[0]),) + p)
        elif op in ("sum", "mean"):
            axis, keepdims = ctx[0], ctx[1]
            expr = (f"np.{op}(%s, axis={_lit(axis)}, keepdims={_lit(keepdims)})", p)
        elif op == "logsumexp":
            axis, keepdims = ctx
            expr = (f"np.asarray(lse(%s, axis={_lit(axis)}, "
                    f"keepdims={_lit(keepdims)}))", p)
        elif op == "softmax":
            axis = _lit(ctx[0])
            t = self.temp()
            stmts.append(_Stmt(t, f"np.exp(%s - np.max(%s, axis={axis}, "
                                  f"keepdims=True))", (p[0], p[0])))
            expr = (f"(%s / np.sum(%s, axis={axis}, keepdims=True))", (t, t))
        elif op == "log_softmax":
            axis = _lit(ctx[0])
            t = self.temp()
            stmts.append(_Stmt(t, f"%s - np.max(%s, axis={axis}, keepdims=True)",
                               (p[0], p[0])))
            expr = (f"(%s - np.log(np.sum(np.exp(%s), axis={axis}, "
                    f"keepdims=True)))", (t, t))
        elif op == "cumsum":
            expr = (f"np.cumsum(%s, axis={_lit(ctx[0])})", p)
        elif op == "transpose":
            axes = ctx[0]
            expr = ("np.transpose(%s)" if axes is None
                    else f"np.transpose(%s, {_lit(tuple(axes))})", p)
        elif op == "reshape":
            expr = (f"np.reshape(%s, {_lit(tuple(ctx[0]))})", p)
        elif op == "concatenate":
            parts = ", ".join("%s" if parent.data.ndim >= 1 else "np.atleast_1d(%s)"
                              for parent in node.parents)
            expr = (f"np.concatenate([{parts}], axis={_lit(ctx[0])})", p)
        elif op == "stack":
            parts = ", ".join(["%s"] * len(p))
            expr = (f"np.stack([{parts}], axis={_lit(ctx[0])})", p)
        elif op == "getitem":
            expr = ("%s[%s]", (p[0], self.const(ctx[0])))
        elif op == "index_update":
            idx = self.const(ctx[0])
            return _Unit(var, [_Stmt(var, "np.array(%s)", (p[0],)),
                               _Stmt(var, "%s", (p[1],), index=idx)],
                         inlinable=False)
        else:
            raise TapeCompilationError(f"unsupported op {op!r}")
        stmts.append(_Stmt(var, *expr))
        return _Unit(var, stmts, inlinable=len(stmts) == 1)

    # -- backward -------------------------------------------------------
    #: VJP templates of the unary elementwise ops; the operand roles are
    #: ``g`` (the incoming gradient), ``x`` (the parent) and ``y`` (the output)
    _UNARY_BWD = {
        "neg": ("(-%s)", "g"),
        "square": ("(2.0 * %s * %s)", "gx"),
        "abs": ("(%s * np.sign(%s))", "gx"),
        "exp": ("(%s * %s)", "gy"),
        "expm1": ("(%s * np.exp(%s))", "gx"),
        "log": ("(%s / %s)", "gx"),
        "log1p": ("(%s / (1.0 + %s))", "gx"),
        "sqrt": ("(%s * 0.5 / %s)", "gy"),
        "sin": ("(%s * np.cos(%s))", "gx"),
        "cos": ("(-%s * np.sin(%s))", "gx"),
        "tanh": ("(%s * (1.0 - %s * %s))", "gyy"),
        "sigmoid": ("(%s * %s * (1.0 - %s))", "gyy"),
        "softplus": ("(%s * sps.expit(%s))", "gx"),
        "lgamma": ("(%s * sps.digamma(%s))", "gx"),
        "digamma": ("(%s * sps.polygamma(1, %s))", "gx"),
        "erf": (f"(%s * {_ERF_COEF!r} * np.exp(-%s * %s))", "gxx"),
        "erfc": (f"(-%s * {_ERF_COEF!r} * np.exp(-%s * %s))", "gxx"),
    }

    def backward_exprs(self, node: Tensor, pos: int, gvar: str
                       ) -> Tuple[List[_Stmt], _Expr]:
        """Statements + expression for the VJP of ``node`` w.r.t. parent ``pos``.

        Mirror of the closures in :mod:`repro.autodiff.ops` — same formulas,
        same operation order, so the result is bitwise identical.
        """
        op = self.op_of(node)
        ctx = getattr(node, "op_ctx", ())
        p = [self.ref(parent) for parent in node.parents]
        v = self.ref(node)
        g = gvar
        parent = node.parents[pos]
        pshape = _lit(tuple(parent.data.shape))
        stmts: List[_Stmt] = []
        if op in self._UNARY_BWD:
            template, roles = self._UNARY_BWD[op]
            role = {"g": g, "x": p[0], "y": v}
            return stmts, (template, tuple(role[r] for r in roles))
        if op == "add" or (op == "sub" and pos == 0):
            return stmts, ("%s", (g,))
        if op == "sub":
            return stmts, ("(-%s)", (g,))
        if op in ("mul", "dot"):
            return stmts, ("(%s * %s)", (g, p[1 - pos]))
        if op == "div":
            if pos == 0:
                return stmts, ("(%s / %s)", (g, p[1]))
            return stmts, ("(-%s * %s / (%s * %s))", (g, p[0], p[1], p[1]))
        if op == "pow":
            if pos == 0:
                return stmts, ("(%s * %s * %s ** (%s - 1.0))", (g, p[1], p[0], p[1]))
            t = self.temp()
            stmts.append(_Stmt(t, "np.where(%s > 0, np.log(np.where(%s > 0, "
                                  "%s, 1.0)), 0.0)", (p[0], p[0], p[0])))
            return stmts, ("(%s * %s * %s)", (g, v, t))
        if op in ("relu", "clip") or (op in ("minimum", "maximum") and pos == 0):
            return stmts, ("(%s * %s)", (g, self.aux[id(node)]))
        if op in ("minimum", "maximum"):
            return stmts, ("(%s * (~%s))", (g, self.aux[id(node)]))
        if op == "where":
            cond = self.const(ctx[0])
            return stmts, ("(%s * %s)" if pos == 0 else "(%s * (~%s))", (g, cond))
        if op in ("sum", "mean"):
            axis, keepdims = ctx[0], ctx[1]
            inner = "%s" if op == "sum" else f"(%s / {ctx[2]})"
            if axis is not None and not keepdims:
                inner = f"np.expand_dims({inner}, {_lit(axis)})"
            return stmts, (f"np.broadcast_to({inner}, {pshape}).copy()", (g,))
        if op == "logsumexp":
            axis, keepdims = ctx
            if axis is None or keepdims:
                return stmts, ("(%s * np.exp(%s - %s))", (g, p[0], v))
            ax = _lit(axis)
            return stmts, (f"(np.expand_dims(%s, {ax}) * "
                           f"np.exp(%s - np.expand_dims(%s, {ax})))", (g, p[0], v))
        if op == "softmax":
            axis = _lit(ctx[0])
            t = self.temp()
            stmts.append(_Stmt(t, f"np.sum(%s * %s, axis={axis}, keepdims=True)",
                               (g, v)))
            return stmts, ("(%s * (%s - %s))", (v, g, t))
        if op == "log_softmax":
            axis = _lit(ctx[0])
            return stmts, (f"(%s - np.exp(%s) * np.sum(%s, axis={axis}, "
                           f"keepdims=True))", (g, v, g))
        if op == "cumsum":
            a = _lit(ctx[0])
            return stmts, (f"np.flip(np.cumsum(np.flip(%s, axis={a}), "
                           f"axis={a}), axis={a})", (g,))
        if op == "matmul":
            and_, bnd = node.parents[0].data.ndim, node.parents[1].data.ndim
            if pos == 0:
                if bnd == 1 and and_ == 1:
                    return stmts, ("(%s * %s)", (g, p[1]))
                if bnd == 1:
                    return stmts, ("np.outer(%s, %s)" if and_ == 2
                                   else "(%s[..., None] * %s)", (g, p[1]))
                if and_ == 1:
                    return stmts, (("(%s @ np.transpose(%s))", (g, p[1]))
                                   if node.data.ndim else ("(%s @ %s)", (p[1], g)))
                return stmts, ("(%s @ np.swapaxes(%s, -1, -2))", (g, p[1]))
            if and_ == 1 and bnd == 1:
                return stmts, ("(%s * %s)", (g, p[0]))
            if and_ == 1:
                return stmts, ("np.outer(%s, %s)" if bnd == 2
                               else "(%s[..., None] * %s)", (p[0], g))
            return stmts, ("(np.swapaxes(%s, -1, -2) @ %s)", (p[0], g))
        if op == "outer":
            return stmts, ("(%s @ %s)", (g, p[1]) if pos == 0 else (p[0], g))
        if op == "transpose":
            axes = ctx[0]
            if axes is None:
                return stmts, ("np.transpose(%s)", (g,))
            inverse = tuple(int(i) for i in np.argsort(axes))
            return stmts, (f"np.transpose(%s, {_lit(inverse)})", (g,))
        if op == "reshape":
            return stmts, (f"np.reshape(%s, {pshape})", (g,))
        if op == "concatenate":
            axis, offsets = ctx
            ndim = node.data.ndim
            idx = ", ".join(
                f"{offsets[pos]}:{offsets[pos + 1]}" if d == (axis % ndim) else ":"
                for d in range(ndim))
            return stmts, (f"np.reshape(%s[{idx}], {pshape})", (g,))
        if op == "stack":
            return stmts, (f"np.take(%s, {pos}, axis={_lit(ctx[0])})", (g,))
        if op == "getitem":
            index = ctx[0]
            idx = self.const(index)
            t = self.temp()
            stmts.append(_Stmt(t, f"np.zeros({pshape})", ()))
            single_cell = isinstance(index, (int, np.integer)) or (
                isinstance(index, tuple)
                and all(isinstance(i, (int, np.integer)) for i in index))
            if single_cell:
                # One statically-known cell: a plain store of ``0.0 + g``
                # is bitwise-identical to ``np.add.at`` on zeros (including
                # signed-zero semantics) at a fraction of the dispatch cost.
                stmts.append(_Stmt(t, "0.0 + %s", (g,), index=idx))
            else:
                stmts.append(_Stmt(None, "np.add.at(%s, %s, %s)", (t, idx, g)))
            return stmts, ("%s", (t,))
        if op == "index_update":
            idx = self.const(ctx[0])
            if pos == 0:
                t = self.temp()
                stmts.append(_Stmt(t, "np.array(%s)", (g,)))
                stmts.append(_Stmt(t, "0.0", (), index=idx))
                return stmts, ("%s", (t,))
            return stmts, ("%s[%s]", (g, idx))
        raise TapeCompilationError(f"unsupported op {op!r}")


def compile_tape(fn: Callable[[Tensor], Tensor], z0: np.ndarray,
                 telemetry=None) -> CompiledTape:
    """Lower one traced evaluation of ``fn`` at ``z0`` to generated code.

    ``fn`` maps an input :class:`Tensor` to an output tensor whose reverse
    pass is seeded with ones (a scalar potential, or a ``(C,)`` per-chain
    batch).  Returns a :class:`CompiledTape` whose ``value_and_grad`` /
    ``value`` replay the recorded computation with no per-op dispatch.
    Raises :class:`TapeCompilationError` for graphs that cannot be lowered.

    ``telemetry`` (a :class:`repro.obs.Telemetry`, or ``None``) receives
    ``tape.trace`` and ``tape.lower`` sub-spans with graph-size attributes.
    """
    from repro.obs import as_telemetry

    telemetry = as_telemetry(telemetry)
    z0 = np.asarray(z0, dtype=float)
    with telemetry.span("tape.trace", input_shape=list(z0.shape)) as span:
        out, root, recorded = trace(fn, z0)
        span.set(recorded_nodes=len(recorded))
    with telemetry.span("tape.lower") as span:
        result = _lower_traced(out, root, recorded, z0)
        span.set(dynamic_nodes=result.stats.dynamic,
                 folded_nodes=result.stats.folded,
                 fused=result.stats.fused,
                 forward_lines=result.stats.forward_lines,
                 backward_lines=result.stats.backward_lines)
    return result


def _lower_traced(out, root, recorded, z0: np.ndarray) -> CompiledTape:
    """Lowering + codegen for an already-traced graph (see :func:`compile_tape`)."""
    low = _Lowering(out, root, recorded)
    dynamic_sched = [node for node in reversed(low.order)
                     if id(node) in low.dynamic and node is not root]
    if len(dynamic_sched) > MAX_PROGRAM_NODES:
        raise TapeCompilationError(
            f"traced graph has {len(dynamic_sched)} dynamic nodes, beyond the "
            f"{MAX_PROGRAM_NODES}-node program cap")

    # ---- forward program ------------------------------------------------
    forward_units: List[_Unit] = []
    for i, node in enumerate(dynamic_sched):
        var = f"v{i}"
        low.names[id(node)] = var
        forward_units.append(low.forward_unit(node, var))

    gnames: Dict[int, str] = {id(root): "gz"}
    for i, node in enumerate(dynamic_sched):
        gnames[id(node)] = f"g{i}"

    # ---- backward program (the interpreter's exact traversal order) -----
    backward_units: List[_Unit] = []
    seeded: set = set()
    out_g = gnames[id(out)]
    backward_units.append(
        _assign(out_g, (f"np.ones({_lit(tuple(out.data.shape))})", ())))
    seeded.add(out_g)
    with np.errstate(all="ignore"):
        probe_cache: Dict[int, np.ndarray] = {}
        for node in low.order:                      # root (output) first
            if id(node) not in low.dynamic or node is root:
                continue
            gvar = gnames[id(node)]
            probe = probe_cache.get(id(node))
            if probe is None:
                probe = np.ones(node.data.shape)
                probe_cache[id(node)] = probe
            for pos, (parent, bfn) in enumerate(zip(node.parents, node.backward_fns)):
                if id(parent) not in low.dynamic:
                    continue                        # dead gradient: eliminated
                stmts, (template, operands) = low.backward_exprs(node, pos, gvar)
                # static unbroadcast specialization: the traced shapes tell
                # us whether the reduction is the identity
                contrib_shape = np.shape(bfn(probe))
                if contrib_shape != parent.data.shape:
                    template = (f"unbroadcast({template}, "
                                f"{_lit(tuple(parent.data.shape))})")
                pg = gnames[id(parent)]
                if pg in seeded:
                    stmts.append(_Stmt(pg, "%s + " + template, (pg,) + operands))
                    backward_units.append(_Unit(pg, stmts, inlinable=False))
                else:
                    stmts.append(_Stmt(pg, template, operands))
                    seeded.add(pg)
                    backward_units.append(
                        _Unit(pg, stmts, inlinable=len(stmts) == 1))
    backward_units.append(_assign(
        "grad", ("np.zeros_like(%s) + %s", ("z", "gz")) if "gz" in seeded
        else ("np.zeros_like(%s)", ("z",)), inlinable=False))

    out_ref = low.ref(out)
    vg_source, fused_vg = _render(forward_units + backward_units,
                                  _Stmt(None, "return %s, %s", (out_ref, "grad")),
                                  "_tape_vg")
    val_source, _fused_val = _render(forward_units,
                                     _Stmt(None, "return %s", (out_ref,)),
                                     "_tape_val")

    namespace: Dict[str, Any] = {"np": np, "sps": sps, "unbroadcast": unbroadcast,
                                 "lse": _lse}
    try:
        exec(compile(vg_source, "<compiled-tape>", "exec"), namespace)
        exec(compile(val_source, "<compiled-tape-value>", "exec"), namespace)
    except SyntaxError as exc:  # pragma: no cover - emitter bug guard
        raise TapeCompilationError(f"generated program failed to parse: {exc}")

    stats = TapeStats(
        recorded=len(recorded),
        reachable=len(low.order),
        dynamic=len(dynamic_sched),
        folded=len(low._baked),
        fused=fused_vg,
        forward_lines=len(forward_units),
        backward_lines=len(backward_units),
    )
    return CompiledTape(
        signature=(z0.shape, z0.dtype.str),
        stats=stats,
        source=vg_source + "\n" + val_source,
        _vg_fn=namespace["_tape_vg"],
        _val_fn=namespace["_tape_val"],
        _consts=tuple(low.consts),
    )
