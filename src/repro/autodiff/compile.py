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
* **superword groups** — isomorphic nodes that do not depend on each other
  (same op, static parameters, operand shapes and constant pattern, at the
  same level) are computed by one stacked NumPy op over a leading member
  axis, with compile-time index arrays gathering their operands, and
  single-use ``add`` chains (the ``target +=`` accumulation) become one
  strict left fold, ``np.add.accumulate(...)[-1]`` — so a loop over data
  lowers to a program whose length follows the dependency depth rather
  than the node count;
* **hand-derived reverse program** — the backward pass is emitted as
  straight-line code textually mirroring the interpreted VJP closures, in
  the interpreter's exact traversal and accumulation order, so results are
  bitwise identical to the interpreted tape (gradient contributions are
  reduced by the ``np.add.reduce`` calls
  :func:`~repro.autodiff.tensor.unbroadcast` would make on the traced
  shapes, none where it is the identity; a stacked group's VJP is computed
  once per operand, and every parent folds its contributions left to right
  in the interpreter's order; the gradients of a group of cell reads add
  into their parent with one ``np.add.at``);
* **cheap idioms** — where a NumPy idiom's fixed per-call price dwarfs its
  arithmetic, the traced shapes pick a cheaper form that computes the same
  bits: reductions call ``np.add.reduce`` / ``np.maximum.reduce`` directly
  (a sum over a 0-d value is ``x + 0.0``: ``ndarray.sum`` turns ``-0.0``
  into ``0.0``); the sum/mean VJP is ``np.full(S, g)``, or ``g`` for a 0-d
  parent; the input gradient is one ``np.zeros`` plus a ``grad[idx] = 0.0 +
  g`` store per read when the reads' cells are disjoint; a one-cell slice
  reshaped to ``()`` is ``z[k]``; a scalar output's seed is a baked
  ``np.float64(1.0)``; and ``**`` is ``np.power``, which computes the same
  bits whether an operand is a NumPy scalar or a 0-d array (the ``**``
  operator on two scalars calls C ``pow`` instead of NumPy's loop).

The compiled program freezes the traced control flow, so it is only valid
for inputs with the trace's shape and dtype — :class:`CompiledTape.matches`
is the guard callers must check, recompiling (and revalidating) on mismatch.
Value-dependent branches that change *shape* invalidate the program through
that guard; the first-call validation contract in
:mod:`repro.infer.potential` covers the rest.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
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
    groups: int = 0      #: stacked statements emitted (groups and folds)
    grouped: int = 0     #: recorded nodes those stacked statements absorbed


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
        self.where: Dict[int, Tuple[Any, Optional[int]]] = {}  # node -> (box, row)
        self._indices: Dict[Tuple[int, ...], str] = {}  # gather index constants
        self._gathered: Dict[_Expr, str] = {}           # forward gathers
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
        "div": "(%s / %s)", "pow": "np.power(%s, %s)", "matmul": "(%s @ %s)",
        "dot": "np.dot(%s, %s)", "outer": "np.outer(%s, %s)",
    }

    def mask(self, node: Tensor, var: str) -> str:
        """Name the boolean mask a masking op saves for its VJP."""
        mask = f"m{var[1:]}"
        self.aux[id(node)] = mask
        return mask

    def forward_unit(self, node: Tensor, var: str,
                     p: Optional[Tuple[str, ...]] = None,
                     cond: Optional[str] = None) -> _Unit:
        """The unit computing ``node`` into ``var``.

        ``p`` (operand names) and ``cond`` (the ``where`` condition) override
        the node's own operands: a stacked group renders its representative
        member over the stacked operands.
        """
        op = self.op_of(node)
        ctx = getattr(node, "op_ctx", ())
        if p is None:
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
            expr = ("np.where(%s, %s, %s)", (cond or self.const(ctx[0]),) + p)
        elif op == "sum" and not node.parents[0].data.ndim:
            # a 0-d ``ndarray.sum`` adds the identity: ``-0.0`` becomes ``0.0``
            expr = ("(%s + 0.0)", p)
        elif op in ("sum", "mean"):
            fn = "np.add.reduce" if op == "sum" else "np.mean"
            expr = (f"{fn}(%s, axis={_lit(ctx[0])}, keepdims={_lit(ctx[1])})", p)
        elif op == "logsumexp":
            axis, keepdims = ctx
            expr = (f"np.asarray(lse(%s, axis={_lit(axis)}, "
                    f"keepdims={_lit(keepdims)}))", p)
        elif op == "softmax":
            axis = _lit(ctx[0])
            t = self.temp()
            stmts.append(_Stmt(t, f"np.exp(%s - np.maximum.reduce(%s, axis={axis}, "
                                  f"keepdims=True))", (p[0], p[0])))
            expr = (f"(%s / np.add.reduce(%s, axis={axis}, keepdims=True))", (t, t))
        elif op == "log_softmax":
            axis = _lit(ctx[0])
            t = self.temp()
            stmts.append(_Stmt(t, f"%s - np.maximum.reduce(%s, axis={axis}, "
                                  f"keepdims=True)", (p[0], p[0])))
            expr = (f"(%s - np.log(np.add.reduce(np.exp(%s), axis={axis}, "
                    f"keepdims=True)))", (t, t))
        elif op == "cumsum":
            expr = (f"np.cumsum(%s, axis={_lit(ctx[0])})", p)
        elif op == "transpose":
            axes = ctx[0]
            expr = ("np.transpose(%s)" if axes is None
                    else f"np.transpose(%s, {_lit(tuple(axes))})", p)
        elif op == "reshape":
            cell = None if ctx[0] else self.one_cell(node.parents[0])
            expr = ((f"%s[{cell[1]}]", (cell[0],)) if cell
                    else (f"np.reshape(%s, {_lit(tuple(ctx[0]))})", p))
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

    def one_cell(self, node: Tensor) -> Optional[Tuple[str, int]]:
        """``(name, k)`` when ``node`` is a slice holding only cell ``k`` of
        the named 1-D value ``name``: its reshape to ``()`` is ``name[k]``."""
        if getattr(node, "op", None) != "getitem" or not isinstance(node.op_ctx[0], slice):
            return None
        source = node.parents[0]
        if source.data.ndim != 1 or id(source) not in self.names:
            return None
        cells = range(*node.op_ctx[0].indices(len(source.data)))
        return (self.names[id(source)], cells[0]) if len(cells) == 1 else None

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

    def backward_exprs(self, node: Tensor, pos: int, gvar: str,
                       p: Optional[Sequence[str]] = None, v: Optional[str] = None,
                       cond: Optional[str] = None) -> Tuple[List[_Stmt], _Expr]:
        """Statements + expression for the VJP of ``node`` w.r.t. parent ``pos``.

        Mirror of the closures in :mod:`repro.autodiff.ops` — same formulas,
        same operation order, so the result is bitwise identical.  ``p``,
        ``v`` and ``cond`` override operand, value and condition names as in
        :meth:`forward_unit`.
        """
        op = self.op_of(node)
        ctx = getattr(node, "op_ctx", ())
        if p is None:
            p = [self.ref(parent) for parent in node.parents]
        if v is None:
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
                return stmts, ("(%s * %s * np.power(%s, (%s - 1.0)))", (g, p[1], p[0], p[1]))
            t = self.temp()
            stmts.append(_Stmt(t, "np.where(%s > 0, np.log(np.where(%s > 0, "
                                  "%s, 1.0)), 0.0)", (p[0], p[0], p[0])))
            return stmts, ("(%s * %s * %s)", (g, v, t))
        if op in ("relu", "clip") or (op in ("minimum", "maximum") and pos == 0):
            return stmts, ("(%s * %s)", (g, self.aux[id(node)]))
        if op in ("minimum", "maximum"):
            return stmts, ("(%s * (~%s))", (g, self.aux[id(node)]))
        if op == "where":
            cond = cond or self.const(ctx[0])
            return stmts, ("(%s * %s)" if pos == 0 else "(%s * (~%s))", (g, cond))
        if op in ("sum", "mean"):
            axis, keepdims = ctx[0], ctx[1]
            inner = "%s" if op == "sum" else f"(%s / {ctx[2]})"
            if not parent.data.ndim:
                return stmts, (inner, (g,))
            if axis is not None and not keepdims:
                inner = f"np.expand_dims({inner}, {_lit(axis)})"
            return stmts, (f"np.full({pshape}, {inner})", (g,))
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
            stmts.append(_Stmt(t, f"np.add.reduce(%s * %s, axis={axis}, keepdims=True)",
                               (g, v)))
            return stmts, ("(%s * (%s - %s))", (v, g, t))
        if op == "log_softmax":
            axis = _lit(ctx[0])
            return stmts, (f"(%s - np.exp(%s) * np.add.reduce(%s, axis={axis}, "
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

    #: ops whose VJP returns the broadcast output's shape (every other op
    #: but :data:`_PROBED` returns its parent's)
    _BROADCASTING = frozenset({"add", "sub", "mul", "div", "pow", "minimum",
                               "maximum", "where"})
    #: ops whose VJP shape is read off a ones probe through the closure
    _PROBED = frozenset({"matmul", "dot", "index_update"})

    def contrib_shape(self, node: Tensor, bfn: Callable, parent: Tensor) -> Tuple:
        """Shape of ``node``'s VJP contribution to ``parent``, before
        ``unbroadcast``."""
        if node.op in self._BROADCASTING:
            return node.data.shape
        if node.op in self._PROBED:
            return np.shape(bfn(np.ones(node.data.shape)))
        return parent.data.shape

    @staticmethod
    def reduced(template: str, shape: Tuple[int, ...], target: Tuple[int, ...]) -> str:
        """``template``, a ``shape``-d contribution, reduced to ``target`` by
        the reductions :func:`~repro.autodiff.tensor.unbroadcast` makes
        (``ndarray.sum`` is ``np.add.reduce``): one over axis 0 per extra
        leading axis, then one per axis ``target`` holds at size 1, after
        which its closing reshape is the identity.  A contribution with
        fewer axes than ``target`` keeps the call."""
        lead = len(shape) - len(target)
        if lead < 0:
            return f"unbroadcast({template}, {_lit(target)})"
        for _ in range(lead):
            template = f"np.add.reduce({template}, axis=0)"
        for axis, size in enumerate(target):
            if size == 1 and shape[lead + axis] != 1:
                template = f"np.add.reduce({template}, axis={axis}, keepdims=True)"
        return template

    def disjoint_reads(self, readers: Sequence[Tensor], shape: Tuple[int, ...]) -> bool:
        """Are ``readers`` lone ``getitem`` nodes whose cells of a ``shape``-d
        value are unique and pairwise disjoint?"""
        hits = np.zeros(shape, dtype=np.intp)
        for node in readers:
            if node.op != "getitem" or self.where[id(node)][0].kind != "node":
                return False
            np.add.at(hits, node.op_ctx[0], 1)
        return bool((hits <= 1).all())

    # -- superword groups -----------------------------------------------
    #: ops whose stacked evaluation is the member formula on stacked
    #: operands (operands broadcast against the leading member axis)
    _ELEMENTWISE = frozenset(_UNARY_FWD) | {
        "add", "sub", "mul", "div", "pow", "square", "relu", "minimum",
        "maximum", "clip", "where"}
    _STACKABLE = _ELEMENTWISE | {"sum", "mean", "logsumexp", "reshape", "stack", "getitem"}

    def signature(self, node: Tensor) -> Optional[Tuple]:
        """What must match for nodes to stack into one op (``None``: never).

        Stacked members must reduce exactly like the scalar node: an
        elementwise member whose input operand needs an ``unbroadcast`` in
        the reverse pass stays alone, as does a reduction of a 0-d value.
        """
        op = self.op_of(node)
        if op not in self._STACKABLE:
            return None
        ctx = node.op_ctx
        shape = node.data.shape
        dyn = tuple([id(p) in self.dynamic for p in node.parents])
        shapes = tuple([p.data.shape for p in node.parents])
        if op in self._ELEMENTWISE:
            if any(d and s != shape for d, s in zip(dyn, shapes)):
                return None
            return (op, ctx if op == "clip" else (), shape, dyn, shapes)
        if op in ("sum", "mean", "logsumexp"):
            return (op, ctx, shape, dyn, shapes) if shapes[0] else None
        if op in ("reshape", "stack"):
            return (op, ctx, shape, dyn, shapes)
        if op == "getitem":
            axes = self.int_axes(ctx[0])
            return None if axes is None else (op, axes, shape, dyn, shapes)
        return None

    @staticmethod
    def int_axes(index) -> Optional[Tuple[int, ...]]:
        """The axes a basic index of ints and full slices reads by int."""
        index = index if isinstance(index, tuple) else (index,)
        if not all(isinstance(i, (int, np.integer))
                   or (isinstance(i, slice) and i == slice(None)) for i in index):
            return None
        axes = tuple(a for a, i in enumerate(index) if not isinstance(i, slice))
        return axes or None

    def int_view(self, index, ndim: int, lead: int = 0) -> str:
        """``%s`` template viewing an array with ``lead`` leading axes and
        then ``ndim`` indexed ones so that the int axes of the basic
        ``index`` follow the leading axes: fancy indexing them puts the
        read cells on one axis, the sliced axes after it."""
        axes = self.int_axes(index)
        rest = tuple(a for a in range(ndim) if a not in axes)
        order = tuple(range(lead)) + tuple(a + lead for a in axes + rest)
        return "%s" if order == tuple(sorted(order)) else f"np.transpose(%s, {_lit(order)})"

    def int_columns(self, indices: Sequence) -> Tuple[str, ...]:
        """Constant index arrays of the cells basic ``indices`` (all with
        the same int axes) read: one array per int axis."""
        axes = self.int_axes(indices[0])
        rows = [i if isinstance(i, tuple) else (i,) for i in indices]
        return tuple(self.index_const([row[a] for row in rows]) for a in axes)

    def index_const(self, index: Sequence[int]) -> str:
        """The constant slot of an index array, shared by equal arrays."""
        key = tuple(index)
        if key not in self._indices:
            self._indices[key] = self.const(np.array(index, dtype=np.intp))
        return self._indices[key]

    @staticmethod
    def shifted(axis, ndim: int):
        """A member reduction axis, on the stacked array (member axis 0 first)."""
        if axis is None:
            return tuple(range(1, ndim + 1))
        if isinstance(axis, tuple):
            return tuple(a % ndim + 1 for a in axis)
        return axis % ndim + 1

    def cell(self, node: Tensor) -> tuple:
        """Where a node's value lives: a whole name, a stacked row, or a constant."""
        if node is self.root:
            return ("name", "z")
        if id(node) not in self.dynamic:
            return ("const", node.data)
        box, row = self.where[id(node)]
        if box.kind == "group":
            return ("row", box.var, row, len(box.members))
        return ("name", box.var)

    def pool(self, cells: Sequence[tuple], shape: Tuple[int, ...]
             ) -> Tuple[List[str], Tuple[str, ...], List[int], int]:
        """The array holding the sources of ``cells`` (each ``shape``-d):
        ``(parts, operands, rows, size)``, its ``%s`` parts to concatenate
        (the stacked sources, then one array of the whole-value cells, then
        one baked array of the distinct constant cells) with their
        operands, each cell's row in it, and its length."""
        rows: Dict[str, int] = {}
        names: Dict[str, int] = {}
        consts: Dict[int, Tuple[int, np.ndarray]] = {}
        for cell in cells:
            if cell[0] == "row":
                rows.setdefault(cell[1], cell[3])
            elif cell[0] == "name":
                names.setdefault(cell[1], len(names))
            else:
                consts.setdefault(id(cell[1]), (len(consts), cell[1]))
        parts: List[str] = []
        operands: List[str] = []
        start: Dict[str, int] = {}
        size = 0
        for src, count in rows.items():
            start[src] = size
            size += count
            parts.append("%s")
            operands.append(src)
        named_at = size
        if names:
            parts.append("np.array([" + ", ".join(["%s"] * len(names)) + "])")
            operands.extend(names)
            size += len(names)
        const_at = size
        if consts:
            parts.append("%s")
            operands.append(self.const(np.stack(
                [np.broadcast_to(c, shape) for _, c in consts.values()]).astype(float)))
            size += len(consts)
        index = []
        for cell in cells:
            if cell[0] == "row":
                index.append(start[cell[1]] + cell[2])
            elif cell[0] == "name":
                index.append(named_at + names[cell[1]])
            else:
                index.append(const_at + consts[id(cell[1])][0])
        return parts, tuple(operands), index, size

    @staticmethod
    def concat(parts: List[str]) -> str:
        return parts[0] if len(parts) == 1 else f"np.concatenate(({', '.join(parts)}))"

    def gather(self, cells: Sequence[tuple], shape: Tuple[int, ...]) -> _Expr:
        """Expression of the ``(len(cells),) + shape`` array holding ``cells``:
        a compile-time index array picks them out of their :meth:`pool`
        unless they already are the pool (or a slice of one source) in
        order."""
        parts, operands, index, size = self.pool(cells, shape)
        pool = self.concat(parts)
        lo, hi = index[0], index[0] + len(index)
        if index == list(range(lo, hi)):
            if hi - lo == size:
                return pool, operands
            if len(parts) == 1:
                return f"{pool}[{lo}:{hi}]", operands
        return f"{pool}[%s]", operands + (self.index_const(index),)

    def stacked_operand(self, units: List[_Unit], expr: _Expr) -> str:
        """Name a gathered operand, reusing an identical earlier gather."""
        name = self._gathered.get(expr)
        if name is None:
            name = self._gathered[expr] = self.temp()
            units.append(_assign(name, expr))
        return name

    @staticmethod
    def is_gather(node: Tensor) -> bool:
        """A ``stack`` along axis 0 is a gather of its parts' cells."""
        return node.op == "stack" and node.op_ctx[0] in (0, -node.data.ndim)

    def row_names(self, node: Tensor) -> List[_Unit]:
        """Name the stacked rows a lone node reads (one ``t = s[r]`` each)."""
        units = []
        for parent in node.parents:
            if id(parent) in self.names or id(parent) not in self.dynamic:
                continue
            box, row = self.where[id(parent)]
            name = self.temp()
            self.names[id(parent)] = name
            units.append(_assign(name, (f"%s[{row}]", (box.var,))))
        return units

    def group_forward(self, box: _Box) -> List[_Unit]:
        """Units computing a group's stacked value into ``box.var``."""
        members = box.members
        rep, n = members[0], len(members)
        op = self.op_of(rep)
        shape = rep.data.shape
        elementwise = op in self._ELEMENTWISE
        units: List[_Unit] = []
        if op == "getitem":
            index, parent = rep.op_ctx[0], rep.parents[0]
            columns = self.int_columns([m.op_ctx[0] for m in members])
            cells = [self.cell(m.parents[0]) for m in members]
            if all(c == cells[0] for c in cells):
                _, src, operands = self.as_expr(cells[0])
                view = self.int_view(index, parent.data.ndim) % src
            else:
                # several sources: index their pool by (source row, cells)
                parts, operands, rows, _ = self.pool(cells, parent.data.shape)
                operands = (self.stacked_operand(units, (self.concat(parts), operands)),)
                columns = (self.index_const(rows),) + columns
                view = self.int_view(index, parent.data.ndim, lead=1)
            slots = ", ".join(["%s"] * len(columns))
            units.append(_assign(box.var, (f"{view}[{slots}]", operands + columns)))
            return units

        def same(datas):
            return all(d.shape == datas[0].shape and d.dtype == datas[0].dtype
                       and d.tobytes() == datas[0].tobytes() for d in datas)

        p: List[str] = []
        stacked = False
        for j, parent in enumerate(rep.parents):
            column = [m.parents[j] for m in members]
            if id(parent) in self.dynamic:
                cells = [self.cell(q) for q in column]
                if elementwise and cells[0][0] == "name" and all(c == cells[0] for c in cells):
                    p.append(cells[0][1])       # one shared value: broadcasts
                    continue
                name = self.stacked_operand(units, self.gather(cells, parent.data.shape))
            else:
                datas = [q.data for q in column]
                if elementwise and same(datas):
                    p.append(self.const(datas[0]))
                    continue
                name = self.const(np.stack([np.broadcast_to(d, shape if elementwise
                                                            else d.shape) for d in datas]))
            p.append(name)
            stacked = True
        if op == "where":
            conds = [m.op_ctx[0] for m in members]
            if same(conds):
                box.cond = self.const(conds[0])
            else:
                box.cond = self.const(np.stack([np.broadcast_to(c, shape) for c in conds]))
                stacked = True
        if elementwise and not stacked:
            # every member computes the same value: stack one operand so the
            # result still carries the member axis
            j = next(j for j, q in enumerate(rep.parents) if id(q) in self.dynamic)
            name = self.temp()
            units.append(_assign(name, (f"np.full({_lit((n,) + shape)}, %s)", (p[j],))))
            p[j] = name
        box.p = tuple(p)
        if elementwise:
            units.append(self.forward_unit(rep, box.var, p=box.p, cond=box.cond))
            return units
        ctx = rep.op_ctx
        if op in ("sum", "mean", "logsumexp"):
            axis = _lit(self.shifted(ctx[0], rep.parents[0].data.ndim))
            fn = {"sum": "np.add.reduce", "mean": "np.mean", "logsumexp": "lse"}[op]
            expr = (f"{fn}(%s, axis={axis}, keepdims={_lit(ctx[1])})", box.p)
        elif op == "reshape":
            expr = (f"np.reshape(%s, {_lit((n,) + tuple(ctx[0]))})", box.p)
        else:  # stack
            slots = ", ".join(["%s"] * len(box.p))
            expr = (f"np.stack([{slots}], axis={ctx[0] % len(shape) + 1})", box.p)
        units.append(_assign(box.var, expr))
        return units

    def group_vjp(self, box: _Box, pos: int) -> Tuple[List[_Stmt], _Expr]:
        """The stacked VJP of a group w.r.t. operand ``pos``: row ``r`` is
        member ``r``'s contribution, exactly as its scalar VJP computes it."""
        rep, n = box.members[0], len(box.members)
        op = self.op_of(rep)
        ctx = rep.op_ctx
        g = box.gvar
        parent = rep.parents[pos]
        nd = parent.data.ndim
        pshape = (n,) + parent.data.shape
        if op in self._ELEMENTWISE:
            return self.backward_exprs(rep, pos, g, p=box.p, v=box.var, cond=box.cond)
        if op in ("sum", "mean"):
            axis, keepdims = ctx[0], ctx[1]
            inner = "%s" if op == "sum" else f"(%s / {ctx[2]})"
            if not keepdims:
                inner = (f"np.reshape({inner}, {_lit((n,) + (1,) * nd)})" if axis is None
                         else f"np.expand_dims({inner}, {_lit(self.shifted(axis, nd))})")
            return [], (f"np.full({_lit(pshape)}, {inner})", (g,))
        if op == "logsumexp":
            axis, keepdims = ctx
            x, v = box.p[0], box.var
            if keepdims:
                return [], ("(%s * np.exp(%s - %s))", (g, x, v))
            if axis is None:
                s = _lit((n,) + (1,) * nd)
                return [], (f"(np.reshape(%s, {s}) * np.exp(%s - np.reshape(%s, {s})))",
                            (g, x, v))
            ax = _lit(self.shifted(axis, nd))
            return [], (f"(np.expand_dims(%s, {ax}) * "
                        f"np.exp(%s - np.expand_dims(%s, {ax})))", (g, x, v))
        if op == "reshape":
            return [], (f"np.reshape(%s, {_lit(pshape)})", (g,))
        if op == "stack":
            return [], (f"np.take(%s, {pos}, axis={ctx[0] % rep.data.ndim + 1})", (g,))
        # getitem: row ``r`` is what member ``r`` stores at the cells it
        # read, in an otherwise zero array (``np.add.at`` on zeros stores
        # ``0.0 + g``); the parent adds it with :meth:`scatter`
        return [], ("(0.0 + %s)", (g,))

    # -- reverse-program streams ----------------------------------------
    @staticmethod
    def as_expr(cell: tuple) -> Tuple[List[_Stmt], str, Tuple[str, ...]]:
        """A contribution cell as ``(statements, template, operands)``."""
        if cell[0] == "expr":
            return list(cell[1]), cell[2], cell[3]
        if cell[0] == "row":
            return [], f"%s[{cell[2]}]", (cell[1],)
        return [], "%s", (cell[1],)

    def materialize(self, units: List[_Unit], cell: tuple) -> tuple:
        """A contribution as a whole name or stacked row: an expression is
        assigned to a temporary first."""
        if cell[0] != "expr":
            return cell
        stmts, template, operands = self.as_expr(cell)
        name = self.temp()
        units.append(_Unit(name, stmts + [_Stmt(name, template, operands)],
                           inlinable=not stmts))
        return ("name", name)

    def accumulate(self, gvar: str, streams: List[List[tuple]],
                   shape: Tuple[int, ...], stacked: bool) -> List[_Unit]:
        """Units folding each member's contribution stream into ``gvar``.

        ``streams[r]`` holds member ``r``'s contributions in the
        interpreter's accumulation order.  A lone node's stream folds as in
        :meth:`fold`.  A group's streams are gathered into one array and
        folded left to right by ``np.add.accumulate`` along axis 0; members
        with shorter streams are padded at the end with ``-0.0``, the exact
        additive identity (``x + -0.0 == x`` bitwise, signed zeros
        included).  Where that array would pass :data:`MAX_STACKED_CELLS`,
        or a stream holds ``getitem`` cells, each member's stream folds
        alone and the results are stacked.
        """
        if not stacked:
            return self.fold(gvar, streams[0], shape)
        units: List[_Unit] = []
        depth = max(len(stream) for stream in streams)
        if (any(cell[0] == "cell" for stream in streams for cell in stream)
                or (depth > 1 and depth * len(streams) * math.prod(shape) > MAX_STACKED_CELLS)):
            names = [("name", self.temp()) for _ in streams]
            for (_, name), stream in zip(names, streams):
                units.extend(self.fold(name, stream, shape))
            units.append(_assign(gvar, self.gather(names, shape)))
            return units
        streams = [[self.materialize(units, cell) for cell in stream] for stream in streams]
        if depth == 1:
            units.append(_assign(gvar, self.gather([s[0] for s in streams], shape)))
            return units
        pad = ("const", np.full(shape, -0.0))
        template, operands = self.gather(
            [stream[i] if i < len(stream) else pad
             for i in range(depth) for stream in streams], shape)
        template = f"np.reshape({template}, {_lit((depth, len(streams)) + shape)})"
        units.append(_assign(gvar, (f"np.add.accumulate({template}, axis=0)[-1]",
                                    operands)))
        return units

    def fold(self, gvar: str, stream: List[tuple], shape: Tuple[int, ...]) -> List[_Unit]:
        """Units folding one value's contribution stream into ``gvar``.

        Each maximal run of ``getitem`` cells (same int axes) adds in one
        :meth:`scatter`.  Any other run that is all per-op expressions,
        shorter than a fold (:data:`FOLD_MIN_TERMS`) or larger than
        :data:`MAX_STACKED_CELLS` accumulates with ``+`` as the per-op
        emitter always has (a stacked row enters as ``s[r]``); the rest is
        gathered, after the running sum, into one array folded left to
        right by ``np.add.accumulate`` along axis 0.
        """
        units: List[_Unit] = []
        started = False
        for axes, run in groupby(stream, key=lambda cell: cell[0] == "cell"
                                 and self.int_axes(cell[4])):
            run = list(run)
            terms = len(run) + started
            if axes:
                units.append(self.scatter(gvar, run, shape, started))
            elif (terms < FOLD_MIN_TERMS or terms * math.prod(shape) > MAX_STACKED_CELLS
                  or all(cell[0] != "row" for cell in run)):
                for cell in run:
                    stmts, template, operands = self.as_expr(cell)
                    if started:
                        stmts.append(_Stmt(gvar, "%s + " + template, (gvar,) + operands))
                    else:
                        stmts.append(_Stmt(gvar, template, operands))
                    units.append(_Unit(gvar, stmts, inlinable=not started and len(stmts) == 1))
                    started = True
            else:
                cells = [("name", gvar)] * started + [self.materialize(units, cell)
                                                      for cell in run]
                template, operands = self.gather(cells, shape)
                units.append(_assign(gvar, (f"np.add.accumulate({template}, axis=0)[-1]",
                                            operands)))
            started = True
        return units

    def scatter(self, gvar: str, run: List[tuple], shape: Tuple[int, ...],
                started: bool) -> _Unit:
        """One unit adding a run of ``getitem`` cells to ``gvar``.

        Cell ``("cell", s, r, n, index)`` is a zero array holding row ``r``
        of ``s`` at the cells the basic ``index`` read, and that row is
        ``0.0 + g``, never ``-0.0``.  Adding ``+0.0`` changes only a
        ``-0.0``, and no partial sum after a stored value is ``-0.0``, so
        folding the run into ``gvar`` is ``gvar + 0.0`` and then adding
        each stored row at its cells in run order: one unbuffered
        ``np.add.at``, which adds a cell read twice twice, in order.  A run
        that starts the stream adds into zeros.
        """
        index = run[0][4]
        axes = self.int_axes(index)
        columns = self.int_columns([cell[4] for cell in run])
        rows, operands = self.gather([("row",) + cell[1:4] for cell in run],
                                     tuple(d for a, d in enumerate(shape) if a not in axes))
        slots = ", ".join(["%s"] * len(columns))
        return _Unit(gvar, [
            _Stmt(gvar, "%s + 0.0", (gvar,)) if started
            else _Stmt(gvar, f"np.zeros({_lit(shape)})", ()),
            _Stmt(None, f"np.add.at({self.int_view(index, len(shape))}, ({slots},), {rows})",
                  (gvar,) + columns + operands)], inlinable=False)


# ----------------------------------------------------------------------
# the superword pass: folds, levels, groups
# ----------------------------------------------------------------------
#: how many scalar ops an array op must replace to pay for assembling its
#: operand array: a single-use ``add`` chain of at least this many terms
#: collapses into one ``np.add.accumulate`` fold (shorter chains stay ``+``
#: expressions whose links may stack like any other node), a smaller group
#: must share or stack one of its operands, and a shorter gradient stream
#: into a lone node accumulates with ``+``.
FOLD_MIN_TERMS = 8

#: element cap of the array one gradient's contributions are gathered into
#: for an ``np.add.accumulate`` fold (streams × members × value size);
#: past it, each member's stream folds with ``+``.
MAX_STACKED_CELLS = 1 << 20


class _Box:
    """One forward computation of the program.

    ``kind`` is ``"node"`` (one recorded node, rendered by the per-op
    emitter), ``"group"`` (isomorphic, mutually independent nodes computed
    by one stacked op; member ``r`` is row ``r`` of ``var``) or ``"fold"``
    (a collapsed single-use ``add`` chain: ``base + terms[0] + ...`` as one
    strict left fold).  ``members`` are the recorded nodes the box computes
    (a fold's is the chain's last ``add``); ``links`` are a fold's ``add``
    nodes, first to last.
    """

    __slots__ = ("kind", "members", "first", "var", "gvar", "links", "p", "cond")

    def __init__(self, kind: str, members: List[Tensor], first: int,
                 links: Sequence[Tensor] = ()):
        self.kind = kind
        self.members = members
        self.first = first            # schedule position, the emission tie-break
        self.links = list(links)
        self.var = self.gvar = ""
        self.p: Tuple[str, ...] = ()  # a group's stacked operand names
        self.cond: Optional[str] = None

    @property
    def operands(self) -> List[Tensor]:
        """A fold's summands, in order: the base, then one term per link."""
        return [self.links[0].parents[0]] + [a.parents[1] for a in self.links]


def _plan(low: "_Lowering", sched: List[Tensor]) -> List[_Box]:
    """Partition the dynamic nodes into boxes, in a valid emission order.

    Nodes group when they share a level and a stacking signature
    (:meth:`_Lowering.signature`).  The level is the ASAP depth from the
    input, except for a node all of whose paths to the output run through
    one term of a fold: it counts back from that fold instead, so terms of
    unequal depth (a recurrence's per-step likelihoods) still line up.
    Nodes of one level never depend on each other, so each group is a set
    of independent computations.

    A fold is a maximal single-use ``add`` chain ``((base + t1) + t2) + ...``
    of at least :data:`FOLD_MIN_TERMS` terms: each link adds a term to the
    previous link, which it alone consumes, and operands and result share
    one shape, so the chain is a strict left fold.
    """
    n = len(sched)
    pos = {id(node): i for i, node in enumerate(sched)}
    pos[id(low.root)] = n
    out_i = pos[id(low.out)]
    # operand indices into ``sched`` (n: the input, -1: a constant)
    operands = [[pos.get(id(p), -1) for p in node.parents] for node in sched]
    users: List[List[Tuple[int, int]]] = [[] for _ in range(n + 1)]
    for i, ops_i in enumerate(operands):
        for j, p in enumerate(ops_i):
            if p >= 0:
                users[p].append((i, j))

    adds = [node.op == "add" and all(p.data.shape == node.data.shape
                                     for p in node.parents) for node in sched]
    prev: Dict[int, int] = {}
    for i in range(n):
        head = operands[i][0] if adds[i] else -1
        if 0 <= head < n and head != out_i and adds[head] and len(users[head]) == 1:
            prev[i] = head
    inner = set(prev.values())
    chains: List[List[int]] = []
    for i in range(n):
        if i in prev and i not in inner:
            chain = [i]
            while chain[-1] in prev:
                chain.append(prev[chain[-1]])
            if len(chain) >= FOLD_MIN_TERMS:
                chains.append(chain[::-1])
    link_of = {a: (k, t) for k, chain in enumerate(chains) for t, a in enumerate(chain)}

    asap = [0] * (n + 1)
    for i, ops_i in enumerate(operands):
        asap[i] = 1 + max([asap[p] for p in ops_i if p >= 0], default=0)
    owner: List[Optional[Tuple[int, int]]] = [None] * n   # (chain, term)
    depth = [0] * n                                       # back to the fold
    for i in range(n - 1 if chains else -1, -1, -1):
        if i in link_of or i == out_i or not users[i]:
            continue
        mine, d = None, 0
        for u, j in users[i]:
            if u in link_of:
                k, t = link_of[u]
                term, du = (k, t + 1 if j == 1 else 0), 1
            else:
                term, du = owner[u], depth[u] + 1
            if term is None or (mine is not None and term != mine):
                mine = None
                break
            mine, d = term, max(d, du)
        owner[i], depth[i] = mine, d
    buckets: Dict[Any, List[int]] = {}
    for i, node in enumerate(sched):
        if i == out_i or i in link_of:
            continue
        sig = low.signature(node)
        if sig is not None:
            level = (owner[i][0], depth[i]) if owner[i] else asap[i]
            buckets.setdefault((level, sig), []).append(i)
    # A small group whose every operand is gathered from scattered lone
    # values costs more than the scalar ops it replaces; keep it only when
    # some operand is shared by all members or comes from other groups.
    kept = [members for members in buckets.values() if len(members) > 1]
    while True:
        stacked = {i for members in kept for i in members}
        keep = [members for members in kept if len(members) >= FOLD_MIN_TERMS
                or any(column[0] >= 0 and (len(set(column)) == 1
                                           or stacked.issuperset(column))
                       for column in zip(*(operands[i] for i in members)))]
        if len(keep) == len(kept):
            break
        kept = keep

    boxes: List[_Box] = []
    box_of = [-1] * n
    where: Dict[int, Tuple[_Box, Optional[int]]] = {}
    for members in kept:
        box = _Box("group", [sched[i] for i in members], members[0])
        for row, i in enumerate(members):
            box_of[i] = len(boxes)
            where[id(sched[i])] = (box, row)
        boxes.append(box)
    for chain in chains:
        box = _Box("fold", [sched[chain[-1]]], chain[-1],
                   links=[sched[i] for i in chain])
        for i in chain:
            box_of[i] = len(boxes)
        where[id(sched[chain[-1]])] = (box, None)
        boxes.append(box)
    for i, node in enumerate(sched):
        if box_of[i] < 0:
            box_of[i] = len(boxes)
            where[id(node)] = (_Box("node", [node], i), None)
            boxes.append(where[id(node)][0])
    low.where = where

    # emission order: dependencies first, ties by schedule position
    pending = [0] * len(boxes)
    after: List[List[int]] = [[] for _ in boxes]
    for b, box in enumerate(boxes):
        nodes = box.links if box.kind == "fold" else box.members
        needs = {box_of[p] for i in (pos[id(m)] for m in nodes)
                 for p in operands[i] if 0 <= p < n}
        needs.discard(b)
        pending[b] = len(needs)
        for dep in needs:
            after[dep].append(b)
    ready = [(box.first, b) for b, box in enumerate(boxes) if not pending[b]]
    heapq.heapify(ready)
    order: List[_Box] = []
    while ready:
        _, b = heapq.heappop(ready)
        order.append(boxes[b])
        for user in after[b]:
            pending[user] -= 1
            if not pending[user]:
                heapq.heappush(ready, (boxes[user].first, user))
    if len(order) != len(boxes):  # pragma: no cover - levels rule out cycles
        raise TapeCompilationError("the stacked program schedule is cyclic")
    return order


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
                 backward_lines=result.stats.backward_lines,
                 groups=result.stats.groups,
                 grouped=result.stats.grouped)
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
    boxes = _plan(low, dynamic_sched)
    pos = {id(node): i for i, node in enumerate(dynamic_sched)}
    for k, box in enumerate(boxes):
        if box.kind == "group":
            box.var, box.gvar = f"vs{k}", f"gs{k}"
        else:
            i = pos[id(box.members[0])]
            box.var, box.gvar = f"v{i}", f"g{i}"
            low.names[id(box.members[0])] = box.var

    # ---- forward program ------------------------------------------------
    forward_units: List[_Unit] = []
    for box in boxes:
        if box.kind == "node" and low.is_gather(box.members[0]):
            node = box.members[0]
            forward_units.append(_assign(box.var, low.gather(
                [low.cell(p) for p in node.parents], node.parents[0].data.shape)))
        elif box.kind == "node":
            node = box.members[0]
            forward_units.extend(low.row_names(node))
            forward_units.append(low.forward_unit(node, box.var))
        elif box.kind == "group":
            forward_units.extend(low.group_forward(box))
        else:
            template, operands = low.gather([low.cell(p) for p in box.operands],
                                            box.members[0].data.shape)
            forward_units.append(_assign(box.var, (
                f"np.add.accumulate({template}, axis=0)[-1]", operands)))

    # ---- backward program -----------------------------------------------
    # Every contribution to a parent's gradient is keyed by the consumer's
    # position in the interpreter's traversal (then the operand position),
    # so each gradient accumulates in the interpreter's exact order however
    # its consumers were grouped.
    oidx = {id(node): i for i, node in enumerate(low.order)}
    contribs: Dict[int, List[Tuple[Tuple[int, int], tuple]]] = {}

    def push(parent: Tensor, key: Tuple[int, int], cell: tuple) -> None:
        contribs.setdefault(id(parent), []).append((key, cell))

    def stream(node: Tensor) -> List[tuple]:
        cells = sorted(contribs.pop(id(node), ()), key=lambda kc: kc[0])
        # a bare gradient name (a fold's, or an ``add``'s) is a whole value
        return [("name", c[3][0]) if c[0] == "expr" and not c[1] and c[2] == "%s"
                else c for _, c in cells]

    # a scalar output's seed is one baked ``np.float64``: immutable, so no
    # alias of it can be written in place
    out_box = low.where[id(out)][0]
    backward_units: List[_Unit] = [_assign(out_box.gvar, (
        ("%s", (low.const(np.float64(1.0)),)) if not out.data.shape
        else (f"np.ones({_lit(tuple(out.data.shape))})", ())))]
    with np.errstate(all="ignore"):
        for box in reversed(boxes):
            if box is not out_box:
                backward_units.extend(low.accumulate(
                    box.gvar, [stream(m) for m in box.members],
                    box.members[0].data.shape, stacked=box.kind == "group"))
            if box.kind == "node" and low.is_gather(box.members[0]):
                # ``np.take(g, j, axis=0)`` is row ``j`` of the gradient
                node = box.members[0]
                for j, parent in enumerate(node.parents):
                    if id(parent) in low.dynamic:
                        push(parent, (oidx[id(node)], j),
                             ("row", box.gvar, j, len(node.parents)))
            elif box.kind == "node":
                node = box.members[0]
                for j, (parent, bfn) in enumerate(zip(node.parents, node.backward_fns)):
                    if id(parent) not in low.dynamic:
                        continue                    # dead gradient: eliminated
                    stmts, (template, operands) = low.backward_exprs(node, j, box.gvar)
                    # static unbroadcast: the traced shapes fix its reductions
                    shape = low.contrib_shape(node, bfn, parent)
                    if shape != parent.data.shape:
                        template = low.reduced(template, shape, parent.data.shape)
                    push(parent, (oidx[id(node)], j), ("expr", stmts, template, operands))
            elif box.kind == "group":
                rep, n = box.members[0], len(box.members)
                getitem = low.op_of(rep) == "getitem"
                for j, parent in enumerate(rep.parents):
                    if id(parent) not in low.dynamic:
                        continue
                    stmts, expr = low.group_vjp(box, j)
                    name = low.temp()
                    backward_units.append(_Unit(name, stmts + [_Stmt(name, *expr)],
                                                inlinable=not stmts))
                    for r, m in enumerate(box.members):
                        # a read's contribution: row r at the cells it read
                        cell = (("cell", name, r, n, m.op_ctx[0]) if getitem
                                else ("row", name, r, n))
                        push(m.parents[j], (oidx[id(m)], j), cell)
            else:
                # every link of a fold passes its gradient through unchanged
                for i, link in enumerate(box.links):
                    for j in ((0, 1) if i == 0 else (1,)):
                        if id(link.parents[j]) in low.dynamic:
                            push(link.parents[j], (oidx[id(link)], j),
                                 ("name", box.gvar))
    # The input gradient.  When every contribution is a lone read of cells
    # no other read shares, each read stores its ``0.0 + g`` into one zero
    # array: ``np.add.at`` on zeros stores the same ``0.0 + g``, which is
    # never ``-0.0``, so the ``+ 0.0`` of every fold it skips is the identity.
    readers = [low.order[key[0]] for key, _ in sorted(contribs.get(id(root), ()),
                                                      key=lambda kc: kc[0])]
    if readers and low.disjoint_reads(readers, z0.shape):
        del contribs[id(root)]
        stores = [_Stmt("grad", "0.0 + %s", (low.where[id(node)][0].gvar,),
                        index=low.const(node.op_ctx[0])) for node in readers]
        backward_units.append(_Unit("grad", [_Stmt("grad", f"np.zeros({_lit(z0.shape)})", ())]
                                    + stores, inlinable=False))
    else:
        root_stream = stream(root)
        if root_stream:
            backward_units.extend(low.accumulate("gz", [root_stream], z0.shape, False))
        backward_units.append(_assign(
            "grad", ("np.zeros_like(%s) + %s", ("z", "gz")) if root_stream
            else ("np.zeros_like(%s)", ("z",)), inlinable=False))
    if contribs:  # pragma: no cover - emitter bug guard
        raise TapeCompilationError("gradient contributions left unaccumulated")

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

    stacked = [box for box in boxes if box.kind != "node"]
    stats = TapeStats(
        recorded=len(recorded),
        reachable=len(low.order),
        dynamic=len(dynamic_sched),
        folded=len(low._baked),
        fused=fused_vg,
        forward_lines=len(forward_units),
        backward_lines=len(backward_units),
        groups=len(stacked),
        grouped=sum(len(box.links) or len(box.members) for box in stacked),
    )
    return CompiledTape(
        signature=(z0.shape, z0.dtype.str),
        stats=stats,
        source=vg_source + "\n" + val_source,
        _vg_fn=namespace["_tape_vg"],
        _val_fn=namespace["_tape_val"],
        _consts=tuple(low.consts),
    )
