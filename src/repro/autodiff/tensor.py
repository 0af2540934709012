"""The :class:`Tensor` class: a NumPy array with a recorded computation graph.

The design follows the classic reverse-mode tape approach: every operation
returns a new :class:`Tensor` holding references to its parent tensors and a
list of backward closures, one per parent, mapping the upstream gradient to
the contribution for that parent.  Calling :meth:`Tensor.backward` performs a
topological sort of the graph and accumulates gradients into ``.grad``.

Broadcasting is handled uniformly by :func:`unbroadcast`, which sums the
upstream gradient over broadcast dimensions so that ``parent.grad`` always has
the parent's shape.
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[float, int, bool, list, tuple, np.ndarray, "Tensor"]

_GRAD_ENABLED = [True]


def is_grad_enabled() -> bool:
    """Return whether operations currently record the computation graph."""
    return _GRAD_ENABLED[-1]


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (like ``torch.no_grad``)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    NumPy broadcasting may have expanded a parent of shape ``shape`` up to the
    shape of ``grad``; the adjoint of broadcasting is summation over the
    broadcast axes.
    """
    grad = np.asarray(grad, dtype=float)
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A differentiable array.

    Parameters
    ----------
    data:
        Anything convertible to a ``float`` NumPy array.
    requires_grad:
        If ``True`` the tensor is a leaf with respect to which gradients are
        requested.
    parents:
        The tensors this node was computed from (internal).
    backward_fns:
        One closure per parent mapping the upstream gradient (an ``ndarray``
        with this node's shape) to the gradient contribution for that parent
        (internal).
    name:
        Optional debugging name.
    """

    # ``is_batched`` marks tensors that carry a leading chain axis during
    # vectorized multi-chain evaluation (see repro.infer.potential).  The slot
    # is left unassigned unless a batched evaluation sets it, so ordinary
    # tensors pay no cost: read it with ``getattr(t, "is_batched", False)``.
    # ``enum_elements`` marks an enumerated array-site value whose elements
    # are represented by distinct leaf tensors (the enumeration engine's
    # dependency-analysis substitution; see repro.enum.factorize):
    # the runtime's ``_index`` helper returns the per-element leaf so the
    # autodiff graph records *which element* each log-prob term touched.
    # ``op``/``op_ctx`` are set only while the tape compiler's tracing sink is
    # active (see repro.autodiff.compile): the op name and its static
    # parameters, enough to re-emit the node as a line of generated code.
    __slots__ = ("data", "requires_grad", "grad", "parents", "backward_fns", "name",
                 "is_batched", "enum_elements", "op", "op_ctx")

    __array_priority__ = 100.0  # make np_scalar * Tensor dispatch to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fns: Sequence[Callable[[np.ndarray], np.ndarray]] = (),
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=float)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        if is_grad_enabled():
            self.parents: Tuple["Tensor", ...] = tuple(parents)
            self.backward_fns: Tuple[Callable, ...] = tuple(backward_fns)
        else:
            self.parents = ()
            self.backward_fns = ()
        self.name = name

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        from repro.autodiff.ops import transpose

        return transpose(self)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a leaf tensor with copied data."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # autodiff
    # ------------------------------------------------------------------
    def _requires_graph(self) -> bool:
        # Iterative DAG walk with a visited set: graphs with heavy sharing
        # (e.g. an HMM forward recurrence) have exponentially many *paths*,
        # so the naive recursive any() is intractable on them.
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.requires_grad:
                return True
            stack.extend(node.parents)
        return False

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to 1 for scalar outputs.  Gradients are accumulated
        into the ``.grad`` attribute of every tensor in the graph that has
        ``requires_grad=True``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=float)

        order = _topological_order(self)
        grads = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad = node.grad + unbroadcast(node_grad, node.data.shape)
            for parent, fn in zip(node.parents, node.backward_fns):
                if fn is None:
                    continue
                contrib = fn(node_grad)
                if contrib is None:
                    continue
                contrib = unbroadcast(contrib, parent.data.shape)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contrib
                else:
                    grads[key] = contrib

    # ------------------------------------------------------------------
    # operator overloads (dispatch to repro.autodiff.ops)
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff.ops import add

        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff.ops import sub

        return sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff.ops import sub

        return sub(other, self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff.ops import mul

        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff.ops import div

        return div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff.ops import div

        return div(other, self)

    def __pow__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff.ops import pow_

        return pow_(self, other)

    def __rpow__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff.ops import pow_

        return pow_(other, self)

    def __neg__(self) -> "Tensor":
        from repro.autodiff.ops import neg

        return neg(self)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff.ops import matmul

        return matmul(self, other)

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff.ops import matmul

        return matmul(other, self)

    def __getitem__(self, idx) -> "Tensor":
        from repro.autodiff.ops import getitem

        return getitem(self, idx)

    # comparisons return plain boolean arrays (they are not differentiable)
    def __lt__(self, other: ArrayLike):
        return self.data < _raw(other)

    def __le__(self, other: ArrayLike):
        return self.data <= _raw(other)

    def __gt__(self, other: ArrayLike):
        return self.data > _raw(other)

    def __ge__(self, other: ArrayLike):
        return self.data >= _raw(other)

    def __eq__(self, other):  # type: ignore[override]
        return self.data == _raw(other)

    def __ne__(self, other):  # type: ignore[override]
        return self.data != _raw(other)

    def __hash__(self) -> int:  # identity hashing despite __eq__
        return id(self)

    def __float__(self) -> float:
        return float(self.data)

    def __int__(self) -> int:
        return int(self.data)

    def __bool__(self) -> bool:
        return bool(self.data)

    def __iter__(self):
        for i in range(self.shape[0]):
            yield self[i]

    # ------------------------------------------------------------------
    # convenience methods mirroring the ops module
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.autodiff.ops import sum_

        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.autodiff.ops import mean

        return mean(self, axis=axis, keepdims=keepdims)

    def exp(self) -> "Tensor":
        from repro.autodiff.ops import exp

        return exp(self)

    def log(self) -> "Tensor":
        from repro.autodiff.ops import log

        return log(self)

    def sqrt(self) -> "Tensor":
        from repro.autodiff.ops import sqrt

        return sqrt(self)

    def reshape(self, *shape) -> "Tensor":
        from repro.autodiff.ops import reshape

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def flatten(self) -> "Tensor":
        return self.reshape((-1,))


def _raw(x: ArrayLike) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x)


def as_tensor(x: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Coerce ``x`` to a :class:`Tensor` (no copy if already a tensor)."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x, requires_grad=requires_grad)


def _topological_order(root: Tensor) -> List[Tensor]:
    """Return nodes reachable from ``root`` in reverse topological order."""
    visited = set()
    order: List[Tensor] = []
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order
