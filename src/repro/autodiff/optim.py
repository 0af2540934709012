"""The Adam optimiser of trace-based SVI.

It operates on a list of :class:`~repro.autodiff.tensor.Tensor` parameters:
after ``loss.backward()`` has populated ``.grad`` fields, calling ``step()``
updates parameter data in place and ``zero_grad()`` clears gradients for the
next iteration, following the PyTorch optimiser protocol that Pyro's SVI
loop assumes.  (The autoguide engine :class:`~repro.infer.vi.VI` keeps its
own Adam, written in the arithmetic of the historical ADVI loop.)
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.autodiff.tensor import Tensor


class Adam:
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t: Dict[int, int] = {}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def add_param(self, param: Tensor) -> None:
        """Register a parameter created lazily (e.g. by a ``param`` site)."""
        if all(param is not p for p in self.params):
            self.params.append(param)

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                continue
            key = id(p)
            m = self._m.get(key)
            v = self._v.get(key)
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            t = self._t.get(key, 0) + 1
            m = self.beta1 * m + (1 - self.beta1) * p.grad
            v = self.beta2 * v + (1 - self.beta2) * (p.grad * p.grad)
            m_hat = m / (1 - self.beta1 ** t)
            v_hat = v / (1 - self.beta2 ** t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            self._m[key] = m
            self._v[key] = v
            self._t[key] = t
