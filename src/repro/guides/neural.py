"""Amortized (neural) autoguide: an MLP maps observed data to a guide.

"Inference Compilation and Universal Probabilistic Programming" (Le et al.,
2016) motivates amortizing posterior inference in a neural network trained
against the generative model.  :class:`AutoNeural` is the light-weight member
of that family for the autoguide subsystem: a :class:`repro.autodiff.nn.MLP`
consumes the model's flattened observed data (``Potential.observed_vector``)
and emits the mean and scale of a diagonal Gaussian over the unconstrained
latents.  The variational parameters are the network weights, optimised with
the generic pathwise estimator of :class:`~repro.guides.base.AutoGuide` — the
batched model gradient is pushed backwards through the sampling graph into the
MLP.

The output layer is zero-initialised, so before training the guide is a
data-independent Gaussian (``loc = 0``, ``scale = softplus(-1)``), mirroring
the initialisation of the other Gaussian families.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.autodiff import nn, ops
from repro.autodiff.tensor import Tensor, as_tensor, no_grad
from repro.guides.base import AutoGuide, register_autoguide
from repro.ppl.transforms import SoftplusTransform

_LOG_2PI = math.log(2.0 * math.pi)


class AutoNeural(AutoGuide):
    """Diagonal Gaussian guide whose moments are produced by an MLP."""

    guide_name = "auto_neural"
    # Network gradients occasionally spike early in training (the model term
    # is unbounded while the output layer leaves zero); a global-norm clip
    # keeps the default VI learning rate usable, and multi-particle ELBOs
    # (cheap through the batched tape) tame the pathwise gradient noise.
    grad_clip = 10.0
    default_num_particles = 8
    default_learning_rate = 0.02

    def __init__(self, hidden: Sequence[int] = (32,), activation: str = "tanh",
                 init_seed: int = 0):
        super().__init__()
        self.hidden = tuple(hidden)
        self.activation = activation
        self.init_seed = init_seed
        self._softplus = SoftplusTransform()

    @staticmethod
    def _features(potential) -> np.ndarray:
        x = np.asarray(potential.observed_vector(), dtype=float)
        # Standardise the network input — raw observations at data scale
        # saturate the first activation and destabilise early optimisation —
        # but keep the removed location/scale as explicit (log-compressed)
        # features so datasets differing only by a shift stay distinguishable.
        loc, spread = float(x.mean()), float(x.std())
        if spread > 0:
            x = (x - loc) / spread
        extras = np.array([np.sign(loc) * np.log1p(abs(loc)), np.log1p(spread)])
        return np.concatenate([x, extras]).reshape(1, -1)

    def _build(self, potential) -> None:
        self._x = self._features(potential)
        sizes = [self._x.shape[1], *self.hidden, 2 * potential.dim]
        self.net = nn.MLP(sizes, activation=self.activation,
                          rng=np.random.default_rng(self.init_seed),
                          zero_init_last=True)

    def _rebind(self, potential) -> None:
        # Warm starts must re-condition on the *new* data — the whole point of
        # an amortized guide — so the feature vector is recomputed here.
        x = self._features(potential)
        if x.shape != self._x.shape:
            from repro.guides.base import GuideSetupError

            raise GuideSetupError(
                f"AutoNeural was built for {self._x.shape[1]} observed features, "
                f"cannot re-bind to {x.shape[1]}")
        self._x = x

    def parameters(self) -> List[Tensor]:
        return self.net.parameters()

    # ------------------------------------------------------------------
    def _forward(self) -> Tuple[Tensor, Tensor]:
        """Differentiable ``(loc, scale)`` tensors of shape ``(dim,)``."""
        out = self.net(as_tensor(self._x))          # (1, 2*dim)
        flat = ops.reshape(out, (2 * self.dim,))
        loc = ops.getitem(flat, slice(0, self.dim))
        raw = ops.getitem(flat, slice(self.dim, 2 * self.dim))
        # Shift so the zero-initialised output layer starts at scale
        # softplus(-1) ~ 0.31, close to the e^-1 of the other families.
        scale = self._softplus(ops.sub(raw, 1.0))
        return loc, scale

    def sample_with_entropy(self, rng, num_particles: int) -> Tuple[Tensor, Tensor]:
        self._require_setup()
        loc, scale = self._forward()
        eps = rng.standard_normal((num_particles, self.dim))
        z = ops.add(loc, ops.mul(scale, eps))
        entropy = ops.sum_(ops.log(scale))
        return z, entropy

    # ------------------------------------------------------------------
    def _moments(self) -> Tuple[np.ndarray, np.ndarray]:
        with no_grad():
            loc, scale = self._forward()
        return np.asarray(loc.data, dtype=float), np.asarray(scale.data, dtype=float)

    # ------------------------------------------------------------------
    # the amortized serving surface
    # ------------------------------------------------------------------
    @classmethod
    def features_for(cls, potential) -> np.ndarray:
        """The ``(1, F)`` feature row this guide would condition on.

        The serving layer (:mod:`repro.serve`) computes features per query
        and stacks them into one batch, so the feature recipe is public API:
        it must match what :meth:`setup`/re-binding feed the network.
        """
        return cls._features(potential)

    def batched_moments(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Guide moments for a ``(B, F)`` stack of feature rows (no grad).

        One MLP forward over the whole stack — the serving micro-batcher's
        fused path.  Row ``i`` of the returned ``(B, dim)`` ``loc``/``scale``
        uses exactly the arithmetic of :meth:`_forward` on row ``i`` alone
        (same ops, same softplus shift); whether the stacked matmul is
        *bitwise* identical to the single-row one is validated by the caller
        (:class:`repro.serve.batcher.MicroBatcher`), not assumed here.
        """
        self._require_setup()
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self._x.shape[1]:
            raise ValueError(
                f"expected feature rows of width {self._x.shape[1]}, "
                f"got {x.shape[1]}")
        with no_grad():
            out = self.net(as_tensor(x))        # (B, 2*dim)
            loc = ops.getitem(out, (slice(None), slice(0, self.dim)))
            raw = ops.getitem(out, (slice(None), slice(self.dim, 2 * self.dim)))
            scale = self._softplus(ops.sub(raw, 1.0))
        return (np.asarray(loc.data, dtype=float),
                np.asarray(scale.data, dtype=float))

    def sample_unconstrained(self, rng, num_samples: int) -> np.ndarray:
        self._require_setup()
        loc, scale = self._moments()
        return loc + scale * rng.standard_normal((num_samples, self.dim))

    def log_density(self, z: np.ndarray) -> np.ndarray:
        self._require_setup()
        z = np.atleast_2d(np.asarray(z, dtype=float))
        loc, scale = self._moments()
        resid = (z - loc) / scale
        return (-0.5 * np.sum(resid * resid, axis=-1)
                - float(np.sum(np.log(scale)))
                - 0.5 * self.dim * _LOG_2PI)


register_autoguide(AutoNeural, "auto_neural")
