"""Automatic guide generation: deriving variational families from a model.

"Automatic Guide Generation for Stan via NumPyro" (Baudart & Mandel, 2021)
observes that once a Stan program has been compiled to a generative function,
the latent structure needed to synthesise a guide — site names, shapes and the
bijections onto their supports — is exactly what the potential-function
extraction already computes.  An :class:`AutoGuide` therefore derives its
parameterisation from a fitted :class:`~repro.infer.potential.Potential`: it
owns variational parameters over the *flat unconstrained* vector ``z`` of
dimension ``potential.dim`` and relies on the potential's site table to map
guide draws back onto the constrained parameter space.

Guides interact with the :class:`~repro.infer.vi.VI` engine through one
method, :meth:`AutoGuide.elbo_and_grads`, which returns a Monte-Carlo ELBO
estimate and *descent* gradients (of the negative ELBO) for every variational
parameter.  Two implementation strategies coexist:

* Gaussian-family guides override it with closed-form reparameterised
  gradients evaluated in NumPy — the model term always flows through
  ``potential_and_grad_batched``, so a multi-particle ELBO costs a single
  batched tape with the particles riding the chain axis;
* structured guides (e.g. :class:`~repro.guides.neural.AutoNeural`) implement
  :meth:`AutoGuide.sample_with_entropy` instead and inherit the generic
  pathwise estimator, which backpropagates the batched model gradient through
  the guide's sampling graph.

ELBO convention: Gaussian entropies drop the additive constant
``dim/2 * log(2*pi*e)`` (matching the historical ADVI implementation), so
ELBO *histories* are comparable across Gaussian guide families but are offset
from ``E[log p] - E[log q]`` by that constant.  :meth:`log_density` is exact
(constants included) — the PSIS diagnostic depends on it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.autodiff.tensor import Tensor


class GuideSetupError(RuntimeError):
    """Raised when a guide cannot be derived for / re-bound to a potential."""


class AutoGuide:
    """Base class for automatically generated guides.

    Subclasses must implement :meth:`_build` (create variational parameters
    once the latent structure is known), :meth:`parameters`,
    :meth:`sample_unconstrained` and either :meth:`elbo_and_grads` (analytic
    path) or :meth:`sample_with_entropy` (generic pathwise path).
    """

    guide_name = "auto"
    #: whether :meth:`log_density` is defined (False for point-mass guides).
    has_density = True
    #: optional global gradient-norm clip applied by the VI engine; ``None``
    #: leaves gradients untouched (required for the bitwise-stable families).
    grad_clip = None
    #: ELBO particles the VI engine uses when the caller does not choose —
    #: noisy-gradient guides raise this (particles ride the chain axis of the
    #: batched tape, so extra particles are nearly free).
    default_num_particles = 1
    #: Adam step size the VI engine uses when the caller does not choose —
    #: families with stiffer gradients (neural networks) lower it.
    default_learning_rate = 0.05

    def __init__(self) -> None:
        self.potential = None
        self.dim: Optional[int] = None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def setup(self, potential) -> "AutoGuide":
        """Bind the guide to ``potential``, deriving parameters on first use.

        Re-binding to a potential of the same dimension keeps the fitted
        variational parameters (warm start); a dimension mismatch is an error.
        """
        if self.dim is not None:
            if potential.dim != self.dim:
                raise GuideSetupError(
                    f"guide was built for dim={self.dim}, cannot re-bind to "
                    f"dim={potential.dim}"
                )
            self.potential = potential
            self._rebind(potential)
            return self
        self.potential = potential
        self.dim = potential.dim
        self._build(potential)
        return self

    def _build(self, potential) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _rebind(self, potential) -> None:
        """Hook for warm-start rebinding: refresh any state derived from the
        potential beyond the variational parameters (e.g. the observed-data
        features of an amortized guide)."""

    def _require_setup(self) -> None:
        if self.dim is None:
            raise GuideSetupError("guide.setup(potential) must be called first")

    # ------------------------------------------------------------------
    # parameters and sampling
    # ------------------------------------------------------------------
    def parameters(self) -> List[Tensor]:  # pragma: no cover - abstract
        raise NotImplementedError

    def sample_unconstrained(self, rng: np.random.Generator,
                             num_samples: int) -> np.ndarray:
        """Draw ``(num_samples, dim)`` unconstrained samples (no gradients)."""
        raise NotImplementedError

    def log_density(self, z: np.ndarray) -> np.ndarray:
        """Exact per-row log density of the guide over unconstrained space."""
        raise NotImplementedError

    def sample_with_entropy(self, rng: np.random.Generator,
                            num_particles: int) -> Tuple[Tensor, Tensor]:
        """Differentiable draws ``(S, dim)`` plus the (shifted) entropy.

        Only needed by guides relying on the generic pathwise estimator; the
        returned tensors must be functions of :meth:`parameters`.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # the generic pathwise ELBO estimator
    # ------------------------------------------------------------------
    def elbo_and_grads(self, potential, rng: np.random.Generator,
                       num_particles: int) -> Tuple[float, List[np.ndarray]]:
        """ELBO estimate and descent gradients (of the negative ELBO).

        The default implementation samples through
        :meth:`sample_with_entropy`, evaluates all particles as one batch via
        ``potential_and_grad_batched`` and seeds the guide's reverse pass with
        the per-particle model gradients — the model itself is never re-taped
        through the guide graph.
        """
        self._require_setup()
        params = self.parameters()
        for p in params:
            p.zero_grad()
        z_t, entropy_t = self.sample_with_entropy(rng, num_particles)
        z = np.asarray(z_t.data, dtype=float)
        neg_logp, grad_z = potential.potential_and_grad_batched(z)
        elbo = float(np.mean(-neg_logp)) + float(np.asarray(entropy_t.data))
        # loss = mean(U(z)) - entropy ; dloss/dz per particle = grad_z / S.
        z_t.backward(grad_z / float(num_particles))
        entropy_t.backward(np.asarray(-1.0))
        grads = [np.array(p.grad) if p.grad is not None else np.zeros_like(p.data)
                 for p in params]
        return elbo, grads


# ----------------------------------------------------------------------
# guide registry (the string names accepted by ``fit("vi", guide=...)``)
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[..., AutoGuide]] = {}


def register_autoguide(factory: Callable[..., AutoGuide], name: str) -> None:
    _REGISTRY[name] = factory


def autoguide_names() -> List[str]:
    """The guide-family names, in registration order."""
    return list(_REGISTRY)


def get_autoguide(name: str, **kwargs) -> AutoGuide:
    """Instantiate an autoguide family by name (``auto_normal``, ...)."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown guide family {name!r}; expected one of {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name](**kwargs)
