"""Gaussian-family autoguides: Delta (MAP), mean-field, full-rank, low-rank.

All four families parameterise a distribution over the flat unconstrained
vector of the model's latents and provide closed-form reparameterised ELBO
gradients (the model term is always a single batched potential evaluation, so
the per-step cost is one tape regardless of the particle count).

:class:`AutoNormal` intentionally reproduces the historical mean-field ADVI
implementation operation-for-operation — drawing ``eps`` as one
``(S, dim)`` ``standard_normal`` block, computing the same gradient
expressions, and keeping the same entropy constant — so that
``VI(guide=AutoNormal())`` is bitwise stable under a fixed seed.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np
from scipy.linalg import solve_triangular

from repro.autodiff.tensor import Tensor
from repro.guides.base import AutoGuide, register_autoguide

_LOG_2PI = math.log(2.0 * math.pi)


class AutoDelta(AutoGuide):
    """Point-mass (MAP) guide: optimises a single unconstrained point.

    The reported "ELBO" is the log joint at the point (no entropy term), so
    maximising it performs MAP estimation in the unconstrained
    parameterisation — the Jacobian terms of the constraining transforms are
    part of the objective, exactly as for Stan's ``optimize`` with
    ``jacobian=true``.
    """

    guide_name = "auto_delta"
    has_density = False

    def _build(self, potential) -> None:
        self._z = Tensor(np.array(potential.initial_unconstrained(), dtype=float),
                         requires_grad=True)
        self._z.name = "auto_delta.z"

    def parameters(self) -> List[Tensor]:
        return [self._z]

    def elbo_and_grads(self, potential, rng, num_particles) -> Tuple[float, List[np.ndarray]]:
        self._require_setup()
        value, grad = potential.potential_and_grad(self._z.data)
        return -float(value), [np.asarray(grad, dtype=float)]

    def sample_unconstrained(self, rng, num_samples: int) -> np.ndarray:
        self._require_setup()
        return np.tile(self._z.data, (num_samples, 1))

    def log_density(self, z: np.ndarray) -> np.ndarray:
        raise RuntimeError("AutoDelta is a point mass and has no density; "
                           "PSIS diagnostics require a proper guide")


class AutoNormal(AutoGuide):
    """Mean-field Gaussian over unconstrained space (Stan's ADVI family)."""

    guide_name = "auto_normal"

    def _build(self, potential) -> None:
        dim = potential.dim
        self._loc = Tensor(np.zeros(dim), requires_grad=True)
        self._loc.name = "auto_normal.loc"
        self._log_scale = Tensor(np.full(dim, -1.0), requires_grad=True)
        self._log_scale.name = "auto_normal.log_scale"

    def parameters(self) -> List[Tensor]:
        return [self._loc, self._log_scale]

    # Expose the fitted parameters under their classic ADVI names.
    @property
    def loc(self) -> np.ndarray:
        return self._loc.data

    @property
    def log_scale(self) -> np.ndarray:
        return self._log_scale.data

    def elbo_and_grads(self, potential, rng, num_particles) -> Tuple[float, List[np.ndarray]]:
        # This replicates the legacy ADVI arithmetic exactly (ascent gradients
        # computed with the historical expressions, then negated — negation is
        # exact in floating point) to keep seeded runs bitwise stable.
        self._require_setup()
        n = num_particles
        dim = self.dim
        eps = rng.standard_normal((n, dim))
        scale = np.exp(self._log_scale.data)
        z = self._loc.data + scale * eps
        neg_logp, grad_z = potential.potential_and_grad_batched(z)
        elbo = float(np.mean(-neg_logp)) + float(np.sum(self._log_scale.data))
        grad_loc = -grad_z.mean(axis=0)
        grad_log_scale = (-grad_z * scale * eps).mean(axis=0) + 1.0
        return elbo, [np.negative(grad_loc), np.negative(grad_log_scale)]

    def sample_unconstrained(self, rng, num_samples: int) -> np.ndarray:
        self._require_setup()
        scale = np.exp(self._log_scale.data)
        return self._loc.data + scale * rng.standard_normal((num_samples, self.dim))

    def log_density(self, z: np.ndarray) -> np.ndarray:
        self._require_setup()
        z = np.atleast_2d(np.asarray(z, dtype=float))
        scale = np.exp(self._log_scale.data)
        resid = (z - self._loc.data) / scale
        return (-0.5 * np.sum(resid * resid, axis=-1)
                - float(np.sum(self._log_scale.data))
                - 0.5 * self.dim * _LOG_2PI)


class AutoMultivariateNormal(AutoGuide):
    """Full-rank Gaussian: ``z = loc + L @ eps`` with a learned Cholesky factor.

    ``L`` has ``exp(log_diag)`` on the diagonal (kept positive in log space)
    and free strictly-lower-triangular entries, so the guide can represent
    arbitrary posterior correlations — the family the PSIS k-hat diagnostic
    prefers over mean-field on correlated posteriors.
    """

    guide_name = "auto_mvn"

    def _build(self, potential) -> None:
        dim = potential.dim
        self._loc = Tensor(np.zeros(dim), requires_grad=True)
        self._loc.name = "auto_mvn.loc"
        self._log_diag = Tensor(np.full(dim, -1.0), requires_grad=True)
        self._log_diag.name = "auto_mvn.log_diag"
        self._rows, self._cols = np.tril_indices(dim, k=-1)
        self._tril = Tensor(np.zeros(len(self._rows)), requires_grad=True)
        self._tril.name = "auto_mvn.tril"

    def parameters(self) -> List[Tensor]:
        return [self._loc, self._log_diag, self._tril]

    def scale_tril(self) -> np.ndarray:
        """The current Cholesky factor as a dense NumPy matrix."""
        self._require_setup()
        L = np.zeros((self.dim, self.dim))
        L[self._rows, self._cols] = self._tril.data
        L[np.arange(self.dim), np.arange(self.dim)] = np.exp(self._log_diag.data)
        return L

    def elbo_and_grads(self, potential, rng, num_particles) -> Tuple[float, List[np.ndarray]]:
        self._require_setup()
        n = num_particles
        eps = rng.standard_normal((n, self.dim))
        L = self.scale_tril()
        z = self._loc.data + eps @ L.T
        neg_logp, grad_z = potential.potential_and_grad_batched(z)
        elbo = float(np.mean(-neg_logp)) + float(np.sum(self._log_diag.data))
        # z_s = loc + L eps_s  =>  d mean(U) / dL = (1/S) sum_s grad_s eps_s^T
        G = grad_z.T @ eps / n
        g_loc = grad_z.mean(axis=0)
        g_log_diag = np.diagonal(G) * np.exp(self._log_diag.data) - 1.0
        g_tril = G[self._rows, self._cols]
        return elbo, [g_loc, g_log_diag, g_tril]

    def sample_unconstrained(self, rng, num_samples: int) -> np.ndarray:
        self._require_setup()
        L = self.scale_tril()
        return self._loc.data + rng.standard_normal((num_samples, self.dim)) @ L.T

    def log_density(self, z: np.ndarray) -> np.ndarray:
        self._require_setup()
        z = np.atleast_2d(np.asarray(z, dtype=float))
        L = self.scale_tril()
        y = solve_triangular(L, (z - self._loc.data).T, lower=True)
        return (-0.5 * np.sum(y * y, axis=0)
                - float(np.sum(self._log_diag.data))
                - 0.5 * self.dim * _LOG_2PI)


class AutoLowRankMultivariateNormal(AutoGuide):
    """Gaussian with covariance ``W W^T + diag(d^2)`` (low-rank plus diagonal).

    Captures the ``rank`` strongest posterior correlation directions at
    ``O(dim * rank)`` parameters; the entropy and density use the Woodbury
    identity and the matrix determinant lemma, so no ``dim x dim`` Cholesky is
    ever formed during optimisation (only ``rank x rank`` solves).
    """

    guide_name = "auto_lowrank"

    def __init__(self, rank: Optional[int] = None, init_seed: int = 0):
        super().__init__()
        self.rank = rank
        self.init_seed = init_seed

    def _build(self, potential) -> None:
        dim = potential.dim
        rank = self.rank
        if rank is None:
            rank = max(1, int(round(math.sqrt(dim))))
        rank = min(rank, dim)
        self.rank = rank
        init_rng = np.random.default_rng(self.init_seed)
        self._loc = Tensor(np.zeros(dim), requires_grad=True)
        self._loc.name = "auto_lowrank.loc"
        # Small random factor: at W = 0 the off-diagonal gradient signal only
        # enters through sampling noise, so symmetric zero init optimises
        # needlessly slowly.
        self._w = Tensor(0.01 * init_rng.standard_normal((dim, rank)),
                         requires_grad=True)
        self._w.name = "auto_lowrank.cov_factor"
        self._log_diag = Tensor(np.full(dim, -1.0), requires_grad=True)
        self._log_diag.name = "auto_lowrank.log_diag"

    def parameters(self) -> List[Tensor]:
        return [self._loc, self._w, self._log_diag]

    def _capacitance(self, W: np.ndarray, d: np.ndarray):
        """``M = I_r + W^T D^-2 W`` and ``D^-2 W`` (Woodbury building blocks)."""
        DW = W / (d * d)[:, None]
        M = np.eye(self.rank) + W.T @ DW
        return M, DW

    def elbo_and_grads(self, potential, rng, num_particles) -> Tuple[float, List[np.ndarray]]:
        self._require_setup()
        n = num_particles
        eps_w = rng.standard_normal((n, self.rank))
        eps_d = rng.standard_normal((n, self.dim))
        W = self._w.data
        d = np.exp(self._log_diag.data)
        z = self._loc.data + eps_w @ W.T + d * eps_d
        neg_logp, grad_z = potential.potential_and_grad_batched(z)
        M, DW = self._capacitance(W, d)
        logdet = float(np.linalg.slogdet(M)[1] + 2.0 * np.sum(self._log_diag.data))
        elbo = float(np.mean(-neg_logp)) + 0.5 * logdet
        # Entropy gradients via Woodbury, Sigma^-1 = D^-2 - DW M^-1 DW^T,
        # without ever forming the dense dim x dim inverse:
        #   Sigma^-1 W  = DW M^-1            (since M^-1 W^T DW = I - M^-1)
        #   diag(Sigma^-1)_i = 1/d_i^2 - sum_r DW[i] (M^-1 DW^T)[., i]
        Minv = np.linalg.inv(M)
        A = Minv @ DW.T  # (rank, dim)
        diag_sinv = 1.0 / (d * d) - np.einsum("ir,ri->i", DW, A)
        g_loc = grad_z.mean(axis=0)
        g_w = grad_z.T @ eps_w / n - DW @ Minv
        g_log_diag = (grad_z * eps_d).mean(axis=0) * d - diag_sinv * d * d
        return elbo, [g_loc, g_w, g_log_diag]

    def sample_unconstrained(self, rng, num_samples: int) -> np.ndarray:
        self._require_setup()
        W = self._w.data
        d = np.exp(self._log_diag.data)
        eps_w = rng.standard_normal((num_samples, self.rank))
        eps_d = rng.standard_normal((num_samples, self.dim))
        return self._loc.data + eps_w @ W.T + d * eps_d

    def log_density(self, z: np.ndarray) -> np.ndarray:
        self._require_setup()
        z = np.atleast_2d(np.asarray(z, dtype=float))
        W = self._w.data
        d = np.exp(self._log_diag.data)
        M, DW = self._capacitance(W, d)
        v = z - self._loc.data
        quad_diag = np.sum(v * v / (d * d), axis=-1)
        u = v @ DW  # (n, rank)
        quad_corr = np.sum(u * np.linalg.solve(M, u.T).T, axis=-1)
        logdet = float(np.linalg.slogdet(M)[1] + 2.0 * np.sum(self._log_diag.data))
        return -0.5 * (quad_diag - quad_corr) - 0.5 * logdet - 0.5 * self.dim * _LOG_2PI


register_autoguide(AutoDelta, "auto_delta", "delta", "map")
register_autoguide(AutoNormal, "auto_normal", "normal", "meanfield", "advi")
register_autoguide(AutoMultivariateNormal, "auto_mvn", "mvn",
                   "auto_multivariate_normal", "fullrank")
register_autoguide(AutoLowRankMultivariateNormal, "auto_lowrank", "lowrank",
                   "auto_low_rank_multivariate_normal")
