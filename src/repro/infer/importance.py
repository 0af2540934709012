"""Self-normalised importance sampling and Pareto-smoothed weight diagnostics.

Table 3's discussion notes that the extra priors introduced by the
comprehensive translation "could play a critical role for other inference
schemes, e.g. the importance sampling algorithm".  This sampler makes that
observable: it runs the generative program forward (sampling latents from
whatever priors the compilation scheme produced) and weights each trace by the
accumulated observation/factor score, so the proposal *is* the prior chosen by
the compilation scheme.

The module also implements Pareto-smoothed importance sampling (PSIS, Vehtari
et al. 2015): a generalised Pareto distribution is fitted to the upper tail of
the importance ratios and the tail weights are replaced by the expected order
statistics of the fit.  The fitted shape ``k-hat`` doubles as a diagnostic of
how well the proposal covers the target — the guide-quality layer of
:mod:`repro.infer.vi` reweights guide draws against the model joint and reads
``k-hat`` to rank guide families.
"""

from __future__ import annotations

import math
import warnings
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np
from scipy.special import logsumexp

from repro.autodiff.tensor import Tensor
from repro.ppl import handlers


# ----------------------------------------------------------------------
# Pareto-smoothed importance sampling (Vehtari, Simpson, Gelman, Yao,
# Gabry 2015; fit following Zhang & Stephens 2009)
# ----------------------------------------------------------------------
#: Draw count below which the k-hat estimate is statistically unstable
#: (Vehtari et al. recommend tail fits on the order of ``3*sqrt(S)`` points;
#: below ~500 draws the tail holds < 70 points and the shape posterior is
#: too wide to trust a 0.7 threshold decision).
PSIS_MIN_DRAWS = 500

#: callers whose small-sample k-hat warning already fired in this process.
_WARNED_CALLERS: Set[str] = set()


def _check_psis_draws(n: int, min_draws: Optional[int], caller: str) -> None:
    """Enforce the documented PSIS draw-count minimum.

    With ``min_draws=None`` (the default) a count below ``PSIS_MIN_DRAWS``
    emits a once-per-process warning — existing small-sample callers keep
    working but are told the k-hat is noisy.  An *explicit* ``min_draws``
    turns the check into a hard ``ValueError``, which is what the serving
    trust gate uses: a routing decision must not be made on an unstable
    estimate.
    """
    if min_draws is not None:
        if min_draws < 1:
            raise ValueError(f"min_draws must be >= 1, got {min_draws}")
        if n < min_draws:
            raise ValueError(
                f"{caller}: {n} draws is below the requested minimum of "
                f"{min_draws}; the k-hat estimate would be unstable "
                f"(documented floor: {PSIS_MIN_DRAWS})")
    elif n < PSIS_MIN_DRAWS and caller not in _WARNED_CALLERS:
        _WARNED_CALLERS.add(caller)
        warnings.warn(
            f"{caller}: k-hat estimated from only {n} draws; estimates below "
            f"{PSIS_MIN_DRAWS} draws are unstable — pass min_draws to enforce "
            "a floor, or increase the sample count",
            UserWarning, stacklevel=2)


def fit_generalized_pareto(exceedances: np.ndarray) -> Tuple[float, float]:
    """Fit a generalised Pareto distribution to positive exceedances.

    Returns ``(k, sigma)`` — the shape and scale of the posterior-mean fit of
    Zhang & Stephens (2009), with the small-sample shape regularisation of
    Vehtari et al. (appendix C).  ``k = inf`` signals an unusable fit (too few
    or non-finite exceedances).
    """
    x = np.sort(np.asarray(exceedances, dtype=float))
    n = len(x)
    if n < 5 or not np.all(np.isfinite(x)) or x[-1] <= 0:
        return math.inf, math.nan
    prior_bs = 3.0
    m = 30 + int(math.sqrt(n))
    b = 1.0 - np.sqrt(m / (np.arange(1, m + 1, dtype=float) - 0.5))
    b /= prior_bs * x[int(n / 4 + 0.5) - 1]
    b += 1.0 / x[-1]
    k = np.log1p(-b[:, None] * x).mean(axis=1)
    with np.errstate(all="ignore"):
        log_lik = n * (np.log(-b / k) - k - 1.0)
        weights = 1.0 / np.exp(log_lik - log_lik[:, None]).sum(axis=1)
    weights[~np.isfinite(weights)] = 0.0
    if weights.sum() <= 0:
        return math.inf, math.nan
    b_post = float(np.sum(b * weights) / weights.sum())
    k_post = float(np.log1p(-b_post * x).mean())
    sigma = -k_post / b_post
    # Weakly-informative prior on k, stabilising small tails.
    a = 10.0
    k_post = k_post * n / (n + a) + a * 0.5 / (n + a)
    return float(k_post), float(sigma)


def _gpd_quantile(p: np.ndarray, k: float, sigma: float) -> np.ndarray:
    """Inverse CDF of the generalised Pareto distribution (location 0)."""
    p = np.asarray(p, dtype=float)
    if abs(k) < 1e-12:
        return -sigma * np.log1p(-p)
    return sigma * np.expm1(-k * np.log1p(-p)) / k


def pareto_smoothed_log_weights(log_weights: np.ndarray,
                                normalize: bool = True,
                                min_draws: Optional[int] = None,
                                ) -> Tuple[np.ndarray, float]:
    """Pareto-smooth a vector of log importance weights.

    The ``M = min(S/5, 3*sqrt(S))`` largest weights are replaced by the
    expected order statistics of a generalised Pareto fit to their
    exceedances over the cutoff, and capped at the maximum raw weight.
    Returns ``(smoothed_log_weights, k_hat)``; with ``normalize=True`` the
    smoothed weights are log-normalised to sum to one.  ``k_hat`` above 0.7
    flags an unreliable proposal (Vehtari et al. 2015).

    The k-hat estimate needs :data:`PSIS_MIN_DRAWS` (500) draws to be
    stable; fewer warns once per process.  Passing ``min_draws`` makes the
    floor a hard ``ValueError`` instead.
    """
    lw = np.asarray(log_weights, dtype=float).copy()
    if lw.ndim != 1:
        raise ValueError(f"expected a 1-D vector of log weights, got shape {lw.shape}")
    n = len(lw)
    _check_psis_draws(n, min_draws, "pareto_smoothed_log_weights")
    khat = math.inf
    if n > 1:
        lw = lw - lw.max()
        n_tail = int(np.ceil(min(n / 5.0, 3.0 * math.sqrt(n))))
        if n_tail >= 5:
            order = np.argsort(lw)
            cutoff = max(lw[order[-n_tail - 1]], math.log(np.finfo(float).tiny))
            tail_idx = order[-n_tail:]
            tail = lw[tail_idx]
            exceed = np.exp(tail) - math.exp(cutoff)
            khat, sigma = fit_generalized_pareto(exceed)
            if np.isfinite(khat) and sigma > 0:
                # Replace the tail, in rank order, by the expected order
                # statistics of the fitted distribution.
                probs = (np.arange(1, n_tail + 1) - 0.5) / n_tail
                smoothed = np.log(_gpd_quantile(probs, khat, sigma) + math.exp(cutoff))
                rank = np.argsort(tail)
                new_tail = np.empty_like(tail)
                new_tail[rank] = np.minimum(smoothed, 0.0)
                lw[tail_idx] = new_tail
    if normalize:
        lw = lw - logsumexp(lw)
    return lw, float(khat)


def psis_khat(log_weights: np.ndarray, min_draws: Optional[int] = None) -> float:
    """The Pareto shape diagnostic of a log-weight vector (see above).

    ``min_draws`` raises ``ValueError`` below the given draw count; the
    default warns once below :data:`PSIS_MIN_DRAWS`.
    """
    return pareto_smoothed_log_weights(
        log_weights, normalize=False, min_draws=min_draws)[1]


def importance_ess(log_weights: np.ndarray) -> float:
    """Effective sample size ``1 / sum(w_i^2)`` of normalised weights."""
    lw = np.asarray(log_weights, dtype=float)
    w = np.exp(lw - logsumexp(lw))
    return float(1.0 / np.sum(w * w))


class ImportanceSampling:
    """Likelihood-weighted sampling from a generative model."""

    def __init__(self, model: Callable, num_samples: int = 1000, seed: int = 0):
        self.model = model
        self.num_samples = num_samples
        self.seed = seed
        self.log_weights: Optional[np.ndarray] = None
        self._latents: List[Dict[str, np.ndarray]] = []
        #: extra run facts merged into ``posterior.metadata``.
        self.metadata: Dict[str, Any] = {}
        self._posterior_cache = None

    def run(self, *args, **kwargs) -> "ImportanceSampling":
        self._posterior_cache = None
        rng = np.random.default_rng(self.seed)
        log_weights = np.zeros(self.num_samples)
        self._latents = []
        for i in range(self.num_samples):
            tracer = handlers.trace()
            with handlers.seed(rng_seed=rng), tracer:
                self.model(*args, **kwargs)
            log_w = 0.0
            latents: Dict[str, np.ndarray] = {}
            for name, site in tracer.trace.items():
                if site["type"] == "sample":
                    value = site["value"]
                    raw = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=float)
                    if site["is_observed"]:
                        lp = site["fn"].log_prob(value)
                        lp_val = lp.data if isinstance(lp, Tensor) else np.asarray(lp)
                        log_w += float(np.sum(lp_val))
                    else:
                        latents[name] = np.array(raw, dtype=float)
                elif site["type"] == "factor":
                    value = site["value"]
                    raw = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=float)
                    log_w += float(np.sum(raw))
            log_weights[i] = log_w
            self._latents.append(latents)
        self.log_weights = log_weights
        return self

    # ------------------------------------------------------------------
    @property
    def normalized_weights(self) -> np.ndarray:
        if self.log_weights is None:
            raise RuntimeError("run() must be called first")
        shifted = self.log_weights - self.log_weights.max()
        w = np.exp(shifted)
        return w / w.sum()

    def effective_sample_size(self) -> float:
        w = self.normalized_weights
        return float(1.0 / np.sum(w * w))

    def pareto_smoothed_weights(self) -> np.ndarray:
        """Normalised Pareto-smoothed weights (PSIS)."""
        if self.log_weights is None:
            raise RuntimeError("run() must be called first")
        slw, _ = pareto_smoothed_log_weights(self.log_weights)
        return np.exp(slw)

    def pareto_k(self) -> float:
        """The PSIS k-hat diagnostic of the proposal (prior) quality."""
        if self.log_weights is None:
            raise RuntimeError("run() must be called first")
        return psis_khat(self.log_weights)

    def posterior_mean(self, site: str) -> np.ndarray:
        w = self.normalized_weights
        values = np.array([lat[site] for lat in self._latents])
        return np.tensordot(w, values, axes=(0, 0))

    def resample(self, num_draws: int, seed: int = 0) -> Dict[str, np.ndarray]:
        """Sample latents with replacement according to the importance weights."""
        rng = np.random.default_rng(seed)
        w = self.normalized_weights
        idx = rng.choice(len(w), size=num_draws, p=w)
        names = self._latents[0].keys() if self._latents else []
        return {name: np.array([self._latents[i][name] for i in idx]) for name in names}

    # ------------------------------------------------------------------
    # the FitResult surface
    # ------------------------------------------------------------------
    @property
    def posterior(self):
        """Importance-resampled draws as a :class:`~repro.infer.results.Posterior`.

        Latents are resampled with replacement according to the
        Pareto-*smoothed* weights (so a single extreme raw weight cannot
        dominate the resampled posterior) using a dedicated RNG derived
        from the sampler seed; the PSIS quality diagnostics ride along in
        the metadata.
        """
        if self._posterior_cache is None:
            if self.log_weights is None:
                raise RuntimeError("run() must be called before posterior")
            from repro.infer.results import Posterior, posterior_rng

            rng = posterior_rng(self.seed)
            weights = self.pareto_smoothed_weights()
            weights = weights / weights.sum()
            idx = rng.choice(len(weights), size=self.num_samples, p=weights)
            names = self._latents[0].keys() if self._latents else []
            resampled = {name: np.array([self._latents[i][name] for i in idx])
                         for name in names}
            draws = {name: value[None] for name, value in resampled.items()}
            metadata = {
                "method": "importance",
                "num_samples": self.num_samples,
                "seed": self.seed,
                "khat": self.pareto_k(),
                "ess": self.effective_sample_size(),
            }
            metadata.update(self.metadata)
            self._posterior_cache = Posterior(draws, metadata=metadata)
        return self._posterior_cache

    def diagnostics(self) -> Dict[str, float]:
        """Proposal-quality report: importance ESS and the PSIS k-hat."""
        if self.log_weights is None:
            raise RuntimeError("run() must be called before diagnostics()")
        return {
            "num_samples": self.num_samples,
            "ess": self.effective_sample_size(),
            "khat": self.pareto_k(),
        }
