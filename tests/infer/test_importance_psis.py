"""Pareto-smoothed importance sampling: GPD fit, k-hat, smoothing, ESS."""

import warnings

import numpy as np
import pytest

from repro.infer import ImportanceSampling, importance
from repro.infer.importance import (
    PSIS_MIN_DRAWS,
    fit_generalized_pareto,
    importance_ess,
    pareto_smoothed_log_weights,
    psis_khat,
)
from repro.ppl import distributions as dist
from repro.ppl.primitives import observe, sample


# ----------------------------------------------------------------------
# generalised Pareto fit
# ----------------------------------------------------------------------
def test_gpd_fit_recovers_known_shape():
    rng = np.random.default_rng(0)
    for k_true in (0.2, 0.5, 1.0):
        # Inverse-CDF draws from GPD(k, sigma=1).
        u = rng.uniform(size=20000)
        x = (np.power(1.0 - u, -k_true) - 1.0) / k_true
        k_fit, sigma = fit_generalized_pareto(x)
        assert k_fit == pytest.approx(k_true, abs=0.1)
        assert sigma == pytest.approx(1.0, rel=0.2)


def test_gpd_fit_unusable_for_tiny_samples():
    k, sigma = fit_generalized_pareto(np.array([1.0, 2.0]))
    assert np.isinf(k)


# ----------------------------------------------------------------------
# k-hat on known heavy-tailed weight vectors
# ----------------------------------------------------------------------
def test_khat_tracks_pareto_tail_index():
    # Importance ratios distributed Pareto(alpha) have tail shape k = 1/alpha.
    rng = np.random.default_rng(0)
    khats = []
    for alpha in (2.0, 1.0):
        log_w = np.log(rng.pareto(alpha, size=4000) + 1.0)
        khats.append(psis_khat(log_w))
    assert khats[0] == pytest.approx(0.5, abs=0.15)   # alpha=2 -> k=0.5
    assert khats[1] == pytest.approx(1.0, abs=0.25)   # alpha=1 -> k=1.0
    assert khats[1] > khats[0]


def test_khat_small_for_light_tails():
    rng = np.random.default_rng(1)
    log_w = rng.normal(0.0, 0.1, size=2000)
    assert psis_khat(log_w) < 0.5


def test_khat_inf_when_tail_too_short():
    assert np.isinf(psis_khat(np.zeros(8)))


# ----------------------------------------------------------------------
# smoothing
# ----------------------------------------------------------------------
def test_smoothed_weights_are_normalized_and_tamer():
    rng = np.random.default_rng(2)
    log_w = np.log(rng.pareto(1.5, size=2000) + 1.0)
    slw, khat = pareto_smoothed_log_weights(log_w)
    w = np.exp(slw)
    assert w.sum() == pytest.approx(1.0)
    assert np.isfinite(khat)
    # Smoothing caps the largest weight, so the smoothed ESS can only improve.
    raw_ess = importance_ess(log_w)
    smoothed_ess = importance_ess(slw)
    assert smoothed_ess >= raw_ess * 0.99


def test_smoothing_preserves_light_tailed_weights():
    rng = np.random.default_rng(3)
    log_w = rng.normal(0.0, 0.05, size=500)
    slw, khat = pareto_smoothed_log_weights(log_w, normalize=False)
    # Only the tail may change, and for a light tail it barely does.
    assert khat < 0.5
    assert np.mean(np.abs(np.sort(slw) - np.sort(log_w - log_w.max()))) < 0.05


# ----------------------------------------------------------------------
# ESS
# ----------------------------------------------------------------------
def test_importance_ess_uniform_weights_is_sample_size():
    assert importance_ess(np.zeros(100)) == pytest.approx(100.0)


def test_importance_ess_degenerate_weights_is_one():
    lw = np.full(100, -1e3)
    lw[0] = 0.0
    assert importance_ess(lw) == pytest.approx(1.0, abs=1e-6)


# ----------------------------------------------------------------------
# the documented draw-count floor
# ----------------------------------------------------------------------
def test_small_sample_khat_warns_once_per_process(monkeypatch):
    monkeypatch.setattr(importance, "_WARNED_CALLERS", set())
    log_weights = np.random.default_rng(0).normal(size=100)
    with pytest.warns(UserWarning, match="only 100 draws"):
        psis_khat(log_weights)
    # the second small-sample call is silent
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        psis_khat(log_weights)
    assert not [w for w in caught if issubclass(w.category, UserWarning)]


def test_explicit_min_draws_is_a_hard_floor():
    log_weights = np.random.default_rng(0).normal(size=100)
    with pytest.raises(ValueError, match="below the requested minimum"):
        psis_khat(log_weights, min_draws=PSIS_MIN_DRAWS)
    with pytest.raises(ValueError, match="min_draws must be >= 1"):
        psis_khat(log_weights, min_draws=0)
    # meeting an explicit floor neither raises nor warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(psis_khat(log_weights, min_draws=100))


# ----------------------------------------------------------------------
# integration with the ImportanceSampling driver
# ----------------------------------------------------------------------
def test_importance_sampler_exposes_psis(rng):
    data = rng.normal(0.8, 1.0, size=20)

    def model():
        mu = sample("mu", dist.Normal(0.0, 2.0))
        observe(dist.Normal(mu, 1.0), data, name="y")

    sampler = ImportanceSampling(model, num_samples=2000, seed=0).run()
    w = sampler.pareto_smoothed_weights()
    assert w.shape == (2000,)
    assert w.sum() == pytest.approx(1.0)
    assert np.isfinite(sampler.pareto_k())
