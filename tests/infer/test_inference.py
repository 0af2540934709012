"""Inference tests: potential functions, HMC/NUTS posteriors, ADVI, SVI, IS, diagnostics."""

import numpy as np
import pytest
import scipy.stats as st

from repro.autodiff import Tensor, ops
from repro.guides import AutoNormal
from repro.infer import HMC, MCMC, NUTS, VI, ImportanceSampling, SVI, diagnostics, make_potential
from repro.infer.potential import DiscreteLatentError
from repro.ppl import distributions as dist
from repro.ppl.primitives import observe, param, sample


def normal_model(data):
    mu = sample("mu", dist.Normal(0.0, 10.0))
    sigma = sample("sigma", dist.ImproperUniform(lower=0.0))
    observe(dist.Normal(mu, sigma), data, name="y")
    return mu


def conjugate_normal_model(data, prior_mu=0.0, prior_sigma=2.0, noise=1.0):
    mu = sample("mu", dist.Normal(prior_mu, prior_sigma))
    observe(dist.Normal(mu, noise), data, name="y")
    return mu


@pytest.fixture
def normal_data(rng):
    return rng.normal(3.0, 2.0, size=40)


# ----------------------------------------------------------------------
# potential
# ----------------------------------------------------------------------
def test_potential_discovers_sites_and_dim(normal_data):
    pot = make_potential(normal_model, normal_data)
    assert list(pot.sites) == ["mu", "sigma"]
    assert pot.dim == 2
    assert pot.sites["sigma"].transform.__class__.__name__ == "ExpTransform"


def test_potential_value_matches_manual_density(normal_data):
    pot = make_potential(normal_model, normal_data)
    z = np.array([1.0, np.log(2.0)])  # mu=1, sigma=exp(log 2)=2
    manual = -(st.norm(0, 10).logpdf(1.0)
               + st.norm(1.0, 2.0).logpdf(normal_data).sum()
               + np.log(2.0))  # jacobian of exp at log 2
    assert pot.potential(z) == pytest.approx(manual)


def test_potential_gradient_matches_numerical(normal_data):
    pot = make_potential(normal_model, normal_data)
    z = np.array([0.5, 0.2])
    _, grad = pot.potential_and_grad(z)
    eps = 1e-5
    for i in range(2):
        zp, zm = z.copy(), z.copy()
        zp[i] += eps
        zm[i] -= eps
        numeric = (pot.potential(zp) - pot.potential(zm)) / (2 * eps)
        assert grad[i] == pytest.approx(numeric, rel=1e-4, abs=1e-5)


def test_potential_fast_mode_matches_handlers(normal_data):
    slow = make_potential(normal_model, normal_data)
    fast = make_potential(normal_model, normal_data, fast=True)
    z = np.array([0.7, -0.3])
    assert fast.potential(z) == pytest.approx(slow.potential(z))
    np.testing.assert_allclose(fast.potential_and_grad(z)[1], slow.potential_and_grad(z)[1])


def test_potential_constrained_dict_respects_support(normal_data):
    pot = make_potential(normal_model, normal_data)
    values = pot.constrained_dict(np.array([0.3, -1.0]))
    assert values["sigma"] > 0


def test_potential_rejects_discrete_latents():
    def model():
        sample("k", dist.Poisson(3.0))

    with pytest.raises(DiscreteLatentError):
        make_potential(model)


def test_potential_requires_latent_sites():
    def model():
        observe(dist.Normal(0.0, 1.0), 0.5)

    with pytest.raises(RuntimeError):
        make_potential(model)


# ----------------------------------------------------------------------
# HMC / NUTS posterior correctness on a conjugate model
# ----------------------------------------------------------------------
def _posterior_params(data, prior_mu=0.0, prior_sigma=2.0, noise=1.0):
    n = len(data)
    precision = 1 / prior_sigma ** 2 + n / noise ** 2
    mean = (prior_mu / prior_sigma ** 2 + data.sum() / noise ** 2) / precision
    return mean, np.sqrt(1 / precision)


def test_nuts_recovers_conjugate_posterior(rng):
    data = rng.normal(1.5, 1.0, size=30)
    pot = make_potential(conjugate_normal_model, data)
    mcmc = MCMC(NUTS(pot, max_tree_depth=8), num_warmup=300, num_samples=400, seed=0).run()
    draws = mcmc.get_samples()["mu"]
    true_mean, true_sd = _posterior_params(data)
    assert draws.mean() == pytest.approx(true_mean, abs=3 * true_sd / np.sqrt(len(draws)) + 0.05)
    assert draws.std() == pytest.approx(true_sd, rel=0.35)


def test_hmc_recovers_conjugate_posterior(rng):
    data = rng.normal(-0.5, 1.0, size=30)
    pot = make_potential(conjugate_normal_model, data)
    mcmc = MCMC(HMC(pot, num_steps=16), num_warmup=300, num_samples=400, seed=1).run()
    draws = mcmc.get_samples()["mu"]
    true_mean, true_sd = _posterior_params(data)
    assert draws.mean() == pytest.approx(true_mean, abs=0.1)


def test_mcmc_multiple_chains_and_grouping(rng):
    data = rng.normal(0.0, 1.0, size=20)
    pot = make_potential(conjugate_normal_model, data)
    mcmc = MCMC(NUTS(pot, max_tree_depth=6), num_warmup=100, num_samples=50,
                num_chains=2, seed=0).run()
    grouped = mcmc.get_samples(group_by_chain=True)
    assert grouped["mu"].shape[0] == 2
    flat = mcmc.get_samples()
    assert flat["mu"].shape[0] == 100


def test_mcmc_thinning_reduces_output(rng):
    data = rng.normal(0.0, 1.0, size=10)
    pot = make_potential(conjugate_normal_model, data)
    mcmc = MCMC(NUTS(pot, max_tree_depth=5), num_warmup=50, num_samples=20, thinning=2, seed=0).run()
    assert len(mcmc.get_samples()["mu"]) == 20


def test_mcmc_requires_run_before_samples(rng):
    pot = make_potential(conjugate_normal_model, rng.normal(size=5))
    with pytest.raises(RuntimeError):
        MCMC(NUTS(pot), num_warmup=10, num_samples=10).get_samples()


def test_mcmc_summary_contains_diagnostics(rng):
    data = rng.normal(0.0, 1.0, size=20)
    pot = make_potential(conjugate_normal_model, data)
    mcmc = MCMC(NUTS(pot, max_tree_depth=6), num_warmup=100, num_samples=100, seed=0).run()
    summary = mcmc.summary()
    assert "mu" in summary
    assert set(summary["mu"]) >= {"mean", "std", "n_eff", "r_hat"}


def test_nuts_step_size_adaptation_changes_step(rng):
    data = rng.normal(0.0, 1.0, size=20)
    pot = make_potential(conjugate_normal_model, data)
    kernel = NUTS(pot)
    mcmc = MCMC(kernel, num_warmup=100, num_samples=10, seed=0).run()
    stats = mcmc.get_extra_fields(group_by_chain=False)
    # The kernel keeps its configured step size; the chain's adapted one is
    # reported per draw.
    assert kernel.step_size == 0.1
    assert np.all(stats["step_size"] > 0)
    assert np.all(stats["step_size"] != kernel.step_size)
    assert np.nanmean(stats["accept_prob"]) > 0.4


# ----------------------------------------------------------------------
# ADVI (VI over the mean-field AutoNormal guide)
# ----------------------------------------------------------------------
def test_advi_recovers_posterior_mean(rng):
    data = rng.normal(2.0, 1.0, size=50)
    pot = make_potential(conjugate_normal_model, data)
    advi = VI(pot, guide=AutoNormal(), learning_rate=0.1, seed=0).run(400)
    draws = advi.posterior_draws(500)["mu"]
    true_mean, _ = _posterior_params(data)
    assert draws.mean() == pytest.approx(true_mean, abs=0.15)
    assert len(advi.elbo_history) == 400


def test_advi_elbo_improves(rng):
    data = rng.normal(1.0, 1.0, size=30)
    pot = make_potential(conjugate_normal_model, data)
    advi = VI(pot, guide=AutoNormal(), learning_rate=0.1, seed=0).run(300)
    early = np.mean(advi.elbo_history[:20])
    late = np.mean(advi.elbo_history[-20:])
    assert late > early


# ----------------------------------------------------------------------
# SVI with an explicit guide
# ----------------------------------------------------------------------
def test_svi_learns_posterior_of_conjugate_model(rng):
    data = rng.normal(1.0, 1.0, size=40)

    def model():
        mu = sample("mu", dist.Normal(0.0, 2.0))
        observe(dist.Normal(mu, 1.0), data, name="y")

    def guide():
        loc = param("loc", 0.0)
        log_scale = param("log_scale", -1.0)
        sample("mu", dist.Normal(loc, ops.exp(Tensor(log_scale.data) if False else log_scale)))

    # use ops.exp on the param tensor directly
    def guide2():
        loc = param("loc", 0.0)
        log_scale = param("log_scale", -1.0)
        sample("mu", dist.Normal(loc, ops.exp(log_scale)))

    svi = SVI(model, guide2, learning_rate=0.05, seed=0)
    svi.run(400)
    true_mean, true_sd = _posterior_params(data, prior_sigma=2.0)
    draws = svi.sample_posterior(500)["mu"]
    assert draws.mean() == pytest.approx(true_mean, abs=0.15)
    assert draws.std() == pytest.approx(true_sd, rel=0.5)
    # ELBO (negative loss) should improve over training.
    assert np.mean(svi.loss_history[-20:]) < np.mean(svi.loss_history[:20])


def test_svi_requires_parameters():
    def model():
        observe(dist.Normal(0.0, 1.0), 0.5)

    def guide():
        pass

    svi = SVI(model, guide)
    with pytest.raises(RuntimeError):
        svi.step()


# ----------------------------------------------------------------------
# importance sampling
# ----------------------------------------------------------------------
def test_importance_sampling_posterior_mean(rng):
    data = rng.normal(0.8, 1.0, size=20)

    def model():
        mu = sample("mu", dist.Normal(0.0, 2.0))
        observe(dist.Normal(mu, 1.0), data, name="y")

    sampler = ImportanceSampling(model, num_samples=4000, seed=0).run()
    true_mean, _ = _posterior_params(data, prior_sigma=2.0)
    assert float(sampler.posterior_mean("mu")) == pytest.approx(true_mean, abs=0.1)
    assert 1.0 < sampler.effective_sample_size() <= 4000
    resampled = sampler.resample(100)
    assert resampled["mu"].shape[0] == 100


def test_importance_weights_normalized(rng):
    def model():
        mu = sample("mu", dist.Normal(0.0, 1.0))
        observe(dist.Normal(mu, 1.0), 0.3, name="y")

    sampler = ImportanceSampling(model, num_samples=200, seed=0).run()
    assert sampler.normalized_weights.sum() == pytest.approx(1.0)


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------
def test_rhat_near_one_for_iid_chains(rng):
    chains = rng.normal(size=(4, 500))
    assert diagnostics.potential_scale_reduction(chains) == pytest.approx(1.0, abs=0.05)


def test_rhat_large_for_divergent_chains(rng):
    chains = np.stack([rng.normal(0, 1, 500), rng.normal(10, 1, 500)])
    assert diagnostics.potential_scale_reduction(chains) > 2.0


def test_ess_close_to_sample_size_for_iid(rng):
    chains = rng.normal(size=(2, 1000))
    ess = diagnostics.effective_sample_size(chains)
    assert ess > 1000


def test_ess_small_for_strongly_autocorrelated(rng):
    x = np.cumsum(rng.normal(size=(1, 2000)), axis=1)
    assert diagnostics.effective_sample_size(x) < 200


def test_accuracy_check_passes_for_identical_samples(rng):
    draws = {"mu": rng.normal(size=500), "theta": rng.normal(size=(500, 3))}
    passed, err = diagnostics.accuracy_check(draws, draws)
    assert passed
    assert err == pytest.approx(0.0, abs=1e-12)


def test_accuracy_check_fails_for_shifted_means(rng):
    ref = {"mu": rng.normal(0, 1, size=500)}
    cand = {"mu": rng.normal(5, 1, size=500)}
    passed, err = diagnostics.accuracy_check(ref, cand)
    assert not passed
    assert err > 1.0


def test_accuracy_check_componentwise(rng):
    ref = {"theta": rng.normal(0, 1, size=(500, 2))}
    cand = {"theta": np.column_stack([ref["theta"][:, 0], ref["theta"][:, 1] + 3.0])}
    passed, _ = diagnostics.accuracy_check(ref, cand)
    assert not passed


def test_summary_structure(rng):
    samples = {"mu": rng.normal(size=(2, 100)), "theta": rng.normal(size=(2, 100, 3))}
    summary = diagnostics.summary(samples)
    assert "mu" in summary and "theta[0]" in summary and "theta[2]" in summary
    assert summary["mu"]["5%"] < summary["mu"]["95%"]


def test_flatten_samples(rng):
    flat = diagnostics.flatten_samples({"a": rng.normal(size=10), "b": rng.normal(size=(10, 2))})
    assert set(flat) == {"a", "b[0]", "b[1]"}


def test_divergent_fit_emits_no_overflow_warning():
    """A divergent NUTS leaf overflows the kinetic energy; the kernel treats
    the non-finite energy as a divergence, so the fit stays quiet."""
    import warnings

    from repro.core import compile_model
    from repro.corpus import models
    from repro.posteriordb import datagen

    model = compile_model(models.get("arK"), name="arK").condition(datagen.ar_data(3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model.fit("nuts", num_warmup=15, num_samples=15, num_chains=4,
                  chain_method="sequential", max_tree_depth=3, seed=3)
    noise = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not noise, noise
