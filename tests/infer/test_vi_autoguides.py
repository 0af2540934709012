"""The autoguide subsystem and the unified VI engine.

Covers every autoguide family on a conjugate model, eight-schools
(non-centered, constrained scales) and the Fig. 10 multimodal-guide corpus
model; bitwise stability of mean-field ADVI (``VI`` with ``AutoNormal``);
PSIS k-hat guide ranking on a correlated posterior; and the
``fit("vi", ...)`` result API.
"""

import numpy as np
import pytest

from repro import compile_model
from repro.corpus import models as corpus_models
from repro.guides import (
    AutoDelta,
    AutoLowRankMultivariateNormal,
    AutoMultivariateNormal,
    AutoNormal,
    AutoNeural,
    GuideSetupError,
    autoguide_names,
    get_autoguide,
)
from repro.infer import MCMC, NUTS, SVI, VI, make_potential
from repro.posteriordb import get as pdb_get
from repro.ppl import distributions as dist
from repro.ppl import handlers, primitives
from repro.ppl.primitives import observe, param, sample

FAMILIES = ("auto_delta", "auto_normal", "auto_mvn", "auto_lowrank", "auto_neural")


def conjugate_model(data):
    mu = sample("mu", dist.Normal(0.0, 2.0))
    observe(dist.Normal(mu, 1.0), data, name="y")


def _conjugate_posterior(data, prior_sigma=2.0, noise=1.0):
    n = len(data)
    precision = 1 / prior_sigma ** 2 + n / noise ** 2
    mean = (data.sum() / noise ** 2) / precision
    return mean, np.sqrt(1 / precision)


# ----------------------------------------------------------------------
# guide registry
# ----------------------------------------------------------------------
def test_registry_resolves_families_and_aliases():
    """Each family has one name, its ``auto_*`` name; an alias raises."""
    assert sorted(autoguide_names()) == sorted(FAMILIES)
    assert isinstance(get_autoguide("auto_delta"), AutoDelta)
    assert isinstance(get_autoguide("auto_normal"), AutoNormal)
    assert isinstance(get_autoguide("auto_mvn"), AutoMultivariateNormal)
    assert isinstance(get_autoguide("auto_lowrank", rank=2), AutoLowRankMultivariateNormal)
    assert isinstance(get_autoguide("auto_neural"), AutoNeural)
    with pytest.raises(ValueError):
        get_autoguide("auto_bogus")
    with pytest.raises(ValueError):
        get_autoguide("meanfield")


def test_guide_rejects_dim_mismatch(rng):
    data = rng.normal(size=10)
    guide = AutoNormal().setup(make_potential(conjugate_model, data))

    def two_site_model():
        sample("a", dist.Normal(0.0, 1.0))
        sample("b", dist.Normal(0.0, 1.0))

    with pytest.raises(GuideSetupError):
        guide.setup(make_potential(two_site_model))


# ----------------------------------------------------------------------
# every family recovers a unimodal posterior (vs the NUTS reference)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
def test_family_matches_nuts_on_conjugate_model(family, rng):
    data = rng.normal(1.2, 1.0, size=40)
    true_mean, true_sd = _conjugate_posterior(data)

    nuts = MCMC(NUTS(make_potential(conjugate_model, data), max_tree_depth=6),
                num_warmup=200, num_samples=300, seed=0).run()
    nuts_mean = float(nuts.get_samples()["mu"].mean())
    assert nuts_mean == pytest.approx(true_mean, abs=0.1)

    lr, steps, tol = (0.02, 1200, 0.3) if family == "auto_neural" else (0.1, 400, 0.2)
    vi = VI(make_potential(conjugate_model, data), guide=family,
            learning_rate=lr, seed=0).run(steps)
    draws = vi.posterior_draws(600)["mu"]
    assert float(np.mean(draws)) == pytest.approx(nuts_mean, abs=tol)
    if family != "auto_delta":  # a point mass has no spread
        assert float(np.std(draws)) == pytest.approx(true_sd, rel=0.5)
    # ELBO improves over the initial guide.
    assert np.mean(vi.elbo_history[-20:]) > vi.elbo_history[0]


def test_auto_delta_finds_posterior_mode(rng):
    data = rng.normal(0.5, 1.0, size=30)
    true_mean, _ = _conjugate_posterior(data)  # Gaussian: mode == mean
    vi = VI(make_potential(conjugate_model, data), guide="auto_delta",
            learning_rate=0.1, seed=0).run(400)
    draws = vi.posterior_draws(5)["mu"]
    assert np.ptp(draws) == 0.0  # point mass
    assert float(draws[0]) == pytest.approx(true_mean, abs=0.05)
    with pytest.raises(RuntimeError):
        vi.psis_diagnostic(num_samples=50)
    assert vi.diagnostics(num_psis_samples=50)["khat"] is None


# ----------------------------------------------------------------------
# eight schools: non-centered parameterisation, constrained scale (tau > 0)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
def test_family_on_eight_schools(family):
    entry = pdb_get("eight_schools_noncentered-eight_schools")
    compiled = compile_model(entry.source, backend="numpyro", scheme="comprehensive")
    lr, steps = (0.02, 500) if family == "auto_neural" else (0.1, 300)
    vi = compiled.condition(entry.data()).fit("vi", guide=family, num_steps=steps,
                                              learning_rate=lr, seed=0)
    draws = vi.posterior_draws(200)
    assert draws["mu"].shape == (200,)
    assert draws["tau"].shape == (200,)
    assert draws["theta_trans"].shape == (200, 8)
    assert np.all(draws["tau"] > 0)  # the constraining transform is applied
    assert np.mean(vi.elbo_history[-20:]) > vi.elbo_history[0]
    if family != "auto_delta":
        # Mean-field-or-richer families land near the NUTS posterior mean of
        # mu (about 4.4 for this data) and report a finite k-hat.
        assert float(draws["mu"].mean()) == pytest.approx(4.4, abs=2.0)
        assert np.isfinite(vi.psis_diagnostic(num_samples=300).khat)


# ----------------------------------------------------------------------
# mean-field ADVI (VI over AutoNormal) is bitwise-stable
# ----------------------------------------------------------------------
def _legacy_advi(potential, learning_rate, num_elbo_samples, seed, num_steps,
                 num_posterior):
    """The pre-refactor mean-field ADVI loop, frozen for bitwise comparison."""
    rng = np.random.default_rng(seed)
    dim = potential.dim
    loc = np.zeros(dim)
    log_scale = np.full(dim, -1.0)
    elbo_history = []
    m_loc, v_loc = np.zeros(dim), np.zeros(dim)
    m_ls, v_ls = np.zeros(dim), np.zeros(dim)
    beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
    for t in range(1, num_steps + 1):
        eps = rng.standard_normal((num_elbo_samples, dim))
        scale = np.exp(log_scale)
        z = loc + scale * eps
        neg_logp, grad_z = potential.potential_and_grad_batched(z)
        elbo_history.append(float(np.mean(-neg_logp)) + float(np.sum(log_scale)))
        g_loc = -grad_z.mean(axis=0)
        g_ls = (-grad_z * scale * eps).mean(axis=0) + 1.0
        for (g, m, v, which) in ((g_loc, m_loc, v_loc, "loc"), (g_ls, m_ls, v_ls, "ls")):
            m[:] = beta1 * m + (1 - beta1) * g
            v[:] = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1 ** t)
            v_hat = v / (1 - beta2 ** t)
            step = learning_rate * m_hat / (np.sqrt(v_hat) + eps_adam)
            if which == "loc":
                loc = loc + step
            else:
                log_scale = log_scale + step
    scale = np.exp(log_scale)
    z = loc + scale * rng.standard_normal((num_posterior, dim))
    return loc, log_scale, elbo_history, dict(potential.constrained_dict_batched(z))


@pytest.mark.parametrize("num_elbo_samples", [1, 4])
def test_advi_bitwise_matches_legacy_implementation(num_elbo_samples, rng):
    data = rng.normal(1.0, 2.0, size=30)

    def model():
        mu = sample("mu", dist.Normal(0.0, 5.0))
        sigma = sample("sigma", dist.ImproperUniform(lower=0.0))
        observe(dist.Normal(mu, sigma), data, name="y")

    loc, log_scale, elbos, legacy_draws = _legacy_advi(
        make_potential(model), learning_rate=0.07,
        num_elbo_samples=num_elbo_samples, seed=7, num_steps=120, num_posterior=100)

    advi = VI(make_potential(model), guide=AutoNormal(), learning_rate=0.07,
              num_particles=num_elbo_samples, seed=7).run(120)
    assert np.array_equal(advi.guide.loc, loc)
    assert np.array_equal(advi.guide.log_scale, log_scale)
    assert advi.elbo_history == elbos
    draws = advi.posterior_draws(100)
    assert all(np.array_equal(draws[k], legacy_draws[k]) for k in legacy_draws)


def test_fit_vi_defaults_to_mean_field_advi(coin_source, coin_data):
    # fit("vi") with no guide is mean-field ADVI: AutoNormal at its default
    # learning rate (0.05) and one ELBO particle
    compiled = compile_model(coin_source, backend="numpyro", scheme="comprehensive")
    fit = compiled.condition(coin_data).fit("vi", num_steps=60, seed=3)
    assert isinstance(fit.guide, AutoNormal)
    assert (fit.learning_rate, fit.num_particles) == (0.05, 1)
    advi = VI(compiled.potential(coin_data, rng_seed=3), guide=AutoNormal(),
              learning_rate=0.05, num_particles=1, seed=3).run(60)
    assert np.array_equal(fit.guide.loc, advi.guide.loc)
    assert np.array_equal(fit.guide.log_scale, advi.guide.log_scale)
    assert fit.elbo_history == advi.elbo_history


# ----------------------------------------------------------------------
# guide log densities (constrained space, change of variables)
# ----------------------------------------------------------------------
def test_guide_log_density_change_of_variables(rng):
    data = rng.normal(1.0, 1.0, size=25)

    def model():
        mu = sample("mu", dist.Normal(0.0, 5.0))
        sigma = sample("sigma", dist.ImproperUniform(lower=0.0))
        observe(dist.Normal(mu, sigma), data, name="y")

    vi = VI(make_potential(model), guide="auto_normal", learning_rate=0.1,
            seed=0).run(200)
    g = vi.guide
    mu_val, sigma_val = 1.1, 0.8
    got = vi.guide_log_density({"mu": mu_val, "sigma": sigma_val})
    # q(mu, sigma) = N(z; loc, scale) / sigma with z = (mu, log sigma).
    z = np.array([mu_val, np.log(sigma_val)])
    scale = np.exp(g.log_scale)
    expected = (-0.5 * np.sum(((z - g.loc) / scale) ** 2)
                - np.sum(g.log_scale) - np.log(2 * np.pi)
                - np.log(sigma_val))
    assert got == pytest.approx(expected)
    # Batched input returns one value per row.
    batch = {"mu": np.array([0.5, 1.5]), "sigma": np.array([0.5, 2.0])}
    out = vi.guide_log_density(batch)
    assert out.shape == (2,)


def test_guide_sample_and_posterior_draws_shapes(rng):
    data = rng.normal(size=15)
    vi = VI(make_potential(conjugate_model, data), guide="auto_mvn", seed=0).run(50)
    single = vi.guide_sample()
    assert np.shape(single["mu"]) == ()
    many = vi.guide_sample(num_samples=7)
    assert many["mu"].shape == (7,)


# ----------------------------------------------------------------------
# PSIS k-hat ranks guide families on a correlated posterior
# ----------------------------------------------------------------------
def test_khat_orders_meanfield_vs_fullrank_on_correlated_posterior(rng):
    def corr_model():
        a = sample("a", dist.Normal(0.0, 1.0))
        b = sample("b", dist.Normal(0.0, 1.0))
        observe(dist.Normal(a - b, 0.15), 0.0, name="y")

    khats = {}
    for family in ("auto_normal", "auto_mvn"):
        vi = VI(make_potential(corr_model), guide=family, learning_rate=0.05,
                seed=0).run(1200)
        khats[family] = vi.psis_diagnostic(num_samples=1000).khat
    # The full-rank family can represent the (a, b) correlation; mean-field
    # cannot, and its importance ratios against the joint are heavier-tailed.
    assert khats["auto_mvn"] < khats["auto_normal"]
    assert khats["auto_mvn"] < 0.7


# ----------------------------------------------------------------------
# multimodal corpus model: the Fig. 10 contrast through fit("vi")
# ----------------------------------------------------------------------
def test_multimodal_meanfield_vs_explicit_guide():
    plain = compile_model(corpus_models.get("multimodal"), backend="numpyro",
                          scheme="comprehensive", name="multimodal")
    mf = plain.condition({}).fit("vi", guide="auto_normal", num_steps=800,
                                 learning_rate=0.05, seed=0)
    theta_mf = mf.posterior_draws(300)["theta"]

    guided = compile_model(corpus_models.get("multimodal_guide"), backend="pyro",
                           scheme="comprehensive", name="multimodal_guide")
    ex = guided.condition({}).fit("vi", guide="explicit", num_steps=1500,
                                  learning_rate=0.05, seed=0)
    theta_ex = ex.posterior_draws(300)["theta"]

    def mass_near(draws, mode, radius=5.0):
        return float(np.mean(np.abs(np.asarray(draws).reshape(-1) - mode) < radius))

    # The explicit two-component guide puts real mass at both true modes; the
    # mean-field autoguide is a single Gaussian and cannot.
    assert mass_near(theta_ex, 0.0) > 0.15 and mass_near(theta_ex, 20.0) > 0.15
    assert not (mass_near(theta_mf, 0.0) > 0.15 and mass_near(theta_mf, 20.0) > 0.15)
    # The PSIS k-hat diagnostic reports the same contrast quantitatively
    # (>= 600 draws: the k-hat estimator is noisy on short weight vectors).
    khat_mf = mf.psis_diagnostic(num_samples=400).khat
    khat_ex = ex.psis_diagnostic(num_samples=600).khat
    assert khat_ex < 0.7 < khat_mf
    # Both engines expose per-step ELBO histories through the same API.
    assert len(mf.elbo_history) == 800
    assert len(ex.elbo_history) == 1500
    assert len(ex.losses) == 1500


def test_run_vi_accepts_guide_instances_and_callables(rng, coin_source, coin_data):
    compiled = compile_model(coin_source, backend="numpyro", scheme="comprehensive")
    model = compiled.condition(coin_data)
    vi = model.fit("vi", guide=AutoLowRankMultivariateNormal(rank=1),
                   num_steps=100, seed=0)
    assert vi.guide.rank == 1
    assert 0.0 < float(vi.posterior_draws(100)["z"].mean()) < 1.0

    # A hand-written callable guide goes through the explicit (SVI) engine.
    def my_guide():
        loc = param("z_loc", 0.0)
        sample("z", dist.Beta(np.exp(loc) + 1e-3, 1.0))

    evi = model.fit("vi", guide=my_guide, num_steps=50, seed=0)
    assert len(evi.elbo_history) == 50


def test_explicit_vi_result_survives_param_store_clear(coin_source, coin_data):
    from repro.ppl import primitives

    compiled = compile_model(coin_source, backend="numpyro", scheme="comprehensive")

    def my_guide():
        loc = param("z_loc", 0.0)
        sample("z", dist.Beta(np.exp(float(loc.data)) + 1e-3, 1.0))

    evi = compiled.condition(coin_data).fit("vi", guide=my_guide, num_steps=30, seed=0)
    fitted = float(primitives.get_param_store()["z_loc"].data)
    # A later fit (or anything else) may clear the global store; the fitted
    # engine must restore its own parameters before using the guide.
    primitives.clear_param_store()
    evi.guide_sample()
    assert float(primitives.get_param_store()["z_loc"].data) == fitted


def _multimodal_guided():
    return compile_model(corpus_models.get("multimodal_guide"), backend="pyro",
                         scheme="comprehensive", name="multimodal_guide").condition({})


def test_explicit_fits_return_the_svi_they_trained(coin_source, coin_data):
    guided = _multimodal_guided()
    svi = guided.fit("svi", num_steps=3, seed=0)
    explicit = guided.fit("vi", guide="explicit", num_steps=3, seed=0)
    assert type(svi) is SVI and type(explicit) is SVI
    # the default learning rates of the two spellings
    assert (svi.learning_rate, explicit.learning_rate) == (0.01, 0.05)
    assert explicit.posterior.metadata["guide"] == "explicit"
    assert explicit.psis_diagnostic().num_samples == 500

    def my_guide():
        loc = param("z_loc", 0.0)
        sample("z", dist.Beta(np.exp(float(loc.data)) + 1e-3, 1.0))

    evi = compile_model(coin_source).condition(coin_data).fit(
        "vi", guide=my_guide, num_steps=3, seed=0)
    assert type(evi) is SVI and evi.guide is my_guide
    # "explicit" is the explicit guide's only name
    with pytest.raises(ValueError):
        guided.fit("vi", guide="deepstan", num_steps=1)


def test_explicit_psis_weights_are_guide_traces_against_the_model():
    """PSIS of an explicit guide weights each guide trace by
    ``log p - log q``, with ``log p`` from ``handlers.log_density``."""
    from repro.infer.importance import pareto_smoothed_log_weights

    fit = _multimodal_guided().fit("vi", guide="explicit", num_steps=50, seed=4)
    psis = fit.psis_diagnostic(seed=11)
    rng = np.random.default_rng(11)
    raw = np.empty(psis.num_samples)
    for i in range(psis.num_samples):
        tracer = handlers.trace()
        with handlers.seed(rng_seed=rng), tracer:
            fit.guide()
        log_q, values = 0.0, {}
        for name, site in handlers.latent_sites(tracer.trace).items():
            log_q += float(np.sum(site["fn"].log_prob(site["value"]).data))
            values[name] = np.array(site["value"].data, dtype=float)
        log_p, _ = handlers.log_density(fit.model, substituted=values)
        raw[i] = float(log_p.data) - log_q
    smoothed, khat = pareto_smoothed_log_weights(raw)
    np.testing.assert_array_equal(psis.log_weights, smoothed)
    assert psis.khat == khat


def test_svi_num_particles_reports_the_mean_of_trace_elbo_particles():
    """The loss of ``SVI(num_particles=k)`` is the mean of k paired
    guide/model trace losses drawn in turn from the SVI's stream."""
    data = np.random.default_rng(0).normal(1.0, 1.0, size=20)

    def model():
        mu = sample("mu", dist.Normal(0.0, 2.0))
        observe(dist.Normal(mu, 1.0), data, name="y")

    def guide():
        loc = param("loc", 0.3)
        sample("mu", dist.Normal(loc, 0.5))

    primitives.clear_param_store()
    param("loc", 0.3)  # created before the step, so it is not jittered
    rng = np.random.default_rng(5)
    total = 0.0
    for _ in range(3):
        guide_tracer = handlers.trace()
        with handlers.seed(rng_seed=rng), guide_tracer:
            guide()
        model_tracer = handlers.trace()
        with handlers.seed(rng_seed=rng), \
                handlers.replay(guide_trace=guide_tracer.trace), model_tracer:
            model()
        total += float(handlers.trace_log_density(guide_tracer.trace).data) \
            - float(handlers.trace_log_density(model_tracer.trace).data)
    svi = SVI(model, guide, num_particles=3, seed=5)
    assert svi.step() == total / 3
    assert svi.losses == [total / 3]


# ----------------------------------------------------------------------
# SVI satellite: losses alias and seed-deterministic initialisation
# ----------------------------------------------------------------------
def test_svi_losses_alias_and_deterministic_init(rng):
    data = rng.normal(1.0, 1.0, size=30)

    def model():
        mu = sample("mu", dist.Normal(0.0, 2.0))
        observe(dist.Normal(mu, 1.0), data, name="y")

    def guide():
        loc = param("loc", 0.0)
        sample("mu", dist.Normal(loc, 0.5))

    from repro.ppl import primitives

    def run(seed):
        primitives.clear_param_store()
        svi = SVI(model, guide, learning_rate=0.05, seed=seed)
        svi.run(40)
        return svi, float(primitives.get_param_store()["loc"].data)

    svi_a, loc_a = run(seed=0)
    _, loc_a2 = run(seed=0)
    _, loc_b = run(seed=1)
    assert svi_a.losses is svi_a.loss_history
    assert svi_a.elbo_history == [-loss for loss in svi_a.loss_history]
    assert len(svi_a.losses) == 40
    assert loc_a == loc_a2          # same seed: identical trajectory
    assert loc_a != loc_b           # different seed: different jittered init
