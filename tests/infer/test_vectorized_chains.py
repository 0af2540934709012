"""Vectorized multi-chain engine: equivalence with the sequential oracle.

The vectorized chain method must be a pure performance optimisation: for a
fixed seed it has to produce exactly the draws, sampler statistics and
diagnostics of the sequential path, on models that batch (the fast path) and
on models that fall back to the per-chain row loop.
"""

import functools

import numpy as np
import pytest

from repro import compile_model
from repro.corpus import models
from repro.guides import AutoNormal
from repro.infer import HMC, MCMC, NUTS, VI, make_potential
from repro.ppl import distributions as dist
from repro.ppl.primitives import observe, sample

EIGHT_SCHOOLS_DATA = {
    "J": 8,
    "y": np.array([28.0, 8.0, -3.0, 7.0, -1.0, 1.0, 18.0, 12.0]),
    "sigma": np.array([15.0, 10.0, 16.0, 11.0, 9.0, 11.0, 10.0, 18.0]),
}


def batched_tiers(pot):
    """Width -> tier of every batched classification (or demotion) ``pot``
    recorded, read from its decision records."""
    return {d["key"]: d["tier"] for d in pot.decisions() if d["path"] == "batched"}


def batched_decisions(pot):
    """Widths of ``pot``'s batched decision records, oldest first."""
    return [d["key"] for d in pot.decisions() if d["path"] == "batched"]


def _eight_schools_potential():
    compiled = compile_model(models.get("eight_schools_centered"), backend="numpyro",
                             scheme="comprehensive")
    return compiled.potential(EIGHT_SCHOOLS_DATA)


# ----------------------------------------------------------------------
# batched potential evaluation
# ----------------------------------------------------------------------
def test_batched_potential_matches_rowwise_eight_schools():
    pot = _eight_schools_potential()
    rng = np.random.default_rng(0)
    z = rng.uniform(-1.0, 1.0, size=(5, pot.dim))
    values, grads = pot.potential_and_grad_batched(z)
    values2, grads2 = pot.potential_and_grad_batched(z)  # second call: fast path
    assert batched_tiers(pot)[5] == "fast"
    for i in range(5):
        u, g = pot.potential_and_grad(z[i])
        assert values[i] == pytest.approx(u)
        assert values2[i] == pytest.approx(u)
        np.testing.assert_allclose(grads[i], g)
        np.testing.assert_allclose(grads2[i], g)


def test_batched_potential_falls_back_for_unbatchable_model():
    compiled = compile_model(models.get("multimodal"), backend="numpyro",
                             scheme="comprehensive")
    pot = compiled.potential({})
    z = np.array([[1.0, 2.0], [-1.0, 0.5], [0.3, -0.2]])
    values, grads = pot.potential_and_grad_batched(z)
    assert batched_tiers(pot)[3] == "loop"
    for i in range(3):
        u, g = pot.potential_and_grad(z[i])
        assert values[i] == pytest.approx(u)
        np.testing.assert_allclose(grads[i], g)


def test_branch_on_reduced_parameter_falls_back():
    """A branch on sum(theta) must not silently mix chains (regression).

    The per-chain reduction keeps the chain axis, so the control-flow guard
    trips and the model takes the row loop — even when every chain happens to
    sit on the same side of the branch at validation time.
    """
    source = """
    data { int<lower=0> N; vector[N] y; }
    parameters { vector[2] theta; }
    model {
      theta ~ normal(0, 1);
      if (sum(theta) > 0)
        y ~ normal(theta[1], 0.5);
      else
        y ~ normal(-theta[1], 0.5);
    }
    """
    compiled = compile_model(source, backend="numpyro", scheme="comprehensive")
    pot = compiled.potential({"N": 4, "y": np.array([0.5, 0.4, 0.6, 0.5])})
    same_side = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.2]])
    pot.potential_and_grad_batched(same_side)
    assert batched_tiers(pot)[3] == "loop"
    straddling = np.array([[1.0, 1.0], [-2.0, -2.0], [0.5, 0.2]])
    values, grads = pot.potential_and_grad_batched(straddling)
    for i in range(3):
        u, g = pot.potential_and_grad(straddling[i])
        assert values[i] == pytest.approx(u)
        np.testing.assert_allclose(grads[i], g)


def test_sum_statement_batches_per_chain():
    """sum(phi) ~ normal(...) reduces per chain and stays on the fast path."""
    compiled = compile_model(models.get("left_expression_example"), backend="numpyro",
                             scheme="comprehensive")
    pot = compiled.potential({"N": 5, "y": np.zeros(5)})
    z = np.random.default_rng(0).normal(size=(4, pot.dim))
    pot.potential_and_grad_batched(z)
    assert batched_tiers(pot)[4] == "fast"
    values, _ = pot.potential_and_grad_batched(z)
    for i in range(4):
        assert values[i] == pytest.approx(pot.potential_and_grad(z[i])[0])


def test_batched_constrained_dict_matches_rowwise():
    pot = _eight_schools_potential()
    z = np.random.default_rng(1).normal(size=(4, pot.dim))
    batched = pot.constrained_dict_batched(z)
    for i in range(4):
        row = pot.constrained_dict(z[i])
        for name, value in row.items():
            np.testing.assert_allclose(batched[name][i], value)


def test_constrained_dict_batched_check_catches_one_perturbed_row(monkeypatch):
    """The first-call check compares each site's stacked rows at once; one
    perturbed row in one site must still select the row loop."""
    pot = _eight_schools_potential()
    z = np.random.default_rng(3).normal(size=(5, pot.dim))
    original = pot.constrain_batched

    def perturbed(zt):
        constrained, log_det = original(zt)
        constrained["tau"].data[2] += 1e-3
        return constrained, log_det

    monkeypatch.setattr(pot, "constrain_batched", perturbed)
    batched = pot.constrained_dict_batched(z)
    assert [d["tier"] for d in pot.decisions()
            if d["path"] == "constrain"] == ["rows"]
    for i in range(5):
        for name, value in pot.constrained_dict(z[i]).items():
            np.testing.assert_array_equal(batched[name][i], value)


def test_constrained_dict_batched_check_is_relative_for_small_sites(monkeypatch):
    """The constrain check holds each value to (rtol 1e-8, atol 1e-10): a
    site near 1e-3 that the batched constrain moves by 1e-9 (a millionth of
    its value) must still select the row loop."""

    def small_scale():
        sample("s", dist.LogNormal(-7.0, 0.01))

    pot = make_potential(small_scale)
    z = np.random.default_rng(4).normal(-7.0, 0.01, size=(3, pot.dim))
    original = pot.constrain_batched

    def perturbed(zt):
        constrained, log_det = original(zt)
        constrained["s"].data[1] += 1e-9
        return constrained, log_det

    monkeypatch.setattr(pot, "constrain_batched", perturbed)
    batched = pot.constrained_dict_batched(z)
    assert [d["tier"] for d in pot.decisions()
            if d["path"] == "constrain"] == ["rows"]
    for i in range(3):
        np.testing.assert_array_equal(batched["s"][i], pot.constrained_dict(z[i])["s"])


def test_binary_log_sum_exp_reduces_per_chain():
    """``log_sum_exp(a, b)`` over derived per-chain terms (sums that lost the
    ``is_batched`` flag) reduces each chain on its own."""
    from repro.autodiff import Tensor
    from repro.backends.runtime import _call
    from repro.ppl.primitives import FastLogDensityContext

    leaf = Tensor(np.random.default_rng(4).normal(size=(3, 1)), requires_grad=True)
    a, b = leaf + 1.0, leaf * 2.0 - 0.5
    for args in ((a, b), (0.0, a)):  # a plain scalar broadcasts per chain
        with FastLogDensityContext(batch_size=3):
            out = _call("log_sum_exp", *args)
        assert out.data.shape == (3, 1) and out.is_batched
        expected = [_call("log_sum_exp", *(x.data[i, 0] if isinstance(x, Tensor)
                                           else x for x in args)).data
                    for i in range(3)]
        np.testing.assert_array_equal(out.data[:, 0], expected)


@pytest.mark.parametrize("name", ["eight_schools_noncentered", "gauss_mix_marginal"])
def test_interpreted_value_path_keeps_per_chain_rules(name):
    """The interpreted value-only batched path records the graph like the
    validated gradient tape: under no_grad a derived per-chain cell write
    raised (demoting the width) and a derived ``log_sum_exp`` mixed chains."""
    from repro.posteriordb import datagen

    data = (EIGHT_SCHOOLS_DATA if name == "eight_schools_noncentered"
            else datagen.gauss_mix_enum_data(1, n=16))
    pot = compile_model(models.get(name)).condition(data).potential(
        0, engine="interpreted")
    rng = np.random.default_rng(6)
    pot.potential_and_grad_batched(rng.normal(size=(4, pot.dim)))
    z = rng.normal(size=(6, pot.dim))
    np.testing.assert_array_equal(pot.potential_batched(z),
                                  [pot.potential(zi) for zi in z])
    assert batched_tiers(pot) == {4: "fast"}


# ----------------------------------------------------------------------
# vectorized vs sequential chains
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _run_eight_schools(chain_method, kernel_cls=NUTS, num_chains=3, fresh=0):
    """Run (and memoise) an eight-schools MCMC; ``fresh`` busts the cache."""
    pot = _eight_schools_potential()
    if kernel_cls is NUTS:
        kernel = NUTS(pot, max_tree_depth=6)
    else:
        kernel = HMC(pot, num_steps=8)
    return MCMC(kernel, num_warmup=60, num_samples=40, num_chains=num_chains,
                seed=7, chain_method=chain_method).run()


@pytest.mark.slow
@pytest.mark.parametrize("kernel_cls", [NUTS, HMC])
def test_vectorized_matches_sequential_eight_schools(kernel_cls):
    seq = _run_eight_schools("sequential", kernel_cls)
    vec = _run_eight_schools("vectorized", kernel_cls)
    seq_draws = seq.get_samples(group_by_chain=True)
    vec_draws = vec.get_samples(group_by_chain=True)
    assert set(seq_draws) == set(vec_draws)
    for name in seq_draws:
        np.testing.assert_allclose(vec_draws[name], seq_draws[name], atol=1e-12,
                                   err_msg=f"site {name} diverged between chain methods")
    seq_stats = seq.get_extra_fields(group_by_chain=True)
    vec_stats = vec.get_extra_fields(group_by_chain=True)
    for key in ("accept_prob", "step_size", "divergent"):
        np.testing.assert_allclose(vec_stats[key], seq_stats[key], atol=1e-12)


def test_vectorized_matches_sequential_corpus_model():
    source = models.get("kilpisjarvi")
    data = {"N": 12, "x": np.linspace(0.0, 1.0, 12), "y": np.linspace(1.0, 3.0, 12),
            "pmualpha": 0.0, "psalpha": 10.0, "pmubeta": 0.0, "psbeta": 10.0}

    def run(chain_method):
        compiled = compile_model(source, backend="numpyro", scheme="comprehensive")
        return compiled.condition(data).fit(
            "nuts", num_warmup=50, num_samples=30, num_chains=4, seed=3,
            max_tree_depth=6, chain_method=chain_method)

    seq = run("sequential").get_samples(group_by_chain=True)
    vec = run("vectorized").get_samples(group_by_chain=True)
    for name in seq:
        np.testing.assert_allclose(vec[name], seq[name], atol=1e-12)


def test_vectorized_matches_sequential_on_fallback_model():
    """Models that cannot batch still sample identically via the row loop."""

    def run(chain_method):
        compiled = compile_model(models.get("multimodal"), backend="numpyro",
                                 scheme="comprehensive")
        return compiled.condition({}).fit(
            "nuts", num_warmup=40, num_samples=20, num_chains=2, seed=11,
            max_tree_depth=5, chain_method=chain_method)

    seq = run("sequential").get_samples(group_by_chain=True)
    vec = run("vectorized").get_samples(group_by_chain=True)
    for name in seq:
        np.testing.assert_allclose(vec[name], seq[name], atol=1e-12)


def test_diagnostics_agree_across_chain_methods():
    seq = _run_eight_schools("sequential").summary()
    vec = _run_eight_schools("vectorized").summary()
    assert set(seq) == set(vec)
    for name in seq:
        assert vec[name]["r_hat"] == pytest.approx(seq[name]["r_hat"], nan_ok=True)
        assert vec[name]["n_eff"] == pytest.approx(seq[name]["n_eff"], nan_ok=True)


# ----------------------------------------------------------------------
# seeding
# ----------------------------------------------------------------------
def test_same_seed_reproduces_draws():
    a = _run_eight_schools("vectorized").get_samples(group_by_chain=True)
    b = _run_eight_schools("vectorized", fresh=1).get_samples(group_by_chain=True)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


@pytest.mark.slow
def test_chain_streams_independent_of_chain_count():
    """Chain c's stream depends only on (seed, c): prefix chains are identical."""
    two = _run_eight_schools("sequential", num_chains=2).get_samples(group_by_chain=True)
    three = _run_eight_schools("sequential", num_chains=3).get_samples(group_by_chain=True)
    for name in two:
        np.testing.assert_array_equal(three[name][:2], two[name])


def test_chain_method_validation():
    pot = _eight_schools_potential()
    with pytest.raises(ValueError):
        MCMC(NUTS(pot), num_warmup=10, num_samples=10, chain_method="parallel")


def test_custom_mass_matrix_preserved_across_chains():
    """adapt_mass_matrix=False keeps a user-configured matrix in both methods."""
    custom = None

    def run(chain_method):
        nonlocal custom
        pot = _eight_schools_potential()
        kernel = HMC(pot, num_steps=5, adapt_mass_matrix=False)
        custom = np.full(pot.dim, 0.25)
        kernel.inv_mass = custom.copy()
        mcmc = MCMC(kernel, num_warmup=20, num_samples=15, num_chains=2, seed=4,
                    chain_method=chain_method).run()
        assert np.array_equal(kernel.inv_mass, custom)
        return mcmc.get_samples(group_by_chain=True)

    seq = run("sequential")
    vec = run("vectorized")
    for name in seq:
        np.testing.assert_array_equal(vec[name], seq[name])


# ----------------------------------------------------------------------
# ADVI (VI over AutoNormal) batched ELBO draws
# ----------------------------------------------------------------------
def test_advi_multi_sample_elbo_uses_batched_path():
    data = np.random.default_rng(0).normal(1.0, 1.0, size=30)

    def model():
        mu = sample("mu", dist.Normal(0.0, 2.0))
        observe(dist.Normal(mu, 1.0), data, name="y")

    pot = make_potential(model)
    advi = VI(pot, guide=AutoNormal(), learning_rate=0.1, num_particles=4,
              seed=0).run(200)
    assert batched_tiers(pot).get(4) == "fast"
    draws = advi.posterior_draws(300)["mu"]
    n = len(data)
    true_mean = (data.sum() / 1.0) / (1 / 4.0 + n)
    assert draws.mean() == pytest.approx(true_mean, abs=0.2)


# ----------------------------------------------------------------------
# one classified width serves every batch size
# ----------------------------------------------------------------------
def _width_reuse_potential(name):
    from repro.posteriordb import datagen

    if name == "eight_schools_centered":
        return _eight_schools_potential()
    if name == "multimodal":
        return compile_model(models.get(name)).potential({})
    if name == "gauss_mix_marginal":  # per-chain binary log_sum_exp batches
        return compile_model(models.get(name)).potential(
            datagen.gauss_mix_enum_data(1, n=16))
    return compile_model(models.get(name), enum="auto").condition(
        datagen.hmm_k_data(0, t=12)).potential(0)


@pytest.mark.parametrize("name, tier", [
    ("eight_schools_centered", "fast"),
    ("gauss_mix_marginal", "fast"),
    ("multimodal", "loop"),
    ("hmm_k_enum", "value_fast"),
])
def test_one_width_serves_every_batch_size(name, tier):
    """After a 4-row call, smaller batches are padded up to width 4 and
    larger ones split into 4-row blocks — bitwise equal to per-row
    evaluation, with no second classification."""
    pot = _width_reuse_potential(name)
    z0 = pot.initial_unconstrained()
    rng = np.random.default_rng(2)
    pot.potential_and_grad_batched(z0 + 0.1 * rng.normal(size=(4, pot.dim)))
    assert batched_tiers(pot) == {4: tier}
    for c in (2, 3, 5, 9):
        z = z0 + 0.3 * rng.normal(size=(c, pot.dim))
        values, grads = pot.potential_and_grad_batched(z)
        rows = [pot.potential_and_grad(zi) for zi in z]
        np.testing.assert_array_equal(values, [u for u, _ in rows])
        np.testing.assert_array_equal(grads, np.array([g for _, g in rows]))
        np.testing.assert_array_equal(pot.potential_batched(z), values)
        assert pot.eval_tier(c).split()[1] == f"vec:{tier}"
    z = z0 + 0.3 * rng.normal(size=(1000, pot.dim))
    np.testing.assert_array_equal(pot.potential_batched(z),
                                  [pot.potential(zi) for zi in z])
    assert batched_decisions(pot) == [4]
    assert batched_tiers(pot) == {4: tier}
    # 2 + 1 + 3 + 3 rows pad each batched pass over c in (2, 3, 5, 9):
    # values and gradients on "fast", values only on "value_fast"
    padded = {"fast": 18, "value_fast": 9, "loop": 0}[tier]
    assert pot.metrics.value("batched.padded_rows") == padded


def test_vectorized_fit_keeps_one_batched_tape():
    """Straggler batches (3, 2 rows) reuse the 4-row tape of a vectorized
    fit, and the draws stay identical to the sequential chain method."""
    from repro.posteriordb import datagen

    compiled = compile_model(models.get("gauss_mix_marginal"))
    data = datagen.gauss_mix_enum_data(1, n=16)
    draws, pots = {}, {}
    for chain_method in ("sequential", "vectorized"):
        pots[chain_method] = pot = compiled.potential(data)
        mcmc = MCMC(NUTS(pot, max_tree_depth=4), num_warmup=15, num_samples=10,
                    num_chains=4, seed=5, chain_method=chain_method).run()
        draws[chain_method] = mcmc.get_samples(group_by_chain=True)
    for site, value in draws["sequential"].items():
        np.testing.assert_array_equal(draws["vectorized"][site], value)
    vec = pots["vectorized"]
    assert batched_decisions(pots["sequential"]) + batched_decisions(vec) == [4]
    assert batched_tiers(vec) == {4: "fast"}
    batched_keys = [key for key in vec.metrics_view()["tape_modes"]
                    if key.startswith("batched-")]
    assert batched_keys == ["batched-4"]
    assert vec.metrics.value("batched.padded_rows") > 0


def test_psis_after_vi_fit_runs_no_classification():
    """A 1000-draw PSIS diagnostic after a 4-particle VI fit is served by
    the fit's width in 4-row blocks instead of classifying 1000 rows."""
    compiled = compile_model(models.get("eight_schools_noncentered"))
    vi = compiled.condition(EIGHT_SCHOOLS_DATA).fit(
        "vi", guide="auto_normal", num_steps=30, num_particles=4, seed=0)
    assert batched_decisions(vi.potential) == [4]
    psis = vi.psis_diagnostic(1000)
    assert batched_decisions(vi.potential) == [4]
    assert np.isfinite(psis.khat)
    assert batched_tiers(vi.potential) == {4: "fast"}
