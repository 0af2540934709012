"""End-to-end discrete-latent inference: the acceptance suite of the engine.

* a 2-component Gaussian mixture written with ``int<lower=1,upper=2>``
  assignment parameters compiles and samples via NUTS with
  bitwise-deterministic seeding; its continuous posterior matches the
  hand-marginalized formulation within Monte Carlo error, and
  ``infer_discrete`` recovers assignment probabilities matching the
  analytic responsibilities within 0.02;
* enumeration composes with ``chain_method="vectorized"`` and with
  ``condition().fit()`` checkpoint/resume — resumed runs stay
  bitwise-identical;
* the HMM workload's marginal equals an independent forward-algorithm
  computation; the ZIP workload matches its hand-marginalized counterpart;
* integer draw arrays get mode/support-probability summaries.
"""

import os

import numpy as np
import pytest
import scipy.stats as st
from scipy.special import logsumexp as np_logsumexp

from repro import compile_model
from repro.evaluation.discrete import mcse_sigmas
from repro.posteriordb import get

WARMUP = 150
SAMPLES = 150


@pytest.fixture(scope="module")
def mixture_entry():
    return get("gauss_mix_enum-synthetic_mixture")


@pytest.fixture(scope="module")
def mixture_model(mixture_entry):
    compiled = compile_model(mixture_entry.source, enum="parallel",
                             name=mixture_entry.name)
    return compiled.condition(mixture_entry.data())


@pytest.fixture(scope="module")
def mixture_fit(mixture_model):
    return mixture_model.fit("nuts", num_warmup=WARMUP, num_samples=SAMPLES,
                             seed=0, max_tree_depth=7)


# ----------------------------------------------------------------------
# the acceptance criteria
# ----------------------------------------------------------------------
def test_mixture_compiles_and_samples_deterministically(mixture_model, mixture_fit):
    again = mixture_model.fit("nuts", num_warmup=WARMUP, num_samples=SAMPLES,
                              seed=0, max_tree_depth=7)
    assert again.posterior.equals(mixture_fit.posterior)
    assert mixture_fit.metadata["enum"]["requested"] == "parallel"
    assert set(mixture_fit.posterior.sites) == {"theta", "mu", "sigma"}


def test_mixture_matches_hand_marginalized_formulation(mixture_entry, mixture_fit):
    marginal = get("gauss_mix_marginal-synthetic_mixture")
    fit = compile_model(marginal.source, name=marginal.name).condition(
        marginal.data()).fit("nuts", num_warmup=WARMUP, num_samples=SAMPLES,
                             seed=0, max_tree_depth=7)
    sigmas = mcse_sigmas(mixture_fit.posterior.summary(), fit.posterior.summary())
    assert sigmas < 4.0, sigmas


def test_infer_discrete_matches_analytic_responsibilities(mixture_entry,
                                                          mixture_model, mixture_fit):
    y = np.asarray(mixture_entry.data()["y"])
    merged = mixture_model.infer_discrete(mixture_fit, mode="marginal", seed=0)
    recovered = merged.draws["z__marginal"]          # (1, S, N, 2)
    assert recovered.shape == (1, SAMPLES, len(y), 2)

    draws = mixture_fit.posterior.get_samples()
    theta, mu, sigma = draws["theta"], draws["mu"], draws["sigma"]
    # analytic responsibilities per draw: r_nk ∝ pi_k N(y_n | mu_k, sigma)
    log_pi = np.stack([np.log(theta), np.log1p(-theta)], axis=-1)   # (S, 2)
    log_lik = st.norm.logpdf(y[None, :, None], mu[:, None, :],
                             sigma[:, None, None])                  # (S, N, 2)
    log_r = log_pi[:, None, :] + log_lik
    analytic = np.exp(log_r - np_logsumexp(log_r, axis=-1, keepdims=True))
    assert np.max(np.abs(recovered[0] - analytic)) < 0.02


def test_enumeration_composes_with_vectorized_chains(mixture_model):
    sequential = mixture_model.fit("nuts", num_warmup=60, num_samples=60,
                                   num_chains=3, seed=11, max_tree_depth=6,
                                   chain_method="sequential")
    vectorized = mixture_model.fit("nuts", num_warmup=60, num_samples=60,
                                   num_chains=3, seed=11, max_tree_depth=6,
                                   chain_method="vectorized")
    assert vectorized.posterior.equals(sequential.posterior)


@pytest.mark.parametrize("chain_method", ["sequential", "vectorized"])
def test_enumerated_checkpoint_resume_is_bitwise(tmp_path, mixture_entry, chain_method):
    def fresh_model():
        compiled = compile_model(mixture_entry.source, enum="parallel",
                                 name=mixture_entry.name)
        return compiled.condition(mixture_entry.data())

    kwargs = dict(num_warmup=40, num_samples=40, num_chains=2, seed=5,
                  max_tree_depth=6, chain_method=chain_method)
    baseline = fresh_model().fit("nuts", **kwargs)
    path = str(tmp_path / f"enum-{chain_method}.ckpt")
    checkpointed = fresh_model().fit("nuts", checkpoint_every=23,
                                     checkpoint_path=path, checkpoint_keep=True,
                                     **kwargs)
    assert checkpointed.posterior.equals(baseline.posterior)
    snapshots = sorted(p for p in os.listdir(tmp_path)
                       if p.startswith(f"enum-{chain_method}.ckpt."))
    assert snapshots, "expected at least one kill point"
    resumed = fresh_model().resume(str(tmp_path / snapshots[0]),
                                   checkpoint_every=0)
    assert resumed.posterior.equals(baseline.posterior)


# ----------------------------------------------------------------------
# the other workloads
# ----------------------------------------------------------------------
def test_hmm_marginal_matches_forward_algorithm():
    entry = get("hmm_enum-synthetic_hmm")
    data = entry.data()
    model = compile_model(entry.source, enum="parallel",
                          name=entry.name).condition(data)
    potential = model.potential(0)
    z0 = potential.initial_unconstrained(rng=np.random.default_rng(3))

    mu = potential.constrained_dict(z0)["mu"]
    y, gamma, rho = np.asarray(data["y"]), np.asarray(data["Gamma"]), np.asarray(data["rho"])
    # independent reference: the forward algorithm in log space
    emit = st.norm.logpdf(y[:, None], mu[None, :], 0.5)          # (T, 2)
    alpha = np.log(rho) + emit[0]
    for t in range(1, len(y)):
        alpha = np_logsumexp(alpha[:, None] + np.log(gamma), axis=0) + emit[t]
    forward = np_logsumexp(alpha)

    t_len = len(y)
    priors = st.norm(-1, 1).logpdf(mu[0]) + st.norm(1, 1).logpdf(mu[1])
    # engine log prob = priors + path-sum + IntRange declaration prior (1/2 per step)
    expected = priors + forward + t_len * np.log(0.5)
    assert potential.log_prob(z0) == pytest.approx(expected, rel=1e-10)
    assert potential.enum_strategy == "parallel"  # the path-sum vectorizes


def test_both_backends_vectorize_and_agree(mixture_entry):
    # the pyro backend marginalizes through the enum_sites handler (flat
    # layout), the numpyro backend through the fast log-density context —
    # identical marginals, both validating the parallel strategy
    values = {}
    for backend in ("numpyro", "pyro"):
        compiled = compile_model(mixture_entry.source, backend=backend,
                                 enum="parallel", name=mixture_entry.name)
        pot = compiled.condition(mixture_entry.data()).potential(0)
        z0 = pot.initial_unconstrained()
        values[backend] = pot.potential_and_grad(z0)
        assert pot.enum_strategy == "parallel", backend
    np.testing.assert_allclose(values["pyro"][0], values["numpyro"][0], rtol=1e-12)
    np.testing.assert_allclose(values["pyro"][1], values["numpyro"][1], rtol=1e-10)


def test_zip_matches_hand_marginalized():
    enum_entry = get("zip_poisson_enum-synthetic_zip")
    marginal_entry = get("zip_poisson_marginal-synthetic_zip")
    enum_fit = compile_model(enum_entry.source, enum="parallel",
                             name=enum_entry.name).condition(
        enum_entry.data()).fit("nuts", num_warmup=WARMUP, num_samples=SAMPLES,
                               seed=0, max_tree_depth=7)
    marginal_fit = compile_model(marginal_entry.source,
                                 name=marginal_entry.name).condition(
        marginal_entry.data()).fit("nuts", num_warmup=WARMUP,
                                   num_samples=SAMPLES, seed=0, max_tree_depth=7)
    sigmas = mcse_sigmas(enum_fit.posterior.summary(), marginal_fit.posterior.summary())
    assert sigmas < 4.0, sigmas


# ----------------------------------------------------------------------
# discrete posteriors in the result layer
# ----------------------------------------------------------------------
def test_integer_summary_reports_mode_and_support_probs(mixture_model, mixture_fit):
    merged = mixture_model.infer_discrete(mixture_fit, mode="sample", seed=2)
    z_summary = merged.summary()["z[0]"]
    assert {"mode", "p_mode"} <= set(z_summary)
    assert not {"mean", "std", "5%"} & set(z_summary)
    assert z_summary["mode"] in (1.0, 2.0)
    support_probs = [v for k, v in z_summary.items()
                     if k.startswith("p_") and k != "p_mode"]
    assert sum(support_probs) == pytest.approx(1.0)
    # continuous components keep the usual summary
    assert set(merged.summary()["theta"]) >= {"mean", "std", "n_eff", "r_hat"}
    # marginal probabilities are continuous arrays with plain summaries
    assert "mean" in merged.summary()["z__marginal[0]"]


def test_infer_discrete_modes_are_deterministic(mixture_model, mixture_fit):
    one = mixture_model.infer_discrete(mixture_fit, mode="sample", seed=9)
    two = mixture_model.infer_discrete(mixture_fit, mode="sample", seed=9)
    np.testing.assert_array_equal(one.draws["z"], two.draws["z"])
    mapped = mixture_model.infer_discrete(mixture_fit, mode="max", seed=0)
    assert np.all(np.isin(mapped.draws["z"], [1.0, 2.0]))
    assert mapped.metadata["infer_discrete"]["mode"] == "max"


def test_generated_quantities_int_outputs_get_discrete_summary():
    # the satellite applies to plain integer generated quantities too
    from repro.infer import diagnostics

    draws = {"counts": np.tile(np.array([[0.0, 1.0, 1.0, 2.0]]), (2, 1))}
    summary = diagnostics.summary(draws)["counts"]
    assert summary["mode"] == 1.0 and summary["p_mode"] == 0.5
    assert summary["p_0"] == 0.25 and summary["p_2"] == 0.25
