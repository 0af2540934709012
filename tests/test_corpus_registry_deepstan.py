"""Corpus, PosteriorDB registry, DeepStan extensions and evaluation harness tests."""

import numpy as np
import pytest

from repro import compile_model
from repro.core import stanlib
from repro.corpus import models as corpus_models
from repro.deepstan import clustering, datasets
from repro.deepstan.bayesian_nn import BAYESIAN_MLP_SOURCE, DeepStanBayesianMLP, HandWrittenBayesianMLP
from repro.deepstan.vae import VAE_DEEPSTAN_SOURCE, DeepStanVAE, HandWrittenVAE
from repro.evaluation import harness
from repro.frontend.parser import parse_program
from repro.frontend.semantics import check_program
from repro.posteriordb import entries, get, supported_entries


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------
def test_corpus_is_reasonably_sized():
    assert len(corpus_models.names()) >= 30


def test_all_corpus_models_parse_and_check():
    # allow_int_parameters admits the discrete-latent exemplars (bounded int
    # parameters); every other check still runs on every model.
    for name in corpus_models.names():
        program = parse_program(corpus_models.get(name), name=name)
        check_program(program, allow_int_parameters=True)


def test_all_corpus_models_compile_comprehensively_or_report_known_failure():
    failures = []
    for name in corpus_models.names():
        ok, error = harness.compile_status(corpus_models.get(name), "comprehensive", "numpyro", name)
        if not ok:
            failures.append((name, error))
    # Only the truncation exemplar, constrained-matrix models and the
    # discrete-latent exemplars (which need an enum= strategy) may fail —
    # gauss_mix / zip / hmm / hmm_k / factorial_hmm / tree_mix plus
    # truncation.
    assert all(
        "truncat" in error.lower() or "Unsupported" in error or 'enum="auto"' in error
        for _, error in failures
    ), failures
    assert len(failures) <= 7


def test_corpus_generative_scheme_compiles_fewer_models():
    result = harness.corpus_generality(schemes=("comprehensive", "generative"),
                                       backends=("numpyro",))
    comp = result.compiled[("comprehensive", "numpyro")]
    gen = result.compiled[("generative", "numpyro")]
    assert comp > gen  # RQ1: the comprehensive scheme is strictly more general


# ----------------------------------------------------------------------
# posteriordb registry
# ----------------------------------------------------------------------
def test_registry_has_tables_rows():
    assert len(entries()) >= 25
    assert len(supported_entries()) >= 20


def test_registry_entries_have_consistent_data():
    for entry in entries():
        data = entry.data()
        assert isinstance(data, dict) and data
        # data generators are deterministic
        second = entry.data()
        for key in data:
            np.testing.assert_array_equal(np.asarray(data[key]), np.asarray(second[key]))


def test_registry_unsupported_entries_error_at_compile_or_run():
    entry = get("gp_regr-gp_pois_regr")
    compiled = compile_model(entry.source, backend="numpyro", scheme="comprehensive")
    with pytest.raises(Exception):
        compiled.run_nuts(entry.data(), num_warmup=1, num_samples=1, max_tree_depth=2)


def test_registry_supported_entry_runs_one_iteration():
    entry = get("kidscore_momiq-kidiq")
    compiled = compile_model(entry.source, backend="numpyro", scheme="mixed")
    mcmc = compiled.run_nuts(entry.data(), num_warmup=2, num_samples=2, max_tree_depth=3)
    assert "beta" in mcmc.get_samples()


# ----------------------------------------------------------------------
# stanlib
# ----------------------------------------------------------------------
def test_stanlib_known_distributions_cover_corpus_needs():
    for name in ("normal", "bernoulli", "beta", "cauchy", "categorical_logit",
                 "poisson_log", "binomial_logit", "dirichlet", "improper_uniform"):
        assert name in stanlib.KNOWN_DISTRIBUTIONS


def test_stanlib_categorical_shift():
    d = stanlib.make_distribution("categorical", np.array([0.2, 0.3, 0.5]))
    lp = d.log_prob(3)  # Stan category 3 == runtime index 2
    assert float(np.asarray(lp.data)) == pytest.approx(np.log(0.5))


def test_stanlib_unsupported_function_raises():
    with pytest.raises(stanlib.UnsupportedStanFunction):
        stanlib.lookup_function("cov_exp_quad")(1, 2, 3)
    with pytest.raises(stanlib.UnsupportedStanFunction):
        stanlib.lookup_function("not_a_real_function")


def test_stanlib_math_functions():
    assert float(np.asarray(stanlib.STAN_FUNCTIONS["inv_logit"](0.0).data)) == pytest.approx(0.5)
    assert float(np.asarray(stanlib.STAN_FUNCTIONS["log1m"](0.3).data)) == pytest.approx(np.log(0.7))
    assert stanlib.STAN_FUNCTIONS["rows"](np.zeros((3, 2))) == 3
    np.testing.assert_allclose(np.asarray(stanlib.STAN_FUNCTIONS["softmax"](np.zeros(3)).data),
                               np.full(3, 1 / 3))
    lpdf = stanlib.STAN_FUNCTIONS["normal_lpdf"](0.5, 0.0, 1.0)
    import scipy.stats as st
    assert float(np.asarray(lpdf.data)) == pytest.approx(st.norm(0, 1).logpdf(0.5))


# ----------------------------------------------------------------------
# deepstan: datasets, clustering
# ----------------------------------------------------------------------
def test_digits_dataset_shapes_and_labels():
    data = datasets.make_digits(num_train=30, num_test=10, side=6, num_classes=5)
    assert data.train_images.shape == (30, 6, 6)
    assert data.flat_train().shape == (30, 36)
    assert data.train_labels.min() >= 1 and data.train_labels.max() <= 5
    assert np.all((data.train_images >= 0) & (data.train_images <= 1))


def test_binarized_digits_are_binary():
    data = datasets.make_binarized_digits(num_train=20, num_test=5, side=6)
    assert set(np.unique(data.train_images)).issubset({0.0, 1.0})


def test_kmeans_recovers_separated_clusters(rng):
    points = np.concatenate([rng.normal(0, 0.1, size=(30, 2)), rng.normal(5, 0.1, size=(30, 2))])
    result = clustering.kmeans(points, 2, seed=0)
    labels = np.array([0] * 30 + [1] * 30)
    scores = clustering.pairwise_f1(labels, result.assignments)
    assert scores["f1"] > 0.95


def test_pairwise_f1_bounds(rng):
    labels = rng.integers(0, 3, size=30)
    assignments = rng.integers(0, 3, size=30)
    scores = clustering.pairwise_f1(labels, assignments)
    assert 0.0 <= scores["f1"] <= 1.0
    perfect = clustering.pairwise_f1(labels, labels)
    assert perfect["f1"] == pytest.approx(1.0)


def test_accuracy_and_agreement_metrics():
    assert clustering.prediction_accuracy([1, 2, 3], [1, 2, 4]) == pytest.approx(2 / 3)
    assert clustering.prediction_agreement([1, 1], [1, 2]) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# deepstan: VAE and Bayesian MLP (small smoke-scale runs)
# ----------------------------------------------------------------------
def test_deepstan_sources_parse_with_extensions():
    for source in (VAE_DEEPSTAN_SOURCE, BAYESIAN_MLP_SOURCE):
        program = parse_program(source)
        assert program.has_deepstan_extensions
        check_program(program)


def test_vae_deepstan_and_handwritten_train(tiny=True):
    data = datasets.make_binarized_digits(num_train=12, num_test=8, side=5, num_classes=3, seed=0)
    results = {}
    for cls in (HandWrittenVAE, DeepStanVAE):
        vae = cls(nz=2, nx=25, hidden=8, seed=0)
        vae.train(data.flat_train(), epochs=1, learning_rate=0.02)
        assert len(vae.losses) == 12
        assert np.isfinite(vae.losses).all()
        result = vae.evaluate(data.flat_test(), data.test_labels, num_clusters=3)
        results[cls.__name__] = result.f1
        latents = vae.latent_representation(data.flat_test())
        assert latents.shape == (8, 2)
    assert all(0.0 <= f1 <= 1.0 for f1 in results.values())


def test_bayesian_mlp_deepstan_matches_handwritten_loss():
    data = datasets.make_digits(num_train=30, num_test=15, side=5, num_classes=4, seed=1)
    hand = HandWrittenBayesianMLP(nx=25, nh=6, ny=4, seed=0)
    hand.train(data.flat_train(), data.train_labels, epochs=5, learning_rate=0.1)
    deep = DeepStanBayesianMLP(nx=25, nh=6, ny=4, seed=0)
    deep.train(data.flat_train(), data.train_labels, epochs=5, learning_rate=0.1)
    # Same guide family, same seed, same data: the ELBO trajectories agree.
    np.testing.assert_allclose(hand.losses, deep.losses, rtol=1e-6)
    preds_hand = hand.predict(data.flat_test(), num_networks=10)
    preds_deep = deep.predict(data.flat_test(), num_networks=10)
    assert preds_hand.shape == (15,)
    assert set(preds_hand).issubset(set(range(1, 5)))
    assert clustering.prediction_agreement(preds_hand, preds_deep) >= 0.0


def test_bayesian_mlp_training_reduces_loss():
    data = datasets.make_digits(num_train=40, num_test=10, side=5, num_classes=4, seed=2)
    mlp = DeepStanBayesianMLP(nx=25, nh=8, ny=4, seed=0)
    mlp.train(data.flat_train(), data.train_labels, epochs=25, learning_rate=0.1)
    assert np.mean(mlp.losses[-5:]) < np.mean(mlp.losses[:5])


def test_bayesian_mlp_prior_scale_ablation_compiles():
    wide = DeepStanBayesianMLP(nx=9, nh=4, ny=3, seed=0, prior_scale=10.0)
    assert "normal(0, 10.0)" in wide.compiled.program.source


# ----------------------------------------------------------------------
# evaluation harness
# ----------------------------------------------------------------------
def test_harness_corpus_feature_table_shape():
    table = harness.corpus_feature_table(model_names=["coin", "left_expression_example",
                                                      "target_update_example"])
    assert table["summary"].total == 3
    assert table["per_model"]["left_expression_example"]["left_expression"]


def test_harness_registry_generality_single_entry():
    entry = get("coin-flips")
    result = harness.registry_generality([entry], schemes=("comprehensive", "generative"),
                                         backends=("numpyro",))
    assert result.ran[("comprehensive", "numpyro")] == 1
    assert result.ran[("generative", "numpyro")] == 1


@pytest.mark.slow
def test_harness_accuracy_row_matches_reference():
    entry = get("coin-flips")
    reference, stan_time = harness.run_reference(entry, scale=0.5)
    row = harness.accuracy_and_speed_row(entry, reference, backend="numpyro",
                                         scheme="mixed", scale=0.5)
    assert row.status == "match"
    assert row.runtime_seconds > 0
    assert stan_time > 0


def test_harness_error_row_for_unsupported_entry():
    entry = get("lotka_volterra-hudson_lynx_hare")
    row = harness.accuracy_and_speed_row(entry, reference={}, backend="numpyro",
                                         scheme="comprehensive", scale=0.1)
    assert row.status == "error"


def test_geometric_mean_speedup():
    assert harness.geometric_mean_speedup([2.0, 8.0], [1.0, 2.0]) == pytest.approx(np.sqrt(8.0))
    assert np.isnan(harness.geometric_mean_speedup([], []))


def test_compile_time_comparison_runs():
    result = harness.compile_time_comparison([get("coin-flips")])
    assert result["backend_mean_seconds"] > 0
    assert result["stan_mean_seconds"] > 0
