"""Posterior-first API: Posterior container, checkpoint/resume, pipeline.

Covers the redesigned result layer end to end:

* :class:`~repro.infer.Posterior` — accessors, ``stack``/``concat``/``thin``,
  exact ``save``/``load`` round trips, cached summaries;
* checkpoint/resume — kill-and-resume at several iterations is
  bitwise-identical to an uninterrupted run, for sequential *and*
  vectorized chain methods, and for VI optimizer-state snapshots;
* the fluent pipeline — ``compile_model(...).condition(data).fit(...)``
  returning :class:`~repro.infer.FitResult` objects, potential caching,
  the compilation cache.
"""

import os

import numpy as np
import pytest

from repro import (
    CompileError,
    FitResult,
    Posterior,
    clear_compile_cache,
    compile_cache_info,
    compile_model,
)
from repro.infer import MCMC, NUTS, VI, make_potential
from repro.infer.checkpoint import read_checkpoint, write_checkpoint
from repro.ppl import distributions as dist
from repro.ppl.primitives import observe, sample

DATA = np.random.default_rng(0).normal(1.5, 1.0, size=20)


def conjugate_model():
    mu = sample("mu", dist.Normal(0.0, 2.0))
    observe(dist.Normal(mu, 1.0), DATA, name="y")


def fresh_kernel(max_tree_depth=6):
    return NUTS(make_potential(conjugate_model), max_tree_depth=max_tree_depth)


def run_mcmc(chain_method="sequential", num_chains=2, **kwargs):
    return MCMC(fresh_kernel(), num_warmup=40, num_samples=30, num_chains=num_chains,
                seed=5, chain_method=chain_method).run(**kwargs)


STAN_SOURCE = """
data { int N; real y[N]; }
parameters { real mu; real<lower=0> sigma; }
model {
  mu ~ normal(0, 5);
  sigma ~ normal(0, 2);
  y ~ normal(mu, sigma);
}
generated quantities {
  real mu2;
  mu2 = 2 * mu;
}
"""

STAN_DATA = {"N": 10, "y": np.random.default_rng(1).normal(1.0, 0.5, 10)}


# ----------------------------------------------------------------------
# the Posterior container
# ----------------------------------------------------------------------
def test_posterior_shapes_and_accessors():
    mcmc = run_mcmc()
    post = mcmc.posterior
    assert post.num_chains == 2 and post.num_draws == 30
    assert post.sites == ["mu"]
    assert post.draws["mu"].shape == (2, 30)
    assert post.unconstrained.shape == (2, 30, 1)
    assert set(post.stats) == {"accept_prob", "step_size", "divergent",
                           "tree_depth", "num_steps", "potential_energy"}
    grouped = post.get_samples(group_by_chain=True)
    flat = post.get_samples()
    np.testing.assert_array_equal(flat["mu"], grouped["mu"].reshape(-1))
    # the legacy accessors delegate to the same posterior
    np.testing.assert_array_equal(mcmc.get_samples()["mu"], flat["mu"])
    assert post.metadata["method"] == "nuts"
    assert post.metadata["seed"] == 5 and post.metadata["num_chains"] == 2


def test_posterior_is_cached_on_fit_and_summary_is_cached():
    mcmc = run_mcmc()
    assert mcmc.posterior is mcmc.posterior
    assert mcmc.summary() is mcmc.summary()
    assert mcmc.posterior.summary() is mcmc.summary()
    # a fresh run invalidates the cache
    mcmc.run()
    assert mcmc.posterior is mcmc.posterior


def test_posterior_stack_concat_thin():
    a = run_mcmc(num_chains=1)
    b = run_mcmc(num_chains=1)
    pa, pb = a.posterior, b.posterior
    stacked = Posterior.stack([pa, pb])
    assert stacked.num_chains == 2 and stacked.num_draws == 30
    np.testing.assert_array_equal(stacked.draws["mu"][0], pa.draws["mu"][0])
    np.testing.assert_array_equal(stacked.draws["mu"][1], pb.draws["mu"][0])
    catted = Posterior.concat([pa, pb])
    assert catted.num_chains == 1 and catted.num_draws == 60
    np.testing.assert_array_equal(catted.unconstrained[:, :30], pa.unconstrained)
    thinned = stacked.thin(3)
    assert thinned.num_draws == 10
    np.testing.assert_array_equal(thinned.draws["mu"], stacked.draws["mu"][:, ::3])
    assert thinned.stats["accept_prob"].shape == (2, 10)
    with pytest.raises(ValueError):
        stacked.thin(0)


def test_posterior_save_load_round_trip_is_exact(tmp_path):
    post = run_mcmc(chain_method="vectorized").posterior
    path = post.save(str(tmp_path / "fit"))
    assert path.endswith(".npz") and os.path.exists(str(tmp_path / "fit.json"))
    loaded = Posterior.load(path)
    assert loaded.equals(post)
    # draws, stats and summary survive exactly
    for name in post.draws:
        np.testing.assert_array_equal(loaded.draws[name], post.draws[name])
    for key in post.stats:
        np.testing.assert_array_equal(loaded.stats[key], post.stats[key])
    np.testing.assert_array_equal(loaded.unconstrained, post.unconstrained)
    assert loaded.summary() == post.summary()
    assert loaded.metadata["method"] == "nuts"
    assert loaded.metadata["chain_method"] == "vectorized"
    # loading through the basename (no extension) works too
    assert Posterior.load(str(tmp_path / "fit")).equals(post)
    # ... and through the .json sidecar path
    assert Posterior.load(str(tmp_path / "fit.json")).equals(post)


def test_posterior_load_rejects_foreign_files(tmp_path):
    (tmp_path / "x.json").write_text('{"format": "something-else"}')
    (tmp_path / "x.npz").write_bytes(b"")
    with pytest.raises(ValueError):
        Posterior.load(str(tmp_path / "x"))


def test_posterior_validates_shapes():
    with pytest.raises(ValueError):
        Posterior({"mu": np.zeros(5)})  # not chain-major
    with pytest.raises(ValueError):
        Posterior({"mu": np.zeros((2, 5)), "tau": np.zeros((2, 4))})
    with pytest.raises(ValueError):
        Posterior({"mu": np.zeros((2, 5))}, stats={"a": np.zeros((1, 5))})


# ----------------------------------------------------------------------
# checkpoint / resume: bitwise-identical continuation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chain_method,num_chains", [("sequential", 2), ("vectorized", 3)])
def test_mcmc_kill_and_resume_is_bitwise_identical(tmp_path, chain_method, num_chains):
    baseline = run_mcmc(chain_method, num_chains=num_chains)
    base_draws = baseline.get_samples(group_by_chain=True)
    base_stats = baseline.get_extra_fields(group_by_chain=True)

    path = str(tmp_path / "mcmc.ckpt")
    checkpointed = run_mcmc(chain_method, num_chains=num_chains,
                            checkpoint_every=17, checkpoint_path=path,
                            checkpoint_keep=True)
    # checkpointing itself must not perturb the run
    assert checkpointed.posterior.equals(baseline.posterior)

    snapshots = sorted(p for p in os.listdir(tmp_path) if p.startswith("mcmc.ckpt."))
    assert len(snapshots) >= 2, "expected several kill points"
    for snap in snapshots:
        resumed = MCMC.resume(str(tmp_path / snap), fresh_kernel(), checkpoint_every=0)
        res_draws = resumed.get_samples(group_by_chain=True)
        res_stats = resumed.get_extra_fields(group_by_chain=True)
        for name in base_draws:
            np.testing.assert_array_equal(res_draws[name], base_draws[name],
                                          err_msg=f"{snap}: draws diverged")
        for key in base_stats:
            np.testing.assert_array_equal(res_stats[key], base_stats[key],
                                          err_msg=f"{snap}: stats diverged")


def _assert_bitwise_equal(a, b, where):
    """Recursive equality of checkpoint payload pieces; floats and arrays
    are compared bit for bit."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_bitwise_equal(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_bitwise_equal(x, y, f"{where}[{i}]")
    elif isinstance(a, (np.ndarray, float)):
        x, y = np.asarray(a), np.asarray(b)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), where
        assert x.tobytes() == y.tobytes(), where
    else:
        assert a == b, where


def test_both_chain_methods_write_one_checkpoint_layout(tmp_path):
    """A sequential and a vectorized run snapshot the same per-chain state."""
    snapshots = {}
    for method in ("sequential", "vectorized"):
        path = str(tmp_path / method / "mcmc.ckpt")
        run_mcmc(method, num_chains=3, checkpoint_every=17, checkpoint_path=path,
                 checkpoint_keep=True)
        snapshots[method] = sorted(p for p in os.listdir(tmp_path / method)
                                   if p.startswith("mcmc.ckpt."))
    # one snapshot per barrier (every chain at iteration 17k), not per chain
    assert snapshots["sequential"] == snapshots["vectorized"]
    assert len(snapshots["sequential"]) == 4
    for snap in snapshots["sequential"]:
        seq = read_checkpoint(str(tmp_path / "sequential" / snap))["chains"]
        vec = read_checkpoint(str(tmp_path / "vectorized" / snap))["chains"]
        assert len(seq) == len(vec) == 3
        for c, (a, b) in enumerate(zip(seq, vec)):
            assert set(a) == {"state", "collector", "divergences"}
            _assert_bitwise_equal(a, b, f"{snap} chain {c}")


def test_checkpoint_of_another_version_is_refused(tmp_path):
    path = str(tmp_path / "v.ckpt")
    run_mcmc("sequential", checkpoint_every=17, checkpoint_path=path)
    payload = read_checkpoint(path)
    write_checkpoint(path, dict(payload, version=1))
    with pytest.raises(ValueError, match="checkpoint version 1 is not supported"):
        MCMC.resume(path, fresh_kernel())


def test_mcmc_resume_continues_checkpointing_and_chains(tmp_path):
    path = str(tmp_path / "c.ckpt")
    run_mcmc("sequential", checkpoint_every=17, checkpoint_path=path,
             checkpoint_keep=True)
    first = str(tmp_path / "c.ckpt.snap0001")
    resumed = MCMC.resume(first, fresh_kernel())  # inherits cadence + path
    assert resumed.last_checkpoint_path is not None
    # a second resume of the final state of the first resume also matches
    baseline = run_mcmc("sequential")
    assert resumed.posterior.equals(baseline.posterior)


def test_mcmc_checkpoint_requires_path():
    with pytest.raises(ValueError):
        run_mcmc(checkpoint_every=10)


def test_mcmc_resume_rejects_mismatched_kernel(tmp_path):
    """A kernel with different draw-determining options must not silently resume."""
    path = str(tmp_path / "m.ckpt")
    run_mcmc("sequential", checkpoint_every=17, checkpoint_path=path)
    with pytest.raises(ValueError, match="max_tree_depth"):
        MCMC.resume(path, fresh_kernel(max_tree_depth=3))
    from repro.infer import HMC

    with pytest.raises(ValueError, match="method"):
        MCMC.resume(path, HMC(make_potential(conjugate_model)))


def test_pipeline_resume_rebuilds_kernel_from_checkpoint(tmp_path):
    """model.resume(path) picks up kernel options *and seed* from the file."""
    model = compile_model(STAN_SOURCE).condition(STAN_DATA)
    path = str(tmp_path / "deep.ckpt")
    fit = model.fit("nuts", num_warmup=30, num_samples=20, seed=7, max_tree_depth=4,
                    checkpoint_every=13, checkpoint_path=path, checkpoint_keep=True)
    # nothing re-specified: kernel options and the fit seed come from the file
    resumed = model.resume(str(tmp_path / "deep.ckpt.snap0001"), checkpoint_every=0)
    assert resumed.posterior.equals(fit.posterior)
    assert resumed.posterior.metadata["seed"] == 7
    # a different seed cannot continue this run — reject, don't hybridise
    with pytest.raises(ValueError, match="seed"):
        model.resume(str(tmp_path / "deep.ckpt.snap0001"), seed=3)


def test_resume_continues_history_numbering(tmp_path):
    """A resumed run must not clobber the pre-crash .snapNNNN history snapshots."""
    path = str(tmp_path / "h.ckpt")
    run_mcmc("sequential", checkpoint_every=17, checkpoint_path=path,
             checkpoint_keep=True)
    snapshots = sorted(p for p in os.listdir(tmp_path) if p.startswith("h.ckpt."))
    first = (tmp_path / snapshots[0]).read_bytes()
    MCMC.resume(str(tmp_path / snapshots[0]), fresh_kernel(), checkpoint_keep=True)
    # the first snapshot is untouched, and the resumed run's snapshots
    # continue the numbering instead of restarting at .snap0001
    assert (tmp_path / snapshots[0]).read_bytes() == first
    after = sorted(p for p in os.listdir(tmp_path) if p.startswith("h.ckpt."))
    assert after[0] == snapshots[0] and len(after) >= len(snapshots)


def test_vi_kill_and_resume_is_bitwise_identical(tmp_path):
    def fresh_potential():
        return make_potential(conjugate_model)

    baseline = VI(fresh_potential(), guide="auto_normal", seed=3).run(120)
    path = str(tmp_path / "vi.ckpt")
    checkpointed = VI(fresh_potential(), guide="auto_normal", seed=3).run(
        120, checkpoint_every=35, checkpoint_path=path, checkpoint_keep=True)
    assert checkpointed.elbo_history == baseline.elbo_history

    snapshots = sorted(p for p in os.listdir(tmp_path) if p.startswith("vi.ckpt."))
    assert len(snapshots) >= 2
    for snap in snapshots:
        resumed = VI.resume(str(tmp_path / snap), fresh_potential(), checkpoint_every=0)
        assert resumed.elbo_history == baseline.elbo_history, snap
        for p, q in zip(resumed.guide.parameters(), baseline.guide.parameters()):
            np.testing.assert_array_equal(p.data, q.data)
        assert resumed.posterior.equals(baseline.posterior)


# ----------------------------------------------------------------------
# the fluent pipeline
# ----------------------------------------------------------------------
def test_condition_fit_returns_fit_results():
    model = compile_model(STAN_SOURCE).condition(STAN_DATA)
    nuts = model.fit("nuts", num_warmup=30, num_samples=20, seed=0)
    vi = model.fit("vi", guide="auto_normal", num_steps=50, seed=0)
    imp = model.fit("importance", num_samples=200, seed=0)
    for fit, method in ((nuts, "nuts"), (vi, "vi"), (imp, "importance")):
        assert isinstance(fit, FitResult)
        post = fit.posterior
        assert post.metadata["method"] == method
        assert post.metadata["scheme"] == "comprehensive"
        assert post.metadata["backend"] == "numpyro"
        assert set(post.sites) == {"mu", "sigma"}
        assert isinstance(fit.diagnostics(), dict)
    with pytest.raises(ValueError):
        model.fit("metropolis")


def test_condition_caches_potential_and_model_callable():
    model = compile_model(STAN_SOURCE).condition(STAN_DATA)
    assert model.potential(0) is model.potential(0)
    assert model.potential(1) is not model.potential(0)
    assert model.model_callable() is model.model_callable()


def test_fit_matches_direct_mcmc_bitwise():
    compiled = compile_model(STAN_SOURCE)
    fit = compiled.condition(STAN_DATA).fit("nuts", num_warmup=30, num_samples=20,
                                            num_chains=2, seed=0)
    # the pipeline is a thin layer: the same kernel on a fresh potential
    # draws the same chains
    direct = MCMC(NUTS(compiled.potential(STAN_DATA, rng_seed=0)), num_warmup=30,
                  num_samples=20, num_chains=2, seed=0).run()
    a = fit.get_samples(group_by_chain=True)
    b = direct.get_samples(group_by_chain=True)
    assert sorted(a) == sorted(b)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


def test_fit_hmc_and_checkpoint_through_pipeline(tmp_path):
    model = compile_model(STAN_SOURCE).condition(STAN_DATA)
    path = str(tmp_path / "hmc.ckpt")
    fit = model.fit("hmc", num_warmup=30, num_samples=20, seed=0, num_steps=5,
                    checkpoint_every=13, checkpoint_path=path, checkpoint_keep=True)
    resumed = model.resume(str(tmp_path / "hmc.ckpt.snap0001"), method="hmc", seed=0,
                           num_steps=5, checkpoint_every=0)
    assert resumed.posterior.equals(fit.posterior)


def test_vi_resume_through_pipeline(tmp_path):
    model = compile_model(STAN_SOURCE).condition(STAN_DATA)
    path = str(tmp_path / "vi.ckpt")
    fit = model.fit("vi", guide="auto_normal", num_steps=60, seed=0,
                    checkpoint_every=25, checkpoint_path=path, checkpoint_keep=True)
    resumed = model.resume(str(tmp_path / "vi.ckpt.snap0001"), seed=0, checkpoint_every=0)
    assert resumed.elbo_history == fit.elbo_history
    assert resumed.posterior.equals(fit.posterior)


def test_sample_prior_and_generated_quantities():
    model = compile_model(STAN_SOURCE).condition(STAN_DATA)
    prior = model.sample_prior(7, seed=0)
    assert set(prior) >= {"mu", "sigma"}
    assert prior["mu"].shape[0] == 7
    assert np.all(prior["sigma"] > 0)
    fit = model.fit("nuts", num_warmup=20, num_samples=10, seed=0)
    gq = model.generated_quantities(fit.posterior)
    np.testing.assert_allclose(gq["mu2"], 2 * fit.posterior.get_samples()["mu"])
    # plain draw dicts are accepted too, and num_draws truncates
    gq_small = model.generated_quantities(fit.posterior.get_samples(), num_draws=3)
    assert len(gq_small["mu2"]) == 3


def test_compile_cache_hits_and_isolation():
    clear_compile_cache()
    a = compile_model(STAN_SOURCE)
    before = compile_cache_info()
    b = compile_model(STAN_SOURCE)
    after = compile_cache_info()
    assert after.hits == before.hits + 1
    # cached compilations share no mutable state
    assert a.namespace is not b.namespace
    assert a.source == b.source
    # a different scheme is a different cache entry
    compile_model(STAN_SOURCE, scheme="mixed")
    assert compile_cache_info().misses == after.misses + 1


def test_fit_svi_requires_guide_block():
    model = compile_model(STAN_SOURCE).condition(STAN_DATA)
    with pytest.raises(CompileError, match="requires a guide block"):
        model.fit("svi", num_steps=2)


def test_get_extra_fields_shapes():
    mcmc = run_mcmc(num_chains=2)
    grouped = mcmc.get_extra_fields(group_by_chain=True)
    flat = mcmc.get_extra_fields(group_by_chain=False)
    assert grouped["accept_prob"].shape == (2, 30)
    assert flat["accept_prob"].shape == (60,)
    np.testing.assert_array_equal(flat["accept_prob"],
                                  grouped["accept_prob"].reshape(-1))


def test_concat_unions_disjoint_sampler_stats():
    """Streaming engines emit posteriors with differing stats keys; concat
    unions them, NaN-filling the stretches a key is absent from."""
    rng = np.random.default_rng(0)
    draws_a = {"mu": rng.normal(size=(1, 5))}
    draws_b = {"mu": rng.normal(size=(1, 7))}
    a = Posterior(draws=draws_a,
                  stats={"log_weight": np.zeros((1, 5)),
                         "accept_prob": np.full((1, 5), 0.9)})
    b = Posterior(draws=draws_b,
                  stats={"log_weight": np.ones((1, 7))})
    catted = Posterior.concat([a, b])
    assert set(catted.stats) == {"log_weight", "accept_prob"}
    assert catted.stats["log_weight"].shape == (1, 12)
    np.testing.assert_array_equal(catted.stats["log_weight"][:, :5],
                                  np.zeros((1, 5)))
    np.testing.assert_array_equal(catted.stats["accept_prob"][:, :5],
                                  np.full((1, 5), 0.9))
    assert np.all(np.isnan(catted.stats["accept_prob"][:, 5:]))

    # order-independent: a key present only in the *later* posterior is
    # NaN-filled over the earlier stretch
    flipped = Posterior.concat([b, a])
    assert np.all(np.isnan(flipped.stats["accept_prob"][:, :7]))
    np.testing.assert_array_equal(flipped.stats["accept_prob"][:, 7:],
                                  np.full((1, 5), 0.9))
