"""Structured enumeration on the classic shapes: analysis, contraction,
fallbacks, backward pass.

The engine's contract, tested end to end:

* mixtures (conditionally-independent array elements) are isolated
  variables, eliminated as one O(N*K) block; HMM-style ``z[t] ~ f(z[t-1])``
  coupling is eliminated in time order in O(T*K^2) (the forward algorithm);
* sizes whose joint table is unrepresentable (``2^120``) evaluate exactly
  (validated against closed forms / an independent NumPy forward algorithm);
* three-way element coupling and coupling cycles contract too, matching the
  joint table; structure no elimination handles (a term reading the whole
  array) falls back to the joint table, and the ``TableSizeError`` message
  reports that elimination was attempted and why it bailed;
* scalar-site-only models keep **bitwise-identical** draws vs the joint
  engine (``enum="parallel"``, the PR-4 arithmetic);
* ``infer_discrete`` marginals/MAP from the backward pass match the
  table-based post-pass on small models.
"""

import numpy as np
import pytest
import scipy.stats as st
from scipy.special import logsumexp as np_logsumexp

from repro import EnumConfig, TableSizeError, compile_model
from repro.corpus import models as corpus_models
from repro.enum import infer_discrete
from repro.infer import make_potential
from repro.posteriordb import datagen
from repro.ppl import distributions as dist
from repro.ppl import observe, sample


def _mixture_potentials(n=8, seed=0):
    data = datagen.gauss_mix_enum_data(seed=seed, n=n)
    structured = compile_model(corpus_models.get("gauss_mix_enum"),
                               enum="auto").condition(data)
    joint = compile_model(corpus_models.get("gauss_mix_enum"),
                          enum="parallel").condition(data)
    return data, structured.potential(0), joint.potential(0)


# ----------------------------------------------------------------------
# structure detection + exactness
# ----------------------------------------------------------------------
def test_mixture_factorizes_per_element():
    _, pot, joint = _mixture_potentials(n=8)
    z0 = pot.initial_unconstrained()
    value_f, grad_f = pot.potential_and_grad(z0)
    value_j, grad_j = joint.potential_and_grad(z0)
    assert pot.enum_strategy == "contract"
    assert pot.factorization is not None
    assert pot.factorization.isolated["z"] == tuple(range(8))
    assert not pot.factorization.coupled
    assert pot.factorization.batch_rows == 2          # K, not K^N
    assert value_f == pytest.approx(value_j, rel=1e-12)
    np.testing.assert_allclose(grad_f, grad_j, rtol=1e-9, atol=1e-12)


def _elimination_order(pot):
    return tuple(step.var for step in pot.factorization.order.steps)


def test_hmm_detects_chain_and_matches_joint():
    data = datagen.hmm_enum_data(t=7)
    pot = compile_model(corpus_models.get("hmm_enum"),
                        enum="auto").condition(data).potential(0)
    joint = compile_model(corpus_models.get("hmm_enum"),
                          enum="parallel").condition(data).potential(0)
    z0 = pot.initial_unconstrained()
    value_f, grad_f = pot.potential_and_grad(z0)
    value_j, grad_j = joint.potential_and_grad(z0)
    assert pot.enum_strategy == "contract"
    # the chain is eliminated in time order (the forward algorithm)
    assert _elimination_order(pot) == tuple(("z", t) for t in range(7))
    assert pot.factorization.batch_rows == 4          # K^2, not K^T
    assert value_f == pytest.approx(value_j, rel=1e-12)
    np.testing.assert_allclose(grad_f, grad_j, rtol=1e-9, atol=1e-12)


def test_mixture_beyond_any_table_cap_matches_closed_form():
    # N=120: the joint table would have 2^120 rows — only the structured
    # path can evaluate, and the exact per-element marginalization has a
    # closed form to check against.
    n = 120
    data = datagen.gauss_mix_enum_data(n=n)
    pot = compile_model(corpus_models.get("gauss_mix_enum"),
                        enum="auto").condition(data).potential(0)
    z0 = pot.initial_unconstrained()
    log_prob = pot.log_prob(z0)
    assert pot.enum_strategy == "contract"
    assert pot.enum_plan.table_size == 2 ** n

    y = np.asarray(data["y"])
    values = pot.constrained_dict(z0)
    theta, mu, sigma = values["theta"], values["mu"], values["sigma"]
    per_element = np_logsumexp(
        [np.log(theta) + st.norm(mu[0], sigma).logpdf(y),
         np.log1p(-theta) + st.norm(mu[1], sigma).logpdf(y)], axis=0)
    expected = (st.beta(2, 2).logpdf(theta)
                + st.norm(-2, 1).logpdf(mu[0]) + st.norm(2, 1).logpdf(mu[1])
                + st.norm(0, 1).logpdf(sigma)
                + per_element.sum() + n * np.log(0.5))   # IntRange prior
    # + the change-of-variables terms for theta (logit) and sigma (log)
    from repro.autodiff.tensor import as_tensor

    for name in ("theta", "sigma"):
        info = pot.sites[name]
        seg = as_tensor(z0[info.offset:info.offset + info.size])
        expected += float(info.transform.log_abs_det_jacobian(
            seg, info.transform(seg)).data)
    assert log_prob == pytest.approx(expected, rel=1e-10)


def test_long_chain_matches_numpy_forward_algorithm():
    t_len, k = 60, 4
    data = datagen.hmm_k_data(t=t_len, k=k)
    pot = compile_model(corpus_models.get("hmm_k_enum"),
                        enum="auto").condition(data).potential(0)
    z0 = pot.initial_unconstrained()
    log_prob = pot.log_prob(z0)
    assert pot.enum_strategy == "contract"
    assert pot.enum_plan.table_size == k ** t_len

    mu = pot.constrained_dict(z0)["mu"]
    y, gamma, rho = data["y"], data["Gamma"], data["rho"]
    emit = st.norm.logpdf(np.asarray(y)[:, None], mu[None, :], 0.5)
    alpha = np.log(rho) + emit[0]
    for t in range(1, t_len):
        alpha = np_logsumexp(alpha[:, None] + np.log(gamma), axis=0) + emit[t]
    expected = (np_logsumexp(alpha)
                + st.norm(data["mu0"], 1).logpdf(mu).sum()
                + t_len * np.log(1.0 / k))               # IntRange prior
    assert log_prob == pytest.approx(expected, rel=1e-10)


# ----------------------------------------------------------------------
# beyond chains: n-ary terms, cycles, and the joint-table fallback
# ----------------------------------------------------------------------
COUPLED_TRIPLE = """
data { int N; real y[N]; }
parameters {
  real mu;
  int<lower=0, upper=1> z[N];
}
model {
  mu ~ normal(0, 1);
  for (n in 1:N)
    z[n] ~ bernoulli(0.4);
  y[1] ~ normal(mu + z[1] + z[2] + z[3], 1);
  for (n in 2:N)
    y[n] ~ normal(mu, 1);
}
"""

COUPLED_CYCLE = """
data { real y1; real y2; real y3; }
parameters {
  real mu;
  int<lower=0, upper=1> z[3];
}
model {
  mu ~ normal(0, 1);
  for (n in 1:3)
    z[n] ~ bernoulli(0.5);
  y1 ~ normal(mu + z[1] + z[2], 1);
  y2 ~ normal(mu + z[2] + z[3], 1);
  y3 ~ normal(mu + z[3] + z[1], 1);
}
"""

WHOLE_ARRAY = """
data { int N; real y[N]; }
parameters {
  real mu;
  int<lower=0, upper=1> z[N];
}
model {
  mu ~ normal(0, 1);
  for (n in 1:N)
    z[n] ~ bernoulli(0.4);
  y[1] ~ normal(mu + sum(z), 1);
  for (n in 2:N)
    y[n] ~ normal(mu, 1);
}
"""

PAIRWISE_CHAIN = """
data { int N; real y[N]; }
parameters {
  real mu;
  int<lower=0, upper=1> z[N];
}
model {
  mu ~ normal(0, 1);
  for (n in 1:N)
    z[n] ~ bernoulli(0.4);
  for (n in 2:N)
    y[n] ~ normal(mu + z[n - 1] + z[n], 1);
}
"""


def _contract_matches_joint(source, data):
    pot = compile_model(source, enum="auto").condition(data).potential(0)
    joint = compile_model(source, enum="parallel").condition(data).potential(0)
    z0 = pot.initial_unconstrained()
    value_c, grad_c = pot.potential_and_grad(z0)
    value_j, grad_j = joint.potential_and_grad(z0)
    assert pot.enum_strategy == "contract"
    assert value_c == pytest.approx(value_j, rel=1e-12)
    np.testing.assert_allclose(grad_c, grad_j, rtol=1e-9, atol=1e-12)
    return pot


def test_triple_coupled_elements_contract():
    # one 3-ary term couples z[1..3]; z[4], z[5] stay isolated in the same
    # site, so one site mixes the isolated block and the planned order
    data = {"N": 5, "y": np.linspace(-1, 1, 5)}
    pot = _contract_matches_joint(COUPLED_TRIPLE, data)
    assert pot.factorization.coupled == (("z", 0), ("z", 1), ("z", 2))
    assert pot.factorization.isolated["z"] == (3, 4)


def test_cyclic_coupling_contracts():
    data = {"y1": 0.3, "y2": -0.1, "y3": 0.8}
    pot = _contract_matches_joint(COUPLED_CYCLE, data)
    assert pot.factorization.coupled == (("z", 0), ("z", 1), ("z", 2))


def test_pairwise_adjacent_coupling_is_eliminated_not_tabled():
    # z[n-1] + z[n] in one term is chain-structured — the engine eliminates
    # it in path order instead of falling back, and matches the joint table.
    data = {"N": 6, "y": np.linspace(-1, 1, 6)}
    pot = compile_model(PAIRWISE_CHAIN,
                        enum="auto").condition(data).potential(0)
    joint = compile_model(PAIRWISE_CHAIN,
                          enum="parallel").condition(data).potential(0)
    z0 = pot.initial_unconstrained()
    value_f = pot.potential(z0)
    assert pot.enum_strategy == "contract"
    assert _elimination_order(pot) == tuple(("z", n) for n in range(6))
    assert pot.factorization.batch_rows == 4
    assert value_f == pytest.approx(joint.potential(z0), rel=1e-12)


def test_table_size_error_reports_factorization_outcome():
    # joint engine: the error points at the structured strategy
    data = {"N": 25, "y": np.zeros(25)}
    with pytest.raises(TableSizeError, match='enum="auto"'):
        compile_model(COUPLED_TRIPLE, enum=EnumConfig(
            strategy="parallel", max_table_size=1000)).condition(data).potential(0)
    # a term reading the whole array defeats elimination: the error says it
    # was attempted and why it bailed
    pot = compile_model(WHOLE_ARRAY, enum=EnumConfig(
        max_table_size=1000)).condition(data).potential(0)
    with pytest.raises(TableSizeError, match="attempted and bailed"):
        pot.potential(pot.initial_unconstrained())


def test_trace_runtime_keeps_the_joint_table():
    # the structured engine needs the fast (numpyro) runtime's term
    # collection; handler-stack potentials keep the joint table
    def model():
        theta = sample("theta", dist.Beta(2.0, 2.0))
        z = sample("z", dist.IntRange(0, 1, shape=(3,)))
        observe(dist.Bernoulli(theta), z, name="z_prior")
        observe(dist.Normal(z, 0.5), np.array([0.1, 0.9, -0.2]), name="lik")
        return theta

    pot = make_potential(model, fast=False, enum="auto")
    pot.potential(pot.initial_unconstrained())
    assert pot.enum_strategy in ("parallel", "rows")
    assert "runtime" in pot.enum_metadata()["note"]


# ----------------------------------------------------------------------
# bitwise contract for scalar-site models
# ----------------------------------------------------------------------
SCALAR_SITE_MODEL = """
data { int N; real y[N]; }
parameters {
  real mu;
  int<lower=0, upper=1> c;
}
model {
  mu ~ normal(0, 2);
  c ~ bernoulli(0.3);
  for (n in 1:N)
    y[n] ~ normal(mu + 3 * c, 1);
}
"""


def test_many_scalar_sites_beyond_the_cap_factorize_per_site():
    # 17 scalar Bernoulli sites: the joint table would hold 2^17 = 131072
    # rows (over the default cap), but each site marginalizes on its own in
    # O(K) — the scalar-only bitwise shortcut must not force the joint table
    # when that table could never run.
    n = 17
    decls = "\n".join(f"  int<lower=0, upper=1> c{i};" for i in range(1, n + 1))
    priors = "\n".join(f"  c{i} ~ bernoulli(0.3);" for i in range(1, n + 1))
    liks = "\n".join(f"  y[{i}] ~ normal(mu + 3 * c{i}, 1);" for i in range(1, n + 1))
    source = f"""
data {{ real y[{n}]; }}
parameters {{
  real mu;
{decls}
}}
model {{
  mu ~ normal(0, 2);
{priors}
{liks}
}}
"""
    rng = np.random.default_rng(7)
    data = {"y": rng.normal(1.5, 1.0, size=n)}
    pot = compile_model(source, enum="auto").condition(data).potential(0)
    z0 = pot.initial_unconstrained()
    log_prob = pot.log_prob(z0)
    assert pot.enum_strategy == "contract"
    assert pot.enum_plan.table_size == 2 ** n
    assert pot.factorization.batch_rows == 2

    mu = float(pot.constrained_dict(z0)["mu"])
    per_site = np_logsumexp(
        [np.log(0.7) + st.norm(mu, 1).logpdf(data["y"]),
         np.log(0.3) + st.norm(mu + 3, 1).logpdf(data["y"])], axis=0)
    expected = (st.norm(0, 2).logpdf(mu) + per_site.sum()
                + n * np.log(0.5))                  # IntRange priors
    assert log_prob == pytest.approx(expected, rel=1e-10)


def test_scalar_site_models_keep_bitwise_draws_vs_joint_engine():
    rng = np.random.default_rng(4)
    data = {"N": 12, "y": rng.normal(2.8, 1.0, size=12)}
    fits = {}
    for mode in ("auto", "parallel"):
        model = compile_model(SCALAR_SITE_MODEL, enum=mode).condition(data)
        fits[mode] = model.fit("nuts", num_warmup=60, num_samples=60, seed=3,
                               max_tree_depth=6)
        potential = model.potential(3)
        assert potential.enum_strategy in ("parallel", "rows")
    assert fits["auto"].posterior.equals(fits["parallel"].posterior)


# ----------------------------------------------------------------------
# the resolution note is the enum/strategy path's decision reason
# ----------------------------------------------------------------------
def _resolved_potential(case):
    mixture = corpus_models.get("gauss_mix_enum")
    y = [0.4, -1.1, 2.3, 0.2]
    if case == "cross_checked":      # 2^6 rows: checked against the table
        return compile_model(mixture, enum="auto").condition(
            datagen.gauss_mix_enum_data(n=6)).potential(0)
    if case == "trusted":            # 2^13 rows: beyond the cross-check cap
        return compile_model(mixture, enum="auto").condition(
            datagen.gauss_mix_enum_data(n=13)).potential(0)
    if case == "pyro_backend":
        return compile_model(mixture, backend="pyro", enum="auto").condition(
            datagen.gauss_mix_enum_data(n=6)).potential(0)
    source = SCALAR_SITE_MODEL if case == "scalar_sites" else WHOLE_ARRAY
    return compile_model(source, enum="auto").condition(
        {"N": len(y), "y": y}).potential(0)


@pytest.mark.parametrize("case, tier, phrase", [
    ("cross_checked", "contract", "at 1 probe(s)"),
    ("trusted", "contract", "trusting the exact graph-walk"),
    ("scalar_sites", "joint", "all discrete sites are scalar"),
    ("pyro_backend", "joint", "requires the vectorized (numpyro) runtime"),
    ("bail_out", "joint", "attempted and bailed"),
])
def test_enum_note_is_the_strategy_decision_reason(case, tier, phrase):
    """``enum_metadata()["note"]`` reads the ``enum``/``strategy`` path: it
    is the reason of that path's last decision, however it resolved."""
    pot = _resolved_potential(case)
    pot.potential(pot.initial_unconstrained())
    strategy = [d for d in pot.decisions()
                if (d["path"], d["key"]) == ("enum", "strategy")]
    assert strategy[-1]["tier"] == tier
    assert phrase in strategy[-1]["reason"]
    assert pot.enum_metadata()["note"] == strategy[-1]["reason"]
    if tier == "contract":  # the plan's description leads the reason
        assert strategy[-1]["reason"].startswith(pot.factorization.describe())
    else:
        assert pot.factorization is None


# ----------------------------------------------------------------------
# the backward pass (infer_discrete without the table)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model_name,data", [
    ("gauss_mix_enum", datagen.gauss_mix_enum_data(n=6)),
    ("hmm_enum", datagen.hmm_enum_data(t=6)),
])
def test_backward_pass_matches_table_posteriors(model_name, data):
    pot = compile_model(corpus_models.get(model_name),
                        enum="auto").condition(data).potential(0)
    joint = compile_model(corpus_models.get(model_name),
                          enum="parallel").condition(data).potential(0)
    z0 = pot.initial_unconstrained()
    pot.potential(z0)
    joint.potential(z0)
    assert pot.enum_strategy == "contract"
    rng = np.random.default_rng(1)
    states = z0[None, None, :] + 0.05 * rng.normal(size=(2, 3, z0.size))
    for mode in ("marginal", "max"):
        structured = infer_discrete(pot, states, mode=mode, seed=7)
        tabled = infer_discrete(joint, states, mode=mode, seed=7)
        for site in tabled.marginals:
            np.testing.assert_allclose(structured.marginals[site],
                                       tabled.marginals[site], atol=1e-12)
            np.testing.assert_array_equal(structured.draws[site],
                                          tabled.draws[site])
    # sample mode: different (exact) RNG consumption, but marginals agree
    # and samples are deterministic per seed
    one = infer_discrete(pot, states, mode="sample", seed=9)
    two = infer_discrete(pot, states, mode="sample", seed=9)
    np.testing.assert_array_equal(one.draws[next(iter(one.draws))],
                                  two.draws[next(iter(two.draws))])


def test_backward_pass_runs_beyond_table_sizes():
    data = datagen.hmm_k_data(t=40, k=3)
    pot = compile_model(corpus_models.get("hmm_k_enum"),
                        enum="auto").condition(data).potential(0)
    z0 = pot.initial_unconstrained()
    pot.potential(z0)
    result = infer_discrete(pot, z0[None, None, :], mode="marginal", seed=0)
    probs = result.marginals["z"][0, 0]               # (40, 3)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
    assert np.all(np.isin(result.draws["z"], [1.0, 2.0, 3.0]))


# ----------------------------------------------------------------------
# the tolerance-tiered batched contract
# ----------------------------------------------------------------------
def test_batched_tape_contract_keeps_values_bitwise():
    data = datagen.hmm_enum_data(t=12)
    pot = compile_model(corpus_models.get("hmm_enum"),
                        enum="auto").condition(data).potential(0)
    z0 = pot.initial_unconstrained()
    rng = np.random.default_rng(0)
    batch = z0[None, :] + 0.1 * rng.normal(size=(3, z0.size))
    values, grads = pot.potential_and_grad_batched(batch)
    mode = {d["key"]: d["tier"] for d in pot.decisions()
            if d["path"] == "batched"}[3]
    assert mode in ("fast", "value_fast", "loop")
    # whatever the tier decided, returned values and grads are the oracle's
    expected_v = np.array([pot.potential_and_grad(batch[i])[0] for i in range(3)])
    expected_g = np.array([pot.potential_and_grad(batch[i])[1] for i in range(3)])
    np.testing.assert_array_equal(values, expected_v)
    np.testing.assert_array_equal(grads, expected_g)
    # value-only consumers (the PSIS/VI diagnostics path) stay bitwise too
    np.testing.assert_array_equal(pot.potential_batched(batch), expected_v)
