"""Enumeration engine unit tests: plans, handler, guard rails, strategies."""

import numpy as np
import pytest
from scipy.special import logsumexp as np_logsumexp

from repro import EnumerationError, TableSizeError, compile_model
from repro.autodiff.tensor import as_tensor
from repro.engine import EnumConfig
from repro.enum import (
    DiscreteSiteInfo,
    EnumerationPlan,
    enum_log_density,
    enum_sites,
    site_support,
)
from repro.frontend.parser import parse_program
from repro.frontend.semantics import SemanticError, check_program
from repro.infer import DiscreteLatentError, make_potential
from repro.ppl import distributions as dist
from repro.ppl import handlers, observe, sample


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
def _plan(sites, cap=None):
    return EnumerationPlan(sites, max_table_size=cap)


def test_site_assignments_enumerate_cartesian_product():
    site = DiscreteSiteInfo("z", np.array([0.0, 1.0]), (3,))
    assert site.cardinality == 2 and site.numel == 3 and site.num_assignments == 8
    rows = site.assignments()
    assert rows.shape == (8, 3)
    # row-major: last element varies fastest; all rows distinct
    np.testing.assert_array_equal(rows[0], [0, 0, 0])
    np.testing.assert_array_equal(rows[1], [0, 0, 1])
    assert len({tuple(r) for r in rows}) == 8


def test_plan_flat_and_axis_views_agree():
    a = DiscreteSiteInfo("a", np.array([1.0, 2.0]), ())
    b = DiscreteSiteInfo("b", np.array([0.0, 1.0, 2.0]), ())
    plan = _plan([a, b])
    assert plan.table_size == 6 and plan.axis_sizes == (2, 3)
    flat = plan.flat_values()
    assert flat["a"].shape == (6, 1) and flat["b"].shape == (6, 1)
    # broadcasting the axis views into the joint table reproduces the flat one
    full = plan.axis_sizes + (1,)  # scalar sites carry the event pad
    axes_a = np.broadcast_to(plan.axis_values("a"), full).reshape(-1)
    axes_b = np.broadcast_to(plan.axis_values("b"), full).reshape(-1)
    np.testing.assert_array_equal(axes_a, flat["a"].reshape(-1))
    np.testing.assert_array_equal(axes_b, flat["b"].reshape(-1))
    # decode(t) matches row t of the flat table (concrete scalar values)
    for t in range(plan.table_size):
        decoded = plan.decode(t)
        assert decoded["a"] == flat["a"][t, 0] and decoded["b"] == flat["b"][t, 0]


def test_element_marginals_recover_joint_weights():
    site = DiscreteSiteInfo("z", np.array([0.0, 1.0]), (2,))
    plan = _plan([site])
    weights = np.array([0.1, 0.2, 0.3, 0.4])  # rows (00, 01, 10, 11)
    marg = plan.element_marginals("z", weights)
    np.testing.assert_allclose(marg[0], [0.3, 0.7])   # P(z1=0), P(z1=1)
    np.testing.assert_allclose(marg[1], [0.4, 0.6])   # P(z2=0), P(z2=1)


def test_table_size_cap_raises_actionable_error():
    site = DiscreteSiteInfo("z", np.array([0.0, 1.0]), (8,))
    with pytest.raises(TableSizeError, match=r"EnumConfig\(max_table_size="):
        _plan([site], cap=100)
    _plan([site], cap=256)  # exactly at the cap is fine


def test_site_support_wraps_unbounded_distributions():
    with pytest.raises(EnumerationError, match="z.*cannot be enumerated"):
        site_support("z", dist.Poisson(2.0))
    np.testing.assert_array_equal(site_support("z", dist.Bernoulli(0.2)), [0.0, 1.0])


# ----------------------------------------------------------------------
# the effect handler
# ----------------------------------------------------------------------
def test_enum_sites_lifts_each_site_onto_its_own_axis():
    plan = EnumerationPlan([
        DiscreteSiteInfo("a", np.array([0.0, 1.0]), ()),
        DiscreteSiteInfo("b", np.array([1.0, 2.0, 3.0]), ()),
    ])

    def model():
        a = sample("a", dist.Bernoulli(0.5))
        b = sample("b", dist.IntRange(1, 3))
        return a, b

    tracer = handlers.trace()
    with handlers.seed(rng_seed=0), enum_sites(plan=plan), tracer:
        a, b = model()
    # own reserved axis each (axes 0 and 1), plus the scalar event pad
    assert a.data.shape == (2, 1, 1)
    assert b.data.shape == (1, 3, 1)
    assert tracer.trace["a"]["enumerated"] and tracer.trace["b"]["enumerated"]


def test_enum_log_density_matches_brute_force():
    y = np.array([0.3, -0.2])
    plan = EnumerationPlan([
        DiscreteSiteInfo("z", np.array([0.0, 1.0]), ()),
    ])

    def model():
        z = sample("z", dist.Bernoulli(0.3))
        observe(dist.Normal(z, 1.0), y, name="lik")
        return z

    per_assignment, _ = enum_log_density(model, plan)
    assert per_assignment.data.shape == (2,)
    import scipy.stats as st

    expected = np.array([
        st.bernoulli(0.3).logpmf(k) + st.norm(k, 1.0).logpdf(y).sum()
        for k in (0, 1)
    ])
    np.testing.assert_allclose(per_assignment.data, expected, rtol=1e-12)


@pytest.mark.parametrize("layout", ["axes", "flat"])
def test_data_term_with_table_sized_length_is_not_misread(layout):
    # regression: an assignment-independent observed vector whose length
    # equals the table size must be summed to a scalar, not spread across
    # assignments — the graph-provenance classification sees through the
    # shape coincidence
    y = np.array([0.5, -1.0])           # len(y) == table_size == 2
    plan = EnumerationPlan([DiscreteSiteInfo("z", np.array([0.0, 1.0]), ())])

    def model():
        z = sample("z", dist.Bernoulli(0.4))
        sample("y", dist.Normal(np.zeros(2), 1.0), obs=y)
        return z

    per_assignment, _ = enum_log_density(model, plan, layout=layout)
    import scipy.stats as st

    expected = np.array([
        st.bernoulli(0.4).logpmf(k) + st.norm(0, 1).logpdf(y).sum()
        for k in (0, 1)
    ])
    np.testing.assert_allclose(per_assignment.data, expected, rtol=1e-12)


# ----------------------------------------------------------------------
# potential strategies and guard rails
# ----------------------------------------------------------------------
def _mixture_model(y):
    def model():
        theta = sample("theta", dist.Beta(2.0, 2.0))
        z = sample("z", dist.IntRange(0, 1, shape=(len(y),)))
        observe(dist.Bernoulli(theta), z, name="z_prior")
        observe(dist.Normal(z, 0.5), y, name="lik")
        return theta

    return model


def test_rows_oracle_and_parallel_agree_bitwise():
    y = np.array([0.1, 0.9, -0.2])
    pot = make_potential(_mixture_model(y), fast=True, enum="parallel")
    z0 = pot.initial_unconstrained()
    constrained, _ = pot.constrain(as_tensor(z0))
    rows = pot._enum_log_joint_rows(constrained)
    parallel = pot._enum_log_joint_parallel(constrained)
    np.testing.assert_array_equal(rows.data, parallel.data)
    # first evaluation picks the validated strategy
    pot.potential(z0)
    assert pot.enum_strategy == "parallel"


def test_control_flow_on_assignments_falls_back_to_rows():
    y = np.array([0.4, 1.2])

    def model():
        theta = sample("theta", dist.Beta(2.0, 2.0))
        z = sample("z", dist.IntRange(0, 1, shape=(2,)))
        observe(dist.Bernoulli(theta), z, name="z_prior")
        # scalar branching on the (enumerated) assignment value cannot be
        # vectorized across the table
        loc = 2.0 if float(np.sum(np.asarray(z.data if hasattr(z, "data") else z))) > 1 else 0.0
        observe(dist.Normal(loc, 1.0), y, name="lik")
        return theta

    pot = make_potential(model, fast=True, enum="parallel")
    z0 = pot.initial_unconstrained()
    value = pot.potential(z0)
    assert pot.enum_strategy == "rows"
    # the rows strategy is exact: brute-force the marginal by hand
    import scipy.stats as st

    theta = pot.constrained_dict(z0)["theta"]
    per = []
    for a in (0, 1):
        for b in (0, 1):
            lp = st.bernoulli(theta).logpmf([a, b]).sum()
            loc = 2.0 if a + b > 1 else 0.0
            per.append(lp + st.norm(loc, 1.0).logpdf(y).sum())
    # + the IntRange declaration prior: log(1/2) per element of z
    expected = -(st.beta(2, 2).logpdf(theta) + np_logsumexp(per) + 2 * np.log(0.5))
    t = pot.sites["theta"].transform
    seg = as_tensor(z0[:1])
    expected += -float(t.log_abs_det_jacobian(seg, t(seg)).data)
    assert value == pytest.approx(expected, rel=1e-10)


def test_table_strategy_does_not_depend_on_the_first_point():
    """The table check runs at the canonical probe, not at the caller's
    first point: a joint table that vectorizes only for ``mu > 5`` (and
    branches on the assignment otherwise) gets one strategy however the
    potential is first evaluated, even on the interpreted engine."""
    y = np.array([0.4, 1.2])

    def model():
        mu = sample("mu", dist.Normal(0.0, 1.0))
        z = sample("z", dist.IntRange(0, 1, shape=(2,)))
        observe(dist.Bernoulli(0.5), z, name="z_prior")
        if float(np.asarray(getattr(mu, "data", mu))) > 5.0:
            observe(dist.Normal(z + mu, 1.0), y, name="lik")
        else:
            total = float(np.sum(np.asarray(getattr(z, "data", z))))
            observe(dist.Normal((2.0 if total > 1 else 0.0) + mu, 1.0), y,
                    name="lik")
        return mu

    strategies = []
    for first in (np.array([10.0]), None):
        pot = make_potential(model, fast=True, enum="parallel",
                             engine="interpreted")
        # None: the init point, where the canonical probes sit (mu ~ N(0, 1))
        pot.potential(pot.initial_unconstrained() if first is None else first)
        strategies.append(pot.enum_strategy)
    assert strategies == ["rows", "rows"]


def test_marginalized_potential_matches_closed_form():
    y = np.array([0.3, -0.1, 0.8])
    pot = make_potential(_mixture_model(y), fast=True, enum="parallel")
    z0 = pot.initial_unconstrained()
    import scipy.stats as st

    theta = pot.constrained_dict(z0)["theta"]
    # exact per-element marginalization (elements are independent given theta)
    per_element = np_logsumexp(
        [st.bernoulli(theta).logpmf(0) + st.norm(0, 0.5).logpdf(y),
         st.bernoulli(theta).logpmf(1) + st.norm(1, 0.5).logpdf(y)], axis=0)
    lj = st.beta(2, 2).logpdf(theta) + per_element.sum() + len(y) * np.log(0.5)
    t = pot.sites["theta"].transform
    seg = as_tensor(z0[:1])
    lj += float(t.log_abs_det_jacobian(seg, t(seg)).data)
    assert pot.potential(z0) == pytest.approx(-lj, rel=1e-10)


def test_discrete_latents_require_opt_in():
    y = np.array([0.1])
    with pytest.raises(DiscreteLatentError, match='enum="auto"'):
        make_potential(_mixture_model(y), fast=True)


def test_unbounded_discrete_latent_raises():
    def model():
        lam = sample("lam", dist.Gamma(2.0, 1.0))
        k = sample("k", dist.Poisson(lam))
        observe(dist.Normal(k, 1.0), np.array([2.0]), name="lik")
        return lam

    with pytest.raises(EnumerationError, match="cannot be enumerated"):
        make_potential(model, fast=True, enum="parallel")


def test_potential_table_cap_guard():
    y = np.zeros(8)
    with pytest.raises(TableSizeError, match="exceeding the cap"):
        make_potential(_mixture_model(y), fast=True, enum=EnumConfig(
            strategy="parallel", max_table_size=100))


def test_invalid_enum_strategy_rejected():
    with pytest.raises(ValueError, match="unknown enum strategy"):
        compile_model("parameters { real x; } model { x ~ normal(0, 1); }",
                      enum="sequential")
    with pytest.raises(ValueError, match="unknown enum strategy"):
        make_potential(_mixture_model(np.array([0.1])), fast=True, enum="sequential")


def test_enum_spellings_validate_in_one_place():
    # compile_model, Potential and EnumConfig all coerce through EnumConfig,
    # so a bogus strategy raises the same ValueError at every entry point
    messages = []
    for build in (
            lambda: compile_model("parameters { real x; } model { x ~ normal(0, 1); }",
                                  enum="bogus"),
            lambda: make_potential(_mixture_model(np.array([0.1])), fast=True,
                                   enum="bogus"),
            lambda: EnumConfig(strategy="bogus")):
        with pytest.raises(ValueError) as excinfo:
            build()
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1] == messages[2]


# ----------------------------------------------------------------------
# frontend guard rails
# ----------------------------------------------------------------------
INT_PARAM_SOURCE = """
data { int N; real y[N]; }
parameters {
  real mu;
  int<lower=0, upper=1> z[N];
}
model {
  mu ~ normal(0, 1);
  for (n in 1:N) {
    z[n] ~ bernoulli(0.5);
    y[n] ~ normal(mu * z[n], 1);
  }
}
"""


def test_semantics_rejects_int_parameters_with_actionable_message():
    program = parse_program(INT_PARAM_SOURCE)
    with pytest.raises(SemanticError, match='enum="auto"'):
        check_program(program)
    # the enumerated path admits the same program
    check_program(program, allow_int_parameters=True)


def test_semantics_rejects_unbounded_int_parameters_even_when_enumerating():
    program = parse_program("""
    parameters { real mu; int k; }
    model { mu ~ normal(0, 1); k ~ poisson(3); }
    """)
    with pytest.raises(SemanticError, match="finite support"):
        check_program(program, allow_int_parameters=True)


def test_compile_model_threads_the_enumerate_flag():
    with pytest.raises(SemanticError, match='enum="auto"'):
        compile_model(INT_PARAM_SOURCE)
    compiled = compile_model(INT_PARAM_SOURCE, enum="parallel")
    assert compiled.engine_config.enum.strategy == "parallel"
    # the int parameter got the int_range declaration prior
    assert "int_range" in compiled.source


def test_compile_cache_distinguishes_enumerated_compiles():
    from repro import clear_compile_cache, compile_cache_info

    clear_compile_cache()
    compile_model(INT_PARAM_SOURCE, enum="parallel")
    with pytest.raises(SemanticError):
        compile_model(INT_PARAM_SOURCE)  # plain path must still reject
    compile_model(INT_PARAM_SOURCE, enum="parallel")
    assert compile_cache_info().hits >= 1
