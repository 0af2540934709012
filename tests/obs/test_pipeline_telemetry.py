"""Telemetry through the full pipeline: non-perturbation, layer coverage,
the flight recorder, and the metrics registry view."""

import numpy as np
import pytest

from repro import ObsConfig, clear_compile_cache, compile_model
from repro.infer import NUTS, MCMC, make_potential
from repro.ppl import distributions as dist
from repro.ppl.primitives import observe, sample

SOURCE = """
parameters { real mu; real<lower=0> sigma; }
model {
  mu ~ normal(0, 5);
  sigma ~ normal(0, 2);
  target += normal_lpdf(1.2 | mu, sigma);
  target += normal_lpdf(0.7 | mu, sigma);
}
"""

FUNNEL = """
parameters { real v; real x; }
model {
  v ~ normal(0, 3);
  x ~ normal(0, exp(v / 2));
}
"""


def _fit(obs, *, chain_method, engine, seed=11):
    model = compile_model(SOURCE, name=f"obs_{chain_method}_{engine}",
                          engine=engine, obs=obs)
    return model, model.condition({}).fit(
        "nuts", num_warmup=50, num_samples=50, num_chains=2,
        chain_method=chain_method, seed=seed)


# ----------------------------------------------------------------------
# the non-perturbation contract: telemetry must never change a draw
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chain_method", ["sequential", "vectorized"])
@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
def test_instrumented_fit_is_bitwise_identical(chain_method, engine):
    clear_compile_cache()
    _, plain = _fit(None, chain_method=chain_method, engine=engine)
    clear_compile_cache()
    _, instrumented = _fit(ObsConfig(enabled=True), chain_method=chain_method,
                           engine=engine)
    p0, p1 = plain.posterior, instrumented.posterior
    assert set(p0.draws) == set(p1.draws)
    for name in p0.draws:
        np.testing.assert_array_equal(p0.draws[name], p1.draws[name])
    for name in p0.stats:
        np.testing.assert_array_equal(p0.stats[name], p1.stats[name])
    # instrumented metadata carries the digest; plain metadata does not
    assert "telemetry" not in p0.metadata
    assert p1.metadata["telemetry"]["enabled"] is True


# ----------------------------------------------------------------------
# layer coverage: one fit's trace shows spans from every layer
# ----------------------------------------------------------------------
def test_single_fit_trace_covers_all_layers():
    clear_compile_cache()
    model, fit = _fit(ObsConfig(enabled=True), chain_method="vectorized",
                      engine="compiled")
    names = set(model.telemetry.log.span_names())
    # frontend, compile cache, tape compilation, sampler — and the
    # vectorized-eval classification — all in one trace
    assert {"frontend.parse", "frontend.codegen", "compiler.compile",
            "potential.discover", "tape.compile", "tape.trace", "tape.lower",
            "batched.validate", "sampler.run"} <= names
    digest = fit.posterior.metadata["telemetry"]
    assert digest["spans"]["sampler.run"] == 1
    assert digest["stream_records"] == 200  # 2 chains x (50 + 50)
    counters = digest["metrics"]["counters"]
    assert counters["obs.vectorized.rounds"] > 0
    assert counters["potential.grad_evals"] > 0

    # a compile-cache hit is recorded as an event on the second compile
    model2 = compile_model(SOURCE, name="obs_vectorized_compiled",
                           engine="compiled", obs=ObsConfig(enabled=True))
    (cache_event,) = model2.telemetry.log.events()
    assert cache_event["name"] == "compile.cache"
    assert cache_event["attrs"]["outcome"] == "hit"


def test_enumerated_fit_records_enum_analysis():
    src = """
    data { int N; array[N] real y; }
    parameters { array[N] int<lower=0, upper=1> z; real mu; }
    model {
      mu ~ normal(0, 5);
      for (n in 1:N) {
        z[n] ~ bernoulli(0.3);
        y[n] ~ normal(mu * (2 * z[n] - 1), 1);
      }
    }
    """
    from repro import EngineConfig, EnumConfig

    model = compile_model(
        src, name="obs_enum",
        engine=EngineConfig(engine="compiled", enum=EnumConfig(strategy="auto")),
        obs=ObsConfig(enabled=True))
    model.condition({"N": 6, "y": [2.1, -1.8, 2.4, 1.9, -2.2, 2.0]}).fit(
        "nuts", num_warmup=25, num_samples=25, seed=1)
    tel = model.telemetry
    assert "enum.analyze" in tel.log.span_names()
    assert tel.merged_metrics()["info"]["potential.enum.strategy"] == "contract"


# ----------------------------------------------------------------------
# the divergence flight recorder
# ----------------------------------------------------------------------
def test_flight_recorder_captures_funnel_divergences():
    model = compile_model(FUNNEL, name="obs_funnel",
                          obs=ObsConfig(enabled=True, max_divergence_records=8))
    # drive the kernel directly with adaptation off and a deliberately huge
    # step so the funnel neck diverges deterministically
    pot = model.condition({}).potential(0)
    kernel = NUTS(pot, step_size=6.0, adapt_step_size=False,
                  adapt_mass_matrix=False)
    mcmc = MCMC(kernel, num_warmup=0, num_samples=120, seed=0,
                telemetry=model.telemetry)
    mcmc.run()
    posterior = mcmc.posterior

    tel = model.telemetry
    assert tel.flight.total > 0
    records = posterior.metadata["divergence_records"]
    assert records["total"] == tel.flight.total
    assert 0 < records["recorded"] <= 8
    dim = pot.initial_unconstrained().size
    for record in records["records"]:
        assert len(record["start"]) == dim
        assert len(record["endpoints"]) == 2
        for point in record["divergent_points"]:
            assert len(point["position"]) == dim
            assert np.isfinite(point["energy_change"]) or point["energy_change"] > 0

    # posterior.divergence_report() summarizes the capture
    summary = posterior.divergence_report()
    assert summary["total"] == tel.flight.total
    assert len(summary["records"]) == records["recorded"]
    assert len(summary["position_mean"]) == dim

    # light divergence markers landed in the stream too
    assert len(tel.log.divergences()) == records["total"]


def test_divergence_report_without_telemetry_points_at_obs():
    clear_compile_cache()
    _, fit = _fit(None, chain_method="sequential", engine="interpreted")
    summary = fit.posterior.divergence_report()
    assert summary["records"] == []
    assert "obs" in summary["note"]


# ----------------------------------------------------------------------
# the metrics registry view
# ----------------------------------------------------------------------
def _toy_model():
    x = sample("x", dist.Normal(0.0, 1.0))
    observe(dist.Normal(x, 1.0), 0.4, name="y")


def test_metrics_match_legacy_engine_stats_counters():
    pot = make_potential(_toy_model, engine="compiled")
    z = pot.initial_unconstrained()
    for _ in range(3):
        pot.potential_and_grad(z)
    pot.potential(z)

    view = pot.metrics_view()
    assert view["engine"] == "compiled"
    assert view["grad_evals"] == 3
    assert view["value_evals"] == 1
    assert view["tape_seconds"] > 0.0
    assert view["tape_modes"].get("single") in ("fast", "value_fast", "off")


def test_eval_tier_summary_line():
    pot = make_potential(_toy_model, engine="compiled")
    pot.potential_and_grad(pot.initial_unconstrained())
    tier = pot.eval_tier()
    assert tier.startswith("compiled:")
