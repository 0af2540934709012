"""The unified ``engine=`` configuration API.

:class:`repro.EngineConfig` is the single declarative value for the two
evaluation knobs — engine selection and the discrete-latent ``enum`` config
— accepted by ``compile_model`` and threaded through ``ConditionedModel`` /
``Potential``.  These tests cover the config object itself, the threading,
the one-spelling-per-option surface and the metadata stamping (resolved
engine + per-fit evaluation counters).
"""

from dataclasses import fields

import numpy as np
import pytest

import repro.infer
from repro import CompiledModel, EngineConfig, EnumConfig, compile_model
from repro.engine import ENGINES
from repro.infer import MCMC, NUTS, make_potential
from repro.ppl import distributions as dist
from repro.ppl.primitives import observe, sample

SOURCE = """
data { int N; real y[N]; }
parameters { real mu; real<lower=0> sigma; }
model {
  mu ~ normal(0, 5);
  sigma ~ normal(0, 2);
  y ~ normal(mu, sigma);
}
"""

DATA = {"N": 12, "y": np.random.default_rng(7).normal(0.8, 0.6, 12)}


# ----------------------------------------------------------------------
# the config object
# ----------------------------------------------------------------------
def test_defaults_and_constants():
    config = EngineConfig()
    assert config.engine == "compiled"
    assert config.engine in ENGINES
    assert config.enum == EnumConfig(strategy="off")


@pytest.mark.parametrize("kwargs", [
    {"engine": "jit"},
])
def test_validation_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        EngineConfig(**kwargs)


@pytest.mark.parametrize("enum", [None, "auto", {"strategy": "auto"}],
                         ids=["none", "name", "dict"])
def test_enum_field_is_always_an_enum_config(enum):
    # the field holds the resolved config; names are coerced only at the
    # ``compile_model(enum=...)`` / ``Potential(enum=...)`` entry points
    with pytest.raises(TypeError, match="enum must be an EnumConfig"):
        EngineConfig(enum=enum)


def test_coerce_accepts_none_name_and_config():
    assert EngineConfig.coerce(None) == EngineConfig()
    assert EngineConfig.coerce("interpreted").engine == "interpreted"
    base = EngineConfig(enum=EnumConfig(strategy="auto"))
    assert EngineConfig.coerce(base) is base
    with pytest.raises(TypeError):
        EngineConfig.coerce(42)


def test_replace_validates_and_preserves():
    config = EngineConfig(enum=EnumConfig(strategy="auto"))
    replaced = config.replace(engine="interpreted")
    assert replaced.engine == "interpreted"
    assert replaced.enum == EnumConfig(strategy="auto")
    assert config.engine == "compiled", "replace must not mutate"
    with pytest.raises(ValueError):
        config.replace(engine="nope")


def test_config_is_hashable_and_usable_as_cache_key():
    a = EngineConfig()
    b = EngineConfig()
    c = EngineConfig(engine="interpreted")
    assert {a: 1, c: 2}[b] == 1
    assert a == b and a != c


def test_to_metadata_round_trip():
    config = EngineConfig(engine="interpreted",
                          enum=EnumConfig(strategy="auto", max_table_size=1024))
    meta = config.to_metadata()
    assert meta == {"engine": "interpreted",
                    "enum": {"strategy": "auto", "max_table_size": 1024}}
    assert EngineConfig(engine=meta["engine"],
                        enum=EnumConfig(**meta["enum"])) == config


def test_one_spelling_per_option():
    """The removed spellings are gone, not shimmed: each fails with
    Python's own error and only the ``engine`` + ``enum`` surface remains."""
    assert [f.name for f in fields(EngineConfig)] == ["engine", "enum"]
    assert EngineConfig().enum == EnumConfig(strategy="off")
    with pytest.raises(TypeError):
        compile_model(SOURCE, enumerate="parallel")
    with pytest.raises(TypeError):
        compile_model(SOURCE, max_enum_table_size=8)
    for method in ("nuts", "vi", "advi", "svi", "generated_quantities"):
        assert not hasattr(CompiledModel, f"run_{method}"), method
    assert not hasattr(repro.infer, "ADVI")
    with pytest.raises(ValueError, match="unknown fit method"):
        compile_model(SOURCE, name="no_advi").condition(DATA).fit("advi")

    def model():
        mu = sample("mu", dist.Normal(0.0, 2.0))
        observe(dist.Normal(mu, 1.0), DATA["y"], name="y")

    mcmc = MCMC(NUTS(make_potential(model)), num_warmup=10, num_samples=5,
                num_chains=2, seed=0).run()
    default, flat = mcmc.get_extra_fields(), mcmc.get_extra_fields(group_by_chain=False)
    assert sorted(default) == sorted(flat)
    for key in flat:
        np.testing.assert_array_equal(default[key], flat[key])


def test_names_match_exactly():
    """Method and guide names resolve only as written: no case-folding or
    stripping gives a name a second spelling."""
    from repro.guides import get_autoguide

    with pytest.raises(ValueError, match="unknown guide family"):
        get_autoguide("AUTO_NORMAL ")
    conditioned = compile_model(SOURCE, name="exact_names").condition(DATA)
    with pytest.raises(ValueError, match="unknown fit method"):
        conditioned.fit("NUTS")
    with pytest.raises(ValueError, match="unknown guide family"):
        conditioned.fit("vi", guide="Explicit", num_steps=1)


# ----------------------------------------------------------------------
# threading through compile_model / ConditionedModel / Potential
# ----------------------------------------------------------------------
def test_compile_model_stamps_engine_config():
    config = EngineConfig(engine="interpreted")
    compiled = compile_model(SOURCE, engine=config, name="engine_stamp")
    assert compiled.engine_config == config
    assert compiled.resolved_engine().engine == "interpreted"
    # a call-site override only replaces the engine selection
    assert compiled.resolved_engine("compiled").engine == "compiled"
    assert compiled.resolved_engine(EngineConfig()) == EngineConfig()


def test_engine_threads_to_potential_and_stats():
    model = compile_model(SOURCE, name="engine_thread").condition(DATA)
    interpreted = model.potential(0, engine="interpreted")
    compiled = model.potential(0, engine="compiled")
    assert interpreted.engine_config.engine == "interpreted"
    assert compiled.engine_config.engine == "compiled"
    # cached per (seed, config): same engine returns the same object
    assert model.potential(0, engine="compiled") is compiled
    assert model.potential(1, engine="compiled") is not compiled
    z = compiled.initial_unconstrained()
    compiled.potential_and_grad(z)
    compiled.potential_and_grad(z)
    stats = compiled.metrics_view()
    assert stats["engine"] == "compiled"
    assert stats["tape_modes"].get("single") in ("fast", "value_fast", "off")
    assert stats["grad_evals"] == 2


def test_fit_metadata_records_engine_and_eval_counters():
    model = compile_model(SOURCE, name="engine_meta").condition(DATA)
    fit = model.fit("nuts", num_warmup=15, num_samples=10, seed=0,
                    engine="compiled")
    meta = fit.metadata
    assert meta["engine"] == "compiled"
    assert meta["engine_config"]["engine"] == "compiled"
    counters = meta["eval_counters"]
    assert counters["grad_evals"] > 0
    assert counters["tape_seconds"] >= 0.0
    # the steady state of a compiled-engine NUTS run serves from the tape
    assert counters["compiled_evals"] > 0
    # the posterior carries the same metadata for save/load consumers
    assert fit.posterior.metadata["engine"] == "compiled"


def test_interpreted_fit_records_zero_compiled_evals():
    model = compile_model(SOURCE, name="engine_meta_interp").condition(DATA)
    fit = model.fit("nuts", num_warmup=15, num_samples=10, seed=0,
                    engine="interpreted")
    assert fit.metadata["engine"] == "interpreted"
    assert fit.metadata["eval_counters"]["compiled_evals"] == 0


def test_enum_kwarg_maps_onto_config():
    compiled = compile_model(SOURCE, enum="auto", name="engine_enum")
    assert compiled.engine_config == EngineConfig(enum=EnumConfig(strategy="auto"))
    # ``enum=`` replaces only the enum field of an ``engine=`` config
    both = compile_model(SOURCE, engine="interpreted", enum="parallel",
                         name="engine_enum_both")
    assert both.engine_config == EngineConfig(
        engine="interpreted", enum=EnumConfig(strategy="parallel"))
    assert compile_model(SOURCE, name="engine_enum_off").engine_config.enum \
        == EnumConfig(strategy="off")


def test_enum_table_cap_maps_onto_config():
    cap = EnumConfig(strategy="auto", max_table_size=2048)
    compiled = compile_model(SOURCE, enum=cap, name="engine_cap")
    assert compiled.engine_config.enum is cap
    potential = compiled.condition(DATA).potential(0)
    assert potential.enum_config.max_table_size == 2048


def test_chain_method_is_a_fit_option():
    model = compile_model(SOURCE, name="engine_chain").condition(DATA)
    kwargs = dict(num_warmup=15, num_samples=10, num_chains=2, seed=0)
    default = model.fit("nuts", **kwargs)
    assert default.posterior.metadata["chain_method"] == "sequential"
    vectorized = model.fit("nuts", chain_method="vectorized", **kwargs)
    assert vectorized.posterior.metadata["chain_method"] == "vectorized"
    a = default.get_samples(group_by_chain=True)
    b = vectorized.get_samples(group_by_chain=True)
    for name in a:
        np.testing.assert_allclose(b[name], a[name], atol=1e-12)


def test_fit_rejects_unknown_chain_method():
    model = compile_model(SOURCE, name="engine_chain_bad").condition(DATA)
    with pytest.raises(ValueError, match="unknown chain_method"):
        model.fit("nuts", num_warmup=5, num_samples=5, chain_method="parallel")


def test_compiled_and_interpreted_fits_match_bitwise():
    model = compile_model(SOURCE, name="engine_match").condition(DATA)
    fit_c = model.fit("nuts", num_warmup=20, num_samples=15, seed=3,
                      engine="compiled")
    fit_i = model.fit("nuts", num_warmup=20, num_samples=15, seed=3,
                      engine="interpreted")
    # the "fast" tier is bitwise, so the NUTS trajectories are identical
    for name, draws in fit_c.posterior.draws.items():
        np.testing.assert_array_equal(draws, fit_i.posterior.draws[name])
