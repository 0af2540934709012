"""The unified ``engine=`` configuration API.

:class:`repro.EngineConfig` is the single declarative value for every
evaluation knob — engine selection, enumeration mode, default chain method,
table cap — accepted by ``compile_model`` and
threaded through ``ConditionedModel`` / ``Potential``.  These tests cover
the config object itself, the threading, the legacy-kwarg shims and the
metadata stamping (resolved engine + per-fit evaluation counters).
"""

import warnings

import numpy as np
import pytest

from repro import EngineConfig, compile_model, deprecation
from repro.engine import CHAIN_METHODS, ENGINES, ENUMERATE_MODES

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
    assert config.enumerate is None
    assert config.chain_method == "sequential"
    assert config.max_enum_table_size is None
    assert config.engine in ENGINES
    assert config.enumerate in ENUMERATE_MODES
    assert config.chain_method in CHAIN_METHODS


@pytest.mark.parametrize("kwargs", [
    {"engine": "jit"},
    {"enumerate": "sequential"},
    {"chain_method": "parallel"},
    {"max_enum_table_size": 0},
])
def test_validation_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        EngineConfig(**kwargs)


def test_coerce_accepts_none_name_and_config():
    assert EngineConfig.coerce(None) == EngineConfig()
    assert EngineConfig.coerce("interpreted").engine == "interpreted"
    base = EngineConfig(enumerate="factorized")
    assert EngineConfig.coerce(base) is base
    # None overrides are ignored (legacy-kwarg shims pass them through)
    assert EngineConfig.coerce(base, enumerate=None) == base
    assert EngineConfig.coerce(None, enumerate="parallel").enumerate == "parallel"
    with pytest.raises(TypeError):
        EngineConfig.coerce(42)


def test_replace_validates_and_preserves():
    config = EngineConfig(enumerate="factorized")
    replaced = config.replace(engine="interpreted")
    assert replaced.engine == "interpreted"
    assert replaced.enumerate == "factorized"
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
    config = EngineConfig(engine="interpreted", enumerate="factorized",
                          max_enum_table_size=1024)
    meta = config.to_metadata()
    assert meta["engine"] == "interpreted"
    assert meta["enumerate"] == "factorized"
    assert meta["max_enum_table_size"] == 1024
    assert EngineConfig(**meta) == config


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


def test_compiled_and_interpreted_fits_match_bitwise():
    model = compile_model(SOURCE, name="engine_match").condition(DATA)
    fit_c = model.fit("nuts", num_warmup=20, num_samples=15, seed=3,
                      engine="compiled")
    fit_i = model.fit("nuts", num_warmup=20, num_samples=15, seed=3,
                      engine="interpreted")
    # the "fast" tier is bitwise, so the NUTS trajectories are identical
    for name, draws in fit_c.posterior.draws.items():
        np.testing.assert_array_equal(draws, fit_i.posterior.draws[name])


def test_chain_method_default_comes_from_config():
    config = EngineConfig(chain_method="vectorized")
    model = compile_model(SOURCE, engine=config, name="engine_chain").condition(DATA)
    fit = model.fit("nuts", num_warmup=15, num_samples=10, num_chains=2, seed=0)
    assert fit.posterior.metadata["chain_method"] == "vectorized"
    # an explicit kwarg still wins
    fit2 = model.fit("nuts", num_warmup=15, num_samples=10, num_chains=2,
                     seed=0, chain_method="sequential")
    assert fit2.posterior.metadata["chain_method"] == "sequential"


# ----------------------------------------------------------------------
# legacy-kwarg shims
# ----------------------------------------------------------------------
def test_enumerate_kwarg_warns_once_and_maps_onto_config():
    deprecation.reset_warnings()
    with pytest.warns(DeprecationWarning, match="enumerate"):
        compiled = compile_model(
            "parameters { real x; } model { x ~ normal(0, 1); }",
            enumerate="factorized", name="shim_enum")
    assert compiled.engine_config.enumerate == "factorized"
    assert compiled.enumerate_mode == "factorized"
    # once per process: the second use is silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile_model("parameters { real x; } model { x ~ normal(0, 1); }",
                      enumerate="factorized", name="shim_enum2")


def test_max_enum_table_size_kwarg_warns_and_maps():
    deprecation.reset_warnings()
    with pytest.warns(DeprecationWarning, match="max_enum_table_size"):
        compiled = compile_model(
            "parameters { real x; } model { x ~ normal(0, 1); }",
            max_enum_table_size=2048, name="shim_cap")
    assert compiled.engine_config.max_enum_table_size == 2048
    assert compiled.max_enum_table_size == 2048
