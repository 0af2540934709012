"""Compiler tests: analysis, schemes, mixed rewriting, codegen, end-to-end runs."""

import numpy as np
import pytest
import scipy.stats as st

from repro import CompileError, NonGenerativeModelError, UnsupportedFeatureError, compile_model
from repro.core import analysis, compile_comprehensive, compile_generative, compile_mixed
from repro.core.codegen import sanitize
from repro.core.schemes import compile_guide, prior_for_declaration
from repro.corpus import models as corpus_models
from repro.frontend.parser import parse_program
from repro.gprob import ir
from repro.gprob.pretty import pretty as pretty_ir


# ----------------------------------------------------------------------
# analysis (Table 1 features)
# ----------------------------------------------------------------------
def test_analysis_coin_is_generative(coin_source):
    report = analysis.analyze(parse_program(coin_source))
    assert report.is_generative
    assert not report.has_left_expression


def test_analysis_detects_left_expression():
    report = analysis.analyze(parse_program(corpus_models.get("left_expression_example")))
    assert report.has_left_expression
    assert not report.is_generative


def test_analysis_detects_multiple_updates():
    report = analysis.analyze(parse_program(corpus_models.get("multiple_updates_example")))
    assert report.multiple_update_params == ["phi_y"]


def test_analysis_detects_implicit_priors():
    report = analysis.analyze(parse_program(corpus_models.get("implicit_prior_example")))
    assert set(report.implicit_prior_params) == {"alpha0", "beta0", "sigma"}


def test_analysis_detects_target_updates_and_truncation():
    assert analysis.analyze(parse_program(corpus_models.get("target_update_example"))).has_target_update
    assert analysis.analyze(parse_program(corpus_models.get("truncation_example"))).has_truncation


def test_analysis_corpus_summary_percentages():
    reports = [analysis.analyze(parse_program(corpus_models.get(n))) for n in corpus_models.names()]
    summary = analysis.summarize_corpus(reports)
    pct = summary.percentages()
    assert summary.total == len(corpus_models.names())
    # Implicit priors are the most common feature, as in Table 1 (58%).
    assert pct["implicit_prior"] > pct["left_expression"]
    assert pct["implicit_prior"] > pct["multiple_updates"]


# ----------------------------------------------------------------------
# priors for parameter declarations (Fig. 6)
# ----------------------------------------------------------------------
def test_prior_for_declaration_variants():
    program = parse_program("""
    parameters {
      real a;
      real<lower=0> b;
      real<upper=1> c;
      real<lower=0, upper=1> d;
      simplex[3] s;
      ordered[3] o;
    }
    model { }
    """)
    priors = {d.name: prior_for_declaration(d) for d in program.parameters.decls}
    assert priors["a"].name == "improper_uniform"
    assert priors["b"].name == "improper_uniform"
    assert priors["c"].name == "improper_uniform"
    assert priors["d"].name == "bounded_uniform"
    assert priors["s"].name == "improper_simplex"
    assert priors["o"].name == "improper_ordered"


# ----------------------------------------------------------------------
# compilation schemes on the coin model (Fig. 2)
# ----------------------------------------------------------------------
def test_comprehensive_coin_samples_then_observes(coin_source):
    program = parse_program(coin_source)
    compiled = compile_comprehensive(program)
    # The parameter prior is the outermost let and every ~ becomes an observe.
    assert isinstance(compiled, ir.Let)
    assert compiled.name == "z"
    assert isinstance(compiled.value, ir.Sample)
    assert compiled.value.dist.name == "bounded_uniform"
    assert ir.observe_count(compiled) == 2  # beta prior + bernoulli likelihood (in loop)


def test_generative_coin_samples_from_beta(coin_source):
    program = parse_program(coin_source)
    compiled = compile_generative(program)
    assert isinstance(compiled, ir.Let)
    assert compiled.value.dist.name == "beta"
    assert ir.observe_count(compiled) == 1


def test_mixed_coin_recovers_generative_shape(coin_source):
    program = parse_program(coin_source)
    mixed = compile_mixed(compile_comprehensive(program), {"z"})
    assert isinstance(mixed, ir.Let)
    assert isinstance(mixed.value, ir.Sample)
    assert mixed.value.dist.name == "beta"
    assert ir.observe_count(mixed) == 1


def test_generative_rejects_left_expression():
    program = parse_program(corpus_models.get("left_expression_example"))
    with pytest.raises(NonGenerativeModelError):
        compile_generative(program)


def test_generative_rejects_multiple_updates():
    program = parse_program(corpus_models.get("multiple_updates_example"))
    with pytest.raises(NonGenerativeModelError):
        compile_generative(program)


def test_generative_rejects_implicit_prior():
    program = parse_program(corpus_models.get("implicit_prior_example"))
    with pytest.raises(NonGenerativeModelError):
        compile_generative(program)


def test_generative_rejects_target_update():
    program = parse_program(corpus_models.get("target_update_example"))
    with pytest.raises(NonGenerativeModelError):
        compile_generative(program)


def test_comprehensive_accepts_all_table1_features():
    for name in ("left_expression_example", "multiple_updates_example",
                 "implicit_prior_example", "target_update_example"):
        compile_comprehensive(parse_program(corpus_models.get(name)))


def test_truncation_is_unsupported_in_all_schemes():
    program = parse_program(corpus_models.get("truncation_example"))
    with pytest.raises(UnsupportedFeatureError):
        compile_comprehensive(program)


def test_mixed_out_of_order_statements_are_rescheduled():
    program = parse_program(corpus_models.get("out_of_order_example"))
    mixed = compile_mixed(compile_comprehensive(program), {"x", "y"})
    # x must be sampled before y (y's distribution depends on x).
    text = pretty_ir(mixed)
    assert text.index("let x = sample(normal") < text.index("let y = sample(normal")


def test_mixed_does_not_merge_mismatched_supports():
    # sigma is declared <lower=0> but given a normal prior: supports differ,
    # so the improper prior + observe must be preserved (§4's truncation rule).
    program = parse_program(corpus_models.get("mixed_merge_example"))
    mixed = compile_mixed(compile_comprehensive(program), {"mu", "sigma"})
    sampled = {node.name: node.value.dist.name for node in ir.walk_gexpr(mixed)
               if isinstance(node, ir.Let) and isinstance(node.value, ir.Sample)}
    assert sampled["mu"] == "normal"          # merged (real == real)
    assert sampled["sigma"] == "improper_uniform"  # not merged (positive != real)


def test_guide_compilation_requires_all_parameters():
    source = """
    parameters { real a; real b; }
    model { a ~ normal(0, 1); b ~ normal(0, 1); }
    guide { a ~ normal(0, 1); }
    """
    with pytest.raises(CompileError):
        compile_guide(parse_program(source))


def test_pretty_printer_mentions_primitives(coin_source):
    text = pretty_ir(compile_comprehensive(parse_program(coin_source)))
    assert "sample(" in text and "observe(" in text and "return(" in text


# ----------------------------------------------------------------------
# codegen / compile_model end to end
# ----------------------------------------------------------------------
def test_sanitize_renames_keywords_and_dots():
    assert sanitize("lambda") == "lambda__"
    assert sanitize("mlp.l1.weight") == "mlp_l1_weight"
    assert sanitize("mu") == "mu"
    assert sanitize("sample") == "sample__"


@pytest.mark.parametrize("scheme", ["comprehensive", "mixed", "generative"])
@pytest.mark.parametrize("backend", ["pyro", "numpyro"])
def test_compile_model_all_schemes_and_backends(coin_source, scheme, backend):
    compiled = compile_model(coin_source, backend=backend, scheme=scheme)
    assert "def model(" in compiled.source
    assert compiled.parameter_names == ["z"]
    assert compiled.data_names == ["N", "x"]


def test_compile_model_rejects_unknown_scheme_and_backend(coin_source):
    with pytest.raises(ValueError):
        compile_model(coin_source, scheme="bogus")
    with pytest.raises(ValueError):
        compile_model(coin_source, backend="bogus")


def test_numpyro_backend_emits_fori_loop(coin_source):
    compiled = compile_model(coin_source, backend="numpyro", scheme="mixed")
    assert "fori_loop(" in compiled.source


def test_pyro_backend_emits_python_loop(coin_source):
    compiled = compile_model(coin_source, backend="pyro", scheme="mixed")
    assert "for i in _irange(" in compiled.source
    assert "fori_loop(" not in compiled.source


def test_compiled_log_joint_matches_closed_form(coin_source, coin_data):
    compiled = compile_model(coin_source, backend="numpyro", scheme="comprehensive")
    z = 0.6
    log_joint = compiled.log_joint(coin_data, {"z": z})
    expected = (st.beta(1, 1).logpdf(z)
                + st.bernoulli(z).logpmf(coin_data["x"]).sum()
                + st.uniform(0, 1).logpdf(z))  # bounded-uniform prior of the scheme
    assert log_joint == pytest.approx(expected)


def test_compiled_log_joint_same_across_schemes(normal_source, normal_data):
    params = {"mu": 0.8, "sigma": 1.3}
    values = []
    for scheme in ("comprehensive", "mixed"):
        compiled = compile_model(normal_source, backend="numpyro", scheme=scheme)
        values.append(compiled.log_joint(normal_data, params))
    # improper priors contribute zero, so both schemes agree exactly
    assert values[0] == pytest.approx(values[1])


def test_compile_model_runs_nuts_and_recovers_posterior(coin_source, coin_data):
    compiled = compile_model(coin_source, backend="numpyro", scheme="mixed")
    mcmc = compiled.condition(coin_data).fit("nuts", num_warmup=200, num_samples=200,
                                             seed=0)
    draws = mcmc.get_samples()["z"]
    heads = coin_data["x"].sum()
    expected_mean = (heads + 1) / (coin_data["N"] + 2)
    assert draws.mean() == pytest.approx(expected_mean, abs=0.08)


def test_transformed_parameters_are_returned():
    source = corpus_models.get("eight_schools_noncentered")
    compiled = compile_model(source, backend="numpyro", scheme="comprehensive")
    assert "theta" in compiled.transformed_parameter_names


def test_generated_quantities_execution(normal_data):
    source = corpus_models.get("generated_quantities_example")
    compiled = compile_model(source, backend="numpyro", scheme="comprehensive")
    draws = {"mu": np.array([0.0, 1.0]), "sigma": np.array([1.0, 2.0])}
    gq = compiled.condition(normal_data).generated_quantities(draws)
    assert set(gq) == {"y_pred", "log_lik"}
    assert len(gq["y_pred"]) == 2


def test_extra_data_entries_are_ignored(coin_source, coin_data):
    compiled = compile_model(coin_source, backend="numpyro", scheme="comprehensive")
    callable_fn = compiled.model_callable({**coin_data, "extra_column": 1.0})
    assert callable_fn() is not None


def test_user_functions_are_compiled():
    source = corpus_models.get("user_function_example")
    compiled = compile_model(source, backend="numpyro", scheme="comprehensive")
    assert "_user_linear_combination" in compiled.source


def test_transformed_data_precomputation():
    source = corpus_models.get("transformed_data_example")
    compiled = compile_model(source, backend="numpyro", scheme="comprehensive")
    data = {"N": 4, "y": np.array([1.0, 2.0, 3.0, 4.0])}
    lj = compiled.log_joint(data, {"mu_std": 0.0})
    expected = (st.norm(0, 1).logpdf(0.0)
                + st.norm(2.5, np.std([1, 2, 3, 4], ddof=1)).logpdf([1, 2, 3, 4]).sum())
    assert lj == pytest.approx(expected)


def test_compile_time_is_recorded(coin_source):
    compiled = compile_model(coin_source)
    assert compiled.compile_time_seconds > 0
