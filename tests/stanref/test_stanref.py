"""Stan reference backend tests: interpreter semantics and NUTS baseline."""

import numpy as np
import pytest
import scipy.stats as st

from repro.stanref import Environment, StanModel, StanRuntimeError
from repro.stanref.interpreter import TargetAccumulator
from repro.corpus import models as corpus_models


def test_environment_chained_lookup_and_assign():
    parent = Environment({"a": 1.0})
    child = parent.child({"b": 2.0})
    assert child.lookup("a") == 1.0
    child.assign("a", 5.0)
    assert parent.lookup("a") == 5.0
    child.assign("c", 3.0)
    assert "c" in child and "c" not in parent
    assert set(child.flatten()) == {"a", "b", "c"}


def test_environment_missing_variable_raises():
    with pytest.raises(StanRuntimeError):
        Environment().lookup("missing")


def test_target_matches_closed_form(normal_source, normal_data):
    model = StanModel(normal_source)
    t = model.target(normal_data, {"mu": 1.0, "sigma": 2.0})
    expected = (st.norm(0, 10).logpdf(1.0) + st.cauchy(0, 5).logpdf(2.0)
                + st.norm(1.0, 2.0).logpdf(normal_data["y"]).sum())
    assert t == pytest.approx(expected)


def test_target_of_target_update_model():
    source = corpus_models.get("target_update_example")
    model = StanModel(source)
    data = {"N": 3, "y": np.array([0.1, -0.5, 1.2])}
    t = model.target(data, {"mu": 0.3})
    expected = st.norm(0, 10).logpdf(0.3) + st.norm(0.3, 1).logpdf(data["y"]).sum()
    assert t == pytest.approx(expected)


def test_target_left_expression_semantics():
    source = corpus_models.get("left_expression_example")
    model = StanModel(source)
    data = {"N": 3, "y": np.array([0.1, -0.5, 1.2])}
    phi = np.array([0.2, 0.4, -0.1])
    t = model.target(data, {"phi": phi})
    expected = (st.norm(0, 0.001 * 3).logpdf(phi.sum())
                + st.norm(phi, 1.0).logpdf(data["y"]).sum())
    assert t == pytest.approx(expected)


def test_interpreter_control_flow():
    source = """
    data { int N; }
    parameters { real mu; }
    model {
      real acc;
      int i;
      acc = 0;
      i = 1;
      while (i <= N) {
        if (i % 2 == 0)
          acc = acc + i;
        else
          acc = acc - 1;
        i = i + 1;
      }
      target += acc * mu;
    }
    """
    model = StanModel(source)
    # N=4: acc = -1 +2 -1 +4 = 4
    assert model.target({"N": 4}, {"mu": 2.0}) == pytest.approx(8.0)


def test_interpreter_user_functions_and_loops():
    source = corpus_models.get("user_function_example")
    data = {"N": 3, "y": np.array([1.0, 2.0, 3.0]), "x": np.array([1.0, 2.0, 3.0])}
    model = StanModel(source)
    t = model.target(data, {"alpha": 0.5, "beta": 1.0, "sigma": 1.0})
    expected = (st.norm(0, 5).logpdf(0.5) + st.norm(0, 5).logpdf(1.0)
                + st.cauchy(0, 2).logpdf(1.0)
                + st.norm(0.5 + data["x"], 1.0).logpdf(data["y"]).sum())
    assert t == pytest.approx(expected)


def test_interpreter_array_update_is_functional():
    source = """
    data { int N; real y[N]; }
    parameters { real mu; }
    model {
      real shifted[N];
      for (i in 1:N)
        shifted[i] = y[i] + mu;
      target += sum(shifted);
    }
    """
    model = StanModel(source)
    data = {"N": 3, "y": np.array([1.0, 2.0, 3.0])}
    assert model.target(data, {"mu": 1.0}) == pytest.approx(9.0)


def test_interpreter_transformed_data_runs_once():
    source = corpus_models.get("transformed_data_example")
    model = StanModel(source)
    data = {"N": 4, "y": np.array([1.0, 2.0, 3.0, 4.0])}
    t = model.target(data, {"mu_std": 0.5})
    sd = np.std([1, 2, 3, 4], ddof=1)
    expected = st.norm(0, 1).logpdf(0.5) + st.norm(2.5 + sd * 0.5, sd).logpdf(data["y"]).sum()
    assert t == pytest.approx(expected)


def test_tilde_in_generated_quantities_is_rejected():
    source = """
    data { real y; }
    parameters { real mu; }
    model { y ~ normal(mu, 1); }
    generated quantities { real z; z ~ normal(0, 1); }
    """
    model = StanModel(source)
    with pytest.raises(StanRuntimeError):
        model.generated_quantities({"y": 1.0}, {"mu": np.array([0.0])})


def test_reference_nuts_recovers_coin_posterior(coin_source, coin_data):
    model = StanModel(coin_source)
    mcmc = model.run_nuts(coin_data, num_warmup=200, num_samples=200, seed=0)
    draws = mcmc.get_samples()["z"]
    expected_mean = (coin_data["x"].sum() + 1) / (coin_data["N"] + 2)
    assert draws.mean() == pytest.approx(expected_mean, abs=0.08)


@pytest.mark.slow
def test_reference_and_compiled_backends_agree(normal_source, normal_data):
    from repro import compile_model

    ref = StanModel(normal_source).run_nuts(normal_data, num_warmup=250, num_samples=250, seed=0)
    comp = compile_model(normal_source, backend="numpyro").condition(normal_data).fit(
        "nuts", num_warmup=250, num_samples=250, seed=0)
    from repro.infer import diagnostics

    passed, err = diagnostics.accuracy_check(ref.get_samples(), comp.get_samples())
    assert passed, f"relative error {err}"


def test_generated_quantities_posterior_predictive(normal_source, normal_data):
    source = corpus_models.get("generated_quantities_example")
    model = StanModel(source)
    draws = {"mu": np.array([0.0, 1.0, 2.0]), "sigma": np.array([1.0, 1.0, 1.0])}
    gq = model.generated_quantities(normal_data, draws)
    assert set(gq) == {"y_pred", "log_lik"}
    assert gq["y_pred"].shape[0] == 3


def test_target_accumulator_handler_direct():
    acc = TargetAccumulator()
    from repro.ppl import distributions as dist

    acc.on_tilde(dist.Normal(0.0, 1.0), 0.5)
    acc.on_target_increment(2.0)
    assert float(acc.target.data) == pytest.approx(st.norm(0, 1).logpdf(0.5) + 2.0)
