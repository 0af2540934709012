"""Tensor variable elimination (the contract strategy) + EnumConfig.

The contraction engine's contract, tested end to end:

* :func:`plan_elimination` produces a deterministic greedy min-fill order
  whose cost on a chain reproduces the O(T*K^2) forward algorithm, and
  raises :class:`ContractionError` (naming the ``EnumConfig`` knob and the
  greedy path cost) as soon as a clique exceeds the table cap;
* :class:`ContractFactors` calibration — marginals, joint MAP, exact
  samples — matches brute-force enumeration on randomized factor graphs:
  trees, 2D grids, 3-way terms, factorial chains;
* Stan models with cross-site coupling (factorial HMM, tree-coupled
  mixture, grid Ising coupling, 3-way terms) resolve to
  ``enum_strategy == "contract"`` and match the joint table
  (``enum="parallel"``) in values, gradients and the batched tape at
  sizes where the table is still materializable;
* isolated variables (mixture elements) are eliminated as one logsumexp
  block per site, on the tape and in ``infer_discrete``, which reads them
  out as one softmax per site in element order;
* ``infer_discrete`` over a contract potential (backward pass on the
  calibrated elimination tree) matches the table-based post-pass;
* the frozen :class:`EnumConfig` coerces/validates/hashes, and the resolved
  strategy + planner cost are stamped into ``fit.metadata["enum"]``.
"""

import numpy as np
import pytest

from repro import EngineConfig, EnumConfig, TableSizeError, compile_model
from repro.corpus import models as corpus_models
from repro.enum import ContractionError, discrete_rng, infer_discrete
from repro.enum.contract import ContractFactors, plan_elimination
from repro.frontend.semantics import SemanticError
from repro.posteriordb import datagen


# ----------------------------------------------------------------------
# plan_elimination: greedy ordering, determinism, caps
# ----------------------------------------------------------------------
def _path_graph(t=6, k=3):
    variables = [("z", i) for i in range(t)]
    cards = {v: k for v in variables}
    scopes = [(v,) for v in variables]
    scopes += [(variables[i], variables[i + 1]) for i in range(t - 1)]
    return variables, cards, scopes


def test_plan_elimination_chain_is_forward_algorithm():
    t, k = 6, 3
    variables, cards, scopes = _path_graph(t, k)
    order = plan_elimination(variables, cards, scopes)
    assert len(order.steps) == t
    # Endpoint-first elimination: every clique is a (pairwise) K^2 table
    # except the last surviving variable, whose clique is K.
    assert order.max_intermediate == k ** 2
    assert order.cost == (t - 1) * k ** 2 + k
    assert all(len(step.message) <= 1 for step in order.steps)


def test_plan_elimination_is_deterministic():
    rng = np.random.default_rng(7)
    variables = [("z", i) for i in range(10)]
    cards = {v: int(rng.integers(2, 4)) for v in variables}
    scopes = [(v,) for v in variables]
    for _ in range(12):
        i, j = rng.choice(10, size=2, replace=False)
        scopes.append((variables[i], variables[j]))
    first = plan_elimination(variables, cards, scopes)
    second = plan_elimination(variables, cards, scopes)
    assert first.steps == second.steps
    assert first.cost == second.cost


def test_plan_elimination_cap_error_names_config_knob():
    variables, cards, scopes = _path_graph(t=6, k=3)
    with pytest.raises(ContractionError, match="greedy path cost"):
        plan_elimination(variables, cards, scopes, max_table_size=8)
    with pytest.raises(ContractionError,
                       match=r"EnumConfig\(max_table_size=\.\.\.\)"):
        plan_elimination(variables, cards, scopes, max_table_size=8)


# ----------------------------------------------------------------------
# ContractFactors vs brute force on randomized factor graphs
# ----------------------------------------------------------------------
def _brute_force(variables, cards, factors):
    """Full joint over all assignments: (joint probs, log normalizer)."""
    shape = tuple(cards[v] for v in variables)
    log_joint = np.zeros(shape)
    for scope, table in factors:
        axes = tuple(variables.index(v) for v in scope)
        expanded = np.moveaxis(
            table.reshape(table.shape + (1,) * (len(shape) - len(scope))),
            range(len(scope)), axes)
        log_joint = log_joint + np.broadcast_to(expanded, shape)
    flat = log_joint.reshape(-1)
    m = flat.max()
    probs = np.exp(flat - m)
    z = probs.sum()
    return (probs / z).reshape(shape), m + np.log(z)


def _random_factors(variables, cards, scopes, rng):
    factors = [((v,), rng.normal(size=(cards[v],))) for v in variables]
    for scope in scopes:
        factors.append(
            (scope, rng.normal(size=tuple(cards[v] for v in scope))))
    return factors


def _check_against_brute_force(variables, cards, scopes, rng):
    factors = _random_factors(variables, cards, scopes, rng)
    joint, _ = _brute_force(variables, cards, factors)
    order = plan_elimination(variables, cards, list(scopes))
    bundle = ContractFactors(order.steps, dict(cards),
                             [(s, np.asarray(t)) for s, t in factors])
    marg = bundle.marginals()
    for i, v in enumerate(variables):
        axes = tuple(a for a in range(len(variables)) if a != i)
        np.testing.assert_allclose(marg[v], joint.sum(axis=axes),
                                   rtol=1e-9, atol=1e-12)
    assign = bundle.map_assignment()
    expected = np.unravel_index(np.argmax(joint), joint.shape)
    assert tuple(assign[v] for v in variables) == expected


def test_contract_factors_random_tree():
    rng = np.random.default_rng(11)
    variables = [("z", i) for i in range(7)]
    cards = {v: 3 for v in variables}
    scopes = [(variables[int(rng.integers(0, i))], variables[i])
              for i in range(1, 7)]
    _check_against_brute_force(variables, cards, scopes, rng)


def test_contract_factors_grid():
    rng = np.random.default_rng(13)
    side = 3
    variables = [("z", r * side + c) for r in range(side) for c in range(side)]
    cards = {v: 2 for v in variables}
    scopes = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                scopes.append((variables[r * side + c],
                               variables[r * side + c + 1]))
            if r + 1 < side:
                scopes.append((variables[r * side + c],
                               variables[(r + 1) * side + c]))
    _check_against_brute_force(variables, cards, scopes, rng)


def test_contract_factors_three_way_terms():
    rng = np.random.default_rng(17)
    variables = [("z", i) for i in range(6)]
    cards = {v: 2 for v in variables}
    scopes = [(variables[0], variables[1], variables[2]),
              (variables[3], variables[4], variables[5]),
              (variables[2], variables[3])]
    _check_against_brute_force(variables, cards, scopes, rng)


def test_contract_factors_factorial_chain():
    rng = np.random.default_rng(19)
    t = 4
    z1 = [("z1", i) for i in range(t)]
    z2 = [("z2", i) for i in range(t)]
    variables = z1 + z2
    cards = {v: 2 for v in variables}
    scopes = [(z1[i], z1[i + 1]) for i in range(t - 1)]
    scopes += [(z2[i], z2[i + 1]) for i in range(t - 1)]
    scopes += [(z1[i], z2[i]) for i in range(t)]           # shared emission
    _check_against_brute_force(variables, cards, scopes, rng)


def test_contract_factors_sampling_matches_joint():
    rng = np.random.default_rng(23)
    variables = [("z", i) for i in range(3)]
    cards = {v: 2 for v in variables}
    scopes = [(variables[0], variables[1]), (variables[1], variables[2])]
    factors = _random_factors(variables, cards, scopes, rng)
    joint, _ = _brute_force(variables, cards, factors)
    order = plan_elimination(variables, cards, list(scopes))
    bundle = ContractFactors(order.steps, dict(cards), factors)
    counts = np.zeros_like(joint)
    draws = 4000
    for _ in range(draws):
        assign = bundle.sample(rng)
        counts[tuple(assign[v] for v in variables)] += 1
    np.testing.assert_allclose(counts / draws, joint, atol=0.03)


# ----------------------------------------------------------------------
# Stan end-to-end: contract vs the joint table at materializable sizes
# ----------------------------------------------------------------------
GRID_ISING = """
data {
  int N;
  real y[N];
  real coupling;
}
parameters {
  real mu[2];
  int<lower=1, upper=2> z[N];
}
model {
  mu[1] ~ normal(-1, 1);
  mu[2] ~ normal(1, 1);
  for (r in 1:3) {
    for (c in 1:2) {
      target += coupling * (2 * z[3 * (r - 1) + c] - 3)
                         * (2 * z[3 * (r - 1) + c + 1] - 3);
    }
  }
  for (r in 1:2) {
    for (c in 1:3) {
      target += coupling * (2 * z[3 * (r - 1) + c] - 3)
                         * (2 * z[3 * r + c] - 3);
    }
  }
  for (i in 1:N)
    y[i] ~ normal(mu[z[i]], 0.8);
}
"""

THREE_WAY = """
data {
  int N;
  real y[N];
  real coupling;
}
parameters {
  real mu[2];
  int<lower=1, upper=2> z[N];
}
model {
  mu[1] ~ normal(-1, 1);
  mu[2] ~ normal(1, 1);
  target += coupling * (2 * z[1] - 3) * (2 * z[2] - 3) * (2 * z[3] - 3);
  target += coupling * (2 * z[4] - 3) * (2 * z[5] - 3) * (2 * z[6] - 3);
  target += coupling * (2 * z[3] - 3) * (2 * z[4] - 3);
  for (i in 1:N)
    y[i] ~ normal(mu[z[i]], 0.8);
}
"""


def _contract_vs_joint(source, data, probe_shift=0.37):
    pot = compile_model(source, enum="auto").condition(data).potential(0)
    joint = compile_model(source, enum="parallel") \
        .condition(data).potential(0)
    z0 = pot.initial_unconstrained()
    for z in (z0, z0 + probe_shift):
        value_c, grad_c = pot.potential_and_grad(z)
        value_j, grad_j = joint.potential_and_grad(z)
        np.testing.assert_allclose(value_c, value_j, rtol=1e-10, atol=1e-8)
        np.testing.assert_allclose(grad_c, grad_j, rtol=1e-9, atol=1e-12)
    batch = np.stack([z0, z0 + probe_shift, z0 - 0.1])
    vb_c, gb_c = pot.potential_and_grad_batched(batch)
    vb_j, gb_j = joint.potential_and_grad_batched(batch)
    np.testing.assert_allclose(vb_c, vb_j, rtol=1e-10, atol=1e-8)
    np.testing.assert_allclose(gb_c, gb_j, rtol=1e-9, atol=1e-10)
    return pot, joint


def test_factorial_hmm_matches_joint_table():
    data = datagen.factorial_hmm_data(seed=0, t=5)      # table 4^5 = 1024
    pot, _ = _contract_vs_joint(
        corpus_models.get("factorial_hmm_enum"), data)
    assert pot.enum_strategy == "contract"
    meta = pot.enum_metadata()
    assert meta["requested"] == "auto"
    assert meta["strategy"] == "contract"
    # linear in T at fixed treewidth: far below the 1024-entry joint table
    assert 0 < meta["cost_estimate"] < 1024


def test_tree_coupled_mixture_matches_joint_table():
    data = datagen.tree_mix_data(seed=1, n=10)          # table 2^10 = 1024
    pot, _ = _contract_vs_joint(
        corpus_models.get("tree_mix_enum"), data)
    assert pot.enum_strategy == "contract"


def test_grid_coupling_matches_joint_table():
    rng = np.random.default_rng(5)
    data = {"N": 9, "y": rng.normal(0.0, 1.5, size=9), "coupling": 0.5}
    pot, _ = _contract_vs_joint(GRID_ISING, data)       # table 2^9 = 512
    assert pot.enum_strategy == "contract"
    # bounded treewidth: the largest clique stays well under the full table
    assert pot.factorization.cost_estimate() < 512


def test_three_way_terms_match_joint_table():
    rng = np.random.default_rng(6)
    data = {"N": 6, "y": rng.normal(0.0, 1.5, size=6), "coupling": 0.7}
    pot, _ = _contract_vs_joint(THREE_WAY, data)        # table 2^6 = 64
    assert pot.enum_strategy == "contract"


def test_factorial_hmm_beyond_any_table_cap():
    # T=100: the joint table would have 4^100 ~ 1.6e60 entries; only the
    # contraction engine can evaluate, at cost linear in T.
    data = datagen.factorial_hmm_data(seed=0, t=100)
    pot = compile_model(corpus_models.get("factorial_hmm_enum"),
                        enum="auto").condition(data).potential(0)
    z0 = pot.initial_unconstrained()
    value, grad = pot.potential_and_grad(z0)
    assert pot.enum_strategy == "contract"
    assert pot.enum_plan.table_size == 4 ** 100
    assert np.isfinite(value) and np.all(np.isfinite(grad))


# ----------------------------------------------------------------------
# isolated variables: one elimination block per site
# ----------------------------------------------------------------------
def _logsumexp_nodes(n):
    """``logsumexp`` nodes in gauss_mix_enum's traced single tape at size n."""
    from repro.autodiff import compile as tape_compile

    recorded = []
    real_trace = tape_compile.trace

    def spy(fn, z0):
        out, root, nodes = real_trace(fn, z0)
        recorded.append(nodes)
        return out, root, nodes

    data = datagen.gauss_mix_enum_data(seed=0, n=n)
    pot = compile_model(corpus_models.get("gauss_mix_enum"),
                        enum="auto").condition(data).potential(0)
    z0 = pot.initial_unconstrained()
    tape_compile.trace = spy
    try:
        pot.potential_and_grad(z0)
        pot.potential_and_grad(z0)
    finally:
        tape_compile.trace = real_trace
    assert pot.metrics_view()["tape_modes"].get("single") == "fast"
    (nodes,) = recorded
    return sum(1 for node in nodes if node.op == "logsumexp")


def test_isolated_elements_contract_in_one_logsumexp():
    # the contraction's one logsumexp over the (K, N) block, at any N — an
    # element-at-a-time elimination would add one node per element
    assert _logsumexp_nodes(8) == 1
    assert _logsumexp_nodes(64) == 1


def test_infer_discrete_samples_isolated_elements_in_element_order():
    data = datagen.gauss_mix_enum_data(seed=0, n=8)
    pot = compile_model(corpus_models.get("gauss_mix_enum"),
                        enum="auto").condition(data).potential(0)
    # theta = 1/2, overlapping components: every responsibility is uncertain,
    # so the draws depend on the order the stream is consumed in
    z = np.zeros(pot.dim)
    z[pot.sites["mu"].offset:pot.sites["mu"].offset + 2] = [-0.5, 0.5]
    z[pot.sites["sigma"].offset] = np.log(2.0)
    drawn = infer_discrete(pot, z[None, None, :], mode="sample", seed=4)
    probs = drawn.marginals["z"][0, 0]                 # (8, K)
    assert np.all((probs > 0.05) & (probs < 0.95))
    rng = discrete_rng(4)
    expected = [drawn.support["z"][rng.choice(probs.shape[1], p=row / row.sum())]
                for row in probs]
    np.testing.assert_array_equal(drawn.draws["z"][0, 0], expected)


# ----------------------------------------------------------------------
# infer_discrete over the calibrated elimination tree
# ----------------------------------------------------------------------
def _factorial_potentials(t=5):
    data = datagen.factorial_hmm_data(seed=0, t=t)
    source = corpus_models.get("factorial_hmm_enum")
    pot = compile_model(source, enum="auto").condition(data).potential(0)
    joint = compile_model(source, enum="parallel") \
        .condition(data).potential(0)
    return pot, joint


def test_infer_discrete_contract_matches_table():
    pot, joint = _factorial_potentials(t=5)
    z0 = pot.initial_unconstrained()
    zs = np.stack([z0, z0 + 0.37])[None]              # (1 chain, 2 draws, D)
    marg_c = infer_discrete(pot, zs, mode="marginal", seed=3)
    marg_j = infer_discrete(joint, zs, mode="marginal", seed=3)
    # a never-evaluated potential resolves inside infer_discrete itself
    assert pot.enum_strategy == "contract"
    for name in marg_c.marginals:
        np.testing.assert_allclose(marg_c.marginals[name],
                                   marg_j.marginals[name],
                                   rtol=1e-8, atol=1e-10)
        np.testing.assert_array_equal(marg_c.draws[name],
                                      marg_j.draws[name])
    map_c = infer_discrete(pot, zs, mode="max", seed=3)
    map_j = infer_discrete(joint, zs, mode="max", seed=3)
    for name in map_c.draws:
        np.testing.assert_array_equal(map_c.draws[name], map_j.draws[name])


def test_infer_discrete_contract_sample_frequencies():
    pot, _ = _factorial_potentials(t=4)
    z0 = pot.initial_unconstrained()
    reps = 400
    zrep = np.repeat(z0[None], reps, axis=0)[None]
    samples = infer_discrete(pot, zrep, mode="sample", seed=11)
    marginal = infer_discrete(pot, z0[None][None], mode="marginal", seed=0)
    for name in samples.draws:
        freq = (samples.draws[name][0] == 2.0).mean(axis=0)
        prob = marginal.marginals[name][0, 0, :, 1]
        np.testing.assert_allclose(freq, prob, atol=0.08)


# ----------------------------------------------------------------------
# EnumConfig: coercion, validation, hashing, metadata stamping
# ----------------------------------------------------------------------
def test_enum_config_coerce_and_hash():
    assert EnumConfig.coerce(None) == EnumConfig()
    assert EnumConfig.coerce("auto") == EnumConfig(strategy="auto")
    config = EnumConfig(strategy="auto", max_table_size=1 << 20)
    assert EnumConfig.coerce(config) is config
    assert hash(config) == hash(config.replace())
    assert config.replace(strategy="parallel").strategy == "parallel"
    meta = config.to_metadata()
    assert meta["strategy"] == "auto"
    assert meta["max_table_size"] == 1 << 20


def test_enum_config_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="unknown enum strategy"):
        EnumConfig(strategy="tensorized")
    # the deleted strict engine's name is no strategy either, and
    # "contract" names only the resolved strategy
    for removed in ("factorized", "contract"):
        with pytest.raises(ValueError, match="unknown enum strategy"):
            EnumConfig(strategy=removed)
    with pytest.raises(ValueError, match="positive integer"):
        EnumConfig(max_table_size=0)
    with pytest.raises(TypeError):
        EnumConfig.coerce(42)


def test_engine_config_threads_enum_onto_potential():
    data = datagen.gauss_mix_enum_data(seed=0, n=6)
    source = corpus_models.get("gauss_mix_enum")
    config = EngineConfig(enum=EnumConfig(strategy="auto", max_table_size=999))
    pot = compile_model(source, engine=config).condition(data).potential(0)
    assert pot.engine_config == config
    assert pot.enum_config == EnumConfig(strategy="auto", max_table_size=999)
    # an explicit enum= replaces the engine config's enum wholesale
    pot = compile_model(source, engine=config, enum="auto") \
        .condition(data).potential(0)
    assert pot.enum_config == EnumConfig(strategy="auto")
    # without enum= the default strategy is "off"
    assert EngineConfig().enum.strategy == "off"
    with pytest.raises(SemanticError, match='enum="auto"'):
        compile_model(source)


def test_fit_metadata_reports_resolved_strategy():
    data = datagen.gauss_mix_enum_data(seed=0, n=6)
    fit = compile_model(corpus_models.get("gauss_mix_enum"), enum="auto") \
        .condition(data).fit("nuts", num_warmup=15, num_samples=15, seed=0)
    meta = fit.metadata["enum"]
    assert meta["requested"] == "auto"
    assert meta["strategy"] == "contract"
    assert meta["cost_estimate"] > 0


def test_contract_cap_failure_reports_knob_and_falls_back():
    # A 4-entry cap is below even a single pairwise clique: the planner
    # bails with the greedy-path diagnostic, and the joint-table fallback
    # (1024 entries) cannot fit either, so TableSizeError carries the
    # elimination context naming the EnumConfig knob.
    data = datagen.factorial_hmm_data(seed=0, t=5)
    pot = compile_model(
        corpus_models.get("factorial_hmm_enum"),
        enum=EnumConfig(strategy="auto", max_table_size=4),
    ).condition(data).potential(0)
    with pytest.raises(TableSizeError) as excinfo:
        pot.log_prob(pot.initial_unconstrained())
    message = str(excinfo.value)
    assert "attempted and bailed" in message
    assert "EnumConfig(max_table_size=...)" in message
