"""The compiled evaluation engine end to end (``engine="compiled"``).

The fused tape programs are optimistic fast paths behind the tiered
validation contract: bitwise agreement with the interpreted tape buys the
``"fast"`` tier, tolerance-level gradients ``"value_fast"``, anything else a
permanent demotion back to the interpreter.  These tests sweep the contract
across the corpus registry, exercise the guard/retrace fallback, pin the
batched-tape lift for per-chain-scalar index updates, and check that
checkpoint/resume under the compiled engine stays bitwise-identical to an
uninterrupted run.
"""

import numpy as np
import pytest

from repro import EngineConfig, ObsConfig, compile_model
from repro.autodiff import compile as tape_compiler
from repro.autodiff import ops
from repro.autodiff.compile import TapeCompilationError, compile_tape
from repro.infer import MCMC, NUTS, make_potential
from repro.posteriordb import registry
from repro.ppl import distributions as dist
from repro.ppl.primitives import observe, sample

#: every entry the plain or enumeration path supports (the sweep is the
#: contract's coverage statement: whatever the tape compiler does to a model
#: — fast tier, value_fast tier, or demotion — results never change).
#: ``expect_mismatch`` entries are out of scope like in the accuracy tables:
#: the paper itself reports them as mismatches, and one (``hmm_example``'s
#: simplex-array parameters) cannot build a potential at all.
SWEEP = [entry.name for entry in registry.entries()
         if not (entry.expect_unsupported or entry.expect_mismatch)]


@pytest.mark.slow
@pytest.mark.parametrize("name", SWEEP)
def test_compiled_engine_matches_interpreted_across_corpus(name):
    entry = registry.get(name)
    model = compile_model(
        entry.source, name=entry.name,
        engine=EngineConfig(enumerate=entry.enumerate),
        enum=entry.enum).condition(entry.data())
    pot_i = model.potential(0, engine="interpreted")
    pot_c = model.potential(0, engine="compiled")
    assert pot_c is not pot_i
    z0 = pot_c.initial_unconstrained()
    # first call resolves + validates, second serves steady state, the rest
    # probe fresh points; the contract makes every tier agree exactly
    # ("fast" is bitwise; "value_fast"/"off" gradients come from the oracle)
    for step, dz in enumerate((0.0, 0.0, 0.043, -0.037)):
        z = z0 + dz
        v_i, g_i = pot_i.potential_and_grad(z)
        v_c, g_c = pot_c.potential_and_grad(z)
        mode = pot_c.metrics_view()["tape_modes"].get("single")
        assert v_c == v_i, (name, step, mode)
        np.testing.assert_array_equal(g_c, g_i, err_msg=f"{name} step {step} "
                                                        f"mode {mode}")
        assert pot_c.potential(z) == pot_i.potential(z), (name, step, mode)
    assert pot_c.metrics_view()["grad_evals"] == 4
    # every entry lowers to a bitwise program: a lowering slip would still
    # give exact results (the oracle serves) but demote the model, silently
    # several times slower
    assert pot_c.metrics_view()["tape_modes"]["single"] == "fast", name


@pytest.mark.parametrize("name", [
    "eight_schools_centered-eight_schools",
    "gauss_mix_marginal-synthetic_mixture",
    "hmm_k_marginal-synthetic_hmm4",
])
def test_batched_tape_matches_interpreted(name):
    entry = registry.get(name)
    model = compile_model(entry.source, name=entry.name).condition(entry.data())
    pot_i = model.potential(0, engine="interpreted")
    pot_c = model.potential(0, engine="compiled")
    dim = pot_c.dim
    rng = np.random.default_rng(11)
    z = 0.3 * rng.normal(size=(3, dim))
    for _ in range(2):  # second round is the steady state for both paths
        v_i, g_i = pot_i.potential_and_grad_batched(z)
        v_c, g_c = pot_c.potential_and_grad_batched(z)
        np.testing.assert_array_equal(v_c, v_i)
        np.testing.assert_array_equal(g_c, g_i)
        np.testing.assert_array_equal(pot_c.potential_batched(z),
                                      pot_i.potential_batched(z))
    assert pot_c.metrics_view()["tape_modes"]["batched-3"] == "fast", name
    # batched evaluation must also agree with C single-row evaluations
    for row in range(z.shape[0]):
        v_row, g_row = pot_i.potential_and_grad(z[row])
        np.testing.assert_array_equal(v_c[row], v_row)
        np.testing.assert_array_equal(g_c[row], g_row)


def test_batched_tape_survives_per_chain_scalar_index_update():
    """The PR-4 limitation is lifted: a forward-recurrence model writing a
    per-chain *scalar* into an accumulator via ``_index_update`` stays on
    the vectorized C-row tape instead of demoting to the row loop."""
    entry = registry.get("hmm_k_marginal-synthetic_hmm4")
    model = compile_model(entry.source, name=entry.name).condition(entry.data())
    for engine in ("interpreted", "compiled"):
        potential = model.potential(0, engine=engine)
        z = 0.2 * np.random.default_rng(5).normal(size=(4, potential.dim))
        potential.potential_and_grad_batched(z)
        potential.potential_and_grad_batched(z)
        assert potential._batched_mode.get(4) in ("fast", "value_fast"), (
            engine, potential._batched_mode)


def test_retrace_mismatch_demotes_to_interpreter(monkeypatch):
    """A guard trip forces a retrace; a retrace that disagrees with its
    oracle demotes the key permanently — results stay the oracle's."""
    entry = registry.get("eight_schools_centered-eight_schools")
    model = compile_model(entry.source, name=entry.name).condition(entry.data())
    potential = model.potential(0, engine="compiled")
    z = potential.initial_unconstrained()
    potential.potential_and_grad(z)
    potential.potential_and_grad(z)
    state = potential._tapes[("single",)]
    assert state["mode"] == "fast"

    # invalidate the signature so the next call trips the shape/dtype guard
    state["tape"].signature = ((state["tape"].signature[0][0] + 1,), "<f8")

    # ... and make the retrace produce a tape that disagrees with the oracle
    from repro.infer import potential as potential_module
    real_compile = potential_module.compile_tape

    def corrupted_compile(fn, z0):
        tape = real_compile(fn, z0)
        real_vg = tape.value_and_grad
        tape.value_and_grad = lambda x: tuple(
            out + 1e-3 for out in real_vg(x))  # off by far more than rtol
        return tape

    monkeypatch.setattr(potential_module, "compile_tape", corrupted_compile)
    v_i, g_i = model.potential(0, engine="interpreted").potential_and_grad(z)
    v_c, g_c = potential.potential_and_grad(z)
    assert v_c == v_i
    np.testing.assert_array_equal(g_c, g_i)
    assert potential._tapes[("single",)]["mode"] == "off"
    # permanently: later calls stay on the oracle and stay correct
    v_c2, g_c2 = potential.potential_and_grad(z + 0.01)
    v_i2, g_i2 = model.potential(0, engine="interpreted").potential_and_grad(z + 0.01)
    assert v_c2 == v_i2 and np.array_equal(g_c2, g_i2)
    assert potential._tapes[("single",)]["mode"] == "off"


def test_dynamic_control_flow_model_demotes_and_stays_correct():
    """A model whose log-density branches on a parameter value cannot be
    frozen into a program: the engine must demote it, not mis-compile it."""

    def branchy():
        mu = sample("mu", dist.Normal(0.0, 1.0))
        scale = 2.0 if float(mu.data if hasattr(mu, "data") else mu) > 0 else 0.5
        observe(dist.Normal(mu, scale), np.array([0.3, -0.2]), name="y")

    pot_c = make_potential(branchy, engine="compiled")
    pot_i = make_potential(branchy, engine="interpreted")
    for z in (np.array([0.7]), np.array([-0.7])):
        v_c, g_c = pot_c.potential_and_grad(z)
        v_i, g_i = pot_i.potential_and_grad(z)
        assert v_c == v_i
        np.testing.assert_array_equal(g_c, g_i)
    assert pot_c.metrics_view()["tape_modes"]["single"] == "off"


def test_program_size_cap_demotes_to_interpreter(monkeypatch):
    """Above ``MAX_PROGRAM_NODES`` dynamic nodes lowering refuses with an
    error naming the cap, and a potential over such a model demotes to the
    interpreted tape, recording why, with the interpreter's exact results."""
    def five_nodes(t):
        return ops.sum_(ops.exp(ops.sin(ops.mul(ops.add(t, 1.0), 2.0))))

    monkeypatch.setattr(tape_compiler, "MAX_PROGRAM_NODES", 5)
    assert compile_tape(five_nodes, np.zeros(3)).stats.dynamic == 5
    monkeypatch.setattr(tape_compiler, "MAX_PROGRAM_NODES", 4)
    with pytest.raises(TapeCompilationError,
                       match="5 dynamic nodes, beyond the 4-node program cap"):
        compile_tape(five_nodes, np.zeros(3))

    entry = registry.get("eight_schools_centered-eight_schools")
    model = compile_model(entry.source, name=entry.name,
                          obs=ObsConfig(enabled=True)).condition(entry.data())
    pot_c = model.potential(0, engine="compiled")
    pot_i = model.potential(0, engine="interpreted")
    z0 = pot_c.initial_unconstrained()
    for dz in (0.0, 0.0, 0.043, -0.037):
        v_c, g_c = pot_c.potential_and_grad(z0 + dz)
        v_i, g_i = pot_i.potential_and_grad(z0 + dz)
        assert v_c == v_i
        np.testing.assert_array_equal(g_c, g_i)
        assert pot_c.potential(z0 + dz) == pot_i.potential(z0 + dz)
    assert pot_c.metrics_view()["tape_modes"]["single"] == "off"
    (span,) = [s for s in pot_c.telemetry.log.spans() if s["name"] == "tape.compile"]
    assert span["attrs"]["tier"] == "off"
    assert "4-node program cap" in span["attrs"]["compile_error"]


DATA = np.random.default_rng(0).normal(1.5, 1.0, size=20)


def conjugate_model():
    mu = sample("mu", dist.Normal(0.0, 2.0))
    observe(dist.Normal(mu, 1.0), DATA, name="y")


@pytest.mark.parametrize("chain_method,num_chains", [("sequential", 2),
                                                     ("vectorized", 3)])
def test_compiled_engine_checkpoint_resume_is_bitwise(tmp_path, chain_method,
                                                      num_chains):
    def run(**kwargs):
        kernel = NUTS(make_potential(conjugate_model, engine="compiled"),
                      max_tree_depth=6)
        return MCMC(kernel, num_warmup=40, num_samples=30,
                    num_chains=num_chains, seed=5,
                    chain_method=chain_method).run(**kwargs)

    baseline = run()
    path = str(tmp_path / "compiled.ckpt")
    checkpointed = run(checkpoint_every=17, checkpoint_path=path,
                       checkpoint_keep=True)
    assert checkpointed.posterior.equals(baseline.posterior)

    import os
    snapshots = sorted(p for p in os.listdir(tmp_path)
                       if p.startswith("compiled.ckpt."))
    assert snapshots, "expected at least one kill point"
    base_draws = baseline.get_samples(group_by_chain=True)
    for snap in snapshots:
        kernel = NUTS(make_potential(conjugate_model, engine="compiled"),
                      max_tree_depth=6)
        resumed = MCMC.resume(str(tmp_path / snap), kernel, checkpoint_every=0)
        res_draws = resumed.get_samples(group_by_chain=True)
        for site in base_draws:
            np.testing.assert_array_equal(res_draws[site], base_draws[site],
                                          err_msg=f"{snap}: draws diverged")
