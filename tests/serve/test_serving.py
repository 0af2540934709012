"""Tests for the amortized posterior serving layer (:mod:`repro.serve`).

Covers the acceptance behaviours of the subsystem: micro-batcher
coalescing (asserted through the metrics registry), the k-hat trust gate
and its NUTS fallback modes, refit-pool retry / timeout / load-shedding,
the bitwise contract against ``query_direct``, and the guide-artifact
save -> load -> serve round trip in a fresh process.
"""

import asyncio
import json
import subprocess
import sys
import threading
import time
import types
import urllib.error
import urllib.request
import warnings

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.serve import (
    AmortizedModel,
    MicroBatcher,
    ModelRegistry,
    PosteriorServer,
    RefitPool,
    RefitTimeout,
    RequestError,
    ServerConfig,
    data_digest,
    make_request,
    normalize_request,
    start_http,
)
from repro.serve.registry import CacheEntry
from repro.serve.schema import derived_seed

EIGHT_SCHOOLS = """
data {
  int<lower=0> J;
  real y[J];
  real<lower=0> sigma[J];
}
parameters {
  real mu;
  real<lower=0> tau;
  real theta_tilde[J];
}
model {
  mu ~ normal(0, 5);
  tau ~ cauchy(0, 5);
  theta_tilde ~ normal(0, 1);
  for (j in 1:J)
    y[j] ~ normal(mu + tau * theta_tilde[j], sigma[j]);
}
"""

DATA = {
    "J": 8,
    "y": [28.0, 8.0, -3.0, 7.0, -1.0, 1.0, 18.0, 12.0],
    "sigma": [15.0, 10.0, 16.0, 11.0, 9.0, 11.0, 10.0, 18.0],
}

#: Fast serving knobs shared by the tests: a wide k-hat threshold (2.0
#: trusts everything), a small k-hat draw count below the PSIS floor
#: (``khat_min_draws=None`` downgrades the hard error to a once-per-process
#: warning), a generous batching window so concurrent submissions coalesce
#: even on a loaded CI box, and a short NUTS refit.
FAST = dict(max_batch_size=16, max_wait_ms=25.0, khat_threshold=2.0,
            khat_draws=64, khat_min_draws=None, refit_num_warmup=50,
            refit_num_samples=50, refit_backoff_s=0.01, wait_timeout_s=120.0)


def perturbed(i, shift=0.25):
    return {**DATA, "y": [v + shift * i for v in DATA["y"]]}


@pytest.fixture(scope="module")
def trained():
    model = AmortizedModel(EIGHT_SCHOOLS, name="eight_schools", hidden=(16,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # khat_draws < PSIS floor
        model.train(DATA, num_steps=150, seed=0, khat_draws=128,
                    khat_min_draws=None)
    return model


@pytest.fixture
def make_server(trained):
    servers = []

    def _make(**overrides):
        config = ServerConfig(**{**FAST, **overrides})
        server = PosteriorServer(trained, config)
        servers.append(server)
        return server

    yield _make
    for server in servers:
        server.close()


# ----------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------
class TestSchema:
    def test_digest_is_content_identity(self):
        a = {"J": 2, "y": [1.0, 2.0]}
        b = {"y": np.array([1.0, 2.0]), "J": 2}  # key order / array-ness
        assert data_digest(a) == data_digest(b)
        assert data_digest(a) != data_digest({"J": 2, "y": [1.0, 2.5]})

    def test_derived_seed_deterministic(self):
        digest = data_digest(DATA)
        assert derived_seed(digest) == derived_seed(digest)
        assert derived_seed(digest, salt=1) != derived_seed(digest)

    def test_normalize_rejects_bad_requests(self):
        with pytest.raises(RequestError, match="unknown request fields"):
            normalize_request({"data": {}, "bogus": 1}, default_model="m")
        with pytest.raises(RequestError, match="missing the 'data'"):
            normalize_request({}, default_model="m")
        with pytest.raises(RequestError, match="num_draws"):
            normalize_request({"data": {}, "num_draws": 0}, default_model="m")
        with pytest.raises(RequestError, match="num_draws"):
            normalize_request({"data": {}, "num_draws": True}, default_model="m")
        with pytest.raises(RequestError, match="fallback"):
            normalize_request({"data": {}, "fallback": "retry"},
                              default_model="m")
        with pytest.raises(RequestError, match="no 'model'"):
            normalize_request({"data": {}})

    def test_normalize_fills_defaults(self):
        req = normalize_request({"data": {"x": 1}}, default_model="m",
                                default_num_draws=7)
        assert req["model"] == "m"
        assert req["num_draws"] == 7
        assert req["seed"] is None
        assert req["fallback"] == "enqueue"


# ----------------------------------------------------------------------
# coalescing + the bitwise contract
# ----------------------------------------------------------------------
class TestBatching:
    def test_concurrent_requests_coalesce(self, make_server):
        server = make_server()
        n = 12
        requests = [make_request(DATA, seed=i, num_draws=16, fallback="none")
                    for i in range(n)]
        responses = server.serve_many(requests, timeout=120.0)
        assert all(r["status"] == "ok" for r in responses)
        assert server.metrics.value("serve.requests") == n
        # The acceptance criterion: N concurrent queries cost strictly fewer
        # batched evaluations than N.
        assert 0 < server.metrics.value("serve.batch_evals") < n
        assert server.metrics.value("serve.batched_requests") == n
        # Equal data shares one cache entry, hence one k-hat computation.
        assert server.metrics.value("serve.khat_scored") == 1
        khats = {r["khat"] for r in responses}
        assert len(khats) == 1 and np.isfinite(khats.pop())
        assert all(r["metadata"]["batch_size"] >= 1 for r in responses)

    def test_responses_bitwise_match_query_direct(self, make_server, trained):
        server = make_server()
        requests = [make_request(perturbed(i), seed=100 + i, num_draws=24,
                                 fallback="none") for i in range(5)]
        responses = server.serve_many(requests, timeout=120.0)
        for i, response in enumerate(responses):
            assert response["status"] == "ok"
            direct = trained.query_direct(data=perturbed(i), num_draws=24,
                                          seed=100 + i)
            assert set(response["draws"]) == set(direct["draws"])
            for site, value in direct["draws"].items():
                served = np.asarray(response["draws"][site])
                assert np.array_equal(served, value), (
                    f"site {site!r} of request {i} differs from query_direct")
            assert np.array_equal(np.asarray(response["moments"]["loc"]),
                                  direct["loc"])

    def test_unseeded_request_is_deterministic(self, make_server):
        server = make_server()
        first = server.query(make_request(DATA, num_draws=8, fallback="none"))
        second = server.query(make_request(DATA, num_draws=8, fallback="none"))
        assert first["metadata"]["seed"] == second["metadata"]["seed"]
        assert first["draws"] == second["draws"]


# ----------------------------------------------------------------------
# the trust gate and its fallback modes
# ----------------------------------------------------------------------
class TestTrustGate:
    def test_wait_fallback_returns_trusted_nuts_posterior(self, make_server):
        # khat_threshold=-1 gates every query, deterministically.
        server = make_server(khat_threshold=-1.0)
        response = server.query(
            make_request(DATA, seed=3, num_draws=40, fallback="wait"),
            timeout=300.0)
        assert response["status"] == "ok"
        assert response["source"] == "nuts"
        assert response["trusted"] is True
        assert response["fallback"] == "refit"
        assert response["metadata"]["refit_status"] == "done"
        assert np.asarray(response["draws"]["mu"]).shape == (40,)
        assert np.asarray(response["draws"]["theta_tilde"]).shape == (40, 8)
        assert np.all(np.asarray(response["draws"]["tau"]) > 0)
        assert server.metrics.value("serve.gated") == 1
        assert server.metrics.value("serve.refits_done") == 1
        # A second query for the same data reuses the finished refit.
        again = server.query(make_request(DATA, seed=4, fallback="wait"),
                             timeout=60.0)
        assert again["source"] == "nuts"
        assert server.metrics.value("serve.refits_queued") == 1

    def test_refit_draw_count_is_clamped_and_reported(self, make_server):
        # The refit holds chains * samples = 50 draws; asking for more must
        # report the shipped count, not the requested one.
        server = make_server(khat_threshold=-1.0)
        response = server.query(
            make_request(DATA, seed=5, num_draws=200, fallback="wait"),
            timeout=300.0)
        assert response["status"] == "ok"
        assert response["source"] == "nuts"
        shipped = np.asarray(response["draws"]["mu"]).shape[0]
        assert shipped == 50
        assert response["metadata"]["num_draws"] == 50
        assert response["metadata"]["num_draws_requested"] == 200

    def test_none_fallback_ships_untrusted_guide_posterior(self, make_server):
        server = make_server(khat_threshold=-1.0)
        response = server.query(
            make_request(DATA, seed=1, num_draws=8, fallback="none"))
        assert response["status"] == "ok"
        assert response["source"] == "guide"
        assert response["trusted"] is False
        assert response["fallback"] == "none"
        assert response["metadata"]["refit_status"] == "none"
        assert server.metrics.value("serve.refits_queued") == 0

    def test_enqueue_fallback_refits_in_background(self, make_server):
        server = make_server(khat_threshold=-1.0)
        response = server.query(
            make_request(DATA, seed=1, num_draws=8, fallback="enqueue"),
            timeout=120.0)
        assert response["source"] == "guide"
        assert response["trusted"] is False
        assert response["fallback"] == "pending"
        entry = server.registry.entry_for("eight_schools", DATA)
        assert entry.refit_event.wait(timeout=300.0)
        assert entry.refit_status == "done"
        later = server.query(make_request(DATA, seed=2, fallback="enqueue"),
                             timeout=60.0)
        assert later["source"] == "nuts"
        assert later["trusted"] is True


# ----------------------------------------------------------------------
# the refit pool in isolation (stubbed refit function)
# ----------------------------------------------------------------------
def _fake_entry(tag="fake"):
    model = types.SimpleNamespace(name=tag)
    return CacheEntry(model, digest=f"{tag:0<40}", data={},
                      potential=None, features=np.zeros((1, 1)))


class TestRefitPool:
    def test_retries_with_backoff_then_succeeds(self):
        metrics = MetricsRegistry()
        calls = []

        def flaky(entry):
            calls.append(time.perf_counter())
            if len(calls) < 3:
                raise RuntimeError("transient")
            return "posterior"

        pool = RefitPool(flaky, max_workers=1, max_retries=2,
                         backoff_s=0.01, metrics=metrics)
        try:
            entry = _fake_entry()
            assert pool.submit(entry) is True
            assert entry.refit_event.wait(timeout=30.0)
            assert entry.refit_status == "done"
            assert entry.refit_posterior == "posterior"
            assert len(calls) == 3
            # Exponential backoff: the second gap is at least the first.
            assert calls[2] - calls[1] >= (calls[1] - calls[0]) * 0.5
            assert metrics.value("serve.refit_attempt_errors") == 2
            assert metrics.value("serve.refit_retries") == 2
            assert metrics.value("serve.refits_done") == 1
        finally:
            pool.close()

    def test_timeout_fails_job_explicitly(self):
        metrics = MetricsRegistry()

        def slow(entry):
            time.sleep(5.0)
            return "never"

        pool = RefitPool(slow, max_workers=1, max_retries=0,
                         timeout_s=0.05, metrics=metrics)
        try:
            entry = _fake_entry("slow")
            assert pool.submit(entry) is True
            assert entry.refit_event.wait(timeout=30.0)
            assert entry.refit_status == "failed"
            assert "RefitTimeout" in entry.refit_error
            assert metrics.value("serve.refits_failed") == 1
        finally:
            pool.close(wait=False)

    def test_timeout_fails_without_retry_and_late_lands(self):
        """A timed-out attempt must not stack duplicate fits behind the
        abandoned (still running) attempt — it fails the job in one attempt;
        if the abandoned thread eventually finishes, its posterior lands."""
        metrics = MetricsRegistry()
        release = threading.Event()
        calls = []

        def slow(entry):
            calls.append(1)
            release.wait(timeout=30.0)
            return "late-posterior"

        pool = RefitPool(slow, max_workers=1, max_retries=3,
                         timeout_s=0.05, backoff_s=0.01, metrics=metrics)
        try:
            entry = _fake_entry("late")
            assert pool.submit(entry) is True
            assert entry.refit_event.wait(timeout=30.0)
            assert entry.refit_status == "failed"
            assert "RefitTimeout" in entry.refit_error
            assert len(calls) == 1  # no retry queued behind the abandoned fit
            assert metrics.value("serve.refit_retries") == 0
            assert metrics.value("serve.refits_failed") == 1
            # The abandoned attempt finishes: its result lands after the fact.
            release.set()
            deadline = time.perf_counter() + 10.0
            while (entry.refit_status != "done"
                   and time.perf_counter() < deadline):
                time.sleep(0.01)
            assert entry.refit_status == "done"
            assert entry.refit_posterior == "late-posterior"
            assert entry.refit_error is None
        finally:
            release.set()
            pool.close(wait=False)

    def test_full_queue_sheds_load(self):
        metrics = MetricsRegistry()
        release = threading.Event()

        def blocking(entry):
            release.wait(timeout=30.0)
            return "posterior"

        pool = RefitPool(blocking, max_workers=1, max_queue=1,
                         metrics=metrics)
        try:
            first, second = _fake_entry("a"), _fake_entry("b")
            assert pool.submit(first) is True
            # The queue (depth 1) is now full: the second job is shed.
            assert pool.submit(second) is False
            assert second.refit_status == "none"
            assert metrics.value("serve.refits_shed") == 1
            # Re-submitting the in-flight entry is idempotent, not a new job.
            assert pool.submit(first) is True
            assert metrics.value("serve.refits_queued") == 1
            release.set()
            assert first.refit_event.wait(timeout=30.0)
            assert first.refit_status == "done"
        finally:
            release.set()
            pool.close()

    def test_call_with_timeout_raises_refit_timeout(self):
        from repro.serve.workers import _call_with_timeout

        with pytest.raises(RefitTimeout):
            _call_with_timeout(lambda entry: time.sleep(5.0), None, 0.05)
        assert _call_with_timeout(lambda entry: 42, None, 5.0) == 42
        assert _call_with_timeout(lambda entry: 42, None, None) == 42


# ----------------------------------------------------------------------
# registry + cache behaviour
# ----------------------------------------------------------------------
class TestRegistry:
    def test_cache_is_keyed_by_content_and_lru_bounded(self, trained):
        registry = ModelRegistry(max_entries=2)
        registry.register(trained)
        a = registry.entry_for("eight_schools", DATA)
        # Same content, different key order and container types: same entry.
        reordered = {"sigma": np.asarray(DATA["sigma"]), "y": list(DATA["y"]),
                     "J": 8}
        assert registry.entry_for("eight_schools", reordered) is a
        registry.entry_for("eight_schools", perturbed(1))
        registry.entry_for("eight_schools", perturbed(2))  # evicts DATA
        assert registry.cached_entries() == 2
        assert registry.entry_for("eight_schools", DATA) is not a

    def test_unknown_model_and_bad_shape_are_request_errors(self, make_server):
        server = make_server()
        missing = server.query({"data": DATA, "model": "nope"})
        assert missing["status"] == "error"
        assert "no model registered" in missing["error"]
        short = {"J": 4, "y": [1.0, 2.0, 3.0, 4.0],
                 "sigma": [1.0, 1.0, 1.0, 1.0]}
        mismatched = server.query(make_request(short, fallback="none"))
        assert mismatched["status"] == "error"
        assert "observed features" in mismatched["error"]
        malformed = server.query({"data": DATA, "bogus": 1})
        assert malformed["status"] == "error"
        assert server.metrics.value("serve.request_errors") == 1


# ----------------------------------------------------------------------
# artifacts: save -> load -> serve in a fresh process
# ----------------------------------------------------------------------
_CHILD_SCRIPT = """
import json, sys, warnings
warnings.simplefilter("ignore")
from repro.serve import AmortizedModel, PosteriorServer, ServerConfig, make_request

model = AmortizedModel.load(sys.argv[1])
config = ServerConfig(khat_threshold=2.0, khat_draws=64, khat_min_draws=None)
with PosteriorServer(model, config) as server:
    data = json.loads(sys.argv[2])
    response = server.query(make_request(data, seed=7, num_draws=16,
                                         fallback="none"), timeout=120.0)
print(json.dumps({"status": response["status"],
                  "khat": response["khat"],
                  "draws": response["draws"]}))
"""


class TestArtifacts:
    def test_save_load_roundtrip_in_process(self, trained, tmp_path):
        path = trained.save(str(tmp_path / "guide"))
        sidecar = json.loads((tmp_path / "guide.json").read_text())
        assert sidecar["format"] == "repro-amortized-guide"
        assert sidecar["schema_version"] == 1
        assert sidecar["training"]["num_steps"] == 150
        loaded = AmortizedModel.load(path)
        assert loaded.trained and loaded.name == trained.name
        direct = trained.query_direct(data=perturbed(2), num_draws=8, seed=11)
        reloaded = loaded.query_direct(data=perturbed(2), num_draws=8, seed=11)
        for site, value in direct["draws"].items():
            assert np.array_equal(reloaded["draws"][site], value)

    def test_load_rejects_wrong_format(self, trained, tmp_path):
        path = trained.save(str(tmp_path / "guide"))
        sidecar = json.loads((tmp_path / "guide.json").read_text())
        sidecar["format"] = "something-else"
        (tmp_path / "guide.json").write_text(json.dumps(sidecar))
        from repro.serve import ServeError

        with pytest.raises(ServeError, match="format"):
            AmortizedModel.load(path)

    @pytest.mark.slow
    def test_serve_from_artifact_in_fresh_process(self, trained, tmp_path):
        """The acceptance round trip: save -> load -> serve, new interpreter.

        The child process rebuilds the model from the artifact alone and
        serves one pinned-seed query; its draws must match this process's
        ``query_direct`` bit for bit.
        """
        path = trained.save(str(tmp_path / "guide"))
        script = tmp_path / "child.py"
        script.write_text(_CHILD_SCRIPT)
        result = subprocess.run(
            [sys.executable, str(script), path, json.dumps(perturbed(3))],
            capture_output=True, text=True, timeout=300, cwd="/root/repo",
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"})
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["status"] == "ok"
        assert np.isfinite(payload["khat"])
        direct = trained.query_direct(data=perturbed(3), num_draws=16, seed=7)
        for site, value in direct["draws"].items():
            assert np.array_equal(np.asarray(payload["draws"][site]), value)


# ----------------------------------------------------------------------
# the HTTP front
# ----------------------------------------------------------------------
class TestHTTP:
    def test_health_and_query_over_http(self, make_server, trained):
        server = make_server()
        httpd, _thread = start_http(server)
        host, port = httpd.server_address
        base = f"http://{host}:{port}"
        try:
            with urllib.request.urlopen(f"{base}/v1/health", timeout=30) as r:
                health = json.loads(r.read())
            assert health["status"] == "ok"
            assert health["models"] == ["eight_schools"]
            body = json.dumps(make_request(DATA, seed=5, num_draws=8,
                                           fallback="none")).encode()
            req = urllib.request.Request(
                f"{base}/v1/query", data=body,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=120) as r:
                response = json.loads(r.read())
            assert response["status"] == "ok"
            direct = trained.query_direct(data=DATA, num_draws=8, seed=5)
            assert np.array_equal(np.asarray(response["draws"]["mu"]),
                                  direct["draws"]["mu"])
            bad = urllib.request.Request(f"{base}/v1/query", data=b"not json",
                                         headers={"Content-Type": "text/x"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(bad, timeout=30)
            assert excinfo.value.code == 400
        finally:
            httpd.shutdown()
            httpd.server_close()


# ----------------------------------------------------------------------
# review regressions: batch identity, lock-free cold builds, loop binding
# ----------------------------------------------------------------------
class _StubServeModel:
    """A minimal stand-in implementing the batch-evaluation surface.

    Every answer is filled with ``tag`` so a response provably came from
    the model that produced it.  ``name`` is deliberately shared across
    instances: grouping by ``model.name`` instead of registered identity
    would coalesce distinct models into one fused group.
    """

    def __init__(self, tag):
        self.name = "model"  # shared on purpose
        self.tag = float(tag)

    def query_direct(self, data=None, *, features=None, num_draws=1, seed=0):
        return {"draws": {"x": np.full((num_draws,), self.tag)},
                "loc": np.full(1, self.tag), "scale": np.ones(1)}

    def moments_for(self, stacked):
        batch = stacked.shape[0]
        return np.full((batch, 1), self.tag), np.ones((batch, 1))

    def draws_from_moments(self, loc, scale, num_draws, seed):
        return np.zeros((int(num_draws), 1))

    def constrain(self, z):
        return {"x": np.full((z.shape[0],), self.tag)}


class TestBatchModelIdentity:
    def test_mixed_batch_groups_by_registered_identity(self):
        from repro.serve.server import _QueryItem

        registry = ModelRegistry()
        model_a, model_b = _StubServeModel(1.0), _StubServeModel(2.0)
        registry.register(model_a, name="a")
        registry.register(model_b, name="b")
        server = PosteriorServer(registry)
        try:
            entry_a = CacheEntry(model_a, digest="a" * 40, data={},
                                 potential=None, features=np.zeros((1, 1)),
                                 registry_name="a")
            entry_b = CacheEntry(model_b, digest="b" * 40, data={},
                                 potential=None, features=np.zeros((1, 1)),
                                 registry_name="b")
            # Earlier single-model traffic validated model A's fused path —
            # the state that previously suppressed validation for a mixed
            # batch keyed by the shared model.name.
            server._batch_mode[server._mode_key(entry_a)] = "fused"
            items = [_QueryItem(entry=entry_a, num_draws=4, seed=0),
                     _QueryItem(entry=entry_b, num_draws=4, seed=0),
                     _QueryItem(entry=entry_a, num_draws=4, seed=1)]
            results = server._evaluate_batch(items)
            for item, result in zip(items, results):
                expected = item.entry.model.tag
                assert np.all(np.asarray(result["draws"]["x"]) == expected), (
                    "query answered by a different model than it was "
                    "routed to")
            # The two registered identities never share a batch-mode key.
            assert (server._mode_key(entry_a) != server._mode_key(entry_b))
        finally:
            server.close()


class _BuildProbeModel:
    """Registry stub whose entry build can block or count invocations."""

    def __init__(self, name, gate=None, calls=None, delay=0.0):
        self.name = name
        self.gate = gate
        self.calls = calls
        self.delay = delay
        self.started = threading.Event()

    def potential_for(self, data):
        if self.calls is not None:
            self.calls.append(threading.get_ident())
        self.started.set()
        if self.delay:
            time.sleep(self.delay)
        if self.gate is not None:
            assert self.gate.wait(timeout=30.0)
        return None

    def features_for(self, potential):
        return np.zeros((1, 1))


class TestRegistryLocking:
    def test_cold_build_does_not_block_other_requests(self):
        release = threading.Event()
        slow = _BuildProbeModel("slow", gate=release)
        fast = _BuildProbeModel("fast")
        registry = ModelRegistry()
        registry.register(slow)
        registry.register(fast)
        warm = registry.entry_for("fast", {"x": 1})
        worker = threading.Thread(
            target=registry.entry_for, args=("slow", {"x": 2}), daemon=True)
        worker.start()
        assert slow.started.wait(timeout=10.0)
        try:
            # While the slow build holds EVAL_LOCK-equivalent work, cache
            # hits and other cold builds must complete immediately.
            deadline = time.perf_counter() + 5.0
            assert registry.entry_for("fast", {"x": 1}) is warm
            fresh = registry.entry_for("fast", {"x": 3})
            assert fresh is not warm
            assert time.perf_counter() < deadline, (
                "requests stalled behind an in-flight cold build")
        finally:
            release.set()
            worker.join(timeout=10.0)
        assert registry.cached_entries() == 3

    def test_thundering_herd_builds_once(self):
        calls = []
        model = _BuildProbeModel("herd", calls=calls, delay=0.05)
        registry = ModelRegistry()
        registry.register(model)
        entries = [None] * 6
        barrier = threading.Barrier(len(entries))

        def hit(i):
            barrier.wait(timeout=10.0)
            entries[i] = registry.entry_for("herd", {"x": 9})

        threads = [threading.Thread(target=hit, args=(i,))
                   for i in range(len(entries))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(calls) == 1, "equal cold requests duplicated the build"
        assert all(entry is entries[0] for entry in entries)


class TestLoopBinding:
    def test_batcher_rejects_submit_from_second_loop(self):
        batcher = MicroBatcher(lambda items: [0] * len(items), max_wait_ms=1.0)
        assert asyncio.run(batcher.submit("first")) == 0
        with pytest.raises(RuntimeError, match="bound to the event loop"):
            asyncio.run(batcher.submit("second"))

    def test_handle_bridges_foreign_loop_onto_server_loop(self, make_server,
                                                          trained):
        server = make_server()

        async def drive():
            requests = [make_request(DATA, seed=i, num_draws=4,
                                     fallback="none") for i in range(4)]
            return await asyncio.gather(
                *[server.handle(request) for request in requests])

        responses = asyncio.run(drive())
        assert all(r["status"] == "ok" for r in responses)
        direct = trained.query_direct(data=DATA, num_draws=4, seed=0)
        assert np.array_equal(np.asarray(responses[0]["draws"]["mu"]),
                              direct["draws"]["mu"])
        # The sync front shares the same loop afterwards without racing.
        follow_up = server.query(make_request(DATA, seed=9, num_draws=4,
                                              fallback="none"), timeout=120.0)
        assert follow_up["status"] == "ok"


# ----------------------------------------------------------------------
# shared batched-tier classification (the batched k-hat fast path)
# ----------------------------------------------------------------------
def test_cold_datasets_share_batched_classification(trained):
    """Every per-dataset potential adopts the model-wide tier table, so the
    probe classification runs once per model, not once per cache entry, and
    the model-wide width serves every row count of every dataset."""
    pot_a = trained.potential_for(perturbed(1))
    pot_b = trained.potential_for(perturbed(2))
    # training classified one width: the row count of its VI particle batch
    widths = set(trained.batched_tiers)
    assert len(widths) == 1
    (width,) = widths
    # all potentials share the *same* tier table object: a tier written
    # into the model-wide store is what every dataset potential serves
    tier = trained.batched_tiers[width]
    try:
        trained.batched_tiers[width] = "loop"
        for pot in (pot_a, pot_b):
            assert pot.eval_tier(width).split()[-1] == "vec:loop"
    finally:
        trained.batched_tiers[width] = tier
    for pot in (pot_a, pot_b):
        assert pot.eval_tier(width).split()[-1] == f"vec:{tier}"

    # cold datasets must go straight to the shared width — a classification
    # would mean the fast path isn't shared at all — and an unseen row count
    # (3) is padded onto it, bitwise equal to per-row evaluation
    for pot, rows in ((pot_a, 4), (pot_b, 4), (pot_b, 3)):
        z = np.random.default_rng(rows).normal(size=(rows, pot.dim))
        values, grads = pot.potential_and_grad_batched(z)
        per_row = [pot.potential_and_grad(zi) for zi in z]
        np.testing.assert_array_equal(values, [u for u, _ in per_row])
        np.testing.assert_array_equal(grads, np.array([g for _, g in per_row]))
    # each sharer's one batched record is the check of the inherited
    # width's program against the interpreted batched tape, at the trained
    # tier: no classification against the row loop and no demotion
    assert [(d["tier"], d["oracle"]) for pot in (pot_a, pot_b)
            for d in pot.decisions() if d["path"] == "batched"] == \
        [(tier, "interpreted")] * 2
    assert trained.batched_tiers == {width: tier}
