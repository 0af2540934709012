"""A benchmark run: passes over a workload, and the metrics drawn from them."""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Optional, Tuple

from repro import ObsConfig, Telemetry

import contention
import pipeline
from tracing import Tracer, duration, latency_summary, self_time_by_name
from workloads import Workload

#: program telemetry of traced passes: spans only (the benchmark's own spans
#: time the sampler, so the per-iteration stream is not needed).
TRACE_OBS = ObsConfig(enabled=True, sampler_stream=False, flight_recorder=False)

#: input seeds a run cycles through.  The work a fit does depends on its data
#: and sampler trajectory; averaging over two inputs keeps one lucky or
#: unlucky draw from setting a run's figure, and leaves room for several
#: repetitions of each.
INPUT_SEEDS = 2


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _geomean(values: List[float]) -> float:
    values = [v for v in values if v > 0 and math.isfinite(v)]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Run:
    """Cold passes over one workload at one seed.

    Pass ``i`` uses input seed ``INPUT_SEEDS * seed + i % INPUT_SEEDS`` for
    both the generated data and the fit (with ``paired``, passes ``2k`` and
    ``2k + 1`` share an input seed, so a traced pass repeats the work of the
    untraced pass before it).  An end-to-end figure is the median over the
    untraced passes of each model's time at each input seed, divided by the
    host slowdown around that model (:mod:`contention`), summed over models
    and averaged over the input seeds.  Per-layer figures are medians over
    the traced passes of each input seed, averaged over the input seeds,
    uncorrected.
    """

    def __init__(self, workload: Workload, seed: int, paired: bool = False) -> None:
        self.workload = workload
        self.paired = paired
        self.input_seeds = [INPUT_SEEDS * seed + j for j in range(INPUT_SEEDS)]
        self.data = {s: [spec.data(s) for spec in workload.models]
                     for s in self.input_seeds}
        self.tracer = Tracer()
        self.passes: List[Dict[str, Any]] = []
        self.references: Dict[str, Optional[str]] = {}
        self.attempted = 0
        self.failed = 0
        self._digests: Dict[Tuple[str, int], str] = {}

    def check_references(self) -> None:
        """The density check, one operation per model and input seed."""
        for input_seed, datasets in self.data.items():
            for spec, data in zip(self.workload.models, datasets):
                problem = pipeline.reference_check(spec, data)
                self.references[f"{spec.title}@{input_seed}"] = problem
                self.attempted += 1
                if problem is not None:
                    self.failed += 1
                    print(f"reference check failed for {spec.title} at input "
                          f"seed {input_seed}: {problem}")

    def run_pass(self, traced: bool) -> None:
        index = len(self.passes)
        input_seed = self.input_seeds[(index // (2 if self.paired else 1))
                                      % INPUT_SEEDS]
        run_id = f"{self.workload.name}-input{input_seed}-pass{index}"
        tracer = self.tracer if traced else None
        self.tracer.run = run_id
        obs = None
        if traced:
            obs = Telemetry(TRACE_OBS)
            self.tracer.follow(obs)
        models = list(zip(self.workload.models, self.data[input_seed]))
        records = []
        calibration: List[float] = []
        if tracer is not None:
            with tracer.span("pass"):
                for spec, data in models:
                    records.append(pipeline.run_model(spec, data, input_seed,
                                                      tracer, obs))
        else:
            # Kernel timings bracket every model; the slowdown around a
            # model is read from the timings just before and just after it.
            samples = [contention.sample()]
            for spec, data in models:
                record = pipeline.run_model(spec, data, input_seed)
                samples.append(contention.sample())
                record["slowdown"] = contention.slowdown(samples[-2] + samples[-1])
                records.append(record)
            calibration = [t for batch in samples for t in batch]
        for record in records:
            self._check_determinism(record, input_seed)
            self.attempted += len(pipeline.STAGES)
            self.failed += record["failed"]
            if record["error"]:
                print(f"pass {index} {record['model']}: {record['error']}")
        self.passes.append({
            "run": run_id, "traced": traced, "input_seed": input_seed,
            "total_s": sum(r["total_s"] for r in records),
            "calibration_s": calibration,
            "models": records,
        })

    def _check_determinism(self, record: Dict[str, Any], input_seed: int) -> None:
        """Passes that share an input seed must repeat their draws bitwise."""
        digest = record.get("digest")
        if digest is None or record["failed"]:
            return
        first = self._digests.setdefault((record["model"], input_seed), digest)
        if digest != first:
            record["failed"] = 1
            record["error"] = (f"fit: draws digest {digest} differs from "
                               f"{first}, an earlier pass at input seed {input_seed}")

    # ------------------------------------------------------------------
    def _untraced(self) -> List[Dict[str, Any]]:
        return [p for p in self.passes if not p["traced"]]

    def _traced(self) -> List[Dict[str, Any]]:
        return [p for p in self.passes if p["traced"]]

    @staticmethod
    def _seed_mean(passes: List[Dict[str, Any]], value) -> float:
        """Median of ``value(pass)`` over the passes of each input seed,
        averaged over the input seeds."""
        groups: Dict[int, List[float]] = {}
        for p in passes:
            groups.setdefault(p["input_seed"], []).append(value(p))
        return _mean([_median(v) for v in groups.values()])

    @staticmethod
    def _corrected_median(passes: List[Dict[str, Any]], key: str) -> float:
        """Median of ``record[key] / record["slowdown"]`` for each model at
        each input seed, summed over models and averaged over the input
        seeds."""
        cells: Dict[Tuple[int, int], List[float]] = {}
        for p in passes:
            for i, record in enumerate(p["models"]):
                if key in record:
                    cells.setdefault((p["input_seed"], i), []).append(
                        record[key] / record["slowdown"])
        seeds = {seed for seed, _ in cells}
        total = sum(_median(v) for v in cells.values())
        return total / len(seeds) if seeds else 0.0

    def slowdown(self) -> float:
        """Host slowdown over the untraced passes (see :mod:`contention`)."""
        return contention.slowdown(
            [t for p in self._untraced() for t in p["calibration_s"]])

    def end_to_end(self, peak_rss_mb: float) -> Dict[str, float]:
        passes = self._untraced()
        values = {key: self._corrected_median(passes, key)
                  for key in ("setup_s", "fit_s", "total_s")}
        values["peak_rss_mb"] = peak_rss_mb
        return values

    def min_ess_per_s(self) -> float:
        """Geometric mean over NUTS models of min bulk ESS / fit_s."""
        def per_pass(p: Dict[str, Any]) -> float:
            return _geomean([r["min_ess"] / r["fit_s"] for r in p["models"]
                             if "min_ess" in r and r.get("fit_s")])
        return self._seed_mean(self._untraced(), per_pass)

    def per_layer(self) -> Dict[str, float]:
        traced = self._traced()
        per_pass = {p["run"]: self._layer_values(p) for p in traced}
        values = {name: self._seed_mean(traced, lambda p, name=name: per_pass[p["run"]][name])
                  for name in next(iter(per_pass.values()))}
        spans = [s for p in traced for s in self.tracer.of_run(p["run"])]
        for key, name in (("grad", "potential.grad"), ("batch", "potential.batch")):
            lat = latency_summary([1e3 * duration(s) for s in spans
                                   if s["name"] == name])
            values[f"potential.{key}_ms_p50"] = lat["p50"]
            values[f"potential.{key}_ms_tail"] = lat["tail"]
            values[f"potential.{key}_tail_pct"] = lat["tail_pct"]
        values["vi.step_ms_p50"] = latency_summary(
            _step_intervals(spans, "vi.fit", "potential.batch"))["p50"]
        values["svi.step_ms_p50"] = latency_summary(
            _step_intervals(spans, "svi.fit", "svi.guide"))["p50"]
        values["min_ess_per_s"] = self.min_ess_per_s()
        values["trace.overhead_s"] = (
            self._seed_mean(traced, lambda p: p["total_s"])
            - self._seed_mean(self._untraced(), lambda p: p["total_s"]))
        return values

    def _layer_values(self, p: Dict[str, Any]) -> Dict[str, float]:
        spans = self.tracer.of_run(p["run"])
        own = self_time_by_name(spans)
        by_id = {s["id"]: s for s in spans}

        def total(name: str) -> float:
            return sum(duration(s) for s in spans if s["name"] == name)

        def child_of(s: Dict[str, Any], name: str) -> bool:
            parent = by_id.get(s["parent"])
            return parent is not None and parent["name"] == name

        lowered = [s.get("attrs", {}) for s in spans if s["name"] == "tape.lower"]
        models = p["models"]
        calls = [s for s in spans if s["name"] in ("potential.grad", "potential.batch")]
        sampler_batches = [s for s in spans if s["name"] == "potential.batch"
                           and child_of(s, "sampler")]
        chains = max((spec.batch_rows for spec in self.workload.models
                      if spec.method == "nuts"), default=0)
        grad_evals = sum(r.get("grad_evals", 0) for r in models)
        return {
            "frontend.parse_s": own.get("frontend.parse", 0.0),
            "core.compile_s": own.get("core.compile", 0.0),
            "core.generated_lines": sum(r.get("generated_lines", 0) for r in models),
            "potential.discover_s": own.get("potential.discover", 0.0),
            "enum.analyze_s": own.get("enum.analyze", 0.0),
            "enum.planner_cost": sum(r.get("planner_cost", 0) for r in models),
            # first single gradient, validation included, enumeration analysis not
            "tape.compile_s": total("tape.compile") - sum(
                duration(s) for s in spans
                if s["name"] == "enum.analyze" and child_of(s, "tape.compile")),
            "tape.trace_s": own.get("tape.trace", 0.0),
            "tape.lower_s": own.get("tape.lower", 0.0),
            "tape.forward_lines": sum(a.get("forward_lines", 0) for a in lowered),
            "tape.backward_lines": sum(a.get("backward_lines", 0) for a in lowered),
            "batched.validate_s": total("batched.validate"),
            "potential.calls": len(calls),
            "potential.rows": sum(s.get("rows", 0) for s in calls),
            "potential.busy_s": sum(duration(s) for s in calls),
            "potential.compiled_share": (
                sum(r.get("compiled_evals", 0) for r in models) / grad_evals
                if grad_evals else 0.0),
            "sampler.overhead_s": own.get("sampler", 0.0),
            "sampler.leapfrog_steps": sum(r.get("leapfrog_steps", 0) for r in models),
            "sampler.batch_occupancy": (
                sum(s["rows"] for s in sampler_batches) / (chains * len(sampler_batches))
                if sampler_batches and chains else 0.0),
            "sampler.divergences": sum(r.get("divergences", 0) for r in models),
            "infer.constrain_s": total("infer.constrain"),
            "infer.summary_s": total("infer.summary"),
            "vi.psis_s": total("vi.psis"),
            "vi.khat": max((r["khat"] for r in models if "khat" in r), default=0.0),
            "vi.final_elbo": _mean([r["elbo"] for spec, r in zip(self.workload.models, models)
                                    if spec.method == "vi" and "elbo" in r]),
            "trace.residual_s": own.get("pass", 0.0),
        }

    # ------------------------------------------------------------------
    def report(self, values: Dict[str, float]) -> List[str]:
        """Human-readable lines: per-model medians, then the layer table."""
        lines = []
        untraced = self._untraced() or self.passes
        lines.append(f"{len(self.passes)} passes ({len(self._traced())} traced); "
                     f"attempted {self.attempted} operations, failed {self.failed} "
                     f"(error_rate {self.failed / max(self.attempted, 1):.4f})")
        first_seed = self.passes[0]["input_seed"]
        lines.append(f"{'model':40} {'setup_s':>9} {'fit_s':>9} {'summ_s':>8} "
                     f"{'min_ess':>8}  tier / enum / draws digest at input seed "
                     f"{first_seed}")
        for i, spec in enumerate(self.workload.models):
            recs = [p["models"][i] for p in untraced]
            first = self.passes[0]["models"][i]
            ess = first.get("min_ess")
            lines.append(
                f"{spec.title:40} {_median([r.get('setup_s', 0.0) for r in recs]):9.4f} "
                f"{_median([r.get('fit_s', 0.0) for r in recs]):9.4f} "
                f"{_median([r.get('summary_s', 0.0) for r in recs]):8.4f} "
                f"{'-' if ess is None else format(ess, '8.1f'):>8}  "
                f"{first.get('tier', '?')} / {first.get('enum_strategy', '-')} / "
                f"{first.get('digest', '-')}")
        calibration = [t for p in untraced for t in p["calibration_s"]]
        lines.append(f"host slowdown {self.slowdown():.4f}: calibration kernel "
                     f"mean {1e3 * _mean(calibration):.3f} ms over "
                     f"{len(calibration)} samples, reference "
                     f"{1e3 * contention.REFERENCE_S:.3f} ms; end-to-end times "
                     f"are divided by the slowdown around each model")
        if not self._traced():
            lines.append("end-to-end: " + ", ".join(
                f"{k}={v:.4f}" for k, v in values.items()))
            return lines
        traced = self._traced()
        own_by_run = {p["run"]: self_time_by_name(self.tracer.of_run(p["run"]))
                      for p in traced}
        own = {name: self._seed_mean(traced, lambda p, name=name:
                                     own_by_run[p["run"]].get(name, 0.0))
               for name in {n for d in own_by_run.values() for n in d}}
        traced_total = self._seed_mean(traced, lambda p: p["total_s"])
        lines.append(f"per-layer self time over {len(traced)} traced passes "
                     f"(traced total_s {traced_total:.4f})")
        for name in sorted(own, key=own.get, reverse=True):
            label = "(residual: no layer span)" if name == "pass" else name
            lines.append(f"  {label:32} {own[name]:10.4f} s "
                         f"{100 * own[name] / traced_total:6.1f}%")
        lines.append(f"tracing overhead: traced total_s - untraced total_s = "
                     f"{values['trace.overhead_s']:.4f} s")
        return lines


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _step_intervals(spans: List[Dict[str, Any]], fit_name: str,
                    step_name: str) -> List[float]:
    """Milliseconds between successive per-step calls inside each fit span."""
    fits = {s["id"] for s in spans if s["name"] == fit_name}
    starts: Dict[int, List[float]] = {}
    for s in spans:
        if s["name"] == step_name and s["parent"] in fits:
            starts.setdefault(s["parent"], []).append(s["start"])
    out = []
    for times in starts.values():
        times.sort()
        out.extend(1e3 * (b - a) for a, b in zip(times, times[1:]))
    return out
