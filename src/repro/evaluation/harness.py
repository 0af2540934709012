"""Experiment harness: the code behind Tables 1-5 (see the experiment index in README.md).

The functions here are deliberately table-shaped: each returns the rows the
corresponding table in the paper reports (pass/fail status, mean relative
error, runtime, speedup), so the benchmarks only need to format them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core import analysis, compile_model
from repro.core.schemes import CompileError
from repro.core.stanlib import UnsupportedStanFunction
from repro.corpus import models as corpus_models
from repro.frontend.parser import ParseError, parse_program
from repro.frontend.semantics import SemanticError
from repro.infer import diagnostics
from repro.posteriordb import Entry
from repro.stanref import StanModel


# ----------------------------------------------------------------------
# Table 1: non-generative feature prevalence over the corpus
# ----------------------------------------------------------------------
def corpus_feature_table(model_names: Optional[List[str]] = None) -> Dict[str, Any]:
    """Prevalence of the Table 1 features over the bundled corpus."""
    names = model_names or corpus_models.names()
    reports = []
    per_model = {}
    for name in names:
        program = parse_program(corpus_models.get(name), name=name)
        report = analysis.analyze(program)
        reports.append(report)
        per_model[name] = report.feature_flags() | {"generative": report.is_generative}
    summary = analysis.summarize_corpus(reports)
    return {"summary": summary, "percentages": summary.percentages(), "per_model": per_model}


# ----------------------------------------------------------------------
# RQ1 / Table 2: generality of the compilation
# ----------------------------------------------------------------------
@dataclass
class GeneralityResult:
    """Compile / run success counts per (scheme, backend)."""

    total: int = 0
    compiled: Dict[Tuple[str, str], int] = field(default_factory=dict)
    ran: Dict[Tuple[str, str], int] = field(default_factory=dict)
    failures: Dict[Tuple[str, str], List[Tuple[str, str]]] = field(default_factory=dict)

    def record(self, key: Tuple[str, str], name: str, compiled: bool, ran: bool, error: str = "") -> None:
        self.compiled.setdefault(key, 0)
        self.ran.setdefault(key, 0)
        self.failures.setdefault(key, [])
        if compiled:
            self.compiled[key] += 1
        if ran:
            self.ran[key] += 1
        if error:
            self.failures[key].append((name, error))


def compile_status(source: str, scheme: str, backend: str, name: str = "model") -> Tuple[bool, str]:
    """Whether a program compiles under (scheme, backend); returns (ok, error)."""
    try:
        compile_model(source, backend=backend, scheme=scheme, name=name)
        return True, ""
    except (CompileError, ParseError, SemanticError, UnsupportedStanFunction) as exc:
        return False, f"{type(exc).__name__}: {exc}"


def corpus_generality(schemes=("comprehensive", "mixed", "generative"),
                      backends=("pyro", "numpyro"),
                      model_names: Optional[List[str]] = None) -> GeneralityResult:
    """RQ1 over the bundled corpus: how many models compile under each scheme."""
    names = model_names or corpus_models.names()
    result = GeneralityResult(total=len(names))
    for scheme in schemes:
        for backend in backends:
            key = (scheme, backend)
            for name in names:
                ok, error = compile_status(corpus_models.get(name), scheme, backend, name)
                result.record(key, name, compiled=ok, ran=False, error=error)
    return result


def registry_generality(entries: List[Entry],
                        schemes=("comprehensive", "mixed", "generative"),
                        backends=("pyro", "numpyro")) -> GeneralityResult:
    """Table 2: successful single-iteration inference runs on the registry."""
    result = GeneralityResult(total=len(entries))
    for scheme in schemes:
        for backend in backends:
            key = (scheme, backend)
            for entry in entries:
                compiled_ok, ran_ok, error = False, False, ""
                try:
                    compiled = compile_model(entry.source, backend=backend, scheme=scheme,
                                             name=entry.name)
                    compiled_ok = True
                    compiled.condition(entry.data()).fit(
                        "nuts", num_warmup=1, num_samples=1,
                        max_tree_depth=2, seed=entry.config.seed)
                    ran_ok = True
                except Exception as exc:  # noqa: BLE001 - table records the failure kind
                    error = f"{type(exc).__name__}: {exc}"
                result.record(key, entry.name, compiled=compiled_ok, ran=ran_ok, error=error)
    return result


# ----------------------------------------------------------------------
# Tables 3-5: accuracy and speed against the Stan reference
# ----------------------------------------------------------------------
@dataclass
class AccuracyRow:
    entry: str
    status: str          # "match", "mismatch", or "error"
    relative_error: float
    runtime_seconds: float
    error: str = ""


@dataclass
class SpeedRow:
    entry: str
    stan_seconds: float
    backend_seconds: Dict[str, float]
    speedup: Dict[str, float]


def run_reference(entry: Entry, scale: float = 1.0) -> Tuple[Dict[str, np.ndarray], float]:
    """Run the Stan reference backend (the baseline of Tables 3-5)."""
    config = entry.config
    ref = StanModel(entry.source, name=entry.name)
    start = time.perf_counter()
    mcmc = ref.run_nuts(entry.data(),
                        num_warmup=max(int(config.num_warmup * scale), 10),
                        num_samples=max(int(config.num_samples * scale), 10),
                        num_chains=config.num_chains, thinning=config.thinning,
                        seed=config.seed, max_tree_depth=config.max_tree_depth)
    elapsed = time.perf_counter() - start
    return mcmc.get_samples(), elapsed


def accuracy_and_speed_row(entry: Entry, reference: Dict[str, np.ndarray],
                           backend: str, scheme: str, scale: float = 1.0,
                           threshold: float = 0.3) -> AccuracyRow:
    """One cell of Table 3: run a backend/scheme and compare to the reference."""
    config = entry.config
    start = time.perf_counter()
    try:
        compiled = compile_model(entry.source, backend=backend, scheme=scheme, name=entry.name)
        fit = compiled.condition(entry.data()).fit(
            "nuts",
            num_warmup=max(int(config.num_warmup * scale), 10),
            num_samples=max(int(config.num_samples * scale), 10),
            num_chains=config.num_chains, thinning=config.thinning,
            seed=config.seed, max_tree_depth=config.max_tree_depth)
        elapsed = time.perf_counter() - start
        samples = {k: v for k, v in fit.posterior.get_samples().items() if k in reference}
        passed, rel_err = diagnostics.accuracy_check(reference, samples, threshold=threshold)
        status = "match" if passed else "mismatch"
        return AccuracyRow(entry=entry.name, status=status, relative_error=rel_err,
                           runtime_seconds=elapsed)
    except Exception as exc:  # noqa: BLE001 - error rows are part of the table
        elapsed = time.perf_counter() - start
        return AccuracyRow(entry=entry.name, status="error", relative_error=float("nan"),
                           runtime_seconds=elapsed, error=f"{type(exc).__name__}: {exc}")


def geometric_mean_speedup(stan_times: List[float], backend_times: List[float]) -> float:
    """The paper's headline metric: geometric-mean speedup of a backend vs Stan."""
    ratios = [s / b for s, b in zip(stan_times, backend_times) if s > 0 and b > 0]
    if not ratios:
        return float("nan")
    return float(np.exp(np.mean(np.log(ratios))))


def compile_time_comparison(entries: List[Entry]) -> Dict[str, float]:
    """§6.1: average compile time of the backends vs the Stan reference frontend."""
    backend_times, stan_times = [], []
    for entry in entries:
        start = time.perf_counter()
        compile_model(entry.source, backend="numpyro", scheme="comprehensive", name=entry.name)
        backend_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        StanModel(entry.source, name=entry.name)
        stan_times.append(time.perf_counter() - start)
    return {
        "backend_mean_seconds": float(np.mean(backend_times)),
        "backend_std_seconds": float(np.std(backend_times)),
        "stan_mean_seconds": float(np.mean(stan_times)),
        "stan_std_seconds": float(np.std(stan_times)),
    }
