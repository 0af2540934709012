"""Reproduction of "Compiling Stan to Generative Probabilistic Languages and
Extension to Deep Probabilistic Programming" (Baudart et al., PLDI 2021).

Top-level API:

* :func:`repro.compile_model` / :func:`repro.compile_file` — compile Stan (or
  DeepStan) source with one of the three compilation schemes (``generative``,
  ``comprehensive``, ``mixed``) targeting the ``pyro`` or ``numpyro`` runtime;
  string sources are memoised on ``(source, scheme, backend)``.
* ``compiled.condition(data).fit("nuts" | "hmc" | "vi" | "svi" | "importance" | "smc")``
  — the posterior-first pipeline; every fit satisfies
  :class:`repro.FitResult` and produces a :class:`repro.Posterior`
  (``save``/``load``, ``stack``/``concat``, cached ``summary``).  MCMC and
  autoguide-VI fits support ``checkpoint_every=``/``checkpoint_path=`` with
  bitwise-identical ``resume``.
* :mod:`repro.stanref` — the Stan-semantics reference backend (interpreter +
  NUTS) used as the "Stan" baseline of the evaluation.
* :mod:`repro.infer` — NUTS/HMC, VI over automatic guides (mean-field ADVI
  is ``guide="auto_normal"``), SVI and diagnostics.
* :mod:`repro.deepstan` — explicit guides, neural networks, VAE and Bayesian
  neural networks (section 5).
* :mod:`repro.posteriordb` / :mod:`repro.corpus` — the bundled model/data
  registries standing in for PosteriorDB and ``example-models``.
* :mod:`repro.serve` — the amortized posterior serving layer: train an
  :class:`repro.AmortizedModel` once, then answer concurrent ``data ->
  Posterior`` queries through the micro-batched, k-hat-trust-gated
  :class:`repro.PosteriorServer`.
"""

from repro.core import (
    CompiledModel,
    CompileError,
    ConditionedModel,
    NonGenerativeModelError,
    UnsupportedFeatureError,
    analyze_source,
    clear_compile_cache,
    compile_cache_info,
    compile_file,
    compile_model,
)
from repro.engine import EngineConfig, EnumConfig
from repro.enum import EnumerationError, TableSizeError, infer_discrete
from repro.infer.results import FitResult, Posterior
from repro.obs import ObsConfig, Telemetry, TraceLog
from repro.serve import AmortizedModel, PosteriorServer, ServerConfig
from repro.smc import ParticleEnsemble, StreamingFit

__version__ = "0.1.0"

__all__ = [
    "compile_model",
    "compile_file",
    "compile_cache_info",
    "clear_compile_cache",
    "analyze_source",
    "CompiledModel",
    "ConditionedModel",
    "EngineConfig",
    "EnumConfig",
    "ObsConfig",
    "Telemetry",
    "TraceLog",
    "Posterior",
    "FitResult",
    "CompileError",
    "NonGenerativeModelError",
    "UnsupportedFeatureError",
    "EnumerationError",
    "TableSizeError",
    "infer_discrete",
    "AmortizedModel",
    "PosteriorServer",
    "ServerConfig",
    "ParticleEnsemble",
    "StreamingFit",
    "__version__",
]
