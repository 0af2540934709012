"""Inference algorithms for the generative-PPL runtime.

The paper evaluates its backends with NUTS (the preferred Stan inference
method, available in both Pyro and NumPyro) and with stochastic variational
inference for the DeepStan extensions.  This package provides:

* :class:`~repro.infer.results.Posterior` / the
  :class:`~repro.infer.results.FitResult` protocol — the posterior-first
  result layer every engine produces (``.posterior`` + ``.diagnostics()``),
  with exact ``save``/``load``, chain-axis ``stack``, draw-axis ``concat``
  and a cached ``summary()``.
* :class:`~repro.infer.mcmc.MCMC` — a driver running HMC/NUTS chains against a
  model, handling warmup, multiple chains, constrained/unconstrained
  re-parameterisation and checkpoint/resume (``checkpoint_every`` /
  :meth:`~repro.infer.mcmc.MCMC.resume`, bitwise-identical continuation).
* :class:`~repro.infer.hmc.HMC` and :class:`~repro.infer.nuts.NUTS` — kernels.
* :class:`~repro.infer.vi.VI` — the unified variational-inference engine over
  the automatic guide families of :mod:`repro.guides` (mean-field, full-rank,
  low-rank, point-mass, amortized-neural), with ELBO histories and PSIS k-hat
  guide-quality diagnostics; ``VI(guide=AutoNormal())`` is mean-field ADVI
  (Stan's baseline in Fig. 10).
* :class:`~repro.infer.vi.ExplicitVI` — the same result interface over
  explicit DeepStan ``guide`` blocks (via SVI).
* :class:`~repro.infer.svi.SVI` — trace-based ELBO optimisation against an
  explicit guide (DeepStan ``guide`` blocks, §5.1).
* :class:`~repro.infer.importance.ImportanceSampling` — self-normalised
  importance sampling, plus the Pareto-smoothed weight machinery (PSIS k-hat,
  importance ESS) shared with the VI guide diagnostics.
* :mod:`~repro.infer.diagnostics` — R-hat, effective sample size, posterior
  summaries and the paper's 30%-of-reference-stddev accuracy criterion.
"""

from repro.infer.potential import DiscreteLatentError, Potential, make_potential
from repro.infer.hmc import HMC, VectorizedChains
from repro.infer.nuts import NUTS
from repro.infer.mcmc import MCMC
from repro.infer.results import FitResult, Posterior, POSTERIOR_SCHEMA_VERSION
from repro.infer.vi import VI, ExplicitVI, PSISResult
from repro.infer.svi import SVI, TraceELBO
from repro.infer.importance import (
    PSIS_MIN_DRAWS,
    ImportanceSampling,
    fit_generalized_pareto,
    importance_ess,
    pareto_smoothed_log_weights,
    psis_khat,
)
from repro.infer import diagnostics

__all__ = [
    "Potential",
    "DiscreteLatentError",
    "make_potential",
    "HMC",
    "NUTS",
    "MCMC",
    "VectorizedChains",
    "Posterior",
    "FitResult",
    "POSTERIOR_SCHEMA_VERSION",
    "VI",
    "ExplicitVI",
    "PSISResult",
    "SVI",
    "TraceELBO",
    "ImportanceSampling",
    "PSIS_MIN_DRAWS",
    "fit_generalized_pareto",
    "importance_ess",
    "pareto_smoothed_log_weights",
    "psis_khat",
    "diagnostics",
]
