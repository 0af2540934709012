"""Streaming-inference workloads: SMC assimilation vs full-refit twins.

The production story the SMC engine exists for: observations arrive in
chunks, and the posterior must track the growing dataset.  Each workload
here defines a cumulative *chunk schedule* (``data_at(size)`` returns the
dataset truncated to the first ``size`` observations) plus everything
needed to run the same stream two ways:

* **streaming** — ``fit("smc")`` on the first chunk, then one
  ``extend(data_at(size))`` per arrival;
* **full-refit twin** — a fresh NUTS fit on the final cumulative dataset,
  the from-scratch baseline each assimilation is supposed to beat on
  wall-clock while agreeing within Monte Carlo error.

Two shapes cover the engine's envelope:

* ``streaming_regression`` — a linear regression whose parameter space is
  fixed while ``N`` grows;
* ``streaming_hmm`` — the corpus 2-state HMM with explicit ``int`` states,
  compiled with ``enum="auto"``: the discrete path is marginalized out by
  tensor variable elimination (the forward algorithm), so the unconstrained
  dimension stays 2 no matter how long the chain grows — exactly the fixed
  parameter space streaming SMC requires.

:func:`run_streaming_comparison` runs both sides and reports the
paper-style agreement metric (worst mean difference in combined-MCSE
units, :func:`repro.evaluation.discrete.mcse_sigmas`) and the wall-clock
of each assimilation vs the refit — the numbers ``BENCH_smc.json`` gates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core import compile_model
from repro.corpus import models as corpus_models
from repro.engine import EngineConfig, EnumConfig
from repro.evaluation.discrete import mcse_sigmas

REGRESSION_SOURCE = """
data {
  int N;
  real x[N];
  real y[N];
}
parameters {
  real alpha;
  real beta;
  real<lower=0> sigma;
}
model {
  alpha ~ normal(0, 5);
  beta ~ normal(0, 5);
  sigma ~ normal(0, 2);
  for (n in 1:N)
    y[n] ~ normal(alpha + beta * x[n], sigma);
}
"""


@dataclass
class StreamingWorkload:
    """A chunked data stream over one model."""

    name: str
    source: str
    #: cumulative dataset sizes; the first is the initial fit, the rest
    #: arrive via ``extend()``.
    sizes: Sequence[int]
    data_at: Callable[[int], Dict[str, Any]]
    engine: Optional[EngineConfig] = None
    #: workload-appropriate SMC knobs (merged under caller overrides).
    smc_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: unconstrained start for the refit twin.  ``None`` falls back to the
    #: model's deterministic prior-transform point.  Workloads with a
    #: negligible-mass mirror mode (the HMM's label swap) pin the twin in
    #: the dominant basin — favouring the *baseline* with a good start is
    #: conservative for the streaming side's wall-clock claim.
    twin_init: Optional[np.ndarray] = None

    def compiled(self):
        return compile_model(self.source, name=self.name, engine=self.engine)


def streaming_regression(seed: int = 0,
                         sizes: Sequence[int] = (40, 60, 80, 100),
                         ) -> StreamingWorkload:
    """Linear regression with observations arriving in chunks."""
    rng = np.random.default_rng(seed)
    total = int(max(sizes))
    x = rng.uniform(-2.0, 2.0, total)
    y = 0.8 + 1.5 * x + 0.7 * rng.standard_normal(total)

    def data_at(size: int) -> Dict[str, Any]:
        size = int(size)
        return {"N": size, "x": x[:size].copy(), "y": y[:size].copy()}

    return StreamingWorkload(name="streaming_regression",
                             source=REGRESSION_SOURCE, sizes=tuple(sizes),
                             data_at=data_at)


def streaming_hmm(seed: int = 0,
                  sizes: Sequence[int] = (30, 45, 60)) -> StreamingWorkload:
    """The corpus K-state HMM as a growing observation stream.

    Uses the *enumerated* formulation (explicit ``int z[T]`` states,
    ``hmm_k_enum``) under ``enum="auto"``: the chain of discrete
    states is eliminated in ``O(T * K^2)`` per evaluation, so the particles
    only carry the K emission means and ``extend()`` can grow ``T`` freely.
    The prior centers ``mu0 = (-2, 2)`` are far enough apart that the
    label-swapped mode carries negligible posterior mass — both the
    streaming fit and the refit twin land in the same basin, keeping the
    MCSE comparison about Monte Carlo error rather than multimodality.
    """
    rng = np.random.default_rng(seed)
    total = int(max(sizes))
    mu_true = np.array([-2.0, 2.0])
    gamma = np.array([[0.9, 0.1], [0.2, 0.8]])
    rho = np.array([0.5, 0.5])
    states = np.zeros(total, dtype=int)
    states[0] = rng.choice(2, p=rho)
    for t in range(1, total):
        states[t] = rng.choice(2, p=gamma[states[t - 1]])
    y = mu_true[states] + 0.5 * rng.standard_normal(total)

    def data_at(size: int) -> Dict[str, Any]:
        size = int(size)
        return {"T": size, "K": 2, "y": y[:size].copy(),
                "Gamma": gamma.copy(), "rho": rho.copy(),
                "mu0": mu_true.copy()}

    return StreamingWorkload(name="streaming_hmm",
                             source=corpus_models.get("hmm_k_enum"),
                             sizes=tuple(sizes), data_at=data_at,
                             # Interpreted engine: the compiled backend would
                             # lower a fresh T-sized fused program on every
                             # extend() (the chain grows, so the tape grows),
                             # and that per-chunk compile dwarfs the
                             # assimilation itself.  The refit twin runs the
                             # same engine, so the race stays fair.
                             engine=EngineConfig(engine="interpreted",
                                                 enum=EnumConfig(strategy="auto")),
                             # enumerated gradients run per row (the batched
                             # tier caps at value_fast), so rejuvenation is
                             # the cost center — one shorter move round per
                             # rung keeps assimilation ahead of the refit.
                             smc_kwargs={"num_moves": 1,
                                         "move_num_steps": 4},
                             # mu is unconstrained, so the prior centers are
                             # a valid start coordinate as-is.
                             twin_init=mu_true.copy())


WORKLOADS: Dict[str, Callable[..., StreamingWorkload]] = {
    "streaming_regression": streaming_regression,
    "streaming_hmm": streaming_hmm,
}


@dataclass
class StreamingComparison:
    """One workload's streaming-vs-refit verdict."""

    workload: str
    sizes: Sequence[int]
    init_seconds: float
    #: per-``extend()`` wall-clock, one entry per arriving chunk.
    extend_seconds: List[float]
    refit_seconds: float
    #: refit wall-clock over the *last* assimilation's — the claim
    #: ``extend()`` must win.
    speedup: float
    #: worst per-parameter mean difference vs the refit twin, in combined
    #: Monte Carlo standard errors (< ~4 means the runs agree).
    max_mcse_sigmas: float
    agreement_passed: bool
    tempering_steps: int
    normalized_ess: float
    summaries: Dict[str, Dict[str, Any]] = field(default_factory=dict)


def run_streaming_comparison(workload: StreamingWorkload, *,
                             num_particles: int = 192, seed: int = 0,
                             refit_warmup: int = 300,
                             refit_samples: int = 300,
                             sigmas_threshold: float = 4.0,
                             **smc_overrides: Any) -> StreamingComparison:
    """Stream the workload through SMC and race the full-refit NUTS twin.

    The streaming side fits the first chunk with ``fit("smc")`` and
    assimilates each later chunk with ``extend()``; the twin refits NUTS
    from scratch on the final cumulative dataset.  Both target the same
    posterior, so the comparison reports ``mcse_sigmas`` agreement plus
    the wall-clock of the *last* assimilation against the refit — the
    streaming engine's reason to exist.
    """
    smc_kwargs = dict(workload.smc_kwargs)
    smc_kwargs.update(smc_overrides)
    compiled = workload.compiled()
    sizes = list(workload.sizes)

    start = time.perf_counter()
    fit = compiled.condition(workload.data_at(sizes[0])).fit(
        "smc", num_particles=num_particles, seed=seed, **smc_kwargs)
    init_seconds = time.perf_counter() - start

    extend_seconds: List[float] = []
    for size in sizes[1:]:
        start = time.perf_counter()
        fit.extend(workload.data_at(size))
        extend_seconds.append(time.perf_counter() - start)

    final = compiled.condition(workload.data_at(sizes[-1]))
    # Start the twin deterministically instead of Stan-style uniform(-2, 2)
    # jitter: a single jittered chain can fall into a negligible-mass
    # mirror mode of weakly identified models (the HMM's label swap) and
    # never cross back, which would turn the MCSE comparison into a
    # multimodality lottery.  Extracted off the clock so the refit's timing
    # is not charged for the comparison harness.
    twin_init = workload.twin_init
    if twin_init is None:
        twin_init = final.potential(seed).initial_unconstrained()
    start = time.perf_counter()
    twin = final.fit(
        "nuts", num_warmup=refit_warmup, num_samples=refit_samples,
        seed=seed, init_params=twin_init)
    refit_seconds = time.perf_counter() - start

    smc_summary = fit.posterior.summary()
    twin_summary = twin.posterior.summary()
    sigmas = mcse_sigmas(smc_summary, twin_summary)
    last_extend = extend_seconds[-1] if extend_seconds else init_seconds
    return StreamingComparison(
        workload=workload.name,
        sizes=sizes,
        init_seconds=init_seconds,
        extend_seconds=extend_seconds,
        refit_seconds=refit_seconds,
        speedup=refit_seconds / max(last_extend, 1e-9),
        max_mcse_sigmas=sigmas,
        agreement_passed=sigmas < sigmas_threshold,
        tempering_steps=fit.steps_total,
        normalized_ess=fit.ensemble.normalized_ess(),
        summaries={"smc": smc_summary, "refit": twin_summary},
    )
