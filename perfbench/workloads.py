"""The benchmark's workloads: which Stan models run, on which data, how.

Every workload is a closed loop in one process: one model's pipeline
(compile -> condition -> ready-to-sample -> fit -> summary) runs to
completion before the next one starts.  Data come only from
``repro.posteriordb.datagen`` at the workload seed; model sizes are chosen
so that one pass over a workload's models takes a few seconds, which lets
a run report medians over several passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.posteriordb import datagen


@dataclass(frozen=True)
class ModelSpec:
    """One model of a workload."""

    #: corpus model name (``repro.corpus.models.get``).
    name: str
    #: ``seed -> data`` from ``repro.posteriordb.datagen``.
    data: Callable[[int], Dict[str, Any]]
    #: ``"nuts"``, ``"vi"`` (autoguide) or ``"svi"`` (explicit guide).
    method: str = "nuts"
    #: ``compile_model(..., enum=...)``; ``None`` for continuous models.
    enum: Optional[str] = None
    #: corpus model whose ``repro.stanref`` target is the correctness
    #: reference; ``None`` means the model's own source.  Enumerated models
    #: name their hand-marginalized twin so the check never trusts the
    #: compiler under test.
    reference: Optional[str] = None
    #: keyword arguments of ``ConditionedModel.fit`` (the seed is added).
    fit_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: label shown in reports (defaults to ``name``).
    label: Optional[str] = None

    @property
    def title(self) -> str:
        return self.label or self.name

    @property
    def batch_rows(self) -> int:
        """Rows of the batched gradient this model's fit uses (0 = none)."""
        if self.method == "nuts":
            if self.fit_kwargs.get("chain_method") == "vectorized":
                return int(self.fit_kwargs["num_chains"])
            return 0
        if self.method == "vi":
            return int(self.fit_kwargs.get("num_particles", 1))
        return 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    models: Tuple[ModelSpec, ...]


def _nuts(chain_method: str, warmup: int, samples: int,
          depth: int) -> Dict[str, Any]:
    return {"num_warmup": warmup, "num_samples": samples, "num_chains": 4,
            "chain_method": chain_method, "max_tree_depth": depth}


# Paper Table 5 traffic: cheap gradients, so per-call potential dispatch and
# the Python NUTS loop dominate; no enumeration, no batched tier.
_TABLE5 = _nuts("sequential", warmup=15, samples=15, depth=3)

# Hand-marginalized twins (scalar-granular compiled tapes whose lowering
# dominates set-up and whose batched gradient dominates the fit) and the
# enumerated models (enumeration analysis in set-up, contraction tapes and
# the per-row batched fallback in the fit).
_STRUCTURED = _nuts("vectorized", warmup=6, samples=6, depth=3)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "table5_nuts",
        "paper Table 5 models under 4-chain sequential NUTS: cheap gradients, "
        "so potential dispatch and sampler overhead dominate",
        (
            ModelSpec("eight_schools_centered", datagen.eight_schools_data,
                      fit_kwargs=_TABLE5),
            ModelSpec("kidscore_momiq", datagen.kidiq_data, fit_kwargs=_TABLE5),
            ModelSpec("arK", datagen.ar_data, fit_kwargs=_TABLE5),
            ModelSpec("garch11", datagen.garch_data, fit_kwargs=_TABLE5),
        )),
    Workload(
        "structured_nuts",
        "hand-marginalized HMM and mixture twins plus the enumerated HMM and "
        "factorial HMM (enum=auto) under 4-chain vectorized NUTS: tape "
        "lowering, enumeration analysis and batched gradients",
        (
            ModelSpec("hmm_k_marginal", lambda s: datagen.hmm_k_data(s, t=8),
                      fit_kwargs=_STRUCTURED),
            ModelSpec("gauss_mix_marginal",
                      lambda s: datagen.gauss_mix_enum_data(s, n=16),
                      fit_kwargs=_STRUCTURED),
            ModelSpec("hmm_k_enum", lambda s: datagen.hmm_k_data(s, t=12),
                      enum="auto", reference="hmm_k_marginal",
                      fit_kwargs=_STRUCTURED),
            ModelSpec("factorial_hmm_enum",
                      lambda s: datagen.factorial_hmm_data(s, t=8),
                      enum="auto", reference="factorial_hmm_marginal",
                      fit_kwargs=_STRUCTURED),
        )),
    Workload(
        "vi_guides",
        "autoguide VI on eight schools plus explicit-guide SVI, each with PSIS "
        "k-hat: the only workload through infer.vi, guides and ppl.handlers",
        (
            ModelSpec("eight_schools_noncentered", datagen.eight_schools_data,
                      method="vi", label="eight_schools_noncentered/auto_normal",
                      fit_kwargs={"guide": "auto_normal", "num_steps": 800,
                                  "num_particles": 4}),
            ModelSpec("eight_schools_noncentered", datagen.eight_schools_data,
                      method="vi", label="eight_schools_noncentered/auto_mvn",
                      fit_kwargs={"guide": "auto_mvn", "num_steps": 800,
                                  "num_particles": 4}),
            ModelSpec("multimodal_guide", lambda s: {}, method="svi",
                      label="multimodal_guide/explicit",
                      fit_kwargs={"num_steps": 800}),
        )),
)}

#: draws the PSIS k-hat diagnostic uses (the documented stability floor).
PSIS_DRAWS = 1000
