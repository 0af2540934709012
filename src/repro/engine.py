"""The unified engine configuration: one object for every evaluation knob.

:class:`EngineConfig` holds the two evaluation options accepted by
:func:`repro.compile_model` / :class:`repro.infer.Potential` as a single
declarative value:

>>> from repro import EngineConfig, EnumConfig, compile_model
>>> cfg = EngineConfig(engine="compiled", enum=EnumConfig(strategy="auto"))
>>> compiled = compile_model(source, engine=cfg)

``engine`` selects how the log-density tape is evaluated:

* ``"compiled"`` (default) — the recorded op graph is lowered once into a
  fused straight-line NumPy program (:mod:`repro.autodiff.compile`), served
  only once it agrees with its oracle (:mod:`repro.infer.validated`) and
  demoted when a model cannot be compiled (value-dependent control flow)
  or fails validation.
* ``"interpreted"`` — every evaluation replays the Python-object tape op by
  op (the pre-compilation behaviour; also the oracle the compiled engine is
  validated against).

``enum`` is the discrete-latent marginalization config (:class:`EnumConfig`).

The config is immutable and hashable so it can participate in cache keys;
``to_metadata()`` renders the resolved config for ``Posterior.metadata`` and
benchmark records.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

ENGINES = ("interpreted", "compiled")
#: accepted :class:`EnumConfig` strategies.  ``"auto"`` resolves, in order:
#: tensor variable elimination -> the joint assignment table -> error
#: (TableSizeError when nothing fits).
ENUM_STRATEGIES = ("auto", "contract", "parallel", "off")


@dataclass(frozen=True)
class EnumConfig:
    """Declarative configuration of discrete-latent marginalization.

    Thread it through :func:`repro.compile_model` as
    ``compile_model(source, enum=EnumConfig(...))`` (or just
    ``enum="contract"``).

    Parameters
    ----------
    strategy:
        ``"auto"`` (default; resolution order contract -> joint table ->
        error), ``"contract"`` (tensor variable elimination with a greedy
        contraction order — independent elements, chains, trees, grids,
        factorial HMMs), ``"parallel"`` (the joint assignment table) or
        ``"off"`` (reject discrete parameters).
    max_table_size:
        Cap on the joint enumeration table *and* on any single intermediate
        the contraction planner may materialize (``None`` = engine default,
        :data:`repro.enum.DEFAULT_MAX_TABLE_SIZE`).

    The resolved strategy is cross-checked against the joint table under
    the validation contract of :mod:`repro.infer.validated`.
    """

    strategy: str = "auto"
    max_table_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.strategy not in ENUM_STRATEGIES:
            raise ValueError(
                f"unknown enum strategy {self.strategy!r}; expected one of "
                f"{ENUM_STRATEGIES}")
        if self.max_table_size is not None and int(self.max_table_size) < 1:
            raise ValueError("max_table_size must be a positive integer")

    @classmethod
    def coerce(cls, value: Union[None, str, "EnumConfig"]) -> "EnumConfig":
        """Normalise ``enum=`` arguments to a config.

        Accepts ``None`` (defaults), a strategy name string, or a full
        :class:`EnumConfig`.
        """
        if value is None:
            return cls()
        if isinstance(value, str):
            return cls(strategy=value)
        if isinstance(value, EnumConfig):
            return value
        raise TypeError(
            f"enum must be a strategy name or an EnumConfig, got "
            f"{type(value).__name__}")

    def replace(self, **changes: Any) -> "EnumConfig":
        """A copy of the config with ``changes`` applied (validated)."""
        return dataclasses.replace(self, **changes)

    def to_metadata(self) -> Dict[str, Any]:
        """The resolved config as a plain dict (metadata / JSON records)."""
        return {"strategy": self.strategy, "max_table_size": self.max_table_size}


@dataclass(frozen=True)
class EngineConfig:
    """Declarative configuration of the evaluation engine.

    Parameters
    ----------
    engine:
        ``"compiled"`` (fused tape programs, default) or ``"interpreted"``.
    enum:
        The discrete-latent marginalization config (:class:`EnumConfig`).
        The default strategy is ``"off"``: discrete parameters are rejected
        unless enumeration is requested.
    """

    engine: str = "compiled"
    enum: EnumConfig = EnumConfig(strategy="off")

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if not isinstance(self.enum, EnumConfig):
            raise TypeError(
                f"enum must be an EnumConfig, got {type(self.enum).__name__}")

    @classmethod
    def coerce(cls, value: Union[None, str, "EngineConfig"]) -> "EngineConfig":
        """Normalise ``engine=`` arguments to a config.

        Accepts ``None`` (defaults), an engine name string, or a full
        :class:`EngineConfig`.
        """
        if value is None:
            return cls()
        if isinstance(value, str):
            return cls(engine=value)
        if isinstance(value, EngineConfig):
            return value
        raise TypeError(
            f"engine must be an engine name or an EngineConfig, got "
            f"{type(value).__name__}")

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy of the config with ``changes`` applied (validated)."""
        return dataclasses.replace(self, **changes)

    def to_metadata(self) -> Dict[str, Any]:
        """The resolved config as a plain dict (metadata / JSON records)."""
        return {"engine": self.engine, "enum": self.enum.to_metadata()}
