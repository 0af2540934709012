"""The unified engine configuration: one object for every evaluation knob.

:class:`EngineConfig` replaces the sprawl of positional keyword arguments
that accumulated on :func:`repro.compile_model` /
:class:`repro.infer.Potential` (``enumerate=``, ``max_enum_table_size=``,
``chain_method=``, ...) with a single declarative value:

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

The config is immutable and hashable so it can participate in cache keys;
``to_metadata()`` renders the resolved config for ``Posterior.metadata`` and
benchmark records.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Union

ENGINES = ("interpreted", "compiled")
#: accepted spellings of the deprecated ``enumerate=`` option, the one table
#: every entry point validates against (through :class:`EngineConfig`);
#: :meth:`EngineConfig.resolved_enum` maps them onto :class:`EnumConfig`.
ENUMERATE_MODES = (None, "parallel", "factorized")
CHAIN_METHODS = ("sequential", "vectorized")
#: accepted :class:`EnumConfig` strategies.  ``"auto"`` resolves, in order:
#: tensor variable elimination -> the joint assignment table -> error
#: (TableSizeError when nothing fits).
ENUM_STRATEGIES = ("auto", "contract", "parallel", "off")


@dataclass(frozen=True)
class EnumConfig:
    """Declarative configuration of discrete-latent marginalization.

    One object replaces the ``enumerate=`` / ``max_enum_table_size=`` kwarg
    sprawl.  Thread it through :func:`repro.compile_model` as
    ``compile_model(source, enum=EnumConfig(...))`` (or just
    ``enum="contract"``); the old spellings keep working as warn-once
    deprecated shims mapped onto this config.

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
    def coerce(cls, value: Union[None, str, "EnumConfig"],
               **overrides: Any) -> "EnumConfig":
        """Normalise ``enum=`` arguments to a config.

        Accepts ``None`` (defaults), a strategy name string, or a full
        :class:`EnumConfig`; ``overrides`` replace individual fields
        (``None`` overrides are ignored, mirroring
        :meth:`EngineConfig.coerce`).
        """
        if value is None:
            config = cls()
        elif isinstance(value, str):
            config = cls(strategy=value)
        elif isinstance(value, EnumConfig):
            config = value
        else:
            raise TypeError(
                f"enum must be a strategy name or an EnumConfig, got "
                f"{type(value).__name__}")
        effective = {k: v for k, v in overrides.items() if v is not None}
        if effective:
            config = config.replace(**effective)
        return config

    def replace(self, **changes: Any) -> "EnumConfig":
        """A copy of the config with ``changes`` applied (validated)."""
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state.update(changes)
        return EnumConfig(**state)

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
    enumerate:
        Deprecated discrete-latent spelling: ``None`` (reject int
        parameters), ``"parallel"`` (joint assignment table) or
        ``"factorized"`` (resolves to ``EnumConfig(strategy="auto")``).
    chain_method:
        Default multi-chain execution for MCMC fits: ``"sequential"`` or
        ``"vectorized"``.
    max_enum_table_size:
        Cap on the joint enumeration table (``None`` = engine default).
    enum:
        The unified discrete-latent marginalization config
        (:class:`EnumConfig`); when set it takes precedence over the legacy
        ``enumerate`` / ``max_enum_table_size`` fields, which survive as
        deprecated spellings mapped onto it by :meth:`resolved_enum`.
    """

    engine: str = "compiled"
    enumerate: Optional[str] = None
    chain_method: str = "sequential"
    max_enum_table_size: Optional[int] = None
    enum: Optional[EnumConfig] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if self.enumerate not in ENUMERATE_MODES:
            raise ValueError(
                f'unknown enumerate mode {self.enumerate!r}; expected None, '
                '"parallel" or "factorized"')
        if self.enum is not None and not isinstance(self.enum, EnumConfig):
            raise TypeError(
                f"enum must be an EnumConfig or None, got "
                f"{type(self.enum).__name__}")
        if self.chain_method not in CHAIN_METHODS:
            raise ValueError(
                f"unknown chain_method {self.chain_method!r}; expected one of "
                f"{CHAIN_METHODS}")
        if self.max_enum_table_size is not None and int(self.max_enum_table_size) < 1:
            raise ValueError("max_enum_table_size must be a positive integer")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def coerce(cls, value: Union[None, str, "EngineConfig"],
               **overrides: Any) -> "EngineConfig":
        """Normalise ``engine=`` arguments to a config.

        Accepts ``None`` (defaults), an engine name string, or a full
        :class:`EngineConfig`; ``overrides`` replace individual fields
        (``None`` overrides are ignored so legacy-kwarg shims can pass
        through unconditionally).
        """
        if value is None:
            config = cls()
        elif isinstance(value, str):
            config = cls(engine=value)
        elif isinstance(value, EngineConfig):
            config = value
        else:
            raise TypeError(
                f"engine must be an engine name or an EngineConfig, got "
                f"{type(value).__name__}")
        effective = {k: v for k, v in overrides.items() if v is not None}
        if effective:
            config = config.replace(**effective)
        return config

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy of the config with ``changes`` applied (validated)."""
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state.update(changes)
        return EngineConfig(**state)

    def resolved_enum(self) -> EnumConfig:
        """The effective :class:`EnumConfig` of this engine configuration.

        An explicit ``enum`` config wins (inheriting ``max_enum_table_size``
        when it does not set its own cap); otherwise the legacy
        ``enumerate`` spelling maps onto a strategy: ``None`` -> ``"off"``,
        ``"parallel"`` -> ``"parallel"``, ``"factorized"`` -> ``"auto"``.
        """
        if self.enum is not None:
            if self.enum.max_table_size is None and \
                    self.max_enum_table_size is not None:
                return self.enum.replace(max_table_size=self.max_enum_table_size)
            return self.enum
        legacy = {None: "off", "parallel": "parallel",
                  "factorized": "auto"}[self.enumerate]
        return EnumConfig(strategy=legacy,
                          max_table_size=self.max_enum_table_size)

    def to_metadata(self) -> Dict[str, Any]:
        """The resolved config as a plain dict (metadata / JSON records)."""
        return {
            "engine": self.engine,
            "enumerate": self.enumerate,
            "chain_method": self.chain_method,
            "max_enum_table_size": self.max_enum_table_size,
            "enum": self.enum.to_metadata() if self.enum is not None else None,
        }
