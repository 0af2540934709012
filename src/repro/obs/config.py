"""Configuration surface for the telemetry subsystem.

:class:`ObsConfig` mirrors :class:`repro.engine.EngineConfig`: a frozen
dataclass threaded through ``compile_model(..., obs=...)`` down to the
potential and the samplers.  Telemetry is **off by default** — the null
path costs one attribute check per hook — and, when enabled, is
non-perturbing by construction: no hook touches an RNG or a floating
point value on the sampling path, so instrumented fits are bitwise
identical to uninstrumented ones.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace as _dataclass_replace
from typing import Any, Dict, Optional, Union


@dataclass(frozen=True)
class ObsConfig:
    """Immutable telemetry settings.

    Parameters
    ----------
    enabled:
        Master switch.  ``False`` (the default) resolves to the shared
        null telemetry object; nothing is recorded anywhere.
    spans:
        Record nested timing spans and point events (compile, tape,
        enumeration, sampler layers) into the trace log.
    sampler_stream:
        Record one ``"iteration"`` trace record per chain transition
        (accept prob, step size, tree depth, leapfrog count, energy,
        divergence flag).
    flight_recorder:
        Capture forensic records of divergent transitions (unconstrained
        position, energy change, trajectory endpoints) for post-hoc
        analysis via ``posterior.divergence_report()``.
    max_divergence_records:
        Cap on stored flight-recorder records; divergences beyond the
        cap are still *counted* but not captured.
    max_stream_records:
        Cap on stored per-iteration records; the overflow count is
        reported in the digest.
    """

    enabled: bool = False
    spans: bool = True
    sampler_stream: bool = True
    flight_recorder: bool = True
    max_divergence_records: int = 64
    max_stream_records: int = 200_000

    def __post_init__(self) -> None:
        if self.max_divergence_records < 0:
            raise ValueError("max_divergence_records must be >= 0")
        if self.max_stream_records < 0:
            raise ValueError("max_stream_records must be >= 0")

    @classmethod
    def coerce(
        cls,
        value: Union[None, bool, Dict[str, Any], "ObsConfig"] = None,
        **overrides: Any,
    ) -> "ObsConfig":
        """Build a config from the ``obs=`` argument accepted everywhere.

        ``None`` means "leave telemetry off", a bool toggles the master
        switch, a dict supplies field values, and an existing config
        passes through.  ``overrides`` with value ``None`` are ignored.
        """
        if value is None:
            config = cls()
        elif isinstance(value, cls):
            config = value
        elif isinstance(value, bool):
            config = cls(enabled=value)
        elif isinstance(value, dict):
            config = cls(**value)
        else:
            raise TypeError(
                "obs must be None, a bool, a dict of ObsConfig fields or an "
                f"ObsConfig, got {value!r}"
            )
        return config.replace(**overrides)

    def replace(self, **changes: Any) -> "ObsConfig":
        """Return a copy with non-``None`` ``changes`` applied."""
        changes = {key: value for key, value in changes.items() if value is not None}
        return _dataclass_replace(self, **changes) if changes else self

    def to_metadata(self) -> Dict[str, Any]:
        """Plain-dict form for fit/posterior metadata and BENCH JSONs."""
        return {field.name: getattr(self, field.name) for field in fields(self)}


def obs_config(value: Optional[Union[bool, Dict[str, Any], ObsConfig]] = None) -> ObsConfig:
    """Convenience alias for :meth:`ObsConfig.coerce`."""
    return ObsConfig.coerce(value)
