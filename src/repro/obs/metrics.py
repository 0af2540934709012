"""A flat registry of counters/timers plus string-valued info labels.

Every engine-level count (gradient evaluations, compiled-tape serves,
batched-eval utilization) increments a named counter here (the
``Potential.eval_counters`` dict is a view over them), timers accumulate
float seconds under a ``*_seconds`` suffix, and discrete facts (the tier
of each validated fast path, e.g. ``enum.strategy``) are recorded as info
labels.  Zero dependencies, zero locks —
the registry is process-local and single-writer like the rest of the
runtime.
"""

from __future__ import annotations

from typing import Dict, Union

Number = Union[int, float]


class MetricsRegistry:
    """Named monotonically-increasing counters and info labels."""

    __slots__ = ("_counters", "_info")

    def __init__(self) -> None:
        self._counters: Dict[str, Number] = {}
        self._info: Dict[str, str] = {}

    # -- writers -------------------------------------------------------
    def inc(self, name: str, value: Number = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at zero)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def set_info(self, name: str, value: object) -> None:
        """Record a string fact (tape tier, strategy, demotion reason)."""
        self._info[name] = str(value)

    def clear(self) -> None:
        self._counters.clear()
        self._info.clear()

    # -- readers -------------------------------------------------------
    def value(self, name: str, default: Number = 0) -> Number:
        return self._counters.get(name, default)

    def info(self, name: str, default: object = None) -> object:
        return self._info.get(name, default)

    def counters(self) -> Dict[str, Number]:
        return dict(self._counters)

    def labels(self) -> Dict[str, str]:
        return dict(self._info)

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-ready view: ``{"counters": {...}, "info": {...}}``."""
        return {"counters": dict(self._counters), "info": dict(self._info)}

    def __len__(self) -> int:
        return len(self._counters) + len(self._info)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._info)} info labels)"
        )
