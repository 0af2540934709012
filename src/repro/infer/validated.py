"""Validated fast paths: a candidate is served only after it agrees with its oracle.

:class:`~repro.infer.Potential` evaluates the density through optimistic fast
paths, and every one follows the contract stated here:

* **paths and oracles.**  ``tape``: the compiled single-row program against
  the interpreted evaluation of the same graph.  ``batched``: the batched
  evaluation at a width — its compiled program under the compiled engine,
  else (or when the graph does not lower) the interpreted batched tape.  Its
  oracle is the per-row loop when the potential classifies the width
  itself, and the interpreted batched tape when the width's tier was
  inherited from a shared store or a structural demotion dropped the
  program; the width's tier lives only in that (possibly shared) store.
  ``enum``/``strategy``: the contraction plan against the joint table; the
  decision's reason says how the strategy resolved.  ``enum``/``table``:
  the table-vectorized joint execution against the per-assignment rows.
  ``constrain``: the batched constrain against per-row constraining.
* **canonical probes.**  A path is classified once, at fixed jittered points
  around the prior-init point (:meth:`Potential._canonical_probe`) — three
  for the ``tape`` and ``batched`` paths, one for the others — never at the
  caller's point.  The tier is then a pure function of the potential, so a
  checkpoint-resumed run classifies exactly like the run that wrote the
  checkpoint, and the bitwise-resume and chain-method contracts hold.
* **comparator tiers.**  *Bitwise*: values feed sampler threshold decisions
  (accept, slice, U-turn), so a candidate whose values differ from its
  oracle at all serves nothing.  *Grad-tol*: values bitwise but gradients
  only within (:data:`GRAD_RTOL`, :data:`GRAD_ATOL`) — reordered floating
  point, gemm vs gemv — gives ``value_fast``: value-only consumers keep the
  candidate, gradient consumers take the oracle, so trajectories stay
  bitwise.  An enumerated batched width is capped there: its per-chain
  contraction sums in another order than the row loop, so bitwise probe
  gradients are coincidence, not structure.  *Value-tol*: evaluations
  that sum the same terms in different orders agree within a fixed
  tolerance: the contraction and the joint table within
  (:data:`VALUE_RTOL`, :data:`VALUE_ATOL`), gradients within the grad
  tolerance; the batched and per-row constrained values within
  (:data:`CONSTRAIN_RTOL`, :data:`CONSTRAIN_ATOL`).
* **one-way demotion.**  A candidate that fails its comparison, or raises at
  runtime (a branch taken only away from the probes), falls back to its
  fallback tier for good, under the potential's validation lock.  A batched
  width falls back to the row loop, never to an evaluation that no loop
  comparison vouched for: when its program raises, or when an inherited
  width's program does not lower or misses its interpreted-tape check, the
  width is demoted for every potential sharing the store; a potential that
  adopts a store holding a better tier at a width it classified itself
  demotes the store to its own verdict.  The interpreted batched tape
  serves a compiled-engine width only as the width's own candidate (the
  graph does not lower), or for a sharer's value-only calls before its
  program is checked — values the program reproduces bitwise by
  construction (:mod:`repro.autodiff.compile`).
* **decisions.**  Every classification and demotion appends one record
  ``{path, key, tier, oracle, reason}`` to :meth:`Potential.decisions`, emits
  it as a ``potential.decision`` telemetry event and sets the metrics info
  label ``"{path}.{key}"`` to the tier.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Tuple

import numpy as np

from repro.obs.trace import NULL_SPAN

GRAD_RTOL = 1e-9
GRAD_ATOL = 1e-12
VALUE_RTOL = 1e-10
VALUE_ATOL = 1e-8
CONSTRAIN_RTOL = 1e-8
CONSTRAIN_ATOL = 1e-10
#: canonical probes of the ``tape`` and ``batched`` paths: agreement that is
#: coincidental (last-ulp drift cancelling at one point) must not validate
#: into a bitwise tier off a single lucky sample.
VALIDATION_PROBES = 3
#: largest joint table the contraction is cross-checked against; beyond it
#: the oracle itself is intractable and the exact graph-walk analysis is
#: trusted.
CROSS_CHECK_TABLE_CAP = 4096


def describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _agreement(candidate: Tuple, oracle: Tuple, value_tol: Tuple[float, float]
               ) -> Tuple[bool, bool, bool, bool]:
    """``(values bitwise, grads bitwise, values within tol, grads within tol)``
    of two ``(values, *grads)`` outputs."""
    pairs = [(np.asarray(c), np.asarray(o)) for c, o in zip(candidate, oracle)]
    bitwise = [np.array_equal(c, o, equal_nan=True) for c, o in pairs]
    tols = [value_tol] + [(GRAD_RTOL, GRAD_ATOL)] * (len(pairs) - 1)
    within = [bool(np.allclose(c, o, rtol=rtol, atol=atol, equal_nan=True))
              for (c, o), (rtol, atol) in zip(pairs, tols)]
    return bitwise[0], all(bitwise[1:]), within[0], all(within[1:])


class ValidatedPath:
    """One fast path of a potential: its oracle, tier ladder and verdict.

    ``tiers`` is ``(best, value_only, fallback)`` (``value_only`` is ``None``
    for paths without a value-only tier); ``tolerance``, the values'
    ``(rtol, atol)``, selects the value-tol comparator.  ``tier`` is ``None``
    until classified and ``reason`` is the last decision's reason.
    ``program`` holds what the candidate runs: a compiled program, or the
    contraction plan of the ``enum``/``strategy`` path.
    """

    tier: Optional[str] = None
    reason: Optional[str] = None
    program: Any = None

    def __init__(self, owner: Any, path: str, key: Any, tiers: Tuple,
                 oracle: str, tolerance: Optional[Tuple[float, float]] = None) -> None:
        self.owner = owner
        self.path, self.key, self.tiers, self.oracle = path, key, tiers, oracle
        self.tolerance = tolerance

    def _verdict(self, checks) -> str:
        values_bitwise, grads_bitwise, values_tol, grads_tol = checks
        best, value_only, fallback = self.tiers
        if self.tolerance:
            return best if values_tol and grads_tol else fallback
        if values_bitwise and grads_bitwise:
            return best
        if value_only and values_bitwise and grads_tol:
            return value_only
        return fallback

    def compare(self, candidate: Callable, oracle: Callable,
                probes: Iterable[np.ndarray], span=NULL_SPAN) -> Tuple[str, str]:
        """``(tier, reason)`` of ``candidate`` against ``oracle`` at ``probes``.

        Both map a probe to a ``(values, *grads)`` tuple; an exception on
        either side selects the fallback tier.
        """
        checks, count, graded = (True,) * 4, 0, False
        try:
            for z in probes:
                with np.errstate(all="ignore"):
                    out, ref = candidate(z), oracle(z)
                graded = len(out) > 1
                agreement = _agreement(out, ref, self.tolerance or (VALUE_RTOL, VALUE_ATOL))
                checks = tuple(a and b for a, b in zip(checks, agreement))
                count += 1
                if self._verdict(checks) == self.tiers[-1]:
                    break
            words = ["bitwise" if exact else "within tolerance" if close
                     else "differ" for exact, close in
                     ((checks[0], checks[2]), (checks[1], checks[3]))]
            reason = (f"values {words[0]}"
                      + (f", gradients {words[1]}" if graded else "")
                      + f" at {count} probe(s)")
        except Exception as exc:  # noqa: BLE001
            checks, reason = (False,) * 4, describe_error(exc)
        tier = self._verdict(checks)
        span.set(tier=tier, values_bitwise=checks[0], grads_bitwise=checks[1],
                 grads_within_tolerance=checks[3])
        return tier, reason

    def decide(self, tier: str, reason: Optional[str] = None) -> None:
        """Record ``tier`` as this path's classification or demotion."""
        owner = self.owner
        with owner._validation_lock:
            self.tier, self.reason = tier, reason
            if tier == self.tiers[-1]:
                self.program = None
            record = {"path": self.path, "key": self.key, "tier": tier,
                      "oracle": self.oracle, "reason": reason}
            owner._decisions.append(record)
            owner.metrics.set_info(f"{self.path}.{self.key}", tier)
            owner.telemetry.event("potential.decision", **record)

    def demote(self, exc: BaseException) -> None:
        """Fall back for good after a runtime failure of the candidate."""
        with self.owner._validation_lock:
            if self.tier != self.tiers[-1]:
                self.decide(self.tiers[-1], describe_error(exc))
