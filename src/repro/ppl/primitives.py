"""Probabilistic primitives: ``sample``, ``observe``, ``factor``, ``param``.

These are the constructs of the GProb target language (§3.2) realised as a
Python API, following Pyro's design: each call builds a *message* that is
threaded through the stack of active effect handlers
(:mod:`repro.ppl.handlers`), which may fill in values (replay/substitute),
record the site (trace), or re-seed randomness (seed).

``observe(dist, value)`` is the syntactic shortcut of the paper:
``factor(dist.log_prob(value))`` — conditioning the execution on observed
data.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.autodiff.tensor import Tensor, as_tensor
from repro.ppl.distributions.base import Distribution

# The handler stack; handlers push/pop themselves in __enter__/__exit__.
_HANDLER_STACK: list = []

# Fast log-density contexts (NumPyro-style potential evaluation).  When a
# context is active, the primitives bypass the effect-handler machinery and
# accumulate the log joint directly — this is the analogue of NumPyro
# extracting a pure potential function instead of re-tracing the model with
# messengers on every gradient evaluation, and is where the Pyro/NumPyro
# runtime speed difference of Table 3 comes from in this reproduction.
_FAST_STACK: list = []


class BatchMixingError(RuntimeError):
    """Raised when a batched evaluation would mix values across chains."""


class FastLogDensityContext:
    """Accumulates the log joint of a model execution without handlers.

    With ``batch_size=C`` the context runs in *vectorized multi-chain* mode:
    substituted latent values carry a leading chain axis of length ``C`` and
    :meth:`total` returns a ``(C,)`` tensor — each term is summed over its
    trailing (event) axes only, so every chain keeps its own log joint.  Terms
    that do not carry the chain axis (data-only contributions) are summed to a
    scalar and broadcast to all chains.

    With ``collect_names=True`` the context additionally records the site
    name of every accumulated term (in execution order) in ``term_names`` —
    the provenance the enumeration engine needs to match each term back to
    the model statement that produced it.  ``observe``/``factor``
    sites get their generated names; anonymous additions record ``None``.
    """

    __slots__ = ("substitution", "log_prob_terms", "term_names", "rng", "batch_size")

    def __init__(self, substitution=None, rng=None, batch_size=None,
                 collect_names: bool = False):
        self.substitution = substitution or {}
        self.log_prob_terms = []
        self.term_names = [] if collect_names else None
        self.rng = rng or np.random.default_rng(0)
        self.batch_size = batch_size

    def add(self, term, name: Optional[str] = None) -> None:
        self.log_prob_terms.append(term)
        if self.term_names is not None:
            self.term_names.append(name)

    def total(self):
        from repro.autodiff import ops
        from repro.autodiff.tensor import as_tensor

        if self.batch_size is None:
            total = as_tensor(0.0)
            for term in self.log_prob_terms:
                term = as_tensor(term)
                total = ops.add(total, term.sum() if term.data.ndim > 0 else term)
            return total
        c = self.batch_size
        total = as_tensor(np.zeros(c))
        for term in self.log_prob_terms:
            term = as_tensor(term)
            if term.data.ndim >= 1 and term.data.shape[0] == c:
                reduced = ops.sum_(term, axis=tuple(range(1, term.data.ndim))) \
                    if term.data.ndim > 1 else term
            else:
                reduced = term.sum() if term.data.ndim > 0 else term
            total = ops.add(total, reduced)
        return total

    def __enter__(self):
        _FAST_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc_value, tb):
        assert _FAST_STACK[-1] is self
        _FAST_STACK.pop()
        return False


def current_batch_size():
    """Chain count of the innermost active batched fast context (or ``None``)."""
    if _FAST_STACK:
        return _FAST_STACK[-1].batch_size
    return None

# Global parameter store for `param` sites (Pyro's param store equivalent).
_PARAM_STORE: Dict[str, Tensor] = {}

# Fallback random generator when no `seed` handler is installed.
_DEFAULT_RNG = np.random.default_rng(0)

_SITE_COUNTER = [0]


def _fresh_name(prefix: str) -> str:
    _SITE_COUNTER[0] += 1
    return f"{prefix}__{_SITE_COUNTER[0]}"


def reset_site_counter() -> None:
    """Reset the automatic site-name counter (used between model runs)."""
    _SITE_COUNTER[0] = 0


def get_param_store() -> Dict[str, Tensor]:
    """Return the global parameter store."""
    return _PARAM_STORE


def clear_param_store() -> None:
    """Remove all learnable parameters (used between SVI experiments)."""
    _PARAM_STORE.clear()


def apply_stack(msg: Dict[str, Any]) -> Dict[str, Any]:
    """Send a message through the handler stack and apply the default."""
    stack = _HANDLER_STACK
    for pointer, handler in enumerate(reversed(stack)):
        handler.process_message(msg)
        if msg.get("stop"):
            break
    default_process(msg)
    for handler in stack:
        handler.postprocess_message(msg)
    return msg


def default_process(msg: Dict[str, Any]) -> None:
    """Default behaviour once no handler has produced a value."""
    if msg["type"] == "sample" and msg["value"] is None:
        rng = msg.get("rng") or _DEFAULT_RNG
        fn = msg["fn"]
        if getattr(fn, "has_rsample", False):
            # Reparameterised draw: keeps the graph to the distribution's
            # parameters so guide gradients (SVI) are pathwise.
            msg["value"] = fn.rsample(rng)
        else:
            msg["value"] = fn.sample(rng)
    elif msg["type"] == "param" and msg["value"] is None:
        store = _PARAM_STORE
        name = msg["name"]
        if name not in store:
            init = msg["init"]
            tensor = init if isinstance(init, Tensor) else Tensor(init)
            tensor.requires_grad = True
            tensor.name = name
            store[name] = tensor
        msg["value"] = store[name]


def sample(name: str, fn: Distribution, obs=None):
    """Sample a value from ``fn`` at site ``name`` (or observe ``obs``).

    Returns the (possibly handler-supplied) value.  With no handlers active
    this simply draws from the distribution — the model is runnable as an
    ordinary generative program.
    """
    if not isinstance(fn, Distribution):
        raise TypeError(f"sample site {name!r}: expected a Distribution, got {type(fn)!r}")
    if _FAST_STACK:
        ctx = _FAST_STACK[-1]
        if obs is not None:
            ctx.add(fn.log_prob(obs), name=name)
            return obs
        if name in ctx.substitution:
            value = ctx.substitution[name]
            ctx.add(fn.log_prob(value), name=name)
            return value
        return fn.sample(ctx.rng)
    msg = {
        "type": "sample",
        "name": name,
        "fn": fn,
        "value": obs,
        "is_observed": obs is not None,
        "rng": None,
        "stop": False,
    }
    apply_stack(msg)
    return msg["value"]


def observe(fn: Distribution, value, name: Optional[str] = None):
    """Condition the execution on ``value`` following ``fn`` (paper §2.1).

    Equivalent to a ``sample`` with ``obs=value``; a fresh site name is
    generated when none is supplied, matching the compiler's name-postfixing
    behaviour in loops (§4).
    """
    if name is None:
        name = _fresh_name("observe")
    return sample(name, fn, obs=value)


def factor(name: str, log_factor):
    """Add ``log_factor`` to the log score of the current execution trace.

    Compiles Stan's ``target += e`` (§3.3, Fig. 7).
    """
    if _FAST_STACK:
        _FAST_STACK[-1].add(as_tensor(log_factor), name=name)
        return as_tensor(log_factor)
    msg = {
        "type": "factor",
        "name": name,
        "fn": None,
        "value": as_tensor(log_factor),
        "is_observed": True,
        "rng": None,
        "stop": False,
    }
    apply_stack(msg)
    return msg["value"]


def param(name: str, init=None, constraint=None):
    """Declare or retrieve a learnable parameter (guide parameters, §5.1)."""
    msg = {
        "type": "param",
        "name": name,
        "init": init if init is not None else 0.0,
        "constraint": constraint,
        "value": None,
        "is_observed": False,
        "rng": None,
        "stop": False,
    }
    apply_stack(msg)
    return msg["value"]


def deterministic(name: str, value):
    """Record a deterministic quantity in the trace (generated quantities)."""
    msg = {
        "type": "deterministic",
        "name": name,
        "fn": None,
        "value": value,
        "is_observed": True,
        "rng": None,
        "stop": False,
    }
    apply_stack(msg)
    return msg["value"]
