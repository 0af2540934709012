"""Algebraic effect handlers over the probabilistic primitives.

The handler set mirrors the Pyro "poutine" layer used by the paper's
generated code and inference algorithms:

* :class:`trace` — record every site (name, distribution, value, log-prob).
* :class:`replay` — reuse the sampled values of a previous trace.
* :class:`substitute` — force given values at named sample sites.
* :class:`condition` — like substitute but marks the sites as observed.
* :class:`seed` — supply a deterministic NumPy generator to sample sites.
* :class:`block` — hide selected sites from outer handlers.

Together with :func:`log_density` these are sufficient to build the NUTS
potential function and the SVI ELBO estimator.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, Optional

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Tensor, as_tensor
from repro.ppl.primitives import _HANDLER_STACK


class Messenger:
    """Base effect handler; also usable as a decorator around a model fn."""

    def __init__(self, fn: Optional[Callable] = None):
        self.fn = fn

    def __enter__(self):
        _HANDLER_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc_value, tb):
        assert _HANDLER_STACK[-1] is self
        _HANDLER_STACK.pop()
        return False

    def __call__(self, *args, **kwargs):
        if self.fn is None:
            raise ValueError("this handler does not wrap a function")
        with self:
            return self.fn(*args, **kwargs)

    def process_message(self, msg: Dict[str, Any]) -> None:
        """Hook run on the way *down* the stack (innermost first)."""

    def postprocess_message(self, msg: Dict[str, Any]) -> None:
        """Hook run on the way *up* the stack (outermost last)."""


class trace(Messenger):
    """Record all sites of an execution in an ordered dictionary."""

    def __init__(self, fn: Optional[Callable] = None):
        super().__init__(fn)
        self.trace: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    def __enter__(self):
        self.trace = OrderedDict()
        return super().__enter__()

    def postprocess_message(self, msg: Dict[str, Any]) -> None:
        if msg["type"] in ("sample", "factor", "param", "deterministic"):
            name = msg["name"]
            if name in self.trace:
                raise RuntimeError(f"duplicate site name {name!r} in trace")
            self.trace[name] = dict(msg)

    def get_trace(self, *args, **kwargs) -> "OrderedDict[str, Dict[str, Any]]":
        """Run the wrapped function and return the recorded trace."""
        self(*args, **kwargs)
        return self.trace


class replay(Messenger):
    """Replay sample sites from a previously recorded trace."""

    def __init__(self, fn: Optional[Callable] = None, guide_trace: Optional[Dict] = None):
        super().__init__(fn)
        self.guide_trace = guide_trace or {}

    def process_message(self, msg: Dict[str, Any]) -> None:
        if msg["type"] == "sample" and not msg["is_observed"]:
            site = self.guide_trace.get(msg["name"])
            if site is not None:
                msg["value"] = site["value"]


class substitute(Messenger):
    """Force the values of named sample sites (used to build potential fns)."""

    def __init__(self, fn: Optional[Callable] = None, data: Optional[Dict[str, Any]] = None):
        super().__init__(fn)
        self.data = data or {}

    def process_message(self, msg: Dict[str, Any]) -> None:
        if msg["type"] in ("sample", "param") and msg["name"] in self.data:
            msg["value"] = self.data[msg["name"]]


class condition(Messenger):
    """Condition named sample sites on observed values."""

    def __init__(self, fn: Optional[Callable] = None, data: Optional[Dict[str, Any]] = None):
        super().__init__(fn)
        self.data = data or {}

    def process_message(self, msg: Dict[str, Any]) -> None:
        if msg["type"] == "sample" and msg["name"] in self.data:
            msg["value"] = self.data[msg["name"]]
            msg["is_observed"] = True


class seed(Messenger):
    """Supply a deterministic random generator to all sample sites."""

    def __init__(self, fn: Optional[Callable] = None, rng_seed: int = 0):
        super().__init__(fn)
        if isinstance(rng_seed, np.random.Generator):
            self.rng = rng_seed
        else:
            self.rng = np.random.default_rng(rng_seed)

    def process_message(self, msg: Dict[str, Any]) -> None:
        if msg["type"] == "sample" and msg.get("rng") is None:
            msg["rng"] = self.rng


class block(Messenger):
    """Hide sites matching ``hide_fn`` from handlers further out."""

    def __init__(self, fn: Optional[Callable] = None, hide_fn: Optional[Callable[[Dict], bool]] = None,
                 hide: Optional[Iterable[str]] = None):
        super().__init__(fn)
        if hide_fn is not None:
            self.hide_fn = hide_fn
        elif hide is not None:
            names = set(hide)
            self.hide_fn = lambda msg: msg["name"] in names
        else:
            self.hide_fn = lambda msg: True

    def process_message(self, msg: Dict[str, Any]) -> None:
        if self.hide_fn(msg):
            msg["stop"] = True


# ----------------------------------------------------------------------
# derived utilities
# ----------------------------------------------------------------------
def trace_log_density(model_trace: Dict[str, Dict[str, Any]]) -> Tensor:
    """Sum the log-probability of every sample site and factor in a trace."""
    total = as_tensor(0.0)
    for site in model_trace.values():
        if site["type"] == "sample":
            lp = site["fn"].log_prob(site["value"])
            total = ops.add(total, lp.sum() if isinstance(lp, Tensor) and lp.data.ndim > 0 else lp)
        elif site["type"] == "factor":
            value = site["value"]
            value = value.sum() if isinstance(value, Tensor) and value.data.ndim > 0 else as_tensor(value)
            total = ops.add(total, value)
    return total


def log_density(model: Callable, model_args=(), model_kwargs=None,
                substituted: Optional[Dict[str, Any]] = None,
                rng_seed: int = 0):
    """Run ``model`` with ``substituted`` latent values; return (log joint, trace).

    This is the core building block of the inference engines: the joint log
    density of the observed data and the substituted latent values, as a
    differentiable :class:`Tensor`.
    """
    model_kwargs = model_kwargs or {}
    tracer = trace()
    with seed(rng_seed=rng_seed), substitute(data=substituted or {}), tracer:
        model(*model_args, **model_kwargs)
    return trace_log_density(tracer.trace), tracer.trace


def latent_sites(model_trace: Dict[str, Dict[str, Any]]) -> "OrderedDict[str, Dict[str, Any]]":
    """Return the unobserved sample sites of a trace (the model parameters)."""
    out: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
    for name, site in model_trace.items():
        if site["type"] == "sample" and not site["is_observed"]:
            out[name] = site
    return out
