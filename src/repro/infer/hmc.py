"""Hamiltonian Monte Carlo kernel with step-size and mass adaptation.

The static-trajectory HMC kernel shares its adaptation machinery (dual
averaging for the step size, Welford estimation of a diagonal mass matrix)
with the NUTS kernel in :mod:`repro.infer.nuts`, mirroring the structure of
Stan's and NumPyro's samplers.

One chain driver
----------------

Kernels hold configuration only and never call the potential.  Everything
that needs the potential -- a transition (:meth:`HMC._transition_gen`), the
initial step-size search (:meth:`HMC._step_size_gen`) -- is a *generator*
that yields every point at which it needs the potential and its gradient
and receives the ``(U, dU/dz)`` pair back.  :func:`drive` is the one loop
that advances such generators, one per chain (or SMC particle), and
``chain_method`` only chooses how it answers a round of requests
(:func:`answer_for`): a row loop of
:meth:`~repro.infer.potential.Potential.potential_and_grad` under
``"sequential"``, one batched
:meth:`~repro.infer.potential.Potential.potential_and_grad_batched` call
under ``"vectorized"``.  Each chain consumes only its own RNG stream and an
evaluation is a pure function of the point, so both chain methods produce
identical draws for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.infer.potential import Potential

CHAIN_METHODS = ("sequential", "vectorized")


def check_chain_method(chain_method: str) -> str:
    """Return ``chain_method`` if it is one of :data:`CHAIN_METHODS`, else raise."""
    if chain_method not in CHAIN_METHODS:
        raise ValueError(
            f"unknown chain_method {chain_method!r}; expected one of {CHAIN_METHODS}")
    return chain_method


@dataclass
class DualAveraging:
    """Nesterov dual averaging of the log step size (Hoffman & Gelman 2014)."""

    target_accept: float = 0.8
    gamma: float = 0.05
    t0: float = 10.0
    kappa: float = 0.75
    mu: float = 0.0
    log_step: float = 0.0
    log_step_avg: float = 0.0
    h_bar: float = 0.0
    count: int = 0

    def initialize(self, step_size: float) -> None:
        self.mu = math.log(10.0 * step_size)
        self.log_step = math.log(step_size)
        self.log_step_avg = math.log(step_size)
        self.h_bar = 0.0
        self.count = 0

    def update(self, accept_prob: float) -> float:
        self.count += 1
        eta = 1.0 / (self.count + self.t0)
        self.h_bar = (1 - eta) * self.h_bar + eta * (self.target_accept - accept_prob)
        self.log_step = self.mu - math.sqrt(self.count) / self.gamma * self.h_bar
        weight = self.count ** (-self.kappa)
        self.log_step_avg = weight * self.log_step + (1 - weight) * self.log_step_avg
        return math.exp(self.log_step)

    @property
    def adapted_step_size(self) -> float:
        return math.exp(self.log_step_avg)


@dataclass
class WelfordVariance:
    """Online estimator of per-dimension variance for the mass matrix."""

    dim: int
    count: int = 0
    mean: np.ndarray = field(default=None)  # type: ignore[assignment]
    m2: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.mean = np.zeros(self.dim)
        self.m2 = np.zeros(self.dim)

    def update(self, x: np.ndarray) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean = self.mean + delta / self.count
        self.m2 = self.m2 + delta * (x - self.mean)

    def variance(self) -> np.ndarray:
        if self.count < 2:
            return np.ones(self.dim)
        var = self.m2 / (self.count - 1)
        # Regularise towards unity as Stan does.
        return (self.count / (self.count + 5.0)) * var + 1e-3 * (5.0 / (self.count + 5.0))

    def reset(self) -> None:
        self.count = 0
        self.mean = np.zeros(self.dim)
        self.m2 = np.zeros(self.dim)


def kernel_config(kernel: "HMC") -> Dict[str, Any]:
    """The draw-determining kernel *options*.

    Stored in every MCMC checkpoint so ``resume`` can verify — or rebuild —
    a kernel whose remaining transitions match the original run exactly.
    ``step_size`` here is the configured value; it only governs draws when
    step-size adaptation is off (adaptive runs re-derive it).
    """
    config = {
        "method": type(kernel).__name__.lower(),
        "num_steps": int(kernel.num_steps),
        "target_accept": float(kernel.target_accept),
        "max_energy_change": float(kernel.max_energy_change),
        "adapt_step_size": bool(kernel.adapt_step_size),
        "adapt_mass_matrix": bool(kernel.adapt_mass_matrix),
        "step_size": float(kernel.step_size),
    }
    max_tree_depth = getattr(kernel, "max_tree_depth", None)
    if max_tree_depth is not None:
        config["max_tree_depth"] = int(max_tree_depth)
    return config


def check_kernel_config(kernel: "HMC", stored: Dict[str, Any]) -> None:
    """Raise if ``kernel`` would not continue ``stored``'s run identically."""
    current = kernel_config(kernel)
    mismatched = []
    for key, value in stored.items():
        if key == "step_size" and stored.get("adapt_step_size", True):
            continue  # adaptive runs re-derive / restore the step size
        if current.get(key) != value:
            mismatched.append(f"{key}: checkpoint={value!r}, kernel={current.get(key)!r}")
    if mismatched:
        raise ValueError(
            "kernel does not match the checkpointed run (resume would not be "
            "bitwise-identical): " + "; ".join(mismatched))


def drive(generators: Sequence, answer: Callable, on_return: Callable) -> None:
    """Run one generator per slot to completion, answering its requests.

    This is the only loop that advances kernel generators.  Each round
    moves every live generator to its next evaluation request and answers
    all of the round's requests with one ``answer(points)`` call, which
    returns the ``(U, grad)`` pairs in request order.  When slot ``i``'s
    generator returns ``value``, ``on_return(i, value)`` gives the slot's
    next generator, or ``None`` to retire the slot.

    Slots are independent, so they need not stay in lockstep: a chain that
    finishes a NUTS trajectory early starts its next transition in the same
    round, which keeps a batched answer full when tree depths differ.
    """
    gens = list(generators)
    responses: List[Any] = [None] * len(gens)
    active = [i for i, gen in enumerate(gens) if gen is not None]
    while active:
        requests, requesters = [], []
        for i in active:
            gen, response = gens[i], responses[i]
            while gen is not None:
                try:
                    requests.append(gen.send(response))
                except StopIteration as stop:
                    gen = gens[i] = on_return(i, stop.value)
                    response = None
                else:
                    requesters.append(i)
                    break
        if not requesters:
            break
        for i, response in zip(requesters, answer(requests)):
            responses[i] = response
        active = requesters


def answer_for(potential: Potential, chain_method: str, slots: int,
               telemetry) -> Callable:
    """The :func:`drive` ``answer`` for ``chain_method`` over ``slots`` slots.

    ``"sequential"`` answers each request with the single-row tape, the
    batched tape's oracle; ``"vectorized"`` stacks a round's requests into
    one batched evaluation.
    """
    if chain_method == "sequential":
        return lambda points: [potential.potential_and_grad(z) for z in points]

    def batched(points):
        if telemetry.enabled:
            # Batched-eval utilization: how many of the slots asked for work
            # this round (chains finishing a NUTS trajectory early stop
            # requesting, draining the batch).
            telemetry.record_batch(len(points), slots)
        values, grads = potential.potential_and_grad_batched(np.stack(points))
        return zip(values, grads)
    return batched


class HMC:
    """Static Hamiltonian Monte Carlo kernel.

    A kernel holds configuration only (plus the shared ``divergences``
    counter); per-chain state lives with the chain driver.

    Parameters
    ----------
    potential:
        A :class:`~repro.infer.potential.Potential`, or any object exposing
        ``dim`` and the evaluations the chain driver's ``answer`` makes
        (``potential_and_grad``, or ``potential_and_grad_batched`` under
        ``"vectorized"``).
    step_size:
        Initial leapfrog step size (adapted during warmup unless
        ``adapt_step_size=False``).
    num_steps:
        Number of leapfrog steps per proposal (ignored by NUTS).
    """

    def __init__(self, potential: Potential, step_size: float = 0.1, num_steps: int = 10,
                 adapt_step_size: bool = True, adapt_mass_matrix: bool = True,
                 target_accept: float = 0.8, max_energy_change: float = 1000.0):
        self.potential = potential
        self.step_size = step_size
        self.num_steps = num_steps
        self.adapt_step_size = adapt_step_size
        self.adapt_mass_matrix = adapt_mass_matrix
        self.target_accept = target_accept
        self.max_energy_change = max_energy_change
        # Every chain's starting mass matrix when adapt_mass_matrix=False.
        self.inv_mass = np.ones(potential.dim)
        self.divergences = 0
        # Set by the MCMC driver when the divergence flight recorder is on;
        # transitions then attach a forensic "divergence_info" payload to
        # their info dict.  Copies only — never the RNG or float path.
        self.record_divergences = False

    # ------------------------------------------------------------------
    # numerics
    # ------------------------------------------------------------------
    def _kinetic(self, momentum: np.ndarray, inv_mass: np.ndarray) -> float:
        return 0.5 * float(np.sum(inv_mass * momentum * momentum))

    def _sample_momentum(self, rng: np.random.Generator,
                         inv_mass: np.ndarray) -> np.ndarray:
        return rng.standard_normal(self.potential.dim) / np.sqrt(inv_mass)

    @staticmethod
    def _leapfrog_gen(z: np.ndarray, r: np.ndarray, u, grad: np.ndarray,
                      step_size: float, num_steps: int, inv_mass: np.ndarray):
        """``num_steps`` leapfrog steps from ``(z, r)``, where ``(u, grad)``
        is the evaluation at ``z``; yields each new position and returns
        ``(z, r, u, grad)`` at the end of the trajectory."""
        r = r - 0.5 * step_size * grad
        for i in range(num_steps):
            z = z + step_size * inv_mass * r
            u, grad = yield z
            if i < num_steps - 1:
                r = r - step_size * grad
        r = r - 0.5 * step_size * grad
        return z, r, u, grad

    def _step_size_gen(self, z: np.ndarray, rng: np.random.Generator,
                       inv_mass: np.ndarray, initial_eval):
        """Heuristic initial step size (Hoffman & Gelman 2014, Algorithm 4).

        A generator like :meth:`_transition_gen`, starting from
        ``initial_eval``, the ``(U, grad)`` at ``z``; returns the step size.
        """
        step_size = 1.0
        u0, grad0 = initial_eval
        momentum = self._sample_momentum(rng, inv_mass)
        h0 = u0 + self._kinetic(momentum, inv_mass)
        _, r1, u1, _ = yield from self._leapfrog_gen(z, momentum, u0, grad0,
                                                     step_size, 1, inv_mass)
        h1 = u1 + self._kinetic(r1, inv_mass)
        log_ratio = h0 - h1
        direction = 1.0 if log_ratio > math.log(0.5) else -1.0
        for _ in range(50):
            step_size *= 2.0 ** direction
            _, r1, u1, _ = yield from self._leapfrog_gen(z, momentum, u0, grad0,
                                                         step_size, 1, inv_mass)
            h1 = u1 + self._kinetic(r1, inv_mass)
            if not np.isfinite(h1):
                step_size *= 0.5 ** direction
                continue
            log_ratio = h0 - h1
            if direction == 1.0 and log_ratio <= math.log(0.5):
                break
            if direction == -1.0 and log_ratio >= math.log(0.5):
                break
        return max(min(step_size, 10.0), 1e-6)

    # ------------------------------------------------------------------
    # the transition as a generator
    # ------------------------------------------------------------------
    def _transition_gen(self, z: np.ndarray, rng: np.random.Generator,
                        step_size: float, inv_mass: np.ndarray,
                        initial_eval=None):
        """One HMC transition; yields evaluation points, receives ``(U, grad)``.

        Returns ``(z_new, info)`` via ``StopIteration.value``.  Adaptation and
        iteration bookkeeping live in the caller.

        ``initial_eval`` is the ``(U, grad)`` pair at ``z`` if the caller
        already knows it (the previous transition evaluated its endpoint);
        evaluations are deterministic, so reusing it cannot change the draws.
        The returned info carries ``"_next_eval"`` — the ``(U, grad)`` at the
        returned position — for the caller to pass into the next transition.
        """
        if initial_eval is not None:
            u0, grad0 = initial_eval
        else:
            u0, grad0 = yield z
        momentum = self._sample_momentum(rng, inv_mass)
        h0 = u0 + self._kinetic(momentum, inv_mass)
        z_new, r, u_new, grad = yield from self._leapfrog_gen(
            z, momentum, u0, grad0, step_size, self.num_steps, inv_mass)
        h_new = u_new + self._kinetic(r, inv_mass)
        energy_change = h_new - h0
        if not np.isfinite(energy_change):
            energy_change = float("inf")
        if energy_change <= 0.0:
            accept_prob = 1.0
        elif np.isfinite(energy_change):
            accept_prob = math.exp(-energy_change)
        else:
            accept_prob = 0.0
        divergent = energy_change > self.max_energy_change
        if divergent:
            self.divergences += 1
        accepted = rng.uniform() < accept_prob and not divergent
        z_out = z_new if accepted else z
        info = {
            "accept_prob": accept_prob,
            "accepted": accepted,
            "num_steps": self.num_steps,
            "divergent": divergent,
            "potential_energy": u_new if accepted else u0,
            "_next_eval": (u_new, grad) if accepted else (u0, grad0),
        }
        if divergent and self.record_divergences:
            info["divergence_info"] = {
                "points": [(z_new.copy(), energy_change)],
                "start": z.copy(),
                "endpoints": (z.copy(), z_new.copy()),
                "energy0": h0,
            }
        return z_out, info
