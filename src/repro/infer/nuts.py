"""The No-U-Turn Sampler (Hoffman & Gelman 2014).

This is the preferred inference method of Stan and of the Pyro/NumPyro
runtimes the paper targets; all the accuracy and speed comparisons of Tables
3–5 run NUTS on both sides.  The implementation follows the iterative
formulation with slice sampling (Algorithm 6 of the NUTS paper) and reuses the
leapfrog integrator of :class:`~repro.infer.hmc.HMC` and the step-size/mass
adaptation every chain of :class:`~repro.infer.mcmc.MCMC` applies.

Like :class:`~repro.infer.hmc.HMC`, the transition is written as a generator
that yields every point requiring a potential/gradient evaluation and never
calls the potential itself: :func:`~repro.infer.hmc.drive` advances one
generator per chain and answers each round of requests with a row loop
(``"sequential"``) or a single batched ``(chains, dim)`` evaluation
(``"vectorized"``).  Tree building therefore runs per chain without changing
the algorithm: chains whose trajectories terminate early simply stop
requesting evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.infer.hmc import HMC
from repro.infer.potential import Potential


@dataclass
class _TreeState:
    z_minus: np.ndarray
    r_minus: np.ndarray
    grad_minus: np.ndarray
    z_plus: np.ndarray
    r_plus: np.ndarray
    grad_plus: np.ndarray
    z_proposal: np.ndarray
    u_proposal: float
    grad_proposal: np.ndarray
    n_valid: int
    keep_going: bool
    sum_accept: float
    n_states: int
    n_divergent: int


class NUTS(HMC):
    """No-U-Turn sampler kernel.

    Parameters
    ----------
    potential:
        Potential-energy object for the model.
    max_tree_depth:
        Maximum doubling depth (Stan's default is 10; small models in the
        benchmark registry use smaller values to bound runtime).
    """

    def __init__(self, potential: Potential, step_size: float = 0.1, max_tree_depth: int = 10,
                 adapt_step_size: bool = True, adapt_mass_matrix: bool = True,
                 target_accept: float = 0.8, max_energy_change: float = 1000.0):
        super().__init__(
            potential,
            step_size=step_size,
            num_steps=1,
            adapt_step_size=adapt_step_size,
            adapt_mass_matrix=adapt_mass_matrix,
            target_accept=target_accept,
            max_energy_change=max_energy_change,
        )
        self.max_tree_depth = max_tree_depth

    # ------------------------------------------------------------------
    def _is_turning(self, z_minus, r_minus, z_plus, r_plus,
                    inv_mass: np.ndarray) -> bool:
        diff = z_plus - z_minus
        return (
            float(np.dot(diff, inv_mass * r_minus)) < 0.0
            or float(np.dot(diff, inv_mass * r_plus)) < 0.0
        )

    def _tree_gen(self, z, r, grad, log_slice, direction, depth, h0, rng,
                  step_size, inv_mass, div_log=None):
        """Recursive doubling as a generator; yields evaluation points."""
        if depth == 0:
            z_new, r_new, u_new, grad_new = yield from self._leapfrog_gen(
                z, r, None, grad, direction * step_size, 1, inv_mass)
            h_new = u_new + self._kinetic(r_new, inv_mass)
            if not np.isfinite(h_new):
                h_new = float("inf")
            n_valid = 1 if log_slice <= -h_new else 0
            diverging = (log_slice - 1000.0) >= -h_new
            if not np.isfinite(h_new):
                accept = 0.0
            elif h0 - h_new >= 0.0:
                accept = 1.0
            else:
                accept = math.exp(h0 - h_new)
            if diverging:
                self.divergences += 1
                if div_log is not None:
                    div_log.append((z_new.copy(), h_new - h0))
            return _TreeState(
                z_minus=z_new, r_minus=r_new, grad_minus=grad_new,
                z_plus=z_new, r_plus=r_new, grad_plus=grad_new,
                z_proposal=z_new, u_proposal=u_new, grad_proposal=grad_new,
                n_valid=n_valid,
                keep_going=not diverging, sum_accept=accept, n_states=1,
                n_divergent=int(diverging),
            )
        # Recursively build left and right subtrees.
        first = yield from self._tree_gen(z, r, grad, log_slice, direction,
                                          depth - 1, h0, rng, step_size, inv_mass,
                                          div_log)
        if not first.keep_going:
            return first
        if direction == 1:
            second = yield from self._tree_gen(first.z_plus, first.r_plus, first.grad_plus,
                                               log_slice, direction, depth - 1, h0, rng,
                                               step_size, inv_mass, div_log)
            z_minus, r_minus, grad_minus = first.z_minus, first.r_minus, first.grad_minus
            z_plus, r_plus, grad_plus = second.z_plus, second.r_plus, second.grad_plus
        else:
            second = yield from self._tree_gen(first.z_minus, first.r_minus, first.grad_minus,
                                               log_slice, direction, depth - 1, h0, rng,
                                               step_size, inv_mass, div_log)
            z_minus, r_minus, grad_minus = second.z_minus, second.r_minus, second.grad_minus
            z_plus, r_plus, grad_plus = first.z_plus, first.r_plus, first.grad_plus
        total_valid = first.n_valid + second.n_valid
        if total_valid > 0 and rng.uniform() < second.n_valid / total_valid:
            chosen = second
        else:
            chosen = first
        keep_going = (
            second.keep_going
            and not self._is_turning(z_minus, r_minus, z_plus, r_plus, inv_mass)
        )
        return _TreeState(
            z_minus=z_minus, r_minus=r_minus, grad_minus=grad_minus,
            z_plus=z_plus, r_plus=r_plus, grad_plus=grad_plus,
            z_proposal=chosen.z_proposal, u_proposal=chosen.u_proposal,
            grad_proposal=chosen.grad_proposal, n_valid=total_valid,
            keep_going=keep_going,
            sum_accept=first.sum_accept + second.sum_accept,
            n_states=first.n_states + second.n_states,
            n_divergent=first.n_divergent + second.n_divergent,
        )

    # ------------------------------------------------------------------
    def _transition_gen(self, z: np.ndarray, rng: np.random.Generator,
                        step_size: float, inv_mass: np.ndarray,
                        initial_eval=None):
        if initial_eval is not None:
            u0, grad0 = initial_eval
        else:
            u0, grad0 = yield z
        r0 = self._sample_momentum(rng, inv_mass)
        h0 = u0 + self._kinetic(r0, inv_mass)
        # Slice variable in log space: log u = log(uniform) - H0.
        log_slice = math.log(rng.uniform(1e-300, 1.0)) - h0

        z_minus = z.copy()
        z_plus = z.copy()
        r_minus = r0.copy()
        r_plus = r0.copy()
        grad_minus = grad0.copy()
        grad_plus = grad0.copy()
        z_proposal = z.copy()
        u_proposal = u0
        grad_proposal = grad0
        n_valid = 1
        sum_accept = 0.0
        n_states = 0
        n_divergent = 0
        depth = 0
        keep_going = True
        # Forensic capture of divergent leaves (positions + energy changes)
        # for the flight recorder; local to this transition so interleaved
        # chains sharing the kernel cannot mix records.
        div_log = [] if self.record_divergences else None
        while keep_going and depth < self.max_tree_depth:
            direction = 1 if rng.uniform() < 0.5 else -1
            if direction == 1:
                tree = yield from self._tree_gen(z_plus, r_plus, grad_plus, log_slice,
                                                 1, depth, h0, rng, step_size, inv_mass,
                                                 div_log)
                z_plus, r_plus, grad_plus = tree.z_plus, tree.r_plus, tree.grad_plus
            else:
                tree = yield from self._tree_gen(z_minus, r_minus, grad_minus, log_slice,
                                                 -1, depth, h0, rng, step_size, inv_mass,
                                                 div_log)
                z_minus, r_minus, grad_minus = tree.z_minus, tree.r_minus, tree.grad_minus
            if tree.keep_going and tree.n_valid > 0:
                if rng.uniform() < tree.n_valid / max(n_valid, 1):
                    z_proposal = tree.z_proposal
                    u_proposal = tree.u_proposal
                    grad_proposal = tree.grad_proposal
            n_valid += tree.n_valid
            sum_accept += tree.sum_accept
            n_states += tree.n_states
            n_divergent += tree.n_divergent
            keep_going = tree.keep_going and not self._is_turning(
                z_minus, r_minus, z_plus, r_plus, inv_mass)
            depth += 1

        accept_prob = sum_accept / max(n_states, 1)
        info = {
            "accept_prob": accept_prob,
            "accepted": not np.allclose(z_proposal, z),
            "tree_depth": depth,
            "num_steps": n_states,
            "divergent": n_divergent > 0,
            "potential_energy": u_proposal,
            "_next_eval": (u_proposal, grad_proposal),
        }
        if div_log:
            info["divergence_info"] = {
                "points": div_log,
                "start": z.copy(),
                "endpoints": (z_minus.copy(), z_plus.copy()),
                "energy0": h0,
                "tree_depth": depth,
            }
        return z_proposal, info
