"""Recovering discrete posteriors after marginalized inference.

NUTS/HMC/VI run on the *marginalized* potential, so their draws cover only
the continuous parameters.  :func:`infer_discrete` is the post-pass that puts
the integers back: for every retained draw it re-evaluates the discrete
posterior conditional on that draw's continuous parameters and reads out

* ``"marginal"`` — per-element marginal probabilities (the mixture
  responsibilities), with the per-element marginal mode as the integer draw;
* ``"max"`` — the joint MAP assignment per draw (Viterbi-style);
* ``"sample"`` — one seeded exact sample from the joint assignment posterior
  per draw (the analogue of Pyro's ``infer_discrete``).

On a **contract** potential (the structured engine) the per-draw posterior is
never materialized as a joint table: isolated elements (mixture components,
zero-inflation flags) are exact categoricals, read out as one ``(n, K)``
softmax per site, and the coupled rest runs the classic trio generalized to
the elimination tree — a backward pass over the recorded elimination steps
calibrates every clique (marginals; forward-backward on a chain), max-product
with reverse-order backtracking gives the joint MAP (Viterbi), and
reverse-order conditional sampling from the sum-product cliques gives exact
joint samples (forward-filter backward-sampling) — cost bounded by the
greedy contraction cost, never the joint table.  Joint-table potentials keep
the original path (one vectorized table execution per draw, softmax over
rows).

The RNG for ``"sample"`` is derived from ``[seed, 0x454E554D]`` ("ENUM"), so
recovering discrete sites never perturbs any engine's draw streams and is
reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
from scipy import special as sps

from repro.enum.plan import EnumerationPlan

MODES = ("marginal", "max", "sample")


def discrete_rng(seed: int) -> np.random.Generator:
    """The dedicated RNG of the ``"sample"`` mode (domain-tagged stream)."""
    return np.random.default_rng([seed, 0x454E554D])


@dataclass
class DiscretePosterior:
    """Per-draw discrete posteriors recovered by :func:`infer_discrete`.

    ``draws[name]`` is a ``(num_chains, num_draws, *event_shape)`` array of
    integer-valued site draws; ``marginals[name]`` adds a trailing support
    axis ``(..., K)`` of per-element probabilities; ``support[name]`` maps the
    trailing axis back to the site's actual values.
    """

    mode: str
    draws: Dict[str, np.ndarray] = field(default_factory=dict)
    marginals: Dict[str, np.ndarray] = field(default_factory=dict)
    support: Dict[str, np.ndarray] = field(default_factory=dict)

    def mean_marginals(self) -> Dict[str, np.ndarray]:
        """Posterior-averaged marginals per site: ``(*event_shape, K)``."""
        return {name: probs.mean(axis=(0, 1))
                for name, probs in self.marginals.items()}


def _fill_contract_draw(bundle, plan: EnumerationPlan, mode: str,
                        rng: np.random.Generator,
                        values: Dict[str, np.ndarray],
                        marginals: Dict[str, np.ndarray],
                        c: int, d: int) -> None:
    """One draw's discrete posterior from a calibrated elimination tree.

    ``bundle`` is a :class:`~repro.enum.contract.ContractFactors`: one
    softmax per site for the isolated elements and a backward pass over the
    elimination steps for the coupled rest yield exact per-variable
    marginals, the joint MAP, and exact joint samples without ever forming
    the assignment table.  The ``"sample"`` RNG stream is reproducible: the
    bundle samples the isolated elements in site then element order, then
    the coupled variables in reverse elimination order, and draws are
    processed in ``(chain, draw)`` order.
    """
    marg = bundle.marginals()
    if mode == "max":
        assign = bundle.map_assignment()
    elif mode == "sample":
        assign = bundle.sample(rng)
    else:
        assign = None
    for site in plan.sites:
        name = site.name
        elems = range(max(site.numel, 1))
        flat_marg = np.stack([marg[(name, n)] for n in elems])
        if assign is None:
            picks = np.argmax(flat_marg, axis=1)
        else:
            picks = np.array([assign[(name, n)] for n in elems])
        values[name][c, d] = site.support[picks].reshape(site.event_shape)
        marginals[name][c, d] = flat_marg.reshape(
            site.event_shape + (site.cardinality,))


def infer_discrete(potential, unconstrained: np.ndarray, mode: str = "marginal",
                   seed: int = 0) -> DiscretePosterior:
    """Discrete posteriors for a batch of unconstrained continuous draws.

    Parameters
    ----------
    potential:
        An enumerated :class:`repro.infer.Potential` (``enum_plan`` set); its
        ``assignment_log_joints`` supplies the per-assignment table.
    unconstrained:
        ``(num_chains, num_draws, dim)`` (or ``(num_draws, dim)``) matrix of
        unconstrained states, e.g. ``posterior.unconstrained``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown infer_discrete mode {mode!r}; expected one of {MODES}")
    plan: Optional[EnumerationPlan] = getattr(potential, "enum_plan", None)
    if plan is None:
        raise ValueError(
            'infer_discrete needs an enumerated potential (built with enum="auto", '
            'or enum="parallel" for the joint table); this model has no '
            "discrete latent sites")
    z = np.asarray(unconstrained, dtype=float)
    if z.ndim == 2:
        z = z[None]
    if z.ndim != 3:
        raise ValueError(
            f"expected (num_chains, num_draws, dim) unconstrained states, got shape {z.shape}")
    chains, draws = z.shape[0], z.shape[1]
    rng = discrete_rng(seed)

    result = DiscretePosterior(mode=mode)
    values: Dict[str, np.ndarray] = {
        site.name: np.empty((chains, draws) + site.event_shape)
        for site in plan.sites
    }
    marginals: Dict[str, np.ndarray] = {
        site.name: np.empty((chains, draws) + site.event_shape + (site.cardinality,))
        for site in plan.sites
    }
    # Contract potentials never materialize the joint table: the backward
    # pass runs over the elimination tree on the draw's log factors instead.
    # The strategy resolves lazily, so gate on the capability and let the
    # first factorized_factors call decide (it returns None for joint-table
    # potentials, including never-evaluated ones that resolve right here).
    structured = hasattr(potential, "factorized_factors") \
        and getattr(potential, "enum_plan", None) is not None
    for c in range(chains):
        for d in range(draws):
            if structured:
                bundle = potential.factorized_factors(z[c, d])
                if bundle is not None:
                    _fill_contract_draw(bundle, plan, mode, rng, values,
                                        marginals, c, d)
                    continue
                # the potential demoted itself mid-pass; use the table
                structured = False
            log_joints = potential.assignment_log_joints(z[c, d])
            weights = np.exp(log_joints - sps.logsumexp(log_joints))
            weights /= weights.sum()
            if mode == "max":
                assignment = plan.decode(int(np.argmax(weights)))
            elif mode == "sample":
                assignment = plan.decode(int(rng.choice(plan.table_size, p=weights)))
            else:
                assignment = None
            for site in plan.sites:
                probs = plan.element_marginals(site.name, weights)
                marginals[site.name][c, d] = probs
                if assignment is not None:
                    values[site.name][c, d] = assignment[site.name]
                else:
                    # Marginal mode: per-element marginal mode (first support
                    # value wins ties, deterministically).
                    values[site.name][c, d] = site.support[np.argmax(probs, axis=-1)]

    for site in plan.sites:
        result.draws[site.name] = values[site.name]
        result.marginals[site.name] = marginals[site.name]
        result.support[site.name] = np.array(site.support)
    return result
