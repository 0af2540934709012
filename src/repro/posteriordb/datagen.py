"""Synthetic dataset generators for the PosteriorDB-style registry.

PosteriorDB pairs each Stan model with a real dataset (earnings, kidiq,
mesquite, NES surveys, ...).  Those datasets are not redistributable/offline,
so each registry entry instead carries a generator producing a synthetic
dataset with the same schema and qualitatively similar scale (sample sizes are
reduced so the NUTS benchmarks stay laptop-sized).  The generators are
deterministic given their seed, so reference posteriors and backend runs see
the same data.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np


def coin_data(seed: int = 0, n: int = 40) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    return {"N": n, "x": rng.binomial(1, 0.7, size=n).astype(float)}


def eight_schools_data(seed: int = 0) -> Dict[str, Any]:
    # The classic eight-schools data (public domain, Rubin 1981).
    return {
        "J": 8,
        "y": np.array([28.0, 8.0, -3.0, 7.0, -1.0, 1.0, 18.0, 12.0]),
        "sigma": np.array([15.0, 10.0, 16.0, 11.0, 9.0, 11.0, 10.0, 18.0]),
    }


def earnings_data(seed: int = 0, n: int = 60) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    height = rng.normal(66.0, 4.0, size=n)
    male = rng.binomial(1, 0.5, size=n).astype(float)
    log_earn = 6.0 + 0.025 * height + 0.4 * male + rng.normal(0, 0.5, size=n)
    return {"N": n, "earn": np.exp(log_earn), "height": height, "male": male}


def kidiq_data(seed: int = 0, n: int = 60) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    mom_iq = rng.normal(100.0, 15.0, size=n)
    mom_hs = rng.binomial(1, 0.8, size=n).astype(float)
    mom_work = rng.integers(1, 5, size=n).astype(float)
    kid_score = 20.0 + 0.6 * mom_iq + 5.0 * mom_hs + rng.normal(0, 18.0, size=n)
    return {"N": n, "kid_score": kid_score, "mom_iq": mom_iq, "mom_hs": mom_hs,
            "mom_work": mom_work}


def mesquite_data(seed: int = 0, n: int = 45) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    diam1 = rng.uniform(0.8, 4.0, size=n)
    diam2 = rng.uniform(0.5, 3.0, size=n)
    canopy_height = rng.uniform(0.5, 2.5, size=n)
    weight = np.exp(0.5 + 1.2 * np.log(diam1 * diam2 * canopy_height)
                    + rng.normal(0, 0.3, size=n))
    return {"N": n, "weight": weight, "diam1": diam1, "diam2": diam2,
            "canopy_height": canopy_height}


def kilpisjarvi_data(seed: int = 0, n: int = 60) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    year = np.linspace(0.0, 1.0, n)
    temp = 2.0 + 1.5 * year + rng.normal(0, 0.8, size=n)
    return {"N": n, "x": year, "y": temp,
            "pmualpha": 2.0, "psalpha": 10.0, "pmubeta": 0.0, "psbeta": 10.0}


def blr_data(seed: int = 0, n: int = 50, d: int = 3) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    beta = rng.normal(0, 1.0, size=d)
    y = X @ beta + rng.normal(0, 0.7, size=n)
    return {"N": n, "D": d, "X": X, "y": y}


def nes_data(seed: int = 0, n: int = 80) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    income = rng.normal(0.0, 1.0, size=n)
    logits = 0.3 + 0.8 * income
    vote = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    return {"N": n, "income": income, "vote": vote}


def ar_data(seed: int = 0, t: int = 60, k: int = 2) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    coeffs = np.array([0.5, -0.3])[:k]
    y = np.zeros(t)
    for i in range(k, t):
        y[i] = 1.0 + y[i - k:i][::-1] @ coeffs + rng.normal(0, 0.5)
    return {"K": k, "T": t, "y": y}


def arma_data(seed: int = 0, t: int = 60) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    y = np.zeros(t)
    err_prev = 0.0
    for i in range(1, t):
        err = rng.normal(0, 0.5)
        y[i] = 0.5 + 0.6 * y[i - 1] + 0.3 * err_prev + err
        err_prev = err
    return {"T": t, "y": y}


def garch_data(seed: int = 0, t: int = 60) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    y = np.zeros(t)
    sigma = 1.0
    for i in range(1, t):
        sigma = np.sqrt(0.2 + 0.3 * y[i - 1] ** 2 + 0.4 * sigma ** 2)
        y[i] = 0.1 + sigma * rng.standard_normal()
    return {"T": t, "y": y, "sigma1": 1.0}


def dogs_data(seed: int = 0, n_dogs: int = 8, n_trials: int = 12) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    y = np.zeros((n_dogs, n_trials))
    for j in range(n_dogs):
        n_avoid, n_shock = 0.0, 0.0
        for t in range(n_trials):
            p = 1.0 / (1.0 + np.exp(-(1.0 - 0.3 * n_avoid + 0.1 * n_shock)))
            shock = rng.uniform() < p
            y[j, t] = float(shock)
            if shock:
                n_shock += 1
            else:
                n_avoid += 1
    return {"n_dogs": n_dogs, "n_trials": n_trials, "y": y}


def hmm_data(seed: int = 0, n: int = 40, k: int = 2) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    means = np.array([3.0, 10.0])
    states = np.zeros(n, dtype=int)
    for i in range(1, n):
        stay = rng.uniform() < 0.8
        states[i] = states[i - 1] if stay else 1 - states[i - 1]
    y = means[states] + rng.normal(0, 1.0, size=n)
    return {"N": n, "K": k, "y": y}


def gauss_mix_data(seed: int = 0, n: int = 60) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    z = rng.binomial(1, 0.4, size=n)
    y = np.where(z == 1, rng.normal(-1.5, 0.7, size=n), rng.normal(1.5, 0.7, size=n))
    return {"N": n, "y": y}


def gp_data(seed: int = 0, n: int = 20) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 10, n)
    y = np.sin(x) + rng.normal(0, 0.2, size=n)
    return {"N": n, "x": x, "y": y}


def lotka_volterra_data(seed: int = 0, n: int = 20) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    ts = np.linspace(1.0, 20.0, n)
    y = np.abs(np.stack([10 + 5 * np.sin(ts / 3), 5 + 3 * np.cos(ts / 3)], axis=1)
               + rng.normal(0, 0.5, size=(n, 2)))
    return {"N": n, "ts": ts, "y_init": np.array([10.0, 5.0]), "y": y}


def one_comp_data(seed: int = 0, n: int = 15) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.5, 10.0, n)
    y = 10.0 * np.exp(-0.3 * ts) + np.abs(rng.normal(0, 0.1, size=n))
    return {"N": n, "ts": ts, "y_obs": y}


def diamonds_data(seed: int = 0, n: int = 50) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    carat = rng.uniform(0.2, 2.0, size=n)
    price = 2.0 + 4.0 * carat + rng.normal(0, 0.8, size=n)
    return {"N": n, "price": price, "carat": carat}


def poisson_data(seed: int = 0, n: int = 50) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, size=n)
    y = rng.poisson(np.exp(0.5 + 0.7 * x))
    return {"N": n, "y": y.astype(float), "x": x}


def seeds_data(seed: int = 0, n: int = 20) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    trials = rng.integers(10, 60, size=n)
    x1 = rng.binomial(1, 0.5, size=n).astype(float)
    probs = 1.0 / (1.0 + np.exp(-(-0.5 + 1.0 * x1)))
    r = rng.binomial(trials, probs)
    return {"N": n, "n": trials.astype(float), "r": r.astype(float), "x1": x1}


def gauss_mix_enum_data(seed: int = 0, n: int = 8) -> Dict[str, Any]:
    """Two well-separated Gaussian clusters; ``n`` stays small because the
    enumerated formulation's joint assignment table is ``2 ** n``."""
    rng = np.random.default_rng(seed)
    component = rng.binomial(1, 0.4, size=n)
    y = np.where(component == 0,
                 rng.normal(-2.0, 0.7, size=n),
                 rng.normal(2.0, 0.7, size=n))
    return {"N": n, "y": y}


def zip_poisson_data(seed: int = 0, n: int = 8) -> Dict[str, Any]:
    """Occupancy-style zero-inflated counts (background rate 0.1)."""
    rng = np.random.default_rng(seed)
    active = rng.binomial(1, 0.6, size=n)
    y = rng.poisson(0.1 + active * 4.0)
    return {"N": n, "y": y.astype(float)}


def hmm_k_data(seed: int = 0, t: int = 200, k: int = 4) -> Dict[str, Any]:
    """A K-state sticky HMM at lengths only the contraction engine can run.

    The joint assignment table would hold ``k ** t`` entries (``4 ** 200`` at
    the defaults — unrepresentable); chain elimination runs it in
    ``O(T * K^2)``.  Emission means are spaced so states are identifiable;
    ``mu0`` carries the prior locations to both formulations.
    """
    rng = np.random.default_rng(seed)
    transition = np.full((k, k), 0.3 / max(k - 1, 1))
    np.fill_diagonal(transition, 0.7)
    initial = np.full(k, 1.0 / k)
    mu0 = np.linspace(-3.0, 3.0, k)
    state = rng.choice(k, p=initial)
    states, y = [], []
    for _ in range(t):
        states.append(state)
        y.append(rng.normal(mu0[state], 0.5))
        state = rng.choice(k, p=transition[state])
    return {"T": t, "K": k, "y": np.array(y), "Gamma": transition,
            "rho": initial, "mu0": mu0}


def factorial_hmm_data(seed: int = 0, t: int = 100) -> Dict[str, Any]:
    """Two coupled binary chains observed only through their summed emission.

    The joint assignment table would hold ``4 ** t`` entries (``4 ** 100``
    at the default — far beyond 10^50); the general contraction engine
    eliminates the ladder factor graph in cost linear in ``t``.
    """
    rng = np.random.default_rng(seed)
    g1 = np.array([[0.9, 0.1], [0.2, 0.8]])
    g2 = np.array([[0.7, 0.3], [0.4, 0.6]])
    rho1 = np.array([0.6, 0.4])
    rho2 = np.array([0.5, 0.5])
    mu1 = np.array([-1.0, 1.0])
    mu2 = np.array([-0.5, 0.5])
    s1 = rng.choice(2, p=rho1)
    s2 = rng.choice(2, p=rho2)
    y = []
    for _ in range(t):
        y.append(rng.normal(mu1[s1] + mu2[s2], 0.5))
        s1 = rng.choice(2, p=g1[s1])
        s2 = rng.choice(2, p=g2[s2])
    return {"T": t, "y": np.array(y), "G1": g1, "G2": g2,
            "rho1": rho1, "rho2": rho2}


def tree_mix_data(seed: int = 0, n: int = 200, coupling: float = 0.6) -> Dict[str, Any]:
    """A random tree of binary component labels with Ising-style coupling.

    ``parent[i] < i`` (1-based; ``parent[1]`` is unused), so the upward
    belief-propagation twin can sweep nodes in reverse index order.  The
    joint table would hold ``2 ** n`` rows (``2 ** 200`` at the default);
    tree elimination is linear in ``n``.
    """
    rng = np.random.default_rng(seed)
    parent = np.ones(n, dtype=int)
    for i in range(1, n):
        parent[i] = rng.integers(1, i + 1)       # uniform among earlier nodes
    # Sample labels down the tree with the flip probability implied by the
    # coupling potential, then emit around well-separated means.
    stay = np.exp(coupling) / (np.exp(coupling) + np.exp(-coupling))
    z = np.zeros(n, dtype=int)
    z[0] = rng.integers(0, 2)
    for i in range(1, n):
        same = rng.random() < stay
        z[i] = z[parent[i] - 1] if same else 1 - z[parent[i] - 1]
    mu = np.array([-2.0, 2.0])
    y = rng.normal(mu[z], 0.8)
    return {"N": n, "y": y, "parent": parent, "coupling": coupling,
            "rho": np.array([0.5, 0.5])}


def gauss_mix_enum_large_data(seed: int = 0, n: int = 500) -> Dict[str, Any]:
    """The mixture workload at a length whose joint table (``2 ** n``) is
    unrepresentable — only per-element (contract) enumeration can run it."""
    return gauss_mix_enum_data(seed=seed, n=n)


def hmm_enum_data(seed: int = 0, t: int = 6) -> Dict[str, Any]:
    """A short 2-state HMM path; enumeration sums all ``2 ** t`` paths."""
    rng = np.random.default_rng(seed)
    transition = np.array([[0.8, 0.2], [0.3, 0.7]])
    initial = np.array([0.5, 0.5])
    means = np.array([-1.0, 1.0])
    state = rng.choice(2, p=initial)
    states, y = [], []
    for _ in range(t):
        states.append(state)
        y.append(rng.normal(means[state], 0.5))
        state = rng.choice(2, p=transition[state])
    return {"T": t, "y": np.array(y), "Gamma": transition, "rho": initial}
