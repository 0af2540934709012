"""Discrete latent variables: the model class Stan forbids.

A 2-component Gaussian mixture written the natural way — with an
``int<lower=1, upper=2>`` assignment parameter per observation — compiled
with ``enum="auto"``.  The enumeration engine detects that the assignments
are conditionally independent and marginalizes them in one O(N*K) block:
the full run uses N=120 observations, whose *joint*
assignment table would hold 2^120 rows — no table-based engine could even
represent it.  NUTS runs unchanged on the continuous parameters, and
``infer_discrete`` recovers the per-observation assignment posteriors
(responsibilities) afterwards.  The hand-marginalized formulation (the
``log_sum_exp`` rewrite Stan forces on users) runs alongside to show the two
define the same continuous posterior.

Run with ``python examples/discrete_latents.py``.  Set ``REPRO_BENCH_ITERS``
to cap the iteration counts (CI smoke runs use 20).
"""

import os

import numpy as np

from repro import compile_model

ITERS = int(os.environ.get("REPRO_BENCH_ITERS", "0"))

# What Stan rejects ("parameters cannot be int"), we enumerate.
MIXTURE_ENUM = """
data {
  int N;
  real y[N];
}
parameters {
  real<lower=0, upper=1> theta;
  real mu[2];
  real<lower=0> sigma;
  int<lower=1, upper=2> z[N];
}
model {
  vector[2] pi;
  pi[1] = theta;
  pi[2] = 1 - theta;
  theta ~ beta(2, 2);
  mu[1] ~ normal(-2, 1);
  mu[2] ~ normal(2, 1);
  sigma ~ normal(0, 1);
  for (n in 1:N) {
    z[n] ~ categorical(pi);
    y[n] ~ normal(mu[z[n]], sigma);
  }
}
"""

# The same posterior, marginalized by hand (Stan's only option today).
MIXTURE_MARGINAL = """
data {
  int N;
  real y[N];
}
parameters {
  real<lower=0, upper=1> theta;
  real mu[2];
  real<lower=0> sigma;
}
model {
  vector[2] pi;
  pi[1] = theta;
  pi[2] = 1 - theta;
  theta ~ beta(2, 2);
  mu[1] ~ normal(-2, 1);
  mu[2] ~ normal(2, 1);
  sigma ~ normal(0, 1);
  for (n in 1:N)
    target += log_sum_exp(log(pi[1]) + normal_lpdf(y[n], mu[1], sigma),
                          log(pi[2]) + normal_lpdf(y[n], mu[2], sigma));
}
"""


def main() -> None:
    rng = np.random.default_rng(0)
    # Full runs use a length whose joint table (2^120) is unrepresentable;
    # the REPRO_BENCH_ITERS smoke cut keeps the size CI-friendly.
    n = 12 if ITERS else 120
    component = rng.binomial(1, 0.4, size=n)
    y = np.where(component == 0, rng.normal(-2.0, 0.7, size=n),
                 rng.normal(2.0, 0.7, size=n))
    data = {"N": n, "y": y}
    warmup = ITERS or 150
    samples = ITERS or 150

    enum_model = compile_model(MIXTURE_ENUM, enum="auto").condition(data)
    enum_fit = enum_model.fit("nuts", num_warmup=warmup, num_samples=samples, seed=0)
    marginal_fit = compile_model(MIXTURE_MARGINAL).condition(data).fit(
        "nuts", num_warmup=warmup, num_samples=samples, seed=0)

    potential = enum_model.potential(0)
    table_digits = len(str(potential.enum_plan.table_size))
    print(f"enumeration strategy : {potential.enum_strategy} "
          f"({potential.enum_metadata()['note']})")
    print(f"joint table avoided  : ~10^{table_digits - 1} assignments "
          f"(2^{n}); contraction batch: "
          f"{potential.factorization.batch_rows if potential.factorization else '-'} rows")
    for label, fit in (("enumerated", enum_fit), ("hand-marginalized", marginal_fit)):
        s = fit.posterior.summary()
        print(f"{label:>18}: mu = ({s['mu[0]']['mean']:+.2f}, {s['mu[1]']['mean']:+.2f}), "
              f"theta = {s['theta']['mean']:.2f}, sigma = {s['sigma']['mean']:.2f}")

    # The post-pass the hand-marginalized model cannot offer: per-observation
    # assignment posteriors, merged back into the Posterior.
    merged = enum_model.infer_discrete(enum_fit, mode="marginal")
    responsibilities = merged.draws["z__marginal"].mean(axis=(0, 1))
    print("per-observation responsibilities (P[z=1], P[z=2]; first 8 shown):")
    for i in range(min(n, 8)):
        print(f"  y[{i + 1}] = {y[i]:+.2f}  ->  "
              f"({responsibilities[i, 0]:.3f}, {responsibilities[i, 1]:.3f})")
    z_summary = merged.summary()["z[0]"]
    print(f"summary of z[1] (integer site): mode = {z_summary['mode']:.0f}, "
          f"p(mode) = {z_summary['p_mode']:.3f}")

    if not ITERS:
        # The two formulations define the same continuous posterior.
        enum_mu = enum_fit.posterior.get_samples()["mu"].mean(axis=0)
        marg_mu = marginal_fit.posterior.get_samples()["mu"].mean(axis=0)
        assert np.all(np.abs(enum_mu - marg_mu) < 0.15), (enum_mu, marg_mu)
        # The clusters overlap (means ±2, sd 0.7): at N=120 a few borderline
        # observations legitimately side with the other component, so the
        # check is on the fraction tracked, not every point.
        tracked = np.concatenate([responsibilities[component == 0, 0],
                                  responsibilities[component == 1, 1]])
        assert np.mean(tracked > 0.5) > 0.9, np.mean(tracked > 0.5)
        print("checks passed: enumerated == hand-marginalized posterior, "
              f"responsibilities track the generating components "
              f"({100 * np.mean(tracked > 0.5):.0f}% of {n})")


if __name__ == "__main__":
    main()
