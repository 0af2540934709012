"""Bundled corpus of Stan model sources.

This is the stand-in for the two public collections the paper evaluates on —
the ``example-models`` repository (541 models, Table 1 / RQ1) and PosteriorDB
(Tables 2-5).  The models are either scaled-down transcriptions of the
models named in Table 3 (eight_schools, the kidscore/earnings/mesquite/nes
regressions, arK, arma11, garch11, dogs, hmm_example, low_dim_gauss_mix, ...)
or small models purpose-built to exercise one of the non-generative features
of Table 1 (left expressions, multiple updates, implicit priors, ``target +=``
and truncation).

Every entry is plain Stan source; the corpus benchmark compiles each of them
with all three schemes to reproduce the RQ1 generality numbers, and the
feature analyser runs over them to reproduce Table 1.
"""

from __future__ import annotations

from typing import Dict

MODELS: Dict[str, str] = {}


def register(name: str, source: str) -> str:
    MODELS[name] = source.strip() + "\n"
    return MODELS[name]


# ----------------------------------------------------------------------
# the running example (Fig. 1)
# ----------------------------------------------------------------------
register("coin", """
data {
  int N;
  int<lower=0, upper=1> x[N];
}
parameters {
  real<lower=0, upper=1> z;
}
model {
  z ~ beta(1, 1);
  for (i in 1:N)
    x[i] ~ bernoulli(z);
}
""")

register("coin_vectorized", """
data {
  int N;
  int<lower=0, upper=1> x[N];
}
parameters {
  real<lower=0, upper=1> z;
}
model {
  z ~ beta(1, 1);
  x ~ bernoulli(z);
}
""")

# ----------------------------------------------------------------------
# eight schools (centered / non-centered)
# ----------------------------------------------------------------------
register("eight_schools_centered", """
data {
  int<lower=0> J;
  real y[J];
  real<lower=0> sigma[J];
}
parameters {
  real mu;
  real<lower=0> tau;
  real theta[J];
}
model {
  mu ~ normal(0, 5);
  tau ~ cauchy(0, 5);
  theta ~ normal(mu, tau);
  y ~ normal(theta, sigma);
}
""")

register("eight_schools_noncentered", """
data {
  int<lower=0> J;
  real y[J];
  real<lower=0> sigma[J];
}
parameters {
  real mu;
  real<lower=0> tau;
  real theta_trans[J];
}
transformed parameters {
  real theta[J];
  for (j in 1:J)
    theta[j] = theta_trans[j] * tau + mu;
}
model {
  mu ~ normal(0, 5);
  tau ~ cauchy(0, 5);
  theta_trans ~ normal(0, 1);
  y ~ normal(theta, sigma);
}
""")

# ----------------------------------------------------------------------
# linear regressions (earnings / kidscore / mesquite / kilpisjarvi / blr)
# ----------------------------------------------------------------------
register("earn_height", """
data {
  int<lower=0> N;
  vector[N] earn;
  vector[N] height;
}
parameters {
  vector[2] beta;
  real<lower=0> sigma;
}
model {
  earn ~ normal(beta[1] + beta[2] * height, sigma);
}
""")

register("logearn_height", """
data {
  int<lower=0> N;
  vector[N] earn;
  vector[N] height;
}
transformed data {
  vector[N] log_earn;
  log_earn = log(earn);
}
parameters {
  vector[2] beta;
  real<lower=0> sigma;
}
model {
  log_earn ~ normal(beta[1] + beta[2] * height, sigma);
}
""")

register("logearn_height_male", """
data {
  int<lower=0> N;
  vector[N] earn;
  vector[N] height;
  vector[N] male;
}
transformed data {
  vector[N] log_earn;
  log_earn = log(earn);
}
parameters {
  vector[3] beta;
  real<lower=0> sigma;
}
model {
  log_earn ~ normal(beta[1] + beta[2] * height + beta[3] * male, sigma);
}
""")

register("logearn_logheight_male", """
data {
  int<lower=0> N;
  vector[N] earn;
  vector[N] height;
  vector[N] male;
}
transformed data {
  vector[N] log_earn;
  vector[N] log_height;
  log_earn = log(earn);
  log_height = log(height);
}
parameters {
  vector[3] beta;
  real<lower=0> sigma;
}
model {
  log_earn ~ normal(beta[1] + beta[2] * log_height + beta[3] * male, sigma);
}
""")

register("log10earn_height", """
data {
  int<lower=0> N;
  vector[N] earn;
  vector[N] height;
}
transformed data {
  vector[N] log10_earn;
  log10_earn = log(earn) / log(10.0);
}
parameters {
  vector[2] beta;
  real<lower=0> sigma;
}
model {
  log10_earn ~ normal(beta[1] + beta[2] * height, sigma);
}
""")

register("kidscore_momiq", """
data {
  int<lower=0> N;
  vector[N] kid_score;
  vector[N] mom_iq;
}
parameters {
  vector[2] beta;
  real<lower=0> sigma;
}
model {
  kid_score ~ normal(beta[1] + beta[2] * mom_iq, sigma);
}
""")

register("kidscore_momhs", """
data {
  int<lower=0> N;
  vector[N] kid_score;
  vector[N] mom_hs;
}
parameters {
  vector[2] beta;
  real<lower=0> sigma;
}
model {
  kid_score ~ normal(beta[1] + beta[2] * mom_hs, sigma);
}
""")

register("kidscore_momhsiq", """
data {
  int<lower=0> N;
  vector[N] kid_score;
  vector[N] mom_hs;
  vector[N] mom_iq;
}
parameters {
  vector[3] beta;
  real<lower=0> sigma;
}
model {
  kid_score ~ normal(beta[1] + beta[2] * mom_hs + beta[3] * mom_iq, sigma);
}
""")

register("kidscore_interaction", """
data {
  int<lower=0> N;
  vector[N] kid_score;
  vector[N] mom_hs;
  vector[N] mom_iq;
}
transformed data {
  vector[N] inter;
  inter = mom_hs .* mom_iq;
}
parameters {
  vector[4] beta;
  real<lower=0> sigma;
}
model {
  kid_score ~ normal(beta[1] + beta[2] * mom_hs + beta[3] * mom_iq + beta[4] * inter, sigma);
}
""")

register("kidscore_mom_work", """
data {
  int<lower=0> N;
  vector[N] kid_score;
  vector[N] mom_work;
}
parameters {
  vector[2] beta;
  real<lower=0> sigma;
}
model {
  kid_score ~ normal(beta[1] + beta[2] * mom_work, sigma);
}
""")

register("mesquite", """
data {
  int<lower=0> N;
  vector[N] weight;
  vector[N] diam1;
  vector[N] diam2;
  vector[N] canopy_height;
}
parameters {
  vector[4] beta;
  real<lower=0> sigma;
}
model {
  weight ~ normal(beta[1] + beta[2] * diam1 + beta[3] * diam2 + beta[4] * canopy_height, sigma);
}
""")

register("logmesquite_logvas", """
data {
  int<lower=0> N;
  vector[N] weight;
  vector[N] diam1;
  vector[N] diam2;
  vector[N] canopy_height;
}
transformed data {
  vector[N] log_weight;
  vector[N] log_canopy_volume;
  vector[N] log_canopy_area;
  log_weight = log(weight);
  log_canopy_volume = log(diam1 .* diam2 .* canopy_height);
  log_canopy_area = log(diam1 .* diam2);
}
parameters {
  vector[3] beta;
  real<lower=0> sigma;
}
model {
  log_weight ~ normal(beta[1] + beta[2] * log_canopy_volume + beta[3] * log_canopy_area, sigma);
}
""")

register("kilpisjarvi", """
data {
  int<lower=0> N;
  vector[N] x;
  vector[N] y;
  real pmualpha;
  real psalpha;
  real pmubeta;
  real psbeta;
}
parameters {
  real alpha;
  real beta;
  real<lower=0> sigma;
}
model {
  alpha ~ normal(pmualpha, psalpha);
  beta ~ normal(pmubeta, psbeta);
  y ~ normal(alpha + beta * x, sigma);
}
""")

register("blr", """
data {
  int<lower=0> N;
  int<lower=0> D;
  matrix[N, D] X;
  vector[N] y;
}
parameters {
  vector[D] beta;
  real<lower=0> sigma;
}
model {
  beta ~ normal(0, 10);
  sigma ~ normal(0, 10);
  y ~ normal(X * beta, sigma);
}
""")

# ----------------------------------------------------------------------
# logistic regression (nes)
# ----------------------------------------------------------------------
register("nes_logit", """
data {
  int<lower=0> N;
  vector[N] income;
  int<lower=0, upper=1> vote[N];
}
parameters {
  vector[2] beta;
}
model {
  vote ~ bernoulli_logit(beta[1] + beta[2] * income);
}
""")

# ----------------------------------------------------------------------
# time series (arK, arma11, garch11)
# ----------------------------------------------------------------------
register("arK", """
data {
  int<lower=0> K;
  int<lower=0> T;
  real y[T];
}
parameters {
  real alpha;
  real beta[K];
  real<lower=0> sigma;
}
model {
  alpha ~ normal(0, 10);
  beta ~ normal(0, 10);
  sigma ~ cauchy(0, 2.5);
  for (t in (K+1):T) {
    real mu;
    mu = alpha;
    for (k in 1:K)
      mu = mu + beta[k] * y[t - k];
    y[t] ~ normal(mu, sigma);
  }
}
""")

register("arma11", """
data {
  int<lower=1> T;
  real y[T];
}
parameters {
  real mu;
  real phi;
  real theta;
  real<lower=0> sigma;
}
model {
  real err;
  mu ~ normal(0, 10);
  phi ~ normal(0, 2);
  theta ~ normal(0, 2);
  sigma ~ cauchy(0, 5);
  err = y[1] - mu + phi * mu;
  err ~ normal(0, sigma);
  for (t in 2:T) {
    err = y[t] - (mu + phi * y[t - 1] + theta * err);
    err ~ normal(0, sigma);
  }
}
""")

register("garch11", """
data {
  int<lower=0> T;
  real y[T];
  real<lower=0> sigma1;
}
parameters {
  real mu;
  real<lower=0> alpha0;
  real<lower=0, upper=1> alpha1;
  real<lower=0, upper=1> beta1;
}
model {
  real sigma_t;
  sigma_t = sigma1;
  for (t in 2:T) {
    sigma_t = sqrt(alpha0 + alpha1 * square(y[t - 1] - mu) + beta1 * square(sigma_t));
    y[t] ~ normal(mu, sigma_t);
  }
}
""")

# ----------------------------------------------------------------------
# dogs (logistic learning model, nested loops)
# ----------------------------------------------------------------------
register("dogs", """
data {
  int<lower=0> n_dogs;
  int<lower=0> n_trials;
  int<lower=0, upper=1> y[n_dogs, n_trials];
}
parameters {
  vector[3] beta;
}
model {
  beta ~ normal(0, 100);
  for (j in 1:n_dogs) {
    real n_avoid;
    real n_shock;
    n_avoid = 0;
    n_shock = 0;
    for (t in 1:n_trials) {
      real p;
      p = beta[1] + beta[2] * n_avoid + beta[3] * n_shock;
      y[j, t] ~ bernoulli_logit(p);
      if (y[j, t] > 0.5)
        n_shock = n_shock + 1;
      else
        n_avoid = n_avoid + 1;
    }
  }
}
""")

register("dogs_log", """
data {
  int<lower=0> n_dogs;
  int<lower=0> n_trials;
  int<lower=0, upper=1> y[n_dogs, n_trials];
}
parameters {
  real<lower=0, upper=1> beta1;
  real<lower=0, upper=1> beta2;
}
model {
  for (j in 1:n_dogs) {
    real n_avoid;
    real n_shock;
    n_avoid = 0;
    n_shock = 0;
    for (t in 1:n_trials) {
      real p;
      p = fmin(0.9999, fmax(0.0001, beta1 ^ n_avoid * beta2 ^ n_shock));
      y[j, t] ~ bernoulli(p);
      if (y[j, t] > 0.5)
        n_shock = n_shock + 1;
      else
        n_avoid = n_avoid + 1;
    }
  }
}
""")

# ----------------------------------------------------------------------
# hidden Markov model (forward algorithm)
# ----------------------------------------------------------------------
register("hmm_example", """
data {
  int<lower=1> N;
  int<lower=1> K;
  real y[N];
}
parameters {
  simplex[K] theta[K];
  real mu[K];
}
model {
  real acc[K];
  real gamma[N, K];
  mu[1] ~ normal(3, 1);
  mu[2] ~ normal(10, 1);
  for (k in 1:K)
    gamma[1, k] = normal_lpdf(y[1], mu[k], 1);
  for (t in 2:N) {
    for (k in 1:K) {
      for (j in 1:K)
        acc[j] = gamma[t - 1, j] + log(theta[j, k]) + normal_lpdf(y[t], mu[k], 1);
      gamma[t, k] = log_sum_exp(acc);
    }
  }
  target += log_sum_exp(gamma[N]);
}
""")

# ----------------------------------------------------------------------
# mixtures (multimodal example of Fig. 10, low_dim_gauss_mix)
# ----------------------------------------------------------------------
register("multimodal", """
parameters {
  real cluster;
  real theta;
}
model {
  real mu;
  cluster ~ normal(0, 1);
  if (cluster > 0)
    mu = 20;
  else
    mu = 0;
  theta ~ normal(mu, 1);
}
""")

register("multimodal_guide", """
parameters {
  real cluster;
  real theta;
}
model {
  real mu;
  cluster ~ normal(0, 1);
  if (cluster > 0)
    mu = 20;
  else
    mu = 0;
  theta ~ normal(mu, 1);
}
guide parameters {
  real m1;
  real m2;
  real<lower=0> s1;
  real<lower=0> s2;
}
guide {
  cluster ~ normal(0, 1);
  if (cluster > 0)
    theta ~ normal(m1, s1);
  else
    theta ~ normal(m2, s2);
}
""")

register("low_dim_gauss_mix", """
data {
  int<lower=0> N;
  real y[N];
}
parameters {
  ordered[2] mu;
  real<lower=0> sigma[2];
  real<lower=0, upper=1> theta;
}
model {
  sigma ~ normal(0, 2);
  mu ~ normal(0, 2);
  theta ~ beta(5, 5);
  for (n in 1:N)
    target += log_sum_exp(log(theta) + normal_lpdf(y[n], mu[1], sigma[1]),
                          log(1 - theta) + normal_lpdf(y[n], mu[2], sigma[2]));
}
""")

# ----------------------------------------------------------------------
# models the backends cannot support (error rows of Tables 2-4)
# ----------------------------------------------------------------------
register("gp_regr", """
data {
  int<lower=1> N;
  real x[N];
  vector[N] y;
}
parameters {
  real<lower=0> rho;
  real<lower=0> alpha;
  real<lower=0> sigma;
}
model {
  matrix[N, N] cov;
  cov = cov_exp_quad(x, alpha, rho);
  rho ~ gamma(25, 4);
  alpha ~ normal(0, 2);
  sigma ~ normal(0, 1);
  y ~ multi_normal(rep_vector(0, N), cov);
}
""")

register("accel_gp", """
data {
  int<lower=1> N;
  real x[N];
  vector[N] y;
}
parameters {
  real<lower=0> rho;
  real<lower=0> alpha;
  real<lower=0> sigma;
}
model {
  matrix[N, N] cov;
  cov = cov_exp_quad(x, alpha, rho);
  y ~ multi_normal(rep_vector(0, N), cov);
}
""")

register("lotka_volterra", """
functions {
  real[] dz_dt(real t, real[] z, real[] theta) {
    real u;
    real v;
    u = z[1];
    v = z[2];
    return { (theta[1] - theta[2] * v) * u, (-theta[3] + theta[4] * u) * v };
  }
}
data {
  int<lower=0> N;
  real ts[N];
  real y_init[2];
  real y[N, 2];
}
parameters {
  real<lower=0> theta[4];
  real<lower=0> z_init[2];
  real<lower=0> sigma[2];
}
model {
  real z[N, 2];
  z = integrate_ode_rk45(dz_dt, z_init, 0, ts, theta);
  for (k in 1:2) {
    y_init[k] ~ lognormal(log(z_init[k]), sigma[k]);
    for (n in 1:N)
      y[n, k] ~ lognormal(log(z[n, k]), sigma[k]);
  }
}
""")

register("one_comp_mm_elim_abs", """
functions {
  real[] one_comp(real t, real[] y, real[] theta) {
    return { -theta[1] * y[1] / (theta[2] + y[1]) };
  }
}
data {
  int<lower=0> N;
  real ts[N];
  real y_obs[N];
}
parameters {
  real<lower=0> theta[2];
  real<lower=0> sigma;
}
model {
  real y_hat[N, 1];
  real y0[1];
  y0[1] = 10;
  y_hat = integrate_ode_bdf(one_comp, y0, 0, ts, theta);
  for (n in 1:N)
    y_obs[n] ~ lognormal(log(y_hat[n, 1]), sigma);
}
""")

register("diamonds", """
data {
  int<lower=0> N;
  vector[N] price;
  vector[N] carat;
}
parameters {
  real alpha;
  real beta;
  real<lower=0> sigma;
}
model {
  alpha ~ student_t(3, 8, 10);
  beta ~ normal(0, 1);
  sigma ~ student_t(3, 0, 10);
  target += student_t_lccdf(0, 3, 0, 10);
  price ~ normal(alpha + beta * carat, sigma);
}
""")

# ----------------------------------------------------------------------
# Table 1 feature exemplars
# ----------------------------------------------------------------------
register("left_expression_example", """
data {
  int<lower=0> N;
  vector[N] y;
}
parameters {
  vector[N] phi;
}
model {
  sum(phi) ~ normal(0, 0.001 * N);
  y ~ normal(phi, 1);
}
""")

register("multiple_updates_example", """
data {
  int<lower=0> N;
  vector[N] y;
  real<lower=0> sigma_py;
  real<lower=0> sigma_pt;
}
parameters {
  real phi_y;
}
model {
  phi_y ~ normal(0, sigma_py);
  phi_y ~ normal(0, sigma_pt);
  y ~ normal(phi_y, 1);
}
""")

register("implicit_prior_example", """
data {
  int<lower=0> N;
  vector[N] y;
  vector[N] x;
}
parameters {
  real alpha0;
  real beta0;
  real<lower=0> sigma;
}
model {
  /* missing 'alpha0 ~ ...' and 'beta0 ~ ...' */
  y ~ normal(alpha0 + beta0 * x, sigma);
}
""")

register("target_update_example", """
data {
  int<lower=0> N;
  vector[N] y;
}
parameters {
  real mu;
}
model {
  target += normal_lpdf(mu, 0, 10);
  target += normal_lpdf(y, mu, 1);
}
""")

register("truncation_example", """
data {
  int<lower=0> N;
  real y[N];
}
parameters {
  real mu;
  real<lower=0> sigma;
}
model {
  mu ~ normal(0, 10);
  for (n in 1:N)
    y[n] ~ normal(mu, sigma) T[0, ];
}
""")

register("out_of_order_example", """
data {
  int<lower=0> N;
  vector[N] z;
}
parameters {
  real x;
  real y;
}
model {
  y ~ normal(x, 1);
  x ~ normal(0, 1);
  z ~ normal(y, 1);
}
""")

register("mixed_merge_example", """
data {
  int<lower=0> N;
  vector[N] y;
}
parameters {
  real mu;
  real<lower=0> sigma;
}
model {
  mu ~ normal(0, 10);
  sigma ~ normal(0, 1);
  y ~ normal(mu, sigma);
}
""")

register("poisson_counts", """
data {
  int<lower=0> N;
  int<lower=0> y[N];
  vector[N] x;
}
parameters {
  real alpha;
  real beta;
}
model {
  alpha ~ normal(0, 5);
  beta ~ normal(0, 5);
  y ~ poisson_log(alpha + beta * x);
}
""")

register("gamma_regression", """
data {
  int<lower=0> N;
  vector[N] y;
  vector[N] x;
}
parameters {
  real alpha;
  real beta;
  real<lower=0> shape;
}
model {
  alpha ~ normal(0, 5);
  beta ~ normal(0, 5);
  shape ~ exponential(1);
  y ~ gamma(shape, shape ./ exp(alpha + beta * x));
}
""")

register("seeds_binomial", """
data {
  int<lower=0> N;
  int<lower=0> n[N];
  int<lower=0> r[N];
  vector[N] x1;
}
parameters {
  real alpha0;
  real alpha1;
}
model {
  alpha0 ~ normal(0, 10);
  alpha1 ~ normal(0, 10);
  r ~ binomial_logit(n, alpha0 + alpha1 * x1);
}
""")

register("categorical_softmax", """
data {
  int<lower=1> N;
  int<lower=1> K;
  int<lower=1> y[N];
}
parameters {
  vector[K] beta;
}
model {
  beta ~ normal(0, 5);
  for (n in 1:N)
    y[n] ~ categorical_logit(beta);
}
""")

register("dirichlet_multinomial", """
data {
  int<lower=1> K;
  int<lower=0> y[K];
}
parameters {
  simplex[K] theta;
}
model {
  theta ~ dirichlet(rep_vector(1.0, K));
  for (k in 1:K)
    target += y[k] * log(theta[k]);
}
""")

register("while_loop_example", """
data {
  int<lower=0> N;
  vector[N] y;
}
parameters {
  real mu;
}
model {
  int i;
  mu ~ normal(0, 5);
  i = 1;
  while (i <= N) {
    y[i] ~ normal(mu, 1);
    i = i + 1;
  }
}
""")

register("user_function_example", """
functions {
  real linear_combination(real a, real b, real x) {
    return a + b * x;
  }
}
data {
  int<lower=0> N;
  vector[N] y;
  vector[N] x;
}
parameters {
  real alpha;
  real beta;
  real<lower=0> sigma;
}
model {
  alpha ~ normal(0, 5);
  beta ~ normal(0, 5);
  sigma ~ cauchy(0, 2);
  for (n in 1:N)
    y[n] ~ normal(linear_combination(alpha, beta, x[n]), sigma);
}
""")

register("generated_quantities_example", """
data {
  int<lower=0> N;
  vector[N] y;
}
parameters {
  real mu;
  real<lower=0> sigma;
}
model {
  mu ~ normal(0, 10);
  sigma ~ cauchy(0, 5);
  y ~ normal(mu, sigma);
}
generated quantities {
  real y_pred;
  real log_lik;
  y_pred = normal_rng(mu, sigma);
  log_lik = normal_lpdf(y, mu, sigma);
}
""")

# ----------------------------------------------------------------------
# discrete latent variables (the enumeration engine's flagship workloads)
#
# Stan itself rejects every model in this group: they declare bounded `int`
# parameters.  They compile with `enum="parallel"`, which marginalizes
# the discrete latents exactly.  The mixture and ZIP models have a
# hand-marginalized `_marginal` counterpart (the formulation Stan forces on
# users) defining the same posterior over the continuous parameters, used by
# the equivalence tests and BENCH_discrete; the HMM is instead checked
# against an independent forward-algorithm computation in the tests.
# ----------------------------------------------------------------------
register("gauss_mix_enum", """
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
""")

register("gauss_mix_marginal", """
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
""")

register("zip_poisson_enum", """
data {
  int N;
  int y[N];
}
parameters {
  real<lower=0, upper=1> psi;
  real<lower=0> lam;
  int<lower=0, upper=1> z[N];
}
model {
  psi ~ beta(1, 1);
  lam ~ gamma(2, 0.5);
  for (n in 1:N) {
    z[n] ~ bernoulli(psi);
    y[n] ~ poisson(0.1 + z[n] * lam);
  }
}
""")

register("zip_poisson_marginal", """
data {
  int N;
  int y[N];
}
parameters {
  real<lower=0, upper=1> psi;
  real<lower=0> lam;
}
model {
  psi ~ beta(1, 1);
  lam ~ gamma(2, 0.5);
  for (n in 1:N)
    target += log_sum_exp(log(psi) + poisson_lpmf(y[n], 0.1 + lam),
                          log1m(psi) + poisson_lpmf(y[n], 0.1));
}
""")

register("hmm_enum", """
data {
  int T;
  real y[T];
  matrix[2, 2] Gamma;
  vector[2] rho;
}
parameters {
  real mu[2];
  int<lower=1, upper=2> z[T];
}
model {
  mu[1] ~ normal(-1, 1);
  mu[2] ~ normal(1, 1);
  z[1] ~ categorical(rho);
  for (t in 2:T)
    z[t] ~ categorical(Gamma[z[t - 1]]);
  for (t in 1:T)
    y[t] ~ normal(mu[z[t]], 0.5);
}
""")

register("hmm_marginal", """
data {
  int T;
  real y[T];
  matrix[2, 2] Gamma;
  vector[2] rho;
}
parameters {
  real mu[2];
}
model {
  vector[2] alpha;
  vector[2] alpha_new;
  mu[1] ~ normal(-1, 1);
  mu[2] ~ normal(1, 1);
  for (k in 1:2)
    alpha[k] = log(rho[k]) + normal_lpdf(y[1], mu[k], 0.5);
  for (t in 2:T) {
    for (k in 1:2)
      alpha_new[k] = log_sum_exp(alpha[1] + log(Gamma[1, k]),
                                 alpha[2] + log(Gamma[2, k]))
                     + normal_lpdf(y[t], mu[k], 0.5);
    alpha = alpha_new;
  }
  target += log_sum_exp(alpha);
}
""")

# K-state HMM pair, size-generic in both T and K: the enumerated formulation
# writes the model the obvious way (int state path, categorical transitions);
# the marginal twin is the hand-written forward algorithm the paper's users
# had to produce — a triple nested loop of log_sum_exp algebra.  The
# contraction engine detects the chain coupling z[t] ~ f(z[t-1]) and
# eliminates it in O(T*K^2); the joint table would hold K^T entries.
register("hmm_k_enum", """
data {
  int T;
  int K;
  real y[T];
  matrix[K, K] Gamma;
  vector[K] rho;
  vector[K] mu0;
}
parameters {
  real mu[K];
  int<lower=1, upper=K> z[T];
}
model {
  for (k in 1:K)
    mu[k] ~ normal(mu0[k], 1);
  z[1] ~ categorical(rho);
  for (t in 2:T)
    z[t] ~ categorical(Gamma[z[t - 1]]);
  for (t in 1:T)
    y[t] ~ normal(mu[z[t]], 0.5);
}
""")

register("hmm_k_marginal", """
data {
  int T;
  int K;
  real y[T];
  matrix[K, K] Gamma;
  vector[K] rho;
  vector[K] mu0;
}
parameters {
  real mu[K];
}
model {
  vector[K] alpha;
  vector[K] alpha_new;
  vector[K] acc;
  for (k in 1:K)
    mu[k] ~ normal(mu0[k], 1);
  for (k in 1:K)
    alpha[k] = log(rho[k]) + normal_lpdf(y[1], mu[k], 0.5);
  for (t in 2:T) {
    for (k in 1:K) {
      for (j in 1:K)
        acc[j] = alpha[j] + log(Gamma[j, k]);
      alpha_new[k] = log_sum_exp(acc) + normal_lpdf(y[t], mu[k], 0.5);
    }
    alpha = alpha_new;
  }
  target += log_sum_exp(alpha);
}
""")

# Multi-site coupled workloads for the general contraction engine
# (enum="auto"): discrete structure no chain or independent-block
# special case covers.  The factorial HMM couples TWO latent chains through a
# joint emission — its factor graph is a ladder (treewidth 2), eliminated by
# the greedy contraction order in O(T * K^3)-ish message sizes while the
# joint table would hold (K*K)^T entries.  The marginal twin is the forward
# algorithm on the K^2-state product chain (the algebra Stan forces).  Note
# the enumerated formulation's density differs from the twin's by the
# constant the bounded-int declarations contribute (uniform support priors),
# so comparisons are posterior-level (or gradient-level), like the HMM pair.
register("factorial_hmm_enum", """
data {
  int T;
  real y[T];
  matrix[2, 2] G1;
  matrix[2, 2] G2;
  vector[2] rho1;
  vector[2] rho2;
}
parameters {
  real mu1[2];
  real mu2[2];
  int<lower=1, upper=2> z1[T];
  int<lower=1, upper=2> z2[T];
}
model {
  mu1[1] ~ normal(-1, 1);
  mu1[2] ~ normal(1, 1);
  mu2[1] ~ normal(-0.5, 1);
  mu2[2] ~ normal(0.5, 1);
  z1[1] ~ categorical(rho1);
  z2[1] ~ categorical(rho2);
  for (t in 2:T) {
    z1[t] ~ categorical(G1[z1[t - 1]]);
    z2[t] ~ categorical(G2[z2[t - 1]]);
  }
  for (t in 1:T)
    y[t] ~ normal(mu1[z1[t]] + mu2[z2[t]], 0.5);
}
""")

register("factorial_hmm_marginal", """
data {
  int T;
  real y[T];
  matrix[2, 2] G1;
  matrix[2, 2] G2;
  vector[2] rho1;
  vector[2] rho2;
}
parameters {
  real mu1[2];
  real mu2[2];
}
model {
  vector[4] alpha;
  vector[4] alpha_new;
  vector[4] acc;
  mu1[1] ~ normal(-1, 1);
  mu1[2] ~ normal(1, 1);
  mu2[1] ~ normal(-0.5, 1);
  mu2[2] ~ normal(0.5, 1);
  for (i in 1:2)
    for (j in 1:2)
      alpha[2 * (i - 1) + j] = log(rho1[i]) + log(rho2[j])
                               + normal_lpdf(y[1], mu1[i] + mu2[j], 0.5);
  for (t in 2:T) {
    for (i in 1:2) {
      for (j in 1:2) {
        for (a in 1:2)
          for (b in 1:2)
            acc[2 * (a - 1) + b] = alpha[2 * (a - 1) + b]
                                   + log(G1[a, i]) + log(G2[b, j]);
        alpha_new[2 * (i - 1) + j] = log_sum_exp(acc)
                                     + normal_lpdf(y[t], mu1[i] + mu2[j], 0.5);
      }
    }
    alpha = alpha_new;
  }
  target += log_sum_exp(alpha);
}
""")

# Tree-coupled mixture: component labels interact along a data-supplied tree
# (parent[i] < i, parent[1] unused) through an Ising-style coupling term.
# The factor graph is the tree itself — the greedy order eliminates leaves
# upward in O(N * K^2) — while chains/independent blocks cannot represent it
# and the joint table would hold K^N rows.  The marginal twin is upward
# belief propagation written as log_sum_exp algebra over two per-state
# message vectors.
register("tree_mix_enum", """
data {
  int N;
  real y[N];
  int parent[N];
  real coupling;
  vector[2] rho;
}
parameters {
  real mu[2];
  int<lower=1, upper=2> z[N];
}
model {
  mu[1] ~ normal(-2, 1);
  mu[2] ~ normal(2, 1);
  for (i in 1:N) {
    z[i] ~ categorical(rho);
    y[i] ~ normal(mu[z[i]], 0.8);
  }
  for (i in 2:N)
    target += coupling * (2 * z[i] - 3) * (2 * z[parent[i]] - 3);
}
""")

register("tree_mix_marginal", """
data {
  int N;
  real y[N];
  int parent[N];
  real coupling;
  vector[2] rho;
}
parameters {
  real mu[2];
}
model {
  vector[N] lam1;
  vector[N] lam2;
  real m1;
  real m2;
  mu[1] ~ normal(-2, 1);
  mu[2] ~ normal(2, 1);
  for (i in 1:N) {
    lam1[i] = log(rho[1]) + normal_lpdf(y[i], mu[1], 0.8);
    lam2[i] = log(rho[2]) + normal_lpdf(y[i], mu[2], 0.8);
  }
  for (r in 1:(N - 1)) {
    m1 = log_sum_exp(lam1[N + 1 - r] + coupling, lam2[N + 1 - r] - coupling);
    m2 = log_sum_exp(lam1[N + 1 - r] - coupling, lam2[N + 1 - r] + coupling);
    lam1[parent[N + 1 - r]] += m1;
    lam2[parent[N + 1 - r]] += m2;
  }
  target += log_sum_exp(lam1[1], lam2[1]);
}
""")

register("transformed_data_example", """
data {
  int<lower=0> N;
  vector[N] y;
}
transformed data {
  real mean_y;
  real<lower=0> sd_y;
  mean_y = mean(y);
  sd_y = sd(y);
}
parameters {
  real mu_std;
}
model {
  mu_std ~ normal(0, 1);
  y ~ normal(mean_y + sd_y * mu_std, sd_y);
}
""")


def get(name: str) -> str:
    """Source text of a corpus model."""
    return MODELS[name]


def names():
    """All registered corpus model names (sorted)."""
    return sorted(MODELS)
