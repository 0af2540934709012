"""DeepStan: the paper's extensions for deep probabilistic programming (§5).

The language-level extensions (``networks``, ``guide parameters`` and
``guide`` blocks) are handled by the frontend and the compiler; this package
provides the supporting pieces used by the §5/§6.2 experiments:

* :mod:`repro.deepstan.datasets` — the synthetic handwritten-digit substitute
  for MNIST (see "Substitutions" under "Tests and benchmarks" in README.md);
* :mod:`repro.deepstan.clustering` — KMeans and the pairwise-F1 metric used to
  evaluate VAE latent spaces (RQ5);
* :mod:`repro.deepstan.vae` — the DeepStan VAE of Figure 8 plus a hand-written
  runtime VAE for the comparison;
* :mod:`repro.deepstan.bayesian_nn` — the Bayesian MLP of Figure 9 plus its
  hand-written counterpart and the ensemble-prediction utilities.
"""

from repro.deepstan import clustering, datasets
from repro.deepstan.vae import VAE_DEEPSTAN_SOURCE, DeepStanVAE, HandWrittenVAE
from repro.deepstan.bayesian_nn import (
    BAYESIAN_MLP_SOURCE,
    DeepStanBayesianMLP,
    HandWrittenBayesianMLP,
)

__all__ = [
    "datasets",
    "clustering",
    "VAE_DEEPSTAN_SOURCE",
    "DeepStanVAE",
    "HandWrittenVAE",
    "BAYESIAN_MLP_SOURCE",
    "DeepStanBayesianMLP",
    "HandWrittenBayesianMLP",
]
