"""Stochastic variational inference with explicit guides (Pyro-style SVI).

The DeepStan ``guide`` block (§5.1) compiles to a Python guide function; this
module optimises the guide parameters (declared with ``param``, i.e. the Stan
``guide parameters`` block) by maximising the ELBO.  The gradient estimator is
the reparameterised (pathwise) estimator whenever the guide distribution
supports ``rsample`` (Normal and its transforms), and falls back to treating
the sample as a constant otherwise — sufficient for the paper's experiments
(all guides are Gaussian families).

A fitted :class:`SVI` is a :class:`~repro.infer.vi.FittedGuide`: it has the
same result surface as the autoguide engine (``posterior``,
``posterior_draws``, ``guide_log_density``, ``psis_diagnostic``,
``diagnostics``), which runs the model and guide without arguments.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.autodiff import ops
from repro.autodiff.optim import Adam
from repro.autodiff.tensor import Tensor, as_tensor
from repro.infer.results import Posterior
from repro.infer.vi import FittedGuide
from repro.ppl import handlers, primitives

#: Half-width of the uniform perturbation added to the declared initial value
#: of each ``param`` site on first creation.
INIT_JITTER = 0.01


class _InitJitter(handlers.Messenger):
    """Deterministically jitters the initial value of *fresh* ``param`` sites.

    The jitter stream is derived from the SVI seed, so two runs with the same
    seed initialise identically while different seeds break the symmetric
    (all-zeros) starting points that can trap multimodal guides.
    """

    def __init__(self, rng: np.random.Generator):
        super().__init__()
        self.rng = rng

    def process_message(self, msg) -> None:
        if (msg["type"] == "param" and msg["value"] is None
                and msg["name"] not in primitives.get_param_store()):
            init = msg["init"]
            base = init.data if isinstance(init, Tensor) else np.asarray(init, dtype=float)
            msg["init"] = base + self.rng.uniform(-INIT_JITTER, INIT_JITTER,
                                                  size=np.shape(base))


def _values(sites) -> Dict[str, np.ndarray]:
    """The values of trace sites as float arrays."""
    return {name: np.array(site["value"].data if isinstance(site["value"], Tensor)
                           else np.asarray(site["value"]), dtype=float)
            for name, site in sites.items()}


def _log_density(sites) -> float:
    """The summed log density of trace sites at their values."""
    total = 0.0
    for site in sites.values():
        lp = site["fn"].log_prob(site["value"])
        total += float(np.sum(lp.data if isinstance(lp, Tensor) else np.asarray(lp)))
    return total


class SVI(FittedGuide):
    """Optimise guide parameters against a model with the ELBO objective.

    Parameters
    ----------
    model, guide:
        Callables using the :mod:`repro.ppl` primitives and sharing latent
        sample-site names (the guide must sample every model parameter, the
        DeepStan restriction inherited from Pyro).
    learning_rate, num_particles, seed:
        Adam step size, trace-ELBO particles per step (the loss is their
        mean), RNG seed.  Fresh ``param`` sites start at their declared value
        plus a uniform jitter of half-width :data:`INIT_JITTER`, drawn from a
        stream seeded by ``seed``.
    extra_params:
        Learnable tensors outside the param store — typically the weights of
        (non-lifted) neural networks used by the model/guide, the analogue of
        registering a module with Pyro's optimiser.
    latent_names:
        The sites ``posterior`` and ``posterior_draws`` keep (all latent
        sites when ``None``).
    """

    guide_name = "explicit"
    psis_draws = 500

    def __init__(self, model: Callable, guide: Callable, learning_rate: float = 0.01,
                 num_particles: int = 1, seed: int = 0,
                 extra_params: Optional[Sequence] = None,
                 latent_names: Optional[Sequence[str]] = None):
        self.model = model
        self.guide = guide
        self.learning_rate = learning_rate
        self.num_particles = num_particles
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.loss_history: List[float] = []
        self.extra_params = list(extra_params or [])
        self.latent_names = None if latent_names is None else list(latent_names)
        self.metadata: Dict[str, Any] = {}
        self.optimizer: Optional[Adam] = None
        self._jitter = _InitJitter(np.random.default_rng([seed, 0x1217]))
        # The param tensors as :meth:`run` left them (see _restore_params).
        self._fitted_params: Dict[str, Tensor] = {}
        self._posterior_cache: Optional[Posterior] = None

    # ------------------------------------------------------------------
    @property
    def losses(self) -> List[float]:
        """Per-step loss (negative ELBO) history recorded by :meth:`step`."""
        return self.loss_history

    @property
    def elbo_history(self) -> List[float]:
        """Per-step ELBO history (the negated loss trace)."""
        return [-loss for loss in self.loss_history]

    def _ensure_optimizer(self) -> Adam:
        params = list(primitives.get_param_store().values()) + self.extra_params
        if self.optimizer is None:
            if not params:
                raise RuntimeError("no parameters found in the param store; run a step first")
            self.optimizer = Adam(params, lr=self.learning_rate)
        else:
            for p in params:
                self.optimizer.add_param(p)
        return self.optimizer

    def _run_guide(self, rng, *args, **kwargs):
        """One execution of the guide; returns its trace."""
        tracer = handlers.trace()
        with handlers.seed(rng_seed=rng), tracer:
            self.guide(*args, **kwargs)
        return tracer.trace

    def _loss(self, *args, **kwargs) -> Tensor:
        """The negative ELBO as a differentiable scalar: the mean over
        ``num_particles`` paired guide/model traces."""
        total = as_tensor(0.0)
        for _ in range(self.num_particles):
            guide_trace = self._run_guide(self.rng, *args, **kwargs)
            model_tracer = handlers.trace()
            with handlers.seed(rng_seed=self.rng), \
                    handlers.replay(guide_trace=guide_trace), model_tracer:
                self.model(*args, **kwargs)
            log_p = handlers.trace_log_density(model_tracer.trace)
            log_q = handlers.trace_log_density(guide_trace)
            total = ops.add(total, ops.sub(log_q, log_p))
        return ops.div(total, float(self.num_particles))

    def step(self, *args, **kwargs) -> float:
        """One ELBO gradient step; returns the loss (negative ELBO) value."""
        with self._jitter:
            loss = self._loss(*args, **kwargs)
        optimizer = self._ensure_optimizer()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        optimizer.zero_grad()
        value = float(loss.data)
        self.loss_history.append(value)
        return value

    def run(self, num_steps: int, *args, **kwargs) -> "SVI":
        self._posterior_cache = None
        for _ in range(num_steps):
            self.step(*args, **kwargs)
        self._fitted_params = dict(primitives.get_param_store())
        return self

    def _restore_params(self) -> None:
        # The param store is global (Pyro's design); another fit may clear or
        # refill it.  Putting this fit's tensors back before every use of the
        # guide keeps each fitted SVI self-contained.
        primitives.get_param_store().update(self._fitted_params)

    # ------------------------------------------------------------------
    # the fitted guide
    # ------------------------------------------------------------------
    def sample_posterior(self, num_samples: int, *args,
                         site_names: Optional[Sequence[str]] = None,
                         **kwargs) -> Dict[str, np.ndarray]:
        """Draw posterior samples by running the fitted guide forward."""
        return self._sample(self.rng, num_samples, site_names, *args, **kwargs)

    def _sample(self, rng, num_samples, site_names, *args, **kwargs):
        self._restore_params()
        out: Dict[str, List[np.ndarray]] = {}
        for _ in range(num_samples):
            sites = handlers.latent_sites(self._run_guide(rng, *args, **kwargs))
            for name, value in _values(sites).items():
                if site_names is None or name in site_names:
                    out.setdefault(name, []).append(value)
        return {name: np.array(values) for name, values in out.items()}

    def _draw(self, rng, num_samples):
        # Trace-based guides have no flat unconstrained parameterisation.
        return self._sample(rng, num_samples, self.latent_names), None

    def _log_weights(self, rng, num_samples):
        self._restore_params()
        log_weights = np.empty(num_samples)
        for i in range(num_samples):
            sites = handlers.latent_sites(self._run_guide(rng))
            log_p, _ = handlers.log_density(self.model, substituted=_values(sites))
            log_weights[i] = float(log_p.data) - _log_density(sites)
        return log_weights

    def guide_log_density(self, params: Dict[str, Any]) -> float:
        """Joint guide density of one set of latent values.

        The guide runs with its sample sites substituted by ``params`` — for
        branching guides this scores the branch the substituted values select.
        """
        self._restore_params()
        with handlers.substitute(data=dict(params)):
            trace = self._run_guide(self.seed)
        return _log_density(handlers.latent_sites(trace))
