"""The "Stan" baseline: reference NUTS over the interpreted density.

:class:`StanModel` plays the role of CmdStanPy in the paper's evaluation.  It
parses a Stan program, pre-processes ``transformed data``, exposes the exact
Fig. 3 ``target`` density, and runs NUTS on the declared (constrained)
parameter space — Stan's own recipe of sampling in unconstrained space through
the declared-constraint bijections.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.autodiff.tensor import Tensor
from repro.backends import runtime as rt
from repro.core import stanlib
from repro.core.schemes import prior_for_declaration
from repro.frontend import ast
from repro.frontend.parser import parse_program
from repro.frontend.semantics import check_program
from repro.guides import AutoNormal
from repro.infer import MCMC, NUTS, Potential, VI
from repro.ppl.primitives import sample
from repro.stanref.interpreter import (
    Environment,
    ForbidProbabilistic,
    GenerativeEffects,
    StanInterpreter,
    TargetAccumulator,
)


class StanModel:
    """Reference implementation of a Stan program (interpreter + NUTS)."""

    def __init__(self, source_or_program, name: str = "model",
                 networks: Optional[Dict[str, Callable]] = None):
        if isinstance(source_or_program, ast.Program):
            self.program = source_or_program
        else:
            start = time.perf_counter()
            self.program = parse_program(str(source_or_program), name=name)
            self.parse_time_seconds = time.perf_counter() - start
        check_program(self.program)
        self.interpreter = StanInterpreter(
            functions={f.name: f for f in self.program.functions},
            networks=dict(networks or {}),
        )

    # ------------------------------------------------------------------
    # data handling
    # ------------------------------------------------------------------
    def _data_env(self, data: Dict[str, Any]) -> Environment:
        env = Environment({k: _coerce(v) for k, v in (data or {}).items()})
        # transformed data (run once, §3.3)
        handler = ForbidProbabilistic()
        for decl in self.program.transformed_data.decls:
            self.interpreter.declare(decl, env)
        self.interpreter.exec_stmts(self.program.transformed_data.stmts, env, handler)
        return env

    def parameter_declarations(self) -> List[ast.Decl]:
        return list(self.program.parameters.decls)

    # ------------------------------------------------------------------
    # the Fig. 3 density
    # ------------------------------------------------------------------
    def target(self, data: Dict[str, Any], params: Dict[str, Any]) -> float:
        """The un-normalised log density (value of ``target``) at ``params``."""
        value = self.target_tensor(data, params)
        return float(value.data) if isinstance(value, Tensor) else float(value)

    def target_tensor(self, data: Dict[str, Any], params: Dict[str, Any]):
        env = self._data_env(data)
        for name, value in params.items():
            env.values[name] = value if isinstance(value, Tensor) else _coerce(value)
        handler = TargetAccumulator()
        for decl in self.program.transformed_parameters.decls:
            self.interpreter.declare(decl, env)
        self.interpreter.exec_stmts(self.program.transformed_parameters.stmts, env, handler)
        for decl in self.program.model.decls:
            self.interpreter.declare(decl, env)
        self.interpreter.exec_stmts(self.program.model.stmts, env, handler)
        return handler.target

    # ------------------------------------------------------------------
    # generative view (priors from declarations + observe/factor effects)
    # ------------------------------------------------------------------
    def model_callable(self, data: Dict[str, Any]) -> Callable[[], Dict[str, Any]]:
        """A generative callable usable with the shared inference machinery."""
        base_env = self._data_env(data)

        def model() -> Dict[str, Any]:
            env = base_env.child()
            for decl in self.program.parameters.decls:
                prior = self._declaration_prior(decl, env)
                env.values[decl.name] = sample(decl.name, prior)
            handler = GenerativeEffects()
            for block in (self.program.transformed_parameters, self.program.model):
                for decl in block.decls:
                    self.interpreter.declare(decl, env)
                self.interpreter.exec_stmts(block.stmts, env, handler)
            return {decl.name: env.lookup(decl.name) for decl in self.program.parameters.decls}

        return model

    def _declaration_prior(self, decl: ast.Decl, env: Environment):
        dist_call = prior_for_declaration(decl)
        args = [self.interpreter.eval_expr(a, env) for a in dist_call.args]
        if dist_call.shape:
            shape = tuple(rt._int(self.interpreter.eval_expr(s, env)) for s in dist_call.shape)
            return stanlib.make_distribution(dist_call.name, *args, shape=shape)
        return stanlib.make_distribution(dist_call.name, *args)

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def potential(self, data: Dict[str, Any], rng_seed: int = 0) -> Potential:
        return Potential(self.model_callable(data), rng_seed=rng_seed, fast=False)

    def run_nuts(self, data: Dict[str, Any], num_warmup: int = 300, num_samples: int = 300,
                 num_chains: int = 1, thinning: int = 1, seed: int = 0,
                 max_tree_depth: int = 10, target_accept: float = 0.8,
                 chain_method: str = "sequential") -> MCMC:
        potential = self.potential(data, rng_seed=seed)
        kernel = NUTS(potential, max_tree_depth=max_tree_depth, target_accept=target_accept)
        mcmc = MCMC(kernel, num_warmup=num_warmup, num_samples=num_samples,
                    num_chains=num_chains, thinning=thinning, seed=seed,
                    chain_method=chain_method)
        return mcmc.run()

    def run_advi(self, data: Dict[str, Any], num_steps: int = 1000, learning_rate: float = 0.05,
                 num_samples: int = 1000, seed: int = 0) -> Dict[str, np.ndarray]:
        """Stan's ADVI: mean-field VI over the same density (Fig. 10 baseline).

        Runs the unified VI engine with the mean-field family and one ELBO
        particle — the exact (bitwise) computation of the historical ADVI
        loop.
        """
        potential = self.potential(data, rng_seed=seed)
        vi = VI(potential, guide=AutoNormal(), learning_rate=learning_rate,
                num_particles=1, seed=seed).run(num_steps)
        return vi.posterior_draws(num_samples)

    # ------------------------------------------------------------------
    # post-processing
    # ------------------------------------------------------------------
    def generated_quantities(self, data: Dict[str, Any], draws: Dict[str, np.ndarray],
                             num_draws: Optional[int] = None) -> Dict[str, np.ndarray]:
        gq_block = self.program.generated_quantities
        if gq_block.is_empty:
            return {}
        base_env = self._data_env(data)
        names = list(draws.keys())
        total = len(draws[names[0]]) if names else 0
        if num_draws is not None:
            total = min(total, num_draws)
        results: Dict[str, List[np.ndarray]] = {}
        handler = ForbidProbabilistic()
        for i in range(total):
            env = base_env.child({name: draws[name][i] for name in names})
            for block in (self.program.transformed_parameters,):
                for decl in block.decls:
                    self.interpreter.declare(decl, env)
                self.interpreter.exec_stmts(block.stmts, env, handler)
            for decl in gq_block.decls:
                self.interpreter.declare(decl, env)
            self.interpreter.exec_stmts(gq_block.stmts, env, handler)
            for decl in gq_block.decls:
                results.setdefault(decl.name, []).append(np.asarray(rt._to_value(env.lookup(decl.name)), dtype=float))
        return {key: np.array(vals) for key, vals in results.items()}


def _coerce(value):
    if isinstance(value, (int, float)):
        return value
    return np.asarray(value, dtype=float)
