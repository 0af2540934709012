"""The Stan reference backend: a direct interpreter of Stan's density semantics.

This package is the "Stan" side of the paper's evaluation (the baseline every
table compares against).  It evaluates the model block exactly as Figure 3
prescribes — an imperative walk of the AST accumulating ``target`` — and runs
the same NUTS sampler on that density that the compiled backends use, so the
accuracy comparison is like-for-like while the speed comparison reflects the
interpreted-versus-compiled gap (see "Substitutions" under "Tests and
benchmarks" in README.md for how that maps onto the paper's absolute numbers).
"""

from repro.stanref.interpreter import Environment, StanInterpreter, StanRuntimeError
from repro.stanref.backend import StanModel

__all__ = [
    "Environment",
    "StanInterpreter",
    "StanRuntimeError",
    "StanModel",
]
