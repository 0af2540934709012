"""Semantic checks over the parsed program (the Stanc3 "semantic check" stage).

RQ1 of the paper reports that Stanc3 semantic checks reject 10 of the 541
example models before the backends even run; this module provides the
equivalent gate for our pipeline.  The checks are deliberately scoped to what
the compilation schemes rely on:

* every variable used is declared (data, parameters, transformed blocks,
  local declarations, loop indices, function arguments, networks);
* parameters are not assigned in the model block (Stan forbids it, and
  Lemma 3.1 of the paper depends on it);
* ``target`` is only accessed through ``target +=`` (Assumption 2);
* observed data never appears on the left of an assignment;
* declared types pass basic well-formedness (``int`` parameters are rejected
  like Stan does on the default path, and admitted as bounded discrete
  latents when the enumeration engine is enabled — see
  :func:`check_program`'s ``allow_int_parameters``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.frontend import ast

# Functions from the Stan standard library and common math builtins; used to
# avoid reporting calls as undefined variables.  This is a whitelist for error
# messages only — unknown functions are reported at code-generation time.
BUILTIN_FUNCTIONS = {
    "abs", "fabs", "fmin", "fmax", "min", "max", "sum", "prod", "mean", "sd",
    "variance", "log", "log1p", "log1m", "log10", "log2", "exp", "expm1",
    "sqrt", "square", "pow", "inv", "inv_sqrt", "inv_logit", "logit", "cbrt",
    "erf", "erfc", "phi", "Phi", "Phi_approx", "tgamma", "lgamma", "digamma",
    "lmgamma", "lbeta", "binomial_coefficient_log", "choose", "bessel_first_kind",
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh",
    "floor", "ceil", "round", "trunc", "fmod", "fdim", "step", "int_step",
    "is_inf", "is_nan", "fma", "multiply_log", "lmultiply",
    "dot_product", "dot_self", "columns_dot_product", "rows_dot_product",
    "rep_vector", "rep_row_vector", "rep_matrix", "rep_array",
    "rows", "cols", "num_elements", "size", "dims",
    "col", "row", "block", "sub_col", "sub_row", "head", "tail", "segment",
    "append_col", "append_row", "append_array", "to_vector", "to_row_vector",
    "to_matrix", "to_array_1d", "to_array_2d", "diag_matrix", "diagonal",
    "diag_pre_multiply", "diag_post_multiply", "quad_form", "quad_form_diag",
    "crossprod", "tcrossprod", "multiply_lower_tri_self_transpose",
    "cholesky_decompose", "inverse", "transpose", "determinant", "log_determinant",
    "mdivide_left_tri_low", "mdivide_right_tri_low", "mdivide_left", "mdivide_right",
    "softmax", "log_softmax", "log_sum_exp", "cumulative_sum", "sort_asc",
    "sort_desc", "sort_indices_asc", "sort_indices_desc", "rank", "reverse",
    "inv_cloglog", "cloglog", "expit",
    "cov_exp_quad", "distance", "squared_distance",
    "machine_precision", "positive_infinity", "negative_infinity", "not_a_number",
    "e", "pi", "sqrt2", "log2", "log10",
    "integrate_ode_rk45", "integrate_ode_bdf", "ode_rk45", "ode_bdf",
    "logistic_sigmoid",
}

DISTRIBUTION_SUFFIXES = ("_lpdf", "_lpmf", "_lcdf", "_lccdf", "_cdf", "_rng", "_log")


class SemanticError(Exception):
    """Raised when a program fails the semantic checks."""


@dataclass
class SymbolInfo:
    name: str
    kind: str  # data, transformed_data, parameter, transformed_parameter,
    #            generated_quantity, local, loop_index, guide_parameter, network, function
    decl: Optional[ast.Decl] = None


@dataclass
class SymbolTable:
    """Flat symbol table with block-kind tagging."""

    symbols: Dict[str, SymbolInfo] = field(default_factory=dict)

    def declare(self, name: str, kind: str, decl: Optional[ast.Decl] = None,
                allow_redeclare: bool = False) -> None:
        if name in self.symbols and not allow_redeclare:
            raise SemanticError(f"variable {name!r} declared more than once")
        self.symbols[name] = SymbolInfo(name=name, kind=kind, decl=decl)

    def __contains__(self, name: str) -> bool:
        return name in self.symbols

    def kind_of(self, name: str) -> Optional[str]:
        info = self.symbols.get(name)
        return info.kind if info else None

    def of_kind(self, *kinds: str) -> List[SymbolInfo]:
        return [info for info in self.symbols.values() if info.kind in kinds]


def build_symbol_table(program: ast.Program) -> SymbolTable:
    """Collect all block-level declarations of a program."""
    table = SymbolTable()
    for func in program.functions:
        table.declare(func.name, "function")
    for net in program.networks:
        table.declare(net.name, "network")
    block_kinds = [
        (program.data, "data"),
        (program.transformed_data, "transformed_data"),
        (program.parameters, "parameter"),
        (program.transformed_parameters, "transformed_parameter"),
        (program.model, "model_local"),
        (program.generated_quantities, "generated_quantity"),
        (program.guide_parameters, "guide_parameter"),
        (program.guide, "guide_local"),
    ]
    for block, kind in block_kinds:
        for decl in block.decls:
            table.declare(decl.name, kind)
            if kind == "parameter":
                table.symbols[decl.name].decl = decl
            else:
                table.symbols[decl.name].decl = decl
    return table


def _lhs_base_name(expr: ast.Expr) -> Optional[str]:
    if isinstance(expr, ast.Variable):
        return expr.name
    if isinstance(expr, ast.Indexed):
        return _lhs_base_name(expr.base)
    return None


def _check_int_parameters(program: ast.Program, allow_enumeration: bool) -> None:
    """Gate ``int`` parameter declarations.

    Stan rejects them outright; our enumeration engine accepts *bounded*
    integer parameters (finite support, marginalized exactly) when the
    caller opted in with ``enum="auto"`` (or ``enum="parallel"`` for the
    joint table).  Unbounded declarations are rejected on every path — they
    have no exact enumeration.
    """
    for decl in program.parameters.decls:
        if not decl.base_type.is_integer:
            continue
        if not allow_enumeration:
            raise SemanticError(
                f"parameter {decl.name!r} is declared int; Stan requires continuous "
                "parameters. Unlike Stan, this compiler can marginalize bounded "
                "integer parameters exactly — recompile with "
                'enum="auto" (compile_model(source, enum="auto"); tensor '
                "variable elimination, O(N*K) for independent elements and "
                'O(T*K^2) for chains, or enum="parallel" for the joint-table '
                "engine) to enable the discrete-latent enumeration engine."
            )
        if decl.constraint.lower is None or decl.constraint.upper is None:
            raise SemanticError(
                f"parameter {decl.name!r}: enumeration requires a finite support; "
                "declare both bounds (int<lower=.., upper=..>). Unbounded integer "
                "parameters (e.g. Poisson latents) cannot be marginalized exactly — "
                "truncate them to a bounded range."
            )


def _check_variables_declared(program: ast.Program, table: SymbolTable) -> None:
    known_functions = BUILTIN_FUNCTIONS | {f.name for f in program.functions} | {n.name for n in program.networks}

    def check_block(block: ast.Block, extra_locals: Set[str]) -> None:
        local_names = set(extra_locals)
        local_names.update(d.name for d in block.decls)
        for stmt in block.stmts:
            check_stmt(stmt, local_names)

    def check_stmt(stmt: ast.Stmt, local_names: Set[str]) -> None:
        if isinstance(stmt, ast.DeclStmt):
            local_names.add(stmt.decl.name)
            if stmt.decl.init is not None:
                check_expr(stmt.decl.init, local_names)
            for dim in stmt.decl.dims:
                check_expr(dim, local_names)
        elif isinstance(stmt, ast.Assign):
            check_expr(stmt.lhs, local_names)
            check_expr(stmt.value, local_names)
        elif isinstance(stmt, ast.TildeStmt):
            check_expr(stmt.lhs, local_names)
            for arg in stmt.args:
                check_expr(arg, local_names)
        elif isinstance(stmt, ast.TargetPlus):
            check_expr(stmt.value, local_names)
        elif isinstance(stmt, ast.For):
            if stmt.is_range:
                check_expr(stmt.lower, local_names)
                check_expr(stmt.upper, local_names)
            else:
                check_expr(stmt.sequence, local_names)
            inner = set(local_names)
            inner.add(stmt.var)
            for sub in stmt.body:
                check_stmt(sub, inner)
        elif isinstance(stmt, ast.While):
            check_expr(stmt.cond, local_names)
            for sub in stmt.body:
                check_stmt(sub, set(local_names))
        elif isinstance(stmt, ast.If):
            check_expr(stmt.cond, local_names)
            for sub in stmt.then_body:
                check_stmt(sub, set(local_names))
            for sub in stmt.else_body:
                check_stmt(sub, set(local_names))
        elif isinstance(stmt, ast.BlockStmt):
            inner = set(local_names)
            for sub in stmt.body:
                check_stmt(sub, inner)
        elif isinstance(stmt, (ast.PrintStmt, ast.RejectStmt)):
            for arg in stmt.args:
                check_expr(arg, local_names)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            check_expr(stmt.value, local_names)
        elif isinstance(stmt, ast.CallStmt):
            check_expr(stmt.call, local_names)

    def check_expr(expr: ast.Expr, local_names: Set[str]) -> None:
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.Variable):
                name = node.name
                if name in ("target",):
                    continue
                if name in local_names or name in table or name in known_functions:
                    continue
                raise SemanticError(f"{node.loc}: variable {name!r} is not declared")
            if isinstance(node, ast.FunctionCall):
                name = node.name
                base = name
                for suffix in DISTRIBUTION_SUFFIXES:
                    if name.endswith(suffix):
                        base = name[: -len(suffix)]
                        break
                if (name in known_functions or base in known_functions
                        or name in table or base in table
                        or _looks_like_distribution(base)):
                    continue
                # Unknown functions become code-generation errors, not semantic ones.

    function_arg_names: Set[str] = set()
    for func in program.functions:
        arg_names = {arg.name for arg in func.args}
        body_block = ast.Block(decls=[], stmts=func.body)
        check_block(body_block, arg_names)
        function_arg_names |= arg_names

    check_block(program.transformed_data, set())
    check_block(program.transformed_parameters, set())
    check_block(program.model, set())
    check_block(program.generated_quantities, set())
    check_block(program.guide, set())


def _looks_like_distribution(name: str) -> bool:
    from repro.core.stanlib import KNOWN_DISTRIBUTIONS

    return name in KNOWN_DISTRIBUTIONS


def _check_no_parameter_assignment(program: ast.Program, table: SymbolTable) -> None:
    parameter_names = {info.name for info in table.of_kind("parameter")}
    data_names = {info.name for info in table.of_kind("data")}
    for stmt in ast.walk_stmts(program.model.stmts + program.transformed_parameters.stmts):
        if isinstance(stmt, ast.Assign):
            name = _lhs_base_name(stmt.lhs)
            if name in parameter_names:
                raise SemanticError(
                    f"{stmt.loc}: cannot assign to parameter {name!r} "
                    "(parameters may only appear on the left of '~')"
                )
            if name in data_names:
                raise SemanticError(
                    f"{stmt.loc}: cannot assign to data variable {name!r}"
                )


def _check_target_usage(program: ast.Program) -> None:
    all_stmts = (
        program.transformed_data.stmts
        + program.transformed_parameters.stmts
        + program.model.stmts
        + program.generated_quantities.stmts
    )
    for stmt in ast.walk_stmts(all_stmts):
        exprs: List[ast.Expr] = []
        if isinstance(stmt, ast.Assign):
            exprs = [stmt.lhs, stmt.value]
        elif isinstance(stmt, ast.TildeStmt):
            exprs = [stmt.lhs] + stmt.args
        elif isinstance(stmt, ast.For) and stmt.is_range:
            exprs = [stmt.lower, stmt.upper]
        elif isinstance(stmt, ast.While):
            exprs = [stmt.cond]
        elif isinstance(stmt, ast.If):
            exprs = [stmt.cond]
        for expr in exprs:
            for node in ast.walk_expr(expr):
                if isinstance(node, ast.Variable) and node.name == "target":
                    raise SemanticError(
                        f"{stmt.loc}: expressions may not read 'target' (Assumption 2)"
                    )
                if isinstance(node, ast.FunctionCall) and node.name == "target":
                    raise SemanticError(
                        f"{stmt.loc}: expressions may not read 'target()' (Assumption 2)"
                    )


def check_program(program: ast.Program, allow_int_parameters: bool = False) -> SymbolTable:
    """Run all semantic checks; return the symbol table on success.

    ``allow_int_parameters=True`` (set by the enumerated compile path)
    admits *bounded* ``int`` parameter declarations as finite-support
    discrete latents instead of rejecting them like Stan does.
    """
    table = build_symbol_table(program)
    _check_int_parameters(program, allow_int_parameters)
    _check_variables_declared(program, table)
    _check_no_parameter_assignment(program, table)
    _check_target_usage(program)
    return table
