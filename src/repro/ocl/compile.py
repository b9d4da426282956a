"""Compiling OCL ASTs to Python closures.

The paper's tool is described as "a Python compiler with a greater
capacity for compilation and processing of data structures" (Section
VI-B).  This module is that idea applied to the contracts themselves: an
expression is compiled *once* into a tree of closures, eliminating the
per-evaluation isinstance dispatch of the tree-walking interpreter.  The
monitor evaluates every contract on every request through these closures
(see :class:`repro.core.contracts.CompiledContract`).

Semantics are shared with the interpreter through :mod:`repro.ocl.ops`;
the interpreter is the oracle, and interpreter/compiler equivalence is
property-tested.

Usage::

    compiled = compile_expression("project.volumes->size() < quota")
    compiled(context)             # pre-state evaluation
    compiled(context, snapshot)   # post-state evaluation with old values
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Optional, Tuple, Union

from ..errors import OCLEvaluationError, OCLTypeError
from . import ops
from .context import Context
from .evaluator import Snapshot, collect_pre_expressions
from .nodes import (
    ArrowCall,
    Binary,
    Conditional,
    Expression,
    IteratorCall,
    Let,
    Literal,
    MethodCall,
    Name,
    Navigation,
    Pre,
    Unary,
)
from .parser import parse
from .simplify import simplify
from .usage import required_roots
from .values import ocl_equal, ocl_truthy, require_number

#: A compiled expression: (context, snapshot) -> value.
Compiled = Callable[[Context, Optional[Snapshot]], Any]

def compile_expression(expression: Union[str, Expression]) -> Compiled:
    """Compile *expression* (text or AST) to a closure tree."""
    return _compile(parse(expression))


def compile_bool(expression: Union[str, Expression]) -> Compiled:
    """Like :func:`compile_expression` but coercing to a boolean."""
    inner = compile_expression(expression)

    def run(context: Context, snapshot: Optional[Snapshot] = None) -> bool:
        return ocl_truthy(inner(context, snapshot))

    return run


# -- the optimization pass ----------------------------------------------------


def binding_cost(expression: Union[str, Expression],
                 costs: Mapping[str, int]) -> int:
    """Planned GET probes needed before *expression* can evaluate.

    The sum of per-root probe costs (the provider's ``PROBE_COSTS``
    table) over the roots the expression reads; an expression reading no
    known root costs 0 -- it can always evaluate first.
    """
    return sum(costs[root]
               for root in required_roots(parse(expression), tuple(costs)))


def order_by_cost(expression: Union[str, Expression],
                  costs: Mapping[str, int]) -> Expression:
    """Stably reorder and/or chains so cheap-to-bind operands come first.

    Each chain's operands are sorted by :func:`binding_cost` (stable:
    equal-cost operands keep their source order, preserving determinism),
    recursively.  Short-circuit evaluation then settles most requests on
    the operands whose probes are cheapest -- e.g. a ``user``-only
    authorization term (cost 1) runs before a ``project`` inventory
    comparison (cost 2).  Only apply this to total boolean expressions
    (contract conditions are: undefined bindings compare false instead of
    raising), because reordering also reorders which operand raises.
    """
    node = parse(expression)
    if isinstance(node, Binary) and node.operator in ("and", "or"):
        operands = [order_by_cost(operand, costs)
                    for operand in _chain(node.operator, node)]
        ordered = sorted(operands,
                         key=lambda operand: binding_cost(operand, costs))
        result = ordered[0]
        for operand in ordered[1:]:
            result = Binary(node.operator, result, operand)
        return result
    return node


def _chain(operator: str, node: Expression) -> List[Expression]:
    """Flatten an and/or chain into its operand list."""
    if isinstance(node, Binary) and node.operator == operator:
        return _chain(operator, node.left) + _chain(operator, node.right)
    return [node]


def optimize_expression(expression: Union[str, Expression],
                        costs: Optional[Mapping[str, int]] = None,
                        ) -> Expression:
    """The contract-compilation optimization pipeline, as an AST pass.

    1. constant folding through :func:`repro.ocl.simplify.simplify`
       (connectives, comparisons via ``ocl_equal``, arithmetic);
    2. with a *costs* table, stably order every and/or chain so the
       cheapest-to-bind operand short-circuits first.

    The result evaluates to the same value as *expression* on total
    (two-valued, non-raising) inputs -- the shape contract conditions
    satisfy -- which the interpreter/compiler equivalence property suite
    checks.
    """
    node = simplify(parse(expression))
    if costs:
        node = order_by_cost(node, costs)
    return node


def compile_snapshot_plan(
        expression: Union[str, Expression],
) -> List[Tuple[tuple, Compiled]]:
    """Compile *expression*'s snapshot capture: (key, closure) pairs.

    One entry per structurally distinct outermost ``pre()`` node, in
    first-occurrence order; the key is the operand's structural key --
    exactly what :meth:`repro.ocl.evaluator.Snapshot.capture` stores, so
    a snapshot filled from this plan is interchangeable with an
    interpreted capture of the same expression.
    """
    plan: List[Tuple[tuple, Compiled]] = []
    seen = set()
    for pre_node in collect_pre_expressions(parse(expression)):
        key = pre_node.operand._key()
        if key in seen:
            continue
        seen.add(key)
        plan.append((key, _compile(pre_node.operand)))
    return plan


def _compile(node: Expression) -> Compiled:
    if isinstance(node, Literal):
        value = node.value
        return lambda context, snapshot=None: value

    if isinstance(node, Name):
        identifier = node.identifier
        return lambda context, snapshot=None: context.lookup(identifier)

    if isinstance(node, Navigation):
        source = _compile(node.source)
        attribute = node.attribute
        return lambda context, snapshot=None: context.navigate(
            source(context, snapshot), attribute)

    if isinstance(node, Pre):
        inner = _compile(node.operand)
        pre_node = node

        def run_pre(context: Context,
                    snapshot: Optional[Snapshot] = None) -> Any:
            if snapshot is not None:
                return snapshot.lookup(pre_node)
            return inner(context, snapshot)

        return run_pre

    if isinstance(node, Let):
        value = _compile(node.value)
        body = _compile(node.body)
        variable = node.variable
        return lambda context, snapshot=None: body(
            context.child(variable, value(context, snapshot)), snapshot)

    if isinstance(node, Conditional):
        condition = _compile(node.condition)
        then_branch = _compile(node.then_branch)
        else_branch = _compile(node.else_branch)
        return lambda context, snapshot=None: (
            then_branch(context, snapshot)
            if ocl_truthy(condition(context, snapshot))
            else else_branch(context, snapshot))

    if isinstance(node, Unary):
        operand = _compile(node.operand)
        if node.operator == "not":
            return lambda context, snapshot=None: not ocl_truthy(
                operand(context, snapshot))
        if node.operator == "-":
            def negate(context: Context,
                       snapshot: Optional[Snapshot] = None) -> Any:
                try:
                    return -require_number(operand(context, snapshot),
                                           "unary minus")
                except TypeError as exc:
                    raise OCLTypeError(str(exc)) from exc

            return negate
        raise OCLEvaluationError(
            f"unknown unary operator {node.operator!r}")

    if isinstance(node, Binary):
        return _compile_binary(node)

    if isinstance(node, ArrowCall):
        source = _compile(node.source)
        arguments = [_compile(argument) for argument in node.arguments]
        operation = node.operation
        return lambda context, snapshot=None: ops.collection_op(
            operation, source(context, snapshot),
            [argument(context, snapshot) for argument in arguments])

    if isinstance(node, IteratorCall):
        source = _compile(node.source)
        body = _compile(node.body)
        operation = node.operation
        variable = node.variable

        def run_iterator(context: Context,
                         snapshot: Optional[Snapshot] = None) -> Any:
            return ops.iterator_op(
                operation, source(context, snapshot),
                lambda item: body(context.child(variable, item), snapshot))

        return run_iterator

    if isinstance(node, MethodCall):
        source = _compile(node.source)
        arguments = [_compile(argument) for argument in node.arguments]
        operation = node.operation
        return lambda context, snapshot=None: ops.method_op(
            operation, source(context, snapshot),
            [argument(context, snapshot) for argument in arguments])

    raise OCLEvaluationError(f"cannot compile node {node!r}")


def _compile_binary(node: Binary) -> Compiled:
    operator = node.operator
    left = _compile(node.left)
    right = _compile(node.right)

    if operator == "and":
        return lambda context, snapshot=None: (
            ocl_truthy(left(context, snapshot))
            and ocl_truthy(right(context, snapshot)))
    if operator == "or":
        return lambda context, snapshot=None: (
            ocl_truthy(left(context, snapshot))
            or ocl_truthy(right(context, snapshot)))
    if operator == "implies":
        return lambda context, snapshot=None: (
            not ocl_truthy(left(context, snapshot))
            or ocl_truthy(right(context, snapshot)))
    if operator == "xor":
        return lambda context, snapshot=None: (
            ocl_truthy(left(context, snapshot))
            != ocl_truthy(right(context, snapshot)))
    if operator == "=":
        return lambda context, snapshot=None: ocl_equal(
            left(context, snapshot), right(context, snapshot))
    if operator == "<>":
        return lambda context, snapshot=None: not ocl_equal(
            left(context, snapshot), right(context, snapshot))
    if operator in ("<", ">", "<=", ">="):
        return lambda context, snapshot=None: ops.compare(
            operator, left(context, snapshot), right(context, snapshot))
    if operator in Binary.ARITHMETIC:
        return lambda context, snapshot=None: ops.arith(
            operator, left(context, snapshot), right(context, snapshot))
    raise OCLEvaluationError(f"unknown binary operator {operator!r}")
