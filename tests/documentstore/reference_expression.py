"""The obviously-correct reference for aggregation expressions.

One recursive function that re-reads the expression tree for every document,
with each operator spelled out where it is used.  It shares only the value
order and equality of :mod:`repro.documentstore.matching` with the engine.
``test_compiled_engine.py`` checks :func:`~repro.documentstore.compile_expression`
against it, value for value and error for error.
"""

from __future__ import annotations

import datetime
from collections.abc import Mapping
from typing import Any

from repro.documentstore.errors import InvalidOperator, OperationFailure
from repro.documentstore.matching import compare_values, resolve_path, values_equal

ORDERINGS = {"$gt": (1,), "$gte": (0, 1), "$lt": (-1,), "$lte": (-1, 0)}


def _sign(number: int) -> int:
    return (number > 0) - (number < 0)


def _numbers(values: list[Any]) -> list[Any]:
    flat = [item for value in values for item in (value if isinstance(value, list) else [value])]
    return [item for item in flat if type(item) in (int, float)]


def _arithmetic(operator: str, operands: list[Any]) -> Any:
    if len(operands) != 2:
        raise OperationFailure(f"{operator} requires exactly two operands")
    numbers = []
    for value in operands:
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float, datetime.date)):
            name = type(value).__name__
            raise OperationFailure(f"{operator} only supports numeric types, got {name}")
        if isinstance(value, datetime.datetime):
            value = value.timestamp() / 86400.0  # days, like a date's ordinal
        elif isinstance(value, datetime.date):
            value = float(value.toordinal())
        numbers.append(value)
    if operator == "$subtract":
        return numbers[0] - numbers[1]
    if numbers[1] == 0:
        raise OperationFailure("$divide by zero")
    return numbers[0] / numbers[1]


def evaluate(expression: Any, document: Mapping[str, Any]) -> Any:
    """The value of *expression* for *document*."""
    if isinstance(expression, str) and expression.startswith("$$"):
        raise InvalidOperator(f"unknown aggregation variable {expression!r}")
    if isinstance(expression, str) and expression.startswith("$"):
        found = resolve_path(document, expression[1:])
        return found[0] if found else None
    if isinstance(expression, (list, tuple)):
        return [evaluate(item, document) for item in expression]
    if not isinstance(expression, Mapping):
        return expression
    if not any(key.startswith("$") for key in expression):
        return {key: evaluate(value, document) for key, value in expression.items()}
    if len(expression) != 1:
        raise InvalidOperator(
            f"an expression document may hold exactly one operator, got {sorted(expression)}"
        )
    [(operator, argument)] = expression.items()
    if operator == "$cond":
        if isinstance(argument, Mapping):
            argument = [argument.get("if"), argument.get("then"), argument.get("else")]
        if len(argument) != 3:
            raise OperationFailure("$cond array form requires [if, then, else]")
        return evaluate(argument[1] if evaluate(argument[0], document) else argument[2], document)
    operands = [
        evaluate(item, document)
        for item in (argument if isinstance(argument, (list, tuple)) else [argument])
    ]
    if operator == "$and":
        return all(operands)
    if operator == "$or":
        return any(operands)
    if operator == "$eq":
        left, right = operands
        return values_equal(left, right)
    if operator == "$ne":
        left, right = operands
        return not values_equal(left, right)
    if operator in ORDERINGS:
        left, right = operands
        return _sign(compare_values(left, right)) in ORDERINGS[operator]
    if operator == "$in":
        needle, haystack = operands
        if not isinstance(haystack, list):
            raise OperationFailure("$in expression requires an array operand")
        return any(values_equal(needle, item) for item in haystack)
    if operator == "$sum":
        return sum(_numbers(operands))
    if operator == "$avg":
        numbers = _numbers(operands)
        return sum(numbers) / len(numbers) if numbers else None
    if operator in ("$subtract", "$divide"):
        return _arithmetic(operator, operands)
    raise InvalidOperator(f"unknown expression operator {operator!r}")
