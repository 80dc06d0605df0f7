"""Aggregation expression language.

Expressions appear inside ``$project`` and ``$group`` ``_id``/accumulator
arguments; the thesis queries use field paths, the conditional ``$cond`` and
the arithmetic of Queries 21 and 50 (``$divide``, ``$subtract``).

Supported forms:

* field paths: ``"$ss_quantity"``, ``"$ss_item_sk.i_item_id"``;
* literals: numbers, strings, booleans, ``None``;
* operator documents: ``$cond``, ``$and``, ``$or``, ``$eq``, ``$ne``, ``$gt``,
  ``$gte``, ``$lt``, ``$lte``, ``$in``, ``$sum``, ``$avg``, ``$subtract`` and
  ``$divide``;
* nested document expressions: ``{"a": "$x", "b": {"$divide": [1, 2]}}``.

Any other operator, and any ``$$`` variable, is refused with
:class:`InvalidOperator` when the expression is compiled.
"""

from __future__ import annotations

import datetime as _dt
from collections.abc import Mapping, Sequence
from typing import Any, Callable

from .errors import InvalidOperator, OperationFailure
from .matching import compare_values, compile_path, values_equal

__all__ = ["compile_expression"]


def _as_number(value: Any, *, operator: str) -> float | int | None:
    if value is None:
        return None
    if isinstance(value, bool):
        raise OperationFailure(f"{operator} only supports numeric types, got bool")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, (_dt.date, _dt.datetime)):
        # Dates participate in arithmetic as ordinal days, which is how the
        # thesis phrases "sr_returned_date_sk - ss_sold_date_sk <= 30 days".
        if isinstance(value, _dt.datetime):
            return value.timestamp() / 86400.0
        return float(value.toordinal())
    raise OperationFailure(
        f"{operator} only supports numeric types, got {type(value).__name__}"
    )


def _numeric_operands(values: Sequence[Any], operator: str) -> list[float | int] | None:
    numbers = []
    for value in values:
        number = _as_number(value, operator=operator)
        if number is None:
            return None
        numbers.append(number)
    return numbers


def _op_subtract(args: list[Any]) -> Any:
    if len(args) != 2:
        raise OperationFailure("$subtract requires exactly two operands")
    numbers = _numeric_operands(args, "$subtract")
    if numbers is None:
        return None
    return numbers[0] - numbers[1]


def _op_divide(args: list[Any]) -> Any:
    if len(args) != 2:
        raise OperationFailure("$divide requires exactly two operands")
    numbers = _numeric_operands(args, "$divide")
    if numbers is None:
        return None
    numerator, denominator = numbers
    if denominator == 0:
        raise OperationFailure("$divide by zero")
    return numerator / denominator


def _numbers_in(values: list[Any]) -> list[Any]:
    """The numbers among *values*, an array operand's elements included."""
    return [
        item
        for value in values
        for item in (value if isinstance(value, (list, tuple)) else (value,))
        if isinstance(item, (int, float)) and not isinstance(item, bool)
    ]


def _combine_sum(values: list[Any]) -> float | int:
    total: float | int = 0
    for number in _numbers_in(values):
        total += number
    return total


def _combine_avg(values: list[Any]) -> Any:
    numbers = _numbers_in(values)
    return sum(numbers) / len(numbers) if numbers else None


_COMPARISONS: dict[str, Callable[[int], bool]] = {
    "$gt": lambda c: c > 0,
    "$gte": lambda c: c >= 0,
    "$lt": lambda c: c < 0,
    "$lte": lambda c: c <= 0,
}

#: Operators that apply one function to their evaluated operand list.
_LIST_OPERATORS: dict[str, Callable[[list[Any]], Any]] = {
    "$and": lambda values: all(map(bool, values)),
    "$or": lambda values: any(map(bool, values)),
    "$sum": _combine_sum,
    "$avg": _combine_avg,
    "$subtract": _op_subtract,
    "$divide": _op_divide,
}


def _compile_field_reference(path: str) -> Callable[[Mapping[str, Any]], Any]:
    resolver = compile_path(path)

    def resolve(document: Mapping[str, Any]) -> Any:
        values = resolver(document)
        return values[0] if values else None

    return resolve


def _compile_many(argument: Any) -> Callable[[Mapping[str, Any]], list[Any]]:
    """Compile the (single-or-list) operand form accepted by most operators."""
    if isinstance(argument, (list, tuple)):
        evaluators = [compile_expression(item) for item in argument]
    else:
        evaluators = [compile_expression(argument)]

    def evaluate(document: Mapping[str, Any]) -> list[Any]:
        return [evaluator(document) for evaluator in evaluators]

    return evaluate


def compile_expression(expression: Any) -> Callable[[Mapping[str, Any]], Any]:
    """Validate and lower an aggregation expression into a closure.

    The expression tree is interpreted exactly once: field paths are
    pre-split, operator names are validated, and operand sub-expressions are
    compiled recursively, so pipeline stages compile once per query instead
    of re-walking the expression ``Mapping`` per document.
    """
    if isinstance(expression, str):
        if expression.startswith("$$"):
            raise InvalidOperator(f"unknown aggregation variable {expression!r}")
        if expression.startswith("$"):
            return _compile_field_reference(expression[1:])
        return lambda _document, constant=expression: constant
    if isinstance(expression, (list, tuple)):
        items = [compile_expression(item) for item in expression]
        return lambda document: [item(document) for item in items]
    if isinstance(expression, Mapping):
        operator_keys = [key for key in expression if key.startswith("$")]
        if operator_keys:
            if len(expression) != 1:
                raise InvalidOperator(
                    "an expression document may hold exactly one operator, "
                    f"got {sorted(expression)}"
                )
            return _compile_operator(operator_keys[0], expression[operator_keys[0]])
        fields = {key: compile_expression(value) for key, value in expression.items()}
        return lambda document: {
            key: evaluator(document) for key, evaluator in fields.items()
        }
    # Numbers, booleans, None, dates, ObjectIds and other scalars are constants.
    return lambda _document, constant=expression: constant


def _compile_operator(operator: str, argument: Any) -> Callable[[Mapping[str, Any]], Any]:
    if operator == "$cond":
        if isinstance(argument, Mapping):
            condition = compile_expression(argument.get("if"))
            then_branch = compile_expression(argument.get("then"))
            else_branch = compile_expression(argument.get("else"))
        else:
            if len(argument) != 3:
                raise OperationFailure("$cond array form requires [if, then, else]")
            condition, then_branch, else_branch = map(compile_expression, argument)

        def cond(document: Mapping[str, Any]) -> Any:
            if condition(document):
                return then_branch(document)
            return else_branch(document)

        return cond

    if operator in ("$eq", "$ne"):
        many = _compile_many(argument)
        if operator == "$eq":
            def eq(document: Mapping[str, Any]) -> bool:
                left, right = many(document)
                return values_equal(left, right)

            return eq

        def ne(document: Mapping[str, Any]) -> bool:
            left, right = many(document)
            return not values_equal(left, right)

        return ne

    if operator in _COMPARISONS:
        many = _compile_many(argument)
        check = _COMPARISONS[operator]

        def compare(document: Mapping[str, Any]) -> bool:
            left, right = many(document)
            return check(compare_values(left, right))

        return compare

    if operator == "$in":
        many = _compile_many(argument)

        def in_array(document: Mapping[str, Any]) -> bool:
            needle, haystack = many(document)
            if not isinstance(haystack, (list, tuple)):
                raise OperationFailure("$in expression requires an array operand")
            return any(values_equal(needle, item) for item in haystack)

        return in_array

    if operator in _LIST_OPERATORS:
        many = _compile_many(argument)
        apply_operator = _LIST_OPERATORS[operator]
        return lambda document: apply_operator(many(document))

    raise InvalidOperator(f"unknown expression operator {operator!r}")
