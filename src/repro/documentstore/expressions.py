"""Aggregation expression language.

Expressions appear inside ``$project``, ``$group`` ``_id``/accumulator
arguments, ``$match``'s ``$expr``, and the conditional constructs used by the
thesis queries (``$cond``, ``$divide``, ``$subtract`` in Queries 21 and 50).

Supported forms:

* field paths: ``"$ss_quantity"``, ``"$ss_item_sk.i_item_id"``;
* the root document: ``"$$ROOT"`` and the current value ``"$$CURRENT"``;
* literals: numbers, strings, booleans, ``None``, ``{"$literal": ...}``;
* operator documents: ``{"$add": [...]}, {"$cond": [...]}, ...``;
* nested document expressions: ``{"a": "$x", "b": {"$add": [1, 2]}}``.
"""

from __future__ import annotations

import datetime as _dt
import math
from collections.abc import Mapping, Sequence
from typing import Any, Callable

from .errors import InvalidOperator, OperationFailure
from .matching import compare_values, compile_path, resolve_path_single, values_equal

__all__ = [
    "evaluate_expression",
    "compile_expression",
    "is_field_path",
    "field_path_of",
]


def is_field_path(expression: Any) -> bool:
    """Return ``True`` if *expression* is a ``"$field"`` reference."""
    return isinstance(expression, str) and expression.startswith("$") and not expression.startswith("$$")


def field_path_of(expression: str) -> str:
    """Return the dotted path referenced by a ``"$field"`` expression."""
    return expression[1:]


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


def _evaluate_many(expressions: Any, document: Mapping[str, Any]) -> list[Any]:
    if not isinstance(expressions, (list, tuple)):
        expressions = [expressions]
    return [evaluate_expression(item, document) for item in expressions]


def _op_add(args: list[Any]) -> Any:
    numbers = _numeric_operands(args, "$add")
    if numbers is None:
        return None
    return sum(numbers)


def _op_subtract(args: list[Any]) -> Any:
    if len(args) != 2:
        raise OperationFailure("$subtract requires exactly two operands")
    numbers = _numeric_operands(args, "$subtract")
    if numbers is None:
        return None
    return numbers[0] - numbers[1]


def _op_multiply(args: list[Any]) -> Any:
    numbers = _numeric_operands(args, "$multiply")
    if numbers is None:
        return None
    product: float | int = 1
    for number in numbers:
        product *= number
    return product


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


def _op_mod(args: list[Any]) -> Any:
    if len(args) != 2:
        raise OperationFailure("$mod requires exactly two operands")
    numbers = _numeric_operands(args, "$mod")
    if numbers is None:
        return None
    return numbers[0] % numbers[1]


def _op_abs(args: list[Any]) -> Any:
    number = _as_number(args[0], operator="$abs")
    return None if number is None else abs(number)


def _op_floor(args: list[Any]) -> Any:
    number = _as_number(args[0], operator="$floor")
    return None if number is None else math.floor(number)


def _op_ceil(args: list[Any]) -> Any:
    number = _as_number(args[0], operator="$ceil")
    return None if number is None else math.ceil(number)


def _op_round(args: list[Any]) -> Any:
    number = _as_number(args[0], operator="$round")
    if number is None:
        return None
    places = int(args[1]) if len(args) > 1 else 0
    return round(number, places)


def _op_concat(args: list[Any]) -> Any:
    if any(arg is None for arg in args):
        return None
    if not all(isinstance(arg, str) for arg in args):
        raise OperationFailure("$concat only supports strings")
    return "".join(args)


def _op_to_lower(args: list[Any]) -> Any:
    value = args[0]
    return "" if value is None else str(value).lower()


def _op_to_upper(args: list[Any]) -> Any:
    value = args[0]
    return "" if value is None else str(value).upper()


def _op_str_len(args: list[Any]) -> Any:
    value = args[0]
    if not isinstance(value, str):
        raise OperationFailure("$strLenCP requires a string")
    return len(value)


def _op_substr(args: list[Any]) -> Any:
    value, start, length = args[0], int(args[1]), int(args[2])
    if value is None:
        return ""
    text = str(value)
    if length < 0:
        return text[start:]
    return text[start:start + length]


_COMPARISONS: dict[str, Callable[[int], bool]] = {
    "$gt": lambda c: c > 0,
    "$gte": lambda c: c >= 0,
    "$lt": lambda c: c < 0,
    "$lte": lambda c: c <= 0,
}


_SIMPLE_OPERATORS: dict[str, Callable[[list[Any]], Any]] = {
    "$add": _op_add,
    "$subtract": _op_subtract,
    "$multiply": _op_multiply,
    "$divide": _op_divide,
    "$mod": _op_mod,
    "$abs": _op_abs,
    "$floor": _op_floor,
    "$ceil": _op_ceil,
    "$round": _op_round,
    "$concat": _op_concat,
    "$toLower": _op_to_lower,
    "$toUpper": _op_to_upper,
    "$strLenCP": _op_str_len,
    "$substrCP": _op_substr,
    "$substr": _op_substr,
}


def evaluate_expression(expression: Any, document: Mapping[str, Any]) -> Any:
    """Evaluate an aggregation expression against *document*."""
    if isinstance(expression, str):
        if expression.startswith("$$"):
            variable = expression[2:].split(".", 1)
            if variable[0] in ("ROOT", "CURRENT"):
                if len(variable) == 1:
                    return document
                return resolve_path_single(document, variable[1])
            raise InvalidOperator(f"unknown aggregation variable {expression!r}")
        if expression.startswith("$"):
            return resolve_path_single(document, field_path_of(expression))
        return expression
    if expression is None or isinstance(expression, (bool, int, float, bytes)):
        return expression
    if isinstance(expression, (_dt.date, _dt.datetime)):
        return expression
    if isinstance(expression, (list, tuple)):
        return [evaluate_expression(item, document) for item in expression]
    if isinstance(expression, Mapping):
        operator_keys = [key for key in expression if key.startswith("$")]
        if operator_keys:
            if len(expression) != 1:
                raise InvalidOperator(
                    "an expression document may hold exactly one operator, "
                    f"got {sorted(expression)}"
                )
            operator = operator_keys[0]
            return _evaluate_operator(operator, expression[operator], document)
        return {
            key: evaluate_expression(value, document)
            for key, value in expression.items()
        }
    # ObjectId and other scalar leaf values evaluate to themselves.
    return expression


def _evaluate_operator(operator: str, argument: Any, document: Mapping[str, Any]) -> Any:
    if operator == "$literal":
        return argument

    if operator == "$cond":
        if isinstance(argument, Mapping):
            condition = argument.get("if")
            then_branch = argument.get("then")
            else_branch = argument.get("else")
        else:
            if len(argument) != 3:
                raise OperationFailure("$cond array form requires [if, then, else]")
            condition, then_branch, else_branch = argument
        if evaluate_expression(condition, document):
            return evaluate_expression(then_branch, document)
        return evaluate_expression(else_branch, document)

    if operator == "$ifNull":
        for candidate in argument[:-1]:
            value = evaluate_expression(candidate, document)
            if value is not None:
                return value
        return evaluate_expression(argument[-1], document)

    if operator == "$switch":
        for branch in argument.get("branches", []):
            if evaluate_expression(branch["case"], document):
                return evaluate_expression(branch["then"], document)
        if "default" in argument:
            return evaluate_expression(argument["default"], document)
        raise OperationFailure("$switch found no matching branch and no default")

    if operator in ("$and", "$or", "$not"):
        values = _evaluate_many(argument, document)
        if operator == "$and":
            return all(bool(value) for value in values)
        if operator == "$or":
            return any(bool(value) for value in values)
        return not bool(values[0])

    if operator in ("$eq", "$ne"):
        left, right = _evaluate_many(argument, document)
        equal = values_equal(left, right)
        return equal if operator == "$eq" else not equal

    if operator in _COMPARISONS:
        left, right = _evaluate_many(argument, document)
        if left is None or right is None:
            # Null ordering: missing/None sorts lowest, like the type order.
            return _COMPARISONS[operator](compare_values(left, right))
        return _COMPARISONS[operator](compare_values(left, right))

    if operator == "$cmp":
        left, right = _evaluate_many(argument, document)
        return compare_values(left, right)

    if operator == "$in":
        needle, haystack = _evaluate_many(argument, document)
        if not isinstance(haystack, (list, tuple)):
            raise OperationFailure("$in expression requires an array operand")
        return any(values_equal(needle, item) for item in haystack)

    if operator in ("$min", "$max"):
        return _combine_min_max(operator, _evaluate_many(argument, document))

    if operator == "$sum":
        return _combine_sum(_evaluate_many(argument, document))

    if operator == "$avg":
        return _combine_avg(_evaluate_many(argument, document))

    if operator == "$size":
        value = evaluate_expression(argument, document)
        if not isinstance(value, (list, tuple)):
            raise OperationFailure("$size requires an array operand")
        return len(value)

    if operator == "$arrayElemAt":
        array, index = _evaluate_many(argument, document)
        if array is None:
            return None
        if not isinstance(array, (list, tuple)):
            raise OperationFailure("$arrayElemAt requires an array operand")
        index = int(index)
        if -len(array) <= index < len(array):
            return array[index]
        return None

    if operator == "$concatArrays":
        arrays = _evaluate_many(argument, document)
        result: list[Any] = []
        for array in arrays:
            if array is None:
                return None
            result.extend(array)
        return result

    if operator == "$filter":
        source = evaluate_expression(argument["input"], document)
        variable = argument.get("as", "this")
        condition = argument["cond"]
        if source is None:
            return None
        kept = []
        for item in source:
            scope = dict(document)
            scope[f"__var_{variable}"] = item
            rewritten = _bind_variable(condition, variable)
            if evaluate_expression(rewritten, scope):
                kept.append(item)
        return kept

    if operator == "$map":
        source = evaluate_expression(argument["input"], document)
        variable = argument.get("as", "this")
        body = argument["in"]
        if source is None:
            return None
        mapped = []
        for item in source:
            scope = dict(document)
            scope[f"__var_{variable}"] = item
            mapped.append(evaluate_expression(_bind_variable(body, variable), scope))
        return mapped

    if operator in ("$year", "$month", "$dayOfMonth", "$dayOfWeek"):
        value = evaluate_expression(argument, document)
        if value is None:
            return None
        if not isinstance(value, (_dt.date, _dt.datetime)):
            raise OperationFailure(f"{operator} requires a date operand")
        if operator == "$year":
            return value.year
        if operator == "$month":
            return value.month
        if operator == "$dayOfMonth":
            return value.day
        return value.isoweekday() % 7 + 1  # 1 = Sunday, as in the original system

    if operator == "$toString":
        value = evaluate_expression(argument, document)
        return None if value is None else str(value)

    if operator in ("$toInt", "$toLong"):
        value = evaluate_expression(argument, document)
        return None if value is None else int(value)

    if operator in ("$toDouble", "$toDecimal"):
        value = evaluate_expression(argument, document)
        return None if value is None else float(value)

    if operator in _SIMPLE_OPERATORS:
        return _SIMPLE_OPERATORS[operator](_evaluate_many(argument, document))

    raise InvalidOperator(f"unknown expression operator {operator!r}")


def _combine_min_max(operator: str, evaluated: list[Any]) -> Any:
    """Shared ``$min``/``$max`` combination over already-evaluated operands."""
    # A single array operand means "min/max of the array elements".
    if len(evaluated) == 1 and isinstance(evaluated[0], (list, tuple)):
        evaluated = list(evaluated[0])
    values = [v for v in evaluated if v is not None]
    if not values:
        return None
    picked = values[0]
    for value in values[1:]:
        ordering = compare_values(value, picked)
        if (operator == "$min" and ordering < 0) or (operator == "$max" and ordering > 0):
            picked = value
    return picked


def _combine_sum(values: list[Any]) -> float | int:
    """Shared ``$sum`` combination over already-evaluated operands."""
    total: float | int = 0
    for value in values:
        flattened = value if isinstance(value, (list, tuple)) else [value]
        for item in flattened:
            if isinstance(item, (int, float)) and not isinstance(item, bool):
                total += item
    return total


def _combine_avg(values: list[Any]) -> Any:
    """Shared ``$avg`` combination over already-evaluated operands."""
    numbers: list[float] = []
    for value in values:
        flattened = value if isinstance(value, (list, tuple)) else [value]
        numbers.extend(
            item for item in flattened
            if isinstance(item, (int, float)) and not isinstance(item, bool)
        )
    if not numbers:
        return None
    return sum(numbers) / len(numbers)


def _bind_variable(expression: Any, variable: str) -> Any:
    """Rewrite ``$$variable`` references so they resolve inside the scope."""
    if isinstance(expression, str):
        prefix = f"$${variable}"
        if expression == prefix:
            return f"$__var_{variable}"
        if expression.startswith(prefix + "."):
            return f"$__var_{variable}." + expression[len(prefix) + 1:]
        return expression
    if isinstance(expression, Mapping):
        return {key: _bind_variable(value, variable) for key, value in expression.items()}
    if isinstance(expression, (list, tuple)):
        return [_bind_variable(item, variable) for item in expression]
    return expression


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------

#: Operators whose compiled form falls back to the interpreter per document
#: (they carry variable bindings or rarely sit on hot paths).  Compilation
#: still validates them up front so unknown operators fail once per query.
_FALLBACK_OPERATORS = frozenset(
    {
        "$switch",
        "$filter",
        "$map",
        "$size",
        "$arrayElemAt",
        "$concatArrays",
        "$year",
        "$month",
        "$dayOfMonth",
        "$dayOfWeek",
        "$toString",
        "$toInt",
        "$toLong",
        "$toDouble",
        "$toDecimal",
    }
)


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
    compiled recursively.  ``compile_expression(e)(doc)`` agrees with
    ``evaluate_expression(e, doc)`` for every supported expression; pipeline
    stages and ``$expr`` compile once per query instead of re-walking the
    expression ``Mapping`` per document.
    """
    if isinstance(expression, str):
        if expression.startswith("$$"):
            variable = expression[2:].split(".", 1)
            if variable[0] in ("ROOT", "CURRENT"):
                if len(variable) == 1:
                    return lambda document: document
                return _compile_field_reference(variable[1])
            raise InvalidOperator(f"unknown aggregation variable {expression!r}")
        if expression.startswith("$"):
            return _compile_field_reference(field_path_of(expression))
        return lambda _document, constant=expression: constant
    if expression is None or isinstance(
        expression, (bool, int, float, bytes, _dt.date, _dt.datetime)
    ):
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
    # ObjectId and other scalar leaf values evaluate to themselves.
    return lambda _document, constant=expression: constant


def _compile_operator(operator: str, argument: Any) -> Callable[[Mapping[str, Any]], Any]:
    if operator == "$literal":
        return lambda _document: argument

    if operator == "$cond":
        if isinstance(argument, Mapping):
            condition = compile_expression(argument.get("if"))
            then_branch = compile_expression(argument.get("then"))
            else_branch = compile_expression(argument.get("else"))
        else:
            if len(argument) != 3:
                raise OperationFailure("$cond array form requires [if, then, else]")
            condition = compile_expression(argument[0])
            then_branch = compile_expression(argument[1])
            else_branch = compile_expression(argument[2])

        def cond(document: Mapping[str, Any]) -> Any:
            if condition(document):
                return then_branch(document)
            return else_branch(document)

        return cond

    if operator == "$ifNull":
        candidates = [compile_expression(item) for item in argument[:-1]]
        default = compile_expression(argument[-1])

        def if_null(document: Mapping[str, Any]) -> Any:
            for candidate in candidates:
                value = candidate(document)
                if value is not None:
                    return value
            return default(document)

        return if_null

    if operator in ("$and", "$or", "$not"):
        many = _compile_many(argument)
        if operator == "$and":
            return lambda document: all(bool(value) for value in many(document))
        if operator == "$or":
            return lambda document: any(bool(value) for value in many(document))
        return lambda document: not bool(many(document)[0])

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

    if operator == "$cmp":
        many = _compile_many(argument)

        def cmp(document: Mapping[str, Any]) -> int:
            left, right = many(document)
            return compare_values(left, right)

        return cmp

    if operator == "$in":
        many = _compile_many(argument)

        def in_array(document: Mapping[str, Any]) -> bool:
            needle, haystack = many(document)
            if not isinstance(haystack, (list, tuple)):
                raise OperationFailure("$in expression requires an array operand")
            return any(values_equal(needle, item) for item in haystack)

        return in_array

    if operator in ("$min", "$max"):
        many = _compile_many(argument)
        return lambda document, op=operator: _combine_min_max(op, many(document))

    if operator == "$sum":
        many = _compile_many(argument)
        return lambda document: _combine_sum(many(document))

    if operator == "$avg":
        many = _compile_many(argument)
        return lambda document: _combine_avg(many(document))

    if operator in _SIMPLE_OPERATORS:
        many = _compile_many(argument)
        apply_operator = _SIMPLE_OPERATORS[operator]
        return lambda document: apply_operator(many(document))

    if operator in _FALLBACK_OPERATORS:
        return lambda document: _evaluate_operator(operator, argument, document)

    raise InvalidOperator(f"unknown expression operator {operator!r}")
