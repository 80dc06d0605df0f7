"""Query-filter matching.

Implements the find()/``$match`` filter language used by the thesis queries
(Appendix B) and by the migration / translation algorithms:

* dotted-path field access (``"ss_cdemo_sk.cd_gender"``), including descent
  into arrays of embedded documents (multikey semantics);
* comparison operators ``$eq``, ``$ne``, ``$gt``, ``$gte``, ``$lt``, ``$lte``;
* set operators ``$in`` and ``$nin``;
* logical operators ``$and``, ``$or``, ``$nor``, ``$not``;
* element operators ``$exists`` and ``$type``;
* evaluation operators ``$regex`` and ``$mod``;
* array operators ``$all``, ``$size``, and ``$elemMatch``.

The matcher is deliberately free of any storage concerns so that both the
stand-alone collection scan and the per-shard scans in the sharded cluster can
share it.
"""

from __future__ import annotations

import datetime as _dt
import re
# The ABCs come from collections.abc: isinstance() against the typing aliases
# pays a slow __instancecheck__ on every call, and these checks sit on the
# per-document hot path (ruff TID251 keeps the typing ones out of this package).
from collections.abc import Iterable, Mapping, Sequence
from typing import Any, Callable

from .errors import InvalidOperator, OperationFailure
from .objectid import ObjectId

__all__ = [
    "resolve_path",
    "resolve_path_single",
    "matches",
    "compile_matcher",
    "compile_path",
    "compare_values",
    "collation_key",
    "values_equal",
    "membership_key",
    "distinct_values",
]

_MISSING = object()


# ---------------------------------------------------------------------------
# Dotted-path resolution
# ---------------------------------------------------------------------------

def resolve_path(document: Any, path: str) -> list[Any]:
    """Return every value reachable at *path* inside *document*.

    A dotted path descends through embedded documents; when it meets an array
    it fans out across elements (multikey behaviour).  Numeric path components
    additionally index into arrays.  Missing branches produce no values.
    """
    parts = path.split(".") if path else []
    return list(_walk(document, parts))


def _walk(node: Any, parts: Sequence[str]) -> Iterable[Any]:
    if not parts:
        yield node
        return
    head, rest = parts[0], parts[1:]
    if isinstance(node, Mapping):
        if head in node:
            yield from _walk(node[head], rest)
        return
    if isinstance(node, (list, tuple)):
        if head.isdigit():
            index = int(head)
            if 0 <= index < len(node):
                yield from _walk(node[index], rest)
        for item in node:
            if isinstance(item, Mapping) and head in item:
                yield from _walk(item[head], rest)
        return
    # Scalars terminate the walk without producing a value.


def compile_path(path: str) -> Callable[[Any], list[Any]]:
    """Lower a dotted path into a resolver closure.

    The path is split once at compile time instead of once per document, and
    single-segment paths — the overwhelmingly common case in the thesis
    queries — skip the generator-based walk entirely.
    """
    parts = path.split(".") if path else []
    if len(parts) == 1:
        head = parts[0]

        def resolve_single_segment(document: Any) -> list[Any]:
            if isinstance(document, Mapping):
                if head in document:
                    return [document[head]]
                return []
            return list(_walk(document, parts))

        return resolve_single_segment

    def resolve_segments(document: Any) -> list[Any]:
        return list(_walk(document, parts))

    return resolve_segments


def resolve_path_single(document: Any, path: str, default: Any = None) -> Any:
    """Return the first value at *path*, or *default* if the path is missing."""
    values = resolve_path(document, path)
    if not values:
        return default
    return values[0]


def path_exists(document: Any, path: str) -> bool:
    """Return ``True`` if *path* resolves to at least one value (even None)."""
    parts = path.split(".") if path else []
    return _exists(document, parts)


def _exists(node: Any, parts: Sequence[str]) -> bool:
    if not parts:
        return True
    head, rest = parts[0], parts[1:]
    if isinstance(node, Mapping):
        return head in node and _exists(node[head], rest)
    if isinstance(node, (list, tuple)):
        if head.isdigit():
            index = int(head)
            if 0 <= index < len(node) and _exists(node[index], rest):
                return True
        return any(
            isinstance(item, Mapping) and head in item and _exists(item[head], rest)
            for item in node
        )
    return False


# ---------------------------------------------------------------------------
# Value comparison with a BSON-like type order
# ---------------------------------------------------------------------------

_TYPE_ORDER: tuple[tuple[type, ...], ...] = (
    (type(None),),
    (bool,),
    (),  # NaN: a place of its own below every number (see _type_rank)
    (int, float),
    (str,),
    (dict,),
    (list, tuple),
    (bytes,),
    (ObjectId,),
    (_dt.date, _dt.datetime),
)
_NAN_RANK, _NUMBER_RANK, _DATE_RANK = 2, 3, 9

# Exact-type fast path: avoids repeated ABC isinstance checks on the hot
# comparison path.
_EXACT_TYPE_RANK: dict[type, int] = {
    type(None): 0,
    bool: 1,
    int: 3,
    float: 3,
    str: 4,
    dict: 5,
    list: 6,
    tuple: 6,
    bytes: 7,
    ObjectId: 8,
    _dt.date: 9,
    _dt.datetime: 9,
}

#: Exact types that are their own collation payload, by rank.
_SELF_COLLATED: dict[type, int] = {
    kind: _EXACT_TYPE_RANK[kind] for kind in (type(None), bool, int, float, str, bytes)
}

#: Exact types whose :func:`collation_key` walks no array or document — the
#: values an index keys as they are, with no fan-out and no marker.
SCALAR_TYPES = frozenset(_EXACT_TYPE_RANK) - {dict, list, tuple}


def _type_rank(value: Any) -> int:
    rank = _EXACT_TYPE_RANK.get(type(value))
    if rank is None:
        rank = len(_TYPE_ORDER)
        # bool must be checked before int because bool is a subclass of int.
        if isinstance(value, bool):
            rank = 1
        else:
            for position, types in enumerate(_TYPE_ORDER):
                if isinstance(value, types):
                    rank = position
                    break
    if rank == _NUMBER_RANK and value != value:
        return _NAN_RANK  # NaN equals NaN and sorts below every number, as in MongoDB
    return rank


def _instant(value: _dt.date) -> _dt.datetime:
    """The naive UTC datetime a date (at midnight) or datetime denotes.

    A naive datetime is read as UTC, as MongoDB drivers store it, so naive and
    tz-aware datetimes share one order instead of refusing to compare.
    """
    if not isinstance(value, _dt.datetime):
        return _dt.datetime(value.year, value.month, value.day)
    if value.tzinfo is not None:
        return value.astimezone(_dt.timezone.utc).replace(tzinfo=None)
    return value


def compare_values(left: Any, right: Any) -> int:
    """Three-way comparison of two values using a BSON-like total order.

    Returns a negative number, zero, or a positive number.  Values of
    different types compare by their type rank, which makes every pair of
    values comparable (needed by sort and by range chunk assignment).
    """
    # Fast path: two numbers (or two strings) of the same concrete type that
    # Python orders — everything but NaN, which falls through to its rank.
    left_type, right_type = type(left), type(right)
    if left_type is right_type and left_type in (int, float, str):
        result = (left > right) - (left < right)
        if result or left == right:
            return result
    left_rank, right_rank = _type_rank(left), _type_rank(right)
    if left_rank != right_rank:
        return -1 if left_rank < right_rank else 1
    if left_rank in (0, _NAN_RANK):
        return 0  # None, or NaN
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        for left_item, right_item in zip(left, right):
            result = compare_values(left_item, right_item)
            if result:
                return result
        return (len(left) > len(right)) - (len(left) < len(right))
    if isinstance(left, Mapping) and isinstance(right, Mapping):
        return compare_values(
            sorted(left.items(), key=lambda kv: kv[0]),
            sorted(right.items(), key=lambda kv: kv[0]),
        )
    if isinstance(left, ObjectId) and isinstance(right, ObjectId):
        return (left.binary > right.binary) - (left.binary < right.binary)
    try:
        return (left > right) - (left < right)
    except TypeError as exc:
        if left_rank != _DATE_RANK:  # pragma: no cover - defensive
            raise OperationFailure(f"cannot compare {left!r} and {right!r}") from exc
    # A date against a datetime, or a naive against a tz-aware datetime.
    left, right = _instant(left), _instant(right)
    return (left > right) - (left < right)


def collation_key(value: Any) -> tuple[int, Any]:
    """``(type rank, payload)``, which Python orders as :func:`compare_values` orders values.

    Numbers, strings, ``None``, booleans and bytes are their own payload; NaN
    has a rank of its own and a constant payload; an ObjectId collates by its
    bytes and a date or datetime by :func:`_instant`; an array is the tuple of
    its elements' keys and a document that of its sorted ``(name, value)``
    pairs.  Built once per value, such keys let ``bisect``, ``sort`` and
    ``heapq`` compare in C instead of calling back into Python.
    """
    rank = _SELF_COLLATED.get(type(value))
    if rank is not None and value == value:
        return rank, value
    rank = _type_rank(value)
    if rank == _NAN_RANK:
        return rank, 0
    if isinstance(value, ObjectId):
        return rank, value.binary
    if isinstance(value, _dt.date):
        return rank, _instant(value)
    if isinstance(value, (list, tuple)):
        return rank, tuple(map(collation_key, value))
    if isinstance(value, Mapping):
        return rank, tuple(map(collation_key, sorted(value.items(), key=lambda kv: kv[0])))
    return rank, value


def values_equal(left: Any, right: Any) -> bool:
    """Equality that treats ints and floats as interchangeable (compared exactly)."""
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left == right
    if _type_rank(left) != _type_rank(right):
        return False
    return compare_values(left, right) == 0


# ---------------------------------------------------------------------------
# Typed membership keys: values_equal as a hash lookup
# ---------------------------------------------------------------------------

_UNKEYED = object()
_TRUE_KEY, _FALSE_KEY = (bool, True), (bool, False)


def membership_key(value: Any) -> Any:
    """A hashable key for *value* whose equality is exactly :func:`values_equal`.

    Two keyed values are ``values_equal`` iff their keys are ``==``: exact
    ``int``/``float``/``str``/``None``/``ObjectId``/naive ``datetime`` key
    as themselves (Python equates and hashes ``1`` and ``1.0`` alike; NaN
    equals nothing, itself included), ``date`` is promoted to midnight as
    :func:`compare_values` does, and ``bool``/``bytes`` are tagged because
    Python would otherwise equate ``True`` with ``1.0`` and hash ``b"a"`` like
    ``"a"``.  Everything else — documents, arrays, tz-aware datetimes,
    subclasses such as ``IntEnum`` — returns ``_UNKEYED`` and must be
    compared with ``values_equal`` itself.
    """
    kind = type(value)
    if kind is int or kind is float or kind is str or value is None or kind is ObjectId:
        return value
    if kind is bool:
        return _TRUE_KEY if value else _FALSE_KEY
    if kind is bytes:
        return (bytes, value)
    if kind is _dt.date:
        return _dt.datetime(value.year, value.month, value.day)
    if kind is _dt.datetime and value.tzinfo is None:
        return value
    return _UNKEYED


class _ValueSet:
    """A growable set of values under :func:`values_equal`.

    Keyed values live in a hash set; the rest sit in ``unkeyed`` and are
    compared one by one.  A value with no key of its own is compared against
    every member, because it may equal a keyed one (``IntEnum(1)`` and ``1``).
    """

    __slots__ = ("members", "keys", "unkeyed")

    def __init__(self, values: Iterable[Any] = ()) -> None:
        self.members: list[Any] = []
        self.keys: set[Any] = set()
        self.unkeyed: list[Any] = []
        for value in values:
            self.add(value)

    def add(self, value: Any) -> None:
        self.members.append(value)
        key = membership_key(value)
        if key is _UNKEYED:
            self.unkeyed.append(value)
        elif key == key:  # NaN equals nothing, itself included: never a key
            self.keys.add(key)

    def __contains__(self, value: Any) -> bool:
        key = membership_key(value)
        if key is _UNKEYED:
            return any(values_equal(value, member) for member in self.members)
        if key in self.keys:
            return True
        unkeyed = self.unkeyed
        return bool(unkeyed) and any(values_equal(value, member) for member in unkeyed)


def distinct_values(candidates: Iterable[Any]) -> list[Any]:
    """The first occurrence of every ``values_equal`` class, in input order."""
    seen = _ValueSet()
    for candidate in candidates:
        if candidate not in seen:
            seen.add(candidate)
    return seen.members


# ---------------------------------------------------------------------------
# Operator predicates
# ---------------------------------------------------------------------------

def _cmp_predicate(operand: Any, check: Callable[[int], bool]) -> Callable[[Any], bool]:
    operand_rank = _type_rank(operand)

    def predicate(value: Any) -> bool:
        if value is _MISSING:
            return False
        if _type_rank(value) != operand_rank:
            return False
        return check(compare_values(value, operand))

    return predicate


def _build_operator_predicate(path: str, operator: str, operand: Any) -> Callable[[Any], bool]:
    """Build a predicate over a document for a single ``{path: {op: operand}}``."""
    if operator in ("$eq", "$ne"):
        def eq_values(value: Any) -> bool:
            if value is _MISSING:
                return operand is None
            if isinstance(value, (list, tuple)) and not isinstance(operand, (list, tuple)):
                return any(values_equal(item, operand) for item in value)
            return values_equal(value, operand)

        if operator == "$eq":
            field_predicate = eq_values
        else:
            field_predicate = lambda value: not eq_values(value)  # noqa: E731
    elif operator == "$gt":
        field_predicate = _cmp_predicate(operand, lambda c: c > 0)
    elif operator == "$gte":
        field_predicate = _cmp_predicate(operand, lambda c: c >= 0)
    elif operator == "$lt":
        field_predicate = _cmp_predicate(operand, lambda c: c < 0)
    elif operator == "$lte":
        field_predicate = _cmp_predicate(operand, lambda c: c <= 0)
    elif operator in ("$in", "$nin"):
        if not isinstance(operand, (list, tuple, set, frozenset)):
            raise InvalidOperator(f"{operator} requires a list operand")
        choices = _ValueSet(operand)

        def in_values(value: Any) -> bool:
            for candidate in value if isinstance(value, (list, tuple)) else (value,):
                if (None if candidate is _MISSING else candidate) in choices:
                    return True
            return False

        if operator == "$in":
            field_predicate = in_values
        else:
            field_predicate = lambda value: not in_values(value)  # noqa: E731
    elif operator == "$exists":
        expected = bool(operand)

        def exists_predicate(value: Any) -> bool:
            return (value is not _MISSING) == expected

        field_predicate = exists_predicate
    elif operator == "$type":
        type_map = {
            "double": float,
            "string": str,
            "object": dict,
            "array": list,
            "bool": bool,
            "int": int,
            "long": int,
            "number": (int, float),
            "date": (_dt.date, _dt.datetime),
            "objectId": ObjectId,
            "null": type(None),
        }
        if operand not in type_map:
            raise InvalidOperator(f"unknown $type alias {operand!r}")
        expected_types = type_map[operand]

        def type_predicate(value: Any) -> bool:
            if value is _MISSING:
                return False
            if operand == "null":
                return value is None
            if operand in ("int", "long", "number", "double") and isinstance(value, bool):
                return False
            return isinstance(value, expected_types)

        field_predicate = type_predicate
    elif operator == "$regex":
        flags = 0
        pattern = operand
        if isinstance(operand, Mapping):
            pattern = operand.get("pattern", "")
        compiled = re.compile(pattern, flags)

        def regex_predicate(value: Any) -> bool:
            return isinstance(value, str) and bool(compiled.search(value))

        field_predicate = regex_predicate
    elif operator == "$mod":
        if not isinstance(operand, (list, tuple)) or len(operand) != 2:
            raise InvalidOperator("$mod requires [divisor, remainder]")
        divisor, remainder = operand

        def mod_predicate(value: Any) -> bool:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return False
            return int(value) % int(divisor) == int(remainder)

        field_predicate = mod_predicate
    elif operator == "$size":
        def size_predicate(value: Any) -> bool:
            return isinstance(value, (list, tuple)) and len(value) == operand

        field_predicate = size_predicate
    elif operator == "$all":
        if not isinstance(operand, (list, tuple)):
            raise InvalidOperator("$all requires a list operand")

        def all_predicate(value: Any) -> bool:
            if not isinstance(value, (list, tuple)):
                value = [value]
            return all(
                any(values_equal(item, wanted) for item in value) for wanted in operand
            )

        field_predicate = all_predicate
    elif operator == "$elemMatch":
        if not isinstance(operand, Mapping):
            raise InvalidOperator("$elemMatch requires a document operand")
        inner = compile_matcher(operand)

        def elem_match_predicate(value: Any) -> bool:
            if not isinstance(value, (list, tuple)):
                return False
            return any(isinstance(item, Mapping) and inner(item) for item in value)

        field_predicate = elem_match_predicate
    elif operator == "$not":
        if isinstance(operand, Mapping):
            negated = _compile_field_condition(path, operand)
        else:
            negated = _compile_field_condition(path, {"$eq": operand})
        return lambda document: not negated(document)
    else:
        raise InvalidOperator(f"unknown query operator {operator!r}")

    resolver = compile_path(path)
    first_only = operator == "$exists"

    def document_predicate(document: Any) -> bool:
        values = resolver(document)
        if not values:
            return field_predicate(_MISSING)
        if first_only:
            return field_predicate(values[0])
        for value in values:
            if field_predicate(value):
                return True
        return False

    if not path or "." in path:
        return document_predicate

    def single_segment_predicate(document: Any) -> bool:
        # A plain dict holds at most one value at a one-segment path; other
        # mappings and arrays of subdocuments take the general walk.
        if type(document) is dict:
            return field_predicate(document.get(path, _MISSING))
        return document_predicate(document)

    return single_segment_predicate


def _conjunction(predicates: Sequence[Callable[[Any], bool]]) -> Callable[[Any], bool]:
    """AND of document predicates, evaluated left to right."""
    if len(predicates) == 1:
        return predicates[0]
    predicates = tuple(predicates)

    def conjunction(document: Any) -> bool:
        for predicate in predicates:
            if not predicate(document):
                return False
        return True

    return conjunction


def _is_operator_document(value: Any) -> bool:
    return (
        isinstance(value, Mapping)
        and bool(value)
        and all(isinstance(key, str) and key.startswith("$") for key in value)
    )


def _compile_field_condition(path: str, condition: Any) -> Callable[[Any], bool]:
    """Compile ``{path: condition}`` where condition is a value or op-document."""
    if _is_operator_document(condition):
        return _conjunction(
            [
                _build_operator_predicate(path, operator, operand)
                for operator, operand in condition.items()
            ]
        )
    return _build_operator_predicate(path, "$eq", condition)


def compile_matcher(query: Mapping[str, Any] | None) -> Callable[[Any], bool]:
    """Validate and lower a filter document into a predicate ``doc -> bool``.

    The filter tree is walked exactly once: operator operands are validated,
    dotted paths are pre-split, ``$expr`` expressions are compiled, and the
    result is a tree of closures.  Collection scans, pipeline ``$match``
    stages, and per-shard execution all reuse one compiled predicate instead
    of re-interpreting the raw query ``Mapping`` per document.
    """
    if not query:
        return lambda _document: True
    if not isinstance(query, Mapping):
        raise OperationFailure("query filters must be documents")

    predicates: list[Callable[[Any], bool]] = []
    for key, condition in query.items():
        if key == "$and":
            predicates.append(_conjunction([compile_matcher(item) for item in condition]))
        elif key == "$or":
            sub = [compile_matcher(item) for item in condition]
            predicates.append(
                lambda document, sub=sub: any(p(document) for p in sub)
            )
        elif key == "$nor":
            sub = [compile_matcher(item) for item in condition]
            predicates.append(
                lambda document, sub=sub: not any(p(document) for p in sub)
            )
        elif key == "$expr":
            from .expressions import compile_expression

            evaluator = compile_expression(condition)
            predicates.append(
                lambda document, evaluator=evaluator: bool(evaluator(document))
            )
        elif key.startswith("$"):
            raise InvalidOperator(f"unknown top-level operator {key!r}")
        else:
            predicates.append(_compile_field_condition(key, condition))

    return _conjunction(predicates)


def matches(document: Mapping[str, Any], query: Mapping[str, Any] | None) -> bool:
    """Return ``True`` if *document* satisfies *query*.

    Compiles the query afresh on every call, so comparing it with a reused
    ``compile_matcher(query)`` catches closure-state leaks.
    """
    return compile_matcher(query)(document)
