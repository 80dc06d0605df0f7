"""Shared sort-key construction for cursors, ``$sort``, and accumulators.

Every component that orders documents — cursor ``sort()``, the aggregation
``$sort`` stage (including its top-k fast path), the ``$min``/``$max``
accumulators, and the index key arrays — needs the same BSON-like total
order implemented by :func:`repro.documentstore.matching.compare_values`.
This module provides the one wrapper type and the one composite-key builder
they all share, replacing the previous per-call ``cmp_to_key`` lambdas and
ad-hoc ``total_ordering`` classes.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any, Callable

from .errors import OperationFailure
from .matching import compare_values, resolve_path_single

__all__ = ["OrderedValue", "sort_key", "document_sort_key", "normalize_sort_specification"]


class OrderedValue:
    """Wrap an arbitrary BSON-ish value so it sorts by ``compare_values``."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderedValue):
            return NotImplemented
        left, right = self.value, other.value
        if type(left) is type(right) and type(left) in (int, float, str):
            return left == right
        return compare_values(left, right) == 0

    def __lt__(self, other: "OrderedValue") -> bool:
        # Exact-type fast path: index keys are overwhelmingly same-typed
        # ints/strings, and sorting 100k-entry batches calls this millions
        # of times (bool is excluded — type() is exact).
        left, right = self.value, other.value
        if type(left) is type(right) and type(left) in (int, float, str):
            return left < right
        return compare_values(left, right) < 0

    def __le__(self, other: "OrderedValue") -> bool:
        return compare_values(self.value, other.value) <= 0

    def __gt__(self, other: "OrderedValue") -> bool:
        return compare_values(self.value, other.value) > 0

    def __ge__(self, other: "OrderedValue") -> bool:
        return compare_values(self.value, other.value) >= 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OrderedValue({self.value!r})"


class _ReversedValue(OrderedValue):
    """An :class:`OrderedValue` with inverted order (descending sort keys)."""

    __slots__ = ()

    def __lt__(self, other: "OrderedValue") -> bool:
        left, right = self.value, other.value
        if type(left) is type(right) and type(left) in (int, float, str):
            return right < left
        return compare_values(left, right) > 0

    def __le__(self, other: "OrderedValue") -> bool:
        return compare_values(self.value, other.value) >= 0

    def __gt__(self, other: "OrderedValue") -> bool:
        return compare_values(self.value, other.value) < 0

    def __ge__(self, other: "OrderedValue") -> bool:
        return compare_values(self.value, other.value) <= 0


def sort_key(value: Any) -> OrderedValue:
    """Return a sort key for a single value (``$min``/``$max``, index keys)."""
    return OrderedValue(value)


def normalize_sort_specification(
    specification: Sequence[tuple[str, int]] | Mapping[str, int],
) -> list[tuple[str, int]]:
    """Normalize a sort spec to ``(field, direction)`` pairs and validate it."""
    if isinstance(specification, Mapping):
        pairs = list(specification.items())
    else:
        pairs = [(field_path, direction) for field_path, direction in specification]
    for _field_path, direction in pairs:
        if direction not in (1, -1):
            raise OperationFailure(
                f"sort direction must be 1 or -1, got {direction!r}"
            )
    return pairs


def document_sort_key(
    specification: Sequence[tuple[str, int]] | Mapping[str, int],
) -> Callable[[Mapping[str, Any]], tuple[OrderedValue, ...]]:
    """Compile a sort specification into a composite-key function.

    The returned function maps a document to a tuple of wrapped values, one
    per sort field, with descending fields inverted — so a single stable
    ``sorted()`` (or ``heapq.nsmallest``) pass reproduces the multi-field
    semantics that previously required one ``cmp_to_key`` pass per field.
    """
    pairs = normalize_sort_specification(specification)
    wrapped = [
        (field_path, OrderedValue if direction == 1 else _ReversedValue)
        for field_path, direction in pairs
    ]

    def key(document: Mapping[str, Any]) -> tuple[OrderedValue, ...]:
        return tuple(
            wrapper(resolve_path_single(document, field_path))
            for field_path, wrapper in wrapped
        )

    return key
