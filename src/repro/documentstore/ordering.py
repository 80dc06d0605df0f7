"""Shared sort-key construction for cursors and ``$sort``.

Every component that orders documents — cursor ``sort()``, the aggregation
``$sort`` stage and the index entries — needs the same BSON-like total order
implemented by :func:`repro.documentstore.matching.compare_values`.  They all
order by :func:`~repro.documentstore.matching.collation_key`, which Python
compares natively; this module adds the composite-key builder for sort
specifications.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any, Callable

from .errors import OperationFailure
from .matching import collation_key, resolve_path_single

__all__ = ["document_sort_key", "normalize_sort_specification"]


class _Descending:
    """A collation key with inverted order (descending sort fields)."""

    __slots__ = ("key",)

    def __init__(self, value: Any) -> None:
        self.key = collation_key(value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Descending):
            return NotImplemented
        return self.key == other.key

    def __lt__(self, other: "_Descending") -> bool:
        return other.key < self.key


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
) -> Callable[[Mapping[str, Any]], tuple[Any, ...]]:
    """Compile a sort specification into a composite-key function.

    The returned function maps a document to a tuple of keys, one per sort
    field, with descending fields inverted — so a single stable ``sorted()``
    (or ``heapq.nsmallest``) pass reproduces the multi-field semantics.
    """
    pairs = normalize_sort_specification(specification)
    wrapped = [
        (field_path, collation_key if direction == 1 else _Descending)
        for field_path, direction in pairs
    ]

    def key(document: Mapping[str, Any]) -> tuple[Any, ...]:
        return tuple(
            wrapper(resolve_path_single(document, field_path))
            for field_path, wrapper in wrapped
        )

    return key
