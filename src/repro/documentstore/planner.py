"""Query planner.

The planner decides, per query, whether a collection scan (COLLSCAN) or an
index scan (IXSCAN) serves the filter, using the index-prefix rule described
in Section 2.1.2 of the paper: a compound index on ``(a, b, c)`` can answer
queries on ``a``, ``(a, b)``, or ``(a, b, c)``.

Plans are purely advisory — the matcher is always applied afterwards, so a
plan only has to produce a superset of the matching documents.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import Any

from .errors import OperationFailure
from .indexes import Index
from .matching import distinct_values

__all__ = ["QueryPlan", "plan_query", "plan_find"]


@dataclass(frozen=True)
class QueryPlan:
    """The access path chosen for a query.

    For aggregation explains the plan additionally carries the per-stage
    execution counters of the streaming pipeline executor
    (``pipeline_stages``: one ``{stage, docsExamined, docsReturned}`` entry
    per executed stage, in optimized execution order).
    """

    stage: str  # "COLLSCAN" or "IXSCAN"
    index_name: str | None = None
    index_fields: tuple[str, ...] = ()
    candidate_ids: tuple[int, ...] | None = None
    documents_examined: int = 0
    pipeline_stages: tuple[Mapping[str, Any], ...] = ()
    #: True when iterating ``candidate_ids`` yields documents already in the
    #: requested sort order (the executor can stream instead of sorting).
    sort_served: bool = False
    #: Index scan direction when ``sort_served`` ("forward" or "backward").
    direction: str = "forward"

    def describe(self) -> dict[str, Any]:
        """Return an ``explain()``-style description of the plan."""
        description: dict[str, Any] = {"stage": self.stage}
        if self.stage == "IXSCAN":
            description["indexName"] = self.index_name
            description["keyPattern"] = list(self.index_fields)
            description["keysExamined"] = self.documents_examined
            if self.sort_served:
                description["sortServedByIndex"] = True
                description["direction"] = self.direction
        if self.pipeline_stages:
            description["pipelineStages"] = [dict(entry) for entry in self.pipeline_stages]
        return description

    def with_pipeline_stages(
        self, stages: Sequence[Mapping[str, Any]]
    ) -> "QueryPlan":
        """Return a copy of the plan carrying pipeline stage counters."""
        return replace(self, pipeline_stages=tuple(dict(entry) for entry in stages))


@dataclass
class _FieldConstraints:
    """Constraints extracted from a filter for a single field path."""

    equalities: list[Any] = field(default_factory=list)
    in_values: list[Any] | None = None
    lower: Any = None  # None is no bound: a None operand is an equality on None
    lower_inclusive: bool = True  # ($gte, $lte: the null bracket) or an empty $in ($gt, $lt)
    upper: Any = None
    upper_inclusive: bool = True
    has_range: bool = False

    @property
    def has_equality(self) -> bool:
        return bool(self.equalities) or self.in_values is not None


def _bounds_an_index(operand: Any) -> bool:
    """False for an array: a multikey index holds its elements, not the array tested."""
    return not isinstance(operand, (list, tuple))


def _extract_constraints(query: Mapping[str, Any] | None) -> dict[str, _FieldConstraints]:
    """Collect per-field constraints from the top level (and ``$and``) of *query*."""
    constraints: dict[str, _FieldConstraints] = {}
    if query:
        _visit(query, constraints)
    return constraints


def _visit(filter_document: Mapping[str, Any], constraints: dict[str, _FieldConstraints]) -> None:
    """Add the constraints of *filter_document* and its ``$and`` members to *constraints*.

    A module function: a self-recursive closure is a cycle only the cyclic collector frees.
    """
    for key, condition in filter_document.items():
        if key == "$and":
            for sub_filter in condition:
                _visit(sub_filter, constraints)
            continue
        if not isinstance(key, str) or key.startswith("$"):
            # $or cannot bound an index; the matcher refuses a non-string.
            continue
        entry = constraints.setdefault(key, _FieldConstraints())
        if isinstance(condition, Mapping) and any(op.startswith("$") for op in condition):
            for operator, operand in condition.items():
                if operator == "$eq" and _bounds_an_index(operand):
                    entry.equalities.append(operand)
                elif operator == "$in" and all(map(_bounds_an_index, operand)):
                    entry.in_values = distinct_values(operand)  # one lookup per value
                elif isinstance(operand, Mapping) or not _bounds_an_index(operand):
                    continue  # a document's index key is a marker only equality can use
                elif operand is None and operator in ("$gte", "$lte"):
                    entry.equalities.append(None)  # missing, null, [] and null elements
                elif operand is None and operator in ("$gt", "$lt"):
                    entry.in_values = []  # nothing sorts above or below null in its bracket
                elif operator in ("$gt", "$gte"):
                    entry.lower = operand
                    entry.lower_inclusive = operator == "$gte"
                    entry.has_range = True
                elif operator in ("$lt", "$lte"):
                    entry.upper = operand
                    entry.upper_inclusive = operator == "$lte"
                    entry.has_range = True
        elif _bounds_an_index(condition):
            entry.equalities.append(condition)


def plan_query(
    query: Mapping[str, Any] | None,
    indexes: Mapping[str, Index],
    collection_size: int,
) -> QueryPlan:
    """Choose an access path for *query* given the available *indexes*.

    An index can serve the filter when its leading field has an equality or
    ``$in`` constraint, or a range (hashed indexes cannot serve ranges).
    When several can, the one with the fewest candidates wins — counted
    with two bisects per prefix, ``$in`` value or range — then the one with
    the longest equality prefix, then the first; with none, the plan is a
    collection scan.
    """
    constraints = _extract_constraints(query)
    if not constraints or not indexes:
        return QueryPlan(stage="COLLSCAN", documents_examined=collection_size)

    usable: list[tuple[str, Index]] = []
    for name, index in indexes.items():
        leading = constraints.get(index.spec.fields[0])
        if leading is not None and (
            leading.has_equality or (leading.has_range and not index.spec.is_hashed)
        ):
            usable.append((name, index))
    if not usable:
        return QueryPlan(stage="COLLSCAN", documents_examined=collection_size)
    name, index = (
        min(usable, key=lambda item: _estimate(item[1], constraints))
        if len(usable) > 1
        else usable[0]  # nothing to choose: nothing counted
    )
    candidate_ids = _candidates_from_index(index, constraints)
    return QueryPlan(
        stage="IXSCAN",
        index_name=name,
        index_fields=index.spec.fields,
        candidate_ids=tuple(candidate_ids),
        documents_examined=len(candidate_ids),
    )


def plan_find(
    query: Mapping[str, Any] | None,
    sort: Sequence[tuple[str, int]] | None,
    indexes: Mapping[str, Index],
    collection_size: int,
    *,
    hint: str | None = None,
    fetch_bound: int | None = None,
) -> QueryPlan:
    """Choose an access path for a complete find spec (filter *and* sort).

    Extends :func:`plan_query` with sort awareness: when the filter cannot
    use an index but an index's key order reproduces the requested sort, the
    plan scans that index in order (forward or backward) and marks
    ``sort_served`` so the executor can stream — and stop at ``skip+limit`` —
    instead of materializing and sorting every match.

    With an empty filter every scanned key is a match, so a known
    *fetch_bound* (``skip + limit``) caps the candidate snapshot itself —
    ``find_one(sort=...)`` touches one index entry, not the whole index.
    """
    usable = indexes
    if hint is not None:
        if hint not in indexes:
            raise OperationFailure(f"hint {hint!r} does not match an index")
        usable = {hint: indexes[hint]}
    plan = plan_query(query, usable, collection_size)
    if not sort:
        return plan
    if plan.stage == "IXSCAN" and not hint:
        return plan
    for name, index in usable.items():
        direction = _index_sort_direction(index, sort, collection_size)
        if direction is None:
            continue
        ordered = index.ordered_doc_ids(reverse=direction == "backward")
        if not query and fetch_bound is not None:
            ordered = itertools.islice(ordered, fetch_bound)
        candidate_ids = tuple(ordered)
        return QueryPlan(
            stage="IXSCAN",
            index_name=name,
            index_fields=index.spec.fields,
            candidate_ids=candidate_ids,
            documents_examined=len(candidate_ids),
            sort_served=True,
            direction=direction,
        )
    return plan


def _index_sort_direction(
    index: Index,
    sort: Sequence[tuple[str, int]],
    collection_size: int,
) -> str | None:
    """Scan direction if *index* can serve *sort*, else ``None``.

    The index qualifies when the sort fields are a prefix of its key fields
    with one uniform direction, it is not hashed, every document contributes
    exactly one entry (no multikey fan-out, so every document appears once),
    and every stored key orders exactly like the document value it came from.
    """
    if index.spec.is_hashed or not index.order_safe:
        return None
    if len(index) != collection_size:
        return None
    fields = tuple(field_path for field_path, _direction in sort)
    if index.spec.fields[: len(fields)] != fields:
        return None
    directions = {direction for _field_path, direction in sort}
    if directions == {1}:
        return "forward"
    if directions == {-1}:
        return "backward"
    return None


def _prefixes(
    index: Index, constraints: Mapping[str, _FieldConstraints]
) -> list[tuple[Any, ...]] | None:
    """The key prefixes equality and ``$in`` constraints pin on *index*.

    Each ``$in`` fans out into one prefix per value; ``None`` when the
    leading field has no equality (the index then serves its range).
    """
    prefix_values: list[list[Any]] = []
    for field_path in index.spec.fields:
        entry = constraints.get(field_path)
        if entry is None or not entry.has_equality:
            break
        prefix_values.append(entry.equalities[:1] or entry.in_values)
    return list(itertools.product(*prefix_values)) if prefix_values else None


def _range_bounds(index: Index, constraints: Mapping[str, _FieldConstraints]) -> dict[str, Any]:
    """The keyword arguments of the range *index* scans for its leading field.

    On a multikey index each bound may be met by a different element of one
    document (``{$gt: 1, $lt: 0}`` matches ``[2, -1]``), so intersecting them
    on one entry would lose matches; as MongoDB does, such an index is
    bounded by one operand only — the lower, to the end of its type bracket.
    """
    leading = constraints[index.spec.fields[0]]
    if leading.lower is not None and not index.order_safe:
        return {"lower": leading.lower, "include_lower": leading.lower_inclusive}
    return {
        "lower": leading.lower,
        "upper": leading.upper,
        "include_lower": leading.lower_inclusive,
        "include_upper": leading.upper_inclusive,
    }


def _estimate(index: Index, constraints: Mapping[str, _FieldConstraints]) -> tuple[int, int]:
    """``(entries _candidates_from_index would read, −equality-prefix length)``."""
    prefixes = _prefixes(index, constraints)
    if prefixes is not None:
        return sum(map(index.count_prefix, prefixes)), -len(prefixes[0]) if prefixes else 0
    return index.count_range(**_range_bounds(index, constraints)), 0


def _candidates_from_index(
    index: Index,
    constraints: Mapping[str, _FieldConstraints],
) -> list[int]:
    """Candidate doc ids from *index*, each once (multikey entries repeat them)."""
    prefixes = _prefixes(index, constraints)
    if prefixes is not None:
        ids = [doc_id for prefix in prefixes for doc_id in index.prefix_lookup(prefix)]
    else:
        ids = index.range_lookup(**_range_bounds(index, constraints))
    return list(dict.fromkeys(ids))
