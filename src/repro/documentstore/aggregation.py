"""Compiled, streaming aggregation pipeline.

Section 4.1.3.1 of the thesis translates the SQL constructs of the TPC-DS
queries to the aggregation framework using the operator analogy of Table 4.2:

==================  =======================
pipeline stage      SQL construct
==================  =======================
``$project``        select
``$match``          where / having
``$limit``          limit
``$group``          group by
``$sort``           order by
``$sum`` / ``$avg`` aggregate functions
==================  =======================

This module **compiles** a pipeline once — validating stage shapes, lowering
filters through :func:`~repro.documentstore.matching.compile_matcher` and
expressions through
:func:`~repro.documentstore.expressions.compile_expression` — and then
**streams** documents through the compiled stages:

* every stage is an ``Iterator -> Iterator`` transform, so ``$match`` /
  ``$project`` / ``$unwind`` / ``$limit`` never materialize intermediate
  lists (``$group``, ``$sort``, ``$count``, and ``$out`` are inherent
  barriers);
* a logical optimizer merges adjacent ``$match`` stages and pushes
  ``$match`` (and inclusion-only ``$project``) ahead of ``$sort`` /
  ``$unwind`` / ``$lookup`` when that provably cannot change the result;
* ``$sort`` immediately followed by ``$limit`` (optionally with a ``$skip``
  in between) runs as a bounded ``heapq`` top-k selection instead of a full
  sort of a fully materialized intermediate list;
* per-stage counters (documents examined / returned) can be collected for
  ``explain()``.

The same executor runs on a stand-alone collection and, in the sharded
cluster, on each shard followed by a merge stage on the router (see
:mod:`repro.sharding.router`).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterator

from .bson import deep_copy_document
from .errors import InvalidPipelineError, OperationFailure
from .expressions import compile_expression
from .matching import collation_key, compile_matcher, compile_path, values_equal
from .objectid import ObjectId
from .ordering import document_sort_key

__all__ = [
    "run_pipeline",
    "compile_pipeline",
    "optimize_pipeline",
    "split_pipeline_for_shards",
    "CompiledPipeline",
    "StageStats",
    "GROUP_ACCUMULATORS",
]


# ---------------------------------------------------------------------------
# Per-stage execution statistics (explain counters)
# ---------------------------------------------------------------------------

@dataclass
class StageStats:
    """Documents examined / returned by one executed pipeline stage."""

    stage: str
    docs_examined: int = 0
    docs_returned: int = 0

    def as_dict(self) -> dict[str, Any]:
        """Return the ``explain()``-style description of the stage."""
        return {
            "stage": self.stage,
            "docsExamined": self.docs_examined,
            "docsReturned": self.docs_returned,
        }


def _count_input(iterator: Iterator[Any], stats: StageStats) -> Iterator[Any]:
    for item in iterator:
        stats.docs_examined += 1
        yield item


def _count_output(iterator: Iterator[Any], stats: StageStats) -> Iterator[Any]:
    for item in iterator:
        stats.docs_returned += 1
        yield item


# ---------------------------------------------------------------------------
# $group accumulators
# ---------------------------------------------------------------------------

class _Accumulator:
    """Incremental accumulator for one group field (compiled expression)."""

    __slots__ = ("operator", "evaluate", "values")

    def __init__(self, operator: str, evaluate: Callable[[Mapping[str, Any]], Any]) -> None:
        self.operator = operator
        self.evaluate = evaluate
        self.values: list[Any] = []

    def add(self, document: Mapping[str, Any]) -> None:
        self.values.append(self.evaluate(document))

    def result(self) -> Any:
        numeric = [
            value
            for value in self.values
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        ]
        if self.operator == "$sum":
            return sum(numeric) if numeric else 0
        if self.operator == "$avg":
            return sum(numeric) / len(numeric) if numeric else None
        if self.operator == "$min":
            present = [value for value in self.values if value is not None]
            return min(present, default=None, key=collation_key)
        if self.operator == "$max":
            present = [value for value in self.values if value is not None]
            return max(present, default=None, key=collation_key)
        if self.operator == "$first":
            return self.values[0] if self.values else None
        if self.operator == "$last":
            return self.values[-1] if self.values else None
        if self.operator == "$push":
            return list(self.values)
        if self.operator == "$addToSet":
            unique: list[Any] = []
            for value in self.values:
                if not any(values_equal(value, existing) for existing in unique):
                    unique.append(value)
            return unique
        if self.operator == "$count":
            return len(self.values)
        if self.operator == "$stdDevPop":
            if not numeric:
                return None
            mean = sum(numeric) / len(numeric)
            return (sum((x - mean) ** 2 for x in numeric) / len(numeric)) ** 0.5
        raise InvalidPipelineError(f"unknown accumulator {self.operator!r}")


GROUP_ACCUMULATORS = (
    "$sum",
    "$avg",
    "$min",
    "$max",
    "$first",
    "$last",
    "$push",
    "$addToSet",
    "$count",
    "$stdDevPop",
)


# ---------------------------------------------------------------------------
# Path helpers shared by $project / $addFields / $unwind / $lookup
# ---------------------------------------------------------------------------

def _assign_path(document: dict[str, Any], path: str, value: Any) -> None:
    parts = path.split(".")
    node = document
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def _delete_path(document: dict[str, Any], path: str) -> None:
    parts = path.split(".")
    node: Any = document
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            return
        node = node[part]
    if isinstance(node, dict):
        node.pop(parts[-1], None)


# ---------------------------------------------------------------------------
# Stage compilers: specification -> (Iterator -> Iterator) transform
# ---------------------------------------------------------------------------

_Transform = Callable[[Iterator[dict[str, Any]]], Iterator[dict[str, Any]]]


class CompiledStage:
    """One lowered pipeline stage: a display label plus a stream transform."""

    __slots__ = ("label", "transform")

    def __init__(self, label: str, transform: _Transform) -> None:
        self.label = label
        self.transform = transform


def _compile_match(specification: Mapping[str, Any]) -> _Transform:
    predicate = compile_matcher(specification)

    def transform(documents: Iterator[dict[str, Any]]) -> Iterator[dict[str, Any]]:
        return (document for document in documents if predicate(document))

    return transform


def _compile_project(specification: Mapping[str, Any]) -> _Transform:
    if not specification:
        raise InvalidPipelineError("$project requires at least one field")
    include_id = bool(specification.get("_id", 1))
    has_inclusion = any(
        value not in (0, False)
        for key, value in specification.items()
        if key != "_id"
    )

    if has_inclusion:
        id_value = specification.get("_id", 1)
        id_evaluator = (
            compile_expression(id_value)
            if "_id" in specification and id_value not in (0, False, 1, True)
            else None
        )
        included: list[tuple[str, Callable[[Any], list[Any]] | None, Any]] = []
        for key, value in specification.items():
            if key == "_id" or value in (0, False):
                continue
            if value in (1, True):
                included.append((key, compile_path(key), None))
            else:
                included.append((key, None, compile_expression(value)))

        def project_inclusion(documents: Iterator[dict[str, Any]]) -> Iterator[dict[str, Any]]:
            for document in documents:
                projected: dict[str, Any] = {}
                if include_id and "_id" in document:
                    projected["_id"] = document["_id"]
                if id_evaluator is not None:
                    projected["_id"] = id_evaluator(document)
                for key, resolver, evaluator in included:
                    if resolver is not None:
                        resolved = resolver(document)
                        if resolved:
                            _assign_path(projected, key, deep_copy_document(resolved[0]))
                    else:
                        _assign_path(projected, key, evaluator(document))
                yield projected

        return project_inclusion

    exclusions = [key for key, value in specification.items() if value in (0, False)]

    def project_exclusion(documents: Iterator[dict[str, Any]]) -> Iterator[dict[str, Any]]:
        for document in documents:
            projected = deep_copy_document(dict(document))
            for key in exclusions:
                _delete_path(projected, key)
            if not include_id:
                projected.pop("_id", None)
            yield projected

    return project_exclusion


def _compile_add_fields(specification: Mapping[str, Any]) -> _Transform:
    fields = [(key, compile_expression(expression)) for key, expression in specification.items()]

    def transform(documents: Iterator[dict[str, Any]]) -> Iterator[dict[str, Any]]:
        for document in documents:
            copy = deep_copy_document(dict(document))
            for key, evaluator in fields:
                _assign_path(copy, key, evaluator(document))
            yield copy

    return transform


def _compile_group(specification: Mapping[str, Any]) -> _Transform:
    if "_id" not in specification:
        raise InvalidPipelineError("$group requires an _id expression")
    id_evaluator = compile_expression(specification["_id"])
    accumulator_specs: dict[str, tuple[str, Callable[[Mapping[str, Any]], Any]]] = {}
    for key, value in specification.items():
        if key == "_id":
            continue
        if not isinstance(value, Mapping) or len(value) != 1:
            raise InvalidPipelineError(
                f"group field {key!r} must be a single-accumulator document"
            )
        operator, expression = next(iter(value.items()))
        if operator not in GROUP_ACCUMULATORS:
            raise InvalidPipelineError(f"unknown accumulator {operator!r}")
        accumulator_specs[key] = (operator, compile_expression(expression))

    def transform(documents: Iterator[dict[str, Any]]) -> Iterator[dict[str, Any]]:
        groups: dict[str, tuple[Any, dict[str, _Accumulator]]] = {}
        for document in documents:
            group_id = id_evaluator(document)
            marker = repr(group_id)
            entry = groups.get(marker)
            if entry is None:
                entry = groups[marker] = (
                    group_id,
                    {
                        key: _Accumulator(operator, evaluate)
                        for key, (operator, evaluate) in accumulator_specs.items()
                    },
                )
            for accumulator in entry[1].values():
                accumulator.add(document)
        for group_id, accumulators in groups.values():
            row = {"_id": group_id}
            for key, accumulator in accumulators.items():
                row[key] = accumulator.result()
            yield row

    return transform


def _unwind_specification(specification: Any) -> tuple[str, bool]:
    if isinstance(specification, Mapping):
        path = specification["path"]
        preserve_empty = bool(specification.get("preserveNullAndEmptyArrays", False))
    else:
        path = specification
        preserve_empty = False
    if not isinstance(path, str) or not path.startswith("$"):
        raise InvalidPipelineError("$unwind path must start with '$'")
    return path[1:], preserve_empty


def _compile_unwind(specification: Any) -> _Transform:
    field_path, preserve_empty = _unwind_specification(specification)
    resolver = compile_path(field_path)

    def transform(documents: Iterator[dict[str, Any]]) -> Iterator[dict[str, Any]]:
        for document in documents:
            values = resolver(document)
            value = values[0] if values else None
            if isinstance(value, (list, tuple)):
                if not value and preserve_empty:
                    yield deep_copy_document(dict(document))
                for item in value:
                    copy = deep_copy_document(dict(document))
                    _assign_path(copy, field_path, item)
                    yield copy
            elif value is None:
                if preserve_empty:
                    yield deep_copy_document(dict(document))
            else:
                yield deep_copy_document(dict(document))

    return transform


def _compile_lookup(
    specification: Mapping[str, Any],
    collection_resolver: Callable[[str], Iterable[Mapping[str, Any]]] | None,
) -> _Transform:
    if collection_resolver is None:
        raise OperationFailure("$lookup is not available in this context")
    foreign_name = specification["from"]
    local_resolver = compile_path(specification["localField"])
    foreign_resolver = compile_path(specification["foreignField"])
    output_field = specification["as"]

    def transform(documents: Iterator[dict[str, Any]]) -> Iterator[dict[str, Any]]:
        # Build a hash map over the foreign field for linear-time lookups.
        foreign_by_key: dict[str, list[dict[str, Any]]] = {}
        for foreign_document in collection_resolver(foreign_name):
            for key in foreign_resolver(foreign_document) or [None]:
                foreign_by_key.setdefault(repr(key), []).append(dict(foreign_document))
        for document in documents:
            copy = deep_copy_document(dict(document))
            local_values = local_resolver(document) or [None]
            joined: list[dict[str, Any]] = []
            for value in local_values:
                joined.extend(foreign_by_key.get(repr(value), []))
            _assign_path(copy, output_field, deep_copy_document(joined))
            yield copy

    return transform


def _compile_sort(specification: Mapping[str, Any]) -> _Transform:
    key = document_sort_key(list(specification.items()))

    def transform(documents: Iterator[dict[str, Any]]) -> Iterator[dict[str, Any]]:
        return iter(sorted(documents, key=key))

    return transform


def _compile_top_k(
    specification: Mapping[str, Any], count: int, offset: int = 0
) -> _Transform:
    """Fused ``$sort`` + ``$limit`` (+ ``$skip``): bounded heap selection.

    ``heapq.nsmallest`` keeps at most ``count`` documents in memory and is
    stable for equal keys, so the observable result is identical to a full
    sort followed by slicing — without materializing the sorted intermediate
    list.
    """
    key = document_sort_key(list(specification.items()))

    def transform(documents: Iterator[dict[str, Any]]) -> Iterator[dict[str, Any]]:
        top = heapq.nsmallest(count, documents, key=key)
        return iter(top[offset:])

    return transform


def _compile_replace_root(specification: Mapping[str, Any]) -> _Transform:
    evaluator = compile_expression(specification.get("newRoot"))

    def transform(documents: Iterator[dict[str, Any]]) -> Iterator[dict[str, Any]]:
        for document in documents:
            root = evaluator(document)
            if isinstance(root, dict):
                yield root

    return transform


def _compile_count(specification: Any) -> _Transform:
    field_name = str(specification)

    def transform(documents: Iterator[dict[str, Any]]) -> Iterator[dict[str, Any]]:
        total = sum(1 for _ in documents)
        yield {field_name: total}

    return transform


def _compile_out(
    specification: Any,
    output_writer: Callable[[str, list[dict[str, Any]]], None] | None,
) -> _Transform:
    if output_writer is None:
        raise OperationFailure("$out is not available in this context")
    target = str(specification)

    def transform(documents: Iterator[dict[str, Any]]) -> Iterator[dict[str, Any]]:
        batch: list[dict[str, Any]] = []
        for document in documents:
            document.setdefault("_id", ObjectId())
            batch.append(document)
        output_writer(target, batch)
        return
        yield  # pragma: no cover - makes this function a generator

    return transform


def _slice_transform(start: int, stop: int | None) -> _Transform:
    def transform(documents: Iterator[dict[str, Any]]) -> Iterator[dict[str, Any]]:
        return islice(documents, start, stop)

    return transform


# ---------------------------------------------------------------------------
# Pipeline validation and logical optimization
# ---------------------------------------------------------------------------

def _validate_pipeline(
    pipeline: Sequence[Mapping[str, Any]],
) -> list[Mapping[str, Any]]:
    validated: list[Mapping[str, Any]] = []
    for position, stage in enumerate(pipeline):
        if not isinstance(stage, Mapping) or len(stage) != 1:
            raise InvalidPipelineError(
                f"pipeline stage #{position} must be a single-key document: {stage!r}"
            )
        validated.append(stage)
    return validated


def _paths_overlap(path_a: str, path_b: str) -> bool:
    return (
        path_a == path_b
        or path_a.startswith(path_b + ".")
        or path_b.startswith(path_a + ".")
    )


def _match_referenced_paths(query: Any) -> set[str] | None:
    """Field paths a ``$match`` filter reads, or ``None`` when unanalyzable."""
    if not isinstance(query, Mapping):
        return None
    paths: set[str] = set()
    for key, condition in query.items():
        if key in ("$and", "$or", "$nor"):
            if not isinstance(condition, (list, tuple)):
                return None
            for sub_query in condition:
                sub_paths = _match_referenced_paths(sub_query)
                if sub_paths is None:
                    return None
                paths |= sub_paths
        elif key.startswith("$"):
            # $expr (and any future top-level operator) may read any field.
            return None
        else:
            paths.add(key)
    return paths


def _match_can_move_before_unwind(match_spec: Any, unwind_spec: Any) -> bool:
    try:
        unwind_path, _preserve = _unwind_specification(unwind_spec)
    except InvalidPipelineError:
        return False
    paths = _match_referenced_paths(match_spec)
    if paths is None:
        return False
    return not any(_paths_overlap(path, unwind_path) for path in paths)


def _match_can_move_before_lookup(match_spec: Any, lookup_spec: Any) -> bool:
    if not isinstance(lookup_spec, Mapping) or "as" not in lookup_spec:
        return False
    output_field = str(lookup_spec["as"])
    paths = _match_referenced_paths(match_spec)
    if paths is None:
        return False
    return not any(_paths_overlap(path, output_field) for path in paths)


def _project_can_move_before_unwind(project_spec: Any, unwind_spec: Any) -> bool:
    """True for inclusion-only top-level projections that keep the unwind path.

    Such a projection copies whole top-level fields verbatim, so projecting
    first and unwinding one of the kept fields afterwards yields exactly the
    documents of the original order — while narrowing every document before
    the per-element deep copies of ``$unwind``.
    """
    try:
        unwind_path, _preserve = _unwind_specification(unwind_spec)
    except InvalidPipelineError:
        return False
    if "." in unwind_path or not isinstance(project_spec, Mapping) or not project_spec:
        return False
    keeps_unwind_path = False
    for key, value in project_spec.items():
        if key == "_id":
            if value not in (0, False, 1, True):
                return False
            continue
        if "." in key or key.startswith("$") or value not in (1, True):
            return False
        if key == unwind_path:
            keeps_unwind_path = True
    return keeps_unwind_path


def _merge_match_specs(first: Any, second: Any) -> Mapping[str, Any]:
    if not first:
        return second or {}
    if not second:
        return first
    return {"$and": [first, second]}


def _vector_limit_cap(stages: Sequence[Mapping[str, Any]]) -> int | None:
    """The ``skip + limit`` bound directly after a leading ``$vectorSearch``.

    Only a *directly* adjacent ``$limit`` (optionally behind one ``$skip``)
    caps the stage's ``k`` — an intervening ``$match`` may discard results,
    so lowering ``k`` across it would under-return.
    """
    if len(stages) < 2:
        return None
    following = stages[1]
    if "$limit" in following:
        return max(int(following["$limit"]), 0)
    if "$skip" in following and len(stages) >= 3 and "$limit" in stages[2]:
        return max(int(following["$skip"]), 0) + max(int(stages[2]["$limit"]), 0)
    return None


def optimize_pipeline(
    pipeline: Sequence[Mapping[str, Any]],
) -> list[Mapping[str, Any]]:
    """Return a semantically equivalent, cheaper-to-execute stage list.

    Rewrites applied (all result-preserving):

    * adjacent ``$match`` stages merge into one ``$and`` filter;
    * ``$match`` moves ahead of ``$sort`` (stable sort keeps the order);
    * ``$match`` moves ahead of ``$unwind`` / ``$lookup`` when the filter
      does not read the unwound path / the joined output field;
    * inclusion-only top-level ``$project`` moves ahead of ``$unwind`` when
      it keeps the unwound field;
    * a leading ``$vectorSearch`` directly followed by ``$limit`` (optionally
      with one ``$skip`` in between) lowers its internal ``k`` to
      ``skip + limit`` — the vector-index analogue of the ``$sort``+``$limit``
      top-k fusion, so whole-input-consuming downstream stages never force
      the index to rank more candidates than the pipeline keeps.

    ``$match`` never moves ahead of ``$vectorSearch`` (or any other unknown
    stage): a post-search filter and a pre-search filter select different
    top-k sets by design.
    """
    stages = _validate_pipeline(pipeline)
    changed = True
    while changed:
        changed = False
        # Lower a leading $vectorSearch's k under a directly-adjacent $limit.
        if stages and "$vectorSearch" in stages[0]:
            cap = _vector_limit_cap(stages)
            specification = stages[0]["$vectorSearch"]
            if cap is not None and isinstance(specification, Mapping):
                current = specification.get("k", specification.get("limit"))
                if current is None or int(current) > cap:
                    lowered = dict(specification)
                    lowered.pop("limit", None)
                    lowered["k"] = cap
                    stages[0] = {"$vectorSearch": lowered}
                    changed = True
        # Merge adjacent $match stages.
        merged: list[Mapping[str, Any]] = []
        for stage in stages:
            if merged and "$match" in merged[-1] and "$match" in stage:
                merged[-1] = {
                    "$match": _merge_match_specs(merged[-1]["$match"], stage["$match"])
                }
                changed = True
            else:
                merged.append(stage)
        stages = merged
        # Push $match / $project toward the source.
        for index in range(1, len(stages)):
            stage, previous = stages[index], stages[index - 1]
            if "$match" in stage:
                movable = (
                    "$sort" in previous
                    or (
                        "$unwind" in previous
                        and _match_can_move_before_unwind(
                            stage["$match"], previous["$unwind"]
                        )
                    )
                    or (
                        "$lookup" in previous
                        and _match_can_move_before_lookup(
                            stage["$match"], previous["$lookup"]
                        )
                    )
                )
                if movable:
                    stages[index - 1], stages[index] = stage, previous
                    changed = True
                    break
            elif "$project" in stage:
                if "$unwind" in previous and _project_can_move_before_unwind(
                    stage["$project"], previous["$unwind"]
                ):
                    stages[index - 1], stages[index] = stage, previous
                    changed = True
                    break
    return stages


# ---------------------------------------------------------------------------
# Pipeline compilation and execution
# ---------------------------------------------------------------------------

class CompiledPipeline:
    """A validated pipeline lowered into streaming stage transforms."""

    def __init__(self, stages: list[CompiledStage]) -> None:
        self.stages = stages

    def stage_labels(self) -> list[str]:
        """The (optimized) stage labels, in execution order."""
        return [stage.label for stage in self.stages]

    def stream(
        self,
        documents: Iterable[dict[str, Any]],
        counters: list[StageStats] | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Lazily stream *documents* through the compiled stages."""
        iterator = iter(documents)
        for stage in self.stages:
            if counters is not None:
                stats = StageStats(stage.label)
                counters.append(stats)
                iterator = _count_output(
                    stage.transform(_count_input(iterator, stats)), stats
                )
            else:
                iterator = stage.transform(iterator)
        return iterator

    def run(
        self,
        documents: Iterable[Mapping[str, Any]],
        counters: list[StageStats] | None = None,
    ) -> list[dict[str, Any]]:
        """Execute the pipeline over *documents* and return the results."""
        source = (dict(document) for document in documents)
        return list(self.stream(source, counters=counters))


def compile_pipeline(
    pipeline: Sequence[Mapping[str, Any]],
    *,
    collection_resolver: Callable[[str], Iterable[Mapping[str, Any]]] | None = None,
    output_writer: Callable[[str, list[dict[str, Any]]], None] | None = None,
    optimize: bool = True,
    fuse: bool | None = None,
) -> CompiledPipeline:
    """Validate, optimize, and lower *pipeline* into a :class:`CompiledPipeline`.

    ``collection_resolver`` provides access to sibling collections for
    ``$lookup``; ``output_writer`` receives ``($out target, documents)`` for a
    trailing ``$out`` stage.  ``optimize=False`` skips the logical rewrites
    and — unless ``fuse`` overrides it — the top-k fusion (used by tests that
    compare both execution modes, and by callers that already ran
    :func:`optimize_pipeline` and only need lowering plus fusion).
    """
    if fuse is None:
        fuse = optimize
    stages_spec = (
        optimize_pipeline(pipeline) if optimize else _validate_pipeline(pipeline)
    )
    compiled: list[CompiledStage] = []
    index = 0
    total = len(stages_spec)
    while index < total:
        stage = stages_spec[index]
        operator, specification = next(iter(stage.items()))
        if operator == "$match":
            compiled.append(CompiledStage("$match", _compile_match(specification)))
        elif operator == "$project":
            compiled.append(CompiledStage("$project", _compile_project(specification)))
        elif operator in ("$addFields", "$set"):
            compiled.append(CompiledStage(operator, _compile_add_fields(specification)))
        elif operator == "$group":
            compiled.append(CompiledStage("$group", _compile_group(specification)))
        elif operator == "$sort":
            fused = None
            if fuse and index + 1 < total:
                following = stages_spec[index + 1]
                if "$limit" in following:
                    limit = int(following["$limit"])
                    fused = (_compile_top_k(specification, max(limit, 0)), 2)
                elif (
                    "$skip" in following
                    and index + 2 < total
                    and "$limit" in stages_spec[index + 2]
                ):
                    skip = max(int(following["$skip"]), 0)
                    limit = max(int(stages_spec[index + 2]["$limit"]), 0)
                    fused = (_compile_top_k(specification, skip + limit, skip), 3)
            if fused is not None:
                transform, consumed = fused
                compiled.append(CompiledStage("$sort+$limit", transform))
                index += consumed
                continue
            compiled.append(CompiledStage("$sort", _compile_sort(specification)))
        elif operator == "$limit":
            compiled.append(
                CompiledStage("$limit", _slice_transform(0, max(int(specification), 0)))
            )
        elif operator == "$skip":
            compiled.append(
                CompiledStage("$skip", _slice_transform(max(int(specification), 0), None))
            )
        elif operator == "$unwind":
            compiled.append(CompiledStage("$unwind", _compile_unwind(specification)))
        elif operator == "$count":
            compiled.append(CompiledStage("$count", _compile_count(specification)))
        elif operator == "$lookup":
            compiled.append(
                CompiledStage(
                    "$lookup", _compile_lookup(specification, collection_resolver)
                )
            )
        elif operator == "$sample":
            size = int(specification.get("size", 1))
            compiled.append(
                CompiledStage("$sample", _slice_transform(0, max(size, 0)))
            )
        elif operator == "$replaceRoot":
            compiled.append(
                CompiledStage("$replaceRoot", _compile_replace_root(specification))
            )
        elif operator == "$out":
            if index != total - 1:
                raise InvalidPipelineError("$out must be the final pipeline stage")
            compiled.append(
                CompiledStage("$out", _compile_out(specification, output_writer))
            )
        elif operator == "$vectorSearch":
            # Collections peel a *leading* $vectorSearch off and run it
            # against the vector index before the compiled stages; one that
            # reaches the compiler is mid-pipeline or in a context with no
            # vector indexes (e.g. bare run_pipeline).
            raise InvalidPipelineError(
                "$vectorSearch must be the first stage of a collection pipeline"
            )
        else:
            raise InvalidPipelineError(f"unknown pipeline stage {operator!r}")
        index += 1
    return CompiledPipeline(compiled)


def run_pipeline(
    documents: Iterable[Mapping[str, Any]],
    pipeline: Sequence[Mapping[str, Any]],
    *,
    collection_resolver: Callable[[str], Iterable[Mapping[str, Any]]] | None = None,
    output_writer: Callable[[str, list[dict[str, Any]]], None] | None = None,
    counters: list[StageStats] | None = None,
    optimize: bool = True,
    fuse: bool | None = None,
) -> list[dict[str, Any]]:
    """Execute *pipeline* over *documents* and return the resulting documents.

    ``collection_resolver`` provides access to sibling collections for
    ``$lookup``; ``output_writer`` receives ``($out target, documents)`` when
    the pipeline ends with an ``$out`` stage (in which case an empty list is
    returned, mirroring driver behaviour).  When *counters* is a list, one
    :class:`StageStats` per executed stage is appended to it.
    """
    compiled = compile_pipeline(
        pipeline,
        collection_resolver=collection_resolver,
        output_writer=output_writer,
        optimize=optimize,
        fuse=fuse,
    )
    return compiled.run(documents, counters=counters)


def split_pipeline_for_shards(
    pipeline: Sequence[Mapping[str, Any]],
) -> tuple[list[Mapping[str, Any]], list[Mapping[str, Any]]]:
    """Split a pipeline into a per-shard part and a router merge part.

    The leading ``$match`` stages (and any following ``$project`` /
    ``$addFields`` / ``$unwind``) can run on each shard independently; the
    first ``$group`` / ``$sort`` / ``$limit`` and everything after it must run
    on the router over the merged results, because those stages need a global
    view of the data.  This is the scatter–gather behaviour whose cost the
    paper measures for the broadcast queries (Section 4.3, observation ii).
    """
    if pipeline and "$vectorSearch" in pipeline[0]:
        # Each shard runs the full vector search with the *global* k over its
        # slice; every later stage must see the globally merged, re-ranked
        # top-k, so only the search stage itself runs shard-side.
        return [pipeline[0]], list(pipeline[1:])
    shard_stages: list[Mapping[str, Any]] = []
    merge_stages: list[Mapping[str, Any]] = []
    splitting = True
    for stage in pipeline:
        operator = next(iter(stage))
        if splitting and operator in ("$match", "$project", "$addFields", "$set", "$unwind"):
            shard_stages.append(stage)
        else:
            splitting = False
            merge_stages.append(stage)
    return shard_stages, merge_stages
