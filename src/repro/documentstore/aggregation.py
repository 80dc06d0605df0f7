"""Compiled, streaming aggregation pipeline.

Section 4.1.3.1 of the thesis translates the SQL constructs of the TPC-DS
queries to the aggregation framework using the operator analogy of Table 4.2:

==================  =======================
pipeline stage      SQL construct
==================  =======================
``$project``        select
``$match``          where / having
``$group``          group by
``$sort``           order by
``$sum`` / ``$avg`` aggregate functions
``$out``            insert into a table
==================  =======================

Those are the stages and accumulators this module runs; any other is refused
with :class:`InvalidPipelineError`.  It **compiles** a pipeline once —
validating stage shapes, lowering filters through
:func:`~repro.documentstore.matching.compile_matcher` and expressions through
:func:`~repro.documentstore.expressions.compile_expression` — and then
**streams** documents through the compiled stages:

* every stage is an ``Iterator -> Iterator`` transform, so ``$match`` and
  ``$project`` never materialize intermediate lists (``$group``, ``$sort``
  and ``$out`` are inherent barriers);
* a logical optimizer merges adjacent ``$match`` stages and moves ``$match``
  ahead of ``$sort``, which cannot change the result;
* per-stage counters (documents examined / returned) can be collected for
  ``explain()``.

The same executor runs on a stand-alone collection and, in the sharded
cluster, on each shard followed by a merge stage on the router (see
:mod:`repro.sharding.router`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterator

from .bson import deep_copy_document
from .errors import InvalidPipelineError, OperationFailure
from .expressions import compile_expression
from .matching import collation_key, compile_matcher, compile_path
from .objectid import ObjectId
from .ordering import document_sort_key

__all__ = [
    "compile_pipeline",
    "optimize_pipeline",
    "split_pipeline_for_shards",
    "validate_user_pipeline",
    "ShardSplit",
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
    """Incremental ``$sum`` or ``$avg`` for one group field (compiled expression).

    In the ``"partial"`` phase (on a shard) ``$avg`` leaves ``[sum, count]``
    of its numbers and ``$sum`` its sum; the ``"merge"`` phase (on the
    router) combines those states, one per shard.
    """

    __slots__ = ("operator", "evaluate", "values", "phase")

    def __init__(
        self,
        operator: str,
        evaluate: Callable[[Mapping[str, Any]], Any],
        phase: str | None = None,
    ) -> None:
        self.operator = operator
        self.evaluate = evaluate
        self.values: list[Any] = []
        self.phase = phase

    def add(self, document: Mapping[str, Any]) -> None:
        self.values.append(self.evaluate(document))

    def result(self) -> Any:
        if self.phase == "merge":
            states = self.values
            if self.operator == "$sum":
                return sum(states)
            count = sum(state[1] for state in states)
            return sum(state[0] for state in states) / count if count else None
        numeric = [
            value
            for value in self.values
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        ]
        if self.operator == "$sum":
            return sum(numeric) if numeric else 0
        if self.phase == "partial":
            return [sum(numeric), len(numeric)]
        return sum(numeric) / len(numeric) if numeric else None


GROUP_ACCUMULATORS = ("$sum", "$avg")


# ---------------------------------------------------------------------------
# Path helpers of $project
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
            projected = deep_copy_document(document)
            for key in exclusions:
                _delete_path(projected, key)
            if not include_id:
                projected.pop("_id", None)
            yield projected

    return project_exclusion


def _compile_group(specification: Mapping[str, Any]) -> _Transform:
    """``$group``, or one phase of it (``"$phase": "partial"`` / ``"merge"``).

    Groups are keyed by :func:`collation_key`: the ``values_equal`` classes
    of ``$match`` and ``distinct`` (``1`` and ``1.0`` one, ``True`` another),
    with all NaNs in one.
    """
    if "_id" not in specification:
        raise InvalidPipelineError("$group requires an _id expression")
    phase = specification.get("$phase")
    if phase == "merge":
        id_evaluator: Callable[[Mapping[str, Any]], Any] = itemgetter("_id")
    else:
        id_evaluator = compile_expression(specification["_id"])
    accumulator_specs: dict[str, tuple[str, Callable[[Mapping[str, Any]], Any]]] = {}
    for key, value in specification.items():
        if key in ("_id", "$phase"):
            continue
        if not isinstance(value, Mapping) or len(value) != 1:
            raise InvalidPipelineError(
                f"group field {key!r} must be a single-accumulator document"
            )
        operator, expression = next(iter(value.items()))
        if operator not in GROUP_ACCUMULATORS:
            raise InvalidPipelineError(f"unknown accumulator {operator!r}")
        evaluate = itemgetter(key) if phase == "merge" else compile_expression(expression)
        accumulator_specs[key] = (operator, evaluate)

    def transform(documents: Iterator[dict[str, Any]]) -> Iterator[dict[str, Any]]:
        groups: dict[Any, tuple[Any, dict[str, _Accumulator]]] = {}
        for document in documents:
            group_id = id_evaluator(document)
            marker = collation_key(group_id)
            entry = groups.get(marker)
            if entry is None:
                entry = groups[marker] = (
                    group_id,
                    {
                        key: _Accumulator(operator, evaluate, phase)
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


def _compile_sort(specification: Mapping[str, Any]) -> _Transform:
    key = document_sort_key(list(specification.items()))

    def transform(documents: Iterator[dict[str, Any]]) -> Iterator[dict[str, Any]]:
        return iter(sorted(documents, key=key))

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


def validate_user_pipeline(pipeline: Sequence[Mapping[str, Any]]) -> None:
    """Refuse a caller's ``$group`` field name that starts with ``$``, as MongoDB does.

    ``"$phase"`` marks the router's own halves of a split ``$group``
    (:func:`split_pipeline_for_shards`), so only the ``aggregate`` entry
    points check: the shards run those halves.
    """
    for stage in pipeline:
        group = stage.get("$group") if isinstance(stage, Mapping) else None
        for key in group if isinstance(group, Mapping) else ():
            if isinstance(key, str) and key.startswith("$"):
                raise InvalidPipelineError(f"$group field {key!r} must not start with '$'")


def _merge_match_specs(first: Any, second: Any) -> Mapping[str, Any]:
    if not first:
        return second or {}
    if not second:
        return first
    return {"$and": [first, second]}


def optimize_pipeline(
    pipeline: Sequence[Mapping[str, Any]],
) -> list[Mapping[str, Any]]:
    """Return a semantically equivalent, cheaper-to-execute stage list.

    Rewrites applied (both result-preserving): adjacent ``$match`` stages
    merge into one ``$and`` filter, and ``$match`` moves ahead of ``$sort``
    (a stable sort keeps the order).
    """
    stages = _validate_pipeline(pipeline)
    changed = True
    while changed:
        changed = False
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
        # Push $match toward the source.
        for index in range(1, len(stages)):
            if "$match" in stages[index] and "$sort" in stages[index - 1]:
                stages[index - 1], stages[index] = stages[index], stages[index - 1]
                changed = True
                break
    return stages


# ---------------------------------------------------------------------------
# Pipeline compilation and execution
# ---------------------------------------------------------------------------

class CompiledPipeline:
    """Streaming stage transforms lowered from ``spec``, the validated (and rewritten) stages."""

    def __init__(self, stages: list[CompiledStage], spec: list[Mapping[str, Any]]) -> None:
        self.stages = stages
        self.spec = spec

    def run(
        self,
        documents: Iterable[Mapping[str, Any]],
        counters: list[StageStats] | None = None,
    ) -> list[dict[str, Any]]:
        """Stream *documents* through the compiled stages and return the results."""
        iterator: Iterator[dict[str, Any]] = (dict(document) for document in documents)
        for stage in self.stages:
            if counters is None:
                iterator = stage.transform(iterator)
            else:
                stats = StageStats(stage.label)
                counters.append(stats)
                iterator = _count_output(stage.transform(_count_input(iterator, stats)), stats)
        return list(iterator)


def compile_pipeline(
    pipeline: Sequence[Mapping[str, Any]],
    *,
    output_writer: Callable[[str, list[dict[str, Any]]], None] | None = None,
    optimize: bool = True,
) -> CompiledPipeline:
    """Validate, optimize, and lower *pipeline* into a :class:`CompiledPipeline`.

    ``output_writer`` receives ``($out target, documents)`` for a trailing
    ``$out`` stage.  ``optimize=False`` skips the logical rewrites (used by
    tests that compare both execution modes).
    """
    stages_spec = (
        optimize_pipeline(pipeline) if optimize else _validate_pipeline(pipeline)
    )
    compiled: list[CompiledStage] = []
    for index, stage in enumerate(stages_spec):
        operator, specification = next(iter(stage.items()))
        if operator == "$match":
            transform = _compile_match(specification)
        elif operator == "$project":
            transform = _compile_project(specification)
        elif operator == "$group":
            transform = _compile_group(specification)
        elif operator == "$sort":
            transform = _compile_sort(specification)
        elif operator == "$out":
            if index != len(stages_spec) - 1:
                raise InvalidPipelineError("$out must be the final pipeline stage")
            transform = _compile_out(specification, output_writer)
        else:
            raise InvalidPipelineError(f"unknown pipeline stage {operator!r}")
        compiled.append(CompiledStage(operator, transform))
    return CompiledPipeline(compiled, stages_spec)


@dataclass
class ShardSplit:
    """A pipeline divided between the shards and the router."""

    #: The pipeline every target shard runs on its slice.
    shard: list[Mapping[str, Any]]
    #: What the router runs over the gathered shard outputs.
    merge: list[Mapping[str, Any]]
    #: The order of every shard's output, which the router k-way merges on;
    #: ``None`` concatenates the outputs in target order.
    merge_sort: Mapping[str, Any] | None = None


def _two_phase_group(specification: Any) -> tuple[Mapping[str, Any], Mapping[str, Any]] | None:
    """The shard and router halves of a ``$group``, or ``None`` if it cannot split."""
    if not isinstance(specification, Mapping) or "_id" not in specification:
        return None
    operators = {
        next(iter(value), None) if isinstance(value, Mapping) else None
        for key, value in specification.items()
        if key != "_id"
    }
    if not operators <= set(GROUP_ACCUMULATORS):
        return None
    return (
        {"$group": {**specification, "$phase": "partial"}},
        {"$group": {**specification, "$phase": "merge"}},
    )


def split_pipeline_for_shards(pipeline: Sequence[Mapping[str, Any]]) -> ShardSplit:
    """Split an (optimized) pipeline into what each shard runs and the router's merge.

    The shards run the leading ``$match``/``$project`` stages, then a
    ``$sort`` (the router k-way merges the sorted outputs), then a ``$group``
    whose accumulators all combine: each shard ships one partial state per
    group, a sum for ``$sum`` and ``[sum, count]`` for ``$avg``.  Any other
    stage, and everything after it, runs on the router over every document
    the shards matched: the scatter–gather cost the paper measures for the
    broadcast queries (Section 4.3, observation ii).
    """
    stages = list(pipeline)
    index = next(
        (i for i, stage in enumerate(stages) if next(iter(stage)) not in ("$match", "$project")),
        len(stages),
    )
    shard, rest = stages[:index], stages[index:]
    sorted_by = None
    if rest and "$sort" in rest[0]:
        sorted_by = rest[0]["$sort"]
        shard.append(rest.pop(0))
    if rest and "$group" in rest[0]:
        halves = _two_phase_group(rest[0]["$group"])
        if halves is not None:
            return ShardSplit([*shard, halves[0]], [halves[1], *rest[1:]])
    return ShardSplit(shard, rest, sorted_by)
