"""The unified ``explain()`` schema shared by every query surface.

One question — which plan served this operation, and what did it cost —
has one entry point and one answer shape on every surface::

    collection.explain(query_or_pipeline, verbosity="queryPlanner")

on a stand-alone :class:`~repro.documentstore.collection.Collection`, a
sharded ``RoutedCollection`` and a served ``RemoteCollection``;
``find(...).explain()`` is ``collection.explain(that cursor's FindSpec)``.
Each surface builds the document below itself: the collection from its
planner, the router from its targeting decision plus every contacted
shard collection's own ``queryPlanner`` section, the server by asking its
backend and relabelling ``surface``.

Schema (version 1)::

    {
      "explainVersion": 1,
      "surface":   "standalone" | "sharded" | "served",
      "operation": "find" | "aggregate",
      "verbosity": "queryPlanner" | "executionStats",
      "namespace": "db.collection",
      "queryPlanner": {
        "winningPlan": {...},     # access path (COLLSCAN/IXSCAN/
                                  # SINGLE_SHARD/SHARD_MERGE)
        "sortMode": str | None,   # indexOrder/topK/sortMaterialize/
                                  # kWayMerge (routed find)/None
        "spec": {...},            # the find spec, or {"pipeline": [...]}
      },
      "shards": {shard_id: {...}},  # per-shard plans ({} standalone); for a
                                    # find, the shard's own queryPlanner
      # present if and only if verbosity == "executionStats":
      "executionStats": {
        "nReturned": int,
        "stages": [{...}],          # per-stage counters ([] for finds)
        "shards": {shard_id: {...}},  # per-shard runtime stats
      },
    }

Every key above is present on every surface for the same operation and
verbosity — that shape identity is asserted by the parity tests.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from .errors import OperationFailure
from .findspec import FindSpec

__all__ = [
    "EXPLAIN_VERSION",
    "VERBOSITIES",
    "TOP_LEVEL_KEYS",
    "PLANNER_KEYS",
    "EXECUTION_KEYS",
    "validate_verbosity",
    "explain_target",
    "build_explain",
    "build_execution_stats",
]

EXPLAIN_VERSION = 1

VERBOSITIES = ("queryPlanner", "executionStats")

#: Key sets of the schema, importable by shape-parity tests.
TOP_LEVEL_KEYS = frozenset(
    {"explainVersion", "surface", "operation", "verbosity", "namespace", "queryPlanner", "shards"}
)
PLANNER_KEYS = frozenset({"winningPlan", "sortMode", "spec"})
EXECUTION_KEYS = frozenset({"nReturned", "stages", "shards"})


def validate_verbosity(verbosity: str) -> str:
    """Return *verbosity* if valid, else raise a clear ``OperationFailure``."""
    if verbosity not in VERBOSITIES:
        raise OperationFailure(
            f"unknown explain verbosity {verbosity!r} "
            f"(expected one of {', '.join(VERBOSITIES)})"
        )
    return verbosity


def explain_target(
    query_or_pipeline: Mapping[str, Any] | Sequence[Mapping[str, Any]] | FindSpec | None,
) -> FindSpec | list[Mapping[str, Any]]:
    """What ``explain`` was asked about: a complete find spec, or a pipeline.

    A sequence of stages is an aggregation; a :class:`FindSpec` is itself;
    a filter mapping (or ``None``) is the find with only that filter.
    """
    if isinstance(query_or_pipeline, FindSpec):
        return query_or_pipeline
    if isinstance(query_or_pipeline, Sequence) and not isinstance(query_or_pipeline, (str, bytes)):
        return list(query_or_pipeline)
    return FindSpec(filter=query_or_pipeline)


def build_execution_stats(
    *,
    n_returned: int,
    stages: Sequence[Mapping[str, Any]] | None = None,
    shards: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """An ``executionStats`` section with the canonical keys always present."""
    return {
        "nReturned": int(n_returned),
        "stages": [dict(stage) for stage in stages or []],
        "shards": dict(shards or {}),
    }


def build_explain(
    *,
    surface: str,
    operation: str,
    verbosity: str,
    namespace: str,
    winning_plan: Mapping[str, Any],
    sort_mode: str | None = None,
    spec: Mapping[str, Any] | None = None,
    shards: Mapping[str, Any] | None = None,
    execution_stats: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble one schema-v1 explain document.

    ``execution_stats`` must be provided exactly when *verbosity* is
    ``"executionStats"`` — the builder enforces the schema invariant so no
    surface can drift.
    """
    validate_verbosity(verbosity)
    wants_stats = verbosity == "executionStats"
    if wants_stats != (execution_stats is not None):  # pragma: no cover - guard
        raise OperationFailure(
            "executionStats section must be present exactly at executionStats verbosity"
        )
    document: dict[str, Any] = {
        "explainVersion": EXPLAIN_VERSION,
        "surface": surface,
        "operation": operation,
        "verbosity": verbosity,
        "namespace": namespace,
        "queryPlanner": {
            "winningPlan": dict(winning_plan),
            "sortMode": sort_mode,
            "spec": dict(spec) if spec else {},
        },
        "shards": dict(shards or {}),
    }
    if execution_stats is not None:
        document["executionStats"] = dict(execution_stats)
    return document
