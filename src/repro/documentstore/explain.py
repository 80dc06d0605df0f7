"""The unified ``explain()`` schema shared by every query surface.

Before this module each surface grew its own explain shape —
``Cursor.explain()``, ``Collection.explain_find`` /
``explain_aggregate``, and the router's variants all returned similar
but differently-keyed documents.  The redesigned entry point is one
method everywhere::

    collection.explain(query_or_pipeline, verbosity="queryPlanner")

available with the same signature — and the same document shape — on a
stand-alone :class:`~repro.documentstore.collection.Collection`, a
sharded ``RoutedCollection``, and a served ``RemoteCollection``.  The
old names survive as thin deprecated aliases returning their historical
shapes.

Schema (version 1)::

    {
      "explainVersion": 1,
      "surface":   "standalone" | "sharded" | "served",
      "operation": "find" | "aggregate",
      "verbosity": "queryPlanner" | "executionStats",
      "namespace": "db.collection",
      "queryPlanner": {
        "winningPlan": {...},     # access path (COLLSCAN/IXSCAN/
                                  # VECTOR_SEARCH/SINGLE_SHARD/SHARD_MERGE)
        "sortMode": str | None,   # indexOrder/topK/sortMaterialize/
                                  # streamingKWayMerge/None
        "spec": {...},            # the find spec, or {"pipeline": [...]}
      },
      "shards": {shard_id: {...}},  # per-shard plans ({} standalone)
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

__all__ = [
    "EXPLAIN_VERSION",
    "VERBOSITIES",
    "TOP_LEVEL_KEYS",
    "PLANNER_KEYS",
    "EXECUTION_KEYS",
    "validate_verbosity",
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


def build_execution_stats(
    *,
    n_returned: int,
    stages: Sequence[Mapping[str, Any]] | None = None,
    shards: Mapping[str, Any] | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """An ``executionStats`` section with the canonical keys always present."""
    section: dict[str, Any] = {
        "nReturned": int(n_returned),
        "stages": [dict(stage) for stage in stages or []],
        "shards": dict(shards or {}),
    }
    if extra:
        section.update(extra)
    return section


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
