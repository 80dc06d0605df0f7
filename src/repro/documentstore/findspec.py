"""The read-path specification shared by every backend.

A :class:`FindSpec` is the *complete* description of one ``find``: filter,
projection, sort, skip, limit, batch size, and index hint.  Cursors collect
chained options into a spec and hand the finished spec to their executor in
one piece, so the executor — a stand-alone :class:`Collection` or the
sharded :class:`RoutedCollection` — sees every option before it touches a single
document and can plan accordingly (serve the sort from an index, run a
bounded top-k, or push projection/sort/``skip+limit`` to the shards).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from typing import Any

from .errors import OperationFailure
from .ordering import normalize_sort_specification

__all__ = ["FindSpec", "projection_preserves_fields"]


@dataclass(frozen=True)
class FindSpec:
    """Immutable description of a ``find`` operation.

    ``limit=None`` means unbounded; ``sort`` is a normalized tuple of
    ``(field, direction)`` pairs or ``None``; ``hint`` names an index the
    planner must use (or ``None`` for automatic selection).
    """

    filter: Mapping[str, Any] | None = None
    projection: Mapping[str, Any] | None = None
    sort: tuple[tuple[str, int], ...] | None = None
    skip: int = 0
    limit: int | None = None
    batch_size: int | None = None
    hint: str | None = None

    @classmethod
    def create(
        cls,
        filter: Mapping[str, Any] | None = None,
        projection: Mapping[str, Any] | None = None,
        sort: str | Sequence[tuple[str, int]] | Mapping[str, int] | None = None,
        skip: int = 0,
        limit: int | None = None,
        batch_size: int | None = None,
        hint: str | None = None,
    ) -> "FindSpec":
        """Build a validated spec from the flexible forms ``find()`` accepts."""
        spec = cls(filter=filter, projection=projection)
        if sort is not None:
            spec = spec.with_sort(sort)
        if skip:
            spec = spec.with_skip(skip)
        if limit:
            spec = spec.with_limit(limit)
        if batch_size is not None:
            spec = spec.with_batch_size(batch_size)
        if hint is not None:
            spec = spec.with_hint(hint)
        return spec

    # -- chaining (used by Cursor) ------------------------------------------

    def with_sort(
        self, key_or_list: str | Sequence[tuple[str, int]] | Mapping[str, int], direction: int = 1
    ) -> "FindSpec":
        """Return a copy with the sort replaced (field name or pair list)."""
        if isinstance(key_or_list, str):
            key_or_list = [(key_or_list, direction)]
        return replace(self, sort=tuple(normalize_sort_specification(key_or_list)))

    def with_skip(self, count: int) -> "FindSpec":
        """Return a copy skipping the first *count* results."""
        if count < 0:
            raise OperationFailure("skip must be non-negative")
        return replace(self, skip=count)

    def with_limit(self, count: int) -> "FindSpec":
        """Return a copy returning at most *count* results (0 = unbounded)."""
        if count < 0:
            raise OperationFailure("limit must be non-negative")
        return replace(self, limit=count or None)

    def with_batch_size(self, count: int) -> "FindSpec":
        """Return a copy with the response batch size set."""
        if count <= 0:
            raise OperationFailure("batch_size must be positive")
        return replace(self, batch_size=count)

    def with_hint(self, index_name: str) -> "FindSpec":
        """Return a copy forcing the planner to use *index_name*."""
        return replace(self, hint=index_name)

    # -- derived specs -------------------------------------------------------

    @property
    def fetch_bound(self) -> int | None:
        """Documents any executor must produce to answer the spec, or ``None``."""
        if self.limit is None:
            return None
        return self.skip + self.limit

    def shard_spec(self) -> "FindSpec":
        """The spec the router pushes to each shard.

        Each shard evaluates the same filter and sort but returns at most
        ``skip + limit`` documents (the router cannot know how the skipped
        prefix distributes across shards, so every shard must return the
        full ``skip + limit`` head of its local order).  The projection is
        pushed only when it preserves the sort fields — otherwise the router
        could not recompute merge keys — and skip itself always happens at
        the router.
        """
        pushed_projection = self.projection
        if self.sort and not projection_preserves_fields(
            self.projection, [field for field, _direction in self.sort]
        ):
            pushed_projection = None
        return FindSpec(
            filter=self.filter,
            projection=pushed_projection,
            sort=self.sort,
            skip=0,
            limit=self.fetch_bound,
            batch_size=self.batch_size,
            hint=self.hint,
        )

    def describe(self) -> dict[str, Any]:
        """Return the spec as a plain dictionary (used by ``explain()``)."""
        return {
            "filter": dict(self.filter) if self.filter else {},
            "projection": dict(self.projection) if self.projection else None,
            "sort": [list(pair) for pair in self.sort] if self.sort else None,
            "skip": self.skip,
            "limit": self.limit,
            "batchSize": self.batch_size,
            "hint": self.hint,
        }


def projection_preserves_fields(
    projection: Mapping[str, Any] | None,
    fields: Sequence[str],
) -> bool:
    """True when projecting a document leaves every *fields* value intact.

    The router k-way merge recomputes sort keys on shard-projected documents,
    so a projection may only be pushed shard-side when none of the sort
    fields is dropped or partially reconstructed by it.
    """
    if not projection:
        return True
    inclusions = [k for k, v in projection.items() if k != "_id" and v]
    exclusions = [k for k, v in projection.items() if k != "_id" and not v]
    include_id = bool(projection.get("_id", True))
    for field in fields:
        if field == "_id":
            if not include_id:
                return False
            continue
        if inclusions:
            # The full value survives only under a path at or above the field.
            if not any(
                path == field or field.startswith(path + ".") for path in inclusions
            ):
                return False
        for path in exclusions:
            if path == field or field.startswith(path + ".") or path.startswith(field + "."):
                return False
    return True
