"""In-memory spans recorded from outside the program.

The store has no spans of its own yet (ROADMAP item 2), so the traced pass of
the benchmark records them here, around calls into the public functions of
each layer.  A span is ``(name, start, end, parent, op_id)``; spans of one
operation share ``op_id``; they are kept in a list and written as JSONL when
the run ends.  A layer's *self time* is its span's duration minus the part of
it its child spans cover.

:class:`TimedDatabase` / :class:`TimedCollection` are the duck-typed proxies
handed to ``repro.core`` in place of a database handle: every collection call
``core`` makes becomes a ``<layer>.<Class>.<method>`` span under the span of
the query (or load phase) that made it.  ``find`` returns a lazy cursor in the
store; the proxy's cursor runs it to exhaustion inside the span, so the span
covers the work and not the caller's loop body.
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """Append-only span list with a parent stack (one client thread)."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._op_id = 0

    @contextmanager
    def span(self, name: str, *, new_op: bool = False) -> Iterator[dict[str, Any]]:
        """Record one span; ``new_op`` starts a new operation id (a root)."""
        if new_op:
            self._op_id += 1
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op_id": self._op_id,
        }
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def call(self, name: str, function: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``function`` inside a span called *name*."""
        with self.span(name):
            return function(*args, **kwargs)

    def write_jsonl(self, path: pathlib.Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **span}) + "\n")


class _TimedCursor:
    """Stand-in for the store's lazy cursor: exhausted inside one span."""

    def __init__(self, tracer: Tracer, name: str, cursor: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._cursor = cursor

    def to_list(self) -> list[dict[str, Any]]:
        return self._tracer.call(self._name, self._cursor.to_list)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.to_list())


class TimedCollection:
    """Collection proxy: one span per public call."""

    def __init__(self, tracer: Tracer, layer: str, collection: Any) -> None:
        self._tracer = tracer
        self._collection = collection
        self._prefix = f"{layer}.{type(collection).__name__}."
        self.name = collection.name
        if hasattr(collection, "bulk_load"):
            # Only stand-alone collections defer index maintenance; the
            # loaders probe for the attribute, so it must be absent otherwise.
            self.bulk_load = self._bulk_load

    def find(self, *args: Any, **kwargs: Any) -> _TimedCursor:
        return _TimedCursor(
            self._tracer, self._prefix + "find", self._collection.find(*args, **kwargs)
        )

    @contextmanager
    def _bulk_load(self) -> Iterator[None]:
        # The deferred index rebuild runs when the context exits.
        context = self._collection.bulk_load()
        self._tracer.call(self._prefix + "bulk_load", context.__enter__)
        try:
            yield
        finally:
            self._tracer.call(self._prefix + "bulk_load", context.__exit__, None, None, None)

    def __getattr__(self, method: str) -> Any:
        target = getattr(self._collection, method)
        if not callable(target):
            return target
        name = self._prefix + method

        def timed(*args: Any, **kwargs: Any) -> Any:
            return self._tracer.call(name, target, *args, **kwargs)

        return timed


class TimedDatabase:
    """Database proxy handing out :class:`TimedCollection` handles."""

    def __init__(self, tracer: Tracer, layer: str, database: Any) -> None:
        self._tracer = tracer
        self._layer = layer
        self._database = database
        self.name = getattr(database, "name", "database")

    def __getitem__(self, collection_name: str) -> TimedCollection:
        return TimedCollection(self._tracer, self._layer, self._database[collection_name])
