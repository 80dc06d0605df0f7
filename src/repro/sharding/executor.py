"""Concurrent scatter-gather execution core for the sharded cluster.

The paper's shards are separate machines that genuinely work in parallel; a
3-shard broadcast costs roughly the *maximum* of its per-shard times, not
the sum.  This module gives the reproduction's router the same shape:

* a per-cluster :class:`ScatterRunner` — a pool of daemon worker threads
  that dispatches every scatter target simultaneously and returns once every
  branch has answered, so the router always merges whole answers;
* one :class:`BranchReport` per branch — its worker writes the value, error,
  :class:`BranchTiming` (queue / dispatch / execute / ship), private network,
  shipped counts and completion time into it, the observed makespan that
  makes ``RouterMetrics.parallel_shard_seconds`` an honest measurement.

Threads and the GIL
-------------------
Pure Python collection scans serialize on the GIL, so a broadcast scan is
not faster here than one collection's scan: the paper's Q50 < 1 needs shards
that are OS processes (ROADMAP, parked).  Worker threads overlap only waits,
a realtime network's sleeps; otherwise a scatter runs on the caller's thread
(:meth:`ScatterRunner.run`).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..documentstore.errors import OperationFailure

__all__ = [
    "BranchTiming",
    "BranchReport",
    "ScatterRunner",
]

#: Upper bound on pool threads (branches queue once it is reached).
DEFAULT_MAX_WORKERS = 32


@dataclass
class BranchTiming:
    """Wall-clock breakdown of one shard branch of a scatter.

    ``queue_seconds`` — scatter start until the branch started (on a pool
    worker, or inline after the branches before it); ``dispatch_seconds`` —
    sending the request; ``execute_seconds`` — shard-local storage work, the
    branch thread's *CPU time*, so branches sharing one interpreter do not
    charge each other's GIL slices; ``ship_seconds`` — copying and sending
    the response back to the router.
    """

    queue_seconds: float = 0.0
    dispatch_seconds: float = 0.0
    execute_seconds: float = 0.0
    ship_seconds: float = 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "queueSeconds": self.queue_seconds,
            "dispatchSeconds": self.dispatch_seconds,
            "executeSeconds": self.execute_seconds,
            "shipSeconds": self.ship_seconds,
            "totalSeconds": sum(vars(self).values()),
        }


@dataclass(eq=False)
class BranchReport:
    """One branch of a scatter: what its worker runs, and what it hands back.

    The worker fills the report in while the branch runs; the gather reads it
    once ``done`` is set.
    """

    shard_id: str
    run: Callable[["BranchReport"], Any]
    value: Any = None
    error: BaseException | None = None
    timing: BranchTiming = field(default_factory=BranchTiming)
    #: Private :class:`~repro.sharding.network.SimulatedNetwork` of the branch.
    channel: Any = None
    #: Result items (documents or distinct values) shipped shard → router.
    items_shipped: int = 0
    #: Serialized bytes of those result payloads.
    bytes_shipped: int = 0
    submitted_at: float = 0.0
    done_at: float = 0.0
    done: threading.Event = field(default_factory=threading.Event)

    def execute(self) -> None:
        self.timing.queue_seconds = time.perf_counter() - self.submitted_at
        try:
            self.value = self.run(self)
        except BaseException as error:  # noqa: BLE001 - surfaced at gather
            self.error = error
        finally:
            self.done_at = time.perf_counter()
            self.done.set()


class ScatterRunner:
    """Per-cluster pool of daemon threads for the scatters that can overlap (:meth:`run`)."""

    def __init__(self) -> None:
        self._tasks: queue.SimpleQueue[BranchReport | None] = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []
        self._outstanding = 0
        self._lock = threading.Lock()
        self._closed = False

    # -- thread pool -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            branch = self._tasks.get()
            if branch is None:
                return
            branch.execute()
            with self._lock:
                self._outstanding -= 1

    def _ensure_threads(self, incoming: int) -> None:
        with self._lock:
            self._outstanding += incoming
            wanted = min(self._outstanding, DEFAULT_MAX_WORKERS)
            while len(self._threads) < wanted:
                thread = threading.Thread(target=self._worker_loop, daemon=True)
                thread.name = f"scatter-worker-{len(self._threads)}"
                self._threads.append(thread)
                thread.start()

    # -- running ---------------------------------------------------------------

    def run(
        self,
        branch_runs: Sequence[tuple[str, Callable[[BranchReport], Any]]],
        *,
        overlap: bool,
    ) -> list[BranchReport]:
        """Run one branch per target, wait for every one, return their reports.

        Only with *overlap* (a realtime network, whose sleeps can overlap) and
        more than one branch are the branches dispatched to the pool at once.
        Otherwise they run one after another, in target order, on the caller's
        thread: there is nothing to overlap them with (one GIL), and a pool
        only adds a queue put, a wake-up and GIL hand-offs per branch.

        Raises the first branch error (in target order) after all branches
        settled.
        """
        if self._closed:
            raise OperationFailure("client is closed")  # the cluster closed
        branches = [BranchReport(shard_id, run) for shard_id, run in branch_runs]
        started = time.perf_counter()
        for branch in branches:
            branch.submitted_at = started
        if overlap and len(branches) > 1:
            self._ensure_threads(len(branches))
            for branch in branches:
                self._tasks.put(branch)
        else:
            for branch in branches:
                branch.execute()
        for branch in branches:
            branch.done.wait()
            if branch.error is not None:
                raise branch.error
        return branches

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop the pool threads."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._tasks.put(None)
