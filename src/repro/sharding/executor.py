"""Concurrent scatter-gather execution core for the sharded cluster.

The paper's shards are separate machines that genuinely work in parallel; a
3-shard broadcast costs roughly the *maximum* of its per-shard times, not
the sum.  This module gives the reproduction's router the same shape:

* a per-cluster :class:`ScatterRunner` — a pool of daemon worker threads
  that dispatches every scatter target simultaneously and returns once every
  branch has answered, so the router always merges whole answers;
* per-shard deadlines with cooperative cancellation and a structured
  :class:`ShardTimeoutError` (:class:`ScatterPolicy`);
* one :class:`BranchReport` per branch — its worker writes the value, error,
  :class:`BranchTiming` (queue / dispatch / execute / ship), private network,
  shipped counts and completion time into it, the observed makespan that
  makes ``RouterMetrics.parallel_shard_seconds`` an honest measurement.

Threads and the GIL
-------------------
Pure Python collection scans serialize on the GIL, so a broadcast scan is
not faster here than one collection's scan: the paper's Q50 < 1 needs shards
that are OS processes (ROADMAP, parked).  Worker threads overlap only waits:
a realtime network's sleeps, and the caller's wait for a deadline.  Without
either, a scatter runs on the caller's thread (:meth:`ScatterRunner.run`).
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
    "FirstMatchClaim",
    "ScatterPolicy",
    "ScatterRunner",
    "ShardTimeoutError",
]

#: Upper bound on pool threads (branches queue once it is reached).
DEFAULT_MAX_WORKERS = 32


class ShardTimeoutError(Exception):
    """One or more shards missed the scatter deadline.

    Structured so callers can react per shard: ``shard_ids`` lists the
    branches that missed the deadline, ``completed`` the ones that answered
    in time (whose results were discarded).
    """

    def __init__(
        self, purpose: str, shard_ids: Sequence[str], completed: Sequence[str], deadline_seconds: float
    ) -> None:
        self.purpose = purpose
        self.shard_ids = list(shard_ids)
        self.completed = list(completed)
        self.deadline_seconds = deadline_seconds
        super().__init__(
            f"{purpose}: shard(s) {', '.join(self.shard_ids)} missed the "
            f"{deadline_seconds:.3f}s deadline"
            + (f" (completed in time: {', '.join(self.completed)})" if self.completed else "")
        )


@dataclass(frozen=True)
class ScatterPolicy:
    """Deadline policy for scatter-gather operations.

    ``deadline_seconds`` is the per-operation budget from scatter start
    (``None`` waits indefinitely).  A miss raises :class:`ShardTimeoutError`
    and discards the responsive shards' results: an answer is never merged
    from a subset of its shards.  The laggard stops shipping at its next
    check and its traffic/busy time is not accounted (its shard finishes the
    issued storage operation, as a real ``killOp`` cannot stop a scan at once).
    """

    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")

    def remaining(self, started: float) -> float | None:
        """Seconds (≥ 0) left in the budget that began at *started* (``None``: no deadline)."""
        if self.deadline_seconds is None:
            return None
        return max(0.0, self.deadline_seconds - (time.perf_counter() - started))


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
    #: Set when the scatter is abandoned: the branch stops shipping.
    cancelled: threading.Event
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
        purpose: str,
        branch_runs: Sequence[tuple[str, Callable[[BranchReport], Any]]],
        policy: ScatterPolicy,
        *,
        realtime: bool,
        on_timeout: Callable[[list[str]], None],
    ) -> list[BranchReport]:
        """Run one branch per target, wait for every one, return their reports.

        With no deadline, and one branch or a network that is not *realtime*,
        the branches run one after another on the caller's thread: there is
        nothing to overlap them with (one GIL) and no laggard to abandon, and
        a pool only adds a queue put, a wake-up and GIL hand-offs per branch.
        Otherwise they are dispatched to the pool at once.

        Raises the first branch error (in target order) after all branches
        settled.  When a branch misses the deadline, every branch is told to
        stop shipping, *on_timeout* hears the late shard ids, and
        :class:`ShardTimeoutError` is raised.
        """
        if self._closed:
            raise OperationFailure("client is closed")  # the cluster closed
        cancelled = threading.Event()
        branches = [BranchReport(shard_id, run, cancelled) for shard_id, run in branch_runs]
        started = time.perf_counter()
        for branch in branches:
            branch.submitted_at = started
        if policy.deadline_seconds is None and (len(branches) == 1 or not realtime):
            for branch in branches:
                branch.execute()
        else:
            self._ensure_threads(len(branches))
            for branch in branches:
                self._tasks.put(branch)
        late = [b.shard_id for b in branches if not b.done.wait(policy.remaining(started))]
        if late:
            cancelled.set()
            on_timeout(late)
            completed = [b.shard_id for b in branches if b.done.is_set() and b.shard_id not in late]
            raise ShardTimeoutError(purpose, late, completed, float(policy.deadline_seconds or 0.0))
        for branch in branches:
            if branch.error is not None:
                cancelled.set()
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


class FirstMatchClaim:
    """One-shot claim deciding which shard branch wins ``update_one``/``delete_one``.

    Every branch probes its shard for a local match concurrently; the first
    branch to find one claims the operation and applies the write, and the
    claim doubles as a cancellation signal so still-probing branches stop
    early.  Exactly one shard ever applies the write.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.winner: str | None = None

    def claim(self, shard_id: str) -> bool:
        """Try to win the operation for *shard_id*; True iff this call won."""
        with self._lock:
            if self.winner is not None:
                return False
            self.winner = shard_id
            return True
