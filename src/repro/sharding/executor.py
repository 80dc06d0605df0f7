"""Concurrent scatter-gather execution core for the sharded cluster.

The paper's shards are separate machines that genuinely work in parallel; a
3-shard broadcast costs roughly the *maximum* of its per-shard times, not
the sum.  This module gives the reproduction's router the same shape:

* a per-cluster :class:`ScatterRunner` — a pool of daemon worker threads
  that dispatches every scatter target simultaneously and returns once every
  branch has answered, so the router always merges whole answers;
* per-shard deadlines with cooperative cancellation and a structured
  :class:`ShardTimeoutError` (:class:`ScatterPolicy`);
* one :class:`BranchReport` per branch — the worker writes its value,
  error, :class:`BranchTiming` (queue / dispatch / execute / ship), private
  network and shipped counts straight into it — and an observed wall-clock
  makespan per operation, which is what makes
  ``RouterMetrics.parallel_shard_seconds`` an honest measurement.

Threads and the GIL
-------------------
Worker threads overlap network waits and any GIL-releasing work, but pure
Python collection scans serialize on the GIL, so a broadcast scan is not
faster here than one collection's scan: the paper's Q50 < 1 needs shards
that are OS processes (ROADMAP, parked).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

__all__ = [
    "BranchTiming",
    "BranchReport",
    "FirstMatchClaim",
    "ScatterOutcome",
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

    ``queue_seconds`` — scatter start until a pool worker picked the branch
    up; ``dispatch_seconds`` — request serialization and send;
    ``execute_seconds`` — shard-local storage work, measured as the branch
    thread's *CPU time* so concurrent branches sharing one interpreter do
    not charge each other's GIL slices; ``ship_seconds`` — response
    serialization and transfer back to the router.
    """

    queue_seconds: float = 0.0
    dispatch_seconds: float = 0.0
    execute_seconds: float = 0.0
    ship_seconds: float = 0.0

    def total_seconds(self) -> float:
        return self.queue_seconds + self.dispatch_seconds + self.execute_seconds + self.ship_seconds

    def snapshot(self) -> dict[str, float]:
        return {
            "queueSeconds": self.queue_seconds,
            "dispatchSeconds": self.dispatch_seconds,
            "executeSeconds": self.execute_seconds,
            "shipSeconds": self.ship_seconds,
            "totalSeconds": self.total_seconds(),
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


@dataclass
class ScatterOutcome:
    """Gathered result of one scatter: every branch, completed."""

    purpose: str
    #: Completed branch reports, in deterministic target order.
    reports: list[BranchReport]
    #: Observed wall clock from first dispatch to last branch completion.
    makespan_seconds: float


class ScatterRunner:
    """Per-cluster pool of daemon threads that executes scatter branches.

    A one-branch scatter with no deadline runs on the caller's thread.
    """

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
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"scatter-worker-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    # -- running ---------------------------------------------------------------

    def run(
        self,
        purpose: str,
        branch_runs: Sequence[tuple[str, Callable[[BranchReport], Any]]],
        policy: ScatterPolicy,
        *,
        on_timeout: Callable[[list[str]], None] | None = None,
    ) -> ScatterOutcome:
        """Dispatch one branch per target at once and wait for every one.

        A single branch with no deadline runs inline: there is nothing to
        overlap it with and no laggard to abandon, so handing it to a pool
        thread only adds a queue put, a worker wake-up and an ``Event.wait``
        to each targeted operation.

        Raises the first branch error (in target order) after all branches
        settled.  When a branch misses the deadline, every branch is told to
        stop shipping, *on_timeout* hears the late shard ids, and
        :class:`ShardTimeoutError` is raised.
        """
        if self._closed:
            raise RuntimeError("ScatterRunner is closed")
        cancelled = threading.Event()
        branches = [BranchReport(shard_id, run, cancelled) for shard_id, run in branch_runs]
        started = time.perf_counter()
        for branch in branches:
            branch.submitted_at = time.perf_counter()
        if len(branches) == 1 and policy.deadline_seconds is None:
            branches[0].execute()
        else:
            self._ensure_threads(len(branches))
            for branch in branches:
                self._tasks.put(branch)
        late = [b.shard_id for b in branches if not b.done.wait(policy.remaining(started))]
        if late:
            cancelled.set()
            if on_timeout is not None:
                on_timeout(late)
            completed = [b.shard_id for b in branches if b.done.is_set() and b.shard_id not in late]
            raise ShardTimeoutError(purpose, late, completed, float(policy.deadline_seconds or 0.0))
        for branch in branches:
            if branch.error is not None:
                cancelled.set()
                raise branch.error
        last_done = max((branch.done_at for branch in branches), default=started)
        return ScatterOutcome(
            purpose=purpose,
            reports=branches,
            makespan_seconds=last_done - started,
        )

    @staticmethod
    def execute(local: Callable[[], Any]) -> tuple[Any, float]:
        """Run the shard-local step of a branch; returns (result, exec seconds).

        Execution time is the branch thread's CPU time, not wall clock:
        concurrent branches time-slice one interpreter (GIL), and wall clock
        would charge each branch for the others' slices — the paper's shards
        are separate machines that pay only their own work.
        """
        started = time.thread_time()
        value = local()
        return value, time.thread_time() - started

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

    @property
    def decided(self) -> bool:
        return self.winner is not None

    def claim(self, shard_id: str) -> bool:
        """Try to win the operation for *shard_id*; True iff this call won."""
        with self._lock:
            if self.winner is not None:
                return False
            self.winner = shard_id
            return True
