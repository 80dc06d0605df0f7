"""Concurrent scatter-gather execution core for the sharded cluster.

The paper's shards are separate machines that genuinely work in parallel; a
3-shard broadcast costs roughly the *maximum* of its per-shard times, not
the sum.  This module gives the reproduction's router the same shape:

* a per-cluster :class:`ScatterRunner` — a pool of daemon worker threads
  that dispatches every scatter target simultaneously (``mode="thread"``,
  the one production path) or runs them inline in target order
  (``mode="serial"``, the sequential reference of the parity tests);
* per-shard deadlines with cooperative cancellation and a structured
  :class:`ShardTimeoutError` / partial-results policy (:class:`ScatterPolicy`);
* a queue-backed :class:`StreamGather` so the router's k-way merge consumes
  per-shard result batches *as they arrive* — merging starts before the
  slowest shard finishes;
* per-branch :class:`BranchTiming` (queue / dispatch / execute / ship) and
  an observed wall-clock makespan per operation, which is what makes
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
from typing import Any, Callable, Iterator, Sequence

__all__ = [
    "EXECUTOR_MODES",
    "BranchTiming",
    "BranchReport",
    "FirstMatchClaim",
    "ScatterOutcome",
    "ScatterPending",
    "ScatterPolicy",
    "ScatterRunner",
    "ShardTimeoutError",
    "StreamGather",
]

#: Supported execution modes for the scatter worker pool.
EXECUTOR_MODES = ("serial", "thread")

#: Upper bound on pool threads (branches queue once it is reached).
DEFAULT_MAX_WORKERS = 32


class ShardTimeoutError(Exception):
    """One or more shards missed the scatter deadline.

    Structured so callers can react per shard: ``shard_ids`` lists the
    branches that missed the deadline, ``completed`` the ones that answered
    in time (whose results were discarded under the ``"raise"`` policy).
    """

    def __init__(
        self,
        purpose: str,
        shard_ids: Sequence[str],
        completed: Sequence[str],
        deadline_seconds: float,
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
    """Deadline and partial-results policy for scatter-gather operations.

    ``deadline_seconds`` is the per-operation budget measured from scatter
    start; every shard branch must complete within it (``None`` waits
    indefinitely).  On a miss, ``on_timeout`` decides the outcome:

    * ``"raise"`` (default) — abort the operation with a structured
      :class:`ShardTimeoutError`; results of responsive shards are discarded.
    * ``"partial"`` — return the merged results of the responsive shards and
      record the laggards in ``RouterMetrics.shards_timed_out``.

    Either way the lagging branch is cooperatively cancelled: it stops
    shipping result batches at the next check and its traffic/busy-time is
    *not* merged into the shared accounting (its shard keeps executing the
    already-issued storage operation to completion, as a real distributed
    ``killOp`` also cannot interrupt an in-flight scan instantaneously).
    """

    deadline_seconds: float | None = None
    on_timeout: str = "raise"

    def __post_init__(self) -> None:
        if self.on_timeout not in ("raise", "partial"):
            raise ValueError(f"on_timeout must be 'raise' or 'partial', got {self.on_timeout!r}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")

    def remaining(self, started: float) -> float | None:
        """Seconds left in the budget that began at *started* (``None`` = no deadline)."""
        if self.deadline_seconds is None:
            return None
        return self.deadline_seconds - (time.perf_counter() - started)


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


@dataclass
class BranchReport:
    """Everything one completed branch hands back to the gather."""

    shard_id: str
    value: Any = None
    timing: BranchTiming = field(default_factory=BranchTiming)
    #: Private :class:`~repro.sharding.network.NetworkChannel` of the branch.
    channel: Any = None
    #: Result items (documents or distinct values) shipped shard → router.
    items_shipped: int = 0
    #: Serialized bytes of those result payloads.
    bytes_shipped: int = 0


@dataclass
class ScatterOutcome:
    """Gathered result of one scatter: completed branches plus laggards."""

    purpose: str
    #: Completed branch reports, in deterministic target order.
    reports: list[BranchReport]
    #: Shards that missed the deadline (``"partial"`` policy only).
    timed_out: list[str]
    #: Observed wall clock from first dispatch to last branch completion.
    makespan_seconds: float

    def results(self) -> dict[str, Any]:
        return {report.shard_id: report.value for report in self.reports}


class _Branch:
    """Internal per-target state shared between worker and gather."""

    __slots__ = (
        "shard_id",
        "run",
        "report",
        "error",
        "done",
        "done_at",
        "cancelled",
        "submitted_at",
    )

    def __init__(self, shard_id: str, run: Callable[["_Branch"], Any], cancelled: threading.Event) -> None:
        self.shard_id = shard_id
        self.run = run
        self.report = BranchReport(shard_id=shard_id)
        self.error: BaseException | None = None
        self.done = threading.Event()
        self.done_at = 0.0
        self.cancelled = cancelled
        self.submitted_at = 0.0

    def execute(self) -> None:
        self.report.timing.queue_seconds = time.perf_counter() - self.submitted_at
        try:
            self.report.value = self.run(self)
        except BaseException as error:  # noqa: BLE001 - surfaced at gather
            self.error = error
        finally:
            self.done_at = time.perf_counter()
            self.done.set()


class ScatterPending:
    """A launched scatter: branches are executing; gather when ready.

    Streaming consumers (:class:`StreamGather`) read result batches while
    branches run; :meth:`gather` then waits for every branch (bounded by the
    policy deadline), applies the timeout policy, and returns the
    :class:`ScatterOutcome` whose channels the router merges into the shared
    accounting.
    """

    def __init__(self, purpose: str, branches: list[_Branch], policy: ScatterPolicy) -> None:
        self.purpose = purpose
        self.branches = branches
        self.policy = policy
        self.started = time.perf_counter()
        self.cancelled = branches[0].cancelled if branches else threading.Event()
        self._stream_timed_out: set[str] = set()

    # -- cooperative cancellation ---------------------------------------------

    def cancel(self) -> None:
        """Ask still-running branches to stop shipping (e.g. limit satisfied)."""
        self.cancelled.set()

    def remaining(self) -> float | None:
        """Seconds left in the policy deadline (``None`` = unbounded)."""
        return self.policy.remaining(self.started)

    def note_stream_timeout(self, shard_id: str) -> None:
        """A streaming consumer gave up on *shard_id* at the deadline."""
        self._stream_timed_out.add(shard_id)

    # -- gather ----------------------------------------------------------------

    def gather(self) -> ScatterOutcome:
        """Wait for every branch, apply the timeout policy, collect reports.

        Raises the first branch error (in target order) after all branches
        settled, and :class:`ShardTimeoutError` under the ``"raise"`` policy.
        """
        timed_out: list[str] = []
        for branch in self.branches:
            remaining = self.policy.remaining(self.started)
            if remaining is None:
                branch.done.wait()
            elif not branch.done.wait(timeout=max(0.0, remaining)):
                timed_out.append(branch.shard_id)
        timed_out.extend(
            shard_id
            for shard_id in sorted(self._stream_timed_out)
            if shard_id not in timed_out
        )
        if timed_out:
            # Stop laggards from shipping further batches or merging state.
            self.cancelled.set()
            if self.policy.on_timeout == "raise":
                completed = [b.shard_id for b in self.branches if b.done.is_set()]
                raise ShardTimeoutError(
                    self.purpose,
                    timed_out,
                    [s for s in completed if s not in timed_out],
                    float(self.policy.deadline_seconds or 0.0),
                )
        reports: list[BranchReport] = []
        last_done = self.started
        for branch in self.branches:
            if branch.shard_id in timed_out or not branch.done.is_set():
                continue
            if branch.error is not None:
                self.cancelled.set()
                raise branch.error
            reports.append(branch.report)
            last_done = max(last_done, branch.done_at)
        if timed_out:
            # The gather waited out the full deadline for the laggards.
            makespan = float(self.policy.deadline_seconds or 0.0)
        else:
            makespan = last_done - self.started
        return ScatterOutcome(
            purpose=self.purpose,
            reports=reports,
            timed_out=timed_out,
            makespan_seconds=makespan,
        )


class ScatterRunner:
    """Per-cluster worker pool that executes scatter branches.

    ``mode="thread"`` (default) dispatches every branch to a pool of daemon
    threads; ``mode="serial"`` runs branches inline in target order (the
    sequential reference the parity tests compare against).  In both modes
    a one-branch scatter with no deadline runs on the caller's thread.
    """

    def __init__(self, mode: str = "thread") -> None:
        if mode not in EXECUTOR_MODES:
            raise ValueError(f"executor mode must be one of {EXECUTOR_MODES}, got {mode!r}")
        self.mode = mode
        self._tasks: queue.SimpleQueue[_Branch | None] = queue.SimpleQueue()
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

    # -- launching -------------------------------------------------------------

    def launch(
        self,
        purpose: str,
        branch_runs: Sequence[tuple[str, Callable[[_Branch], Any]]],
        policy: ScatterPolicy,
    ) -> ScatterPending:
        """Dispatch one branch per target; a fan-out returns immediately.

        In serial mode the branches execute inline, in target order, before
        this method returns — streaming consumers then simply drain already
        filled queues, and the deadline is checked between branches.  A
        single branch with no deadline takes the same inline path in every
        mode: there is nothing to overlap it with and no laggard the gather
        could abandon, so handing it to a pool thread only adds a queue put,
        a worker wake-up and an ``Event.wait`` to each targeted operation.
        """
        if self._closed:
            raise RuntimeError("ScatterRunner is closed")
        cancelled = threading.Event()
        branches = [_Branch(shard_id, run, cancelled) for shard_id, run in branch_runs]
        pending = ScatterPending(purpose, branches, policy)
        if self.mode == "serial" or (len(branches) == 1 and policy.deadline_seconds is None):
            for branch in branches:
                branch.submitted_at = time.perf_counter()
                remaining = policy.remaining(pending.started)
                if remaining is not None and remaining <= 0:
                    # Out of budget: leave the branch unexecuted; gather()
                    # will classify it as timed out under the policy.
                    continue
                branch.execute()
            return pending
        for branch in branches:
            branch.submitted_at = time.perf_counter()
        self._ensure_threads(len(branches))
        for branch in branches:
            self._tasks.put(branch)
        return pending

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


# --------------------------------------------------------------------------- #
# streaming gather                                                            #
# --------------------------------------------------------------------------- #

_END = object()


class StreamGather:
    """Queue-backed streaming gather for scatter branches that ship batches.

    Workers push each decoded response batch as soon as it crosses the
    (simulated) wire; the router-side iterators consume them while slower
    shards are still executing.  ``per_shard=True`` keeps one queue per
    target (required by the sorted k-way merge, which needs an ordered
    stream per shard); ``per_shard=False`` multiplexes every branch into a
    single arrival-order queue, so an unsorted merge can short-circuit on
    whichever shard answers first.
    """

    def __init__(self, targets: Sequence[str], *, per_shard: bool) -> None:
        self._targets = list(targets)
        self._per_shard = per_shard
        if per_shard:
            self._queues = {shard_id: queue.SimpleQueue() for shard_id in self._targets}
        else:
            shared: queue.SimpleQueue = queue.SimpleQueue()
            self._queues = {shard_id: shared for shard_id in self._targets}

    # -- worker side -----------------------------------------------------------

    def put(self, shard_id: str, batch: list[dict[str, Any]]) -> None:
        self._queues[shard_id].put(batch)

    def finish(self, shard_id: str) -> None:
        """Mark *shard_id*'s stream complete (always called, even on error)."""
        self._queues[shard_id].put(_END)

    # -- router side -----------------------------------------------------------

    def _drain(
        self,
        source: queue.SimpleQueue,
        ends_expected: int,
        pending: ScatterPending,
        shard_id: str | None,
    ) -> Iterator[dict[str, Any]]:
        ends = 0
        while ends < ends_expected:
            remaining = pending.remaining()
            try:
                if remaining is None:
                    item = source.get()
                else:
                    item = source.get(timeout=max(0.0, remaining))
            except queue.Empty:
                # Deadline exhausted while a shard still owes batches.
                late = (
                    [shard_id]
                    if shard_id is not None
                    else [b.shard_id for b in pending.branches if not b.done.is_set()]
                )
                for laggard in late:
                    pending.note_stream_timeout(laggard)
                if pending.policy.on_timeout == "raise":
                    pending.cancel()
                    done = [b.shard_id for b in pending.branches if b.done.is_set()]
                    raise ShardTimeoutError(
                        pending.purpose,
                        late,
                        [s for s in done if s not in late],
                        float(pending.policy.deadline_seconds or 0.0),
                    ) from None
                return
            if item is _END:
                ends += 1
                continue
            yield from item

    def iterators(self, pending: ScatterPending) -> list[Iterator[dict[str, Any]]]:
        """Per-shard document iterators (sorted merge) or one multiplexed one."""
        if self._per_shard:
            return [
                self._drain(self._queues[shard_id], 1, pending, shard_id)
                for shard_id in self._targets
            ]
        shared = self._queues[self._targets[0]] if self._targets else queue.SimpleQueue()
        return [self._drain(shared, len(self._targets), pending, None)]


class FirstMatchClaim:
    """One-shot claim deciding which shard branch wins ``update_one``.

    Every branch probes its shard for a local match concurrently; the first
    branch to find one claims the operation and applies the update, and the
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
