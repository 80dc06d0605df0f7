"""A calibrated clock: wall time divided by the machine's measured slowdown.

Why it exists.  The sandbox this benchmark runs on is a small VM on a shared
host.  Its throughput swings for seconds to tens of seconds at a time: the
same query round took 0.33 s and 0.64 s within one process, and CPU time
swings with wall time, so it is lost throughput (a busy neighbour), not
descheduling.  A median over a 10-second window flips between the two states
from run to run (quartile spread 45-60 % of the median), which no regression
bound survives.  What stays steady is the *ratio* between the program's time
and the time of a fixed piece of reference work done at the same moment.

How it works.  A daemon thread runs a small fixed reference loop (deep copies
of documents picked at random from a 30 000-document heap, the same kind of
memory-bound pointer chasing the store does) every ``interval`` seconds and
records its thread CPU time.  ``speed = reference time / NOMINAL_SECONDS`` is
the machine's slowdown at that moment (1.0 = the reference sandbox when
quiet).  After the run, :meth:`SpeedSampler.seconds` integrates ``dt / speed``
over any ``[start, end]`` interval of ``time.perf_counter`` timestamps:
seconds of the quiet reference sandbox.  Every timing the benchmark reports
goes through it; the plain wall-clock medians are kept beside them in the
result file.

The reference loop touches nothing of ``repro``: a change to the program
cannot move it.  It costs about 1 % of one core.
"""

from __future__ import annotations

import bisect
import copy
import gc
import os
import random
import statistics
import threading
import time

#: Thread CPU time of one reference loop on the quiet reference sandbox.
NOMINAL_SECONDS = 0.00060

_HEAP_DOCUMENTS = 30_000
_COPIES_PER_SAMPLE = 80


def _build_heap() -> tuple[list[dict], list[int]]:
    rng = random.Random(0)
    heap = [
        {
            "a": i,
            "b": {"c": i % 7, "d": "x%09d" % i},
            "e": [i, i + 1],
            "f": rng.random(),
            "g": "note %d" % i,
        }
        for i in range(_HEAP_DOCUMENTS)
    ]
    rng.shuffle(heap)
    order = [rng.randrange(_HEAP_DOCUMENTS) for _ in range(_COPIES_PER_SAMPLE * 500)]
    return heap, order


class SpeedSampler:
    """Background sampler of the machine's slowdown; see the module docstring."""

    def __init__(self, *, pin: bool, interval: float = 0.05) -> None:
        self.pin = pin and hasattr(os, "sched_setaffinity")
        self.interval = interval
        self._heap, self._order = _build_heap()
        # Keep the reference heap out of the collector's way: the program's
        # garbage collections must not pay for the benchmark's own objects.
        gc.freeze()
        self._position = 0
        self._times: list[float] = []
        self._speeds: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)
        self._cumulative: list[float] | None = None

    def _reference_seconds(self) -> float:
        """Thread CPU time of one pass of the reference loop."""
        heap, order = self._heap, self._order
        start = self._position
        self._position = (start + _COPIES_PER_SAMPLE) % (len(order) - _COPIES_PER_SAMPLE)
        cpu = time.thread_time()
        for index in order[start:start + _COPIES_PER_SAMPLE]:
            copy.deepcopy(heap[index])
        return time.thread_time() - cpu

    def _sample(self) -> None:
        wall = time.perf_counter()
        speed = self._reference_seconds() / NOMINAL_SECONDS
        self._times.append((wall + time.perf_counter()) / 2)
        self._speeds.append(speed)

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval)

    def _pin_to_quietest_cpu(self) -> None:
        """Pin this thread, and every thread started after it, to one CPU.

        The host slows each virtual CPU on its own, so the reference loop only
        tells the program's slowdown when both run on the same one.  The CPU
        that runs the loop fastest right now needs the smallest correction.
        """
        best_cpu, best_cost = None, None
        for cpu in sorted(os.sched_getaffinity(0)):
            os.sched_setaffinity(0, {cpu})
            cost = min(self._reference_seconds() for _ in range(5))
            if best_cost is None or cost < best_cost:
                best_cpu, best_cost = cpu, cost
        os.sched_setaffinity(0, {best_cpu})

    def start(self) -> "SpeedSampler":
        if self.pin:
            self._pin_to_quietest_cpu()
        self._sample()
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and freeze the calibration map."""
        self._stop.set()
        self._thread.join()
        self._sample()
        times, speeds = self._times, self._speeds
        cumulative = [0.0]
        for i in range(1, len(speeds)):
            mean_speed = (speeds[i - 1] + speeds[i]) / 2
            cumulative.append(cumulative[-1] + (times[i] - times[i - 1]) / mean_speed)
        self._cumulative = cumulative

    def _calibrated(self, t: float) -> float:
        times, cumulative, speeds = self._times, self._cumulative, self._speeds
        i = bisect.bisect_right(times, t)
        if i == 0:
            return cumulative[0] - (times[0] - t) / speeds[0]
        if i == len(times):
            return cumulative[-1] + (t - times[-1]) / speeds[-1]
        fraction = (t - times[i - 1]) / (times[i] - times[i - 1])
        return cumulative[i - 1] + fraction * (cumulative[i] - cumulative[i - 1])

    def seconds(self, start: float, end: float) -> float:
        """Calibrated seconds between two ``perf_counter`` stamps (after ``stop``)."""
        return self._calibrated(end) - self._calibrated(start)

    def summary(self) -> dict[str, float]:
        """The slowdown the run saw: sample count, median, extremes."""
        speeds = sorted(self._speeds)
        return {
            "samples": len(speeds),
            "speed_median": statistics.median(speeds),
            "speed_p10": speeds[len(speeds) // 10],
            "speed_p90": speeds[(len(speeds) * 9) // 10],
        }
