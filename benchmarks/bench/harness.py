"""What every workload run shares: clock, failure accounting, scratch space."""

from __future__ import annotations

import pathlib
import resource
import shutil
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from calibrate import SpeedSampler
from metrics import Samples, drift_ratio
from trace import Tracer


@dataclass(frozen=True)
class Scale:
    """Sizes of one run.  ``smoke`` is the tier-1 test's size, not a result."""

    name: str
    min_rounds: int
    orders: int
    block_ops: int
    ladder_blocks: int

    @property
    def smoke(self) -> bool:
        """Tiny TPC-DS dataset, no warm-up, no CPU pin."""
        return self.name == "smoke"


SCALES = {
    "full": Scale("full", min_rounds=3, orders=20_000, block_ops=500, ladder_blocks=4),
    "smoke": Scale("smoke", min_rounds=1, orders=2_000, block_ops=100, ladder_blocks=1),
}


@dataclass
class Run:
    """One workload, one process, one pass (traced or not)."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    scale: Scale
    out_dir: pathlib.Path
    process_start: float
    sampler: SpeedSampler = field(init=False)
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    e2e: dict[str, float | None] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    samples: dict[str, Samples] = field(default_factory=dict)
    #: Checks on the measurement itself (span coverage, ladder order).
    validity: dict[str, float] = field(default_factory=dict)
    setup_end: float | None = None
    #: Self-test: the workload breaks its reference answers, so checks must fail.
    corrupt: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        # The smoke test runs two processes at once; pinned, they could pick
        # the same CPU, and its numbers mean nothing anyway.
        self.sampler = SpeedSampler(pin=not self.scale.smoke).start()
        if self.traced:
            self.tracer = Tracer()
        self.tmp_dir = self.out_dir / "tmp" / f"{self.workload}-{time.time_ns()}"

    # ---------------------------------------------------------------- scratch

    def scratch(self, name: str) -> pathlib.Path:
        """A fresh directory inside the run's scratch space."""
        path = self.tmp_dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp_dir, ignore_errors=True)

    # --------------------------------------------------------------- failures

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; a false *ok* is a failed operation."""
        with self._lock:  # both served_mixed clients count here
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(message)
        return ok

    @contextmanager
    def operation(self, label: str) -> Iterator[None]:
        """Count one operation; an exception inside it is a failed operation."""
        try:
            yield
        except Exception as exc:  # a failed operation is a result, not a crash
            self.check(False, f"{label}: {type(exc).__name__}: {exc}")
        else:
            self.check(True, label)

    # ------------------------------------------------------------------ clock

    def setup_done(self) -> None:
        """Mark the end of set-up: the next call is the first warm-up operation."""
        self.setup_end = time.perf_counter()

    def rounds(self, warmup: int) -> Iterator[int]:
        """*warmup* discarded rounds (negative indices), then measured ones.

        Whole rounds are measured until ``seconds`` have passed, and at least
        the scale's minimum.  The smoke scale has no warm-up.
        """
        if not self.scale.smoke:
            yield from range(-warmup, 0)
        deadline = time.perf_counter() + self.seconds
        index = 0
        while index < self.scale.min_rounds or time.perf_counter() < deadline:
            yield index
            index += 1

    def sample(self, name: str) -> Samples:
        return self.samples.setdefault(name, Samples())

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Add the enclosed interval to the samples called *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.sample(name).add(start, time.perf_counter())

    # ---------------------------------------------------------------- summary

    def median(self, name: str) -> float:
        """Calibrated median of the samples called *name*."""
        return statistics.median(self.samples[name].values(self.sampler.seconds))

    def stop_clock(self) -> None:
        """End of measurement: freeze the calibrated clock so medians can be read."""
        self.sampler.stop()

    def finish(self) -> dict[str, Any]:
        """Build the run's record (after ``stop_clock``)."""
        seconds = self.sampler.seconds
        self.e2e["setup_s"] = seconds(self.process_start, self.setup_end)
        self.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.e2e["failed_ratio"] = self.failed / max(1, self.attempted)
        if "round" in self.samples:
            self.layers["bench.drift_ratio"] = drift_ratio(self.samples["round"].values(seconds))
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "traced": self.traced,
            "scale": self.scale.name,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "e2e": self.e2e,
            "layers": self.layers,
            "validity": self.validity,
            "samples": {
                name: samples.describe(seconds)
                for name, samples in self.samples.items()
                if len(samples)
            },
            "machine": self.sampler.summary(),
        }
