"""The benchmark's vocabulary: workloads, metric names, units, bounds.

``BENCHMARK.json`` at the repository root is the contract other tools read;
this module is the same list in code (the smoke test asserts they agree) plus
the statistics every workload shares.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Iterable, Sequence

HARNESS_VERSION = 1
DEFAULT_SEED = 20151109

WORKLOADS = ("tpcds_standalone", "tpcds_sharded", "served_mixed", "bulk_load")
QUERIES = (7, 21, 46, 50)
CALLS = ("find", "aggregate", "insert_many", "update_many", "create_index", "drop")
READ_KINDS = ("find_point", "find_sorted", "find_paged", "agg_indexed", "count", "agg_scan")
WRITE_KINDS = ("update_one", "insert_many", "delete_many")
KINDS = READ_KINDS + WRITE_KINDS
EXAMINED_SHAPES = ("find_sorted", "find_paged", "agg_indexed", "agg_scan", "count")

#: End-to-end metrics: name -> (unit, better, bound, reported by).  ``None``
#: means every workload reports it; those are the ones ``BENCHMARK.json`` lists,
#: because its contract makes every workload print every listed metric.  The
#: rest are in the result file only, ``null`` where they do not apply.
#: ``failed_ratio`` is always 0 at baseline, so the contract carries it as the
#: ``attempted`` / ``failed`` counts instead; its bound is absolute.
#: Bounds are about three times the widest quartile spread that sets of ten
#: differently seeded runs of one commit showed on the noisy sandbox
#: (``round_s`` 0.056 on ``bulk_load``, ``ops_per_s`` 0.043, ``peak_rss_mb``
#: 0.027, ``write_p50_ms`` 0.095 — a median that sits between two kinds).
_TPCDS = ("tpcds_standalone", "tpcds_sharded")
E2E: dict[str, tuple[str, str, float, tuple[str, ...] | None]] = {
    "setup_s": ("s", "lower", 0.25, None),
    "peak_rss_mb": ("MB", "lower", 0.10, None),
    "round_s": ("s", "lower", 0.20, None),
    "ops_per_s": ("1/s", "higher", 0.15, None),
    "failed_ratio": ("ratio", "lower", 0.0, None),
    "queryset_s": ("s", "lower", 0.15, _TPCDS),
    "q7_s": ("s", "lower", 0.15, _TPCDS),
    "q21_s": ("s", "lower", 0.15, _TPCDS),
    "q46_s": ("s", "lower", 0.15, _TPCDS),
    "q50_s": ("s", "lower", 0.15, _TPCDS),
    "denorm_queryset_s": ("s", "lower", 0.15, ("tpcds_standalone",)),
    "read_p50_ms": ("ms", "lower", 0.15, ("served_mixed",)),
    "write_p50_ms": ("ms", "lower", 0.25, ("served_mixed",)),
    "load_docs_per_s": ("1/s", "higher", 0.15, ("bulk_load",)),
    "recovery_s": ("s", "lower", 0.25, ("bulk_load",)),
}

#: The end-to-end metrics of ``BENCHMARK.json`` (every workload prints each).
CONTRACT_E2E = tuple(
    name for name, spec in E2E.items() if spec[3] is None and name != "failed_ratio"
)


def _expand(
    prefix: str, unit: str, better: str, suffixes: Iterable[Any]
) -> list[tuple[str, str, str]]:
    return [(f"{prefix}.{suffix}", unit, better) for suffix in suffixes]


_Q = tuple(f"q{q}" for q in QUERIES)

#: Per-layer metrics: (name, unit, better), in layer order.  A workload that
#: does not exercise a layer reports 0 for it in the contract line (the layer
#: did no work) and omits it from the result file.
PER_LAYER: list[tuple[str, str, str]] = [
    ("tpcds.generate_s", "s", "lower"),
    ("core.query_self_s", "s", "lower"),
    *_expand("core.calls", "count", "lower", CALLS),
    ("core.denormalize_s", "s", "lower"),
    ("core.migrate_s", "s", "lower"),
    *_expand("documentstore.busy_s", "s", "lower", CALLS),
    *_expand("documentstore.pipeline_s", "s", "lower", _Q),
    *_expand("documentstore.op_ms", "ms", "lower", KINDS),
    *_expand("documentstore.examined_per_returned", "ratio", "lower", EXAMINED_SHAPES),
    ("documentstore.load_docs_per_s", "1/s", "higher"),
    ("documentstore.bson_encode_mb_s", "MB/s", "higher"),
    ("documentstore.bson_decode_mb_s", "MB/s", "higher"),
    *_expand("documentstore.wal_added_ms", "ms", "lower", WRITE_KINDS),
    ("documentstore.wal_records", "count", "lower"),
    ("documentstore.wal_bytes", "bytes", "lower"),
    ("documentstore.wal_fsyncs", "count", "lower"),
    ("documentstore.wal_bytes_per_user_byte", "ratio", "lower"),
    ("documentstore.durable_load_ratio", "ratio", "lower"),
    ("documentstore.checkpoint_s", "s", "lower"),
    ("documentstore.snapshot_bytes_per_user_byte", "ratio", "lower"),
    ("documentstore.recovery_wal_s", "s", "lower"),
    ("documentstore.recovery_snapshot_s", "s", "lower"),
    ("documentstore.recovery_docs_per_s", "1/s", "higher"),
    *_expand("sharding.busy_s", "s", "lower", CALLS),
    *_expand("sharding.overhead_ratio", "ratio", "lower", _Q),
    *_expand("sharding.op_added_ms", "ms", "lower", KINDS),
    ("sharding.router_ops", "count", "lower"),
    ("sharding.targeted_ratio", "ratio", "higher"),
    ("sharding.shards_per_op", "ratio", "lower"),
    ("sharding.messages", "count", "lower"),
    ("sharding.docs_shipped", "count", "lower"),
    ("sharding.bytes_shipped", "bytes", "lower"),
    ("sharding.shard_busy_s", "s", "lower"),
    ("sharding.fanout_wall_s", "s", "lower"),
    ("sharding.router_self_s", "s", "lower"),
    ("sharding.timeouts", "count", "lower"),
    ("sharding.balance_s", "s", "lower"),
    ("sharding.chunks", "count", "lower"),
    ("sharding.route_docs_per_s", "1/s", "higher"),
    *_expand("server.op_added_ms", "ms", "lower", KINDS),
    ("server.wire_bytes_in", "bytes", "lower"),
    ("server.wire_bytes_out", "bytes", "lower"),
    ("server.wire_bytes_per_op", "bytes", "lower"),
    ("server.frame_encode_us", "us", "lower"),
    ("server.frame_decode_us", "us", "lower"),
    ("server.getmore_per_find", "ratio", "lower"),
    ("server.errors", "count", "lower"),
    ("server.retries", "count", "lower"),
    ("server.rejections", "count", "lower"),
    ("server.cursors_open_at_end", "count", "lower"),
    *_expand("client.p50_ms", "ms", "lower", KINDS),
    *_expand("client.p99_ms", "ms", "lower", KINDS),
    ("client.read_p99_ms", "ms", "lower"),
    ("client.write_p99_ms", "ms", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.drift_ratio", "ratio", "lower"),
]
PER_LAYER_UNITS = {name: unit for name, unit, _better in PER_LAYER}


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (need not be sorted)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class Samples:
    """Timed intervals of one measurement, summarised after the run.

    Intervals are kept as raw ``perf_counter`` stamps; :meth:`values` turns
    them into calibrated seconds once the sampler's map is frozen.
    """

    def __init__(self) -> None:
        self.intervals: list[tuple[float, float]] = []

    def add(self, start: float, end: float) -> None:
        self.intervals.append((start, end))

    def __len__(self) -> int:
        return len(self.intervals)

    def values(self, seconds: Callable[[float, float], float]) -> list[float]:
        return [seconds(start, end) for start, end in self.intervals]

    def describe(self, seconds: Callable[[float, float], float]) -> dict[str, float]:
        """Sample count, calibrated quartiles, plain wall-clock median."""
        q1, median, q3 = quartiles(self.values(seconds))
        return {
            "n": len(self.intervals),
            "q1": q1,
            "median": median,
            "q3": q3,
            "wall_median": statistics.median(end - start for start, end in self.intervals),
        }


def drift_ratio(values: Sequence[float]) -> float:
    """Median of the second half of the samples over that of the first."""
    half = len(values) // 2
    if half == 0:
        return 1.0
    return statistics.median(values[half:]) / statistics.median(values[:half])
