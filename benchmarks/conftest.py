"""Shared fixtures for the benchmark suite.

The benchmarks regenerate every table and figure of the paper's evaluation
section.  They share one :class:`~repro.core.ExperimentHarness` per pytest
session so each deployment (stand-alone / sharded, small / large scale) is
loaded and denormalized exactly once.

Scale control
-------------
By default the harness uses the reproduction's standard scales (the paper's
1 GB / 5 GB datasets reduced by 1/1000).  Set ``REPRO_BENCH_SCALE=tiny`` to
run the whole suite on very small data (useful for smoke-testing the
benchmark code itself), or ``REPRO_BENCH_SCALE=full`` for the standard size.

Artifacts
---------
Every benchmark renders the table or figure it reproduces and echoes it, so
the numbers can be compared with the paper after a run.  The tracked copies
under ``benchmarks/results/`` are rewritten only when pytest is given
``--update-results``: timings differ on every run, and a plain test run must
leave the working tree clean.
"""

from __future__ import annotations

import gc
import os
import pathlib

import pytest

from repro.core import ExperimentHarness, tiny_profile
from repro.tpcds import QUERY_IDS

RESULTS_DIRECTORY = pathlib.Path(__file__).parent / "results"

#: Shared cache of measured query runtimes: {(experiment, query): seconds}.
MEASURED_RUNTIMES: dict[tuple[int, int], float] = {}


@pytest.fixture(autouse=True)
def _collect_before_timing():
    """Drain collector debt before each benchmark.

    When the full suite runs in one process, a thousand functional tests
    precede these timing assertions; a generation-2 collection triggered
    mid-measurement can double a sub-second load on a single-CPU runner
    and flip a relative-timing check.
    """
    gc.collect()
    yield


def _scale_overrides() -> dict:
    mode = os.environ.get("REPRO_BENCH_SCALE", "full").lower()
    if mode == "tiny":
        return {
            "small": tiny_profile(1.0 / 10_000.0),
            "large": tiny_profile(1.0 / 4_000.0),
        }
    return {}


@pytest.fixture(scope="session")
def harness() -> ExperimentHarness:
    """The shared experiment harness (cached environments per scale)."""
    return ExperimentHarness(scale_overrides=_scale_overrides())


@pytest.fixture(scope="session")
def measured_runtimes() -> dict[tuple[int, int], float]:
    """Query runtimes recorded by earlier benchmarks in the same session."""
    return MEASURED_RUNTIMES


#: What routing one query costs, from ``QueryRunResult.router_metrics`` /
#: ``.network``.  Counts and modelled seconds: they repeat exactly run to run.
ROUTING_COUNTERS = ("shards_contacted", "messages", "bytes_shipped", "network_seconds")


@pytest.fixture(scope="session")
def routing_costs(harness):
    """``routing_costs(experiment)`` -> ``{query: {counter: value}}`` (cached)."""
    cache: dict[int, dict[int, dict[str, float]]] = {}

    def _costs(experiment: int) -> dict[int, dict[str, float]]:
        if experiment not in cache:
            cache[experiment] = {}
            for query_id in QUERY_IDS:
                run = harness.run_query(experiment, query_id)
                counters = {**run.router_metrics, "messages": run.network["messages"]}
                cache[experiment][query_id] = {name: counters[name] for name in ROUTING_COUNTERS}
        return cache[experiment]

    return _costs


#: Alternating rounds per ``paired_runtimes`` call.  A shared host slows down
#: in episodes of a second or more, during which one large-scale stand-alone
#: Query 21 run takes ~0.17 s instead of ~0.09 s.  On a 2-vCPU host, best of 3
#: rounds inverted the (4, 5, 21) pair in 16 of 78 overlapping windows of 80
#: alternating runs; best of 9 in none of 72.
PAIRED_ROUNDS = 9


@pytest.fixture(scope="session")
def paired_runtimes(harness):
    """``paired_runtimes(a, b, query)`` -> best-of-``PAIRED_ROUNDS`` seconds of two experiments.

    A sharded Query 21 costs only 1.1–1.4× its stand-alone run (paper: 1.26
    / 1.49).  Two cells measured minutes apart differ by more than that
    whenever the host changes speed in between, so "sharded is slower" is
    checked on runs that alternate: both experiments see the same machine.
    """

    def _paired(first: int, second: int, query_id: int) -> tuple[float, float]:
        best: dict[int, float] = {}
        for _round in range(PAIRED_ROUNDS):
            for experiment in (first, second):
                seconds = harness.run_query(experiment, query_id).simulated_seconds
                best[experiment] = min(seconds, best.get(experiment, seconds))
        return best[first], best[second]

    return _paired


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-results",
        action="store_true",
        default=False,
        help="rewrite the tracked tables and figures under benchmarks/results/",
    )


@pytest.fixture(scope="session")
def record_artifact(request: pytest.FixtureRequest):
    """Echo a rendered table/figure; with ``--update-results`` also save it."""
    update = request.config.getoption("--update-results")

    def _record(name: str, text: str) -> None:
        print(f"\n{text}")
        if update:
            RESULTS_DIRECTORY.mkdir(parents=True, exist_ok=True)
            path = RESULTS_DIRECTORY / f"{name}.txt"
            path.write_text(text + "\n")
            print(f"[artifact written to {path}]")

    return _record
