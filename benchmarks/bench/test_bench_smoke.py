"""Smoke test of the benchmark harness at ``--scale smoke`` (numbers mean nothing).

Every workload runs once untraced and once traced, each in its own process as
the driver runs them; the test then checks the contract, not the speed.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import metrics

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
#: Directories the interpreter and pytest themselves write while a test runs.
NOT_OURS = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}
#: Workloads also run with their reference answers broken.
CORRUPTED = ("tpcds_sharded", "served_mixed", "bulk_load")


def run_benchmark(out: pathlib.Path, workload: str, trace: int, *extra: str) -> dict:
    """One single-workload run; returns the contract line and the full record."""
    record_path = out / f"record-{workload}-{trace}{'-'.join(extra)}.json"
    done = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "0", "--trace", str(trace), "--scale", "smoke", "--out", str(out),
            "--record", str(record_path), *extra,
        ],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return {
        "line": json.loads(done.stdout.strip().splitlines()[-1]),
        "record": json.loads(record_path.read_text()),
    }


def tree_state(root: pathlib.Path) -> dict[str, tuple[int, int]]:
    state = {}
    for directory, names, files in os.walk(root):
        names[:] = [name for name in names if name not in NOT_OURS]
        for file in files:
            path = pathlib.Path(directory, file)
            stat = path.stat()
            state[str(path)] = (stat.st_mtime_ns, stat.st_size)
    return state


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-out")
    before = tree_state(REPO_ROOT)
    jobs = [(workload, trace) for workload in metrics.WORKLOADS for trace in (0, 1)]
    jobs += [(workload, 0, "--corrupt-reference") for workload in CORRUPTED]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: run_benchmark(out, *job), jobs))
    return {"by_job": dict(zip(jobs, results)), "out": out, "before": before}


def finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def test_contract_file_lists_what_the_harness_measures():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(metrics.WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/bench"]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in CONTRACT["end_to_end"]
    ] == [(name, *metrics.E2E[name][:3]) for name in metrics.CONTRACT_E2E]
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] == metrics.PER_LAYER
    assert "setup_s" in metrics.CONTRACT_E2E and len(metrics.PER_LAYER) <= 128


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_every_metric_is_reported_and_nothing_fails(runs, workload):
    untraced, traced = runs["by_job"][workload, 0], runs["by_job"][workload, 1]
    for result in (untraced, traced):
        line = result["line"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert result["record"]["e2e"]["failed_ratio"] == 0
    # --trace 0: every end-to-end metric of the contract, a number that is not 0.
    values = untraced["line"]["metrics"]
    assert list(values) == list(metrics.CONTRACT_E2E)
    for name, cell in values.items():
        assert finite(cell["value"]) and cell["value"] > 0, name
        assert cell["unit"] == metrics.E2E[name][0]
    # The record names every end-to-end metric: a number where the workload
    # reports it, an explicit null where it does not (as the result file has it).
    import report

    summary = report.summarise(workload, [untraced["record"]], traced["record"])
    assert set(summary["e2e"]) == set(metrics.E2E)
    for name, (_unit, _better, _bound, reported_by) in metrics.E2E.items():
        if reported_by is None or workload in reported_by:
            assert finite(summary["e2e"][name]["value"]), name
        else:
            assert summary["e2e"][name] is None, name
    # --trace 1: every per-layer metric, finite.
    layers = traced["line"]["metrics"]
    assert list(layers) == [name for name, _unit, _better in metrics.PER_LAYER]
    assert all(finite(cell["value"]) for cell in layers.values())
    assert set(traced["record"]["layers"]) <= set(layers)


@pytest.mark.parametrize("workload", CORRUPTED)
def test_a_corrupted_reference_is_a_failed_operation(runs, workload):
    result = runs["by_job"][workload, 0, "--corrupt-reference"]
    assert result["line"]["correct"] is False and result["line"]["failed"] > 0
    assert result["record"]["e2e"]["failed_ratio"] > 0


@pytest.mark.parametrize("workload", ["tpcds_standalone", "tpcds_sharded", "bulk_load"])
def test_span_self_times_sum_to_the_round(runs, workload):
    record = runs["by_job"][workload, 1]["record"]
    assert 0.95 <= record["validity"]["span_coverage"] <= 1.0 + 1e-9
    spans = [
        json.loads(line)
        for line in (runs["out"] / f"spans-{workload}-7.jsonl").read_text().splitlines()
    ]
    assert spans
    self_time = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            assert parent["op_id"] == span["op_id"]
            self_time[span["parent"]] -= span["end"] - span["start"]
    assert min(self_time.values()) >= 0
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    assert sum(self_time.values()) == pytest.approx(roots, rel=1e-6)


def test_ladder_and_counters_are_sane(runs):
    record = runs["by_job"]["served_mixed", 1]["record"]
    layers = record["layers"]
    assert layers["server.errors"] == 0 and layers["server.cursors_open_at_end"] == 0
    assert layers["sharding.timeouts"] == 0 and layers["sharding.router_ops"] > 0
    assert layers["documentstore.wal_records"] > 0 and layers["server.wire_bytes_per_op"] > 0


def test_a_run_touches_nothing_outside_its_out_directory(runs):
    assert tree_state(REPO_ROOT) == runs["before"]
    assert not (runs["out"] / "tmp").exists() or not any((runs["out"] / "tmp").iterdir())
