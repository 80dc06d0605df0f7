"""The full benchmark: every workload in fresh subprocesses, one result file."""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Any

from repro.core import paper_reference_table_45

import metrics

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent


def _git(*arguments: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *arguments], cwd=REPO_ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args: argparse.Namespace) -> dict[str, Any]:
    """What a number needs beside it to be comparable later."""
    status = _git("status", "--porcelain")
    return {
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "harness_version": metrics.HARNESS_VERSION,
    }


def run_once(args: argparse.Namespace, workload: str, trace: int) -> dict[str, Any]:
    """One workload run in a fresh interpreter; returns its record."""
    out_dir = pathlib.Path(args.out).resolve()
    record_path = out_dir / "tmp" / f"record-{workload}-{os.getpid()}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--scale", args.scale, "--out", str(out_dir),
        "--record", str(record_path),
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} failed:\n{done.stdout}\n{done.stderr}")
    record = json.loads(record_path.read_text())
    record_path.unlink()
    return record


def fidelity(workloads: dict[str, Any]) -> dict[str, Any]:
    """Our Table 4.5 ratios beside the paper's small-dataset ones.  Never gated."""
    paper = paper_reference_table_45()
    standalone = workloads.get("tpcds_standalone", {}).get("runs")
    sharded = workloads.get("tpcds_sharded", {}).get("runs")
    block: dict[str, Any] = {}

    def entry(ours: float, reference: float) -> dict[str, Any]:
        return {"ours": ours, "paper": reference, "within_2x": 0.5 <= ours / reference <= 2.0}

    for query in metrics.QUERIES:
        row = {}
        if standalone:
            normalized = statistics.median(run["e2e"][f"q{query}_s"] for run in standalone)
            denormalized = statistics.median(
                run["samples"][f"denormalized.q{query}"]["median"] for run in standalone
            )
            row["normalized_over_denormalized"] = entry(
                normalized / denormalized, paper[2][query] / paper[3][query]
            )
            if sharded:
                routed = statistics.median(run["e2e"][f"q{query}_s"] for run in sharded)
                row["sharded_over_standalone"] = entry(
                    routed / normalized, paper[1][query] / paper[2][query]
                )
        block[f"q{query}"] = row
    return block


def summarise(
    workload: str, runs: list[dict[str, Any]], traced: dict[str, Any] | None
) -> dict[str, Any]:
    """Medians over the repeats, every repeat's value kept beside them."""
    e2e = {}
    for name, (unit, _better, _bound, reported_by) in metrics.E2E.items():
        if reported_by is not None and workload not in reported_by:
            e2e[name] = None
            continue
        values = [run["e2e"][name] for run in runs]
        e2e[name] = {"value": statistics.median(values), "unit": unit, "repeats": values}
    summary: dict[str, Any] = {"e2e": e2e, "runs": runs}
    if traced is not None:
        summary["layers"] = {
            name: {"value": value, "unit": metrics.PER_LAYER_UNITS[name]}
            for name, value in traced["layers"].items()
        }
        summary["traced_run"] = traced
    return summary


def print_result(result: dict[str, Any]) -> None:
    for workload, summary in result["workloads"].items():
        print(f"\n== {workload}")
        for name, cell in summary["e2e"].items():
            if cell is not None:
                repeats = len(cell["repeats"])
                print(f"{name:<28} {cell['value']:>14.6g} {cell['unit']:<6} (repeats: {repeats})")
        for name, cell in summary.get("layers", {}).items():
            print(f"{name:<48} {cell['value']:>14.6g} {cell['unit']}")
        for name, value in summary.get("traced_run", {}).get("validity", {}).items():
            print(f"validity.{name:<39} {value:>14.6g}")
    if result["fidelity"]:
        print("\n== paper fidelity (ours / paper / within 2x)")
        for query, row in result["fidelity"].items():
            for ratio, cell in row.items():
                print(
                    f"{query:<4} {ratio:<30} {cell['ours']:>8.2f} {cell['paper']:>8.2f}"
                    f" {cell['within_2x']}"
                )


def full_run(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    workloads = {}
    for workload in names:
        runs = []
        for repeat in range(args.repeat):
            print(f"running {workload} ({repeat + 1}/{args.repeat})", flush=True)
            runs.append(run_once(args, workload, trace=0))
        traced = None
        if args.traced:
            print(f"running {workload} (traced)", flush=True)
            traced = run_once(args, workload, trace=1)
        workloads[workload] = summarise(workload, runs, traced)
    result = {
        "schema": metrics.HARNESS_VERSION,
        "env": environment(args),
        "command": sys.argv,
        "workloads": workloads,
        "fidelity": fidelity(workloads),
    }
    print_result(result)
    out_dir = pathlib.Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"result-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"\nresult written to {path}")
    failed = sum(run["failed"] for summary in workloads.values() for run in summary["runs"])
    return 1 if failed else 0
