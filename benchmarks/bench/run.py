"""The one benchmark command.

``python benchmarks/bench/run.py`` runs every workload (each repeat in a fresh
subprocess), then the traced pass, prints every metric by name with its unit
and writes one result file under ``--out``.

``python benchmarks/bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload once in this process and prints, as the last line of its
output, the JSON record ``BENCHMARK.json`` describes.  The full command is a
loop over this one.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
# ``repro`` is not installed; it is run from the checkout's ``src``.  A
# directory holding only the benchmark has no ``src``, and the import fails.
sys.path.insert(0, str(REPO_ROOT / "src"))

import metrics  # noqa: E402


def run_workload(args: argparse.Namespace) -> dict:
    """Run one workload in this process and return its record."""
    from bulk_workload import bulk_load
    from harness import SCALES, Run
    from served_workload import served_mixed
    from tpcds_workloads import tpcds_sharded, tpcds_standalone

    workloads = {
        "tpcds_standalone": tpcds_standalone,
        "tpcds_sharded": tpcds_sharded,
        "served_mixed": served_mixed,
        "bulk_load": bulk_load,
    }
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        scale=SCALES[args.scale],
        out_dir=pathlib.Path(args.out).resolve(),
        process_start=PROCESS_START,
        corrupt=args.corrupt_reference,
    )
    try:
        workloads[args.workload](run)
        record = run.finish()
        if run.tracer is not None:
            run.tracer.write_jsonl(run.out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        run.cleanup()
    return record


def contract_line(record: dict) -> str:
    """The last line of a single-workload run: what ``BENCHMARK.json`` promises."""
    if record["traced"]:
        values = {
            name: {"value": record["layers"].get(name, 0.0), "unit": unit}
            for name, unit, _better in metrics.PER_LAYER
        }
    else:
        values = {
            name: {"value": record["e2e"][name], "unit": metrics.E2E[name][0]}
            for name in metrics.CONTRACT_E2E
        }
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": values,
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=metrics.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run --workload once in this process, untraced (0) or traced (1)")
    parser.add_argument("--traced", action="store_true", help="full run: add the traced pass")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full run: untraced runs per workload")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", default=str(BENCH_DIR / "out"))
    parser.add_argument("--record", help="single run: also write the full record to this file")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: break the reference answers; the run must report failures")
    args = parser.parse_args(argv)

    if args.trace is None:
        from report import full_run

        return full_run(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    record = run_workload(args)
    if args.record:
        pathlib.Path(args.record).write_text(json.dumps(record))
    for message in record["failures"]:
        print("FAILED:", message)
    print(contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
