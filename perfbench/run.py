"""End-to-end benchmark of ``repro-lofreq call`` and ``repro-lofreq serve``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload deep_scan --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; every
timing is scaled to a reference machine speed by calibration probes
taken in the same run (``calib.py``).
``--trace 1`` makes one untraced and one traced pass, prints the
per-layer self-time table, writes the spans as Chrome trace-event JSON
under ``.perfbench/traces/`` and reports the per-layer metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.

See ``perfbench/NOTES.md`` for the workloads, what each metric means on
each of them, and facts about the program later work should start from.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import offline  # noqa: E402
import procs  # noqa: E402
import serving  # noqa: E402

#: The metric names and units come from BENCHMARK.json.  Workloads it
#: does not list (see NOTES.md) can still be run by name.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [*offline.WORKLOADS, "region_serve"]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def print_table(summary: dict) -> None:
    wall = summary["wall_s"]
    print(f"per-layer self time over the traced wall of {wall:.3f} s "
          f"({summary['spans']} spans):")
    print(f"  {'layer':<10} {'module':<24} {'wall s':>9} {'share':>7} "
          f"{'thread-sum s':>13} {'spans':>8}")
    total = 0.0
    for row in summary["table"]:
        total += row["wall_s"]
        print(f"  {row['layer']:<10} {row['module']:<24} {row['wall_s']:9.4f} "
              f"{row['wall_s'] / wall:7.1%} {row['self_s']:13.4f} {row['spans']:8d}")
    unattributed = summary["metrics"]["trace.unattributed_s"]
    print(f"  {'(none)':<10} {'unattributed':<24} {unattributed:9.4f} {unattributed / wall:7.1%}")
    print(f"  {'total':<10} {'':<24} {total + unattributed:9.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(procs.WORK / "out", ignore_errors=True)
    procs.compile_program()
    if args.trace:
        traces = procs.WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{args.workload}-s{args.seed}.json"
        if args.workload == "region_serve":
            report = serving.run_traced(args.seed, trace_path)
        else:
            report = offline.run_traced(args.workload, args.seed, trace_path)
        units = PER_LAYER
        print_table(report["summary"])
        print(f"spans written to {trace_path}")
    else:
        if args.workload == "region_serve":
            report = serving.run(args.seed, args.seconds)
        else:
            report = offline.run(args.workload, args.seed, args.seconds)
        units = END_TO_END
    shutil.rmtree(procs.WORK / "out", ignore_errors=True)

    metrics = report["metrics"]
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    for key, value in report.get("notes", {}).items():
        if not isinstance(value, (dict, list)):
            print(f"{key}: {value}")
    for failure in report["failures"]:
        print(f"FAILED CHECK: {failure}")
    print(f"error_rate: {report['failed']}/{report['attempted']}")
    for name, unit in units.items():
        print(f"{name:<30} {metrics[name]:>14.6g} {unit}")
    reports = procs.WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str)
    )
    result = {
        "correct": report["failed"] == 0 and not report["failures"],
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
