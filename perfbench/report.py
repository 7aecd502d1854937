"""Run the benchmark on every workload and print each metric by name, with
its unit.

    python3 perfbench/report.py                       # seed 0, end-to-end metrics
    python3 perfbench/report.py --seeds 0 1 2 3 4     # median and spread per metric
    python3 perfbench/report.py --trace 1             # per-layer metrics
    python3 perfbench/report.py --crosscheck          # traced times vs recorded baselines

Each run is a separate ``run.py`` process, so peak memory and set-up time
are per workload. The spread of a metric is the distance between the first
and third quartile of its values over the seeds, as a share of their median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ["flow", "halfline", "gauge", "cli"]

# single-call baselines measured on 2 cores (Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1): (span name, benchmark task, size here) -> (size there, s).
# Size is n, or L for halfline_solve; horizontal_project runs at a third of
# the baseline's n here.
BASELINES = {
    ("solver.integrate_nahm", "coth_su2", 5000): (5000, 0.74),
    ("solver.integrate_baby", "trivialize_su2", 1500): (1500, 0.080),
    ("gauge.trivialize", "trivialize_su2", 1500): (1500, 0.038),
    ("gauge.complex_trivialize_direct", "trivialize_su2", 1500): (1500, 0.032),
    ("gauge.horizontal_project", "quotient_su2", 500): (1500, 0.065),
    ("solver.halfline_solve", "coth_su2", 10.0): (10.0, 2.1),
}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    line = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {**line, "record": record}


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def solver_paths(runs: list) -> None:
    """Print each half-line task's Newton iteration count and solver message
    over the runs, and whether they are the same in every run."""
    paths = {}
    for r in runs:
        record = r["record"]
        for t in [t for p in record["passes"] for t in p] + record.get("once", []):
            if "newton_iters" in t["notes"]:
                paths.setdefault(t["task"], set()).add((t["notes"]["newton_iters"], t["notes"]["outcome"]))
    for task, seen in paths.items():
        same = "same in every run" if len(seen) == 1 else "DIFFERS between runs"
        print(f"  {task}: {same}: " + "; ".join(f"{iters} Newton iterations, {outcome!r}" for iters, outcome in sorted(seen)))


def crosscheck(seed: int, seconds: float) -> None:
    """Median single-call times from traced runs next to the baselines."""
    print(f"{'span':32} {'task':15} {'size':>6} {'calls':>5} {'traced s':>9} {'baseline':>16} {'gap':>6}")
    for workload in ("flow", "gauge", "halfline"):
        for row in run(workload, seed, seconds, 1)["record"]["by_size"]:
            key = (row["name"], row["task"], row["size"])
            if row["k"] != 2 or key not in BASELINES:
                continue
            size, base = BASELINES[key]
            print(f"{row['name']:32} {row['task']:15} {row['size']:>6} {row['calls']:>5} {row['median_s']:>9.4f} "
                  f"{f'{base:.3f} at {size}':>16} {row['median_s'] / base - 1:>+6.0%}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--crosscheck", action="store_true")
    args = parser.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.crosscheck:
        crosscheck(args.seeds[0], seconds)
        return
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run(workload, seed, seconds, args.trace)
            runs.append(result)
            fails = ", ".join(f"{f['task']} ({f['reason']})" for f in result["record"]["failures"]) or "none"
            print(f"[{workload} seed {seed}] correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}: {fails}", flush=True)
        print(f"{workload}: {len(runs)} run(s), seeds {args.seeds}")
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            print(f"  {name:44} {statistics.median(values):12.6g} {metric['unit']:8} "
                  f"spread {spread(values):.4f}  [{', '.join(f'{v:.6g}' for v in values)}]", flush=True)
        if args.trace == 0:
            print("  unscaled: " + ", ".join(
                f"{name} {statistics.median(v):.6g} s spread {spread(v):.4f}"
                for name, v in ((name, [r["record"]["unscaled"][name] for r in runs])
                                for name in runs[0]["record"]["unscaled"])))
        solver_paths(runs)


if __name__ == "__main__":
    main()
