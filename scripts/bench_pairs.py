"""Paired benchmark record: a parent commit against a change, run back to back on one host.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --workload cli --seeds 0 7 \
        --pairs 10 4 --out BENCH.json

Each commit is exported with ``git archive`` into a fresh directory, and
``perfbench/run.py`` runs there unchanged (``--trace 0``, for BENCHMARK.json's
``run_seconds``), one process per run. Pair i runs the parent first when i is
even and the change first when it is odd. Every workload also gets as many A/A
pairs on the first seed as that seed's pairs: the parent against a second
export of the parent, in the same alternation, the noise the pair rule must
beat.

For each workload, seed and end-to-end metric of BENCHMARK.json the record
holds each side's median and quartiles, the change's wins (ties count for
neither), the median gap, and the A/A gap, wins and whether the pair rule
(wins in at least 9 of 10 pairs, median gap above the parent's IQR) passed on
noise. Every run's metrics and per-task medians are kept. The host, versions,
BLAS thread variables and the runtime OpenBLAS kernel come first.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KERNEL = """
import ctypes, pathlib, numpy
libs = sorted((pathlib.Path(numpy.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*.so"))
corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
print(corename().decode())
"""


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout.strip()


def export(rev: str, into: Path) -> Path:
    """The tree of ``rev`` as plain files in ``into`` (no .git)."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``: its metrics and per-task medians."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} ({workload}, seed {seed}):\n{out.stderr}")
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    result = json.loads((tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"metrics": {k: m["value"] for k, m in summary["metrics"].items()}, "correct": summary["correct"],
            "task_median_s": result["task_median_s"], "provenance": result["provenance"]}


def pairs(first: Path, second: Path, count: int, workload: str, seed: int, seconds: float) -> list:
    """``count`` alternating pairs (first, second); each pair lists first's run then second's."""
    done = []
    for i in range(count):
        order = [(0, first), (1, second)] if i % 2 == 0 else [(1, second), (0, first)]
        runs = {side: run_once(tree, workload, seed, seconds) for side, tree in order}
        done.append({"first_ran": "parent" if i % 2 == 0 else "change", "runs": [runs[0], runs[1]]})
        print(f"  {workload} seed {seed} pair {i + 1}/{count}: " + ", ".join(
            f"{k} {runs[0]['metrics'][k]:.4g} -> {runs[1]['metrics'][k]:.4g}" for k in ("wall_s", "task_p50_s")),
            flush=True)
    return done


def kept(pair: dict) -> dict:
    """What the record keeps of a pair: which side ran first, and each run's metrics and per-task medians."""
    runs = {side: {k: run[k] for k in ("metrics", "correct", "task_median_s")}
            for side, run in zip(("parent", "change"), pair["runs"])}
    return {"first_ran": pair["first_ran"], **runs}


def quartiles(xs: list) -> list:
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3


def compare(done: list, name: str, lower_is_better: bool) -> dict:
    """Each side's median and quartiles, the second side's wins and the gap of medians."""
    a = [p["runs"][0]["metrics"][name] for p in done]
    b = [p["runs"][1]["metrics"][name] for p in done]
    qa, qb = quartiles(a), quartiles(b)
    wins = sum(y < x if lower_is_better else y > x for x, y in zip(a, b))
    gap = qb[1] - qa[1]
    better = gap < 0 if lower_is_better else gap > 0
    return {"parent": {"median": qa[1], "q1": qa[0], "q3": qa[2]},
            "change": {"median": qb[1], "q1": qb[0], "q3": qb[2]},
            "pairs": len(done), "wins": wins, "gap": gap, "parent_iqr": qa[2] - qa[0],
            "pair_rule": better and wins >= 0.9 * len(done) and abs(gap) > qa[2] - qa[0]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--change", required=True, help="the changed revision")
    parser.add_argument("--workload", required=True, action="append", help="repeat for several workloads")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, nargs="+", required=True, help="pairs per seed (one count, or one each)")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    counts = args.pairs * len(args.seeds) if len(args.pairs) == 1 else args.pairs
    if len(counts) != len(args.seeds):
        parser.error("--pairs takes one count or one per seed")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    commits = {side: git("rev-parse", rev) for side, rev in (("parent", args.parent), ("change", args.change))}
    workloads, host = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = (export(commits[side], Path(tmp) / side) for side in ("parent", "change"))
        kernel = subprocess.run([sys.executable, "-c", KERNEL], capture_output=True, text=True).stdout.strip()
        for workload in args.workload:
            entry = workloads[workload] = {}
            for seed, count in zip(args.seeds, counts):
                done = pairs(parent, change, count, workload, seed, seconds)
                host = {k: v for k, v in done[0]["runs"][0]["provenance"].items()
                        if k not in ("seed", "git_commit", "source_sha256")}
                entry[str(seed)] = {"metrics": {name: compare(done, name, lower[name]) for name in lower},
                                    "runs": [kept(pair) for pair in done]}
            copy = export(commits["parent"], Path(tmp) / f"parent-again-{workload}")
            done = pairs(parent, copy, counts[0], workload, args.seeds[0], seconds)
            entry["aa"] = {"seed": args.seeds[0], "metrics": {name: compare(done, name, lower[name]) for name in lower}}
            for name, ab in entry[str(args.seeds[0])]["metrics"].items():
                ab["aa_gap"] = entry["aa"]["metrics"][name]["gap"]
                ab["beyond_aa"] = abs(ab["gap"]) > abs(ab["aa_gap"])
    record = {"parent": commits["parent"], "change": commits["change"],
              "change_src_tree": git("rev-parse", f"{commits['change']}:src"), "host": host,
              "openblas_kernel": kernel or None, "seconds": seconds,
              "pair_rule": "the change wins at least 9 of 10 pairs and its median gap exceeds the parent's IQR",
              "workloads": workloads}
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
