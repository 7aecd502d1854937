"""nahmlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload flow --seed 0 --seconds 18 --trace 0

Run it from anywhere inside a source checkout; it imports nahmlab from the
checkout's ``src/`` and pins BLAS to one thread. The workloads (flow,
halfline, gauge, cli) are defined in ``workloads.py``. A run makes a fixed
number of passes over the workload's task list, chosen from ``--seconds``,
and checks every output; a workload's ``once`` tasks then run once, checked
and counted but not timed. Task times are scaled to a reference machine
speed with short probes run between tasks (see ``one_pass``). setup_s is
the median of fresh-interpreter starts spread over the run, scaled by the
mean of all the run's probes.

With ``--trace 0`` it reports the end-to-end metrics listed in BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The full record, with
provenance, failures and controls, goes to ``perfbench/results/``; a traced
run also writes its spans there.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads BLAS, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_RUNS = 5  # timed fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
PROBE_EVERY_S = 0.3  # task seconds between machine-speed probes
GROUP_PROBES = 3  # probes at the start and end of a pass
SETUP_TIMEOUT_S = 120  # a fresh interpreter that takes longer is killed
REF_PROBE_S = 0.030  # speed_probe() seconds on the reference machine
# seconds per untraced pass at the seed commit (2 cores, BLAS on one thread)
PASS_SECONDS = {"flow": 3.3, "halfline": 6.5, "gauge": 1.65, "cli": 6.5}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def fresh_start() -> dict:
    """One fresh interpreter that imports nahmlab and runs the warm-up task,
    timed from outside: its wall seconds and the child's CPU seconds.

    The wait blocks in waitpid: ``Popen.wait(timeout)`` polls every 50 ms,
    which would round each start up to a multiple of 50 ms. A timer kills a
    child that hangs."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    used = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, str(BENCH / "warmup.py")], env=env, cwd=ROOT,
                             stdout=subprocess.DEVNULL)
    timer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
    timer.start()
    code = child.wait()
    wall = time.perf_counter() - start
    timer.cancel()
    if code != 0:
        die(f"warm-up interpreter exited with code {code}")
    done = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"s": wall, "cpu_s": done.ru_utime - used.ru_utime + done.ru_stime - used.ru_stime}


def start_slots(passes: int) -> list:
    """Before which pass each of the SETUP_RUNS fresh starts runs (``passes``
    means after the last): spread evenly over the run, so that setup_s
    samples the machine across the run rather than in its first seconds."""
    return [round(j * passes / (SETUP_RUNS - 1)) for j in range(SETUP_RUNS)]


def rounds(workload: str, seconds: float, trace: int) -> int:
    """Passes in a run (pairs of untraced and traced passes with --trace 1).
    The count depends only on --seconds and the workload's pass time at the
    seed commit, so every commit gets the same number of task samples, and
    task_tail_s is read at the same percentile. At the seed commit the
    passes take about --seconds, plus about a tenth for the speed probes."""
    return max(1, round(seconds / (PASS_SECONDS[workload] * (1 + trace))))


def attempt(task, notes: dict, check_failed) -> tuple:
    """Run one task; returns (failure reason or None, traceback or None)."""
    try:
        task.run(notes)
    except check_failed as exc:
        return str(exc), None
    except Exception as exc:  # a failed task is recorded and the run goes on
        return f"{type(exc).__name__}: {exc}", traceback.format_exc(limit=-4)
    return None, None


@functools.lru_cache(maxsize=1)
def probe_inputs() -> tuple:
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.standard_normal((300, 4, 4)) + 0j, rng.standard_normal((4, 2000, 3, 3)) + 0j


def speed_probe() -> float:
    """Seconds for a fixed mix of the work nahmlab spends its time on, never
    calling nahmlab: a Python loop of 3x3 complex matrix updates, a plain
    Python loop, batched 4x4 eigenvalues and batched 3x3 products on a
    1.2 MB array, 5 to 15 ms each on the reference machine."""
    import numpy as np

    eig, batch = probe_inputs()
    a = 0.5 * np.eye(3, dtype=complex)
    b = np.full((3, 3), 0.1 + 0.05j)
    start = time.perf_counter()
    for _ in range(600):
        a = a + 1e-3 * (a @ b - b @ a)
    total = 0
    for i in range(50000):
        total += i * i
    np.linalg.eigvals(eig)
    for _ in range(3):
        np.linalg.norm(batch @ batch - 0.5 * batch.conj(), axis=(-2, -1))
    return time.perf_counter() - start


def probes(count: int) -> list:
    return [speed_probe() for _ in range(count)]


def one_pass(workload, check_failed, tracer=None) -> list:
    """One pass over the task list. Each task record carries the speed
    probes taken just before it: GROUP_PROBES before the first task, then
    one per PROBE_EVERY_S seconds of tasks since the last ones (a long task
    is followed by as many as the short ones it stands for). At least
    GROUP_PROBES more close the pass.

    The machine's speed drifts by 20-30% over seconds to minutes, so each
    task's time is also given scaled by REF_PROBE_S over the mean of the
    nearest probe group before it and after it: seconds at the reference
    speed."""
    workload.begin_pass()
    records, since = [], 0.0
    for task in workload.tasks:
        before = probes(int(since / PROBE_EVERY_S) if records else GROUP_PROBES)
        since %= PROBE_EVERY_S
        notes = {}
        t0 = time.perf_counter()
        if tracer is None:
            reason, tb = attempt(task, notes, check_failed)
        else:
            tracer.task = task.name
            with tracer.span(f"bench.{task.name}"):
                reason, tb = attempt(task, notes, check_failed)
        dt = time.perf_counter() - t0
        since += dt
        records.append({"task": task.name, "s": dt, "failure": reason, "traceback": tb, "notes": notes,
                        "probes_before": before})
    groups = [r["probes_before"] for r in records] + [probes(max(GROUP_PROBES, int(since / PROBE_EVERY_S)))]
    for i, r in enumerate(records):
        # the nearest probe groups on each side of the task
        near = next(g for g in reversed(groups[: i + 1]) if g) + next(g for g in groups[i + 1:] if g)
        r["speed"] = REF_PROBE_S / statistics.fmean(near)
        r["scaled_s"] = r["s"] * r["speed"]
    return records


def tail(samples: list) -> dict:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it
    (nearest rank). With too few samples it falls back to the maximum."""
    xs = sorted(samples)
    if len(xs) > TAIL_BEYOND:
        rank = len(xs) - TAIL_BEYOND
        return {"value": xs[rank - 1], "percentile": 100.0 * rank / len(xs), "beyond": TAIL_BEYOND,
                "samples": len(xs)}
    return {"value": xs[-1], "percentile": 100.0, "beyond": 0, "samples": len(xs),
            "note": f"fewer than {TAIL_BEYOND + 1} samples: the maximum is reported"}


def provenance(seed: int, nahmlab, numpy, scipy) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nahmlab": nahmlab.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
        "platform": platform.platform(),
        "seed": seed,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["flow", "halfline", "gauge", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("need --seed >= 0 and --seconds > 0")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")
    if not (SRC / "nahmlab" / "__init__.py").is_file():
        die(f"no nahmlab source at {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import nahmlab

    import_s = time.perf_counter() - start
    if Path(nahmlab.__file__).resolve().parent != (SRC / "nahmlab").resolve():
        die(f"imported nahmlab from {nahmlab.__file__}, not from {SRC}")
    import numpy
    import scipy

    import tracing
    import warmup
    import workloads

    warmup.warmup()
    workdir = RESULTS / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        passes, traced, setup = [], [], []
        count = rounds(args.workload, args.seconds, args.trace)
        slots = [] if args.trace else start_slots(count)
        for i in range(count + 1):
            setup += [fresh_start() for _ in range(slots.count(i))]
            if i == count:
                break
            passes.append(one_pass(workload, workloads.CheckFailed))
            if tracer is not None:
                tracer.start_pass()
                tracer.install()
                try:
                    traced.append(one_pass(workload, workloads.CheckFailed, tracer))
                finally:
                    tracer.uninstall()
        once = []
        for task in workload.once:
            notes = {}
            t0 = time.perf_counter()
            reason, tb = attempt(task, notes, workloads.CheckFailed)
            once.append({"task": task.name, "s": time.perf_counter() - t0, "failure": reason, "traceback": tb,
                         "notes": notes})
        controls = []
        for control in workload.controls:
            reason, tb = attempt(control, {}, workloads.CheckFailed)
            # a control is caught only by its checker; any other exception means it is broken
            controls.append({"control": control.name, "caught": reason is not None and tb is None,
                             "reason": reason, "traceback": tb})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in passes + traced for r in p] + once
    failures = [r for r in records if r["failure"] is not None]
    for r in failures:
        r["known_defect"] = any(part in r["failure"] for part in workload.known_defects.get(r["task"], ()))
    correct = all(r["known_defect"] for r in failures) and all(c["caught"] for c in controls)

    # times scaled to the reference machine speed, task by task
    walls = [sum(r["scaled_s"] for r in p) for p in passes]
    task_times = [r["scaled_s"] for p in passes for r in p]
    tail_info = tail(task_times)
    raw = {"setup_s": statistics.median(x["s"] for x in setup) if setup else None,
           "wall_s": statistics.median(sum(r["s"] for r in p) for p in passes),
           "task_p50_s": statistics.median(r["s"] for p in passes for r in p),
           "task_tail_s": tail([r["s"] for p in passes for r in p])["value"]}
    if args.trace:
        overhead = statistics.median(sum(r["scaled_s"] for r in p) for p in traced) / statistics.median(walls) - 1
        values = tracing.per_layer(tracer.passes, [sum(r["s"] for r in p) for p in traced], overhead,
                                   [r["notes"] for p in traced for r in p], import_s)
        wanted = spec["per_layer"]
    else:
        values = {
            # at the reference speed, by the mean of every probe of the run
            "setup_s": raw["setup_s"] * REF_PROBE_S / statistics.fmean(
                x for p in passes for r in p for x in r["probes_before"]),
            "wall_s": statistics.median(walls),
            "task_p50_s": statistics.median(task_times),
            "task_tail_s": tail_info["value"],
            "pass_frac": 1.0 - len(failures) / len(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    seen = {}
    for r in failures:
        entry = seen.setdefault(r["task"], {"task": r["task"], "reason": r["failure"], "count": 0,
                                            "known_defect": r["known_defect"], "traceback": r["traceback"]})
        entry["count"] += 1
    per_task = {}
    for r in (r for p in passes for r in p):
        per_task.setdefault(r["task"], []).append(r["scaled_s"])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed, nahmlab, numpy, scipy),
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "fail_frac": len(failures) / len(records),
        "failures": list(seen.values()),
        "controls": controls,
        "metrics": metrics,
        "unscaled": raw,
        "reference_probe_s": REF_PROBE_S,
        "passes": [[{k: r[k] for k in ("task", "s", "speed", "probes_before", "notes")} for r in p] for p in passes],
        "once": [{k: r[k] for k in ("task", "s", "failure", "notes")} for r in once],
        "setup_samples": setup,
        "task_tail": tail_info,
        "task_median_s": {name: statistics.median(v) for name, v in per_task.items()},
        "settings": workload.settings,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        result["by_size"] = tracing.by_size(tracer.passes)
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            for number, spans in enumerate(tracer.passes):
                for name, t0, t1, parent, task, attrs in spans:
                    fh.write(json.dumps({"pass": number, "name": name, "start": t0, "end": t1, "parent": parent,
                                         "task": task, "attrs": attrs}) + "\n")
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(records)} tasks, {len(failures)} failed (fail_frac {result['fail_frac']:.4f})")
    for entry in seen.values():
        kind = "known defect" if entry["known_defect"] else "FAILURE"
        print(f"  {kind}: {entry['task']} x{entry['count']}: {entry['reason']}")
    for c in controls:
        print(f"  control {c['control']}: {'caught' if c['caught'] else 'NOT CAUGHT'} ({c['reason']})")
    if not args.trace:
        print(f"  task_tail_s is the p{tail_info['percentile']:.1f} of {tail_info['samples']} task latencies")
        print("  times are scaled to the reference speed; unscaled: " + ", ".join(
            f"{k} {v:.6g} s" for k, v in raw.items()))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
