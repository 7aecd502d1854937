"""Spans around calls into nahmlab's public functions, for the traced run.

``Tracer.install`` replaces each function named in ``TRACED``, in every
nahmlab module that holds a reference to it, by a wrapper that records a span
``[name, start, end, parent, task, attrs]``; ``uninstall`` puts the originals
back. Nested calls between modules (``cli.main`` -> ``solver.integrate_nahm``
-> ...) become child spans, so time can be split between layers. Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time

TRACED = {
    "solver": ["integrate_nahm", "integrate_baby", "halfline_solve", "orbit_identify", "lax_extract",
               "nil_solution", "coth_solution"],
    "spectral": ["conservation_check", "spectral_flow", "char_coeffs", "reality_check", "fixed_curve"],
    "moment": ["mu_nahm", "hamiltonian_check", "kahler_form_identity_check", "s1_moment_identity_check"],
    "gauge": ["trivialize", "monodromy", "complex_trivialize", "complex_trivialize_direct", "horizontal_project",
              "quotient_metric", "vertical_field", "act", "exp_su_path"],
    "sympair": ["vergne_map_j", "classify_real_orbit", "kc_orbit_form_check"],
    "io": ["write_json", "nahm_to_json", "nahm_from_json", "residual_to_csv"],
    "cli": ["main"],
}

# layers whose self time is reported as a share of the traced pass; "bench"
# is the benchmark's own task code (input checks against closed forms)
LAYERS = ["solver", "spectral", "moment", "gauge", "sympair", "io", "cli", "bench"]


def _path_size(path) -> dict:
    return {"k": path.dim, "n": path.grid.n}


# what a span records besides its times, read from arguments and result
ATTRS = {
    "solver.integrate_nahm": lambda args, kw, res: {"k": res.algebra.dim, "n": res.grid.n},
    "solver.integrate_baby": lambda args, kw, res: _path_size(res[1]),
    "solver.halfline_solve": lambda args, kw, res: {
        "k": args[0].dim, "L": args[0].L, "iters": res.iterations, "converged": int(res.converged),
        "continuation": int("continuation" in res.message)},
    "spectral.conservation_check": lambda args, kw, res: {"k": args[0].algebra.dim, "n": args[0].grid.n},
    "gauge.trivialize": lambda args, kw, res: _path_size(args[0]),
    "gauge.complex_trivialize": lambda args, kw, res: _path_size(args[0]),
    "gauge.complex_trivialize_direct": lambda args, kw, res: _path_size(args[0]),
    "gauge.horizontal_project": lambda args, kw, res: _path_size(args[0]),
    "cli.main": lambda args, kw, res: {"command": (args[0] if args else kw["argv"])[0]},
}


EMPTY_ROW = {"calls": 0, "incl": 0.0, "self": 0.0, "layer_self": 0.0, "steps": 0, "flops": 0.0, "nodes": 0,
             "iters": 0, "converged": 0, "continuation": 0}


class Tracer:
    def __init__(self):
        self.passes: list[list] = []  # one span list per traced pass
        self.spans: list = []
        self.stack: list[int] = []
        self.task: str | None = None
        self._patches: list = []

    def start_pass(self) -> None:
        self.spans = []
        self.passes.append(self.spans)

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.task, attrs]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if m is not None and (key == "nahmlab" or key.startswith("nahmlab."))]
        for short, names in TRACED.items():
            home = sys.modules[f"nahmlab.{short}"]
            for fname in names:
                fn = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", fn)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is fn]:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches = []


def span_table(spans: list) -> dict:
    """Per span key: calls, inclusive seconds, ``self`` seconds (the span less
    its child spans) and ``layer_self`` seconds (the span less the time spent
    in other layers, so ``spectral.conservation_check`` keeps the
    ``spectral.spectral_flow`` it calls), and summed attributes.
    ``cli.main`` spans are keyed by command, as ``cli.main.<command>``."""
    strict = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            strict[parent] -= end - start
    layer_self = list(strict)
    for i in range(len(spans) - 1, -1, -1):  # children come after their parent
        parent = spans[i][3]
        if parent is not None and spans[parent][0].split(".")[0] == spans[i][0].split(".")[0]:
            layer_self[parent] += layer_self[i]
    table = {}
    for i, (name, start, end, _, _, attrs) in enumerate(spans):
        key = f"{name}.{attrs['command']}" if name == "cli.main" and attrs else name
        row = table.setdefault(key, dict(EMPTY_ROW))
        row["calls"] += 1
        row["incl"] += end - start
        row["self"] += strict[i]
        row["layer_self"] += layer_self[i]
        if attrs and "n" in attrs:
            row["steps"] += attrs["n"]
            row["nodes"] += attrs["n"] + 1
            row["flops"] += 192.0 * attrs["k"] ** 3 * attrs["n"]  # real flops of one RK4 step, computed
        for field in ("iters", "converged", "continuation"):
            row[field] += (attrs or {}).get(field, 0)
    return table


def by_size(passes: list) -> list:
    """Median inclusive seconds per span name, task and size, for comparison
    with single-call baselines."""
    groups = {}
    for spans in passes:
        for name, start, end, _, task, attrs in spans:
            if attrs and "k" in attrs:
                key = (name, task, attrs["k"], attrs.get("n", attrs.get("L")))
                groups.setdefault(key, []).append(end - start)
    return [{"name": name, "task": task, "k": k, "size": size, "calls": len(v), "median_s": statistics.median(v)}
            for (name, task, k, size), v in sorted(groups.items())]


def per_layer(passes: list, traced_walls: list, overhead: float, notes: list, import_s: float) -> dict:
    """The per-layer metrics, averaged over traced passes. ``traced_walls``
    are the unscaled traced pass times, ``overhead`` is the tracing overhead
    and ``notes`` holds the task notes of the traced passes (one dict per
    task execution)."""
    P = len(passes)
    table = {}
    for spans in passes:
        for key, row in span_table(spans).items():
            acc = table.setdefault(key, dict(EMPTY_ROW))
            for field, value in row.items():
                acc[field] += value

    def row(key):
        return table.get(key, EMPTY_ROW)

    def seconds(key):
        return row(key)["layer_self"] / P

    def ratio(a, b):
        return a / b if b else 0.0

    def note_sum(field):
        return sum(n.get(field, 0) for n in notes)

    out = {}
    nahm = row("solver.integrate_nahm")
    out["solver.integrate_nahm.calls"] = nahm["calls"] / P
    out["solver.integrate_nahm.s"] = nahm["layer_self"] / P
    out["solver.integrate_nahm.steps"] = nahm["steps"] / P
    out["solver.integrate_nahm.us_per_step"] = 1e6 * ratio(nahm["incl"], nahm["steps"])
    out["solver.integrate_nahm.gflops_computed"] = 1e-9 * ratio(nahm["flops"], nahm["incl"])
    cons = row("spectral.conservation_check")
    out["spectral.conservation_check.s"] = cons["layer_self"] / P
    out["spectral.conservation_check.us_per_node"] = 1e6 * ratio(cons["incl"], cons["nodes"])
    out["moment.mu_nahm.s"] = seconds("moment.mu_nahm")
    half = row("solver.halfline_solve")
    out["solver.halfline_solve.calls"] = half["calls"] / P
    out["solver.halfline_solve.s"] = half["layer_self"] / P
    out["solver.halfline_solve.newton_iters"] = half["iters"] / P
    out["solver.halfline_solve.continuation_frac"] = ratio(half["continuation"], half["calls"])
    out["solver.halfline_solve.converged_frac"] = ratio(half["converged"], half["calls"])
    out["solver.orbit_identify.s"] = seconds("solver.orbit_identify")
    out["solver.orbit_identify.rank_match_frac"] = ratio(note_sum("rank_match"), note_sum("orbit_reports"))
    baby = row("solver.integrate_baby")
    out["solver.integrate_baby.s"] = baby["layer_self"] / P
    out["solver.integrate_baby.us_per_step"] = 1e6 * ratio(baby["incl"], baby["steps"])
    for name in ("trivialize", "complex_trivialize", "complex_trivialize_direct", "horizontal_project", "quotient_metric"):
        out[f"gauge.{name}.s"] = seconds(f"gauge.{name}")
    ham = row("moment.hamiltonian_check")
    out["moment.hamiltonian_check.calls"] = ham["calls"] / P
    out["moment.hamiltonian_check.s"] = ham["layer_self"] / P
    for command in ("evolve", "spectral", "halfline", "vergne", "check"):
        out[f"cli.main.{command}.s"] = seconds(f"cli.main.{command}")
    out["cli.exit_mismatch"] = note_sum("exit_mismatch") / P
    out["io.bytes_written"] = note_sum("bytes_written") / P
    out["io.bytes_read"] = note_sum("bytes_read") / P
    out["io.write_json.s"] = seconds("io.write_json")
    out["io.nahm_from_json.s"] = seconds("io.nahm_from_json")
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for key, acc in table.items():
        layer = key.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += acc["self"]
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_self[layer] / sum(traced_walls)
    out["trace.overhead_frac"] = overhead
    out["trace.spans"] = sum(len(spans) for spans in passes) / P
    out["import.s"] = import_s
    return out
