"""Command-line front end: run solvers, spectral checks, half-line orbit
identification, the Vergne demo, and the invariant suite from JSON configs.

Exit codes: 0 pass, 1 check failure, 2 config error (a bad config value,
the library's ``InputError`` for one, or a config or artifact file that
cannot be read or written), 3 blow-up, 4 non-convergence (the library's
``numpy.linalg.LinAlgError``).  All randomness is seeded; identical config +
seed gives byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import io as nio
from .algebra import AlgebraSpec, InputError, _unit_scaled, su2_basis, su2_embed, su2_embed_block
from .checks import passes, run_check_suite
from .moment import mu_nahm
from .paths import Grid, NahmData
from .solver import BoundaryTarget, NahmBlowUpError, asymptotic_model, coth_solution, halfline_solve, integrate_nahm
from .solver import orbit_identify
from .spectral import _coeff_drift, fixed_curve, reality_check, spectral_flow
from .sympair import classify_real_orbit, kc_orbit_form_check, vergne_map_j

REQUIRED = object()  # the default of a key that has none


class Key(NamedTuple):
    """One config key: its type, its default and its bound ("> 0" or ">= 0").
    The type is a JSON type, a sub-table (a dict of Keys), a ``Kinds``, or a
    pair (JSON type, sub-table), the table taking object values.  A key whose
    default is None also takes null."""

    typ: object
    default: object = REQUIRED
    bound: str | None = None


class Kinds(dict):
    """A block whose required "kind" key picks its sub-table."""


_MATRIX = Key(list)
_L = Key(float, 10.0, "> 0")
_TAU = Key((list, {"te3": Key(float)}), None)
_SIGMA = (str, {"block": Key(int)})  # "irreducible", "none" or {"block": b}
_SEED = {"seed": Key(int, 0, ">= 0")}  # the commands that draw: halfline, vergne and check
_SOLVE = {"algebra": Key({"family": Key(str, "su"), "dim": Key(int, 2)}, {}), "blowup_bound": Key(float, 1e6, "> 0")}
_GRID = {"s0": Key(float, 0.0), "s1": Key(float, 1.0), "n": Key(int, 1000)}
_INIT = Kinds(
    nil={"offset": Key(float, 1.0)},
    coth={"a": Key(float, 1.0, "> 0"), "s0_offset": Key(float, 1.0, "> 0")},
    matrices={"T1": _MATRIX, "T2": _MATRIX, "T3": _MATRIX},
)
_FLOW = {**_SOLVE, "init": Key(_INIT, None)}  # required unless spectral has a fixed curve

SCHEMAS = {
    "evolve": {**_FLOW, "grid": Key(_GRID, {}), "residual_bound": Key(float, 1e-6, "> 0")},
    "spectral": {
        **_FLOW,
        "grid": Key(_GRID, {"s1": 5.0, "n": 5000}),  # a grid given takes the other keys from _GRID
        "drift_bound": Key(float, 1e-7, "> 0"), "reality_bound": Key(float, 1e-9, "> 0"),
        "nonreal_control": Key(bool, False),
        "fixed_curve": Key({"tau1": _TAU, "tau2": _TAU, "tau3": _TAU}, None),
    },
    "halfline": {
        **_SEED, **_SOLVE,
        "target": Key(Kinds(
            coth={"L": _L, "a": Key(float, 1.5, "> 0")},
            nil={"L": _L, "sigma": Key(_SIGMA, "irreducible")},
            explicit={"L": _L, "tau1": _MATRIX, "tau2": _MATRIX, "tau3": _MATRIX, "sigma": Key(_SIGMA, None)},
        )),
        "perturbation": Key(float, 0.0, ">= 0"), "step": Key(float, 5e-3, "> 0"),
    },
    "vergne": {**_SEED, "points": Key(list, []), "samples": Key(int, 0, ">= 0")},
    "check": {**_SEED, "n": Key(int, 300), "samples": Key(int, 10), "inject_sign_flip": Key(bool, False)},
}


def _value(val, spec: Key, name: str = ""):
    """val checked against spec: typed and bounded, a block read against its
    table with the defaults filled in and any key the table lacks refused."""
    if val is REQUIRED:
        raise InputError(f"missing config key {name!r}")
    if val is None and spec.default is None:
        return None
    typ, where = spec.typ, name + "." if name else ""
    if isinstance(typ, Kinds) and isinstance(val, dict):
        kind = _value(val.get("kind", REQUIRED), Key(str), where + "kind")
        if kind not in typ:
            raise InputError(f"unknown {name} kind {kind!r}")
        typ = {"kind": Key(str), **typ[kind]}
    if isinstance(typ, tuple):
        typ = typ[isinstance(val, dict)]
    if isinstance(typ, dict):
        if not isinstance(val, dict):
            raise InputError(f"{name or 'the config'} must be an object, got {type(val).__name__}")
        for key in val:
            if key not in typ:
                raise InputError(f"unknown config key {where + key!r}")
        return {key: _value(val.get(key, sub.default), sub, where + key) for key, sub in typ.items()}
    val = nio._typed(val, typ, f"config key {name!r}")
    if spec.bound == "> 0" and not val > 0 or spec.bound == ">= 0" and not val >= 0:
        raise InputError(f"config key {name!r} must be {spec.bound}, got {val}")
    return val


def _matrix(entry, k: int, name: str) -> np.ndarray:
    """Config key ``name``'s matrix: [re, im] pairs of finite JSON numbers, row-major; a
    fixed-curve tau may also be null (zero) or the su(2) preset {"te3": x}, x e3."""
    if entry is None:
        return np.zeros((k, k), dtype=complex)
    if isinstance(entry, dict):
        if k != 2:
            raise InputError("te3 preset needs su(2)")
        return entry["te3"] * su2_basis().e3
    try:
        M = nio.matrix_from_json(entry, k)
        if not np.isfinite(M).all():
            raise InputError("an entry must be finite")
    except InputError as exc:
        raise InputError(f"config key {name!r}: {exc}") from None
    return M


def _flow(cfg: dict) -> NahmData:
    """The Nahm flow of an evolve or spectral config, from its initial triple."""
    algebra, grid, init = AlgebraSpec(**cfg["algebra"]), Grid(**cfg["grid"]), cfg["init"]
    if init is None:
        raise InputError("missing config key 'init'")
    if init["kind"] == "nil":
        if abs(grid.s0 + init["offset"]) < 1e-12:
            raise InputError("nil init has a pole at the left endpoint")
        triple = tuple(np.asarray(e) / (grid.s0 + init["offset"]) for e in su2_embed(algebra))
    elif init["kind"] == "coth":
        if algebra.dim != 2:
            raise InputError("coth init is an su(2) solution")
        triple = tuple(coth_solution(init["a"], init["s0_offset"], Grid(grid.s0, grid.s1, 2)).values[1:, 0])
    else:
        triple = tuple(_matrix(init[name], algebra.dim, f"init.{name}") for name in ("T1", "T2", "T3"))
    return integrate_nahm(algebra, triple, grid, blowup_bound=cfg["blowup_bound"])


def cmd_evolve(cfg: dict, out_dir: Path) -> bool:
    d = _flow(cfg)
    norms = np.linalg.norm(mu_nahm(d).values, axis=(-2, -1))
    sup = float(norms.max())
    nio.write_json(nio.nahm_to_json(d), out_dir / "solution.json")
    nio.residual_to_csv(d.grid, norms, out_dir / "residual.csv")
    bound = cfg["residual_bound"]
    ok = passes(sup, bound)
    print(f"evolve: max residual {sup:.3e} (bound {bound:.1e}) -> {'pass' if ok else 'FAIL'}")
    return ok


def cmd_spectral(cfg: dict, out_dir: Path) -> bool:
    reality_bound = cfg["reality_bound"]
    if cfg["fixed_curve"] is not None:
        for key in ("init", "nonreal_control"):  # a fixed curve has no flow for them to act on
            if cfg[key]:
                raise InputError(f"config key {key!r} is refused beside 'fixed_curve'")
        k, fc = AlgebraSpec(**cfg["algebra"]).dim, cfg["fixed_curve"]
        taus = [_matrix(fc[name], k, f"fixed_curve.{name}") for name in ("tau1", "tau2", "tau3")]
        coeffs, factors = fixed_curve(BoundaryTarget(*taus))
        violation = reality_check(coeffs)
        nio.write_json({"curve": {"k": len(coeffs), "a": coeffs}, "factors": factors, "reality_violation": violation},
                       out_dir / "spectral.json")
        ok = passes(violation, reality_bound)
        print(f"spectral: fixed curve reality violation {violation:.3e} -> {'pass' if ok else 'FAIL'}")
        return ok

    d = _flow(cfg)
    flows = spectral_flow(d, nonreal=cfg["nonreal_control"])
    drift = _coeff_drift([flows])
    curve0 = [f[:, 0] for f in flows]
    violation = reality_check(curve0)
    nio.coeffs_to_csv(d.grid, flows, out_dir / "coeffs.csv")
    nio.write_json({"drift": drift, "reality_violation": violation, "curve0": {"k": len(curve0), "a": curve0}},
                   out_dir / "spectral.json")
    drift_bound = cfg["drift_bound"]
    ok = passes(drift, drift_bound) and passes(violation, reality_bound)
    print(f"spectral: drift {drift:.3e} (bound {drift_bound:.1e}), "
          f"reality {violation:.3e} (bound {reality_bound:.1e}) -> {'pass' if ok else 'FAIL'}")
    return ok


def _sigma(entry, algebra: AlgebraSpec):
    if isinstance(entry, dict):
        return su2_embed_block(algebra, entry["block"])
    if entry in (None, "none"):
        return None
    if entry == "irreducible":
        return su2_embed(algebra)
    raise InputError(f"unknown sigma spec {entry!r}")


def cmd_halfline(cfg: dict, out_dir: Path) -> bool:
    algebra, t = AlgebraSpec(**cfg["algebra"]), cfg["target"]
    k = algebra.dim
    zero = np.zeros((k, k), dtype=complex)
    if t["kind"] == "coth":
        if k != 2:
            raise InputError("coth target needs su(2)")
        target = BoundaryTarget(-t["a"] * su2_basis().e1, zero, zero, L=t["L"])
        guess = list(coth_solution(t["a"], 1.0, Grid(0.0, t["L"], 2)).values[1:, 0])
    elif t["kind"] == "nil":
        sigma = _sigma(t["sigma"], algebra)
        if sigma is None:
            raise InputError("a nil target needs a sigma")
        target = BoundaryTarget(zero, zero, zero, sigma=sigma, L=t["L"])
        guess = [np.asarray(e, dtype=complex) for e in sigma]
    else:
        taus = [_matrix(t[name], k, f"target.{name}") for name in ("tau1", "tau2", "tau3")]
        target = BoundaryTarget(*taus, sigma=_sigma(t["sigma"], algebra), L=t["L"])
        guess = list(asymptotic_model(target, 0.0))

    pert = cfg["perturbation"]
    if pert > 0:
        rng = np.random.default_rng(cfg["seed"])
        # the norms are taken on the exact power-of-two rescale, where no square overflows
        scaled, _, unit = _unit_scaled(np.stack(guess))
        scale = max(max(np.linalg.norm(m) for m in scaled) / unit, 1.0)
        guess = [m + pert * scale * algebra.random_element(rng, 1.0) for m in guess]
        if not np.all(np.isfinite(guess)):  # the target's own guess, or its perturbation, overflowed
            key = "perturbation" if np.isfinite(scale) else "target"  # a coth guess's norm is always finite
            raise InputError(f"config key {key!r} overflows the perturbed guess "
                             f"(perturbation {pert:.3e} times the guess norm {scale:.3e})")

    result = halfline_solve(target, tuple(guess), step=cfg["step"], blowup_bound=cfg["blowup_bound"])
    report = orbit_identify(result.data, target)
    nio.write_json({"terminal_deviation": result.terminal_deviation, "iterations": result.iterations,
                    "orbit": vars(report)}, out_dir / "halfline.json")
    nio.write_json(nio.nahm_to_json(result.data), out_dir / "solution.json")
    print(f"halfline: terminal deviation {result.terminal_deviation:.3e}; orbit certified: {report.certified}")
    return report.certified


def _vergne_points(cfg: dict) -> np.ndarray:
    """The (u, v) rows of a vergne config: its points, then its samples, the
    even ones real and the odd ones imaginary."""
    points = []
    for entry in cfg["points"]:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise InputError(f"a point is [re u, im u, re v, im v], got {entry!r}")
        points.append([nio._typed(x, float, "a point coordinate") for x in entry])
    if 32 * cfg["samples"] > np.iinfo(np.intp).max:  # the bytes of its (samples, 2, 2) float table
        raise InputError(f"config key 'samples' must be a count whose sample table numpy can size, got {cfg['samples']}")
    x = np.random.default_rng(cfg["seed"]).standard_normal((cfg["samples"], 2))
    drawn = np.zeros((len(x), 2, 2))  # (sample, u or v, re or im)
    drawn[0::2, :, 0], drawn[1::2, :, 1] = x[0::2], x[1::2]
    return nio.from_pairs(np.concatenate([np.reshape(points, (-1, 2, 2)), drawn]))


def _vergne_table(uv: np.ndarray) -> tuple:
    """The vergne.json samples of the points, an ``io.Table`` of their columns,
    with the counts of crossovers and of failed points.  A point whose image is
    non-finite (an overflow) or all zero (an underflow) has no verdict: it is
    named on stdout and counted as failed, not as a crossover.  Each of the
    three witness functions takes all the points at once, and no row is built."""
    u, v = uv.T
    orbit = classify_real_orbit(u, v)
    M = vergne_map_j(u, v)
    form, b = kc_orbit_form_check(M)
    nonfinite = ~np.isfinite(M).all(axis=(-2, -1))
    failed = nonfinite | ~M.any(axis=(-2, -1))
    for i in np.flatnonzero(failed):
        print(f"vergne: point {uv[i].view(float).tolist()} has {'a non-finite' if nonfinite[i] else 'an all-zero'} "
              "image -> FAIL")
    crossovers = np.count_nonzero(~failed & ((orbit == "O_plus") & (form != "plus_form")
                                             | (orbit == "O_minus") & (form != "minus_form")))
    table = nio.Table({"u": u, "v": v, "orbit": orbit, "image": M.reshape(-1, 4), "form": form, "b": b},
                      null={"b": form == "neither"})
    return table, int(crossovers), int(np.count_nonzero(failed))


def cmd_vergne(cfg: dict, out_dir: Path) -> bool:
    uv = _vergne_points(cfg)
    if not len(uv):
        raise InputError("no sample points configured")
    table, crossovers, failed = _vergne_table(uv)
    nio.write_json({"samples": table, "crossovers": crossovers}, out_dir / "vergne.json")
    print(f"vergne: {len(uv)} points, {crossovers} crossovers")
    return crossovers == failed == 0


def cmd_check(cfg: dict, out_dir: Path) -> bool:
    seed, n = cfg["seed"], cfg["n"]
    checks = run_check_suite(seed=seed, n=n, samples=cfg["samples"], inject_sign_flip=cfg["inject_sign_flip"])
    all_pass = all(c["pass"] for c in checks)
    nio.write_json({"checks": checks, "n": n, "seed": seed, "all_pass": all_pass}, out_dir / "check.json")
    for c in checks:
        print(f"check {c['name']}: error {c['error']:.3e} (threshold {c['threshold']:.1e}) "
              f"-> {'pass' if c['pass'] else 'FAIL'}")
    return all_pass


def _read_config(path: str):
    """The config file's JSON value; a file that is not UTF-8 JSON, or whose value is nested past the
    parser's recursion limit or holds an integer past Python's digit limit, is an InputError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise InputError("the config is nested too deeply to parse") from None
    except ValueError as exc:  # a UnicodeDecodeError, a JSONDecodeError, or int() past the digit limit
        raise InputError(str(exc)) from None


_COMMANDS = {"evolve": cmd_evolve, "spectral": cmd_spectral, "halfline": cmd_halfline, "vergne": cmd_vergne,
             "check": cmd_check}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nahmlab", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out-dir", default=".", help="artifact output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed (halfline, vergne, check)")
    args = parser.parse_args(argv)

    try:
        raw = _read_config(args.config)
        if args.seed is not None and isinstance(raw, dict):
            raw = {**raw, "seed": args.seed}
        cfg = _value(raw, Key(SCHEMAS[args.command]))
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # a value that overflows is inf or NaN, which fails the verdict it reaches
        # (or, for a half-line guess, its su(k) test), so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            return 0 if _COMMANDS[args.command](cfg, out_dir) else 1
    except (OSError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NahmBlowUpError as exc:
        print(f"{args.command}: blow-up ({exc})")
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
