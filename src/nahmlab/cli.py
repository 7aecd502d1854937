"""Command-line front end: run solvers, spectral checks, half-line orbit
identification, the Vergne demo, and the invariant suite from JSON configs.

Exit codes: 0 pass, 1 check failure, 2 config error (a bad config value, or
the library's ``InputError`` for one), 3 blow-up, 4 non-convergence (or the
library's ``numpy.linalg.LinAlgError``).  All randomness is seeded; identical
config + seed gives byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import io as nio
from .algebra import AlgebraSpec, InputError, pairing, su2_basis, su2_embed, su2_embed_block
from .gauge import GroupPath, act, exp_su_path, horizontal_project, monodromy, quotient_metric, trivialize, vertical_field
from .moment import _omega_baby, hamiltonian_check, kahler_form_identity_check, lax_extract, mu_nahm, rho_star
from .moment import s1_moment_identity_check
from .paths import AlgebraPath, Grid, NahmData, pairing_nodes, quadrature, random_dirichlet_path, random_smooth_path
from .paths import random_tangent, sup_norm
from .solver import BoundaryTarget, NahmBlowUpError, asymptotic_model, coth_solution, halfline_solve, integrate_nahm
from .solver import orbit_identify
from .spectral import SpectralData, _coeff_drift, char_coeffs, conservation_check, fixed_curve, reality_check, spectral_flow
from .sympair import classify_real_orbit, kc_orbit_form_check, vergne_map_j

log = logging.getLogger("nahmlab")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_NO_CONVERGENCE = 4


class ConfigError(InputError):
    pass


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
_COMMON = {"seed": Key(int, 0, ">= 0")}
_SOLVE = {**_COMMON, "algebra": Key({"family": Key(str, "su"), "dim": Key(int, 2)}, {}),
          "blowup_bound": Key(float, 1e6, "> 0")}
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
        "fixed_curve": Key({"tau1": _TAU, "tau2": _TAU, "tau3": _TAU, "L": _L}, None),
    },
    "halfline": {
        **_SOLVE,
        "target": Key(Kinds(
            coth={"L": _L, "a": Key(float, 1.5, "> 0")},
            nil={"L": _L, "sigma": Key(_SIGMA, "irreducible")},
            explicit={"L": _L, "tau1": _MATRIX, "tau2": _MATRIX, "tau3": _MATRIX, "sigma": Key(_SIGMA, None)},
        )),
        "perturbation": Key(float, 0.0, ">= 0"), "step": Key(float, 5e-3, "> 0"), "tol": Key(float, 1e-6, "> 0"),
        "coeff_tol": Key(float, 1e-6, "> 0"), "residual_gate": Key(float, 1e-3, "> 0"),
    },
    "vergne": {**_COMMON, "points": Key(list, []), "samples": Key(int, 0, ">= 0")},
    "check": {**_COMMON, "n": Key(int, 300), "samples": Key(int, 10), "inject_sign_flip": Key(bool, False)},
}


def _typed(val, typ, what: str):
    """val checked against typ; an int is taken as a float, a bool is never
    taken as a number, and a float must be finite."""
    if typ is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, typ) or (isinstance(val, bool) and typ in (int, float)):
        raise ConfigError(f"{what} must be {typ.__name__}, got {type(val).__name__}")
    if typ is float and not np.isfinite(val):
        raise ConfigError(f"{what} must be finite, got {val}")
    return val


def _value(val, spec: Key, name: str = ""):
    """val checked against spec: typed and bounded, a block read against its
    table with the defaults filled in and any key the table lacks refused."""
    if val is REQUIRED:
        raise ConfigError(f"missing config key {name!r}")
    if val is None and spec.default is None:
        return None
    typ, where = spec.typ, name + "." if name else ""
    if isinstance(typ, Kinds) and isinstance(val, dict):
        kind = _value(val.get("kind", REQUIRED), Key(str), where + "kind")
        if kind not in typ:
            raise ConfigError(f"unknown {name} kind {kind!r}")
        typ = {"kind": Key(str), **typ[kind]}
    if isinstance(typ, tuple):
        typ = typ[isinstance(val, dict)]
    if isinstance(typ, dict):
        if not isinstance(val, dict):
            raise ConfigError(f"{name or 'the config'} must be an object, got {type(val).__name__}")
        for key in val:
            if key not in typ:
                raise ConfigError(f"unknown config key {where + key!r}")
        return {key: _value(val.get(key, sub.default), sub, where + key) for key, sub in typ.items()}
    val = _typed(val, typ, f"config key {name!r}")
    if spec.bound == "> 0" and not val > 0 or spec.bound == ">= 0" and not val >= 0:
        raise ConfigError(f"config key {name!r} must be {spec.bound}, got {val}")
    return val


def _matrix(entry, k: int) -> np.ndarray:
    """A matrix entry: [re, im] pairs, row-major; a fixed-curve tau may also be
    null (zero) or the su(2) preset {"te3": x}, x e3."""
    if entry is None:
        return np.zeros((k, k), dtype=complex)
    if isinstance(entry, dict):
        if k != 2:
            raise ConfigError("te3 preset needs su(2)")
        return entry["te3"] * su2_basis().e3
    try:
        return nio.matrix_from_json(entry, k)
    except Exception as exc:
        raise ConfigError(f"bad matrix entry: {exc}") from exc


def _flow(cfg: dict) -> NahmData:
    """The Nahm flow of an evolve or spectral config, from its initial triple."""
    algebra, grid, init = AlgebraSpec(**cfg["algebra"]), Grid(**cfg["grid"]), cfg["init"]
    if init is None:
        raise ConfigError("missing config key 'init'")
    if init["kind"] == "nil":
        if abs(grid.s0 + init["offset"]) < 1e-12:
            raise ConfigError("nil init has a pole at the left endpoint")
        triple = tuple(np.asarray(e) / (grid.s0 + init["offset"]) for e in su2_embed(algebra))
    elif init["kind"] == "coth":
        if algebra.dim != 2:
            raise ConfigError("coth init is an su(2) solution")
        triple = tuple(coth_solution(init["a"], init["s0_offset"], Grid(grid.s0, grid.s1, 2)).values[1:, 0])
    else:
        triple = tuple(_matrix(init[name], algebra.dim) for name in ("T1", "T2", "T3"))
    return integrate_nahm(algebra, triple, grid, blowup_bound=cfg["blowup_bound"])


def cmd_evolve(cfg: dict, out_dir: Path) -> int:
    try:
        d = _flow(cfg)
    except NahmBlowUpError as exc:
        log.warning("%s", exc)
        nio.write_json({"blow_up": True, "message": str(exc)}, out_dir / "solution.json")
        print(f"evolve: blow-up ({exc})")
        return EXIT_BLOWUP
    res = mu_nahm(d)
    norms = np.linalg.norm(res.values, axis=(-2, -1))
    nio.write_json(nio.nahm_to_json(d), out_dir / "solution.json")
    nio.residual_to_csv(d.grid, norms, out_dir / "residual.csv")
    bound = cfg["residual_bound"]
    ok = res.sup <= bound
    print(f"evolve: max residual {res.sup:.3e} (bound {bound:.1e}) -> {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_spectral(cfg: dict, out_dir: Path) -> int:
    reality_bound = cfg["reality_bound"]
    if cfg["fixed_curve"] is not None:
        k, fc = AlgebraSpec(**cfg["algebra"]).dim, cfg["fixed_curve"]
        taus = [_matrix(fc[name], k) for name in ("tau1", "tau2", "tau3")]
        curve = fixed_curve(BoundaryTarget(*taus, L=fc["L"]))
        violation = reality_check(curve)
        factors = None if curve.factors is None else [nio.to_pairs(q).tolist() for q in curve.factors]
        nio.write_json({"curve": curve.to_json(), "factors": factors, "reality_violation": violation},
                       out_dir / "spectral.json")
        ok = violation <= reality_bound
        print(f"spectral: fixed curve reality violation {violation:.3e} -> {'pass' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    try:
        d = _flow(cfg)
    except NahmBlowUpError as exc:
        print(f"spectral: blow-up ({exc})")
        return EXIT_BLOWUP
    flows = spectral_flow(d, beta_dagger_zero=cfg["nonreal_control"])
    drift = _coeff_drift(flows)
    curve0 = SpectralData(d.algebra.dim, [f[:, 0] for f in flows])
    violation = reality_check(curve0)
    nio.coeffs_to_csv(d.grid, flows, out_dir / "coeffs.csv")
    nio.write_json({"drift": drift, "reality_violation": violation, "curve0": curve0.to_json()},
                   out_dir / "spectral.json")
    drift_bound = cfg["drift_bound"]
    ok = drift <= drift_bound and violation <= reality_bound
    print(f"spectral: drift {drift:.3e} (bound {drift_bound:.1e}), "
          f"reality {violation:.3e} (bound {reality_bound:.1e}) -> {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _sigma(entry, algebra: AlgebraSpec):
    if isinstance(entry, dict):
        return su2_embed_block(algebra, entry["block"])
    if entry in (None, "none"):
        return None
    if entry == "irreducible":
        return su2_embed(algebra)
    raise ConfigError(f"unknown sigma spec {entry!r}")


def cmd_halfline(cfg: dict, out_dir: Path) -> int:
    algebra, t = AlgebraSpec(**cfg["algebra"]), cfg["target"]
    k = algebra.dim
    zero = np.zeros((k, k), dtype=complex)
    if t["kind"] == "coth":
        if k != 2:
            raise ConfigError("coth target needs su(2)")
        target = BoundaryTarget(-t["a"] * su2_basis().e1, zero, zero, L=t["L"])
        guess = list(coth_solution(t["a"], 1.0, Grid(0.0, t["L"], 2)).values[1:, 0])
    elif t["kind"] == "nil":
        sigma = _sigma(t["sigma"], algebra)
        if sigma is None:
            raise ConfigError("a nil target needs a sigma")
        target = BoundaryTarget(zero, zero, zero, sigma=sigma, L=t["L"])
        guess = [np.asarray(e, dtype=complex) for e in sigma]
    else:
        taus = [_matrix(t[name], k) for name in ("tau1", "tau2", "tau3")]
        target = BoundaryTarget(*taus, sigma=_sigma(t["sigma"], algebra), L=t["L"])
        guess = list(asymptotic_model(target, 0.0))

    pert = cfg["perturbation"]
    if pert > 0:
        rng = np.random.default_rng(cfg["seed"])
        scale = max(max(np.linalg.norm(m) for m in guess), 1.0)
        guess = [m + pert * scale * algebra.random_element(rng, 1.0) for m in guess]

    result = halfline_solve(target, tuple(guess), step=cfg["step"], tol=cfg["tol"],
                            blowup_bound=cfg["blowup_bound"])
    report = None
    if result.data is not None:
        report = orbit_identify(result.data, target, coeff_tol=cfg["coeff_tol"], residual_gate=cfg["residual_gate"])
    orbit = None if report is None else report.to_json()
    nio.write_json({"converged": result.converged, "terminal_deviation": result.terminal_deviation,
                    "iterations": result.iterations, "message": result.message, "orbit": orbit},
                   out_dir / "halfline.json")
    if result.data is not None:
        nio.write_json(nio.nahm_to_json(result.data), out_dir / "solution.json")
    certified = report is not None and report.certified
    print(f"halfline: {result.message}; terminal deviation {result.terminal_deviation:.3e}; "
          f"orbit certified: {certified}")
    if result.data is None:
        return EXIT_BLOWUP
    if not result.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if certified else EXIT_CHECK_FAILED


def cmd_vergne(cfg: dict, out_dir: Path) -> int:
    table = []
    crossovers = 0
    points = []
    for entry in cfg["points"]:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ConfigError(f"a point is [re u, im u, re v, im v], got {entry!r}")
        ur, ui, vr, vi = (_typed(x, float, "a point coordinate") for x in entry)
        points.append((complex(ur, ui), complex(vr, vi)))
    rng = np.random.default_rng(cfg["seed"])
    for i in range(cfg["samples"]):
        x = rng.standard_normal(2)
        if i % 2 == 0:
            points.append((complex(x[0], 0.0), complex(x[1], 0.0)))
        else:
            points.append((complex(0.0, x[0]), complex(0.0, x[1])))
    if not points:
        raise ConfigError("no sample points configured")
    for u, v in points:
        orbit = classify_real_orbit(u, v)
        M = vergne_map_j(u, v)
        form, b = kc_orbit_form_check(M)
        expected = {"O_plus": "plus_form", "O_minus": "minus_form"}.get(orbit)
        if expected is not None and form != expected:
            crossovers += 1
        table.append({"u": [u.real, u.imag], "v": [v.real, v.imag], "orbit": orbit, "image": nio.matrix_to_json(M),
                      "form": form, "b": None if b is None else [b.real, b.imag]})
    nio.write_json({"samples": table, "crossovers": crossovers}, out_dir / "vergne.json")
    print(f"vergne: {len(points)} points, {crossovers} crossovers")
    return EXIT_OK if crossovers == 0 else EXIT_CHECK_FAILED


def run_check_suite(seed: int = 0, n: int = 300, samples: int = 10, inject_sign_flip: bool = False) -> list:
    """The invariant suite behind ``nahmlab check``.

    Returns a list of {name, error, threshold, order, pass} entries; ``order``
    tags the expected refinement rate (0 = grid-independent).
    """
    if samples < 1:
        raise InputError(f"the Hamiltonian checks need samples >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    su2 = AlgebraSpec("su", 2)
    grid = Grid(0.0, 1.0, n)
    checks = []

    def add(name, error, threshold, order):
        checks.append(
            {
                "name": name,
                "error": float(error),
                "threshold": float(threshold),
                "order": int(order),
                "pass": bool(error <= threshold),
            }
        )

    # closed-form residual: differencing of exact data, second order
    coth = coth_solution(1.0, 1.0, grid)
    add("closed_form_residual", mu_nahm(coth).sup, 50.0 * grid.h**2, 2)

    # spectral conservation along an integrated flow, fourth order (the coth
    # curve has nonzero coefficients, so the drift is measurable)
    d = integrate_nahm(su2, tuple(coth.values[1:, 0]), grid)
    add("conservation_drift", conservation_check(d), 1e4 * grid.h**4, 4)

    # Hamiltonian identities (exact on the discrete level)
    errs = {"baby": [], 1: [], 2: [], 3: []}
    for _ in range(samples):
        data = NahmData(
            su2,
            *(random_smooth_path(su2, grid, rng) for _ in range(4)),
        )
        rho = random_dirichlet_path(su2, grid, rng)
        v = random_tangent(su2, grid, rng)
        for which, found in errs.items():
            err = hamiltonian_check(data, rho, v, which)
            if inject_sign_flip and which == "baby":
                # deliberate harness control: a sign flip must be caught
                err = abs(err + 2.0 * abs(_omega_baby(rho_star(data, rho), v)))
            found.append(err)
    # np.max, unlike max, keeps a NaN error, and a NaN is no pass
    add("hamiltonian_baby", np.max(errs["baby"]), 1e-5, 0)
    add("hamiltonian_I1", np.max(errs[1]), 1e-5, 0)
    add("hamiltonian_I2", np.max(errs[2]), 1e-5, 0)
    add("hamiltonian_I3", np.max(errs[3]), 1e-5, 0)

    # Kahler potential identities (exact bilinear algebra)
    add("kahler_form_identity", kahler_form_identity_check(su2, Grid(0.0, 1.0, min(n, 200)), 20, rng), 1e-12, 0)
    dd = NahmData(su2, *(random_smooth_path(su2, grid, rng) for _ in range(4)))
    add("s1_moment_identity", s1_moment_identity_check(dd, random_tangent(su2, grid, rng)), 1e-12, 0)

    # gauge properties
    T0 = random_smooth_path(su2, grid, rng, modes=2, scale=0.8)
    base = monodromy(T0)
    h_gauge = exp_su_path(random_dirichlet_path(su2, grid, rng, scale=0.5))
    moved = act(h_gauge, NahmData(su2, T0, *(AlgebraPath(grid, np.zeros_like(T0.values)) for _ in range(3))))
    add("monodromy_invariance", np.linalg.norm(monodromy(moved.T0) - base), 500.0 * grid.h**2, 2)

    g1 = exp_su_path(random_smooth_path(su2, grid, rng, scale=0.5))
    g2 = exp_su_path(random_smooth_path(su2, grid, rng, scale=0.5))
    data = NahmData(su2, *(random_smooth_path(su2, grid, rng) for _ in range(4)))
    g12 = GroupPath(grid, g1.values @ g2.values, "unitary")
    lhs = act(g12, data)
    rhs = act(g1, act(g2, data))
    add("act_composition", sup_norm(lhs.values - rhs.values), 500.0 * grid.h**2, 2)

    add("trivialize_unitarity", trivialize(T0).unitarity_defect, 1e-8, 0)

    zero_T0 = AlgebraPath(grid, np.zeros_like(T0.values))
    e1 = su2_basis().e1
    const = AlgebraPath(grid, np.broadcast_to(e1, (n + 1, 2, 2)).copy())
    qm = quotient_metric(zero_T0, const, const)
    add("quotient_metric_constants", abs(qm - pairing(su2, e1, e1)), 1e-8, 0)
    vert = vertical_field(T0, random_dirichlet_path(su2, grid, rng))
    proj = horizontal_project(T0, vert)
    add("vertical_projection", quadrature(pairing_nodes(proj.values, proj.values), grid), 1e-8, 0)

    # reality of spectral curves from su(2) data
    lax = lax_extract(data)
    add("reality", reality_check(char_coeffs(lax.alpha[0], lax.beta[0])), 1e-9, 0)

    return checks


def cmd_check(cfg: dict, out_dir: Path) -> int:
    seed, n = cfg["seed"], cfg["n"]
    checks = run_check_suite(seed=seed, n=n, samples=cfg["samples"], inject_sign_flip=cfg["inject_sign_flip"])
    all_pass = all(c["pass"] for c in checks)
    nio.write_json({"checks": checks, "n": n, "seed": seed, "all_pass": all_pass}, out_dir / "check.json")
    for c in checks:
        print(f"check {c['name']}: error {c['error']:.3e} (threshold {c['threshold']:.1e}) "
              f"-> {'pass' if c['pass'] else 'FAIL'}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


_COMMANDS = {
    "evolve": cmd_evolve,
    "spectral": cmd_spectral,
    "halfline": cmd_halfline,
    "vergne": cmd_vergne,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nahmlab", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out-dir", default=".", help="artifact output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    level = os.environ.get("NAHMLAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), stream=sys.stderr)

    try:
        raw = json.loads(Path(args.config).read_text())
        if args.seed is not None and isinstance(raw, dict):
            raw = {**raw, "seed": args.seed}
        cfg = _value(raw, Key(SCHEMAS[args.command]))
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return _COMMANDS[args.command](cfg, out_dir)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NahmBlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except np.linalg.LinAlgError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
