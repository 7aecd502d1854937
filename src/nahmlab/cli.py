"""Command-line front end: run solvers, spectral checks, half-line orbit
identification, the Vergne demo, and the invariant suite from JSON configs.

Exit codes: 0 pass, 1 check failure, 2 config error (a bad config value, or
the library's ``InputError`` for one), 3 blow-up, 4 non-convergence.  All
randomness is seeded; identical config + seed gives byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import io as nio
from .algebra import AlgebraSpec, InputError, pairing, su2_basis, su2_embed, su2_embed_block
from .gauge import GroupPath, act, exp_su_path, horizontal_project, monodromy, quotient_metric, trivialize, vertical_field
from .moment import (
    _omega_baby,
    hamiltonian_check,
    kahler_form_identity_check,
    lax_extract,
    mu_nahm,
    rho_star,
    s1_moment_identity_check,
)
from .paths import (
    AlgebraPath,
    Grid,
    NahmData,
    pairing_nodes,
    quadrature,
    random_dirichlet_path,
    random_smooth_path,
    random_tangent,
    sup_norm,
)
from .solver import (
    BoundaryTarget,
    NahmBlowUpError,
    asymptotic_model,
    coth_solution,
    halfline_solve,
    integrate_nahm,
    orbit_identify,
)
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


# bounds and tolerances, whatever the command: a value given must be > 0
_POSITIVE = {"residual_bound", "blowup_bound", "drift_bound", "reality_bound", "tol", "coeff_tol", "residual_gate"}


def _get(cfg: dict, key: str, typ, default=None, required: bool = False):
    if key not in cfg:
        if required:
            raise ConfigError(f"missing config key {key!r}")
        return default
    val = _typed(cfg[key], typ, f"config key {key!r}")
    if key in _POSITIVE and val <= 0:
        raise ConfigError(f"config key {key!r} must be > 0, got {val}")
    return val


def _algebra(cfg: dict) -> AlgebraSpec:
    sub = _get(cfg, "algebra", dict, {"family": "su", "dim": 2})
    return AlgebraSpec(_get(sub, "family", str, "su"), _get(sub, "dim", int, 2))


def _grid(cfg: dict, default=None) -> Grid:
    sub = _get(cfg, "grid", dict, default, required=default is None)
    return Grid(_get(sub, "s0", float, 0.0), _get(sub, "s1", float, 1.0), _get(sub, "n", int, 1000))


def _matrix(entry, k: int) -> np.ndarray:
    try:
        return nio.matrix_from_json(entry, k)
    except Exception as exc:
        raise ConfigError(f"bad matrix entry: {exc}") from exc


def _coth_initial(a: float, s0_offset: float, grid: Grid) -> list:
    """(T1, T2, T3)(grid.s0) of the closed-form coth solution."""
    d = coth_solution(a, s0_offset, grid)
    return [c.values[0] for c in (d.T1, d.T2, d.T3)]


def _initial_triple(cfg: dict, algebra: AlgebraSpec, grid: Grid):
    init = _get(cfg, "init", dict, required=True)
    kind = _get(init, "kind", str, required=True)
    s0 = grid.s0
    if kind == "nil":
        offset = _get(init, "offset", float, 1.0)
        if abs(s0 + offset) < 1e-12:
            raise ConfigError("nil init has a pole at the left endpoint")
        sigma = su2_embed(algebra)
        return tuple(np.asarray(e) / (s0 + offset) for e in sigma)
    if kind == "coth":
        if algebra.dim != 2:
            raise ConfigError("coth init is an su(2) solution")
        return tuple(_coth_initial(_get(init, "a", float, 1.0), _get(init, "s0_offset", float, 1.0), grid))
    if kind == "matrices":
        return tuple(_matrix(_get(init, name, list, required=True), algebra.dim) for name in ("T1", "T2", "T3"))
    raise ConfigError(f"unknown init kind {kind!r}")


def cmd_evolve(cfg: dict, out_dir: Path, seed: int) -> int:
    algebra = _algebra(cfg)
    grid = _grid(cfg, {"s0": 0.0, "s1": 1.0, "n": 1000})
    bound = _get(cfg, "residual_bound", float, 1e-6)
    blowup = _get(cfg, "blowup_bound", float, 1e6)
    init = _initial_triple(cfg, algebra, grid)
    try:
        d = integrate_nahm(algebra, init, grid, blowup_bound=blowup)
    except NahmBlowUpError as exc:
        log.warning("%s", exc)
        nio.write_json({"blow_up": True, "message": str(exc)}, out_dir / "solution.json")
        print(f"evolve: blow-up ({exc})")
        return EXIT_BLOWUP
    res = mu_nahm(d)
    norms = np.stack([np.linalg.norm(m.values, axis=(-2, -1)) for m in (res.mu1, res.mu2, res.mu3)])
    nio.write_json(nio.nahm_to_json(d), out_dir / "solution.json")
    nio.residual_to_csv(grid, norms, out_dir / "residual.csv")
    ok = res.sup <= bound
    print(f"evolve: max residual {res.sup:.3e} (bound {bound:.1e}) -> {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_spectral(cfg: dict, out_dir: Path, seed: int) -> int:
    algebra = _algebra(cfg)
    reality_bound = _get(cfg, "reality_bound", float, 1e-9)
    if "fixed_curve" in cfg:
        sub = _get(cfg, "fixed_curve", dict)
        k = algebra.dim
        zero = np.zeros((k, k), dtype=complex)
        taus = []
        for name in ("tau1", "tau2", "tau3"):
            entry = sub.get(name)
            if entry is None:
                taus.append(zero)
            elif isinstance(entry, dict) and "te3" in entry:
                if k != 2:
                    raise ConfigError("te3 preset needs su(2)")
                taus.append(_get(entry, "te3", float) * su2_basis().e3)
            else:
                taus.append(_matrix(entry, k))
        target = BoundaryTarget(*taus, L=_get(sub, "L", float, 10.0))
        curve = fixed_curve(target)
        violation = reality_check(curve)
        summary = {
            "curve": curve.to_json(),
            "factors": None if curve.factors is None else [nio.to_pairs(q).tolist() for q in curve.factors],
            "reality_violation": violation,
        }
        nio.write_json(summary, out_dir / "spectral.json")
        ok = violation <= reality_bound
        print(f"spectral: fixed curve reality violation {violation:.3e} -> {'pass' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    grid = _grid(cfg, {"s0": 0.0, "s1": 5.0, "n": 5000})
    drift_bound = _get(cfg, "drift_bound", float, 1e-7)
    nonreal = _get(cfg, "nonreal_control", bool, False)
    init = _initial_triple(cfg, algebra, grid)
    try:
        d = integrate_nahm(algebra, init, grid, blowup_bound=_get(cfg, "blowup_bound", float, 1e6))
    except NahmBlowUpError as exc:
        print(f"spectral: blow-up ({exc})")
        return EXIT_BLOWUP
    flows = spectral_flow(d, beta_dagger_zero=nonreal)
    drift = _coeff_drift(flows)
    curve0 = SpectralData(algebra.dim, [f[:, 0] for f in flows])
    violation = reality_check(curve0)
    nio.coeffs_to_csv(grid, flows, out_dir / "coeffs.csv")
    nio.write_json(
        {"drift": drift, "reality_violation": violation, "curve0": curve0.to_json()},
        out_dir / "spectral.json",
    )
    ok = drift <= drift_bound and violation <= reality_bound
    print(
        f"spectral: drift {drift:.3e} (bound {drift_bound:.1e}), "
        f"reality {violation:.3e} (bound {reality_bound:.1e}) -> {'pass' if ok else 'FAIL'}"
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _sigma_from_config(entry, algebra: AlgebraSpec):
    if entry in (None, "none"):
        return None
    if entry == "irreducible":
        return su2_embed(algebra)
    if isinstance(entry, dict) and "block" in entry:
        return su2_embed_block(algebra, _get(entry, "block", int))
    raise ConfigError(f"unknown sigma spec {entry!r}")


def cmd_halfline(cfg: dict, out_dir: Path, seed: int) -> int:
    algebra = _algebra(cfg)
    tcfg = _get(cfg, "target", dict, required=True)
    kind = _get(tcfg, "kind", str, required=True)
    L = _get(tcfg, "L", float, 10.0)
    k = algebra.dim
    zero = np.zeros((k, k), dtype=complex)
    if kind == "coth":
        if k != 2:
            raise ConfigError("coth target needs su(2)")
        a = _get(tcfg, "a", float, 1.5)
        target = BoundaryTarget(-a * su2_basis().e1, zero, zero, L=L)
        guess = _coth_initial(a, 1.0, Grid(0.0, L, 2))
    elif kind == "nil":
        sigma = _sigma_from_config(_get(tcfg, "sigma", object, "irreducible"), algebra)
        target = BoundaryTarget(zero, zero, zero, sigma=sigma, L=L)
        guess = [np.asarray(e, dtype=complex) for e in sigma]
    elif kind == "explicit":
        taus = [_matrix(_get(tcfg, name, list, required=True), k) for name in ("tau1", "tau2", "tau3")]
        sigma = _sigma_from_config(tcfg.get("sigma"), algebra)
        target = BoundaryTarget(*taus, sigma=sigma, L=L)
        guess = list(asymptotic_model(target, 0.0))
    else:
        raise ConfigError(f"unknown target kind {kind!r}")

    pert = _get(cfg, "perturbation", float, 0.0)
    if pert < 0:
        raise ConfigError(f"config key 'perturbation' must be >= 0, got {pert}")
    if pert > 0:
        rng = np.random.default_rng(seed)
        scale = max(max(np.linalg.norm(m) for m in guess), 1.0)
        guess = [m + pert * scale * algebra.random_element(rng, 1.0) for m in guess]

    if "newton" in cfg:
        raise ConfigError("the half-line solver no longer iterates: remove the 'newton' block "
                          "and set the terminal tolerance with the top-level 'tol'")
    coeff_tol = _get(cfg, "coeff_tol", float, 1e-6)
    residual_gate = _get(cfg, "residual_gate", float, 1e-3)
    result = halfline_solve(
        target,
        tuple(guess),
        step=_get(cfg, "step", float, 5e-3),
        tol=_get(cfg, "tol", float, 1e-6),
        blowup_bound=_get(cfg, "blowup_bound", float, 1e6),
    )
    report = None
    if result.data is not None:
        report = orbit_identify(result.data, target, coeff_tol=coeff_tol, residual_gate=residual_gate)
    nio.write_json(
        {
            "converged": result.converged,
            "terminal_deviation": result.terminal_deviation,
            "iterations": result.iterations,
            "message": result.message,
            "orbit": None if report is None else report.to_json(),
        },
        out_dir / "halfline.json",
    )
    if result.data is not None:
        nio.write_json(nio.nahm_to_json(result.data), out_dir / "solution.json")
    certified = report is not None and report.certified
    print(
        f"halfline: {result.message}; terminal deviation {result.terminal_deviation:.3e}; "
        f"orbit certified: {certified}"
    )
    if result.data is None:
        return EXIT_BLOWUP
    if not result.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if certified else EXIT_CHECK_FAILED


def cmd_vergne(cfg: dict, out_dir: Path, seed: int) -> int:
    table = []
    crossovers = 0
    points = []
    if "points" in cfg:
        for entry in _get(cfg, "points", list):
            if not (isinstance(entry, list) and len(entry) == 4):
                raise ConfigError(f"a point is [re u, im u, re v, im v], got {entry!r}")
            ur, ui, vr, vi = (_typed(x, float, "a point coordinate") for x in entry)
            points.append((complex(ur, ui), complex(vr, vi)))
    samples = _get(cfg, "samples", int, 0)
    if samples < 0:
        raise ConfigError(f"config key 'samples' must be >= 0, got {samples}")
    rng = np.random.default_rng(seed)
    for i in range(samples):
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
        table.append(
            {
                "u": [u.real, u.imag],
                "v": [v.real, v.imag],
                "orbit": orbit,
                "image": nio.matrix_to_json(M),
                "form": form,
                "b": None if b is None else [b.real, b.imag],
            }
        )
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
    d = integrate_nahm(su2, tuple(c.values[0] for c in (coth.T1, coth.T2, coth.T3)), grid)
    add("conservation_drift", conservation_check(d), 1e4 * grid.h**4, 4)

    # Hamiltonian identities (exact on the discrete level)
    worst = {"baby": 0.0, 1: 0.0, 2: 0.0, 3: 0.0}
    for _ in range(samples):
        data = NahmData(
            su2,
            *(random_smooth_path(su2, grid, rng) for _ in range(4)),
        )
        rho = random_dirichlet_path(su2, grid, rng)
        v = random_tangent(su2, grid, rng)
        for which in worst:
            err = hamiltonian_check(data, rho, v, which)
            if inject_sign_flip and which == "baby":
                # deliberate harness control: a sign flip must be caught
                err = abs(err + 2.0 * abs(_omega_baby(rho_star(data, rho), v)))
            worst[which] = max(worst[which], err)
    add("hamiltonian_baby", worst["baby"], 1e-5, 0)
    add("hamiltonian_I1", worst[1], 1e-5, 0)
    add("hamiltonian_I2", worst[2], 1e-5, 0)
    add("hamiltonian_I3", worst[3], 1e-5, 0)

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
    comp_err = max(sup_norm(a.values - b.values) for a, b in zip(lhs.components, rhs.components))
    add("act_composition", comp_err, 500.0 * grid.h**2, 2)

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


def cmd_check(cfg: dict, out_dir: Path, seed: int) -> int:
    n = _get(cfg, "n", int, 300)
    samples = _get(cfg, "samples", int, 10)
    flip = _get(cfg, "inject_sign_flip", bool, False)
    checks = run_check_suite(seed=seed, n=n, samples=samples, inject_sign_flip=flip)
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
        cfg = json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        return _COMMANDS[args.command](cfg, out_dir, seed)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NahmBlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
