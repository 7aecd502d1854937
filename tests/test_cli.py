import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nahmlab
from nahmlab.algebra import AlgebraSpec
from nahmlab.cli import REQUIRED, SCHEMAS, Key, Kinds, main, run_check_suite
from nahmlab.io import from_pairs
from nahmlab.paths import Grid
from nahmlab.moment import lax_extract
from nahmlab.solver import coth_solution, integrate_nahm
from nahmlab.spectral import char_coeffs
from nahmlab.sympair import vergne_map


def write_config(tmp_path, name, cfg):
    """The config written as JSON, or verbatim when it is already a text or bytes."""
    path = tmp_path / name
    if isinstance(cfg, bytes):
        path.write_bytes(cfg)
    else:
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    return str(path)


def run(tmp_path, command, cfg, name="cfg.json", seed=None):
    cfg_path = write_config(tmp_path, name, cfg)
    out = tmp_path / "out"
    argv = [command, "--config", cfg_path, "--out-dir", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), out


def test_evolve_nil_passes(tmp_path):
    cfg = {
        "algebra": {"family": "su", "dim": 2},
        "grid": {"s0": 0.0, "s1": 1.0, "n": 1000},
        "init": {"kind": "nil"},
        "residual_bound": 2e-6,
    }
    code, out = run(tmp_path, "evolve", cfg)
    assert code == 0
    sol = json.loads((out / "solution.json").read_text())
    assert len(sol["T1"]) == 1001
    assert (out / "residual.csv").exists()


def test_evolve_commuting_constants(tmp_path):
    cfg = {
        "algebra": {"family": "su", "dim": 2},
        "grid": {"s0": 0.0, "s1": 1.0, "n": 200},
        "init": {
            "kind": "matrices",
            "T1": [[0.0, 0.5], [0.0, 0.0], [0.0, 0.0], [0.0, -0.5]],
            "T2": [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, -1.0]],
            "T3": [[0.0, -0.25], [0.0, 0.0], [0.0, 0.0], [0.0, 0.25]],
        },
        "residual_bound": 1e-10,
    }
    code, out = run(tmp_path, "evolve", cfg)
    assert code == 0


def test_evolve_blowup_exit_code(tmp_path):
    cfg = {
        "algebra": {"family": "su", "dim": 2},
        "grid": {"s0": 0.0, "s1": 1.0, "n": 1000},
        "init": {"kind": "nil", "offset": -0.5},
    }
    code, _ = run(tmp_path, "evolve", cfg)
    assert code == 3


def test_vergne_map_in_the_wrong_complex_structure_fails(tmp_path, monkeypatch):
    # negative control: the map of the other complex structure sends every
    # sample to the other form, and the verdict must count each crossover
    monkeypatch.setattr("nahmlab.cli.vergne_map_j", vergne_map)
    code, out = run(tmp_path, "vergne", {"samples": 20, "seed": 3})
    assert code == 1
    assert json.loads((out / "vergne.json").read_text())["crossovers"] == 20


def test_evolve_bad_config(tmp_path):
    code, _ = run(tmp_path, "evolve", {"grid": {"n": 100}})
    assert code == 2
    code, _ = run(tmp_path, "evolve", {"init": {"kind": "unknown"}})
    assert code == 2


def test_spectral_flow_coth(tmp_path):
    cfg = {
        "algebra": {"family": "su", "dim": 2},
        "grid": {"s0": 0.0, "s1": 5.0, "n": 5000},
        "init": {"kind": "coth", "a": 1.0},
        "drift_bound": 1e-7,
        "reality_bound": 1e-9,
    }
    code, out = run(tmp_path, "spectral", cfg)
    assert code == 0
    summary = json.loads((out / "spectral.json").read_text())
    assert summary["drift"] <= 1e-7
    assert (out / "coeffs.csv").exists()
    # curve0 reads back, bit for bit, as the curve of the flow's first node
    start = integrate_nahm(AlgebraSpec("su", 2), tuple(coth_solution(1.0, 1.0, Grid(0.0, 5.0, 2)).values[1:, 0]),
                           Grid(0.0, 0.01, 2))
    alpha, beta = lax_extract(start)
    want = char_coeffs(alpha[0], beta[0])
    assert summary["curve0"]["k"] == 2
    assert [from_pairs(a).tobytes() for a in summary["curve0"]["a"]] == [w.tobytes() for w in want]


def test_spectral_negative_control(tmp_path):
    cfg = {
        "algebra": {"family": "su", "dim": 2},
        "grid": {"s0": 0.0, "s1": 1.0, "n": 300},
        "init": {
            "kind": "matrices",
            "T1": [[0.0, 0.3], [0.1, 0.2], [-0.1, 0.2], [0.0, -0.3]],
            "T2": [[0.0, 0.1], [0.4, -0.1], [-0.4, -0.1], [0.0, -0.1]],
            "T3": [[0.0, -0.2], [0.2, 0.3], [-0.2, 0.3], [0.0, 0.2]],
        },
        "nonreal_control": True,
    }
    code, out = run(tmp_path, "spectral", cfg)
    assert code == 1
    summary = json.loads((out / "spectral.json").read_text())
    assert summary["reality_violation"] >= 1e-2


def test_spectral_fixed_curve(tmp_path):
    cfg = {
        "algebra": {"family": "su", "dim": 2},
        "fixed_curve": {"tau1": {"te3": 0.8}},
    }
    code, out = run(tmp_path, "spectral", cfg)
    assert code == 0
    summary = json.loads((out / "spectral.json").read_text())
    a2 = [complex(re, im) for re, im in summary["curve"]["a"][1]]
    assert abs(a2[2] + 0.64) < 1e-12
    assert max(abs(c) for i, c in enumerate(a2) if i != 2) < 1e-12
    assert summary["factors"] is not None


def test_spectral_fixed_curve_overflow_fails(tmp_path):
    # 1e308 overflows a_2 to NaN: a reality violation of NaN is no pass, and
    # main's own errstate keeps the overflow from raising under pytest's filter
    cfg = {"algebra": {"family": "su", "dim": 2}, "fixed_curve": {"tau1": {"te3": 1e308}}}
    code, out = run(tmp_path, "spectral", cfg)
    assert code == 1


def test_vergne_non_finite_image_fails(tmp_path, capsys):
    # 1e308 overflows the image to NaN/inf entries: a failed check that names
    # the point, not a point without a crossover
    code, out = run(tmp_path, "vergne", {"points": [[1e308, 1e308, 1e308, 1e308]]})
    assert code == 1
    assert "point [1e+308, 1e+308, 1e+308, 1e+308] has a non-finite image -> FAIL" in capsys.readouterr().out
    assert (out / "vergne.json").exists()


def test_vergne_zero_point_is_refused_before_anything_is_written(tmp_path, capsys):
    # the zero point is refused as a config error: the failing point before it is not reported
    code, out = run(tmp_path, "vergne", {"points": [[1e308, 1e308, 1e308, 1e308], [0, 0, 0, 0]]})
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "config error: (u, v) must be nonzero\n"
    assert not (out / "vergne.json").exists()


@pytest.mark.parametrize("command, cfg", [
    ("spectral", {"algebra": {"family": "su", "dim": 2}, "fixed_curve": {"tau1": {"te3": 1e308}}}),
    ("vergne", {"points": [[1e308, 1e308, 1e308, 1e308]]}),
])
def test_overflow_fails_without_a_numpy_warning(tmp_path, command, cfg):
    # a fresh interpreter prints every numpy RuntimeWarning to stderr
    env = dict(os.environ, PYTHONPATH=str(Path(nahmlab.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "nahmlab.cli", command, "--config", write_config(tmp_path, "cfg.json", cfg),
            "--out-dir", str(tmp_path / "out")]
    out = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert (out.returncode, out.stderr) == (1, "")


_BIG_DIAG = [[0.0, 1e200], [0.0, 0.0], [0.0, 0.0], [0.0, -1e200]]  # diag(i, -i) 1e200 in su(2)
_MAX_DIAG = [[0.0, 1e308], [0.0, 0.0], [0.0, 0.0], [0.0, -1e308]]
_HALF_DIAG = [[0.0, 0.5], [0.0, 0.0], [0.0, 0.0], [0.0, -0.5]]
_ZERO = [[0.0, 0.0]] * 4
_HUGE_COTH = {"blowup_bound": 1e308, "grid": {"n": 2}, "init": {"kind": "coth", "a": 1e308, "s0_offset": 0.5}}
_TINY_HALFLINE = {"blowup_bound": 0.5, "step": 0.5}


LARGE_INPUTS = [
    ("evolve", {"init": {"kind": "matrices", "T1": _BIG_DIAG, "T2": _ZERO, "T3": _ZERO}}, 3),
    ("spectral", {"init": {"kind": "coth", "a": 1e300}}, 3),
    ("halfline", {"target": {"kind": "explicit", "tau1": _BIG_DIAG, "tau2": _ZERO, "tau3": _ZERO}}, 3),
    ("evolve", {"init": {"kind": "coth", "a": 1e308, "s0_offset": 2.0}}, 3),  # a * (s + c) overflows
    ("evolve", _HUGE_COTH, 1),  # the residual of a state near overflow is not finite
    ("evolve", {"blowup_bound": 1e308, "grid": {"s1": 3.0, "n": 2},  # a step past the pole, short of the bound
                "init": {"kind": "nil", "offset": -0.5}}, 1),
    ("spectral", _HUGE_COTH, 1),  # so are its spectral coefficients
    ("halfline", {"seed": 3, **_TINY_HALFLINE, "perturbation": 1e308,  # the perturbed guess overflows
                  "target": {"kind": "coth", "L": 0.5, "a": 2.0}}, 2),
    ("halfline", {**_TINY_HALFLINE, "target": {"kind": "explicit", "L": 0.5, "tau1": _HALF_DIAG, "tau2": _HALF_DIAG,
                                               "tau3": _MAX_DIAG}}, 3),  # the model's projection overflows
    ("halfline", {**_TINY_HALFLINE, "perturbation": 0.5, "target": {"kind": "coth", "L": 0.5, "a": 1e308}}, 3),
    ("halfline", {"blowup_bound": 1e308, "step": 0.5, "target": {"kind": "coth", "L": 0.5, "a": 1e308}}, 1),
    # the guess norm 7.1e199 is finite, though its squares overflow: the perturbed guess runs
    ("halfline", {"perturbation": 0.01, "target": {"kind": "coth", "a": 1e200}}, 3),
]


@pytest.mark.parametrize("command, cfg, code", LARGE_INPUTS,
                         ids=[f"{command}-cfg{i}" for i, (command, _, _) in enumerate(LARGE_INPUTS)])
def test_large_finite_input_blows_up_without_a_numpy_warning(tmp_path, command, cfg, code):
    # a state past the norm bound is a blow-up (exit 3), and one short of it
    # may still overflow the checks (exit 1) or the guess (exit 2); the values
    # that overflow on the way are taken under main's errstate or rescaled,
    # so a fresh interpreter prints nothing to stderr but a config error: a
    # blow-up is one line on stdout with no artifact, and nothing is suppressed
    env = dict(os.environ, PYTHONPATH=str(Path(nahmlab.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "nahmlab.cli", command, "--config", write_config(tmp_path, "cfg.json", cfg),
            "--out-dir", str(tmp_path / "out")]
    out = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert out.returncode == code
    if code == 2:  # the overflowed guess: the message names the config key at fault
        assert re.fullmatch(r"config error: config key '(perturbation|target)' overflows the perturbed guess "
                            r"\(perturbation \S+ times the guess norm \S+\)\n", out.stderr)
    else:
        assert out.stderr == ""
    if code == 3:
        assert re.fullmatch(rf"{command}: blow-up \(Nahm flow blow-up near s = \S+ \(norm \S+\)\)\n", out.stdout)
        assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command", ["evolve", "spectral"])
@pytest.mark.parametrize("grid, init", [
    # finite endpoints whose step overflows, and the all-zero init, a fixed point
    ({"s0": -1e308, "s1": 1e308, "n": 4}, {"kind": "matrices", "T1": _ZERO, "T2": _ZERO, "T3": _ZERO}),
    ({"s0": 0, "s1": 5e-324, "n": 10}, {"kind": "nil"}),  # a step that underflows to 0: a flow that never moves
], ids=["infinite_step", "zero_step"])
def test_grid_step_that_is_zero_or_not_finite_is_a_config_error(tmp_path, capsys, command, grid, init):
    code, out = run(tmp_path, command, {"grid": grid, "init": init})
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("config error: grid needs s0 < s1 with a finite nonzero step"), captured.err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, cfg, code", [
    ("spectral", {"algebra": {"family": "su", "dim": 2}, "fixed_curve": {"tau1": {"te3": 1e308}}}, 1),
    ("halfline", {"seed": 3, **_TINY_HALFLINE, "perturbation": 1e308, "target": {"kind": "coth", "L": 0.5, "a": 2.0}}, 2),
    ("evolve", {"init": {"kind": "matrices", "T1": _BIG_DIAG, "T2": _ZERO, "T3": _ZERO}}, 3),
])
def test_main_leaves_the_callers_numpy_error_state_as_it_found_it(tmp_path, command, cfg, code):
    # the one np.errstate is main's own: an overflowed verdict, an overflowed
    # guess and a blow-up each hand back the caller's settings, here unusual ones
    with np.errstate(over="raise", invalid="print", divide="ignore"):
        before = np.geterr()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run(tmp_path, command, cfg)[0] == code
        assert np.geterr() == before


@pytest.mark.parametrize("cfg, key", [
    ({"seed": 3, "perturbation": 1e308, "target": {"kind": "coth", "L": 0.5, "a": 2.0}}, "perturbation"),
    ({"perturbation": 10.0, "target": {"kind": "coth", "L": 0.5, "a": 1e308}}, "perturbation"),
    ({"perturbation": 0.5, "target": {"kind": "explicit", "L": 0.5, "tau1": [[0.0, 1.7e308], [0.0, 0.0], [0.0, 0.0],
                                                                            [0.0, -1.7e308]],
                                      "tau2": _ZERO, "tau3": _ZERO}}, "target"),
], ids=["perturbation", "coth_a", "explicit_tau"])
def test_halfline_overflowed_guess_names_the_key_at_fault(tmp_path, capsys, cfg, key):
    # the guess is made from the target and the perturbation; init_guess is no config key
    code, out = run(tmp_path, "halfline", {**_TINY_HALFLINE, **cfg})
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: config key {key!r} overflows the perturbed guess"), err
    assert not out.exists() or list(out.iterdir()) == []


def test_halfline_blowup_of_a_maximal_su_k_target_names_a_finite_norm(tmp_path, capsys):
    # diag(1e308 i, -1e308 i) is an element of su(2) of norm 1.41e308: projecting it
    # must not overflow, so the blow-up names that norm, not inf
    cfg = {**_TINY_HALFLINE, "target": {"kind": "explicit", "L": 0.5, "tau1": _ZERO, "tau2": _ZERO, "tau3": _MAX_DIAG}}
    code, _ = run(tmp_path, "halfline", cfg)
    stdout = capsys.readouterr().out
    assert code == 3
    norm = float(re.search(r"\(norm ([^)]*)\)", stdout).group(1))
    assert norm == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-3), stdout


def test_blowup_names_the_finite_norm_of_a_state_whose_squares_overflow(tmp_path):
    # the coth start at a = 1e300 is a constant state of norm 1e300 / sqrt(2):
    # finite, though its squared entries overflow
    cfg = {"algebra": {"family": "su", "dim": 2}, "grid": {"s0": 0.0, "s1": 1.0, "n": 100},
           "init": {"kind": "coth", "a": 1e300}}
    env = dict(os.environ, PYTHONPATH=str(Path(nahmlab.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "nahmlab.cli", "spectral", "--config", write_config(tmp_path, "cfg.json", cfg),
            "--out-dir", str(tmp_path / "out")]
    out = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert (out.returncode, out.stderr) == (3, "")
    norm = float(re.search(r"\(norm ([^)]*)\)", out.stdout).group(1))
    assert norm == pytest.approx(1e300 / np.sqrt(2.0), rel=1e-3), out.stdout


def test_halfline_nil_converges(tmp_path):
    cfg = {
        "algebra": {"family": "su", "dim": 2},
        "target": {"kind": "nil", "L": 6.0},
        "perturbation": 0.01,
        "seed": 5,
        "step": 0.01,
    }
    code, out = run(tmp_path, "halfline", cfg)
    assert code == 0
    rep = json.loads((out / "halfline.json").read_text())
    assert sorted(rep) == ["iterations", "orbit", "terminal_deviation"]
    orbit = rep["orbit"]
    assert sorted(orbit) == ["beta0_rank", "certified", "charpoly_beta0", "charpoly_target", "max_coeff_dev",
                             "residual_sup"]
    assert orbit["certified"] is True and type(orbit["beta0_rank"]) is int
    assert type(orbit["max_coeff_dev"]) is float and type(orbit["residual_sup"]) is float
    assert from_pairs(orbit["charpoly_target"]).tolist() == [1, 0, 0]  # the nilpotent orbit: eta^2
    assert from_pairs(orbit["charpoly_beta0"]).shape == (3,)


def test_halfline_missed_guess_ends_on_the_model(tmp_path):
    # the missed guess's path is the backward flow's, which starts on the
    # model, so it ends there exactly: the deviation is the model's projection
    # defect, 0 for this su(2) target, far below the kept-guess tolerance
    cfg = {
        "algebra": {"family": "su", "dim": 2},
        "target": {"kind": "nil", "L": 10.0},
        "perturbation": 0.001,
        "seed": 7,
    }
    code, out = run(tmp_path, "halfline", cfg)
    assert code == 0
    rep = json.loads((out / "halfline.json").read_text())
    assert rep.keys() == {"iterations", "orbit", "terminal_deviation"}
    assert (rep["iterations"], rep["terminal_deviation"]) == (1, 0.0)


def test_halfline_off_algebra_model_converges_on_its_projection(tmp_path, capsys):
    # tau1 = diag(1e-12 + 0.5i, -1e-12 - 0.5i) passes the target's su(2) test;
    # the flow starts on its projection, 1.414e-12 away, and the deviation is
    # measured against that projection: 0, not the 1.414e-12 offset
    cfg = {
        "algebra": {"family": "su", "dim": 2},
        "target": {"kind": "explicit", "L": 10.0, "tau1": [[1e-12, 0.5], [0.0, 0.0], [0.0, 0.0], [-1e-12, -0.5]],
                   "tau2": [[0.0, 0.0]] * 4, "tau3": [[0.0, 0.0]] * 4},
    }
    code, out = run(tmp_path, "halfline", cfg)
    assert code == 0
    assert capsys.readouterr().out == "halfline: terminal deviation 0.000e+00; orbit certified: True\n"
    rep = json.loads((out / "halfline.json").read_text())
    assert (sorted(rep), rep["terminal_deviation"]) == (["iterations", "orbit", "terminal_deviation"], 0.0)


@pytest.mark.parametrize(
    "change",
    [
        {"newton": {"tol": 1e-8}},  # the solver no longer iterates
        {"target": {"kind": "coth", "L": -1.0}},
        {"target": {"kind": "explicit", "tau1": [[0.0, 0.5], [0.0, 0.0], [0.0, 0.0], [0.0, -0.5]],
                    "tau2": [[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0], [0.0, 0.0]],
                    "tau3": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}},  # non-commuting
        {"step": 0.0},
        {"target": {"kind": "nil", "sigma": {"block": 5}}},  # larger than su(2)
    ],
)
def test_halfline_bad_config(tmp_path, change):
    cfg = {"algebra": {"family": "su", "dim": 2}, "target": {"kind": "nil", "L": 6.0}, "step": 0.01, **change}
    code, _ = run(tmp_path, "halfline", cfg)
    assert code == 2


SL2 = {"family": "sl_complex", "dim": 2}
SMALL_GRID = {"s0": 0.0, "s1": 1.0, "n": 50}
HERMITIAN = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]
ZERO_PAIRS = [[0.0, 0.0]] * 4


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("evolve", {"algebra": SL2, "grid": SMALL_GRID, "init": {"kind": "nil"}}),
        ("spectral", {"algebra": SL2, "grid": SMALL_GRID, "init": {"kind": "nil"}}),
        ("halfline", {"algebra": SL2, "target": {"kind": "nil", "L": 6.0}}),
        ("evolve", {"grid": SMALL_GRID, "init": {"kind": "matrices", "T1": HERMITIAN, "T2": HERMITIAN,
                                                 "T3": HERMITIAN}}),  # not in su(2)
        ("vergne", {"points": [[1.0, 0.0, 0.0]]}),
        ("vergne", {"points": [[0.0, 0.0, 0.0, 0.0]]}),
        ("spectral", {"fixed_curve": {"tau1": {"te3": "x"}}}),
        ("check", {"n": 1, "samples": 1}),
        # no silent coercion of config values
        ("vergne", {"samples": True}),
        ("check", {"n": True, "samples": 1}),
        ("evolve", {"grid": {"s0": 0.0, "s1": 1.0, "n": 2.9}, "init": {"kind": "nil"}}),
        ("evolve", {"grid": {"s0": 0.0, "s1": 1.0, "n": "5"}, "init": {"kind": "nil"}}),
        # bounds and tolerances are finite and > 0; no float is NaN or infinite
        ("evolve", {"grid": SMALL_GRID, "init": {"kind": "nil"}, "blowup_bound": float("nan")}),
        ("evolve", {"grid": SMALL_GRID, "init": {"kind": "nil"}, "residual_bound": -1.0}),
        ("evolve", {"grid": SMALL_GRID, "init": {"kind": "nil"}, "residual_bound": float("nan")}),
        ("evolve", {"grid": {"s0": 0.0, "s1": float("inf"), "n": 50}, "init": {"kind": "nil"}}),
        ("spectral", {"grid": SMALL_GRID, "init": {"kind": "nil"}, "drift_bound": float("nan")}),
        ("spectral", {"grid": SMALL_GRID, "init": {"kind": "nil"}, "reality_bound": 0.0}),
        ("spectral", {"grid": SMALL_GRID, "init": {"kind": "nil"}, "blowup_bound": float("-inf")}),
        # a matrix entry is a JSON number too, and the half-line tolerances are fixed, no config keys
        ("halfline", {"target": {"kind": "explicit", "tau1": [["0", "0.5"], ["0", "0"], ["0", "0"], ["0", "-0.5"]],
                                 "tau2": ZERO_PAIRS, "tau3": ZERO_PAIRS}}),
        ("halfline", {"target": {"kind": "explicit", "tau1": [[0, 0.5], [0, 0], [0, 0], [True, -0.5]],
                                 "tau2": ZERO_PAIRS, "tau3": ZERO_PAIRS}}),
        ("halfline", {"target": {"kind": "explicit", "tau1": [[0, 0.5], [0, 0], [0, 0], [None, -0.5]],
                                 "tau2": ZERO_PAIRS, "tau3": ZERO_PAIRS}}),
        ("halfline", {"target": {"kind": "coth", "L": 5.0}, "tol": 1e-6}),
        ("halfline", {"target": {"kind": "coth", "L": 5.0}, "perturbation": float("nan")}),
        ("vergne", {"points": [[float("nan"), 0.0, 1.0, 0.0]]}),
        # the half-line solver works in su(k) only
        ("halfline", {"algebra": SL2, "target": {"kind": "coth", "L": 5.0}}),
        # no sample would leave the Hamiltonian checks unevaluated, reported as passing
        ("check", {"n": 50, "samples": 0}),
        ("check", {"n": 50, "samples": -3}),
        # a negative sample count is no count, even beside explicit points
        ("vergne", {"points": [[1.0, 0.0, 0.0, 0.0]], "samples": -5}),
        # a negative perturbation is no perturbation size
        ("halfline", {"target": {"kind": "coth", "L": 5.0}, "perturbation": -0.5}),
        # a seed is a non-negative int, whatever the command
        ("vergne", {"samples": 3, "seed": -1}),
        ("check", {"n": 50, "samples": 1, "seed": -1}),
        ("halfline", {"target": {"kind": "coth", "L": 5.0}, "perturbation": 0.01, "seed": -1}),
        # a nil target has a sigma to converge to
        ("halfline", {"target": {"kind": "nil", "L": 5.0, "sigma": "none"}}),
        ("halfline", {"target": {"kind": "nil", "L": 5.0, "sigma": None}}),
        # a node count past what an array can index is rejected before any array is made
        ("evolve", {"grid": {"s0": 0.0, "s1": 1.0, "n": 10**30}, "init": {"kind": "nil"}}),
        ("halfline", {"target": {"kind": "coth", "L": 1e300}}),
        ("halfline", {"target": {"kind": "coth", "L": 5.0}, "step": 1e-300}),
        ("halfline", {"target": {"kind": "coth", "L": 1e300}, "step": 1e-300}),  # L / step overflows
        ("check", {"n": 10**30, "samples": 1}),
        # so is a dim whose k x k identity numpy cannot size
        ("evolve", {"algebra": {"family": "su", "dim": 10**10}, "grid": SMALL_GRID, "init": {"kind": "nil"}}),
        ("evolve", {"algebra": {"family": "su", "dim": 10**30}, "grid": SMALL_GRID, "init": {"kind": "nil"}}),
        # a kind is a string
        ("evolve", {"grid": SMALL_GRID, "init": {"kind": True}}),
        # a fixed curve has no flow: the flow's start and its negative control are refused beside it
        ("spectral", {"fixed_curve": {"tau1": {"te3": 0.8}}, "nonreal_control": True}),
        ("spectral", {"fixed_curve": {"tau1": {"te3": 0.8}}, "init": {"kind": "nil"}}),
        # the su(2) presets, a start at the nil pole, and a sigma spec the target does not know
        ("spectral", {"algebra": {"family": "su", "dim": 3}, "fixed_curve": {"tau1": {"te3": 0.8}}}),
        ("evolve", {"grid": {"s0": 0.5, "s1": 1.0, "n": 50}, "init": {"kind": "nil", "offset": -0.5}}),
        ("evolve", {"algebra": {"family": "su", "dim": 3}, "grid": SMALL_GRID, "init": {"kind": "coth"}}),
        ("halfline", {"target": {"kind": "nil", "L": 5.0, "sigma": "bogus"}}),
        ("halfline", {"algebra": {"family": "su", "dim": 3}, "target": {"kind": "coth", "L": 5.0}}),
        # a config nested past the JSON parser's recursion limit
        pytest.param("vergne", '{"points": ' + "[" * 2000 + "]" * 2000 + "}", id="vergne-nested-2000-deep"),
        # a required key left out
        ("evolve", {"init": {"kind": "matrices"}}),
        # a file that is not UTF-8, and an integer past Python's digit limit for int(str)
        pytest.param("vergne", b"\xff\xfe{}", id="vergne-not-utf-8"),
        pytest.param("vergne", '{"samples": ' + "1" * 5000 + "}", id="vergne-integer-of-5000-digits"),
    ],
)
def test_bad_config_exits_2(tmp_path, capsys, command, cfg):
    code, _ = run(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("spectral", {"fixed_curve": {"tau1": [["0", "0"], ["0", "0.5"], ["0", "0.5"], ["0", "0"]]}}, "fixed_curve.tau1"),
        ("spectral", {"fixed_curve": {"tau2": [[0, 0], [0, 0.5], [0, 0.5], [True, 0]]}}, "fixed_curve.tau2"),
        ("evolve", {"grid": SMALL_GRID, "init": {"kind": "matrices", "T1": ZERO_PAIRS, "T2": ZERO_PAIRS,
                                                 "T3": [[None, 0.0]] + ZERO_PAIRS[1:]}}, "init.T3"),
        ("halfline", {"target": {"kind": "explicit", "tau1": ZERO_PAIRS, "tau2": [[0, 0], [0, False], [0, 0], [0, 0]],
                                 "tau3": ZERO_PAIRS}}, "target.tau2"),
        ("evolve", {"grid": SMALL_GRID, "init": {"kind": "matrices", "T1": [[0.0, "nan"]] + ZERO_PAIRS[1:],
                                                 "T2": ZERO_PAIRS, "T3": ZERO_PAIRS}}, "init.T1"),
        ("evolve", {"grid": SMALL_GRID, "init": {"kind": "matrices", "T1": ZERO_PAIRS,
                                                 "T2": [["1e400", 0.0]] + ZERO_PAIRS[1:], "T3": ZERO_PAIRS}}, "init.T2"),
    ],
)
def test_matrix_entries_must_be_json_numbers(tmp_path, capsys, command, cfg, key):
    # numpy would read "0.5" as 0.5, true as 1 and null as NaN: the pair decoder
    # refuses them, as every other config number, and the error names the key
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"config error: config key {key!r}: expected [re, im] pairs of numbers: an entry must be float, got ")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400, -10**400],
                         ids=["NaN", "Infinity", "huge", "-huge"])
def test_matrix_entry_that_is_not_finite_is_refused_by_name(tmp_path, capsys, value):
    # JSON's NaN and Infinity, and integers past the largest float
    cfg = {"fixed_curve": {"tau2": [[0.0, 0.0], [value, 0.0], [0.0, 0.0], [0.0, 0.0]]}}
    code, _ = run(tmp_path, "spectral", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config key 'fixed_curve.tau2': ") and "an entry must be finite" in err


@pytest.mark.parametrize("command, cfg, message", [
    ("halfline", {"target": {"kind": "coth", "L": 10**400}}, "config key 'target.L' must be finite, got inf"),
    ("evolve", {"grid": {"s0": 0.0, "s1": -10**400, "n": 50}, "init": {"kind": "nil"}},
     "config key 'grid.s1' must be finite, got -inf"),
    ("spectral", {"fixed_curve": {"tau1": {"te3": 10**400}}},
     "config key 'fixed_curve.tau1.te3' must be finite, got inf"),
    ("vergne", {"points": [[1.0, 0.0, 10**400, 0.0]]}, "a point coordinate must be finite, got inf"),
], ids=["float-key", "grid", "te3", "point"])
def test_an_integer_past_the_largest_float_is_not_finite(tmp_path, capsys, command, cfg, message):
    # float(10**400) raised OverflowError, a traceback and exit 1
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_a_sample_count_numpy_cannot_size_is_refused(tmp_path, capsys):
    # numpy refused the (10**30, 2) draw with "Maximum allowed dimension exceeded", a traceback and exit 1
    code, _ = run(tmp_path, "vergne", {"samples": 10**30})
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: config key 'samples' must be a count whose ")


@pytest.mark.parametrize("key, value", [("nonreal_control", True), ("init", {"kind": "nil"})])
def test_fixed_curve_refuses_a_flow_key_by_name(tmp_path, capsys, key, value):
    # the negative control, and a start, would otherwise be ignored and the fixed curve pass
    code, out = run(tmp_path, "spectral", {"fixed_curve": {"tau1": {"te3": 0.8}}, key: value})
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"config error: config key {key!r} is refused beside 'fixed_curve'\n"
    assert captured.out == "" and not (out / "spectral.json").exists()


@pytest.mark.parametrize(
    "flags",
    [["--seed", "-4"], ["--out-dir", "{file}"], ["--out-dir", "{file}/out"]],
    ids=["negative-seed", "out-dir-is-a-file", "out-dir-under-a-file"],
)
def test_bad_flag_exits_2(tmp_path, capsys, flags):
    cfg = write_config(tmp_path, "v.json", {"samples": 3})
    code = main(["vergne", "--config", cfg, "--out-dir", str(tmp_path / "out")] + [f.format(file=cfg) for f in flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_unwritable_artifact_exits_2(tmp_path, capsys):
    # a directory where evolve writes solution.json: the OSError is a config error, not a traceback
    (tmp_path / "out" / "solution.json").mkdir(parents=True)
    code, _ = run(tmp_path, "evolve", {"grid": SMALL_GRID, "init": {"kind": "nil"}})
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("spectral", {"grid": SMALL_GRID, "init": {"kind": "coth", "a": 1.0}, "nonreal_contrl": True}, "nonreal_contrl"),
        ("check", {"n": 50, "samples": 1, "inject_sign_flp": True}, "inject_sign_flp"),
        ("evolve", {"grid": SMALL_GRID, "init": {"kind": "nil"}, "residual_bond": 1e-30}, "residual_bond"),
        ("evolve", {"grid": SMALL_GRID, "init": {"kind": "nil", "ofset": -0.5}}, "init.ofset"),
        ("evolve", {"grid": {"s0": 0.0, "s1": 1.0, "m": 50}, "init": {"kind": "nil"}}, "grid.m"),
        ("halfline", {"target": {"kind": "nil", "L": 6.0, "sigma": {"block": 2, "extra": 1}}, "step": 0.01},
         "target.sigma.extra"),
        ("spectral", {"fixed_curve": {"tau1": {"te3": 0.8}, "tau4": {"te3": 0.5}}}, "fixed_curve.tau4"),
        ("spectral", {"fixed_curve": {"tau1": {"te3": 0.8, "scale": 2}}}, "fixed_curve.tau1.scale"),
        ("halfline", {"target": {"kind": "nil", "L": 6.0}, "newton": {"tol": 1e-8}}, "newton"),
        ("spectral", {"fixed_curve": {"tau1": {"te3": 0.8}, "L": 5.0}}, "fixed_curve.L"),  # a fixed curve has no L
        # the half-line tolerances are fixed in the solver
        ("halfline", {"target": {"kind": "coth", "L": 5.0}, "tol": 1e-6}, "tol"),
        ("halfline", {"target": {"kind": "coth", "L": 5.0}, "coeff_tol": 1e-6}, "coeff_tol"),
        ("halfline", {"target": {"kind": "coth", "L": 5.0}, "residual_gate": 1e-3}, "residual_gate"),
        # evolve and spectral draw nothing, so they take no seed
        ("evolve", {"grid": SMALL_GRID, "init": {"kind": "nil"}, "seed": 5}, "seed"),
        ("spectral", {"grid": SMALL_GRID, "init": {"kind": "nil"}, "seed": 5}, "seed"),
    ],
)
def test_unknown_key_exits_2_and_is_named(tmp_path, capsys, command, cfg, key):
    # a misspelled key at any level is refused, not ignored
    code, _ = run(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: unknown config key {key!r}")


@pytest.mark.parametrize(
    "cfg, seed, message",
    [
        ({"init": {"kind": "matrices"}}, None, "missing config key 'init.T1'"),
        # --seed sets the config's seed, which evolve, drawing nothing, does not take
        ({"grid": SMALL_GRID, "init": {"kind": "nil"}}, 9, "unknown config key 'seed'"),
    ],
)
def test_evolve_refusal_names_the_key(tmp_path, capsys, cfg, seed, message):
    code, out = run(tmp_path, "evolve", cfg, seed=seed)
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_vergne_default(tmp_path):
    cfg = {"samples": 200, "seed": 3}
    code, out = run(tmp_path, "vergne", cfg)
    assert code == 0
    rep = json.loads((out / "vergne.json").read_text())
    assert rep["crossovers"] == 0
    assert len(rep["samples"]) == 200


def test_vergne_single_point(tmp_path):
    cfg = {"points": [[1.0, 0.0, 0.0, 0.0]]}
    code, out = run(tmp_path, "vergne", cfg)
    assert code == 0
    rep = json.loads((out / "vergne.json").read_text())
    entry = rep["samples"][0]
    assert entry["orbit"] == "O_plus"
    assert entry["form"] == "plus_form"
    assert abs(complex(*entry["b"]) - 1.0) < 1e-12


def test_vergne_empty_config(tmp_path):
    code, _ = run(tmp_path, "vergne", {"samples": 0})
    assert code == 2


def test_check_default_passes(tmp_path):
    cfg = {"seed": 0, "n": 200, "samples": 3}
    code, out = run(tmp_path, "check", cfg)
    assert code == 0
    summary = json.loads((out / "check.json").read_text())
    assert summary["all_pass"]
    names = {c["name"] for c in summary["checks"]}
    assert {"hamiltonian_baby", "kahler_form_identity", "conservation_drift", "act_composition"} <= names


def test_check_at_the_smallest_grid_keeps_the_exit_code_contract(tmp_path, capsys):
    # at n = 2 (h = 0.5) the RK4 product of the gauge check is too far from
    # unitary to correct: no convergence (exit 4), with the finite defect
    # stated and no traceback
    code, _ = run(tmp_path, "check", {"n": 2, "samples": 1})
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("no convergence: RK4 gauge off unitary by")
    assert "Traceback" not in err and "nan" not in err


def test_check_sign_flip_fails(tmp_path):
    cfg = {"seed": 0, "n": 200, "samples": 3, "inject_sign_flip": True}
    code, out = run(tmp_path, "check", cfg)
    assert code == 1
    summary = json.loads((out / "check.json").read_text())
    failing = [c["name"] for c in summary["checks"] if not c["pass"]]
    assert "hamiltonian_baby" in failing


def test_check_nan_hamiltonian_error_fails(monkeypatch):
    monkeypatch.setattr("nahmlab.checks._hamiltonian_gaps", lambda d, rho, v, maps: [[np.nan] for _ in maps])
    checks = {c["name"]: c for c in run_check_suite(0, 100, 2, False)}
    for name in ("hamiltonian_baby", "hamiltonian_I1", "hamiltonian_I2", "hamiltonian_I3"):
        assert np.isnan(checks[name]["error"]) and not checks[name]["pass"]


def test_check_deterministic(tmp_path):
    cfg = {"seed": 12, "n": 150, "samples": 2}
    cfg_path = write_config(tmp_path, "c.json", cfg)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["check", "--config", cfg_path, "--out-dir", str(out)]) == 0
        outs.append((out / "check.json").read_bytes())
    assert outs[0] == outs[1]


def test_vergne_deterministic(tmp_path):
    cfg = write_config(tmp_path, "v.json", {"samples": 50, "seed": 4})
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["vergne", "--config", cfg, "--out-dir", str(out)]) == 0
        blobs.append((out / "vergne.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_check_refinement_orders():
    # order-tagged checks shrink by the expected factor (within 2x) when the
    # grid is doubled
    coarse = {c["name"]: c for c in run_check_suite(0, 200, 2, False)}
    fine = {c["name"]: c for c in run_check_suite(0, 400, 2, False)}
    for name, entry in coarse.items():
        order = entry["order"]
        if order == 0:
            continue
        ratio = entry["error"] / max(fine[name]["error"], 1e-300)
        expected = 2.0**order
        assert expected / 2.0 <= ratio <= expected * 2.0, (name, ratio)


# the README's JSON examples, in order, with the command each is run by
README_JSON = re.findall(r"```json\n(.*?)```", (Path(__file__).resolve().parents[1] / "README.md").read_text(), re.S)
README_CONFIGS = list(zip(["evolve", "spectral", "spectral", "halfline", "vergne", "check"],
                          map(json.loads, README_JSON), strict=True))


@pytest.mark.parametrize("command, cfg", README_CONFIGS)
def test_artifacts_keep_the_stdlib_layout(tmp_path, command, cfg):
    # every artifact is a fixed point of the stdlib writers it was first made
    # with, so its bytes do not hang on how the writer is implemented; every
    # README example passes
    code, _ = run(tmp_path, command, cfg)
    assert code == 0
    artifacts = sorted((tmp_path / "out").iterdir())
    assert artifacts
    for path in artifacts:
        text = path.read_bytes().decode("ascii")
        if path.suffix == ".json":
            assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text, path.name
            continue
        header, *rows = csv.reader(text.splitlines())
        again = io.StringIO()
        writer = csv.writer(again)
        writer.writerow(header)
        writer.writerows([f"{float(x):.17g}" for x in row] for row in rows)
        assert again.getvalue() == text, path.name


def test_missing_config_file(tmp_path):
    assert main(["check", "--config", str(tmp_path / "nope.json")]) == 2


def test_seed_override(tmp_path):
    cfg = write_config(tmp_path, "v.json", {"samples": 20, "seed": 1})
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["vergne", "--config", cfg, "--out-dir", str(out1), "--seed", "99"]) == 0
    assert main(["vergne", "--config", cfg, "--out-dir", str(out2), "--seed", "99"]) == 0
    assert (out1 / "vergne.json").read_bytes() == (out2 / "vergne.json").read_bytes()


def test_check_seed_flag_overrides_the_config_seed(tmp_path):
    # --seed N gives the bytes of a run whose config seed is N
    base = {"n": 50, "samples": 1}
    code, flagged = run(tmp_path, "check", {**base, "seed": 0}, name="a.json", seed=5)
    assert code == 0
    report = (flagged / "check.json").read_bytes()
    assert json.loads(report)["seed"] == 5
    (flagged / "check.json").unlink()
    code, configured = run(tmp_path, "check", {**base, "seed": 5}, name="b.json")
    assert code == 0
    assert (configured / "check.json").read_bytes() == report


def test_import_loads_no_sparse_or_optimize():
    # a fresh start pays only for what every command uses
    # and complex gauge fixing exponentiates by eigh, without scipy.linalg
    probe = "\n".join([
        "import sys, numpy as np, nahmlab",
        "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize', 'scipy.sparse') if m in sys.modules))",
        "grid = nahmlab.Grid(0.0, 1.0, 20)",
        "T0 = nahmlab.AlgebraPath(grid, np.zeros((21, 2, 2), dtype=complex))",
        "T1 = nahmlab.AlgebraPath(grid, np.broadcast_to(nahmlab.su2_basis().e3, (21, 2, 2)))",
        "nahmlab.complex_trivialize(T0, T1, level_tol=1e-6)",
        "print('scipy.linalg' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(nahmlab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["[]", "False"]


# values of the right type for a key, (in range, out of range); sizes stay
# small (n <= 60, L <= 4, samples <= 3), so a key whose default is larger is
# always given, while other floats and matrix entries reach 1e308
SMALL_VALUES = {
    "n": ([2, 10, 60], [1, 0]), "L": ([0.5, 4.0], [0.0, -1.0]), "samples": ([1, 3], [0, -1]),
    "dim": ([2, 3], [1]), "family": (["su"], ["sl_complex"]), "block": ([1, 2], [5]),
    "sigma": (["irreducible"], ["none", "x"]), "points": ([[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.5, 0.0]]], [[[1.0]], []]),
    "s0": ([0.0], [2.0]), "s1": ([1.0, 3.0], [-1.0]),
}
BY_TYPE = {
    (float, "> 0"): ([0.5, 2.0, 1e308], [0.0, -1.0, -1e308]), (float, ">= 0"): ([0.0, 0.5, 1e308], [-1.0, -1e308]),
    (float, None): ([-1e308, -0.5, 0.5, 1e308], [0.0]),
    (int, ">= 0"): ([0, 3], [-1]), (bool, None): ([True, False], []),
    (list, None): ([_HALF_DIAG, _MAX_DIAG], [[[1.0, 0.0]]]),
}
WRONG = {float: ["x", True, None], int: [2.5, "5", True], bool: [1, "yes"], str: [3, True], list: [2.5, True],
         dict: ["x", [1.0]]}
ALWAYS_GIVEN = {"n", "L", "samples", "grid", "init"}


@st.composite
def block(draw, table, mode):
    """A config block drawn from a schema table, and whether it must be
    refused: a key of the wrong type or one the table does not list.  mode
    "valid" keeps every value in range; "range" puts some out of range; "bad"
    gives some keys the wrong type and now and then adds an unknown key."""
    out, bad = {}, False
    for key, spec in table.items():
        if spec.default is not REQUIRED and key not in ALWAYS_GIVEN and draw(st.integers(0, 3)) == 3:
            continue
        typ = spec.typ
        if isinstance(typ, tuple):
            typ = draw(st.sampled_from(typ))
        if mode == "bad" and draw(st.integers(0, 4)) == 4:
            wrong = [2.5, True] if isinstance(spec.typ, tuple) else WRONG[dict if isinstance(typ, dict) else typ]
            out[key], bad = draw(st.sampled_from(wrong)), True
        elif isinstance(typ, Kinds):  # the kind is drawn from its own list, never of the wrong type
            kind = draw(st.sampled_from(sorted(typ)))
            sub, sub_bad = draw(block(typ[kind], mode))
            out[key], bad = {"kind": kind, **sub}, bad | sub_bad
        elif isinstance(typ, dict):
            out[key], sub_bad = draw(block(typ, mode))
            bad |= sub_bad
        else:
            good, off = SMALL_VALUES.get(key) or BY_TYPE[typ, spec.bound]
            out[key] = draw(st.sampled_from(off if off and mode == "range" and draw(st.booleans()) else good))
    if mode == "bad" and draw(st.integers(0, 2)) == 2:
        out["unknown_key"], bad = 1, True
    return out, bad


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_config_keeps_the_exit_code_contract(data):
    command = data.draw(st.sampled_from(sorted(SCHEMAS)))
    mode = data.draw(st.sampled_from(["valid", "valid", "range", "bad"]))
    cfg, bad = data.draw(block(SCHEMAS[command], mode))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), "cfg.json", cfg)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out-dir", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code not in (2, 4):
        assert err.getvalue() == ""
    if bad:
        assert code == 2
