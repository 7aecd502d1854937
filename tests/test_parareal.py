"""``integrate_nahm`` runs one path of n >= ``solver._PARAREAL_MIN`` steps as
Parareal segments (``solver._parareal``): one coarse sweep, then a batched fine
flow of every segment start per correction.  Its path must agree with the
sequential loop's (``solver._nahm_flow`` on the one start) within 1e-13 of the
path's scale, stay as close to the closed forms, and, wherever the engine
declines (an unstable coarse sweep, a member past the bound, corrections off
track), be the sequential loop's bytes, blow-up node and norm."""

import json

import numpy as np
import pytest
from scipy.stats import unitary_group

from nahmlab import solver
from nahmlab.algebra import AlgebraSpec, su2_embed
from nahmlab.cli import main
from nahmlab.paths import Grid
from nahmlab.solver import NahmBlowUpError, coth_solution, integrate_nahm, nil_solution

from helpers import sequential

CONTRACT = 1e-13  # max |parareal - sequential| / scale, 1e3 eps rounded down


def flows(monkeypatch):
    """The batch size of each ``_nahm_flow`` call integrate_nahm makes from here on."""
    flow, calls = solver._nahm_flow, []

    def counted(*args):
        calls.append(len(args[0]))
        return flow(*args)

    monkeypatch.setattr(solver, "_nahm_flow", counted)
    return calls


def haar_nil(k, grid, seed):
    """(T1, T2, T3) of the nil solution conjugated by a seeded Haar unitary, (3, n+1, k, k)."""
    U = unitary_group.rvs(k, random_state=seed)
    return U.conj().T @ nil_solution(AlgebraSpec("su", k), grid).values[1:] @ U


def relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("start", ["nil", "random"])
def test_parareal_agrees_with_the_sequential_loop(k, start, monkeypatch):
    grid = Grid(0.0, 1.0, 2000 if k <= 4 else 1000)
    if start == "nil":
        Y0 = haar_nil(k, grid, 10 + k)[:, 0]
    else:  # a generic start, small enough to stay clear of its poles on [0, 1]
        rng = np.random.default_rng(20 + k)
        Y0 = np.stack([AlgebraSpec("su", k).random_element(rng) for _ in range(3)])
        Y0 *= 0.5 / np.max(np.linalg.norm(Y0, axis=(-2, -1)))
    ref, blowup = sequential(Y0, grid)
    assert blowup is None
    calls = flows(monkeypatch)
    d = integrate_nahm(AlgebraSpec("su", k), tuple(Y0), grid)
    M = -(-grid.n // solver._SEGMENT)
    assert calls in ([M] * 2, [M] * 3)  # the engine gave the path, after one or two corrections
    assert relative_gap(d.values[1:], ref) <= CONTRACT
    assert d.values[1:, 0].tobytes() == ref[:, 0].tobytes()  # node 0 is the projected start
    assert not np.any(d.values[0])


@pytest.mark.parametrize("k, n", [(2, 5000), (4, 5000), (6, 5000)])
def test_one_correction_brings_long_smooth_paths_to_rounding(k, n, monkeypatch):
    # the gain rests on this: the coarse sweep's first correction already leaves
    # jumps of a few eps (each start taken projected, as the batch takes it)
    grid = Grid(0.0, 1.0, n)
    Y0 = haar_nil(k, grid, 60 + k)[:, 0]
    calls = flows(monkeypatch)
    integrate_nahm(AlgebraSpec("su", k), tuple(Y0), grid)
    assert calls == [-(-n // solver._SEGMENT)] * 2


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
def test_parareal_keeps_the_coth_closed_form_gap(a):
    grid = Grid(0.0, 5.0, 5000)
    exact = coth_solution(a, 1.0, grid).values[1:]
    ref, _ = sequential(exact[:, 0], grid)
    got = integrate_nahm(AlgebraSpec("su", 2), tuple(exact[:, 0]), grid).values[1:]
    assert relative_gap(got, exact) <= max(2.0 * relative_gap(ref, exact), 1e-14)


@pytest.mark.parametrize("k, n", [(3, 2000), (4, 2000), (6, 1000)])
def test_parareal_keeps_the_conjugated_nil_closed_form_gap(k, n):
    grid = Grid(0.0, 1.0, n)
    exact = haar_nil(k, grid, 30 + k)
    ref, _ = sequential(exact[:, 0], grid)
    got = integrate_nahm(AlgebraSpec("su", k), tuple(exact[:, 0]), grid).values[1:]
    assert relative_gap(got, exact) <= max(2.0 * relative_gap(ref, exact), 1e-14)


@pytest.mark.parametrize("n", [1009, 1013])
def test_parareal_takes_a_node_count_no_segment_length_divides(n, monkeypatch):
    grid = Grid(0.0, 1.0, n)
    exact = haar_nil(3, grid, 40)
    ref, _ = sequential(exact[:, 0], grid)
    calls = flows(monkeypatch)
    d = integrate_nahm(AlgebraSpec("su", 3), tuple(exact[:, 0]), grid)
    assert calls[0] == -(-n // solver._SEGMENT) and len(calls) in (2, 3)
    assert d.values.shape == (4, n + 1, 3, 3)
    assert relative_gap(d.values[1:], ref) <= CONTRACT


def test_short_paths_keep_the_sequential_bytes(monkeypatch):
    grid = Grid(0.0, 1.0, solver._PARAREAL_MIN - 1)
    Y0 = haar_nil(4, grid, 50)[:, 0]
    ref, _ = sequential(Y0, grid)
    calls = flows(monkeypatch)
    assert integrate_nahm(AlgebraSpec("su", 4), tuple(Y0), grid).values[1:].tobytes() == ref.tobytes()
    assert calls == [1]


@pytest.mark.parametrize("k, n", [(2, 1000), (2, 5000), (3, 2000), (6, 1000)])
def test_blow_up_keeps_its_node_norm_and_bytes(k, n, monkeypatch):
    # the nil solution sigma / (s - 1/2) from s = 0, the CLI's nil offset -0.5
    grid = Grid(0.0, 1.0, n)
    Y0 = -2.0 * np.stack(su2_embed(AlgebraSpec("su", k)))
    ref, blowup = sequential(Y0, grid)
    assert blowup is not None
    flow, calls, trajs = solver._nahm_flow, [], []

    def recorded(*args):
        traj, blowups = flow(*args)
        calls.append(len(args[0]))
        trajs.append(traj)
        return traj, blowups

    monkeypatch.setattr(solver, "_nahm_flow", recorded)
    with pytest.raises(NahmBlowUpError) as info:
        integrate_nahm(AlgebraSpec("su", k), tuple(Y0), grid)
    assert (info.value.s, info.value.norm) == blowup
    # the engine declined and the sequential loop ran on the one start: up to the
    # node past the bound, its path is the sequential one's, bit for bit
    assert calls[-1] == 1
    last = int(round((blowup[0] - grid.s0) / grid.h))
    assert trajs[-1][:, : last + 1, 0].tobytes() == ref[:, : last + 1].tobytes()


@pytest.mark.parametrize("k", [2, 4])
def test_a_member_past_the_bound_declines(k, monkeypatch):
    # sigma / (s - 1/2) on [0, 0.45] crosses the bound at s = 0.44, inside the last
    # segment, whose end no coarse sweep computes: only the batch sees it
    grid, sigma = Grid(0.0, 0.45, 1000), np.stack(su2_embed(AlgebraSpec("su", k)))
    bound = float(np.max(np.linalg.norm(sigma, axis=(-2, -1)))) / 0.06
    ref, blowup = sequential(-2.0 * sigma, grid, bound)
    assert blowup is not None and blowup[0] > grid.s1 - grid.h * solver._SEGMENT
    calls = flows(monkeypatch)
    with pytest.raises(NahmBlowUpError) as info:
        integrate_nahm(AlgebraSpec("su", k), tuple(-2.0 * sigma), grid, blowup_bound=bound)
    assert (info.value.s, info.value.norm) == blowup
    assert calls == [-(-grid.n // solver._SEGMENT), 1]


def test_blow_up_config_at_n_2000_exits_3(tmp_path):
    cfg = {"algebra": {"family": "su", "dim": 2}, "grid": {"s0": 0.0, "s1": 1.0, "n": 2000},
           "init": {"kind": "nil", "offset": -0.5}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["evolve", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out" / "solution.json").exists()


@pytest.mark.parametrize("case", ["coarse_unstable", "corrections_off_track"])
def test_a_declined_path_is_the_sequential_one(case, monkeypatch):
    if case == "coarse_unstable":
        # coth with a = 150: T2 and T3 decay at rate a, within RK4's stability at the fine
        # step (h a = 0.15) but far past it at the coarse one (H a = 7.2)
        grid, want = Grid(0.0, 1.0, 1000), [1]
        Y0 = coth_solution(150.0, 0.01, grid).values[1:, 0]
    else:  # a coarse sweep too rough for two corrections to bring the jumps to rounding
        grid = Grid(0.0, 5.0, 1000)
        Y0, want = coth_solution(3.0, 0.5, grid).values[1:, 0], [-(-grid.n // solver._SEGMENT), 1]
    ref, blowup = sequential(Y0, grid)
    assert blowup is None
    calls = flows(monkeypatch)
    d = integrate_nahm(AlgebraSpec("su", 2), tuple(Y0), grid)
    assert calls == want
    assert d.values[1:].tobytes() == ref.tobytes()
