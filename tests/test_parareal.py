"""``solver._nahm_flow`` hands the last live member of its batch, at node 0 or
after a blow-up block, to the Parareal segment engine (``solver._parareal``)
when >= ``solver._PARAREAL_MIN`` steps remain: one coarse sweep, then a batched
fine flow of every segment start per correction.  So ``integrate_nahm`` runs one
long path as segments, and ``halfline_solve`` its backward member once the guess
has blown up.  The path must agree with the sequential loop's (``_nahm_flow``
with the engine's floor past n) within 1e-13 of the path's scale, stay as close
to the closed forms, and, wherever the engine declines (an unstable coarse
sweep, a member past the bound, corrections off track), be the sequential
loop's bytes, blow-up node and norm."""

import json

import numpy as np
import pytest
from scipy.stats import unitary_group

from nahmlab import solver
from nahmlab.algebra import AlgebraSpec, Su2Triple, su2_embed
from nahmlab.cli import main
from nahmlab.paths import Grid
from nahmlab.solver import BoundaryTarget, NahmBlowUpError, coth_solution, halfline_solve, integrate_nahm, nil_solution, orbit_identify

from helpers import sequential

CONTRACT = 1e-13  # max |parareal - sequential| / scale, 1e3 eps rounded down


def flows(monkeypatch):
    """The batch size of each ``_nahm_flow`` call from here on, in the order they
    start: a one-member loop before the engine batches it hands its path to."""
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
    assert calls in ([1] + [M] * 2, [1] + [M] * 3)  # the engine gave the path, after one or two corrections
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
    assert calls == [1] + [-(-n // solver._SEGMENT)] * 2


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
    assert calls[:2] == [1, -(-n // solver._SEGMENT)] and len(calls) in (3, 4)
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
    assert calls == [1, -(-grid.n // solver._SEGMENT)]


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
        Y0, want = coth_solution(3.0, 0.5, grid).values[1:, 0], [1, -(-grid.n // solver._SEGMENT)]
    ref, blowup = sequential(Y0, grid)
    assert blowup is None
    calls = flows(monkeypatch)
    d = integrate_nahm(AlgebraSpec("su", 2), tuple(Y0), grid)
    assert calls == want
    assert d.values[1:].tobytes() == ref.tobytes()


@pytest.mark.parametrize("k", [2, 4])
def test_a_zero_start_is_the_zero_path_from_one_batch(k, monkeypatch):
    # the jump max|F - U[1:]| is taken against the tolerance times max|U|: as a
    # quotient it is 0 / 0 on T = 0, which declined every zero path
    grid = Grid(0.0, 1.0, 2000)
    calls, counts = flows(monkeypatch), tries(monkeypatch)
    d = integrate_nahm(AlgebraSpec("su", k), (np.zeros((k, k)),) * 3, grid)
    assert calls == [1, -(-grid.n // solver._SEGMENT)] and counts == [(grid.n, True)]
    assert not np.any(d.values)


def tries(monkeypatch):
    """(steps, taken) for each path ``_nahm_flow`` hands to ``_parareal`` from here on."""
    engine, counts = solver._parareal, []

    def counted(Y0, grid, bound, out):
        taken = engine(Y0, grid, bound, out)
        counts.append((grid.n, taken))
        return taken

    monkeypatch.setattr(solver, "_parareal", counted)
    return counts


def test_the_last_live_member_is_handed_over_once(monkeypatch):
    # poles at s = 1/4 and 1/2 leave the nil solution the one live member with 4,500
    # steps to go: the block after the second blow-up hands it to the engine, and the
    # blown-up members keep their zero rows from the node after their own on
    grid, sigma = Grid(0.0, 5.0, 5000), np.stack(su2_embed(AlgebraSpec("su", 2)))
    starts = [-4.0 * sigma, -2.0 * sigma, sigma]
    refs = [sequential(Y0, grid) for Y0 in starts]
    counts = tries(monkeypatch)
    traj, blowups = solver._nahm_flow(np.stack(starts), grid, 1e6)
    assert blowups == [blowup for _, blowup in refs]
    last = int(round((blowups[1][0] - grid.s0) / grid.h))
    m0 = ((last - 1) // solver.BLOCK + 1) * solver.BLOCK  # the first node of the next block
    assert counts == [(grid.n - m0, True)]
    for b in (0, 1):
        node = int(round((blowups[b][0] - grid.s0) / grid.h))
        assert not np.any(traj[:, node + 1 :, b])
    ref = refs[2][0]
    assert traj[:, : m0 + 1, 2].tobytes() == ref[:, : m0 + 1].tobytes()  # the loop's up to the handover
    assert relative_gap(traj[:, :, 2], ref) <= CONTRACT


def test_a_declined_start_is_not_handed_over_again(monkeypatch):
    # the coarse-unstable coth start of a = 150 with a bound 1% above its largest
    # norm: every block's summed norms pass the cheap test and are searched, yet no
    # node is past the bound, so no block after node 0 is a blow-up block
    grid = Grid(0.0, 3.0, 3000)
    Y0 = coth_solution(150.0, 0.01, grid).values[1:, 0]
    bound = 1.01 * float(np.max(np.linalg.norm(sequential(Y0, grid)[0], axis=(-2, -1))))
    ref, blowup = sequential(Y0, grid, bound)
    assert blowup is None
    counts = tries(monkeypatch)
    d = integrate_nahm(AlgebraSpec("su", 2), tuple(Y0), grid, blowup_bound=bound)
    assert counts == [(grid.n, False)]
    assert d.values[1:].tobytes() == ref.tobytes()


def nil_halfline(k, seed, eps=0.05):
    """A nil su(k) target (tau = 0, L = 10) in a seeded Haar frame U, the frame,
    and a guess eps off its sigma, which blows up before L."""
    spec, U = AlgebraSpec("su", k), unitary_group.rvs(k, random_state=seed)
    sigma = tuple(U.conj().T @ np.asarray(e) @ U for e in su2_embed(spec))
    rng = np.random.default_rng(seed)
    guess = tuple(e + eps * spec.random_element(rng) for e in sigma)
    zero = np.zeros((k, k), dtype=complex)
    return BoundaryTarget(zero, zero, zero, sigma=sigma, L=10.0), U, guess


def loop_solve(target, guess, monkeypatch, **kw):
    """``halfline_solve`` with the engine's step floor past every n: the B = 2 loop to the end."""
    with monkeypatch.context() as m:
        m.setattr(solver, "_PARAREAL_MIN", np.iinfo(np.intp).max)
        return halfline_solve(target, guess, **kw)


HANDOVER_TOL = {5: 1e-12, 6: 1e-11}  # measured up to 4.6e-13 (k = 5) and 4.9e-12 (k = 6); CONTRACT below


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_halfline_backward_member_finishes_as_segments(k, monkeypatch):
    target, U, guess = nil_halfline(k, 100 * k)
    want = loop_solve(target, guess, monkeypatch)
    calls = flows(monkeypatch)
    got = halfline_solve(target, guess)
    # the B = 2 loop, then the backward member's tail after one or two corrections
    assert calls[0] == 2 and len(calls) in (3, 4) and len(set(calls[1:])) == 1
    assert got.iterations == want.iterations == 1 and got.terminal_deviation == want.terminal_deviation == 0.0
    assert relative_gap(got.data.values, want.data.values) <= HANDOVER_TOL.get(k, CONTRACT)
    exact = U.conj().T @ nil_solution(AlgebraSpec("su", k), got.data.grid).values[1:] @ U
    assert relative_gap(got.data.values[1:], exact) <= 1.25 * relative_gap(want.data.values[1:], exact)  # measured <= 1.14
    a, b = orbit_identify(got.data, target), orbit_identify(want.data, target)
    assert (a.beta0_rank, a.certified) == (b.beta0_rank, b.certified) == (k - 1, True)


@pytest.mark.parametrize("case", ["kept", "both_live"])
def test_halfline_kept_and_both_live_solves_keep_the_loop_bytes(case, monkeypatch):
    # sigma at s = 0 is the exact solution's start, kept; 0.5 sigma flows to
    # sigma / (s + 2), which neither blows up nor ends at the model
    target, _, _ = nil_halfline(3, 7)
    guess = tuple((1.0 if case == "kept" else 0.5) * e for e in target.sigma)
    want = loop_solve(target, guess, monkeypatch)
    calls = flows(monkeypatch)
    got = halfline_solve(target, guess)
    assert calls == [2]
    assert got.iterations == want.iterations == (case == "both_live")
    assert got.data.values.tobytes() == want.data.values.tobytes()


def test_halfline_declined_tail_raises_the_loop_blow_up(monkeypatch):
    # sigma scaled by 3, set past the target's checks, puts the solution's pole at
    # s = L - (L + 1) / 3; the guess -2 sigma blows up at s = 1/2, and the engine,
    # handed the backward member's tail, meets that pole in its coarse sweep and declines
    sigma = su2_embed(AlgebraSpec("su", 2))
    target = BoundaryTarget(*(np.zeros((2, 2), dtype=complex),) * 3, L=10.0)
    object.__setattr__(target, "sigma", Su2Triple(*(3.0 * np.asarray(e) for e in sigma)))
    guess = tuple(-2.0 * np.asarray(e) for e in sigma)
    with pytest.raises(NahmBlowUpError) as want:
        loop_solve(target, guess, monkeypatch)
    calls, counts = flows(monkeypatch), tries(monkeypatch)
    with pytest.raises(NahmBlowUpError) as got:
        halfline_solve(target, guess)
    assert calls == [2] and len(counts) == 1 and not counts[0][1]
    assert (got.value.s, got.value.norm) == (want.value.s, want.value.norm)
