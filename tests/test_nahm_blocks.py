"""The Nahm loop tests its blow-up bound once per block of ``solver.BLOCK``
nodes.  Every trajectory, blow-up node and blow-up norm must be the one a
test after every single step gives: ``ref_nahm_flow`` below is that loop,
kept as the reference, and each case is compared with it bit for bit.

The cases put the first node past the bound on the first and the last node of
a block, in the final partial block and on node n, blow a batch's members up
in different blocks beside one that never blows up, start from a NaN entry,
and stop the flow once every member has blown up."""

import numpy as np
import pytest

from nahmlab import solver
from nahmlab.algebra import AlgebraSpec, _unit_scaled, project, su2_embed
from nahmlab.paths import Grid, _rk4_scalars, _rk4_step

SU2 = AlgebraSpec("su", 2)
NIL = np.stack(su2_embed(SU2))
B = solver.BLOCK
GRID = Grid(0.0, 0.45, 3 * B + 10)  # three whole blocks and a partial one


def ref_nahm_flow(Y0, grid, blowup_bound):
    """The per-step loop: the cheap test after every step, the exact one on
    the unscaled norms of each member when it fails."""
    bound = min(float(blowup_bound), 1e150)
    cheap_bound = bound * bound * (1.0 - 1e-12) if bound > 1e-150 else 0.0
    scalars, blowups = _rk4_scalars(grid.h), [None] * len(Y0)
    traj = np.empty((grid.n + 1, 3, len(Y0)) + Y0.shape[2:], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        traj[0] = project(Y0.swapaxes(0, 1))
        y = traj[0]
        for m in range(grid.n):
            y = traj[m + 1] = _rk4_step(solver._nahm_rhs, y, scalars, None, None, None)
            if not np.vdot(y, y).real <= cheap_bound:
                norms = np.linalg.norm(y, axis=(-2, -1))
                for b in np.flatnonzero(~np.all(norms <= blowup_bound, axis=0)):
                    scaled, _, unit = _unit_scaled(y[:, b])
                    norm = float(np.max(np.linalg.norm(scaled, axis=(-2, -1)))) / unit if np.isfinite(unit) else np.inf
                    blowups[b], y[:, b] = (grid.s0 + (m + 1) * grid.h, norm), 0.0
                if None not in blowups:
                    break
    return traj.swapaxes(0, 1), blowups


def counted_flow(monkeypatch, Y0, grid, bound):
    """``solver._nahm_flow`` and the number of RK4 steps it took."""
    steps = []

    def step(*args):
        steps.append(None)
        return _rk4_step(*args)

    monkeypatch.setattr(solver, "_rk4_step", step)
    traj, blowups = solver._nahm_flow(Y0, grid, bound)
    return traj, blowups, len(steps)


def node_of(blowup, grid):
    return int(round((blowup[0] - grid.s0) / grid.h))


def block_end(node, grid):
    return min(-(-node // B) * B, grid.n)


def pole_start(c):
    """-c e_i: the pole solution -c e_i / (1 - c s), its norm rising to s = 1/c."""
    return -c * NIL


def bound_before(node):
    """A bound between the largest norms of the pole start at node - 1 and at
    node, so that ``node`` is the first node past it."""
    traj, _ = ref_nahm_flow(pole_start(2.0)[None], GRID, np.inf)
    norms = np.max(np.linalg.norm(traj[:, :, 0], axis=(-2, -1)), axis=0)
    assert np.all(np.diff(norms) > 0)
    return 0.5 * (norms[node - 1] + norms[node])


@pytest.mark.parametrize("node", [1, B, B + 1, 2 * B, 3 * B + 5, 3 * B + 10],
                         ids=["first_node", "end_of_first_block", "first_of_a_block", "last_of_a_block",
                              "partial_block", "node_n"])
def test_blowup_node_matches_the_per_step_loop(monkeypatch, node):
    bound = bound_before(node)
    Y0 = pole_start(2.0)[None]
    traj, blowups, steps = counted_flow(monkeypatch, Y0, GRID, bound)
    ref, ref_blowups = ref_nahm_flow(Y0, GRID, bound)
    assert node_of(blowups[0], GRID) == node
    assert blowups == ref_blowups
    assert traj[:, : node + 1].tobytes() == ref[:, : node + 1].tobytes()
    # the member is zero from the next node on, to the end of its block,
    # where the flow stops
    end = block_end(node, GRID)
    assert steps == end
    assert not np.any(traj[:, node + 1 : end + 1])


def test_batch_members_blow_up_in_different_blocks():
    # poles at s = 1/5 and 1/3 pass the bound in the second and the third
    # block; the pole at 1/2 and a small random start never do
    rng = np.random.default_rng(7)
    small = np.stack([SU2.random_element(rng, 0.3) for _ in range(3)])
    Y0, bound = np.stack([pole_start(5.0), pole_start(3.0), pole_start(2.0), small]), 50.0
    traj, blowups = solver._nahm_flow(Y0, GRID, bound)
    ref, ref_blowups = ref_nahm_flow(Y0, GRID, bound)
    assert blowups == ref_blowups
    assert [node_of(b, GRID) // B for b in blowups[:2]] == [1, 2]
    assert blowups[2:] == [None, None]
    assert traj.tobytes() == ref.tobytes()
    assert not np.any(traj[:, node_of(blowups[0], GRID) + 1 :, 0])


def test_nan_start_blows_up_on_the_first_node():
    Y0 = NIL.copy()
    Y0[1, 0, 1] = np.nan
    traj, blowups = solver._nahm_flow(Y0[None], GRID, 1e6)
    ref, ref_blowups = ref_nahm_flow(Y0[None], GRID, 1e6)
    assert blowups == ref_blowups == [(GRID.h, np.inf)]
    assert traj[:, :2].tobytes() == ref[:, :2].tobytes()


def test_flow_stops_at_the_end_of_the_block_where_the_last_member_blew_up(monkeypatch):
    Y0, bound = np.stack([pole_start(5.0), pole_start(3.0)]), 50.0
    traj, blowups, steps = counted_flow(monkeypatch, Y0, GRID, bound)
    ref, ref_blowups = ref_nahm_flow(Y0, GRID, bound)
    last = max(node_of(b, GRID) for b in blowups)
    assert blowups == ref_blowups
    assert steps == block_end(last, GRID) < GRID.n
    assert traj[:, : last + 1].tobytes() == ref[:, : last + 1].tobytes()
    for b, blowup in enumerate(blowups):
        assert not np.any(traj[:, node_of(blowup, GRID) + 1 : steps + 1, b])


def test_a_block_past_the_cheap_test_with_no_node_past_the_bound():
    # a state whose summed squared norms fail the block test on every block
    # while no single norm passes the bound: nothing may be reported
    Y0 = np.stack([pole_start(2.0), pole_start(2.0)])
    traj, blowups = solver._nahm_flow(Y0, GRID, 36.0)
    ref, ref_blowups = ref_nahm_flow(Y0, GRID, 36.0)
    assert blowups == ref_blowups == [None, None]
    assert traj.tobytes() == ref.tobytes()
