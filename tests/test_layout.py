"""One path layout: every stack a producer returns is lead-first, lead +
(n+1, k, k), C-contiguous and read-only, so each component view is one
contiguous block of the stack; the Nahm loop steps its batch into that
layout, (3, n+1, B, k, k)."""

import numpy as np
import pytest

from nahmlab import solver
from nahmlab.algebra import AlgebraSpec, su2_embed
from nahmlab.gauge import act, exp_su_path
from nahmlab.io import nahm_from_json, nahm_to_json
from nahmlab.moment import mu_nahm, rho_star
from nahmlab.paths import Grid, random_dirichlet_path
from nahmlab.solver import BoundaryTarget, coth_solution, halfline_solve, integrate_nahm, nil_solution

GRID = Grid(0.0, 0.5, 60)
ENGINE_GRID = Grid(0.0, 0.5, 1000)  # n >= 1000: a single path is the segment engine's


def integrated(k, grid=GRID):
    spec = AlgebraSpec("su", k)
    rng = np.random.default_rng(k)
    return integrate_nahm(spec, tuple(spec.random_element(rng, 0.3) for _ in range(3)), grid)


def halfline(k, factor):
    # the nil target's pole solution sigma / (s + 1) ends at the model, so the
    # exact guess is kept; a scaled guess misses it, and the backward path,
    # reversed and negated, is the solution
    sigma = su2_embed(AlgebraSpec("su", k))
    zero = np.zeros((k, k), complex)
    res = halfline_solve(BoundaryTarget(zero, zero, zero, sigma, L=2.0), tuple(factor * np.asarray(e) for e in sigma))
    assert res.converged and res.iterations == int(factor != 1.0)
    return res.data


def rho_star_of(k):
    d = integrated(k)
    return rho_star(d, random_dirichlet_path(d.algebra, GRID, np.random.default_rng(1)))


def act_of(k):
    d = integrated(k)
    return act(exp_su_path(random_dirichlet_path(d.algebra, GRID, np.random.default_rng(2))), d)


PRODUCERS = {
    "integrate_nahm": (4, integrated),
    "integrate_nahm_segments": (4, lambda k: integrated(k, ENGINE_GRID)),
    "halfline_kept_guess": (4, lambda k: halfline(k, 1.0)),
    "halfline_backward": (4, lambda k: halfline(k, 0.9)),
    "nil_solution": (4, lambda k: nil_solution(AlgebraSpec("su", k), GRID)),
    "coth_solution": (4, lambda k: coth_solution(1.0, 0.5, GRID)),
    "act": (4, act_of),
    "mu_nahm": (3, lambda k: mu_nahm(integrated(k))),
    "rho_star": (4, rho_star_of),
    "nahm_from_json": (4, lambda k: nahm_from_json(nahm_to_json(integrated(k)))),
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_every_stack_is_lead_first_c_ordered_and_read_only(name):
    lead, produce = PRODUCERS[name]
    rec = produce(3)
    k = rec.dim  # coth_solution is su(2) only
    assert rec.values.shape == (lead, rec.grid.n + 1, k, k)
    assert rec.values.flags.c_contiguous
    assert not rec.values.flags.writeable
    for component in rec.components:
        assert component.values.flags.c_contiguous
        assert not component.values.flags.writeable


def test_the_nahm_loop_returns_its_own_c_ordered_path():
    spec = AlgebraSpec("su", 3)
    rng = np.random.default_rng(3)
    starts = np.stack([[spec.random_element(rng, 0.3) for _ in range(3)] for _ in range(2)])
    traj, blowups = solver._nahm_flow(starts, GRID, 1e6)
    assert blowups == [None, None]
    assert traj.shape == (3, GRID.n + 1, 2, 3, 3)
    assert traj.flags.c_contiguous and traj.base is None
