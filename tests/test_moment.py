import tracemalloc

import numpy as np
import pytest

from nahmlab.algebra import AlgebraSpec, InputError, _su_bracket, bracket, pairing_nodes, su2_basis
from nahmlab.gauge import act, exp_su_path
from nahmlab.moment import (
    _EPS,
    _hamiltonian_gaps,
    _omega_baby,
    hamiltonian_check,
    kahler_form_identity_check,
    mu_baby,
    mu_nahm,
    rho_star,
    s1_moment_identity_check,
    theta_star,
)
from nahmlab.paths import (
    _BLOCK_BYTES,
    AlgebraPath,
    Grid,
    NahmData,
    _random_chunk,
    complex_structure,
    l2_metric,
    l2_norm,
    omega,
    path_derivative,
    quadrature,
    random_dirichlet_path,
    random_smooth_path,
    random_tangent,
    sup_norm,
)
from nahmlab.solver import coth_solution, nil_solution

from helpers import const_path

SU2 = AlgebraSpec("su", 2)
SU3 = AlgebraSpec("su", 3)
E1, E2, E3 = su2_basis()


def random_nahm(spec, grid, rng, scale=1.0):
    return NahmData(spec, *(random_smooth_path(spec, grid, rng, scale=scale) for _ in range(4)))


def test_mu_baby_commuting_constants(rng):
    g = Grid(0.0, 1.0, 100)
    X = SU2.random_element(rng)
    out = mu_baby(const_path(g, X), const_path(g, 1.7 * X))
    assert sup_norm(out.values) < 1e-12


def test_mu_baby_bracket_value():
    g = Grid(0.0, 1.0, 100)
    out = mu_baby(const_path(g, E3), const_path(g, E1))
    expected = np.array([[0.0, -0.5], [0.5, 0.0]], dtype=complex)  # -e2
    assert np.abs(out.values - expected).max() < 1e-13


def test_mu_baby_level_set_solution_rate():
    errs = {}
    for n in (500, 1000):
        g = Grid(0.0, 1.0, n)
        T1 = AlgebraPath(g, np.cos(g.nodes)[:, None, None] * E1 + np.sin(g.nodes)[:, None, None] * E2)
        errs[n] = sup_norm(mu_baby(const_path(g, E3), T1).values)
        assert errs[n] <= 2.0 * g.h**2
    assert errs[500] / errs[1000] > 3.0


def test_mu_nahm_commuting_constants(rng):
    g = Grid(0.0, 1.0, 100)
    X = SU2.random_element(rng)
    d = NahmData(SU2, *(const_path(g, c * X) for c in (0.3, 1.0, -0.4, 2.0)))
    assert mu_nahm(d).sup < 1e-12


def test_mu_nahm_nil_solution_rate():
    errs = {}
    for n in (1000, 2000, 4000):
        d = nil_solution(SU2, Grid(0.0, 1.0, n))
        errs[n] = mu_nahm(d).sup
        assert errs[n] <= 2.0 * d.grid.h**2
    assert 10.0 < errs[1000] / errs[4000] < 24.0  # two doublings of n: ~16x


def test_mu_nahm_coth_solution_rate():
    errs = {}
    for n in (1000, 4000):
        d = coth_solution(1.0, 1.0, Grid(0.0, 1.0, n))
        errs[n] = mu_nahm(d).sup
        assert errs[n] <= 3.0 * d.grid.h**2
    assert 10.0 < errs[1000] / errs[4000] < 24.0


def test_rho_star_matches_action_derivative(rng):
    # oracle: differentiate the gauge action through exp(eps rho) by central
    # differences; this realizes the induced vector field with the free-path
    # difference scheme, which matches the closed formula away from the two
    # boundary rows and fixes T1..T3 everywhere
    g = Grid(0.0, 1.0, 300)
    d = random_nahm(SU2, g, rng, scale=0.7)
    rho = random_dirichlet_path(SU2, g, rng)
    eps = 1e-5
    plus = act(exp_su_path(AlgebraPath(g, eps * rho.values)), d)
    minus = act(exp_su_path(AlgebraPath(g, -eps * rho.values)), d)
    fd = [(a.values - b.values) / (2.0 * eps) for a, b in zip(plus.components, minus.components)]
    formula_t0 = bracket(rho.values, d.T0.values) - path_derivative(rho.values, g.h)
    assert sup_norm(fd[0] - formula_t0) < 1e-8
    star = rho_star(d, rho)
    for got, want in zip((star.T1, star.T2, star.T3), fd[1:]):
        assert sup_norm(got.values - want) < 1e-8
    # the Dirichlet-scheme t0 agrees away from the endpoints
    assert sup_norm(star.T0.values[3:-3] - formula_t0[3:-3]) < 1e-8


def test_hamiltonian_zero_direction(rng):
    g = Grid(0.0, 1.0, 100)
    d = random_nahm(SU2, g, rng)
    rho = random_dirichlet_path(SU2, g, rng)
    z = AlgebraPath(g, np.zeros((101, 2, 2), dtype=complex))
    v = NahmData(SU2, z, z, z, z)
    assert hamiltonian_check(d, rho, v, "baby") == 0.0


@pytest.mark.parametrize("spec", [SU2, SU3])
def test_hamiltonian_identity_random(spec, rng):
    g = Grid(0.0, 1.0, 500)
    for _ in range(3):
        d = random_nahm(spec, g, rng)
        rho = random_dirichlet_path(spec, g, rng)
        v = random_tangent(spec, g, rng)
        for which in ("baby", 1, 2, 3):
            assert hamiltonian_check(d, rho, v, which) <= 1e-5


def ref_mu_nahm(d, br=bracket):
    """The three moment maps written out one by one on the whole arrays, each
    bracket ``br``: the commutator XY - YX by default, the independent oracle."""
    T0, T1, T2, T3 = d.values
    h = d.grid.h
    m1 = path_derivative(T1, h) + br(T0, T1) - br(T2, T3)
    m2 = path_derivative(T2, h) + br(T0, T2) - br(T3, T1)
    m3 = path_derivative(T3, h) + br(T0, T3) - br(T1, T2)
    return np.stack([m1, m2, m3])


EPS = np.finfo(float).eps


def assert_near_the_commutator_maps(got, d):
    """``got`` within 16 k eps s of ``ref_mu_nahm(d)``, node by node, where
    s = |T_i'| + |T0| |T_i| + |T_j| |T_k| (Frobenius norms).  Higham's model
    (2002, sec. 3.5) puts each real product of inner dimension 2k within
    gamma_2k |X| |Y| of the exact one, so P - P^dag and XY - YX each lie within
    about 4 k eps |X| |Y| of the exact bracket.  NaNs must sit at the same entries."""
    want, T = ref_mu_nahm(d), d.values
    norm = np.linalg.norm(T, axis=(-2, -1))
    k = d.dim
    assert np.array_equal(np.isnan(got), np.isnan(want))
    for i in (1, 2, 3):
        j, l = i % 3 + 1, (i + 1) % 3 + 1
        s = np.linalg.norm(path_derivative(T[i], d.grid.h), axis=(-2, -1)) + norm[0] * norm[i] + norm[j] * norm[l]
        gap = np.nan_to_num(np.abs(got[i - 1] - want[i - 1])).max(axis=(-2, -1))
        assert np.all((gap <= 16 * k * EPS * s) | np.isnan(s))  # a NaN node: only its NaNs are compared


def ref_hamiltonian_check(d, rho, v, which, eps=1e-5, br=bracket):
    """hamiltonian_check pairing one map of the full triple, brackets ``br``, with rho."""
    star = rho_star(d, rho)
    lhs = _omega_baby(star, v) if which == "baby" else omega(which, star, v)

    def paired(data):
        mu = mu_baby(data.T0, data.T1).values if which == "baby" else ref_mu_nahm(data, br)[which - 1]
        return quadrature(pairing_nodes(mu, rho.values), d.grid)

    plus = NahmData.from_arrays(d.algebra, d.grid, *(d.values + eps * v.values))
    minus = NahmData.from_arrays(d.algebra, d.grid, *(d.values - eps * v.values))
    rhs = (paired(plus) - paired(minus)) / (2.0 * eps)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), l2_norm(star) * l2_norm(v))


@pytest.mark.parametrize("spec", [SU2, SU3])
def test_mu_nahm_and_hamiltonian_check_match_the_written_out_maps_bitwise(spec, rng):
    # each map is written once, with cyclic indices: the bits of the maps written
    # out on whole arrays with the same brackets, and near the commutator's maps
    g = Grid(0.0, 1.0, 120)
    d = random_nahm(spec, g, rng)
    got = mu_nahm(d).values
    assert got.tobytes() == ref_mu_nahm(d, _su_bracket).tobytes()
    assert_near_the_commutator_maps(got, d)
    rho = random_dirichlet_path(spec, g, rng)
    v = random_tangent(spec, g, rng)
    for which in ("baby", 1, 2, 3):
        gap = hamiltonian_check(d, rho, v, which)
        assert gap == ref_hamiltonian_check(d, rho, v, which, br=_su_bracket)
        # a gap is relative: the maps' rounding, within 1e3 eps of their scale,
        # is divided by the central difference's 2 _EPS
        assert abs(gap - ref_hamiltonian_check(d, rho, v, which)) <= 1e3 * EPS / (2.0 * _EPS)


def two_perturbed_gaps(d, rho, v, which, eps=1e-5):
    """The Hamiltonian gaps with d + eps v and d - eps v made as two separate
    perturbations, each d + (+-eps) v, and I_i rho* formed before pairing."""
    def perturbed(e):
        return NahmData._own(d.grid, d.values + e * v.values)

    def paired(data):
        mu = mu_baby(data.T0, data.T1).values if which == "baby" else mu_nahm(data).values[which - 1]
        return quadrature(pairing_nodes(mu, rho.values), d.grid)

    star = rho_star(d, rho)
    lhs = _omega_baby(star, v) if which == "baby" else l2_metric(complex_structure(which, star), v)
    rhs = (paired(perturbed(eps)) - paired(perturbed(-eps))) / (2.0 * eps)
    norms = l2_norm(star) * l2_norm(v)
    return [0.0 if (scale := max(abs(a), abs(b), n)) == 0.0 else float(abs(a - b) / scale)
            for a, b, n in zip(*np.atleast_1d(lhs, rhs, norms))]


@pytest.mark.parametrize("spec", [SU2, SU3])
def test_hamiltonian_check_matches_two_perturbations_bitwise(spec, rng):
    # d + eps v and d - eps v share one eps v: the gaps keep their bytes, for
    # one sample and for every member of a chunk record
    g = Grid(0.0, 1.0, 120)
    d = random_nahm(spec, g, rng)
    rho = random_dirichlet_path(spec, g, rng)
    v = random_tangent(spec, g, rng)
    for which in ("baby", 1, 2, 3):
        got = hamiltonian_check(d, rho, v, which)
        assert np.float64(got).tobytes() == np.float64(two_perturbed_gaps(d, rho, v, which)[0]).tobytes()
    drawn = _random_chunk(spec, g, rng, 10, ["path"] * 4 + ["dirichlet", "tangent"])
    d, rho, v = NahmData._own(g, np.stack(drawn[:4])), AlgebraPath._own(g, drawn[4]), NahmData._own(g, drawn[5])
    gaps = _hamiltonian_gaps(d, rho, v, ["baby", 1, 2, 3])
    assert np.array(gaps).tobytes() == np.array([two_perturbed_gaps(d, rho, v, w) for w in ("baby", 1, 2, 3)]).tobytes()


def test_hamiltonian_integration_by_parts_chain(rng):
    # omega(rho*, v) equals the paired linearized moment map exactly on the
    # discrete level (summation by parts is exact for Dirichlet rho)
    g = Grid(0.0, 1.0, 200)
    d = random_nahm(SU2, g, rng)
    rho = random_dirichlet_path(SU2, g, rng)
    v = random_tangent(SU2, g, rng)
    star = rho_star(d, rho)
    lhs = quadrature(
        pairing_nodes(star.T0.values, v.T1.values) - pairing_nodes(star.T1.values, v.T0.values), g
    )
    dmu = (
        path_derivative(v.T1.values, g.h)
        + bracket(d.T0.values, v.T1.values)
        + bracket(v.T0.values, d.T1.values)
    )
    rhs = quadrature(pairing_nodes(dmu, rho.values), g)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_hamiltonian_rejects_non_dirichlet(rng):
    g = Grid(0.0, 1.0, 100)
    d = random_nahm(SU2, g, rng)
    v = random_tangent(SU2, g, rng)
    with pytest.raises(ValueError):
        hamiltonian_check(d, random_smooth_path(SU2, g, rng), v, "baby")


@pytest.mark.parametrize("which", [0, 4, "I1", True, 1.0])  # a bool or a float equal to 1 is no index
def test_hamiltonian_rejects_an_unknown_map(rng, which):
    g = Grid(0.0, 1.0, 20)
    d, rho, v = random_nahm(SU2, g, rng), random_dirichlet_path(SU2, g, rng), random_tangent(SU2, g, rng)
    with pytest.raises(InputError, match="which must be"):
        hamiltonian_check(d, rho, v, which)


def test_rho_star_rejects_non_dirichlet(rng):
    g = Grid(0.0, 1.0, 100)
    with pytest.raises(InputError, match="vanish at both endpoints"):
        rho_star(random_nahm(SU2, g, rng), random_smooth_path(SU2, g, rng))


def test_moment_equivariance_rate(rng):
    errs = {}
    for n in (400, 800):
        g = Grid(0.0, 1.0, n)
        d = random_nahm(SU2, g, np.random.default_rng(3), scale=0.7)
        h = exp_su_path(random_dirichlet_path(SU2, g, np.random.default_rng(4), scale=0.6))
        base = mu_nahm(d)
        moved = mu_nahm(act(h, d))
        hv = h.values
        err = 0.0
        for i in range(3):
            err = max(err, sup_norm(moved.values[i] - hv @ base.values[i] @ np.linalg.inv(hv)))
        errs[n] = err
        assert err <= 300.0 * g.h**2
    assert errs[400] / errs[800] > 3.0


def test_kahler_form_identity(rng):
    dev = kahler_form_identity_check(SU2, Grid(0.0, 1.0, 200), n_samples=20, rng=rng)
    assert dev <= 1e-12


def test_kahler_form_identity_nan_is_no_pass(rng, monkeypatch):
    monkeypatch.setattr("nahmlab.moment.omega", lambda *args: np.nan)
    assert np.isnan(kahler_form_identity_check(SU2, Grid(0.0, 1.0, 20), n_samples=3, rng=rng))


def test_kahler_form_identity_diagonal(rng):
    # antisymmetry: both sides vanish on equal arguments
    g = Grid(0.0, 1.0, 100)
    u = random_tangent(SU2, g, rng)
    assert abs(omega(2, u, u)) < 1e-12


def test_s1_moment_identity(rng):
    g = Grid(0.0, 1.0, 200)
    d = random_nahm(SU2, g, rng)
    v = random_tangent(SU2, g, rng)
    assert s1_moment_identity_check(d, v) <= 1e-12
    # theta* components
    th = theta_star(d)
    assert sup_norm(th.T2.values + d.T3.values) == 0.0
    assert sup_norm(th.T3.values - d.T2.values) == 0.0


def random_nodes(spec, nodes, rng):
    return random_nahm(spec, Grid(0.0, 1.0, nodes - 1), rng)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_mu_nahm_node_blocks_keep_every_byte(k, rng):
    # the brackets are taken node block by node block into the output's rows:
    # each node's arithmetic is its own, at a block edge and past a partial last block
    spec, b = AlgebraSpec("su", k), _BLOCK_BYTES // (16 * k * k)
    for nodes in (b - 1, b, b + 1, 3 * b + 5):
        d = random_nodes(spec, nodes, rng)
        got = mu_nahm(d).values
        assert got.shape == (3, nodes, k, k)
        assert got.tobytes() == ref_mu_nahm(d, _su_bracket).tobytes()
        assert_near_the_commutator_maps(got, d)


def test_mu_nahm_nan_in_the_second_block_stays_a_nan(rng):
    b = _BLOCK_BYTES // (16 * 9)
    d = random_nodes(SU3, 3 * b + 5, rng)
    values, m = d.values.copy(), b + 7
    values[2, m, 0, 0] = np.nan
    dirty = NahmData._own(d.grid, values)
    got = mu_nahm(dirty).values
    assert np.isnan(got[:, m]).any()
    assert got.tobytes() == ref_mu_nahm(dirty, _su_bracket).tobytes()
    assert_near_the_commutator_maps(got, dirty)


def test_mu_nahm_holds_no_path_sized_real_form(rng):
    # at su(6), n = 10^4 the output is 16.5 MiB and one component 5.5 MiB; whole-array
    # brackets and the stacked rows peaked at 38.5 MiB, while the blocks hold the
    # output and one block's temporaries.  The working set does not depend on the
    # values, so a short random path repeated along the grid serves.
    short = random_nodes(AlgebraSpec("su", 6), 101, rng).values
    d = NahmData._own(Grid(0.0, 1.0, 10000), short[:, np.arange(10001) % 101])
    component = d.values[0].nbytes
    tracemalloc.start()
    try:
        mu_nahm(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * component + component + (2 << 20)
