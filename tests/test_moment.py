import numpy as np
import pytest

from nahmlab.algebra import AlgebraSpec, bracket, su2_basis
from nahmlab.gauge import act, exp_su_path
from nahmlab.moment import (
    _omega_baby,
    hamiltonian_check,
    kahler_form_identity_check,
    kahler_potential,
    kks_form,
    mu_baby,
    mu_complex,
    mu_nahm,
    rho_star,
    s1_moment_identity_check,
    theta_star,
)
from nahmlab.paths import (
    AlgebraPath,
    Grid,
    NahmData,
    TangentVector,
    dirichlet_derivative,
    l2_norm,
    omega,
    pairing_nodes,
    path_derivative,
    quadrature,
    random_dirichlet_path,
    random_smooth_path,
    random_tangent,
    s1_action,
    so3_rotate,
    sup_norm,
)
from nahmlab.solver import coth_solution, nil_solution

SU2 = AlgebraSpec("su", 2)
SU3 = AlgebraSpec("su", 3)
E1, E2, E3 = su2_basis()


def const_path(grid, M):
    return AlgebraPath(grid, np.broadcast_to(M, (grid.n + 1,) + M.shape).copy())


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


def test_mu_complex_is_mu2_plus_i_mu3(rng):
    g = Grid(0.0, 1.0, 120)
    d = random_nahm(SU2, g, rng)
    res = mu_nahm(d)
    target = res.mu2.values + 1j * res.mu3.values
    assert sup_norm(mu_complex(d) - target) < 1e-12


def test_mu_complex_constant_beta():
    g = Grid(0.0, 1.0, 100)
    z = np.zeros((2, 2), dtype=complex)
    d = NahmData.from_arrays(SU2, g, *(np.broadcast_to(m, (101, 2, 2)).copy() for m in (z, z, E2, E3)))
    assert sup_norm(mu_complex(d)) < 1e-13


def test_rho_star_matches_action_derivative(rng):
    # oracle: differentiate the gauge action through exp(eps rho) by central
    # differences; this realizes the induced vector field with the free-path
    # difference scheme, which matches the closed formula away from the two
    # boundary rows and fixes t1..t3 everywhere
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
    for got, want in zip((star.t1, star.t2, star.t3), fd[1:]):
        assert sup_norm(got.values - want) < 1e-8
    # the Dirichlet-scheme t0 agrees away from the endpoints
    assert sup_norm(star.t0.values[3:-3] - formula_t0[3:-3]) < 1e-8


def test_hamiltonian_zero_direction(rng):
    g = Grid(0.0, 1.0, 100)
    d = random_nahm(SU2, g, rng)
    rho = random_dirichlet_path(SU2, g, rng)
    z = AlgebraPath(g, np.zeros((101, 2, 2), dtype=complex))
    v = TangentVector(z, z, z, z)
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


def ref_mu_nahm(d):
    """The three moment maps written out one by one."""
    T0, T1, T2, T3 = d.values
    h = d.grid.h
    m1 = path_derivative(T1, h) + bracket(T0, T1) - bracket(T2, T3)
    m2 = path_derivative(T2, h) + bracket(T0, T2) - bracket(T3, T1)
    m3 = path_derivative(T3, h) + bracket(T0, T3) - bracket(T1, T2)
    return np.stack([m1, m2, m3])


def ref_hamiltonian_check(d, rho, v, which, eps=1e-5):
    """hamiltonian_check pairing one map of the full triple with rho."""
    star = rho_star(d, rho)
    lhs = _omega_baby(star, v) if which == "baby" else omega(which, star, v)

    def paired(data):
        mu = mu_baby(data.T0, data.T1).values if which == "baby" else ref_mu_nahm(data)[which - 1]
        return quadrature(pairing_nodes(mu, rho.values), d.grid)

    plus = NahmData.from_arrays(d.algebra, d.grid, *(d.values + eps * v.values))
    minus = NahmData.from_arrays(d.algebra, d.grid, *(d.values - eps * v.values))
    rhs = (paired(plus) - paired(minus)) / (2.0 * eps)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), l2_norm(star) * l2_norm(v))


@pytest.mark.parametrize("spec", [SU2, SU3])
def test_mu_nahm_and_hamiltonian_check_match_the_written_out_maps_bitwise(spec, rng):
    # each map is written once, with cyclic indices; the bits must not move
    g = Grid(0.0, 1.0, 120)
    d = random_nahm(spec, g, rng)
    assert mu_nahm(d).values.tobytes() == ref_mu_nahm(d).tobytes()
    rho = random_dirichlet_path(spec, g, rng)
    v = random_tangent(spec, g, rng)
    for which in ("baby", 1, 2, 3):
        assert hamiltonian_check(d, rho, v, which) == ref_hamiltonian_check(d, rho, v, which)


def test_hamiltonian_integration_by_parts_chain(rng):
    # omega(rho*, v) equals the paired linearized moment map exactly on the
    # discrete level (summation by parts is exact for Dirichlet rho)
    g = Grid(0.0, 1.0, 200)
    d = random_nahm(SU2, g, rng)
    rho = random_dirichlet_path(SU2, g, rng)
    v = random_tangent(SU2, g, rng)
    star = rho_star(d, rho)
    lhs = quadrature(
        pairing_nodes(star.t0.values, v.t1.values) - pairing_nodes(star.t1.values, v.t0.values), g
    )
    dmu = (
        path_derivative(v.t1.values, g.h)
        + bracket(d.T0.values, v.t1.values)
        + bracket(v.t0.values, d.T1.values)
    )
    rhs = quadrature(pairing_nodes(dmu, rho.values), g)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_hamiltonian_rejects_non_dirichlet(rng):
    g = Grid(0.0, 1.0, 100)
    d = random_nahm(SU2, g, rng)
    v = random_tangent(SU2, g, rng)
    with pytest.raises(ValueError):
        hamiltonian_check(d, random_smooth_path(SU2, g, rng), v, "baby")


def test_rho_star_rejects_non_dirichlet(rng):
    g = Grid(0.0, 1.0, 100)
    with pytest.raises(ValueError, match="vanish at both endpoints"):
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
        for a, b in zip((base.mu1, base.mu2, base.mu3), (moved.mu1, moved.mu2, moved.mu3)):
            err = max(err, sup_norm(b.values - hv @ a.values @ np.linalg.inv(hv)))
        errs[n] = err
        assert err <= 300.0 * g.h**2
    assert errs[400] / errs[800] > 3.0


def test_kahler_potential_zero():
    g = Grid(0.0, 1.0, 100)
    z = np.zeros((101, 2, 2), dtype=complex)
    d = NahmData.from_arrays(SU2, g, z, z, z, z)
    assert kahler_potential(d) == 0.0


def test_kahler_potential_nil_value():
    # |T2|^2 + |T3|^2 = 1/(s+1)^2 for the su(2) pole solution; the integral
    # over [0,1] is 1/2, so the potential is 1/4
    d = nil_solution(SU2, Grid(0.0, 1.0, 1000))
    assert kahler_potential(d) == pytest.approx(0.25, abs=1e-6)


def test_kahler_potential_s1_invariance(rng):
    g = Grid(0.0, 1.0, 200)
    d = random_nahm(SU2, g, rng)
    base = kahler_potential(d)
    for th in (0.3, 1.2, np.pi):
        assert kahler_potential(s1_action(th, d)) == pytest.approx(base, rel=1e-12)


def test_kahler_potential_so3_covariance(rng):
    # a cyclic axis permutation exchanges the potential with the analogous
    # quantity built from the other component pair
    g = Grid(0.0, 1.0, 200)
    d = random_nahm(SU2, g, rng)
    A = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # (T1,T2,T3)->(T3,T1,T2)
    rotated = so3_rotate(A, d)
    sibling = 0.5 * quadrature(
        pairing_nodes(d.T1.values, d.T1.values) + pairing_nodes(d.T2.values, d.T2.values), g
    )
    assert kahler_potential(rotated) == pytest.approx(sibling, rel=1e-12)


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
    assert sup_norm(th.t2.values + d.T3.values) == 0.0
    assert sup_norm(th.t3.values - d.T2.values) == 0.0


def test_kks_form_values(rng):
    assert kks_form(E3, E1, E1) == 0.0
    assert kks_form(E3, E1, E2) == pytest.approx(-0.5, abs=1e-14)
    for _ in range(5):
        x, r1, r2 = (SU3.random_element(rng) for _ in range(3))
        assert kks_form(x, r1, r2) == pytest.approx(-kks_form(x, r2, r1), abs=1e-12)
