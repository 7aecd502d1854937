from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from nahmlab.algebra import AlgebraSpec, InputError, Su2Triple, bracket, su2_basis, su2_embed
from nahmlab.moment import mu_nahm
from nahmlab.gauge import complex_trivialize_direct, trivialize
from nahmlab.paths import AlgebraPath, Grid, NahmData, random_smooth_path, sup_norm
from nahmlab.solver import (
    BoundaryTarget,
    NahmBlowUpError,
    asymptotic_model,
    char_poly,
    coth_solution,
    halfline_solve,
    integrate_baby,
    integrate_nahm,
    lax_extract,
    nil_solution,
    orbit_identify,
)

SU2 = AlgebraSpec("su", 2)
E1, E2, E3 = su2_basis()
Z2 = np.zeros((2, 2), dtype=complex)


def const_path(grid, M):
    return AlgebraPath(grid, np.broadcast_to(M, (grid.n + 1,) + M.shape).copy())


def test_integrate_baby_zero_connection(rng):
    g = Grid(0.0, 1.0, 200)
    X = SU2.random_element(rng)
    _, T1 = integrate_baby(X, const_path(g, Z2))
    assert sup_norm(T1.values - X) < 1e-13


def test_integrate_baby_rotation_closed_form():
    g = Grid(0.0, 1.0, 500)
    _, T1 = integrate_baby(E1, const_path(g, E3))
    s = g.nodes
    exact = np.cos(s)[:, None, None] * E1 + np.sin(s)[:, None, None] * E2
    assert sup_norm(T1.values - exact) < 1e-10


def eig_distance(A, B):
    """Max distance between eigenvalue multisets under optimal matching."""
    from scipy.optimize import linear_sum_assignment

    ea = np.linalg.eigvals(A)
    eb = np.linalg.eigvals(B)
    cost = np.abs(ea[:, None] - eb[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_integrate_baby_isospectral(rng):
    from nahmlab.paths import random_smooth_path

    g = Grid(0.0, 1.0, 1000)
    T0 = random_smooth_path(SU2, g, rng, scale=0.8)
    X = SU2.random_element(rng)
    _, T1 = integrate_baby(X, T0)
    scale = max(1.0, np.abs(np.linalg.eigvals(X)).max())
    drift = max(eig_distance(T1.values[idx], T1.values[0]) for idx in (250, 500, 750, 1000))
    assert drift <= 1e-8 * scale


@pytest.mark.parametrize(
    "start",
    [
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),  # Hermitian, not skew
        1j * np.eye(2),  # skew but not traceless
        np.zeros((3, 3), dtype=complex),  # in su(3), not su(2)
    ],
)
def test_integrate_baby_rejects_a_start_outside_su_k(start):
    g = Grid(0.0, 1.0, 20)
    with pytest.raises(InputError, match="not an element of su"):
        integrate_baby(start, const_path(g, Z2))


def test_integrate_nahm_commuting_constants(rng):
    g = Grid(0.0, 1.0, 200)
    X = SU2.random_element(rng)
    d = integrate_nahm(SU2, (0.4 * X, -0.3 * X, X), g)
    for c, coeff in zip((d.T1, d.T2, d.T3), (0.4, -0.3, 1.0)):
        assert sup_norm(c.values - coeff * X) < 1e-12


def test_integrate_nahm_reproduces_nil():
    g = Grid(0.0, 1.0, 1000)
    nil = nil_solution(SU2, g)
    d = integrate_nahm(SU2, tuple(c.values[0] for c in (nil.T1, nil.T2, nil.T3)), g)
    err = max(sup_norm(a.values - b.values) for a, b in zip(d.components, nil.components))
    assert err <= 1e-8


def test_integrate_nahm_reproduces_coth():
    g = Grid(0.0, 1.0, 1000)
    coth = coth_solution(1.0, 1.0, g)
    d = integrate_nahm(SU2, tuple(c.values[0] for c in (coth.T1, coth.T2, coth.T3)), g)
    err = max(sup_norm(a.values - b.values) for a, b in zip(d.components, coth.components))
    assert err <= 1e-8


def test_integrate_nahm_fourth_order():
    errs = {}
    for n in (250, 500):
        g = Grid(0.0, 1.0, n)
        coth = coth_solution(1.0, 1.0, g)
        d = integrate_nahm(SU2, tuple(c.values[0] for c in (coth.T1, coth.T2, coth.T3)), g)
        errs[n] = max(sup_norm(a.values - b.values) for a, b in zip(d.components, coth.components))
    assert errs[250] / errs[500] > 8.0


def test_integrate_nahm_constant_gauge_covariance(rng):
    # integrating conjugated data equals conjugating the integrated solution
    # (exact for constant gauges: RK4 and the projection commute with them)
    from nahmlab.algebra import expm

    g = Grid(0.0, 1.0, 300)
    init = tuple(SU2.random_element(rng, 0.3) for _ in range(3))
    U = expm(SU2.random_element(rng))
    d = integrate_nahm(SU2, init, g)
    dU = integrate_nahm(SU2, tuple(U @ M @ U.conj().T for M in init), g)
    for a, b in zip((d.T1, d.T2, d.T3), (dU.T1, dU.T2, dU.T3)):
        assert sup_norm(b.values - U @ a.values @ U.conj().T) < 1e-12


def test_integrate_nahm_preserves_skewness(rng):
    g = Grid(0.0, 1.0, 500)
    d = integrate_nahm(SU2, tuple(SU2.random_element(rng, 0.4) for _ in range(3)), g)
    for c in (d.T1, d.T2, d.T3):
        assert SU2.member_defect(c.values) <= 1e-10


def test_integrate_nahm_blowup():
    g = Grid(0.0, 1.0, 1000)
    with pytest.raises(NahmBlowUpError) as info:
        integrate_nahm(SU2, (-2.0 * E1, -2.0 * E2, -2.0 * E3), g)
    # the scaled pole family blows up at s = 1/2
    assert abs(info.value.s - 0.5) < 0.05


def test_integrate_nahm_blowup_reports_nonfinite_norm():
    # the first step overflows: the reported norm must be inf, not the max of
    # an empty set of finite norms
    g = Grid(0.0, 1e308, 100)
    with pytest.raises(NahmBlowUpError) as info:
        integrate_nahm(SU2, (E1, E2, E3), g, blowup_bound=1e6)
    assert info.value.norm > 1e6
    assert "norm inf" in str(info.value)


POLE = (-2.0 * E1, -2.0 * E2, -2.0 * E3)  # -2 e_i / (1 - 2 s), a pole at s = 1/2

# (init, grid, bound, s, norm): the first node past the bound and its norm as
# the exact per-node norm test reports them; the cheap sufficient test in
# front of it must not change either
BLOWUPS = {
    "first_step": (POLE, Grid(0.0, 0.4, 100), 1.415, 0.004, 1.4256185104547554),
    "mid_flow": (POLE, Grid(0.0, 1.0, 1000), 1e6, 0.501, 71421404565696.95),
    "last_step": (POLE, Grid(0.0, 0.4, 100), 7.0, 0.4, 7.071067563081193),
    # the squared norms overflow although the norms are below the bound
    "overflow_above_1e150": (POLE, Grid(0.0, 1.0, 1000), 1e200, 0.502, np.inf),
    # no bound: only a non-finite state stops the flow
    "nonfinite_unbounded": (POLE, Grid(0.0, 1.0, 1000), np.inf, 0.503, np.inf),
    # a constant state, one component past the bound: the sum of all three
    # squared norms (2) is below three times the squared bound (4.32)
    "one_component": ((2.0 * E1, Z2, Z2), Grid(0.0, 1.0, 10), 1.2, 0.1, 1.4142135623730951),
}


@pytest.mark.parametrize("case", sorted(BLOWUPS))
def test_integrate_nahm_blowup_node_and_norm(case):
    init, g, bound, s, norm = BLOWUPS[case]
    with pytest.raises(NahmBlowUpError) as info:
        integrate_nahm(SU2, init, g, blowup_bound=bound)
    assert info.value.s == s
    assert info.value.norm == norm
    assert f"s = {s:.6g} (norm {norm:.3e})" in str(info.value)


def test_integrate_nahm_near_bound_without_blowup():
    # the norms end within 1% of the bound, so the exact test runs on every
    # step past norm 7.1 / sqrt(3); it must pass them all and change nothing
    g = Grid(0.0, 0.4, 100)
    d = integrate_nahm(SU2, POLE, g, blowup_bound=7.1)
    assert np.linalg.norm(d.T1.values[-1]) == 7.071067563081193
    free = integrate_nahm(SU2, POLE, g, blowup_bound=np.inf)
    assert d.stack().tobytes() == free.stack().tobytes()


def test_integrate_nahm_rejects_non_algebra():
    g = Grid(0.0, 1.0, 100)
    with pytest.raises(ValueError):
        integrate_nahm(SU2, (np.eye(2), Z2, Z2), g)


def test_coth_solution_scalar_identities():
    # analytic-derivative oracle for the profile functions:
    # f1' = -f2 f3, f2' = -f3 f1, f3' = -f1 f2
    a, off = 1.3, 0.7
    g = Grid(0.0, 2.0, 2000)
    xi = a * (g.nodes + off)
    f1 = -a / np.tanh(xi)
    f2 = a / np.sinh(xi)
    f3 = -a / np.sinh(xi)
    d1 = a * a / np.sinh(xi) ** 2
    d2 = -a * a * np.cosh(xi) / np.sinh(xi) ** 2
    d3 = a * a * np.cosh(xi) / np.sinh(xi) ** 2
    scale = np.abs(f1).max() ** 2
    assert np.abs(d1 + f2 * f3).max() <= 1e-10 * scale
    assert np.abs(d2 + f3 * f1).max() <= 1e-10 * scale
    assert np.abs(d3 + f1 * f2).max() <= 1e-10 * scale


def test_coth_solution_residual_rate():
    errs = {}
    for n in (1000, 2000):
        errs[n] = mu_nahm(coth_solution(1.0, 1.0, Grid(0.0, 1.0, n))).sup
        assert errs[n] <= 3.0 * (1.0 / n) ** 2
    assert errs[1000] / errs[2000] > 3.0


def test_coth_solution_asymptotic_rates():
    # log-linear fit oracle for the decay rates: T1 + a e1 decays like 2a,
    # T2 like a
    a = 1.0
    g = Grid(0.0, 8.0, 800)
    d = coth_solution(a, 1.0, g)
    s = g.nodes
    mask = (s > 2.0) & (s < 6.0)
    r1 = np.linalg.norm(d.T1.values + a * E1, axis=(-2, -1))[mask]
    r2 = np.linalg.norm(d.T2.values, axis=(-2, -1))[mask]
    slope1 = np.polyfit(s[mask], np.log(r1), 1)[0]
    slope2 = np.polyfit(s[mask], np.log(r2), 1)[0]
    assert abs(slope1 + 2.0 * a) < 0.05
    assert abs(slope2 + a) < 0.05


def test_coth_solution_small_a_limit():
    g = Grid(0.0, 1.0, 200)
    d = coth_solution(1e-4, 1.0, g)
    nil = nil_solution(SU2, g)
    # profiles agree with 1/(s+1) up to basis signs
    for c, n in zip((d.T1, d.T2, d.T3), nil.components[1:]):
        got = np.linalg.norm(c.values, axis=(-2, -1))
        want = np.linalg.norm(n.values, axis=(-2, -1))
        assert np.abs(got - want).max() < 1e-6


def test_coth_solution_validation():
    with pytest.raises(ValueError):
        coth_solution(-1.0, 1.0, Grid(0.0, 1.0, 10))
    with pytest.raises(ValueError):
        coth_solution(1.0, 0.0, Grid(0.0, 1.0, 10))


def test_lax_extract_zero():
    g = Grid(0.0, 1.0, 50)
    z = np.zeros((51, 2, 2), dtype=complex)
    from nahmlab.paths import NahmData

    d = NahmData.from_arrays(SU2, g, z, z, z, z)
    lax = lax_extract(d)
    assert np.abs(lax.alpha).max() == 0.0


def test_lax_extract_nil_nilpotent():
    d = nil_solution(SU2, Grid(0.0, 1.0, 100))
    beta = lax_extract(d).beta
    assert np.abs(beta @ beta).max() < 1e-13
    assert np.abs(beta[0] - (E2 + 1j * E3)).max() < 1e-14


def test_lax_eigenvalue_conservation():
    g = Grid(0.0, 1.0, 1000)
    coth = coth_solution(1.0, 1.0, g)
    d = integrate_nahm(SU2, tuple(c.values[0] for c in (coth.T1, coth.T2, coth.T3)), g)
    beta = lax_extract(d).beta
    assert eig_distance(beta[-1], beta[0]) <= 1e-8


def test_boundary_target_validation(rng):
    X = SU2.random_element(rng)
    Y = SU2.random_element(rng)
    with pytest.raises(ValueError):
        BoundaryTarget(X, Y, Z2, L=5.0)  # generically non-commuting
    with pytest.raises(ValueError):
        BoundaryTarget(X, Z2, Z2, L=-1.0)
    for L in (np.nan, np.inf):
        with pytest.raises(InputError):
            BoundaryTarget(Z2, Z2, Z2, L=L)  # halfline_solve could not size its grid
    sigma = su2_embed(SU2)
    with pytest.raises(ValueError):
        # sigma images do not commute with a generic tau
        BoundaryTarget(X, Z2, Z2, sigma=sigma, L=5.0)
    with pytest.raises(ValueError):
        BoundaryTarget(1j * X, Z2, Z2, L=5.0)  # Hermitian, not in su(2)
    BoundaryTarget(Z2, Z2, Z2, sigma=sigma, L=5.0).__class__  # valid


def test_boundary_target_holds_read_only_copies():
    tau1, tau2 = E3.copy(), 2.0 * E3
    target = BoundaryTarget(tau1, tau2, Z2, L=5.0)
    # a later write into the caller's array must not reach the target
    tau2[...] = E1
    assert np.array_equal(target.tau2, 2.0 * E3)
    assert np.linalg.norm(bracket(target.tau1, target.tau2)) == 0.0
    with pytest.raises(ValueError):
        target.tau1[0, 0] = 1.0
    with pytest.raises(FrozenInstanceError):
        target.L = -5.0
    sigma = su2_embed(SU2)
    nil = BoundaryTarget(Z2, Z2, Z2, sigma=sigma, L=5.0)
    assert nil.sigma.e1 is not sigma.e1
    with pytest.raises(ValueError):
        nil.sigma.e1[0, 0] = 1.0


def test_asymptotic_model():
    sigma = su2_embed(SU2)
    t = BoundaryTarget(-1.5 * E1, Z2, Z2, sigma=None, L=10.0)
    m = asymptotic_model(t, 10.0)
    assert np.abs(m[0] + 1.5 * E1).max() == 0.0
    t2 = BoundaryTarget(Z2, Z2, Z2, sigma=sigma, L=10.0)
    m2 = asymptotic_model(t2, 4.0)
    assert np.abs(m2[1] - np.asarray(sigma.e2) / 5.0).max() < 1e-15


def test_halfline_coth_exact_seed():
    a = 1.5
    target = BoundaryTarget(-a * E1, Z2, Z2, sigma=None, L=10.0)
    xi = a * 1.0
    seed = (-a / np.tanh(xi) * E1, a / np.sinh(xi) * E2, -a / np.sinh(xi) * E3)
    res = halfline_solve(target, seed)
    assert res.converged
    assert res.iterations == 0  # the guess is kept
    assert res.terminal_deviation <= 1e-6
    # stays close to the closed form
    coth = coth_solution(a, 1.0, res.data.grid)
    assert max(sup_norm(x.values - y.values) for x, y in zip(res.data.components, coth.components)) < 1e-5


@pytest.mark.parametrize("k", [2, 3, 4])
def test_halfline_nil_recovery(rng, k):
    spec = AlgebraSpec("su", k)
    sigma = su2_embed(spec)
    zero = np.zeros((k, k), dtype=complex)
    target = BoundaryTarget(zero, zero, zero, sigma=sigma, L=10.0)
    seed = tuple(np.asarray(e) + 0.01 * spec.random_element(rng) for e in sigma)
    res = halfline_solve(target, seed)
    assert res.converged
    rep = orbit_identify(res.data, target)
    assert rep.certified
    assert rep.beta0_rank == k - 1
    nil = nil_solution(spec, res.data.grid)
    err = max(sup_norm(a.values - b.values) for a, b in zip(res.data.components, nil.components))
    assert err < 1e-4


def test_halfline_perturbed_coth_same_orbit(rng):
    a = 1.5
    target = BoundaryTarget(-a * E1, Z2, Z2, sigma=None, L=10.0)
    xi = a * 1.0
    seed = (-a / np.tanh(xi) * E1, a / np.sinh(xi) * E2, -a / np.sinh(xi) * E3)
    base = halfline_solve(target, seed)
    scale = max(np.linalg.norm(np.asarray(m)) for m in seed)
    pseed = tuple(np.asarray(m) + 0.01 * scale * SU2.random_element(rng) for m in seed)
    pert = halfline_solve(target, pseed)
    assert pert.converged
    b0 = base.data.T2.values[0] + 1j * base.data.T3.values[0]
    b1 = pert.data.T2.values[0] + 1j * pert.data.T3.values[0]
    assert np.abs(char_poly(b0) - char_poly(b1)).max() <= 1e-5


@pytest.mark.parametrize("step", [-0.5, 0.0, np.nan, np.inf])
def test_halfline_rejects_bad_step(step):
    target = BoundaryTarget(Z2, Z2, Z2, sigma=su2_embed(SU2), L=6.0)
    with pytest.raises(ValueError, match="finite step > 0"):
        halfline_solve(target, tuple(su2_embed(SU2)), step=step)


@pytest.mark.parametrize("bound", [np.nan, 0.0, -1.0])
def test_integrate_nahm_rejects_bad_blowup_bound(bound):
    with pytest.raises(InputError, match="blow-up bound > 0"):
        integrate_nahm(SU2, tuple(su2_embed(SU2)), Grid(0.0, 1.0, 10), blowup_bound=bound)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-6])
def test_halfline_rejects_bad_tol(tol):
    target = BoundaryTarget(Z2, Z2, Z2, sigma=su2_embed(SU2), L=6.0)
    with pytest.raises(InputError, match="tolerance > 0"):
        halfline_solve(target, tuple(su2_embed(SU2)), tol=tol)


def test_halfline_blowup_returns_no_data():
    # with sigma scaled by 3, the solution through model(L) is
    # T = sigma / (s - c) with its pole at c = L - (L + 1) / 3, inside [0, L]
    sigma = Su2Triple(*(3.0 * np.asarray(e) for e in su2_embed(SU2)))
    target = BoundaryTarget(Z2, Z2, Z2, sigma=sigma, L=10.0)
    res = halfline_solve(target, tuple(sigma))
    assert res.data is None
    assert not res.converged
    assert res.iterations == 1
    assert res.terminal_deviation == np.inf


def test_orbit_identify_coth():
    a = 1.0
    g = Grid(0.0, 10.0, 2000)
    d = coth_solution(a, 1.0, g)
    target = BoundaryTarget(-a * E1, Z2, Z2, sigma=None, L=10.0)
    rep = orbit_identify(d, target)
    # beta(0) is a nonzero nilpotent: char poly eta^2, like the zero target
    b0 = d.T2.values[0] + 1j * d.T3.values[0]
    assert abs(np.trace(b0)) < 1e-12
    assert abs(np.linalg.det(b0)) < 1e-12
    assert np.abs(b0).max() > 0.1
    assert rep.max_coeff_dev <= 1e-10
    assert rep.certified
    assert rep.beta0_rank == 1


def test_orbit_identify_nil():
    d = nil_solution(SU2, Grid(0.0, 10.0, 2000))
    sigma = su2_embed(SU2)
    target = BoundaryTarget(Z2, Z2, Z2, sigma=sigma, L=10.0)
    rep = orbit_identify(d, target)
    assert rep.certified
    assert rep.beta0_rank == 1
    # char poly is eta^2: all non-leading coefficients vanish
    assert np.abs(rep.charpoly_beta0[1:]).max() < 1e-12


def test_orbit_identify_semisimple(rng):
    # constant solutions with commuting regular limits match eigenvalues
    # exactly
    tau2 = 1j * np.diag([0.7, -0.7])
    tau3 = 1j * np.diag([-0.2, 0.2])
    g = Grid(0.0, 5.0, 500)
    d = integrate_nahm(SU2, (Z2, tau2, tau3), g)
    target = BoundaryTarget(Z2, tau2, tau3, sigma=None, L=5.0)
    rep = orbit_identify(d, target)
    assert rep.max_coeff_dev <= 1e-12
    assert rep.certified
    want = np.sort_complex(np.linalg.eigvals(tau2 + 1j * tau3))
    got = np.sort_complex(np.roots(rep.charpoly_beta0))
    assert np.abs(got - want).max() < 1e-12


def test_orbit_identify_matching_beta0_with_large_residual_is_not_certified():
    # coth(0) held constant: beta(0) has the target's characteristic
    # polynomial, but T1' = 0 while [T2, T3] is not, so the residual is large
    a = 1.5
    g = Grid(0.0, 10.0, 200)
    init = [c.values[0] for c in coth_solution(a, 1.0, Grid(0.0, 1.0, 2)).components[1:]]
    d = NahmData.from_arrays(SU2, g, *(const_path(g, M).values for M in (Z2, *init)))
    rep = orbit_identify(d, BoundaryTarget(-a * E1, Z2, Z2, sigma=None, L=10.0))
    assert rep.max_coeff_dev <= 1e-12
    assert rep.residual_sup > 0.5  # the gate is 1e-3
    assert not rep.certified


def test_orbit_identify_rank_at_threshold():
    # beta(0) = [[0, 1, 0], [0, 0, x], [y, 0, 0]] has singular values 1, x, y
    # and |beta(0)| = sqrt(1 + x^2 + y^2); at coeff_tol 1e-6 the rank cut is
    # 1e-3 |beta(0)| = 1.000001e-3, between x (2% above) and y (2% below)
    su3 = AlgebraSpec("su", 3)
    x, y = 1.02e-3, 0.98e-3
    B = np.array([[0, 1, 0], [0, 0, x], [y, 0, 0]], dtype=complex)
    T2, T3 = 0.5 * (B - B.conj().T), -0.5j * (B + B.conj().T)
    g = Grid(0.0, 1.0, 20)
    Z3 = np.zeros((3, 3), dtype=complex)
    d = NahmData.from_arrays(su3, g, *(const_path(g, M).values for M in (Z3, Z3, T2, T3)))
    rep = orbit_identify(d, BoundaryTarget(Z3, Z3, Z3, sigma=None, L=1.0))
    assert np.allclose(lax_extract(d).beta[0], B, rtol=0, atol=1e-16)
    assert rep.beta0_rank == 2


def test_orbit_identify_residual_gate(rng):
    # garbage data cannot be certified even if beta(0) happens to match
    g = Grid(0.0, 1.0, 100)
    from nahmlab.paths import NahmData, random_smooth_path

    d = NahmData(SU2, *(random_smooth_path(SU2, g, rng) for _ in range(4)))
    target = BoundaryTarget(Z2, Z2, Z2, sigma=None, L=1.0)
    rep = orbit_identify(d, target)
    assert not rep.certified


# Bitwise reference: a plain RK4 loop with its own arithmetic for each flow
# (stacked brackets for the Nahm field, an explicit skew projection, SVD
# re-unitarization).  The shared stepper must reproduce it exactly, not
# merely to a tolerance.


def ref_midpoints(v):
    n = v.shape[0] - 1
    mid = np.empty((n,) + v.shape[1:], dtype=v.dtype)
    mid[1:-1] = (-v[:-3] + 9.0 * v[1:-2] + 9.0 * v[2:-1] - v[3:]) / 16.0
    mid[0] = (5.0 * v[0] + 15.0 * v[1] - 5.0 * v[2] + v[3]) / 16.0
    mid[-1] = (v[-4] - 5.0 * v[-3] + 15.0 * v[-2] + 5.0 * v[-1]) / 16.0
    return mid


def ref_skew_project(X, k):
    X = 0.5 * (X - np.conj(np.swapaxes(X, -1, -2)))
    tr = np.trace(X, axis1=-2, axis2=-1)
    return X - (tr / k)[..., None, None] * np.eye(k)


def ref_bracket(X, Y):
    return X @ Y - Y @ X


def ref_nahm_rhs(Y, _):
    T1, T2, T3 = Y[..., 0, :, :], Y[..., 1, :, :], Y[..., 2, :, :]
    return np.stack([ref_bracket(T2, T3), ref_bracket(T3, T1), ref_bracket(T1, T2)], axis=-3)


def ref_rk4(rhs, y0, h, n, post, coeff=None):
    """All n + 1 states of RK4 on y' = rhs(y, c(s))."""
    ys = [np.array(y0, dtype=complex)]
    mid = None if coeff is None else ref_midpoints(coeff)
    cur = ys[0]
    for m in range(n):
        c0, cm, c1 = (None, None, None) if coeff is None else (coeff[m], mid[m], coeff[m + 1])
        k1 = rhs(cur, c0)
        k2 = rhs(cur + 0.5 * h * k1, cm)
        k3 = rhs(cur + 0.5 * h * k2, cm)
        k4 = rhs(cur + h * k3, c1)
        cur = post(cur + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        ys.append(cur)
    return np.array(ys)


@pytest.mark.parametrize("k", [2, 4])
def test_integrate_nahm_bitwise_matches_reference(k):
    # a coarse step keeps the increment large enough that a reordered sum
    # changes the last bit of the state
    spec = AlgebraSpec("su", k)
    rng = np.random.default_rng(k)
    init = np.stack([spec.random_element(rng, 1.0 / k) for _ in range(3)])
    n = 500
    g = Grid(0.0, 1.0, n)
    d = integrate_nahm(spec, tuple(init), g)
    ref = ref_rk4(ref_nahm_rhs, init, g.h, n, lambda y: ref_skew_project(y, k))
    for i, c in enumerate((d.T1, d.T2, d.T3)):
        assert np.array_equal(c.values, ref[:, i])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_integrate_nahm_nil_start_bytes_match_reference(k):
    # the irreducible triple holds negative zeros, which np.array_equal
    # cannot tell from positive ones; compare the bytes
    spec = AlgebraSpec("su", k)
    init = np.stack(su2_embed(spec))
    assert np.signbit(init.real[init.real == 0]).any()
    g = Grid(0.0, 1.0, 200)
    d = integrate_nahm(spec, tuple(init), g)
    ref = ref_rk4(ref_nahm_rhs, init, g.h, g.n, lambda y: ref_skew_project(y, k))
    assert d.stack()[1:].swapaxes(0, 1).tobytes() == ref.tobytes()


def ref_right_trivialize(C, h, unitary):
    """g' = g C, interval by interval: the RK4 step from the identity is the
    propagator P_m, g_(m+1) = g_m P_m, and a real gauge takes the unitary
    polar factor of each node past the first."""
    eye = np.eye(C.shape[-1], dtype=complex)
    mid = ref_midpoints(C)
    g = [eye]
    for m in range(len(C) - 1):
        k1 = eye @ C[m]
        k2 = (eye + 0.5 * h * k1) @ mid[m]
        k3 = (eye + 0.5 * h * k2) @ mid[m]
        k4 = (eye + h * k3) @ C[m + 1]
        g.append(g[-1] @ (eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)))
    if unitary:
        for m in range(1, len(g)):
            w, _, vh = np.linalg.svd(g[m])
            g[m] = w @ vh
    return np.array(g)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_right_and_baby_flows_bitwise_match_reference(k):
    # the linear flows are the batched construction of ref_right_trivialize,
    # and the baby flow is the conjugation T1(s) = g(s)^-1 T1(s0) g(s)
    spec = AlgebraSpec("su", k)
    rng = np.random.default_rng(10 + k)
    g = Grid(0.0, 1.0, 600)
    T0 = random_smooth_path(spec, g, rng, modes=1, scale=0.4)
    X = spec.random_element(rng)
    ref_g = ref_right_trivialize(T0.values, g.h, unitary=True)
    assert np.array_equal(trivialize(T0).values, ref_g)
    _, T1 = integrate_baby(X, T0)
    ref = ref_skew_project(np.conj(np.swapaxes(ref_g, -1, -2)) @ X @ ref_g, k)
    assert np.array_equal(T1.values, ref)
    Tc = T0.values + 1j * T1.values
    ref = ref_right_trivialize(Tc, g.h, unitary=False)
    assert np.array_equal(complex_trivialize_direct(T0, T1).values, ref)


def test_char_poly_exact_oracles():
    # nilpotent Jordan block: det(eta - J) = eta^k
    for k in (2, 4, 6):
        J = np.diag(np.ones(k - 1), 1)
        want = np.zeros(k + 1)
        want[0] = 1.0
        assert np.array_equal(char_poly(J), want)
    # diagonal: (eta - 1)(eta - 2)(eta - 3) and (eta - i)(eta + 2)
    assert np.array_equal(char_poly(np.diag([1.0, 2.0, 3.0])), [1.0, -6.0, 11.0, -6.0])
    assert np.array_equal(char_poly(np.diag([1j, -2.0])), [1.0, 2.0 - 1j, -2j])
