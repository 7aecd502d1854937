import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from nahmlab.algebra import AlgebraSpec, InputError, Su2Triple, bracket, char_poly_coeffs, project, su2_basis, su2_embed, su2_embed_block
from nahmlab import solver
from nahmlab.moment import lax_extract, mu_nahm
from nahmlab.gauge import complex_trivialize_direct, trivialize
from nahmlab.paths import Grid, NahmData, _rk4_scalars, _rk4_step, random_smooth_path, sup_norm
from nahmlab.solver import (
    BoundaryTarget,
    NahmBlowUpError,
    asymptotic_model,
    coth_solution,
    halfline_solve,
    integrate_baby,
    integrate_nahm,
    nil_solution,
    orbit_identify,
)

from helpers import const_path, real_form_product, sequential

SU2 = AlgebraSpec("su", 2)
E1, E2, E3 = su2_basis()
Z2 = np.zeros((2, 2), dtype=complex)


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


def test_integrate_nahm_rejects_a_non_finite_init():
    # a NaN membership defect is an input error, not a blow-up at the first step
    X = np.array([[0.0, np.inf], [-np.inf, 0.0]], dtype=complex)
    with np.errstate(invalid="ignore"), pytest.raises(InputError, match="three elements of su"):
        integrate_nahm(SU2, (X, Z2, Z2), Grid(0.0, 1.0, 10))


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
    from scipy.linalg import expm

    g = Grid(0.0, 1.0, 300)
    init = tuple(SU2.random_element(rng, 0.3) for _ in range(3))
    U = expm(SU2.random_element(rng))
    d = integrate_nahm(SU2, init, g)
    dU = integrate_nahm(SU2, tuple(U @ M @ U.conj().T for M in init), g)
    for a, b in zip((d.T1, d.T2, d.T3), (dU.T1, dU.T2, dU.T3)):
        assert sup_norm(b.values - U @ a.values @ U.conj().T) < 1e-12


def member_defect(X):
    """max(|tr X| / sqrt(k), |X + X^dag|) over a stack of k x k matrices: 0 on su(k)."""
    trace = np.max(np.abs(np.trace(X, axis1=-2, axis2=-1))) / np.sqrt(X.shape[-1])
    return max(trace, np.max(np.linalg.norm(X + X.conj().swapaxes(-1, -2), axis=(-2, -1))))


def test_integrate_nahm_preserves_skewness(rng):
    g = Grid(0.0, 1.0, 500)
    d = integrate_nahm(SU2, tuple(SU2.random_element(rng, 0.4) for _ in range(3)), g)
    for c in (d.T1, d.T2, d.T3):
        assert member_defect(c.values) <= 1e-10


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
    # the squared norms overflow at s = 0.502 although the norm, 3.4e174, is
    # below the bound: the flow goes on to the first node that is not finite
    "overflow_above_1e150": (POLE, Grid(0.0, 1.0, 1000), 1e200, 0.503, np.inf),
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
    assert d.values.tobytes() == free.values.tobytes()


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


@pytest.mark.parametrize(
    "make",
    [
        lambda g: coth_solution(np.nan, 1.0, g),
        lambda g: coth_solution(np.inf, 1.0, g),
        lambda g: coth_solution(1.0, np.nan, g),
        lambda g: coth_solution(1.0, np.inf, g),
        lambda g: nil_solution(SU2, Grid(-1.0, 0.0, 10)),  # the pole at s0
    ],
    ids=["coth-a-nan", "coth-a-inf", "coth-offset-nan", "coth-offset-inf", "nil-pole-on-grid"],
)
def test_closed_forms_reject_a_non_finite_parameter(make):
    with pytest.raises(InputError):
        make(Grid(0.0, 1.0, 10))


def test_lax_extract_zero():
    g = Grid(0.0, 1.0, 50)
    z = np.zeros((51, 2, 2), dtype=complex)
    from nahmlab.paths import NahmData

    d = NahmData.from_arrays(SU2, g, z, z, z, z)
    assert np.abs(lax_extract(d)[0]).max() == 0.0


def test_lax_extract_nil_nilpotent():
    d = nil_solution(SU2, Grid(0.0, 1.0, 100))
    beta = lax_extract(d)[1]
    assert np.abs(beta @ beta).max() < 1e-13
    assert np.abs(beta[0] - (E2 + 1j * E3)).max() < 1e-14


def test_lax_eigenvalue_conservation():
    g = Grid(0.0, 1.0, 1000)
    coth = coth_solution(1.0, 1.0, g)
    d = integrate_nahm(SU2, tuple(c.values[0] for c in (coth.T1, coth.T2, coth.T3)), g)
    beta = lax_extract(d)[1]
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


@pytest.mark.parametrize("shape", [(1, 2), (2, 3), (2,)])
def test_boundary_target_refuses_limits_that_are_not_square(shape):
    # the membership test reads k off the matrices: a non-square stack is no member
    with pytest.raises(InputError, match="must lie in su"):
        BoundaryTarget(*(np.zeros(shape),) * 3, L=5.0)


Z3 = np.zeros((3, 3), dtype=complex)
TARGET_REFUSALS = {
    "taus_of_different_sizes": (lambda: BoundaryTarget(Z2, Z3, Z2, L=5.0), "tau_i must lie in su"),
    "sigma_of_two_matrices": (lambda: BoundaryTarget(Z2, Z2, Z2, sigma=su2_embed(SU2)[:2], L=5.0),
                              r"sigma must be three elements of su\(2\)"),
    "su3_sigma_on_su2_taus": (lambda: BoundaryTarget(Z2, Z2, Z2, sigma=su2_embed(AlgebraSpec("su", 3)), L=5.0),
                              r"sigma must be three elements of su\(2\)"),
    "hermitian_sigma": (lambda: BoundaryTarget(Z2, Z2, Z2, sigma=tuple(1j * e for e in su2_embed(SU2)), L=5.0),
                        r"sigma must be three elements of su\(2\)"),
    "su2_data_against_su3_target": (
        lambda: orbit_identify(nil_solution(SU2, Grid(0.0, 1.0, 10)), BoundaryTarget(Z3, Z3, Z3, L=1.0)),
        r"the data are in su\(2\), the target in su\(3\)"),
}


@pytest.mark.parametrize("case", sorted(TARGET_REFUSALS))
def test_halfline_targets_and_data_are_checked_once(case):
    # each of these died in numpy (np.stack, a matmul, Su2Triple) or, for the
    # Hermitian sigma, passed until halfline_solve refused the model at L
    make, message = TARGET_REFUSALS[case]
    with pytest.raises(InputError, match=message):
        make()


def test_boundary_target_commutation_at_large_finite_entries():
    # the products of these entries overflow; the commutation tests are
    # taken on an exact power-of-two rescale of the limits
    BoundaryTarget(1e200 * E3, -3e199 * E3, Z2, L=5.0)
    with pytest.raises(InputError, match="must commute"):
        BoundaryTarget(1e200 * E1, 1e200 * E3, Z2, L=5.0)
    with pytest.raises(InputError, match="sigma images must commute"):
        BoundaryTarget(1e200 * E1, Z2, Z2, sigma=su2_embed(SU2), L=5.0)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_boundary_target_sigma_must_represent_su2(k):
    # [sigma(e1), sigma(e2)] = -sigma(e3), cyclically, as for e_j = (i/2) sigma_j: the
    # zero triple, the irreducible embedding, every block one and a conjugate pass
    spec, Zk = AlgebraSpec("su", k), np.zeros((k, k), dtype=complex)
    U = np.linalg.qr(np.random.default_rng(k).standard_normal((k, k)) + 0j)[0]
    sigmas = [None, (Zk,) * 3, su2_embed(spec), [U.conj().T @ e @ U for e in su2_embed(spec)]]
    for sigma in sigmas + [su2_embed_block(spec, m) for m in range(2, k + 1)]:
        BoundaryTarget(Zk, Zk, Zk, sigma=sigma, L=5.0)
    # the relation is quadratic against linear, so no multiple of a representation
    # but 1 passes; the test is taken on the rescale, where no product overflows
    for c in (5.0, 0.5, -1.0, 1.0 + 1e-6, 1e200):
        with pytest.raises(InputError, match=r"sigma images must represent su\(2\)"):
            BoundaryTarget(Zk, Zk, Zk, sigma=[c * e for e in su2_embed(spec)], L=5.0)


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
    coeffs = np.concatenate(char_poly_coeffs(np.stack([b0, b1])[None]))  # a_1 .. a_k of b0 and of b1
    assert np.abs(coeffs[:, 0] - coeffs[:, 1]).max() <= 1e-5


@pytest.mark.parametrize("step", [-0.5, 0.0, np.nan, np.inf, 1e-300])  # 1e-300: more nodes than an array can index
def test_halfline_rejects_bad_step(step):
    target = BoundaryTarget(Z2, Z2, Z2, sigma=su2_embed(SU2), L=6.0)
    with pytest.raises(ValueError, match="finite step > 0"):
        halfline_solve(target, tuple(su2_embed(SU2)), step=step)


@pytest.mark.parametrize("bound", [np.nan, 0.0, -1.0])
def test_integrate_nahm_rejects_bad_blowup_bound(bound):
    with pytest.raises(InputError, match="blow-up bound > 0"):
        integrate_nahm(SU2, tuple(su2_embed(SU2)), Grid(0.0, 1.0, 10), blowup_bound=bound)


def halfline_replay_gap(target, guess):
    """The solve's missed-guess path against a forward replay from its own T(0),
    the largest entry relative to the path's."""
    res = halfline_solve(target, guess)
    assert (res.iterations, res.converged, res.terminal_deviation) == (1, True, 0.0)
    d = res.data
    replay = integrate_nahm(d.algebra, tuple(d.values[1:, 0]), d.grid).values
    return np.max(np.abs(d.values - replay)) / np.max(np.abs(d.values))


@pytest.mark.parametrize("L", [5.0, 10.0, 20.0])
@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_halfline_reversed_path_matches_a_forward_replay(k, L):
    # measured worst case 3.5e-12 (su(6), L = 10); su(2..4) <= 5.9e-13
    spec = AlgebraSpec("su", k)
    zero = np.zeros((k, k), dtype=complex)
    rng = np.random.default_rng(70 + k)
    guess = tuple(np.asarray(e) + 0.01 * spec.random_element(rng) for e in su2_embed(spec))
    assert halfline_replay_gap(BoundaryTarget(zero, zero, zero, sigma=su2_embed(spec), L=L), guess) <= 1e-10


def test_halfline_perturbed_coth_reversed_path_matches_a_forward_replay(rng):
    # measured 0.0
    guess = tuple(m + 0.01 * SU2.random_element(rng) for m in coth_seed())
    assert halfline_replay_gap(BoundaryTarget(-1.5 * E1, Z2, Z2, sigma=None, L=10.0), guess) <= 1e-10


def test_halfline_solution_is_written_once():
    # nil su(4) at the default step: the B = 2 batch path is 2.93 MiB and the
    # solution's (4, n+1, k, k) stack 1.95 MiB; negating the reversed backward
    # member into a temporary and stacking it again peaked at 6.84 MiB
    k = 4
    spec, zero = AlgebraSpec("su", k), np.zeros((k, k), dtype=complex)
    sigma = su2_embed(spec)
    rng = np.random.default_rng(0)
    guess = tuple(np.asarray(e) + 0.05 * spec.random_element(rng) for e in sigma)
    tracemalloc.start()
    try:
        res = halfline_solve(BoundaryTarget(zero, zero, zero, sigma=sigma, L=10.0), guess)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations == 1  # the backward member is the solution
    nodes = res.data.grid.n + 1
    assert peak < nodes * 3 * 2 * k * k * 16 + res.data.values.nbytes + (64 << 10)


def loop_and_engine_paths():
    """(algebra, start, grid) of a path the sequential loop steps (n < 1000) and of one the segment engine takes."""
    nil4, su2 = AlgebraSpec("su", 4), AlgebraSpec("su", 2)
    loop, engine = Grid(0.0, 1.0, 900), Grid(0.0, 5.0, 5000)
    return {"nil_su4_loop": (nil4, tuple(nil_solution(nil4, loop).values[1:, 0]), loop),
            "coth_su2_engine": (su2, tuple(coth_solution(1.0, 1.0, engine).values[1:, 0]), engine)}


@pytest.mark.parametrize("case", sorted(loop_and_engine_paths()))
def test_integrated_record_is_the_loops_path(case, monkeypatch):
    spec, start, grid = loop_and_engine_paths()[case]
    engine, taken = solver._parareal, []

    def recorded(*args):
        taken.append(engine(*args))
        return taken[-1]

    monkeypatch.setattr(solver, "_parareal", recorded)
    traj, (blowup,) = solver._nahm_flow(np.stack(start)[None], grid, 1e6)
    assert blowup is None and taken == ([True] if case.endswith("engine") else [])
    d = integrate_nahm(spec, start, grid)
    assert not d.values[0].any()
    assert d.values[1:].tobytes() == traj[:, :, 0].tobytes()


def test_integrated_record_is_the_one_path_sized_buffer():
    # the loop writes rows 1..3 of the zeroed record, so no second path-sized buffer is taken:
    # nil su(4) at n = 900 peaks at 1.02x the record (0.88 MiB), 1.75x with a copy of the path
    spec, start, grid = loop_and_engine_paths()["nil_su4_loop"]
    integrate_nahm(spec, start, grid)  # numpy's and the BLAS's first-call allocations are not the flow's
    tracemalloc.start()
    try:
        d = integrate_nahm(spec, start, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * d.values.nbytes


def test_separable_solution_holds_only_its_result():
    # the profiles times the triple are written into the solution's rows, not copied there
    grid = Grid(0.0, 1.0, 10**4)
    tracemalloc.start()
    try:
        d = nil_solution(AlgebraSpec("su", 6), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d.values.nbytes + (1 << 20)


def test_halfline_blowup_returns_no_data():
    # with sigma scaled by 3, the solution through model(L) is
    # T = sigma / (s - c) with its pole at c = L - (L + 1) / 3, inside [0, L]:
    # the solve raises, as integrate_nahm does, at the node where the
    # backward flow from -model(L) blew up, read on the solution's own axis.
    # 3 sigma is no representation, which BoundaryTarget refuses, so it is set
    # past the target's checks
    sigma = Su2Triple(*(3.0 * np.asarray(e) for e in su2_embed(SU2)))
    target = BoundaryTarget(Z2, Z2, Z2, L=10.0)
    object.__setattr__(target, "sigma", sigma)
    grid = Grid(0.0, 10.0, 2000)  # the solve's grid at its default step
    with pytest.raises(NahmBlowUpError) as back:
        integrate_nahm(SU2, tuple(-asymptotic_model(target, 10.0)), grid)
    with pytest.raises(NahmBlowUpError) as info:
        halfline_solve(target, tuple(sigma))
    assert (info.value.s, info.value.norm) == (10.0 - back.value.s, back.value.norm)
    assert abs(info.value.s - (10.0 - 11.0 / 3.0)) <= 2 * grid.h and info.value.norm > 1e6  # at the pole


@pytest.mark.parametrize("eps", [1e-15, 1e-6])
@pytest.mark.parametrize("L", [3.0, 10.0])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_halfline_every_result_with_data_meets_tol(k, L, eps):
    # a kept guess met the fixed tolerance, and a missed one returns the backward
    # path, which ends on the projected model exactly: no result with data can
    # miss the model.  Each exact T(0) is also moved by 0.01 and by eps: at
    # roundoff most such guesses are kept, at the tolerance's own size none is
    spec = AlgebraSpec("su", k)
    sigma, zero, a = su2_embed(spec), np.zeros((k, k), dtype=complex), 1.5
    coth = (-a / np.tanh(a), a / np.sinh(a), -a / np.sinh(a))  # coth x sigma at s = 0, its pole at s = -1
    targets = [  # each with its exact T(0): the sweep keeps 35 guesses and misses 85
        (BoundaryTarget(zero, zero, zero, sigma=sigma, L=L), tuple(np.asarray(e) for e in sigma)),
        (BoundaryTarget(-a * sigma.e1, zero, zero, L=L), tuple(f * np.asarray(e) for f, e in zip(coth, sigma))),
    ]
    for target, exact in targets:
        rng = np.random.default_rng(k)
        for guess in (exact, *(tuple(m + size * spec.random_element(rng) for m in exact) for size in (0.01, eps))):
            res = halfline_solve(target, guess, step=0.05)
            assert res.data is not None and res.converged
            assert res.terminal_deviation <= (solver._KEEP_TOL if res.iterations == 0 else 0.0)


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
    # and |beta(0)| = sqrt(1 + x^2 + y^2); at the fixed coefficient tolerance 1e-6
    # the rank cut is 1e-3 |beta(0)| = 1.000001e-3, between x (2% above) and y (2% below)
    su3 = AlgebraSpec("su", 3)
    x, y = 1.02e-3, 0.98e-3
    B = np.array([[0, 1, 0], [0, 0, x], [y, 0, 0]], dtype=complex)
    T2, T3 = 0.5 * (B - B.conj().T), -0.5j * (B + B.conj().T)
    g = Grid(0.0, 1.0, 20)
    Z3 = np.zeros((3, 3), dtype=complex)
    d = NahmData.from_arrays(su3, g, *(const_path(g, M).values for M in (Z3, Z3, T2, T3)))
    rep = orbit_identify(d, BoundaryTarget(Z3, Z3, Z3, sigma=None, L=1.0))
    assert np.allclose(lax_extract(d)[1, 0], B, rtol=0, atol=1e-16)
    assert rep.beta0_rank == 2


def test_target_without_sigma_holds_the_zero_triple():
    # the trivial su(2) representation: the model is the limits, and the sigma images are read-only zeros
    target = BoundaryTarget(-1.5 * E1, Z2, Z2, L=5.0)
    assert isinstance(target.sigma, Su2Triple)
    assert all(np.array_equal(e, Z2) and not e.flags.writeable for e in target.sigma)
    assert np.array_equal(asymptotic_model(target, 5.0), np.stack([-1.5 * E1, Z2, Z2]))


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


def ref_rk4(rhs, y0, h, n, post, dtype=complex):
    """All n + 1 states of RK4 on the autonomous y' = rhs(y)."""
    ys = [np.array(y0, dtype=dtype)]
    cur = ys[0]
    for _ in range(n):
        k1 = rhs(cur, None)
        k2 = rhs(cur + 0.5 * h * k1, None)
        k3 = rhs(cur + 0.5 * h * k2, None)
        k4 = rhs(cur + h * k3, None)
        cur = post(cur + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        ys.append(cur)
    return np.array(ys)


def ref_nahm(init, h, n, k):
    """The Nahm flow as the package takes it: the start projected once, then
    plain RK4 steps (RK4 keeps the linear subspace su(k)^3 to rounding)."""
    return ref_rk4(ref_nahm_rhs, ref_skew_project(np.asarray(init, dtype=complex), k), h, n, lambda y: y)


def ref_real_form(T):
    """phi(T) entry by entry: a + ib becomes the real block [[a, b], [-b, a]]."""
    k = T.shape[-1]
    out = np.empty(T.shape[:-2] + (2 * k, 2 * k))
    for i in range(k):
        for j in range(k):
            a, b = T[..., i, j].real, T[..., i, j].imag
            out[..., 2 * i, 2 * j], out[..., 2 * i, 2 * j + 1] = a, b
            out[..., 2 * i + 1, 2 * j], out[..., 2 * i + 1, 2 * j + 1] = -b, a
    return out


def ref_nahm_real_form(init, h, n, k):
    """The Nahm flow stepped in real form: phi of the projected start, plain
    RK4 on the real 2k x 2k triple, so each product is phi(A) phi(C); each
    node is the even rows of its state, the complex a + ib as the pair (a, b)."""
    start = ref_real_form(ref_skew_project(np.asarray(init, dtype=complex), k))
    states = ref_rk4(ref_nahm_rhs, start, h, n, lambda y: y, dtype=float)
    return np.ascontiguousarray(states[..., ::2, :]).view(complex)


def ref_nahm_projected(init, h, n, k):
    """The former construction: a projection onto su(k) after every step."""
    return ref_rk4(ref_nahm_rhs, init, h, n, lambda y: ref_skew_project(y, k))


def assert_near_per_step_projected(got, init, h, n, k):
    # dropping the per-step projection moves the path by rounding only
    ref = ref_nahm_projected(init, h, n, k)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _random_nahm_start(k):
    spec = AlgebraSpec("su", k)
    rng = np.random.default_rng(k)
    return spec, np.stack([spec.random_element(rng, 1.0 / k) for _ in range(3)])


@pytest.mark.parametrize("k", [2, 4])
def test_integrate_nahm_bitwise_matches_reference(k):
    # a coarse step keeps the increment large enough that a reordered sum
    # changes the last bit of the state; the products are taken in real form,
    # so the bitwise oracle steps phi of the state, and the complex-product
    # flow is its rounding neighbour
    spec, init = _random_nahm_start(k)
    g = Grid(0.0, 1.0, 500)
    d = integrate_nahm(spec, tuple(init), g)
    ref = ref_nahm_real_form(init, g.h, g.n, k)
    for i, c in enumerate((d.T1, d.T2, d.T3)):
        assert c.values.tobytes() == ref[:, i].tobytes()
    complex_ref = ref_nahm(init, g.h, g.n, k)
    got = d.values[1:].swapaxes(0, 1)
    assert np.abs(got - complex_ref).max() <= 1e-13 * np.abs(complex_ref).max()


@pytest.mark.parametrize("k", [2, 4])
def test_integrate_nahm_matches_per_step_projected_reference(k):
    spec, init = _random_nahm_start(k)
    g = Grid(0.0, 1.0, 500)
    got = integrate_nahm(spec, tuple(init), g).values[1:].swapaxes(0, 1)
    assert_near_per_step_projected(got, init, g.h, g.n, k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_integrate_nahm_nil_start_bytes_match_reference(k):
    # the irreducible triple holds negative zeros, which np.array_equal
    # cannot tell from positive ones; compare the bytes
    spec = AlgebraSpec("su", k)
    init = np.stack(su2_embed(spec))
    assert np.signbit(init.real[init.real == 0]).any()
    g = Grid(0.0, 1.0, 200)
    got = integrate_nahm(spec, tuple(init), g).values[1:].swapaxes(0, 1)
    assert got.tobytes() == ref_nahm(init, g.h, g.n, k).tobytes()
    assert_near_per_step_projected(got, init, g.h, g.n, k)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_integrate_nahm_stays_in_su_k_without_per_step_projection(k):
    # 5000 unprojected steps: the member defect stays at rounding
    spec = AlgebraSpec("su", k)
    rng = np.random.default_rng(20 + k)
    init = tuple(spec.random_element(rng, 0.1 / k) for _ in range(3))
    T = integrate_nahm(spec, init, Grid(0.0, 5.0, 5000)).values[1:]
    scale = float(np.max(np.linalg.norm(T, axis=(-2, -1))))
    assert member_defect(T) <= 1e-13 * scale


@pytest.mark.parametrize("k", [2, 3, 4])
def test_integrate_nahm_projects_a_start_off_su_k(k):
    # a start 1e-9 off su(k), within is_member's 1e-8, by a Hermitian part
    # and a skew-Hermitian trace: off su(k) the flow would carry both along,
    # so the start is projected before the first step
    spec = AlgebraSpec("su", k)
    rng = np.random.default_rng(30 + k)
    init = np.stack([spec.random_element(rng, 0.3 / k) for _ in range(3)])
    H = rng.standard_normal((3, k, k)) + 1j * rng.standard_normal((3, k, k))
    H = H + np.conj(H.swapaxes(-1, -2))
    off = init + 1e-9 * (H / np.linalg.norm(H, axis=(-2, -1), keepdims=True) + 1j * np.eye(k) / np.sqrt(k))
    assert member_defect(off) > 1e-10
    T = integrate_nahm(spec, tuple(off), Grid(0.0, 1.0, 500)).values[1:]
    assert member_defect(T) <= 1e-14 * float(np.max(np.linalg.norm(T, axis=(-2, -1))))


def ref_propagators(C, h, mm=np.matmul):
    """1 and the RK4 steps P_m from the identity of g' = g C, interval by
    interval, each product taken by ``mm``."""
    eye = np.eye(C.shape[-1], dtype=complex)
    mid = ref_midpoints(C)
    p = [eye]
    for m in range(len(C) - 1):
        k1 = mm(eye, C[m])
        k2 = mm(eye + 0.5 * h * k1, mid[m])
        k3 = mm(eye + 0.5 * h * k2, mid[m])
        k4 = mm(eye + h * k3, C[m + 1])
        p.append(eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return p


def ref_right_trivialize(C, h, unitary, mm=real_form_product):
    """g' = g C in plain loops of the blocked construction: the running
    product of 1, P_0, ..., P_(n-1), padded with identities to b * b matrices
    (b = ceil(sqrt(n + 1))), is taken inside each block of b, then across the
    block ends, then carried into the next block; a real gauge then takes
    Newton-Schulz steps g + (1 - g g^dag) g / 2 until the max defect is
    4 k eps or stops falling, at most 8.  Each product is taken by ``mm``."""
    k, n1 = C.shape[-1], len(C)
    eye = np.eye(k, dtype=complex)
    b = int(np.ceil(np.sqrt(n1)))
    g = ref_propagators(C, h, mm) + [eye] * (b * b - n1)
    for i in range(b):
        for j in range(1, b):
            g[i * b + j] = mm(g[i * b + j - 1], g[i * b + j])
    for i in range(1, b):
        g[i * b + b - 1] = mm(g[i * b - 1], g[i * b + b - 1])
    for i in range(1, b):
        for j in range(b - 1):
            g[i * b + j] = mm(g[i * b - 1], g[i * b + j])
    g = g[:n1]
    if unitary:
        last = np.inf
        for _ in range(8):
            e = [np.eye(k) - mm(x, np.conj(x.T)) for x in g]
            defect = max(np.linalg.norm(x) for x in e)
            if defect <= 4 * k * np.finfo(float).eps or defect >= last:
                break
            g, last = [x + 0.5 * mm(y, x) for x, y in zip(g, e)], defect
    return np.array(g)


def ref_sequential_svd_trivialize(C, h, unitary):
    """g' = g C node by node, g_(m+1) = g_m P_m, and a real gauge takes the
    SVD polar factor of each node past the first."""
    g = ref_propagators(C, h)
    for m in range(1, len(g)):
        g[m] = g[m - 1] @ g[m]
    if unitary:
        for m in range(1, len(g)):
            w, _, vh = np.linalg.svd(g[m])
            g[m] = w @ vh
    return np.array(g)


def _right_and_baby_flows(k):
    spec = AlgebraSpec("su", k)
    rng = np.random.default_rng(10 + k)
    g = Grid(0.0, 1.0, 600)
    T0 = random_smooth_path(spec, g, rng, modes=1, scale=0.4)
    X = spec.random_element(rng)
    _, T1 = integrate_baby(X, T0)
    return g, T0, X, T1


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_right_and_baby_flows_bitwise_match_reference(k):
    # the linear flows are the batched construction of ref_right_trivialize,
    # and the baby flow is the conjugation T1(s) = g(s)^-1 T1(s0) g(s), every
    # product taken in real form (real_form_product) as the package takes it, so
    # the bytes match; the same construction with complex products is their
    # rounding neighbour, within 1e-14 absolute for the unitary gauge and the
    # baby flow and 1e-14 relative for the complex gauge
    g, T0, X, T1 = _right_and_baby_flows(k)
    Tc = T0.values + 1j * T1.values
    got = trivialize(T0).values, T1.values, complex_trivialize_direct(T0, T1).values
    for mm, exact in ((real_form_product, True), (np.matmul, False)):
        ref_g = ref_right_trivialize(T0.values, g.h, True, mm)
        ref_baby = ref_skew_project(np.array([mm(mm(np.conj(x.T), X), x) for x in ref_g]), k)
        ref_c = ref_right_trivialize(Tc, g.h, False, mm)
        if exact:
            for a, b in zip(got, (ref_g, ref_baby, ref_c)):
                assert a.tobytes() == b.tobytes()
        else:
            assert np.abs(got[0] - ref_g).max() <= 1e-14
            assert np.abs(got[1] - ref_baby).max() <= 1e-14
            assert np.abs(got[2] - ref_c).max() <= 1e-14 * np.abs(ref_c).max()


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_right_and_baby_flows_match_sequential_svd_reference(k):
    # the blocked product and the Newton-Schulz polar factor reorder the
    # rounding of the node-by-node product and its SVD polar factor: within
    # 1e-14 absolute for the unitary gauge and the baby flow, 1e-14 relative
    # for the complex gauge
    g, T0, X, T1 = _right_and_baby_flows(k)
    ref_g = ref_sequential_svd_trivialize(T0.values, g.h, unitary=True)
    assert np.abs(trivialize(T0).values - ref_g).max() <= 1e-14
    ref = ref_skew_project(np.conj(np.swapaxes(ref_g, -1, -2)) @ X @ ref_g, k)
    assert np.abs(T1.values - ref).max() <= 1e-14
    ref = ref_sequential_svd_trivialize(T0.values + 1j * T1.values, g.h, unitary=False)
    assert np.abs(complex_trivialize_direct(T0, T1).values - ref).max() <= 1e-14 * np.abs(ref).max()


def test_char_poly_exact_oracles():
    # orbit_identify reads det(eta - M) from a degree-0 pencil of char_poly_coeffs
    def char_poly(M):
        return np.concatenate(char_poly_coeffs(np.asarray(M, dtype=complex)[None]))

    # nilpotent Jordan block: det(eta - J) = eta^k
    for k in (2, 4, 6):
        assert np.array_equal(char_poly(np.diag(np.ones(k - 1), 1)), np.zeros(k))
    # diagonal: (eta - 1)(eta - 2)(eta - 3) and (eta - i)(eta + 2)
    assert np.array_equal(char_poly(np.diag([1.0, 2.0, 3.0])), [-6.0, 11.0, -6.0])
    assert np.array_equal(char_poly(np.diag([1j, -2.0])), [2.0 - 1j, -2j])


# Malformed triples: not three k x k matrices, or not in su(k).  Both entry
# points must refuse them; a (1, 3, k, k) batch is never read as one state.
MALFORMED = {
    "two": lambda e: e[:2],
    "four": lambda e: e + e[:1],
    "batch_of_one": lambda e: np.stack(e)[None],
    "wrong_size": lambda e: tuple(np.zeros((3, 3), dtype=complex) for _ in e),
    "ragged": lambda e: e[:2] + (np.zeros((3, 3), dtype=complex),),
    "not_in_su": lambda e: tuple(np.ones((2, 2)) for _ in e),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_integrate_nahm_and_halfline_reject_malformed_triples(case):
    bad = MALFORMED[case](tuple(su2_embed(SU2)))
    with pytest.raises(InputError, match="init must be three elements of su"):
        integrate_nahm(SU2, bad, Grid(0.0, 1.0, 10))
    target = BoundaryTarget(Z2, Z2, Z2, sigma=su2_embed(SU2), L=2.0)
    with pytest.raises(InputError, match="init_guess must be three elements of su"):
        halfline_solve(target, bad)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_prepared_constants_are_bitwise_safe(k):
    # project's and the RK4 step's 0-d complex constants against Python
    # floats and ints, on states full of signed zeros
    spec = AlgebraSpec("su", k)
    rng = np.random.default_rng(40 + k)
    X = rng.standard_normal((40, 3, k, k)) + 1j * rng.standard_normal((40, 3, k, k))
    for part in (X.real, X.imag):
        mask = rng.random(X.shape) < 0.4
        part[mask] = np.copysign(0.0, rng.standard_normal(mask.sum()))
    nil = np.stack(su2_embed(spec))
    X = np.concatenate([X, nil[None], -nil[None], 0.0 * X[:1], -0.0 * X[:1]])
    assert project(X).tobytes() == ref_skew_project(X, k).tobytes()
    h = 0.037
    for Y in (X, project(X)):
        k1 = ref_nahm_rhs(Y, None)
        k2 = ref_nahm_rhs(Y + 0.5 * h * k1, None)
        k3 = ref_nahm_rhs(Y + 0.5 * h * k2, None)
        k4 = ref_nahm_rhs(Y + h * k3, None)
        want = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert _rk4_step(ref_nahm_rhs, Y, _rk4_scalars(h), None, None, None).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [2, 4])
def test_nahm_batch_members_match_their_single_runs(k):
    # a random start, the pole -2 sigma / (1 - 2 s) (blow-up at s = 1/2) and
    # the nil solution, stepped as one batch
    spec = AlgebraSpec("su", k)
    rng = np.random.default_rng(50 + k)
    nil = np.stack(su2_embed(spec))
    starts = [np.stack([spec.random_element(rng, 0.5 / k) for _ in range(3)]), -2.0 * nil, nil]
    g = Grid(0.0, 1.0, 400)
    traj, blowups = solver._nahm_flow(np.stack(starts), g, 1e6)
    assert traj.shape == (3, g.n + 1, 3, k, k)
    for b, start in enumerate(starts):
        try:
            single = integrate_nahm(spec, tuple(start), g).values[1:]
        except NahmBlowUpError as exc:
            assert b == 1
            assert blowups[b] == (exc.s, exc.norm)
            node = int(round(exc.s / g.h))
            assert traj[:, : node + 1, b].tobytes() == ref_nahm(start, g.h, node, k).swapaxes(0, 1).tobytes()
            # near the pole a rounding difference grows like |T|^2; compare
            # up to s = 0.45, where |T| is 10 times its start
            assert_near_per_step_projected(traj[:, :181, b].swapaxes(0, 1), start, g.h, 180, k)
        else:
            assert blowups[b] is None
            assert traj[:, :, b].tobytes() == single.tobytes()


def test_nahm_batch_stops_when_every_member_blew_up():
    # poles at s = 1/2 and s = 1/4: each member's record is its single run's
    g = Grid(0.0, 1.0, 1000)
    starts = [-2.0 * np.stack(su2_embed(SU2)), -4.0 * np.stack(su2_embed(SU2))]
    _, blowups = solver._nahm_flow(np.stack(starts), g, 1e6)
    for start, blowup in zip(starts, blowups):
        with pytest.raises(NahmBlowUpError) as info:
            integrate_nahm(SU2, tuple(start), g)
        assert blowup == (info.value.s, info.value.norm)


def ref_halfline(target, guess, step=5e-3, tol=1e-6, bound=1e6):
    """The half-line solve as two separate flows: the guess forward, then the
    model backward, reversed and negated."""
    L = float(target.L)
    grid = Grid(0.0, L, max(int(np.ceil(L / step)), 8))
    spec = AlgebraSpec("su", target.dim)
    model = asymptotic_model(target, L)

    def flow(init):  # the sequential loop on one start: integrate_nahm agrees with it only within a tolerance
        path, blowup = sequential(init, grid, bound)
        if blowup is not None:
            raise NahmBlowUpError(*blowup)
        d = NahmData.from_arrays(spec, grid, np.zeros_like(path[0]), *path)
        return d, d.values[1:, -1]

    def gap(term):
        return float(np.max(np.linalg.norm(term - model, axis=(-2, -1))))

    iterations, data = 0, None
    try:
        data, term = flow(project(np.stack(guess)))
    except NahmBlowUpError:
        pass
    if data is None or gap(term) > tol:
        try:
            back, _ = flow(-model)
        except NahmBlowUpError as exc:  # raised at the solution's node: s = L - u
            raise NahmBlowUpError(L - exc.s, exc.norm) from None
        iterations, data = 1, NahmData.from_arrays(spec, grid, back.values[0], *-back.values[1:, ::-1])
        term = data.values[1:, -1]
    return data, iterations, gap(term)


def coth_seed(a=1.5):
    return (-a / np.tanh(a) * E1, a / np.sinh(a) * E2, -a / np.sinh(a) * E3)


def halfline_cases():
    rng = np.random.default_rng(60)
    coth = BoundaryTarget(-1.5 * E1, Z2, Z2, sigma=None, L=10.0)
    spec3 = AlgebraSpec("su", 3)
    nil3 = BoundaryTarget(*(np.zeros((3, 3), dtype=complex),) * 3, sigma=su2_embed(spec3), L=10.0)
    nil2 = BoundaryTarget(Z2, Z2, Z2, sigma=su2_embed(SU2), L=6.0)
    return {
        # (target, guess)
        "coth_exact_kept": (coth, coth_seed()),
        "coth_perturbed": (coth, tuple(m + 0.01 * SU2.random_element(rng) for m in coth_seed())),
        "nil_su3_perturbed": (nil3, tuple(e + 0.01 * spec3.random_element(rng) for e in su2_embed(spec3))),
        # the guess -2 sigma blows up at s = 1/2, the backward solve does not
        "guess_blows_up": (nil2, tuple(-2.0 * np.asarray(e) for e in su2_embed(SU2))),
        # the backward solve passes the bound HALFLINE_BOUNDS gives it, so the solve raises
        "backward_blows_up": (nil2, tuple(-2.0 * np.asarray(e) for e in su2_embed(SU2))),
    }


HALFLINE_BOUNDS = {"backward_blows_up": 0.5}  # blow-up bounds other than the default 1e6
# the batch size of each _nahm_flow call: the B = 2 loop, then, once the guess has blown up
# with >= 1000 steps to go, the engine's batches of the backward member's tail, a member per
# 96 steps left (1168 and 1200 steps: 13, 1072 and 1136: 12).  The engine takes the constant
# coth path from one batch and declines the backward_blows_up tail after its first, whose
# members pass the bound
HALFLINE_CALLS = {"coth_exact_kept": [2], "coth_perturbed": [2, 13], "backward_blows_up": [2, 13],
                  "guess_blows_up": [2, 12, 12, 12], "nil_su3_perturbed": [2, 12, 12, 12]}
HALFLINE_SEGMENTED = {"guess_blows_up", "nil_su3_perturbed"}  # the cases whose result is the engine's


@pytest.mark.parametrize("case", sorted(halfline_cases()))
def test_halfline_matches_three_flow_reference_in_two_loops(case, monkeypatch):
    target, guess = halfline_cases()[case]
    bound = HALFLINE_BOUNDS.get(case, 1e6)
    try:
        expected = ref_halfline(target, guess, bound=bound)
    except NahmBlowUpError as exc:
        expected = exc
    flow, calls = solver._nahm_flow, []

    def counted(*args):
        calls.append(len(args[0]))  # the batch size of each loop
        return flow(*args)

    monkeypatch.setattr(solver, "_nahm_flow", counted)
    if isinstance(expected, NahmBlowUpError):
        with pytest.raises(NahmBlowUpError) as info:
            halfline_solve(target, guess, blowup_bound=bound)
        assert (info.value.s, info.value.norm) == (expected.s, expected.norm)
    else:
        data, iterations, deviation = expected
        res = halfline_solve(target, guess, blowup_bound=bound)
        assert (res.iterations, res.terminal_deviation) == (iterations, deviation)
        if case in HALFLINE_SEGMENTED:
            # within the engine's 1e-13 of the path's scale, as near the nil closed form
            gap = np.max(np.abs(res.data.values - data.values)) / np.max(np.abs(data.values))
            exact = nil_solution(AlgebraSpec("su", target.dim), res.data.grid).values
            got_gap, ref_gap = (float(np.max(np.abs(d.values - exact))) for d in (res.data, data))
            assert gap <= 1e-13 and abs(got_gap - ref_gap) <= 0.01 * ref_gap
        else:
            assert res.data.values.tobytes() == data.values.tobytes()
    # the guess and the backward solve share the one loop, until the guess blows up
    assert calls == HALFLINE_CALLS[case]
