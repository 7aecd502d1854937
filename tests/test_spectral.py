import tracemalloc

import numpy as np
import pytest
import sympy

from nahmlab.algebra import AlgebraSpec, char_poly_coeffs, su2_basis, su2_embed
from nahmlab.paths import _BLOCK_BYTES, Grid, NahmData, random_smooth_path
from nahmlab.moment import lax_extract
from nahmlab.solver import BoundaryTarget, coth_solution, integrate_nahm, nil_solution
from nahmlab.spectral import (
    _coeff_drift,
    _pencil,
    char_coeffs,
    conservation_check,
    fixed_curve,
    reality_check,
    spectral_flow,
)

SU2 = AlgebraSpec("su", 2)
SU3 = AlgebraSpec("su", 3)
E1, E2, E3 = su2_basis()
Z2 = np.zeros((2, 2), dtype=complex)


def eta_poly(coeffs: list, zeta: complex) -> np.ndarray:
    """Coefficients [1, a_1(zeta), ..., a_k(zeta)] of the curve over zeta, descending in eta."""
    return np.array([1.0 + 0j] + [np.polynomial.polynomial.polyval(zeta, c) for c in coeffs])


def curve_value(coeffs: list, eta: complex, zeta: complex) -> complex:
    """Evaluate eta^k + a_1(zeta) eta^{k-1} + ... + a_k(zeta)."""
    return complex(np.polyval(eta_poly(coeffs, zeta), eta))


def beta_zeta(alpha: np.ndarray, beta: np.ndarray, zeta: complex) -> np.ndarray:
    """The pencil beta + (alpha + alpha*) zeta - beta* zeta^2 at one node."""
    beta, herm, quad = _pencil(alpha, beta)
    return beta + herm * zeta + quad * zeta * zeta


def reality_violation_substitution(coeffs: list, n_samples: int = 20, seed: int = 0) -> float:
    """Brute-force involution check: map the eta-roots over sampled zeta and
    compare with the roots over the image point -1/conj(zeta)."""
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        r = rng.uniform(0.4, 1.6)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        zeta = r * np.exp(1j * phi)
        image = -np.conj(np.roots(eta_poly(coeffs, zeta))) / np.conj(zeta) ** 2
        target = np.roots(eta_poly(coeffs, -1.0 / np.conj(zeta)))
        # compare root multisets via optimal matching
        cost = np.abs(image[:, None] - target[None, :])
        rows, cols = linear_sum_assignment(cost)
        scale = max(1.0, float(np.max(np.abs(target))))
        worst = max(worst, float(np.max(cost[rows, cols])) / scale)
    return worst


def worked_pair():
    # T0 = 0, T1 = e3, T2 = e1, T3 = e2
    alpha = -1j * E3
    beta = E1 + 1j * E2
    return alpha, beta


def test_beta_zeta_at_zero(rng):
    alpha = SU2.random_element(rng)
    beta = SU2.random_element(rng) + 1j * SU2.random_element(rng)
    assert np.abs(beta_zeta(alpha, beta, 0.0) - beta).max() == 0.0


def test_beta_zeta_worked_example():
    alpha, beta = worked_pair()
    assert np.abs(beta - np.array([[0.0, 1j], [0.0, 0.0]])).max() < 1e-15
    assert np.abs((alpha + alpha.conj().T) - np.diag([1.0, -1.0])).max() < 1e-15
    zeta = 0.83
    want = np.array([[zeta, 1j], [1j * zeta**2, -zeta]])
    assert np.abs(beta_zeta(alpha, beta, zeta) - want).max() < 1e-14


def test_char_coeffs_worked_example():
    alpha, beta = worked_pair()
    sd = char_coeffs(alpha, beta)
    # det(eta - beta(zeta)) = eta^2 exactly
    assert np.abs(sd[0]).max() < 1e-12
    assert np.abs(sd[1]).max() < 1e-12


def test_char_coeffs_heldout_interpolation(rng):
    # interpolation residual at held-out zeta against the direct determinant
    for spec in (SU2, SU3):
        d = NahmData(spec, *(random_smooth_path(spec, Grid(0.0, 1.0, 20), rng) for _ in range(4)))
        alpha, beta = lax_extract(d)
        sd = char_coeffs(alpha[0], beta[0])
        for zeta in (0.37, -0.91, 1.42):
            pencil = beta_zeta(alpha[0], beta[0], zeta)
            oracle = np.poly(np.linalg.eigvals(pencil))  # monic, descending
            for j in range(1, spec.dim + 1):
                got = np.polynomial.polynomial.polyval(zeta, sd[j - 1])
                assert abs(got - oracle[j]) <= 1e-10 * max(1.0, abs(oracle[j]))


def test_char_coeffs_degree_bound(rng):
    # a_j has degree <= 2j: refitting each coefficient at many extra sample
    # points with its stated degree still reproduces the determinant
    spec = SU3
    d = NahmData(spec, *(random_smooth_path(spec, Grid(0.0, 1.0, 10), rng) for _ in range(4)))
    alpha, beta = lax_extract(d)
    sd = char_coeffs(alpha[0], beta[0])
    zetas = np.linspace(-2.0, 2.0, 31)
    for j in range(1, spec.dim + 1):
        vals = []
        for z in zetas:
            pencil = beta_zeta(alpha[0], beta[0], z)
            vals.append(np.poly(np.linalg.eigvals(pencil))[j])
        fit = np.polynomial.polynomial.polyfit(zetas, np.array(vals), 2 * j)
        resid = np.abs(np.polynomial.polynomial.polyval(zetas, fit) - np.array(vals)).max()
        assert resid <= 1e-10 * max(1.0, np.abs(vals).max())
        assert np.abs(fit - sd[j - 1]).max() <= 1e-9 * max(1.0, np.abs(fit).max())


def test_nil_curve_is_nilpotent_cone():
    d = nil_solution(SU2, Grid(0.0, 1.0, 50))
    alpha, beta = lax_extract(d)
    for idx in (0, 25, 50):
        sd = char_coeffs(alpha[idx], beta[idx])
        assert np.abs(sd[0]).max() < 1e-12
        assert np.abs(sd[1]).max() < 1e-12


def test_conservation_constant_solution(rng):
    X = SU2.random_element(rng)
    g = Grid(0.0, 1.0, 100)
    d = integrate_nahm(SU2, (0.2 * X, -0.5 * X, X), g)
    assert conservation_check(d) < 1e-13


def test_conservation_nil():
    g = Grid(0.0, 1.0, 1000)
    nil = nil_solution(SU2, g)
    d = integrate_nahm(SU2, tuple(c.values[0] for c in (nil.T1, nil.T2, nil.T3)), g)
    assert conservation_check(d) <= 1e-8


def test_conservation_coth_long_interval():
    g = Grid(0.0, 5.0, 5000)
    coth = coth_solution(1.0, 1.0, g)
    d = integrate_nahm(SU2, tuple(c.values[0] for c in (coth.T1, coth.T2, coth.T3)), g)
    assert conservation_check(d) <= 1e-7


def test_conservation_sees_late_drift():
    # the exact nil solution leaves its flow only at the last node: a drift
    # measured against node 0 at every node must see it
    g = Grid(0.0, 1.0, 200)
    nil = nil_solution(SU2, g)
    T1 = nil.T1.values.copy()
    T1[-1] *= 2.0
    late = NahmData.from_arrays(SU2, g, nil.T0.values, T1, nil.T2.values, nil.T3.values)
    assert conservation_check(nil) <= 1e-12
    assert conservation_check(late) >= 0.1


def test_conservation_fourth_order():
    drifts = {}
    for n in (1250, 2500):
        g = Grid(0.0, 5.0, n)
        coth = coth_solution(1.0, 1.0, g)
        d = integrate_nahm(SU2, tuple(c.values[0] for c in (coth.T1, coth.T2, coth.T3)), g)
        drifts[n] = conservation_check(d)
    order = np.log2(drifts[1250] / drifts[2500])
    assert order >= 3.5


def test_fixed_curve_te3():
    t = 0.8
    target = BoundaryTarget(t * E3, Z2, Z2, sigma=None, L=5.0)
    sd, factors = fixed_curve(target)
    # eta^2 - t^2 zeta^2 = 0
    assert np.abs(sd[0]).max() < 1e-12
    want = np.array([0.0, 0.0, -t * t, 0.0, 0.0])
    assert np.abs(sd[1] - want).max() < 1e-12
    # two rational components eta = +- t zeta meeting at zeta = 0 and infinity
    assert factors is not None
    q = sorted(factors, key=lambda c: c[1].real)
    assert np.abs(q[0] - np.array([0.0, -t, 0.0])).max() < 1e-12
    assert np.abs(q[1] - np.array([0.0, t, 0.0])).max() < 1e-12
    assert q[0][0] == q[1][0] == 0.0  # common point over zeta = 0
    assert q[0][2] == q[1][2] == 0.0  # common point over zeta = infinity


@pytest.mark.parametrize("c", [2.0**-45, 1.0, 2.0**45])
def test_fixed_curve_factors_do_not_depend_on_scale(c):
    # diagonal is decided against the taus' largest entry: c e1 never is, c e3 always
    assert fixed_curve(BoundaryTarget(c * E1, Z2, Z2))[1] is None
    assert fixed_curve(BoundaryTarget(c * E3, Z2, Z2))[1] is not None


def test_fixed_curve_zero_target():
    for spec in (SU2, SU3):
        k = spec.dim
        z = np.zeros((k, k), dtype=complex)
        sd, _ = fixed_curve(BoundaryTarget(z, z, z, sigma=None, L=1.0))
        for j in range(1, k + 1):
            assert np.abs(sd[j - 1]).max() < 1e-14


def test_fixed_curve_matches_flow_pencil_up_to_zeta_sign():
    # the fixed-curve pencil and the flow pencil of the constant solution use
    # opposite orientations of the twistor coordinate: compare after
    # zeta -> -zeta (odd coefficients flip)
    t = 0.6
    tau2 = 1j * 0.3 * np.diag([1.0, -1.0])
    tau3 = 1j * 0.5 * np.diag([1.0, -1.0])
    target = BoundaryTarget(t * E3, tau2, tau3, sigma=None, L=5.0)
    fc, _ = fixed_curve(target)
    g = Grid(0.0, 1.0, 20)
    const = NahmData.from_arrays(
        SU2, g, np.zeros((21, 2, 2)), *(np.broadcast_to(m, (21, 2, 2)).copy() for m in (t * E3, tau2, tau3))
    )
    alpha, beta = lax_extract(const)
    flow = char_coeffs(alpha[0], beta[0])
    for j in (1, 2):
        signs = np.array([(-1.0) ** m for m in range(2 * j + 1)])
        assert np.abs(fc[j - 1] - signs * flow[j - 1]).max() < 1e-12


def test_reality_su2_su3(rng):
    for spec in (SU2, SU3):
        d = NahmData(spec, *(random_smooth_path(spec, Grid(0.0, 1.0, 30), rng) for _ in range(4)))
        alpha, beta = lax_extract(d)
        sd = char_coeffs(alpha[0], beta[0])
        assert reality_check(sd) <= 1e-9


def test_reality_closed_form_vs_substitution_oracle(rng, nonreal_curve):
    # the coefficient condition and the brute-force root-mapping oracle must
    # agree: both near zero for honest pencils, both large for the control
    d = NahmData(SU2, *(random_smooth_path(SU2, Grid(0.0, 1.0, 30), rng) for _ in range(4)))
    alpha, beta = lax_extract(d)
    good = char_coeffs(alpha[0], beta[0])
    assert reality_check(good) <= 1e-12
    assert reality_violation_substitution(good) <= 1e-8
    bad = nonreal_curve(alpha[0], beta[0])
    assert reality_check(bad) >= 1e-2
    assert reality_violation_substitution(bad) >= 1e-2


def test_reality_fixed_curve_exact():
    target = BoundaryTarget(0.8 * E3, Z2, Z2, sigma=None, L=5.0)
    assert reality_check(fixed_curve(target)[0]) < 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reality_check_non_finite_coefficient_is_no_pass(bad):
    target = BoundaryTarget(0.8 * E3, Z2, Z2, sigma=None, L=5.0)
    for j, m in ((1, 0), (2, 2)):  # an outer and a middle coefficient
        curve, _ = fixed_curve(target)
        curve[j - 1][m] = bad
        with np.errstate(invalid="ignore"):  # inf - inf
            assert not reality_check(curve) <= 1e-9


def test_coeff_drift_nan_is_no_pass():
    flows = [np.zeros((3, 4), dtype=complex), np.zeros((5, 4), dtype=complex)]
    flows[1][2, 3] = np.nan
    assert np.isnan(_coeff_drift([flows]))
    flows[1][2, 0] = np.nan  # in the scale too
    assert np.isnan(_coeff_drift([flows]))


def test_curve_vanishes_on_the_pencil_spectrum(rng):
    d = NahmData(SU2, *(random_smooth_path(SU2, Grid(0.0, 1.0, 10), rng) for _ in range(4)))
    alpha, beta = lax_extract(d)
    sd = char_coeffs(alpha[0], beta[0])
    assert [c.shape for c in sd] == [(3,), (5,)]
    zeta = 0.3
    pencil = beta_zeta(alpha[0], beta[0], zeta)
    for eta in np.linalg.eigvals(pencil):
        assert abs(curve_value(sd, eta, zeta)) < 1e-10


def _sympy_curve_coeffs(P):
    """Exact coefficients of det(eta - (P0 + P1 zeta + P2 zeta^2)) from the
    rational values of the float entries; list of ascending arrays."""
    eta, zeta = sympy.symbols("eta zeta")

    def exact(z):
        return sympy.Rational(z.real) + sympy.I * sympy.Rational(z.imag)

    k = P.shape[-1]
    pencil = sympy.Matrix(k, k, lambda r, c: exact(P[0, r, c]) + exact(P[1, r, c]) * zeta
                          + exact(P[2, r, c]) * zeta**2)
    det = sympy.Poly(sympy.expand((eta * sympy.eye(k) - pencil).det(method="berkowitz")), eta, zeta)
    return [np.array([complex(det.coeff_monomial(eta ** (k - j) * zeta**m)) for m in range(2 * j + 1)])
            for j in range(1, k + 1)]


@pytest.mark.parametrize("case", ["su3_lax", "complex4"])
def test_curve_coeffs_match_exact_determinant(rng, case):
    # the recursion is exact in zeta: compare with the symbolic expansion
    if case == "su3_lax":
        d = NahmData(SU3, *(random_smooth_path(SU3, Grid(0.0, 1.0, 10), rng) for _ in range(4)))
        alpha, beta = lax_extract(d)[:, 0]
        P = np.stack([beta, alpha + alpha.conj().T, -beta.conj().T])
    else:
        P = np.stack([rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3)])
    got = char_poly_coeffs(P[:, None])
    for g, w in zip(got, _sympy_curve_coeffs(P)):
        assert g.shape == (len(w), 1)
        assert np.abs(g[:, 0] - w).max() <= 1e-12 * max(1.0, np.abs(w).max())


def test_conservation_nil_su6_conjugated(rng):
    # the nilpotent pencils have ill-conditioned eigenvalues: eigenvalue-based
    # coefficients drift by about 2e-9 here, the flow itself by about 3e-12
    spec = AlgebraSpec("su", 6)
    Q, R = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    U = Q * (np.diagonal(R) / np.abs(np.diagonal(R)))
    g = Grid(0.0, 1.0, 1000)
    d = integrate_nahm(spec, tuple(U @ e @ U.conj().T for e in su2_embed(spec)), g)
    assert conservation_check(d) <= 1e-10


def whole_array_flow(d: NahmData, nonreal: bool = False) -> list:
    """The reference: the Lax pair, the pencil and the recursion of all nodes at once."""
    alpha, beta = lax_extract(d)
    return char_poly_coeffs(_pencil(alpha, beta, nonreal))


def block_nodes(k: int) -> int:
    return _BLOCK_BYTES // (16 * k * k)


def random_nahm(spec: AlgebraSpec, nodes: int, rng) -> NahmData:
    return NahmData(spec, *(random_smooth_path(spec, Grid(0.0, 1.0, nodes - 1), rng) for _ in range(4)))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_spectral_flow_blocks_keep_every_byte(k, rng):
    # each node's arithmetic is its own: the blocks reproduce the whole-array
    # coefficients bit for bit, at a block edge and past a partial last block
    b = block_nodes(k)
    for nodes in (b - 1, b, b + 1, 3 * b + 5):
        d = random_nahm(AlgebraSpec("su", k), nodes, rng)
        for nonreal in (False, True):
            got, want = spectral_flow(d, nonreal), whole_array_flow(d, nonreal)
            assert [g.shape for g in got] == [(2 * j + 1, nodes) for j in range(1, k + 1)]
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_spectral_flow_nan_stays_in_its_column(rng):
    # a NaN planted on one node's diagonal, inside the second block, reaches
    # every a_j at that node and no other node
    k, b = 3, block_nodes(3)
    d = random_nahm(SU3, 3 * b + 5, rng)
    clean, m = spectral_flow(d), b + 7
    values = d.values.copy()
    values[2, m, 0, 0] = np.nan
    dirty = spectral_flow(NahmData._own(d.grid, values))
    for c, f in zip(clean, dirty):
        assert np.isnan(f[:, m]).any()
        assert np.delete(f, m, axis=1).tobytes() == np.delete(c, m, axis=1).tobytes()


def traced_peak(f, *args) -> int:
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectral_flow_working_set_is_bounded(rng):
    # the output plus one block's temporaries: under twice the output's bytes
    # plus a constant at su(6), n = 8000, where the whole-array body (the
    # negative control) holds every node's Faddeev-LeVerrier products at once
    d = random_nahm(AlgebraSpec("su", 6), 8001, rng)
    bound = 2 * sum(f.nbytes for f in spectral_flow(d)) + (4 << 20)
    assert traced_peak(spectral_flow, d) < bound
    assert traced_peak(whole_array_flow, d) > bound


def whole_array_drift(flows: list) -> float:
    """The reference: the drift reduced over the whole (2j+1, n+1) outputs at once."""
    scale = np.max([1.0] + [np.max(np.abs(f[:, 0])) for f in flows])
    return float(np.max([np.max(np.abs(f - f[:, :1])) for f in flows])) / float(scale)


def assert_same_drift(d: NahmData) -> None:
    flows = spectral_flow(d)
    drifts = [conservation_check(d), _coeff_drift([flows]), whole_array_drift(flows)]
    assert len({np.float64(x).tobytes() for x in drifts}) == 1, drifts


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_conservation_check_reduces_block_by_block_to_the_same_bits(k, rng):
    # the first-node coefficients and the running max carried from block to
    # block give the whole-array drift bit for bit, at and past a block edge
    b = block_nodes(k)
    for nodes in (b - 1, b, b + 1, 3 * b + 5):
        assert_same_drift(random_nahm(AlgebraSpec("su", k), nodes, rng))


def test_conservation_check_keeps_a_nan(rng):
    # a NaN in a later block, then one at the first node (in the scale too)
    d = random_nahm(SU3, 3 * block_nodes(3) + 5, rng)
    for m in (block_nodes(3) + 7, 0):
        values = d.values.copy()
        values[2, m, 0, 0] = np.nan
        d = NahmData._own(d.grid, values)
        assert np.isnan(conservation_check(d))
        assert_same_drift(d)


def test_conservation_check_holds_no_output_sized_array(rng):
    # at su(6), n = 10^4 the outputs of ``spectral_flow`` are 7.7 MB, and the
    # reduction over them peaked at 10.8 MB; block by block the peak is one
    # block's temporaries, 2.3 MB.  The working set does not depend on the
    # values, so a short random path repeated along the grid serves.
    short = random_nahm(AlgebraSpec("su", 6), 101, rng).values
    d = NahmData._own(Grid(0.0, 1.0, 10000), short[:, np.arange(10001) % 101])
    assert traced_peak(conservation_check, d) < (4 << 20)
