import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded, expm, polar

from nahmlab.algebra import AlgebraSpec, InputError, dagger, pairing_nodes, su2_basis, su_basis, su_coords
from nahmlab.gauge import (
    GroupPath,
    _block_tridiagonal,
    _horizontal_coords,
    _vertical_operator,
    act,
    complex_trivialize,
    complex_trivialize_direct,
    exp_su_path,
    horizontal_project,
    monodromy,
    quotient_metric,
    trivialize,
    vertical_field,
)
from nahmlab.moment import mu_baby, mu_nahm
from nahmlab.paths import (
    AlgebraPath,
    Grid,
    NahmData,
    path_derivative,
    quadrature,
    random_dirichlet_path,
    random_smooth_path,
    sup_norm,
)
from nahmlab.solver import integrate_baby

from helpers import const_path, real_form_product

SU2 = AlgebraSpec("su", 2)
E1, E2, E3 = su2_basis()


def zero_nahm(grid, T0=None):
    z = np.zeros((grid.n + 1, 2, 2), dtype=complex)
    T0v = z if T0 is None else T0.values
    return NahmData.from_arrays(SU2, grid, T0v, z.copy(), z.copy(), z.copy())


def random_nahm(grid, rng, scale=1.0):
    return NahmData(SU2, *(random_smooth_path(SU2, grid, rng, scale=scale) for _ in range(4)))


def identity_gauge(grid):
    return GroupPath(grid, np.broadcast_to(np.eye(2), (grid.n + 1, 2, 2)).copy())


def test_act_identity(rng):
    g = Grid(0.0, 1.0, 50)
    d = random_nahm(g, rng)
    out = act(identity_gauge(g), d)
    for a, b in zip(out.components, d.components):
        assert np.abs(a.values - b.values).max() < 1e-13


def test_act_constant_gauge(rng):
    g = Grid(0.0, 1.0, 50)
    d = random_nahm(g, rng)
    U = expm(SU2.random_element(rng))
    gp = GroupPath(g, np.broadcast_to(U, (51, 2, 2)).copy())
    out = act(gp, d)
    for a, b in zip(out.components, d.components):
        assert np.abs(a.values - U @ b.values @ U.conj().T).max() < 1e-12


def act_by_inverse(g, d):
    """The gauge action with g^-1 taken by np.linalg.inv."""
    gv = g.values
    ginv = np.linalg.inv(gv)
    out = gv @ d.values @ ginv
    out[0] -= path_derivative(gv, d.grid.h) @ ginv
    return out


@pytest.mark.parametrize("k", [2, 4])
def test_act_unitary_gauge_matches_the_inverse(k, rng):
    # a unitary gauge is inverted as g^dag: the same action to rounding
    spec = AlgebraSpec("su", k)
    g = Grid(0.0, 1.0, 400)
    d = NahmData(spec, *(random_smooth_path(spec, g, rng, scale=0.6) for _ in range(4)))
    for gp in (exp_su_path(random_smooth_path(spec, g, rng, scale=0.8)),
               trivialize(random_smooth_path(spec, g, rng, scale=0.8))):
        assert isinstance(gp, GroupPath)
        assert np.abs(act(gp, d).values - act_by_inverse(gp, d)).max() <= 1e-12


def act_whole_chain(g, d, product):
    """The reference: the gauge action as one stacked product chain per term."""
    gv = g.values
    ginv = dagger(gv)
    out = product(product(gv, d.values), ginv)
    out[0] -= product(path_derivative(gv, d.grid.h), ginv)
    return out


@pytest.mark.parametrize("k", [2, 3, 4])
def test_act_keeps_the_chain_bytes_in_fresh_memory(k, rng):
    # the component-wise real-form products give the bytes of the chain taken
    # in real form, its complex-product chain within 1e-14, and the result is
    # a new array, not a view of either input
    spec = AlgebraSpec("su", k)
    g = Grid(0.0, 1.0, 300)
    d = NahmData(spec, *(random_smooth_path(spec, g, rng, scale=0.6) for _ in range(4)))
    gp = exp_su_path(random_smooth_path(spec, g, rng, scale=0.8))
    out = act(gp, d)
    assert out.values.tobytes() == act_whole_chain(gp, d, real_form_product).tobytes()
    assert np.abs(out.values - act_whole_chain(gp, d, np.matmul)).max() <= 1e-14
    assert not np.shares_memory(out.values, d.values)
    assert not np.shares_memory(out.values, gp.values)


def test_act_group_property(rng):
    for n in (250, 500):
        g = Grid(0.0, 1.0, n)
        d = random_nahm(g, rng, scale=0.7)
        g1 = exp_su_path(random_smooth_path(SU2, g, rng, scale=0.5))
        g2 = exp_su_path(random_smooth_path(SU2, g, rng, scale=0.5))
        g12 = GroupPath(g, g1.values @ g2.values)
        lhs = act(g12, d)
        rhs = act(g1, act(g2, d))
        err = max(sup_norm(a.values - b.values) for a, b in zip(lhs.components, rhs.components))
        assert err <= 200.0 * g.h**2
        if n == 250:
            err_coarse = err
    assert err <= err_coarse  # second-order shrink under refinement


def test_act_residual_covariance(rng):
    g = Grid(0.0, 1.0, 500)
    d = random_nahm(g, rng, scale=0.6)
    gp = exp_su_path(random_smooth_path(SU2, g, rng, scale=0.5))
    base = mu_nahm(d)
    moved = mu_nahm(act(gp, d))
    # unitary conjugation preserves Frobenius norms: sup norms match to O(h^2)
    for i in range(3):
        na = np.linalg.norm(base.values[i], axis=(-2, -1))
        nb = np.linalg.norm(moved.values[i], axis=(-2, -1))
        assert np.abs(na - nb).max() <= 100.0 * g.h**2


def test_trivialize_zero():
    g = Grid(0.0, 1.0, 100)
    gp = trivialize(const_path(g, np.zeros((2, 2), dtype=complex)))
    assert np.abs(gp.values - np.eye(2)).max() < 1e-14


def test_trivialize_constant_closed_form(rng):
    g = Grid(0.0, 1.0, 400)
    X = SU2.random_element(rng)
    gp = trivialize(const_path(g, X))
    for idx in (100, 250, 400):
        s = g.nodes[idx]
        assert np.abs(gp.values[idx] - expm(s * X)).max() < 1e-10
    assert np.abs(monodromy(const_path(g, X)) - expm(X)).max() < 1e-10


def test_trivialize_unitarity(rng):
    g = Grid(0.0, 1.0, 1000)
    gp = trivialize(random_smooth_path(SU2, g, rng))
    dev = np.max(np.linalg.norm(np.conj(np.swapaxes(gp.values, -1, -2)) @ gp.values - np.eye(2), axis=(-2, -1)))
    assert dev <= 1e-8


def test_trivialize_polar_correction_on_a_coarse_grid():
    # h max|eig T0| is about 0.1, well inside RK4's stability region, but 16
    # steps leave the product off unitary by far more than rounding: the
    # correction must bring it to rounding and land on the SVD polar factor
    su3 = AlgebraSpec("su", 3)
    g = Grid(0.0, 1.0, 16)
    T0 = random_smooth_path(su3, g, np.random.default_rng(0), modes=2, scale=1.0)
    assert g.h * np.abs(np.linalg.eigvals(T0.values)).max() < 0.2
    raw = complex_trivialize_direct(T0, const_path(g, np.zeros((3, 3), dtype=complex))).values
    assert np.linalg.norm(np.conj(np.swapaxes(raw, -1, -2)) @ raw - np.eye(3), axis=(-2, -1)).max() >= 1e-8
    gp = trivialize(T0)
    assert gp.unitarity_defect <= 1e-14
    w, _, vh = np.linalg.svd(raw)
    assert np.abs(gp.values - w @ vh).max() <= 1e-12


def recomputed_defect(gp):
    return float(np.max(np.linalg.norm(dagger(gp.values) @ gp.values - np.eye(gp.dim), axis=(-2, -1))))


def test_trivialize_hands_over_the_defect_of_its_values(rng):
    # Newton-Schulz hands its last defect to the path; it must be the defect
    # of the values returned, byte for byte as a path built from them forms
    # it, on a smooth fine T0 and on a rough coarse one whose raw product
    # needs more than one correction; the complex-product |g^dag g - 1| is
    # the same norm to within 4 k eps
    fine = random_smooth_path(SU2, Grid(0.0, 1.0, 500), rng)
    g = Grid(0.0, 1.0, 16)
    coarse = random_smooth_path(AlgebraSpec("su", 3), g, np.random.default_rng(0), modes=2, scale=1.0)
    raw = complex_trivialize_direct(coarse, const_path(g, np.zeros((3, 3), dtype=complex)))
    assert 0.75 * recomputed_defect(raw)**2 > 12 * np.finfo(float).eps  # one step leaves about 3 e^2 / 4
    for T0 in (fine, coarse):
        gp = trivialize(T0)
        assert "unitarity_defect" in gp.__dict__  # handed over, not recomputed
        fresh = GroupPath(gp.grid, gp.values)  # forms its own defect from the values
        assert np.float64(gp.unitarity_defect).tobytes() == np.float64(fresh.unitarity_defect).tobytes()
        assert abs(gp.unitarity_defect - recomputed_defect(gp)) <= 4 * T0.dim * np.finfo(float).eps
    vals = np.broadcast_to(2.0 * np.eye(2), (17, 2, 2)).astype(complex)
    with pytest.raises(ValueError, match="not unitary"):
        GroupPath(g, vals)  # a path built from values still forms its own defect


@pytest.mark.parametrize("n", [10, 400])
def test_trivialize_past_rk4_stability_raises(n):
    # h max|eig T0| = 4 is past RK4's stability limit 2 sqrt(2) on the
    # imaginary axis: the product grows (at n = 400 it overflows), and no
    # polar factor of it is a solution
    g = Grid(0.0, 1.0, n)
    T0 = const_path(g, 8.0 * n * E3)
    assert g.h * np.abs(np.linalg.eigvals(T0.values[0])).max() == pytest.approx(4.0)
    with pytest.raises(np.linalg.LinAlgError) as info:
        trivialize(T0)
    assert not isinstance(info.value, InputError)
    msg = str(info.value)
    assert "nan" not in msg.lower() and "inf" not in msg.lower()
    defect = float(msg.split("off unitary by ")[1].split()[0])
    assert np.isfinite(defect) and defect >= 0.5 and "grid too coarse" in msg


def test_trivialize_past_rk4_stability_warns_nothing():
    # the overflow past RK4's stability limit is reported by the defect test
    # alone, with the first finite defect, and no numpy warning reaches stderr
    g = Grid(0.0, 1.0, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match=r"off unitary by 8\.045e\+01 "):
            trivialize(const_path(g, 3200.0 * E1))


def test_trivialize_of_an_overflowing_step_names_a_finite_number():
    # 1e200 e1 overflows the first RK4 step itself, so the defect there is
    # NaN: the message names h |T0| at that node instead, taken on the exact
    # rescale, and no numpy warning is raised
    g = Grid(0.0, 1.0, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError) as info:
            trivialize(const_path(g, 1e200 * E1))
    msg = str(info.value)
    assert "nan" not in msg.lower() and "inf" not in msg.lower() and "grid too coarse" in msg
    step = float(msg.split("h |C| = ")[1].split(",")[0])
    assert step == pytest.approx(g.h * 1e200 * np.linalg.norm(E1), rel=1e-3)


def test_complex_trivialize_direct_past_rk4_stability_raises():
    # T0 = T1 = 1e3 e1 on 10 steps: h |T0 + i T1| = 100, far past RK4's limit
    # 2 sqrt 2, and a complex flow has no unitarity defect to show it; the
    # step bound refuses the grid before stepping, naming a finite h |C| and
    # the first node past it, with no numpy warning.  Just inside the bound
    # the flow runs.
    g = Grid(0.0, 1.0, 10)
    T = const_path(g, 1e3 * E1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError) as info:
            complex_trivialize_direct(T, T)
    msg = str(info.value)
    assert not isinstance(info.value, InputError) and "grid too coarse" in msg and "at s = 0:" in msg
    assert float(msg.split("h |C| = ")[1].split()[0]) == pytest.approx(g.h * np.linalg.norm((1 + 1j) * 1e3 * E1))
    zero = const_path(g, np.zeros((2, 2), dtype=complex))
    for scale, past in ((39.0, False), (41.0, True)):  # h |scale e1| = 2.76 and 2.90
        late = np.zeros((11, 2, 2), dtype=complex)
        late[7:] = scale * E1
        if past:
            with pytest.raises(np.linalg.LinAlgError, match=r"h \|C\| = 2\.899e\+00 past 2 sqrt\(2\) at s = 0\.7:"):
                complex_trivialize_direct(AlgebraPath(g, late), zero)
        else:
            assert np.isfinite(complex_trivialize_direct(AlgebraPath(g, late), zero).values).all()


def test_trivialize_residual_second_order(rng):
    errs = {}
    for n in (400, 800):
        g = Grid(0.0, 1.0, n)
        T0 = random_smooth_path(SU2, g, np.random.default_rng(5), scale=0.8)
        gp = trivialize(T0)
        moved = act(gp, zero_nahm(g, T0))
        errs[n] = sup_norm(moved.T0.values)
        assert errs[n] <= 100.0 * g.h**2
    assert errs[400] / errs[800] > 3.0


def test_monodromy_zero_and_winding():
    g = Grid(0.0, 1.0, 500)
    assert np.abs(monodromy(const_path(g, np.zeros((2, 2), dtype=complex))) - np.eye(2)).max() < 1e-14
    M = monodromy(const_path(g, 2.0 * np.pi * E3))
    assert np.abs(M + np.eye(2)).max() < 1e-9


def test_monodromy_g0_invariance(rng):
    g = Grid(0.0, 1.0, 2000)
    T0 = random_smooth_path(SU2, g, rng, modes=2, scale=0.8)
    base = monodromy(T0)
    for _ in range(3):
        h = exp_su_path(random_dirichlet_path(SU2, g, rng, scale=0.5))
        moved = act(h, zero_nahm(g, T0)).T0
        assert np.abs(monodromy(moved) - base).max() <= 1e-6


def test_monodromy_gauge_covariance():
    # closed-form oracle: for T0 = 0 the trivialization of h.0 = -h' h^-1 is
    # h(0) h(s)^-1, so the monodromy transforms as h(0) M h(1)^-1
    g = Grid(0.0, 1.0, 1500)
    rng = np.random.default_rng(11)
    h = exp_su_path(random_smooth_path(SU2, g, rng, scale=0.6))
    moved = act(h, zero_nahm(g)).T0
    got = monodromy(moved)
    want = h.values[0] @ h.values[-1].conj().T
    assert np.abs(got - want).max() <= 1e-5

    # general T0: same transformation law
    T0 = random_smooth_path(SU2, g, rng, modes=1, scale=0.5)
    M = monodromy(T0)
    movedT = act(h, zero_nahm(g, T0)).T0
    got = monodromy(movedT)
    want = h.values[0] @ M @ np.linalg.inv(h.values[-1])
    assert np.abs(got - want).max() <= 1e-5


def test_complex_trivialize_zero_connection(rng):
    g = Grid(0.0, 1.0, 200)
    X = SU2.random_element(rng)
    T0 = const_path(g, np.zeros((2, 2), dtype=complex))
    T1 = const_path(g, X)
    gp, gt_end, T1_0 = complex_trivialize(T0, T1, level_tol=1e-6)
    assert np.abs(gp.values - np.eye(2)).max() < 1e-12
    assert np.abs(gt_end - expm(1j * X)).max() < 1e-10
    assert np.abs(T1_0 - X).max() == 0.0


def test_complex_trivialize_commuting(rng):
    g = Grid(0.0, 1.0, 400)
    X = SU2.random_element(rng)
    c = 0.7
    gp, gt_end, _ = complex_trivialize(const_path(g, X), const_path(g, c * X), level_tol=1e-6)
    assert np.abs(gt_end - expm(1j * c * X) @ expm(X)).max() < 1e-9


def test_complex_trivialize_polar_cross_check(rng):
    g = Grid(0.0, 1.0, 1500)
    T0 = random_smooth_path(SU2, g, rng, modes=1, scale=0.4)
    _, T1 = integrate_baby(SU2.random_element(rng, 0.8), T0)
    gp, gt_end, T1_0 = complex_trivialize(T0, T1, level_tol=2e-5)
    U, P = polar(gt_end, side="right")  # gt_end = U P, P positive definite
    # unitary factor is exactly the real gauge endpoint, and the positive
    # factor is the conjugated exponential
    assert np.abs(U - gp.values[-1]).max() < 1e-8
    g1 = gp.values[-1]
    assert np.abs(g1 @ P @ g1.conj().T - expm(1j * T1_0)).max() < 1e-8


def test_complex_trivialize_two_stage_equals_direct(rng):
    g = Grid(0.0, 1.0, 1500)
    T0 = random_smooth_path(SU2, g, rng, modes=1, scale=0.4)
    _, T1 = integrate_baby(SU2.random_element(rng, 0.8), T0)
    _, gt_end, _ = complex_trivialize(T0, T1, level_tol=2e-5)
    direct = complex_trivialize_direct(T0, T1)
    assert np.abs(gt_end - direct.values[-1]).max() < 1e-8


def test_complex_trivialize_level_gate_is_baby_map():
    # the gate compares the sup norm of mu_baby with level_tol, no other residual
    rng = np.random.default_rng(1000)
    g = Grid(0.0, 1.0, 1500)
    T0 = random_smooth_path(SU2, g, rng, modes=1, scale=0.4)
    _, T1 = integrate_baby(SU2.random_element(rng, 0.8), T0)
    r = sup_norm(mu_baby(T0, T1).values)
    assert 0.0 < r < 2e-5
    complex_trivialize(T0, T1, level_tol=r)
    with pytest.raises(InputError, match="level-set residual"):
        complex_trivialize(T0, T1, level_tol=np.nextafter(r, 0))


def test_complex_trivialize_refuses_a_drifting_t1():
    # T0 = 0 and T1(s) = s e1: the baby residual |e1| = 0.707 passes level_tol 1, but the
    # gauged T1 (T1 itself, the gauge being 1) moves by 100 |e1| = 70.71 over [0, 100]
    g = Grid(0.0, 100.0, 200)
    T0, T1 = const_path(g, np.zeros((2, 2), dtype=complex)), AlgebraPath(g, g.nodes[:, None, None] * E1)
    assert sup_norm(mu_baby(T0, T1).values) == pytest.approx(np.sqrt(0.5), rel=1e-12)
    with pytest.raises(InputError, match=r"gauged T1 drifts by 7\.071e\+01"):
        complex_trivialize(T0, T1, level_tol=1.0)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-6])
def test_complex_trivialize_rejects_bad_level_tol(tol):
    # a NaN tolerance would otherwise pass any pair: every comparison with it is false
    g = Grid(0.0, 1.0, 50)
    with pytest.raises(InputError, match="level-set tolerance > 0"):
        complex_trivialize(const_path(g, E1), const_path(g, E2), level_tol=tol)


def test_complex_trivialize_rejects_off_level_set(rng):
    g = Grid(0.0, 1.0, 200)
    T0 = random_smooth_path(SU2, g, rng)
    T1 = random_smooth_path(SU2, g, rng)  # generic: far from the level set
    with pytest.raises(InputError, match="level-set residual"):
        complex_trivialize(T0, T1, level_tol=1e-6)


def test_complex_trivialize_rejects_nan_level_set_residual(rng):
    # one NaN entry makes the residual NaN, and a NaN residual is no pass
    g = Grid(0.0, 1.0, 200)
    T1 = np.broadcast_to(SU2.random_element(rng), (g.n + 1, 2, 2)).copy()
    T1[100, 0, 1] = np.nan
    with pytest.raises(InputError, match="level-set residual"):
        complex_trivialize(const_path(g, np.zeros((2, 2), dtype=complex)), AlgebraPath(g, T1), level_tol=1e-6)


def test_complex_trivialize_rejects_t1_outside_su():
    # eigh reads one triangle of i (s1 - s0) T1(s0), so T1(s0) must be in su(k);
    # a constant nilpotent T1 with T0 = 0 is on the level set but not in su(2)
    g = Grid(0.0, 1.0, 50)
    nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(InputError, match="su"):
        complex_trivialize(const_path(g, np.zeros((2, 2), dtype=complex)), const_path(g, nil), level_tol=1e-6)


def test_horizontal_project_constants_fixed():
    g = Grid(0.0, 1.0, 300)
    zero = const_path(g, np.zeros((2, 2), dtype=complex))
    t = const_path(g, E1)
    p = horizontal_project(zero, t)
    assert sup_norm(p.values - t.values) < 1e-10


def test_horizontal_project_mean_zero_mode():
    g = Grid(0.0, 1.0, 500)
    zero = const_path(g, np.zeros((2, 2), dtype=complex))
    t = AlgebraPath(g, np.sin(2.0 * np.pi * g.nodes)[:, None, None] * E1[None])
    p = horizontal_project(zero, t)
    assert np.sqrt(quadrature(pairing_nodes(p.values, p.values), g)) < 1e-8


def test_horizontal_project_keeps_mean():
    # integral of sin(pi s) over [0,1] is 2/pi, so the horizontal part is the
    # constant (2/pi) e1 (the vertical space at T0 = 0 spans mean-zero paths)
    g = Grid(0.0, 1.0, 500)
    zero = const_path(g, np.zeros((2, 2), dtype=complex))
    t = AlgebraPath(g, np.sin(np.pi * g.nodes)[:, None, None] * E1[None])
    p = horizontal_project(zero, t)
    dev = p.values - (2.0 / np.pi) * E1[None]
    assert np.sqrt(quadrature(pairing_nodes(dev, dev), g)) < 1e-4


def test_horizontal_project_idempotent(rng):
    g = Grid(0.0, 1.0, 300)
    T0 = random_smooth_path(SU2, g, rng, scale=0.7)
    t = random_smooth_path(SU2, g, rng)
    p1 = horizontal_project(T0, t)
    p2 = horizontal_project(T0, p1)
    assert sup_norm(p2.values - p1.values) <= 1e-10 * max(1.0, sup_norm(p1.values))


def test_horizontal_project_orthogonality(rng):
    g = Grid(0.0, 1.0, 300)
    T0 = random_smooth_path(SU2, g, rng, scale=0.7)
    t = random_smooth_path(SU2, g, rng)
    p = horizontal_project(T0, t)
    for _ in range(5):
        v = vertical_field(T0, random_dirichlet_path(SU2, g, rng))
        ip = quadrature(pairing_nodes(p.values, v.values), g)
        scale = np.sqrt(quadrature(pairing_nodes(p.values, p.values), g))
        scale *= np.sqrt(quadrature(pairing_nodes(v.values, v.values), g))
        assert abs(ip) <= 1e-8 * max(scale, 1e-30)


def test_quotient_metric_constants():
    g = Grid(0.0, 1.0, 300)
    zero = const_path(g, np.zeros((2, 2), dtype=complex))
    t = const_path(g, E1)
    assert quotient_metric(zero, t, t) == pytest.approx(0.5, abs=1e-10)


def test_quotient_metric_constant_gauge_invariance(rng):
    g = Grid(0.0, 1.0, 300)
    T0 = random_smooth_path(SU2, g, rng, scale=0.6)
    t = random_smooth_path(SU2, g, rng)
    t2 = random_smooth_path(SU2, g, rng)
    base = quotient_metric(T0, t, t2)
    U = expm(SU2.random_element(rng))

    def conj(p):
        return AlgebraPath(g, U @ p.values @ U.conj().T)

    moved = quotient_metric(conj(T0), conj(t), conj(t2))
    assert moved == pytest.approx(base, abs=1e-8 * max(1.0, abs(base)))


def test_quotient_metric_vertical_vanishes(rng):
    g = Grid(0.0, 1.0, 300)
    T0 = random_smooth_path(SU2, g, rng, scale=0.6)
    v = vertical_field(T0, random_dirichlet_path(SU2, g, rng))
    assert abs(quotient_metric(T0, v, v)) <= 1e-10


@pytest.mark.parametrize("k", [2, 3, 4])
def test_vertical_operator_matches_vertical_field(rng, k):
    spec = AlgebraSpec("su", k)
    g = Grid(0.0, 1.0, 40)
    T0 = random_smooth_path(spec, g, rng, scale=0.7)
    rho = random_dirichlet_path(spec, g, rng)
    field = _block_tridiagonal(*_vertical_operator(T0), su_coords(rho.values)[..., None])[..., 0]
    assert np.abs(field - su_coords(vertical_field(T0, rho).values)).max() <= 1e-12


def test_horizontal_project_matches_dense_lstsq(rng):
    # reference: the weighted least-squares fit over every vertical field,
    # each column built by vertical_field from one basis element at one node
    spec = AlgebraSpec("su", 3)
    g = Grid(0.0, 1.0, 30)
    T0 = random_smooth_path(spec, g, rng, scale=0.7)
    t = random_smooth_path(spec, g, rng)
    columns = []
    for m in range(1, g.n):
        for e in su_basis(3):
            rho = np.zeros((g.n + 1, 3, 3), dtype=complex)
            rho[m] = e
            columns.append(su_coords(vertical_field(T0, AlgebraPath(g, rho)).values).reshape(-1))
    V = np.stack(columns, axis=1)
    sw = np.sqrt(np.repeat(g.weights, 8))
    tc = su_coords(t.values).reshape(-1)
    rho = np.linalg.lstsq(sw[:, None] * V, sw * tc, rcond=None)[0]
    ref = (tc - V @ rho).reshape(g.n + 1, 8)
    assert np.abs(su_coords(horizontal_project(T0, t).values) - ref).max() <= 1e-10


def gathered_band_coords(T0, *ts):
    """The horizontal coordinates with the band gathered from block columns:
    blocks G[i, i], G[i+1, i], G[i+2, i] of the normal matrix per interior
    node i (zero past the last node), gathered into the 2d + 1 rows of lower
    band storage, transposed and copied, then factored by ``cholesky_banded``."""
    n, d, w = T0.grid.n, T0.dim**2 - 1, T0.grid.weights[:, None, None]
    ad, below, above = _vertical_operator(T0)
    A, At, eye = ad[1:-1], np.swapaxes(ad[1:-1], -1, -2), np.eye(d)
    col = np.zeros((n - 1, 3, d, d))
    col[:, 0] = w[1:-1] * (At @ A) + (w[:-2] * above[:-1] ** 2 + w[2:] * below[1:] ** 2) * eye
    col[:-1, 1] = w[1:-2] * above[1:-1] * A[:-1] + w[2:-1] * below[1:-1] * At[1:]
    col[:-2, 2] = w[2:-2] * above[2:-1] * below[1:-2] * eye
    u, q = np.arange(2 * d + 1)[:, None], np.arange(d)
    band = col.reshape(n - 1, 3 * d, d)[:, u + q, q].transpose(1, 0, 2).reshape(2 * d + 1, -1)
    tc = np.stack([su_coords(t.values) for t in ts], axis=-1)
    rhs = _block_tridiagonal(np.swapaxes(ad, -1, -2), above, below, w * tc)[1:-1]
    rho = np.zeros_like(tc)
    factor = cholesky_banded(band, lower=True)
    rho[1:-1] = cho_solve_banded((factor, True), rhs.reshape(-1, len(ts))).reshape(rhs.shape)
    return tc - _block_tridiagonal(ad, below, above, rho)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_horizontal_coords_match_the_gathered_band_bitwise(rng, k):
    # the band written in place holds the gathered band's numbers, signed
    # zeros included, so every coordinate keeps its bytes
    spec = AlgebraSpec("su", k)
    g = Grid(0.0, 1.0, 40)
    T0, t, t2 = (random_smooth_path(spec, g, rng, scale=0.7) for _ in range(3))
    assert _horizontal_coords(T0, t, t2).tobytes() == gathered_band_coords(T0, t, t2).tobytes()


def test_horizontal_coords_factor_the_band_in_place(rng, monkeypatch):
    import scipy.linalg

    factored = []

    def spy(ab, **kwargs):
        factor = cholesky_banded(ab, **kwargs)
        factored.append((ab.shape[0], ab.flags.f_contiguous, np.shares_memory(factor, ab)))
        return factor

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", spy)
    g = Grid(0.0, 1.0, 40)
    T0, t = (random_smooth_path(AlgebraSpec("su", 3), g, rng) for _ in range(2))
    quotient_metric(T0, t, t)
    assert factored == [(2 * 8 + 1, True, True)]  # the band's 2d + 1 rows, d = 8: the widest offset is 2d


def test_horizontal_coords_reject_a_non_finite_connection(rng):
    # the factorization still checks its input: a NaN in T0 gets no projection
    g = Grid(0.0, 1.0, 40)
    T0, t = (random_smooth_path(SU2, g, rng).values.copy() for _ in range(2))
    T0[7, 0, 1] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        quotient_metric(AlgebraPath(g, T0), AlgebraPath(g, t), AlgebraPath(g, t))


def test_quotient_metric_is_pairing_of_projections(rng):
    spec = AlgebraSpec("su", 3)
    g = Grid(0.0, 1.0, 200)
    T0 = random_smooth_path(spec, g, rng, scale=0.6)
    t = random_smooth_path(spec, g, rng)
    t2 = random_smooth_path(spec, g, rng)
    pairing = quadrature(pairing_nodes(horizontal_project(T0, t).values, horizontal_project(T0, t2).values), g)
    assert abs(quotient_metric(T0, t, t2) - pairing) <= 1e-12


def test_vertical_field_requires_dirichlet(rng):
    g = Grid(0.0, 1.0, 100)
    T0 = random_smooth_path(SU2, g, rng)
    with pytest.raises(ValueError):
        vertical_field(T0, random_smooth_path(SU2, g, rng))


def test_vertical_field_refuses_a_gauge_parameter_off_zero_at_an_end_as_input_error(rng):
    # an argument outside the function's domain: InputError, which is still a ValueError
    g = Grid(0.0, 1.0, 100)
    with pytest.raises(InputError, match="vanish at both endpoints"):
        vertical_field(random_smooth_path(SU2, g, rng), random_smooth_path(SU2, g, rng))


def test_vertical_field_rejects_nan_at_an_endpoint(rng):
    g = Grid(0.0, 1.0, 100)
    T0 = random_smooth_path(SU2, g, rng)
    rho = random_dirichlet_path(SU2, g, rng).values.copy()
    rho[0, 0, 1] = np.nan
    with pytest.raises(ValueError, match="vanish at both endpoints"):
        vertical_field(T0, AlgebraPath(g, rho))


def test_group_path_unitary_validation():
    g = Grid(0.0, 1.0, 10)
    vals = np.broadcast_to(2.0 * np.eye(2), (11, 2, 2)).copy().astype(complex)
    with pytest.raises(ValueError):
        GroupPath(g, vals)
    vals = np.broadcast_to(np.eye(2), (11, 2, 2)).copy().astype(complex)
    vals[3, 0, 1] = np.nan
    with pytest.raises(ValueError):
        GroupPath(g, vals)  # a NaN defect is no pass


def test_group_path_is_immutable():
    g = Grid(0.0, 1.0, 4)
    vals = np.broadcast_to(np.eye(2), (5, 2, 2)).astype(complex)
    path = GroupPath(g, vals)
    vals[0] = 5.0
    assert np.array_equal(path.values, np.broadcast_to(np.eye(2), (5, 2, 2)))
    with pytest.raises(ValueError):
        path.values[0] = 5.0
    with pytest.raises(AttributeError):
        path.values = vals


def test_group_path_own_takes_the_array_and_still_checks():
    # the producers hand over fresh arrays: held without a copy, made
    # read-only, and checked as the constructor checks a copy
    g = Grid(0.0, 1.0, 10)
    vals = np.broadcast_to(2.0 * np.eye(2), (11, 2, 2)).astype(complex)
    with pytest.raises(ValueError, match="not unitary"):
        GroupPath._own(g, vals.copy())
    eye = np.broadcast_to(np.eye(2), (11, 2, 2)).astype(complex)
    path = GroupPath._own(g, eye)
    assert path.values is eye and not eye.flags.writeable
    rng = np.random.default_rng(1)
    for made in (trivialize(random_smooth_path(SU2, g, rng)), exp_su_path(random_dirichlet_path(SU2, g, rng))):
        assert isinstance(made, GroupPath) and not made.values.flags.writeable
