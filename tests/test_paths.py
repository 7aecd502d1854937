from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from nahmlab.algebra import AlgebraSpec, InputError, su2_basis
from nahmlab.moment import mu_nahm
from nahmlab.paths import (
    AlgebraPath,
    Grid,
    NahmData,
    TangentVector,
    complex_structure,
    l2_metric,
    omega,
    pairing_nodes,
    quadrature,
    random_smooth_path,
    random_tangent,
    s1_action,
    so3_rotate,
)
from nahmlab.solver import coth_solution

SU2 = AlgebraSpec("su", 2)
E1, E2, E3 = su2_basis()


def const_path(grid, M):
    return AlgebraPath(grid, np.broadcast_to(M, (grid.n + 1,) + M.shape).copy())


def tangent(grid, *mats):
    return TangentVector(*(const_path(grid, M) for M in mats))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 10)
    for s0, s1 in [(0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf), (0.0, np.nan)]:
        with pytest.raises(InputError):
            Grid(s0, s1, 10)  # no infinite step h
    g = Grid(0.0, 2.0, 4)
    assert g.h == 0.5
    assert np.allclose(g.nodes, [0, 0.5, 1, 1.5, 2])


def test_algebra_path_is_immutable():
    grid = Grid(0.0, 1.0, 4)
    samples = np.zeros((5, 2, 2), dtype=complex)
    path = AlgebraPath(grid, samples)
    samples[0] = E1
    assert np.all(path.values == 0)
    with pytest.raises(ValueError):
        path.values[0] = E1


def test_quadrature_constant():
    g = Grid(0.0, 1.0, 10)
    assert quadrature(np.ones(11), g) == pytest.approx(1.0, abs=1e-15)


def test_quadrature_inverse_square():
    g = Grid(0.0, 1.0, 1000)
    f = 1.0 / (g.nodes + 1.0) ** 2
    # antiderivative oracle: integral of (s+1)^-2 over [0,1] is 1 - 1/2
    assert quadrature(f, g) == pytest.approx(0.5, abs=1e-6)


def test_quadrature_affine_exact():
    g = Grid(0.0, 2.0, 2)
    assert quadrature(g.nodes.copy(), g) == pytest.approx(2.0, abs=1e-15)


def test_quadrature_length_mismatch():
    with pytest.raises(ValueError):
        quadrature(np.ones(5), Grid(0.0, 1.0, 10))


def test_l2_metric_constant():
    g = Grid(0.0, 1.0, 50)
    z = np.zeros((2, 2), dtype=complex)
    u = tangent(g, E1, z, z, z)
    assert l2_metric(u, u) == pytest.approx(0.5, abs=1e-13)


def test_l2_metric_orthogonality_and_scaling():
    g = Grid(0.0, 1.0, 50)
    z = np.zeros((2, 2), dtype=complex)
    u = tangent(g, E1, z, z, z)
    v = tangent(g, E2, z, z, z)
    assert abs(l2_metric(u, v)) < 1e-14
    cu = tangent(g, 3.0 * E1, z, z, z)
    assert l2_metric(cu, u) == pytest.approx(3.0 * l2_metric(u, u), abs=1e-13)


def test_l2_metric_positive_definite(rng):
    g = Grid(0.0, 1.0, 40)
    for _ in range(5):
        u = random_tangent(SU2, g, rng)
        assert l2_metric(u, u) > 0


def _quaternion_right_multiply(comps, unit):
    """Oracle: right multiplication of t0 + t1 i + t2 j + t3 k by a unit."""
    t0, t1, t2, t3 = comps
    if unit == "i":
        return (-t1, t0, t3, -t2)
    if unit == "j":
        return (-t2, -t3, t0, t1)
    if unit == "k":
        return (-t3, t2, -t1, t0)
    raise ValueError(unit)


def test_complex_structure_matches_quaternion_oracle(rng):
    g = Grid(0.0, 1.0, 20)
    v = random_tangent(SU2, g, rng)
    comps = tuple(c.values for c in v.components)
    for i, unit in ((1, "i"), (2, "j"), (3, "k")):
        got = complex_structure(i, v)
        want = _quaternion_right_multiply(comps, unit)
        for a, b in zip(got.components, want):
            assert np.abs(a.values - b).max() == 0.0


def test_complex_structure_squares_to_minus_one(rng):
    g = Grid(0.0, 1.0, 20)
    v = random_tangent(SU2, g, rng)
    for i in (1, 2, 3):
        w = complex_structure(i, complex_structure(i, v))
        for a, b in zip(w.components, v.components):
            assert np.abs(a.values + b.values).max() == 0.0


def test_complex_structure_composition(rng):
    # right-action composition order: (v I1) I2 = v (i j) = v I3
    g = Grid(0.0, 1.0, 20)
    v = random_tangent(SU2, g, rng)
    lhs = complex_structure(2, complex_structure(1, v))
    rhs = complex_structure(3, v)
    for a, b in zip(lhs.components, rhs.components):
        assert np.abs(a.values - b.values).max() == 0.0
    # and I2 then I1 gives v (j i) = -v I3
    lhs2 = complex_structure(1, complex_structure(2, v))
    for a, b in zip(lhs2.components, rhs.components):
        assert np.abs(a.values + b.values).max() == 0.0


def test_complex_structure_component_shuffle():
    g = Grid(0.0, 1.0, 10)
    z = np.zeros((2, 2), dtype=complex)
    v = tangent(g, E1, z, z, z)
    w = complex_structure(1, v)
    assert np.abs(w.t0.values).max() == 0.0
    assert np.abs(w.t1.values - v.t0.values).max() == 0.0


def test_complex_structures_are_isometries(rng):
    g = Grid(0.0, 1.0, 30)
    u = random_tangent(SU2, g, rng)
    v = random_tangent(SU2, g, rng)
    base = l2_metric(u, v)
    for i in (1, 2, 3):
        got = l2_metric(complex_structure(i, u), complex_structure(i, v))
        assert got == pytest.approx(base, abs=1e-12 * max(1.0, abs(base)))


def test_omega_antisymmetry(rng):
    g = Grid(0.0, 1.0, 30)
    u = random_tangent(SU2, g, rng)
    v = random_tangent(SU2, g, rng)
    for i in (1, 2, 3):
        assert abs(omega(i, v, v)) < 1e-12
        assert omega(i, u, v) == pytest.approx(-omega(i, v, u), abs=1e-12)


def test_omega1_value():
    g = Grid(0.0, 1.0, 50)
    z = np.zeros((2, 2), dtype=complex)
    u = tangent(g, E1, z, z, z)
    v = tangent(g, z, E1, z, z)
    assert omega(1, u, v) == pytest.approx(0.5, abs=1e-13)


def test_omega_explicit_formulas(rng):
    g = Grid(0.0, 1.0, 40)
    u = random_tangent(SU2, g, rng)
    v = random_tangent(SU2, g, rng)

    def wedge(a, b):
        return quadrature(pairing_nodes(a.values, b.values), g)

    w1 = wedge(u.t0, v.t1) - wedge(u.t1, v.t0) - wedge(u.t2, v.t3) + wedge(u.t3, v.t2)
    assert omega(1, u, v) == pytest.approx(w1, abs=1e-12)
    w2 = wedge(u.t1, v.t3) - wedge(u.t3, v.t1) + wedge(u.t0, v.t2) - wedge(u.t2, v.t0)
    assert omega(2, u, v) == pytest.approx(w2, abs=1e-12)


def test_so3_rotate_identity(rng):
    g = Grid(0.0, 1.0, 20)
    d = NahmData(SU2, *(random_smooth_path(SU2, g, rng) for _ in range(4)))
    r = so3_rotate(np.eye(3), d)
    for a, b in zip(r.components, d.components):
        assert np.abs(a.values - b.values).max() == 0.0


def test_so3_rotate_quarter_turn(rng):
    g = Grid(0.0, 1.0, 20)
    d = NahmData(SU2, *(random_smooth_path(SU2, g, rng) for _ in range(4)))
    A = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    r = so3_rotate(A, d)
    assert np.abs(r.T1.values - d.T1.values).max() == 0.0
    assert np.abs(r.T2.values + d.T3.values).max() == 0.0
    assert np.abs(r.T3.values - d.T2.values).max() == 0.0


def test_so3_rotate_preserves_residual(rng):
    # the residual triple rotates as a 3-vector, so the combined node-wise
    # norm is the invariant quantity
    grid = Grid(0.0, 1.0, 400)
    d = coth_solution(1.0, 1.0, grid)

    def combined(data):
        r = mu_nahm(data)
        return np.sqrt(
            sum(np.linalg.norm(m.values, axis=(-2, -1)) ** 2 for m in (r.mu1, r.mu2, r.mu3))
        )

    base = combined(d)
    # random special-orthogonal matrix via QR
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1.0
    rot = combined(so3_rotate(Q, d))
    # roundoff-level agreement on the (order-one) data scale
    assert np.abs(rot - base).max() <= 1e-12


def test_so3_rotate_rejects_non_orthogonal(rng):
    g = Grid(0.0, 1.0, 10)
    d = NahmData(SU2, *(random_smooth_path(SU2, g, rng) for _ in range(4)))
    with pytest.raises(ValueError):
        so3_rotate(np.diag([2.0, 1.0, 1.0]), d)
    refl = np.diag([-1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        so3_rotate(refl, d)


def test_s1_action(rng):
    g = Grid(0.0, 1.0, 20)
    d = NahmData(SU2, *(random_smooth_path(SU2, g, rng) for _ in range(4)))
    r0 = s1_action(0.0, d)
    for a, b in zip(r0.components, d.components):
        assert np.abs(a.values - b.values).max() == 0.0
    rpi = s1_action(np.pi, d)
    assert np.abs(rpi.T2.values + d.T2.values).max() < 1e-12
    assert np.abs(rpi.T3.values + d.T3.values).max() < 1e-12
    # agrees with the rotation about the first axis
    th = 0.7
    A = np.array([[1, 0, 0], [0, np.cos(th), -np.sin(th)], [0, np.sin(th), np.cos(th)]])
    ra = so3_rotate(A, d)
    rs = s1_action(th, d)
    for a, b in zip(ra.components, rs.components):
        assert np.abs(a.values - b.values).max() < 1e-14


def test_metric_invariance_under_s1_block_rotation(rng):
    # rotating the (t1, t2, t3) blocks of both tangents is an isometry and
    # preserves omega_1 (the circle fixing I1)
    g = Grid(0.0, 1.0, 30)
    u = random_tangent(SU2, g, rng)
    v = random_tangent(SU2, g, rng)
    th = 1.1
    c, s = np.cos(th), np.sin(th)

    def rot(t):
        t2 = c * t.t2.values - s * t.t3.values
        t3 = s * t.t2.values + c * t.t3.values
        return TangentVector.from_arrays(g, t.t0.values, t.t1.values, t2, t3)

    assert l2_metric(rot(u), rot(v)) == pytest.approx(l2_metric(u, v), abs=1e-12)
    assert omega(1, rot(u), rot(v)) == pytest.approx(omega(1, u, v), abs=1e-12)


def test_nahm_data_and_tangent_fields_cannot_be_reassigned(rng):
    g = Grid(0.0, 1.0, 20)
    d = coth_solution(1.0, 1.0, g)
    v = random_tangent(SU2, g, rng)
    with pytest.raises(FrozenInstanceError):
        d.T1 = d.T2
    with pytest.raises(FrozenInstanceError):
        d.algebra = AlgebraSpec("su", 3)
    with pytest.raises(FrozenInstanceError):
        v.t0 = v.t1
