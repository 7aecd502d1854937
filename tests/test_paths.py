from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from nahmlab.algebra import AlgebraSpec, InputError, pairing_nodes, su2_basis
from nahmlab.moment import mu_nahm
from nahmlab.paths import (
    CHUNK,
    AlgebraPath,
    Grid,
    NahmData,
    _random_chunk,
    complex_structure,
    l2_metric,
    omega,
    path_derivative,
    quadrature,
    random_smooth_path,
    random_tangent,
)
from nahmlab.solver import coth_solution

SU2 = AlgebraSpec("su", 2)
E1, E2, E3 = su2_basis()


def const_path(grid, M):
    return AlgebraPath(grid, np.broadcast_to(M, (grid.n + 1,) + M.shape).copy())


def tangent(grid, *mats):
    return NahmData(SU2, *(const_path(grid, M) for M in mats))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 10)
    for s0, s1 in [(0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf), (0.0, np.nan)]:
        with pytest.raises(InputError):
            Grid(s0, s1, 10)  # no infinite step h
    top = np.iinfo(np.intp).max  # constructed, never sampled: n + 1 nodes must be indexable
    assert Grid(0.0, 1.0, top - 1).n == top - 1
    for n in (top, np.int64(top), 10**30):
        with pytest.raises(InputError, match="nodes an array can index"):
            Grid(0.0, 1.0, n)
    g = Grid(0.0, 2.0, 4)
    assert g.h == 0.5
    assert np.allclose(g.nodes, [0, 0.5, 1, 1.5, 2])


def test_grid_refuses_a_step_that_is_zero_or_not_finite():
    # finite endpoints whose difference overflows, and a step that underflows to 0
    for s0, s1, n in [(-1e308, 1e308, 4), (0.0, 5e-324, 10)]:
        with pytest.raises(InputError, match="finite nonzero step"):
            Grid(s0, s1, n)


def test_grid_nodes_and_weights_are_made_once_and_read_only():
    g = Grid(0.0, 2.0, 4)
    assert g.nodes is g.nodes and g.weights is g.weights
    assert g.weights.tolist() == [0.25, 0.5, 0.5, 0.5, 0.25]
    for cached in (g.nodes, g.weights):
        with pytest.raises(ValueError, match="read-only"):
            cached[1] = 7.0
    assert g == Grid(0.0, 2.0, 4) and hash(g) == hash(Grid(0.0, 2.0, 4))  # equal by their fields alone


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
    assert np.abs(w.T0.values).max() == 0.0
    assert np.abs(w.T1.values - v.T0.values).max() == 0.0


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

    w1 = wedge(u.T0, v.T1) - wedge(u.T1, v.T0) - wedge(u.T2, v.T3) + wedge(u.T3, v.T2)
    assert omega(1, u, v) == pytest.approx(w1, abs=1e-12)
    w2 = wedge(u.T1, v.T3) - wedge(u.T3, v.T1) + wedge(u.T0, v.T2) - wedge(u.T2, v.T0)
    assert omega(2, u, v) == pytest.approx(w2, abs=1e-12)


def test_omega_is_the_metric_against_the_rotated_tangent_bitwise(rng):
    # omega sums the signed pairings of u's component views; the bytes are
    # those of pairing the formed I_i u with v, on one tangent and on a chunk
    g = Grid(0.0, 1.0, 40)
    one = (random_tangent(SU2, g, rng), random_tangent(SU2, g, rng))
    chunk = tuple(NahmData._own(g, t) for t in _random_chunk(SU2, g, rng, CHUNK, ["tangent", "tangent"]))
    for u, v in (one, chunk):
        for i in (1, 2, 3):
            got, ref = np.asarray(omega(i, u, v)), np.asarray(l2_metric(complex_structure(i, u), v))
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    with pytest.raises(InputError, match="1, 2 or 3"):
        omega(4, *one)
    with pytest.raises(InputError, match="1, 2 or 3"):
        complex_structure(0, one[0])


@pytest.mark.parametrize("i", [True, 1.0, np.float64(2.0), "1"])
def test_complex_structure_index_is_an_int(rng, i):
    # a bool or a float equal to 1 was taken as I1
    u = random_tangent(SU2, Grid(0.0, 1.0, 10), rng)
    with pytest.raises(InputError, match="complex structure index"):
        complex_structure(i, u)
    with pytest.raises(InputError, match="complex structure index"):
        omega(i, u, u)
    assert complex_structure(np.int64(2), u).values.tobytes() == complex_structure(2, u).values.tobytes()


def test_paths_on_different_grids_are_refused(rng):
    # same node count, different interval: the node-wise sums would pair unrelated samples
    u, v = (random_tangent(SU2, Grid(0.0, s1, 10), rng) for s1 in (1.0, 2.0))
    for pair in (l2_metric, lambda a, b: omega(1, a, b)):
        with pytest.raises(InputError, match="different grids"):
            pair(u, v)


def test_metric_invariance_under_s1_block_rotation(rng):
    # rotating the (t1, t2, t3) blocks of both tangents is an isometry and
    # preserves omega_1 (the circle fixing I1)
    g = Grid(0.0, 1.0, 30)
    u = random_tangent(SU2, g, rng)
    v = random_tangent(SU2, g, rng)
    th = 1.1
    c, s = np.cos(th), np.sin(th)

    def rot(t):
        t2 = c * t.T2.values - s * t.T3.values
        t3 = s * t.T2.values + c * t.T3.values
        return NahmData.from_arrays(SU2, g, t.T0.values, t.T1.values, t2, t3)

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
        v.T0 = v.T1


def test_grid_rejects_non_integer_n():
    for n in (10.5, 10.0, "10"):
        with pytest.raises(InputError):
            Grid(0.0, 1.0, n)
    assert Grid(0.0, 1.0, np.int64(4)).nodes.shape == (5,)


def test_paths_reject_non_square_and_mixed_matrix_sizes():
    g = Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        AlgebraPath(g, np.zeros((5, 2, 3)))
    p2, p3 = AlgebraPath(g, np.zeros((5, 2, 2))), AlgebraPath(g, np.zeros((5, 3, 3)))
    with pytest.raises(ValueError):
        NahmData(SU2, p2, p3, p2, p2)
    with pytest.raises(ValueError):
        NahmData.from_arrays(SU2, g, p2.values, p2.values, p2.values, p3.values)
    with pytest.raises(ValueError):
        NahmData(SU2, p3, p3, p3, p3)  # su(2) data must be 2 x 2
    with pytest.raises(ValueError):
        NahmData(SU2, p2, p2, p3, p2)
    with pytest.raises(ValueError):
        NahmData.from_arrays(SU2, g, p3.values, p2.values, p2.values, p2.values)


def test_quadruples_copy_their_input():
    g = Grid(0.0, 1.0, 4)
    arrays = [np.zeros((5, 2, 2), dtype=complex) for _ in range(4)]
    records = (
        NahmData.from_arrays(SU2, g, *arrays),
        NahmData(SU2, *(AlgebraPath(g, a) for a in arrays)),
    )
    for a in arrays:
        a[0] = E1
    for r in records:
        assert not r.values.any()


def test_quadruples_are_read_only_stacks_with_component_views(rng):
    g = Grid(0.0, 1.0, 10)
    d = NahmData(SU2, *(random_smooth_path(SU2, g, rng) for _ in range(4)))
    v = random_tangent(SU2, g, rng)
    r = mu_nahm(d)
    assert (d.values.shape, v.values.shape, r.values.shape) == ((4, 11, 2, 2), (4, 11, 2, 2), (3, 11, 2, 2))
    assert d.algebra == SU2
    for values in (d.values, d.T1.values, v.values, v.T0.values, r.values, r.components[0].values):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = E1
    for whole, part in ((d, d.T1), (d, d.T3), (v, v.T0), (r, r.components[0]), (r, r.components[2])):
        assert np.shares_memory(whole.values, part.values)
    assert np.array_equal(d.T2.values, d.values[2]) and np.array_equal(r.components[1].values, r.values[1])
    with pytest.raises(FrozenInstanceError):
        r.values = d.values[1:]
    with pytest.raises(FrozenInstanceError):
        d.values = v.values


def test_read_only_input_made_writable_again_does_not_alias():
    g = Grid(0.0, 1.0, 4)
    a = np.zeros((5, 2, 2), dtype=complex)
    a.flags.writeable = False
    records = (AlgebraPath(g, a), NahmData.from_arrays(SU2, g, a, a, a, a))
    a.flags.writeable = True
    a[0] = E1
    for r in records:
        assert not np.shares_memory(r.values, a) and not r.values.any()


def test_path_derivative_keeps_the_bytes_of_the_expression(rng):
    # the interior rows are differenced and divided in place, the two operations
    # of (v[2:] - v[:-2]) / (2h), so every byte is that expression's, NaN included
    v = rng.standard_normal((301, 3, 4, 4)) + 1j * rng.standard_normal((301, 3, 4, 4))
    v[150, 1, 2, 3] = np.nan
    h = 0.37
    want = np.empty_like(v)
    want[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    want[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    want[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    assert path_derivative(v, h).tobytes() == want.tobytes()
