import numpy as np
import pytest

from nahmlab.algebra import AlgebraSpec, bracket, su2_basis
from nahmlab.paths import Grid, NahmData, path_derivative, random_smooth_path, so3_rotate, sup_norm
from nahmlab.solver import coth_solution, nil_solution
from nahmlab.sympair import (
    SymmetricPairSpec,
    classify_real_orbit,
    flow_preserves_split,
    gstar_defect,
    is_gk_valued,
    kc_orbit_form_check,
    lax_pairs_13,
    split,
    tangent_transitivity_check,
    vergne_map,
    vergne_map_j,
)

SU2 = AlgebraSpec("su", 2)
SU3 = AlgebraSpec("su", 3)
E1, E2, E3 = su2_basis()
SO2 = SymmetricPairSpec(SU2, "transpose_conjugate")
B21 = SymmetricPairSpec(SU3, "block", 2, 1)


def validate(spec: SymmetricPairSpec, rng: np.random.Generator | None = None, samples: int = 20) -> float:
    """Max defect over: involutivity, automorphism property, bracket closure."""
    rng = np.random.default_rng(0) if rng is None else rng
    worst = 0.0
    for _ in range(samples):
        X = spec.base.random_element(rng)
        Y = spec.base.random_element(rng)
        worst = max(worst, float(np.linalg.norm(spec.theta(spec.theta(X)) - X)))
        worst = max(worst, float(np.linalg.norm(spec.theta(bracket(X, Y)) - bracket(spec.theta(X), spec.theta(Y)))))
    kb, mb = spec.k_basis(), spec.m_basis()
    if len(kb) + len(mb) != spec.base.dim ** 2 - 1:
        raise ValueError("basis does not split into theta eigenspaces")
    for A, B_, sign in ((kb, kb, -1.0), (kb, mb, 1.0), (mb, mb, -1.0)):
        for a in A:
            for b in B_:
                br = bracket(a, b)
                # [k,k] and [m,m] land in k, [k,m] in m
                worst = max(worst, float(np.linalg.norm(spec.theta(br) - (-sign) * br)))
    return worst


def km_init(spec, rng, scale=0.2):
    kb, mb = spec.k_basis(), spec.m_basis()
    T1 = sum(rng.standard_normal() * b for b in kb)
    T2 = sum(rng.standard_normal() * b for b in mb)
    T3 = sum(rng.standard_normal() * b for b in mb)
    nrm = max(np.linalg.norm(m) for m in (T1, T2, T3))
    return tuple(scale / nrm * m for m in (T1, T2, T3))


@pytest.mark.parametrize("spec", [SO2, B21])
def test_involution_is_automorphism(spec, rng):
    assert validate(spec, rng) <= 1e-12


def test_split_examples():
    # su(2)/so(2): e2 is real antisymmetric (fixed), e3 imaginary diagonal
    Xk, Xm = split(SO2, E2)
    assert np.abs(Xk - E2).max() < 1e-15 and np.abs(Xm).max() < 1e-15
    Xk, Xm = split(SO2, E3)
    assert np.abs(Xk).max() < 1e-15 and np.abs(Xm - E3).max() < 1e-15


@pytest.mark.parametrize("spec", [SO2, B21])
def test_split_orthogonal_and_idempotent(spec, rng):
    from nahmlab.algebra import pairing

    for _ in range(5):
        X = spec.base.random_element(rng)
        Xk, Xm = split(spec, X)
        assert np.abs(Xk + Xm - X).max() < 1e-13
        assert abs(pairing(spec.base, Xk, Xm)) < 1e-12
        assert np.abs(split(spec, Xk)[0] - Xk).max() < 1e-13
        assert np.abs(split(spec, Xm)[1] - Xm).max() < 1e-13


def test_is_gk_valued_crafted(rng):
    g = Grid(0.0, 1.0, 50)
    f = np.sin(np.pi * g.nodes)
    T0 = f[:, None, None] * E2[None]
    T1 = 0.3 * f[:, None, None] * E2[None]
    T2 = f[:, None, None] * E1[None]
    T3 = f[:, None, None] * E3[None]
    d = NahmData.from_arrays(SU2, g, T0, T1, T2, T3)
    assert is_gk_valued(SO2, d) < 1e-14
    generic = NahmData(SU2, *(random_smooth_path(SU2, g, rng) for _ in range(4)))
    assert is_gk_valued(SO2, generic) > 1e-2


def test_is_gk_valued_coth_after_axis_relabeling():
    # (T1,T2,T3) -> (T2,T1,-T3) is in SO(3) and puts the coth solution into
    # (g,k)-valued form for su(2)/so(2)
    d = coth_solution(1.0, 1.0, Grid(0.0, 1.0, 100))
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    perm = so3_rotate(A, d)
    assert is_gk_valued(SO2, perm) < 1e-14


@pytest.mark.parametrize("spec", [SO2, B21])
def test_flow_preserves_split(spec, rng):
    d, leak = flow_preserves_split(spec, km_init(spec, rng), Grid(0.0, 1.0, 1000))
    assert leak <= 1e-10


def test_flow_broken_init_leaks(rng):
    init = tuple(SU2.random_element(rng, 0.25) for _ in range(3))
    d, leak = flow_preserves_split(SO2, init, Grid(0.0, 1.0, 200))
    assert leak > 1e-2


def test_lax_containment_along_flow(rng):
    d, _ = flow_preserves_split(SO2, km_init(SO2, rng), Grid(0.0, 1.0, 500))
    (a1, b1), _ = lax_pairs_13(d)
    a1k, a1m = split(SO2, a1)
    b1k, b1m = split(SO2, b1)
    assert sup_norm(a1m) < 1e-12  # alpha1 in k tensor C
    assert sup_norm(b1k) < 1e-12  # beta1 in m tensor C


def test_lax_pairs_13_residuals_second_order():
    errs = {}
    for n in (500, 1000):
        d = nil_solution(SU2, Grid(0.0, 1.0, n))
        h = d.grid.h
        (a1, b1), (a3, b3) = lax_pairs_13(d)
        r1 = sup_norm(path_derivative(b1, h) - (b1 @ a1 - a1 @ b1))
        r3 = sup_norm(path_derivative(b3, h) - (b3 @ a3 - a3 @ b3))
        errs[n] = max(r1, r3)
        assert errs[n] <= 3.0 * h**2
    assert errs[500] / errs[1000] > 3.0


def test_lax_pairs_trivial_beta1():
    g = Grid(0.0, 1.0, 50)
    z = np.zeros((51, 2, 2), dtype=complex)
    f = np.cos(g.nodes)[:, None, None]
    d = NahmData.from_arrays(SU2, g, z, f * E2[None], z, z)
    (a1, b1), _ = lax_pairs_13(d)
    assert sup_norm(b1) == 0.0


def test_lax_pairs_13_gstar_valued(rng):
    # for (g,k)-valued data the I3 pair lands in the dual real form
    d, _ = flow_preserves_split(SO2, km_init(SO2, rng), Grid(0.0, 1.0, 300))
    _, (a3, b3) = lax_pairs_13(d)
    assert gstar_defect(SO2, a3) < 1e-12
    assert gstar_defect(SO2, b3) < 1e-12
    # su(2)/so(2): g* = sl(2,R), so both must be real matrices
    assert np.abs(a3.imag).max() < 1e-12
    assert np.abs(b3.imag).max() < 1e-12


def test_vergne_map_values():
    assert np.abs(vergne_map(1.0, 0.0) - np.array([[0.0, 1.0], [0.0, 0.0]])).max() == 0.0
    u, v = 0.8 + 0.2j, -1.1 + 0.5j
    assert np.abs(vergne_map(u, v) - vergne_map(-u, -v)).max() < 1e-15


def test_vergne_map_nilpotent(rng):
    for _ in range(10):
        u, v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        M = vergne_map(u, v)
        assert abs(np.trace(M)) < 1e-13
        assert np.abs(M @ M).max() < 1e-12
    with pytest.raises(ValueError):
        vergne_map(0.0, 0.0)


def test_vergne_map_j_values():
    want = np.array([[1j, 1.0], [1.0, -1j]])
    assert np.abs(vergne_map_j(1.0, 0.0) - want).max() < 1e-15
    assert np.abs(vergne_map_j(0.0, 1.0) + want).max() < 1e-15
    M = vergne_map_j(0.3 - 0.7j, 1.2 + 0.4j)
    assert np.abs(M @ M).max() < 1e-12


def test_classify_real_orbit():
    assert classify_real_orbit(1.0, 0.0) == "O_plus"
    assert classify_real_orbit(1j, 0.0) == "O_minus"
    assert classify_real_orbit(1.0, 1j) == "not_real"
    assert classify_real_orbit(0.4, -2.0) == "O_plus"
    assert classify_real_orbit(0.4j, -2.0j) == "O_minus"
    with pytest.raises(ValueError):
        classify_real_orbit(0.0, 0.0)


def test_kc_orbit_form_values():
    form, b = kc_orbit_form_check(vergne_map_j(1.0, 0.0))
    assert form == "plus_form" and abs(b - 1.0) < 1e-14
    x0, x2 = 0.9, -0.4
    form, b = kc_orbit_form_check(vergne_map_j(x0, x2))
    assert form == "plus_form"
    assert abs(b - (x0 - 1j * x2) ** 2) < 1e-13
    x1, x3 = -1.3, 0.6
    form, b = kc_orbit_form_check(vergne_map_j(1j * x1, 1j * x3))
    assert form == "minus_form"
    form, _ = kc_orbit_form_check(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert form == "neither"


def test_vergne_witness_end_to_end(rng):
    crossovers = 0
    for i in range(1000):
        x = rng.standard_normal(2)
        if i % 2 == 0:
            u, v = complex(x[0]), complex(x[1])
            expected = "plus_form"
            assert classify_real_orbit(u, v) == "O_plus"
        else:
            u, v = 1j * x[0], 1j * x[1]
            expected = "minus_form"
            assert classify_real_orbit(u, v) == "O_minus"
        form, b = kc_orbit_form_check(vergne_map_j(u, v))
        if form != expected or b is None or abs(b) == 0.0:
            crossovers += 1
    assert crossovers == 0


def test_tangent_transitivity_nilpotent():
    dims = tangent_transitivity_check(SO2, vergne_map(1.0, 0.0))
    assert dims == (1, 1)


def test_tangent_transitivity_semisimple():
    x = np.diag([1.0, -1.0]).astype(complex)  # symmetric traceless: in m^C
    dims = tangent_transitivity_check(SO2, x)
    assert dims[0] == dims[1]


def test_tangent_transitivity_zero():
    assert tangent_transitivity_check(SO2, np.zeros((2, 2))) == (0, 0)


def test_tangent_transitivity_su3(rng):
    # generic nilpotent in m^C for su(3)/s(u(2)+u(1))
    mb = B21.m_basis()
    x = mb[0] + 1j * mb[1]
    dims = tangent_transitivity_check(B21, x)
    assert dims[0] == dims[1]
