import math

import numpy as np
import pytest

from nahmlab.algebra import (
    AlgebraSpec,
    InputError,
    ad_matrix,
    bracket,
    is_member,
    pairing,
    project,
    su2_basis,
    su2_embed,
    su2_embed_block,
    su_basis,
    su_coords,
    su_from_coords,
)

SU2 = AlgebraSpec("su", 2)
EPS = np.finfo(float).eps
E1, E2, E3 = su2_basis()


def test_bracket_antisymmetry(rng):
    X = SU2.random_element(rng)
    assert np.abs(bracket(X, X)).max() == 0.0


def test_bracket_su2_relations():
    # direct 2x2 multiplication oracle
    prod = E1 @ E2 - E2 @ E1
    assert np.abs(prod + E3).max() < 1e-15
    assert np.abs(bracket(E1, E2) + E3).max() < 1e-15
    assert np.abs(bracket(E2, E3) + E1).max() < 1e-15
    assert np.abs(bracket(E3, E1) + E2).max() < 1e-15


def test_bracket_scaled_example():
    expected = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)  # -2 e2
    assert np.abs(bracket(2.0 * E3, E1) - expected).max() < 1e-15


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        bracket(np.eye(2), np.eye(3))


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_jacobi_identity(k, rng):
    spec = AlgebraSpec("su", k)
    for _ in range(5):
        X, Y, Z = (spec.random_element(rng) for _ in range(3))
        jac = bracket(X, bracket(Y, Z)) + bracket(Y, bracket(Z, X)) + bracket(Z, bracket(X, Y))
        scale = np.linalg.norm(X) * np.linalg.norm(Y) * np.linalg.norm(Z)
        assert np.linalg.norm(jac) <= 1e-12 * scale


def test_pairing_values():
    # oracle: e1^2 = -I/4, so -tr(e1^2) = 1/2
    assert abs(-np.trace(E1 @ E1).real - 0.5) < 1e-15
    assert abs(pairing(E1, E1) - 0.5) < 1e-15
    assert abs(pairing(E1, E2)) < 1e-15


@pytest.mark.parametrize("X, Y", [(E1, np.zeros((3, 3))), (E1, np.zeros(2)), (np.zeros((2, 3)), np.zeros((2, 3)))])
def test_pairing_refuses_mismatched_shapes(X, Y):
    with pytest.raises(InputError, match="dimension mismatch"):
        pairing(X, Y)


def test_pairing_ad_invariance(rng):
    assert abs(pairing(bracket(E3, E1), E2) + pairing(E1, bracket(E3, E2))) < 1e-15
    spec = AlgebraSpec("su", 3)
    for _ in range(5):
        X, Y, Z = (spec.random_element(rng) for _ in range(3))
        lhs = pairing(bracket(Z, X), Y) + pairing(X, bracket(Z, Y))
        assert abs(lhs) < 1e-12 * np.linalg.norm(X) * np.linalg.norm(Y) * np.linalg.norm(Z)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_pairing_positive_definite(k, rng):
    spec = AlgebraSpec("su", k)
    mats = [spec.random_element(rng) for _ in range(min(k * k - 1, 6))]
    gram = np.array([[pairing(a, b) for b in mats] for a in mats])
    assert np.abs(gram - gram.T).max() < 1e-12
    assert np.linalg.eigvalsh(gram).min() > 0


def test_su2_triple_invariants():
    for e in (E1, E2, E3):
        assert abs(np.trace(e)) < 1e-15
        assert np.abs(e + e.conj().T).max() < 1e-15


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_su2_embed_relations(k):
    spec = AlgebraSpec("su", k)
    s = su2_embed(spec)
    if k == 2:
        for a, b in zip(s, (E1, E2, E3)):
            assert np.abs(a - b).max() < 1e-15
    assert np.abs(bracket(s.e1, s.e2) + s.e3).max() < 1e-12
    assert np.abs(bracket(s.e2, s.e3) + s.e1).max() < 1e-12
    assert np.abs(bracket(s.e3, s.e1) + s.e2).max() < 1e-12
    for a in s:
        assert is_member(a)


def test_su2_embed_k3_pairing():
    spec = AlgebraSpec("su", 3)
    s = su2_embed(spec)
    # sigma(e3) = i diag(1, 0, -1); -tr of its square is 2
    assert np.abs(s.e3 - 1j * np.diag([1.0, 0.0, -1.0])).max() < 1e-14
    assert abs(pairing(s.e3, s.e3) - 2.0) < 1e-12


def test_su2_embed_block():
    spec = AlgebraSpec("su", 4)
    s = su2_embed_block(spec, 2)
    assert np.abs(s.e1[:2, :2] - E1).max() < 1e-15
    assert np.abs(s.e1[2:, :]).max() == 0.0
    assert np.abs(bracket(s.e1, s.e2) + s.e3).max() < 1e-14


@pytest.mark.parametrize("m", [1.5, 2.0, 2.5, True])
def test_su2_embed_block_refuses_a_size_that_is_not_an_integer(m):
    with pytest.raises(InputError, match="block size must be an integer"):
        su2_embed_block(AlgebraSpec("su", 3), m)


def test_su2_embed_block_takes_a_numpy_integer():
    spec = AlgebraSpec("su", 3)
    assert np.array_equal(np.stack(su2_embed_block(spec, np.int64(2))), np.stack(su2_embed_block(spec, 2)))


def test_membership():
    assert is_member(E1)
    assert not is_member(np.diag([1.0, -1.0]))  # Hermitian, not skew
    with pytest.raises(InputError):
        AlgebraSpec("sl_complex", 2)


@pytest.mark.parametrize("dim", [2.5, 10**30, math.isqrt(np.iinfo(np.intp).max // 16) + 1])
def test_algebra_spec_rejects_a_dim_numpy_cannot_size(dim):
    # the last is the least dim whose k x k complex identity overflows numpy's
    # byte count: rejected before any array is made
    with pytest.raises(InputError, match="integer >= 2"):
        AlgebraSpec("su", dim)


def test_member_defect_keeps_a_nan():
    # inf + (-inf) in X + X^dag is NaN: no defect, so no member
    X = np.array([[0.0, np.inf], [-np.inf, 0.0]], dtype=complex)
    with np.errstate(invalid="ignore"):
        assert np.isnan(np.max([abs(np.trace(X)) / np.sqrt(2), np.linalg.norm(X + X.conj().T)]))
        assert not is_member(X)


@pytest.mark.parametrize("big", [1e200, 1e300])
def test_is_member_decides_large_finite_entries(big, rng):
    # the norms of these entries overflow; the test is decided on an exact
    # power-of-two rescale, so a Hermitian matrix is no member at any size
    X = np.stack([SU2.random_element(rng) for _ in range(3)])
    assert is_member(big * X)
    assert not is_member(1j * big * X)
    assert not is_member(big * X + big * np.eye(2))
    assert is_member(big * X + 1e-12 * big * np.eye(2), tol=1e-8)


def test_is_member_refuses_an_infinite_entry():
    assert not is_member(np.array([[np.inf, 0.0], [0.0, 0.0]], dtype=complex))


def test_project_idempotent(rng):
    Z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    P = project(Z)
    assert is_member(P)
    assert np.abs(project(P) - P).max() < 1e-15


def test_project_does_not_overflow_near_the_largest_float(rng):
    # X - X^dag of an element with entries past 9e307 overflows; the halves do not
    assert np.array_equal(project(np.diag([1e308j, -1e308j])), np.diag([1e308j, -1e308j]))
    spec = AlgebraSpec("su", 3)
    X = spec.random_element(rng)
    big = X * (0.9 * np.finfo(float).max / np.abs(X).max())
    P = project(big)
    assert np.all(np.isfinite(P))
    assert np.abs(P - big).max() <= 1e-15 * np.abs(big).max()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_su_basis_orthonormal(k):
    B = su_basis(k)
    assert B.shape == (k * k - 1, k, k)
    gram = -np.einsum("ipq,jqp->ij", B, B).real
    assert np.abs(gram - np.eye(k * k - 1)).max() < 1e-13


def test_su_coords_roundtrip(rng):
    spec = AlgebraSpec("su", 3)
    X = spec.random_element(rng)
    assert np.abs(su_from_coords(su_coords(X), 3) - X).max() < 1e-13


def test_ad_matrix_consistency(rng):
    spec = AlgebraSpec("su", 3)
    X = spec.random_element(rng)
    R = spec.random_element(rng)
    lhs = ad_matrix(X) @ su_coords(R)
    rhs = su_coords(bracket(R, X))
    assert np.abs(lhs - rhs).max() < 1e-12


def einsum_from_coords(c, k):
    """sum_i c_i e_i, one complex multiply-add per term: the independent oracle."""
    return np.einsum("...i,ipq->...pq", np.asarray(c, dtype=float), su_basis(k))


def test_su_from_coords_keeps_the_einsum_bytes_at_su2():
    # every entry of su(2) is a single term or a sum with exact zeros, signed zeros included
    rng = np.random.default_rng(8)
    c = rng.standard_normal((301, 3))
    c[::4, 0], c[1::4, 1], c[2::4, 2], c[3::4] = 0.0, -0.0, 0.0, -0.0
    assert su_from_coords(c, 2).tobytes() == einsum_from_coords(c, 2).tobytes()
    assert su_from_coords(c[5], 2).tobytes() == einsum_from_coords(c[5], 2).tobytes()


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_coordinate_maps_meet_the_einsum_oracle(k):
    # off the diagonal both maps take the one nonzero term; a diagonal entry sums
    # at most k - 1 terms, within gamma_(k-1) |c| each way (Higham 2002, sec. 3.1),
    # so sqrt(k) such entries part by 2 (k - 1) sqrt(k) eps |c| at most
    rng = np.random.default_rng(k)
    c = rng.standard_normal((4, 101, 2, k * k - 1)) * np.exp(rng.uniform(-5.0, 5.0, (4, 101, 2, 1)))
    X, norm_c = su_from_coords(c, k), np.linalg.norm(c, axis=-1)
    assert X.shape == (4, 101, 2, k, k)
    assert np.all(np.linalg.norm(X - einsum_from_coords(c, k), axis=(-2, -1)) <= 2 * (k - 1) * math.sqrt(k) * EPS * norm_c)
    # each coordinate sums at most 2k nonzero products of X's parts
    want = -np.einsum("...pq,iqp->...i", X, su_basis(k)).real
    assert np.all(np.linalg.norm(su_coords(X) - want, axis=-1) <= 4 * k * EPS * np.linalg.norm(X, axis=(-2, -1)))
    assert np.all(np.linalg.norm(su_coords(X) - c, axis=-1) <= 8 * k * EPS * norm_c)
