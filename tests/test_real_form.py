"""The real form phi of complex k x k matrices (``algebra._real_form``), by
which the Nahm flow steps and every other complex product is taken
(``algebra._cmatmul``, ``bracket``, ``_su_bracket``): phi copies each entry
a + ib into the block [[a, b], [-b, a]], so phi(A) phi(C) = phi(AC) and the
even rows of phi(T) are T.view(float)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nahmlab.algebra import AlgebraSpec, _cmatmul, _real_form, _su_bracket, bracket, dagger, su_from_coords
from nahmlab.paths import Grid
from nahmlab.solver import integrate_nahm

EPS = np.finfo(float).eps
SIZES = st.integers(2, 6)


def complex_stacks(lead, k, elements):
    """(lead, k, k) complex arrays whose real and imaginary parts are drawn from ``elements``."""
    return hnp.arrays(float, lead + (k, 2 * k), elements=elements).map(lambda a: a.view(complex))


ANY = st.floats(allow_nan=True, allow_infinity=True)  # signed zeros, subnormals, NaN and inf included
# exact zeros of either sign, else magnitudes whose products stay normal
MODERATE = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, -1e-30) | st.floats(1e-30, 1e3)


def frobenius(X):
    """The largest Frobenius norm in a stack, taken on X / max |x| so that no square underflows."""
    big = float(np.max(np.abs(X), initial=0.0))
    return big * float(np.max(np.linalg.norm(X / big, axis=(-2, -1)))) if big > 0 else 0.0


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data(), k=SIZES)
def test_even_rows_are_the_complex_bytes(data, k):
    T = data.draw(complex_stacks((2,), k, ANY))
    phi = _real_form(T)
    assert phi.shape == (2, 2 * k, 2 * k)
    assert phi[..., ::2, :].tobytes() == T.view(float).tobytes()
    # the odd rows: the real parts copied, the imaginary parts times -1
    assert phi[..., 1::2, 1::2].tobytes() == np.ascontiguousarray(T.real).tobytes()
    assert phi[..., 1::2, ::2].tobytes() == (-1.0 * T.imag).tobytes()


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data(), k=SIZES)
def test_real_form_product_is_the_complex_product(data, k):
    A, C = (data.draw(complex_stacks((3,), k, MODERATE)) for _ in range(2))
    P = _real_form(A) @ _real_form(C)
    even = np.ascontiguousarray(P[..., ::2, :]).view(complex)
    bound = 8 * k * EPS * frobenius(A) * frobenius(C)
    assert np.abs(even - A @ C).max() <= bound
    # the odd rows repeat the even ones, negated and swapped, to rounding
    assert np.abs(P[..., 1::2, 1::2] - P[..., ::2, ::2]).max() <= 2 * bound
    assert np.abs(P[..., 1::2, ::2] + P[..., ::2, 1::2]).max() <= 2 * bound


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data(), k=SIZES)
def test_bracket_is_exactly_antisymmetric(data, k):
    # both orders take the same two products, so each entry of [Y, X] is the
    # exact negative of [X, Y]; only an exact cancellation, +0 both ways,
    # differs in the sign bit, so the bytes are compared off the zeros
    X, Y = (data.draw(complex_stacks((4,), k, MODERATE)) for _ in range(2))
    B, minus = bracket(X, Y).view(float), (-bracket(Y, X)).view(float)
    assert np.array_equal(B, minus)
    assert B[B != 0].tobytes() == minus[B != 0].tobytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), k=SIZES, nodes=st.integers(1, 9))
def test_bracket_matches_the_complex_commutator(data, k, nodes):
    # on node stacks and on broadcast (k, k) x (n+1, k, k) pairs, both ways round
    X, Y = (data.draw(complex_stacks((nodes,), k, MODERATE)) for _ in range(2))
    single = data.draw(complex_stacks((), k, MODERATE))
    for A, C in ((X, Y), (single, Y), (X, single)):
        got, want = bracket(A, C), A @ C - C @ A
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 8 * k * EPS * frobenius(A) * frobenius(C)


def test_bracket_takes_strided_views():
    # a transposed or sliced operand is read as its values, not its memory
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    Y = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    Xt, Ys = X.swapaxes(-1, -2), Y[::-1]
    assert np.array_equal(bracket(Xt, Ys), bracket(Xt.copy(), Ys.copy()))
    assert np.abs(bracket(Xt, Ys) - (Xt @ Ys - Ys @ Xt)).max() <= 8 * 4 * EPS * frobenius(X) * frobenius(Y)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data(), k=SIZES, nodes=st.integers(1, 9))
def test_cmatmul_is_the_complex_product(data, k, nodes):
    # on node stacks and on broadcast (k, k) x (n+1, k, k) pairs, both ways round
    X, Y = (data.draw(complex_stacks((nodes,), k, MODERATE)) for _ in range(2))
    single = data.draw(complex_stacks((), k, MODERATE))
    for A, C in ((X, Y), (single, Y), (X, single)):
        got, want = _cmatmul(A, _real_form(C)), A @ C
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 8 * k * EPS * frobenius(A) * frobenius(C)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data(), k=SIZES)
def test_cmatmul_reads_strided_and_dagger_views_as_their_values(data, k):
    # a sliced, transposed or conjugated operand is read as its values, not its
    # memory; and phi(Y) transposed, a view, is phi(Y^dag), so it gives the
    # bytes of the product with Y^dag
    X, Y = (data.draw(complex_stacks((6,), k, MODERATE)) for _ in range(2))
    for A, C in ((X[::2], Y[1::2]), (X.swapaxes(-1, -2), Y[::-1]), (dagger(X), dagger(Y))):
        assert _cmatmul(A, _real_form(C)).tobytes() == _cmatmul(A.copy(), _real_form(C.copy())).tobytes()
    assert _cmatmul(X, _real_form(Y).swapaxes(-1, -2)).tobytes() == _cmatmul(X, _real_form(dagger(Y))).tobytes()


def su_stacks(lead, k, elements):
    """(lead, k, k) elements of su(k): real coordinates drawn from ``elements``, mapped
    by ``su_from_coords``, exactly skew-Hermitian (every entry a single product or a sum)."""
    return hnp.arrays(float, lead + (k * k - 1,), elements=elements).map(lambda c: su_from_coords(c, k))


def skew_defect(B):
    return np.abs(B + dagger(B)).max(initial=0.0)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data(), k=SIZES)
def test_su_bracket_is_exactly_skew_hermitian_for_any_input(data, k):
    # entry (p, q) is P_pq - conj(P_qp) and entry (q, p) its exact negated conjugate,
    # so B + B^dag is zero wherever B is finite; NaNs and infs sit symmetrically
    X, Y = (data.draw(complex_stacks((3,), k, elements)) for elements in (ANY, MODERATE))
    for A, C in ((X, Y), (Y, X), (Y, Y[::-1])):
        with np.errstate(all="ignore"):  # inf times 0 and inf - inf are NaN
            B = _su_bracket(A, C)
        assert np.array_equal(B, -dagger(B), equal_nan=True)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data(), k=SIZES, nodes=st.integers(1, 9))
def test_su_bracket_matches_the_complex_commutator_on_su(data, k, nodes):
    # on su(k), YX = (XY)^dag: both forms lie within 8 k eps |X| |Y| of XY - YX
    X, Y = (data.draw(su_stacks((nodes,), k, MODERATE)) for _ in range(2))
    single = data.draw(su_stacks((), k, MODERATE))
    for A, C in ((X, Y), (single, Y), (X, single)):
        got, want = _su_bracket(A, C), A @ C - C @ A
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 8 * k * EPS * frobenius(A) * frobenius(C)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_su_bracket_is_skew_hermitian_on_rk4_paths(k):
    # RK4 keeps su(k) only to rounding; the commutator of its samples inherits the
    # defect, P - P^dag has none, and the two stay within the product's rounding
    spec, rng = AlgebraSpec("su", k), np.random.default_rng(k)
    T = integrate_nahm(spec, tuple(spec.random_element(rng, 0.3) for _ in range(3)), Grid(0.0, 0.25, 100)).values
    A, C = T[1], T[2]
    assert skew_defect(_su_bracket(A, C)) == 0.0
    assert skew_defect(bracket(A, C)) <= 8 * k * EPS * frobenius(A) * frobenius(C)
    assert np.abs(_su_bracket(A, C) - bracket(A, C)).max() <= 16 * k * EPS * frobenius(A) * frobenius(C)


@pytest.mark.parametrize("k", [2, 3, 6])
def test_su_bracket_off_su_stays_within_its_stated_bound(k):
    # off su(k), XY - YX - (P - P^dag) = -Y (X + X^dag) - (Y + Y^dag) X to first order:
    # the helper's docstring bound, here for data off su(k) by about 1e-8
    rng = np.random.default_rng(30 + k)
    spec = AlgebraSpec("su", k)
    X, Y = (np.array([spec.random_element(rng) for _ in range(20)]) for _ in range(2))
    X = X + 1e-8 * (rng.standard_normal(X.shape) + 1j * rng.standard_normal(X.shape))
    Y = Y + 1e-8 * (rng.standard_normal(Y.shape) + 1j * rng.standard_normal(Y.shape))
    norm = lambda M: np.linalg.norm(M, axis=(-2, -1))
    gap = norm(_su_bracket(X, Y) - bracket(X, Y))
    bound = norm(X + dagger(X)) * norm(Y) + norm(X) * norm(Y + dagger(Y))
    assert np.all(gap <= bound + 16 * k * EPS * norm(X) * norm(Y))
    assert np.all(gap > 1e-3 * bound)  # the bound is of the defect's size, not a rounding allowance
