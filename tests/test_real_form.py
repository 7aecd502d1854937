"""The real form phi of complex k x k matrices (``algebra._real_form``), by
which the Nahm flow steps and every other complex product is taken
(``algebra._cmatmul``, ``bracket``): phi copies each entry a + ib into the
block [[a, b], [-b, a]], so phi(A) phi(C) = phi(AC) and the even rows of
phi(T) are T.view(float)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nahmlab.algebra import _cmatmul, _real_form, bracket, dagger

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
