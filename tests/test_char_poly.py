"""``algebra.char_poly_coeffs`` takes each Faddeev-LeVerrier product as the
real product M[e].view(float) @ phi(P[d]), and the trace of its last one,
tr(M_k) = sum over d + e of tr(P[d] M[e]), from entrywise product-sums,
never forming M_k.  ``ref_char_poly_coeffs`` is the recursion that formed
every product, kept as the oracle, with complex products P[d] @ M[e] or,
with ``real_form``, the products as the package takes them:

* a_1 .. a_(k-1) come from the same products as the real-form oracle's and
  must equal it bit for bit, and the complex oracle's within 1e-16 relative
  to |P|^j = (sum_d |P[d]|)^j, the size a_j has before cancellation (a
  nilpotent pencil's a_j is rounding noise, so its own size is no scale);
* a_k sums the complex oracle's terms in another order and must stay within
  1e-12 of it, relative to |P|^k;
* against the exact a_k, its error must be as small as the complex oracle's;
* at k = 2 the only product is the traced one: no real form is built and
  every coefficient keeps the bytes of the recursion with complex products.

The exact a_k comes from the recursion in Gaussian integers, rounded once;
``test_exact_reference_agrees_with_50_digit_mpmath`` checks it against a
50-digit mpmath Faddeev-LeVerrier."""

from fractions import Fraction
from math import factorial

import mpmath
import numpy as np
import pytest

from nahmlab import algebra
from nahmlab.algebra import AlgebraSpec, char_poly_coeffs, su2_embed
from nahmlab.moment import lax_extract
from nahmlab.paths import Grid
from nahmlab.solver import coth_solution, integrate_nahm
from nahmlab.spectral import _pencil

from helpers import real_form_product

KS = [2, 3, 4, 5, 6]


def ref_char_poly_coeffs(P, real_form=False, traced=False):
    """Faddeev-LeVerrier with every product formed, M_k included: P[d] @ M[e],
    or with ``real_form`` M[e] times phi(P[d]); with ``traced``, M_k is traced
    from the entrywise pairings instead, as the package takes it."""
    P = np.asarray(P, dtype=complex)
    k, diag = P.shape[-1], np.arange(P.shape[-1])
    M, coeffs = P.copy(), []
    for j in range(1, k + 1):
        coeffs.append(0.0 - (M if traced and j == k else np.trace(M, axis1=-2, axis2=-1)) / j)
        if j < k:
            M[..., diag, diag] += coeffs[-1][..., None]
            pair = traced and j == k - 1
            nxt = np.zeros((len(M) + len(P) - 1,) + P.shape[1 : -2 if pair else None], dtype=complex)
            for d, e in np.ndindex(len(P), len(M)):
                if pair:
                    nxt[d + e] += (P[d].swapaxes(-1, -2) * M[e]).sum(axis=(-2, -1))
                else:
                    nxt[d + e] += real_form_product(M[e], P[d]) if real_form else P[d] @ M[e]
            M = nxt
    return coeffs


def exact_last_coeff(P):
    """a_k of the pencils P (deg+1, N, k, k), exact, then rounded once.

    Q = 2^S P has Gaussian-integer entries, and N_1 = Q, N_(j+1) =
    Q (j N_j - tr(N_j) I) keeps them integers: N_j = (j-1)! 2^(jS) M_j, so
    a_k = -tr(N_k) / (k! 2^(kS))."""
    k = P.shape[-1]
    parts = [[x.as_integer_ratio() for x in part.ravel().tolist()] for part in (P.real, P.imag)]
    S = max(den.bit_length() - 1 for part in parts for _, den in part)
    QR, QI = (np.array([num << (S - den.bit_length() + 1) for num, den in part], dtype=object).reshape(P.shape)
              for part in parts)
    NR, NI = QR, QI
    for j in range(1, k):
        tR, tI = np.trace(NR, axis1=-2, axis2=-1), np.trace(NI, axis1=-2, axis2=-1)
        AR, AI = j * NR, j * NI
        for i in range(k):
            AR[..., i, i] -= tR
            AI[..., i, i] -= tI
        shape = (len(NR) + len(QR) - 1,) + P.shape[1:]
        NR, NI = np.zeros(shape, dtype=object), np.zeros(shape, dtype=object)
        for d, e in np.ndindex(len(QR), len(AR)):
            NR[d + e] += QR[d] @ AR[e] - QI[d] @ AI[e]
            NI[d + e] += QR[d] @ AI[e] + QI[d] @ AR[e]
    den = factorial(k) << (k * S)
    tR, tI = np.trace(NR, axis1=-2, axis2=-1), np.trace(NI, axis1=-2, axis2=-1)
    rounded = np.vectorize(lambda a, b: complex(float(Fraction(-a, den)), float(Fraction(-b, den))), otypes=[complex])
    return rounded(tR, tI)


def mp_last_coeff(P):
    """a_k of one pencil (deg+1, k, k) by Faddeev-LeVerrier at 50 digits."""
    with mpmath.workdps(50):
        Pm = [mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in p]) for p in P]
        k, M = P.shape[-1], Pm
        for j in range(1, k):
            a = [-sum(m[i, i] for i in range(k)) / j for m in M]
            A = [m + c * mpmath.eye(k) for m, c in zip(M, a)]
            M = [sum((Pm[d] * A[g - d] for d in range(len(Pm)) if 0 <= g - d < len(A)), mpmath.zeros(k))
                 for g in range(len(A) + len(Pm) - 1)]
        return [complex(-sum(m[i, i] for i in range(k)) / k) for m in M]


def scale(P, j=None):
    """|P|^j node by node (j = k if not given): the size of a_j before cancellation."""
    return np.linalg.norm(P, axis=(-2, -1)).sum(axis=0) ** (P.shape[-1] if j is None else j)


def random_pencils(k, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((3, n, k, k)) + 1j * rng.standard_normal((3, n, k, k))


def spectral_pencils(k, n, seed):
    """The shape of the spectral pencil: (beta, alpha + alpha*, -beta*)."""
    alpha, beta = random_pencils(k, n, seed)[:2]
    return _pencil(alpha, beta)


def flow_pencils(k):
    """The pencils along a trajectory of the ``flow`` workload's kind: coth at
    su(2), the nil pole conjugated by a random unitary at su(k), k > 2."""
    spec = AlgebraSpec("su", k)
    if k == 2:
        grid = Grid(0.0, 5.0, 500)
        start = coth_solution(1.1, 1.0, grid)
        init = (start.T1.values[0], start.T2.values[0], start.T3.values[0])
    else:
        grid = Grid(0.0, 1.0, 200)
        rng = np.random.default_rng(k)
        U, R = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        U = U * (np.diagonal(R) / np.abs(np.diagonal(R)))
        init = tuple(U @ e @ U.conj().T for e in su2_embed(spec))
    alpha, beta = lax_extract(integrate_nahm(spec, init, grid))
    return _pencil(alpha, beta)


def cases(k):
    return {"random": random_pencils(k, 200, 10 + k), "spectral": spectral_pencils(k, 200, 20 + k),
            "flow": flow_pencils(k)}


# a_j against the complex oracle, relative to |P|^j: the largest measured on
# the pencils of ``cases`` at k = 3..6 is 2.6e-17
COMPLEX_ORACLE_REL = 1e-16


def assert_keeps_the_real_form_bits(P, name=None):
    got, want = char_poly_coeffs(P), ref_char_poly_coeffs(P, real_form=True)
    assert [c.shape for c in got] == [c.shape for c in want], name
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got[:-1], want[:-1])), name
    for j, (g, w) in enumerate(zip(got[:-1], ref_char_poly_coeffs(P)), start=1):
        assert np.max(np.abs(g - w) / scale(P, j)) <= COMPLEX_ORACLE_REL, (name, j)


@pytest.mark.parametrize("k", KS)
def test_all_but_the_last_coefficient_keep_their_bits(k):
    for name, P in cases(k).items():
        assert_keeps_the_real_form_bits(P, name)


@pytest.mark.parametrize("k", KS)
def test_last_coefficient_matches_the_oracle(k):
    for name, P in cases(k).items():
        got, want = char_poly_coeffs(P)[-1], ref_char_poly_coeffs(P)[-1]
        assert np.max(np.abs(got - want) / scale(P)) <= 1e-12, name


def test_unbatched_and_constant_pencils():
    # no node axis, and a degree-0 pencil: the characteristic polynomial of one
    # matrix, as ``solver.orbit_identify`` takes it
    P = random_pencils(4, 1, 3)[:, 0]
    for Q in (P, P[:1]):
        assert_keeps_the_real_form_bits(Q)
        got, want = char_poly_coeffs(Q)[-1], ref_char_poly_coeffs(Q)[-1]
        assert np.max(np.abs(got - want)) <= 1e-12 * scale(Q)


def test_su2_takes_no_product(monkeypatch):
    # at k = 2 the one product is traced, so every coefficient keeps the bytes
    # of the recursion with complex products: batched, unbatched and degree 0
    def refuse(*args):
        raise AssertionError("a real form at k = 2")

    P = random_pencils(2, 1, 4)[:, 0]
    pencils = [*cases(2).items(), ("unbatched", P), ("degree 0", P[:1])]
    monkeypatch.setattr(algebra, "_real_form", refuse)
    monkeypatch.setattr(algebra, "_cmatmul", refuse)
    for name, Q in pencils:
        got, want = char_poly_coeffs(Q), ref_char_poly_coeffs(Q, traced=True)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want], name


def test_exact_reference_agrees_with_50_digit_mpmath():
    # both are rounded once from values 1e-50 apart: equal to the last bit,
    # but for an exact zero that mpmath gets as 1e-51
    P = spectral_pencils(3, 4, 5)
    exact, size = exact_last_coeff(P), scale(P)
    for i in range(P.shape[1]):
        assert np.allclose(exact[:, i], mp_last_coeff(P[:, i]), rtol=2.0**-53, atol=1e-45 * size[i])


# nodes per k, sampled from the three kinds of pencil: enough that the RMS of
# an error of the oracle's size moves by a few percent from sample to sample
SAMPLE = {2: 600, 3: 450, 4: 300, 5: 150, 6: 90}


@pytest.mark.parametrize("k", KS)
def test_last_coefficient_is_as_accurate_as_the_oracle(k):
    # the pairing and the formed product add the same products in another
    # order, so their errors are of one size; "no worse" is an RMS over the
    # sample at most 10% above the oracle's (power sums with Newton's
    # identities, also measured, were 4 times worse at k = 6)
    rng = np.random.default_rng(k)
    P = np.concatenate(list(cases(k).values()), axis=1)
    P = P[:, rng.choice(P.shape[1], SAMPLE[k], replace=False)]
    exact = exact_last_coeff(P)
    rms = [np.sqrt(np.mean((np.abs(a[-1] - exact) / scale(P)) ** 2))
           for a in (char_poly_coeffs(P), ref_char_poly_coeffs(P))]
    assert rms[0] <= 1.1 * rms[1], rms
