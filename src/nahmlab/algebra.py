"""Dense complex matrix arithmetic and Lie-algebra structure for su(k).

The paper's sl(k,C) values (the Lax pair, the pencils, the Vergne map) are
plain complex arrays; only su(k) has an ``AlgebraSpec``.

Conventions used throughout the package:

* invariant pairing  <X, Y> = -Re tr(XY) (``pairing_nodes``), positive
  definite on su(k);
* su(2) spin basis   e_j = (i/2) sigma_j, so |e_j|^2 = 1/2 and
  [e1, e2] = -e3,  [e2, e3] = -e1,  [e3, e1] = -e2.

All operations are pure functions on immutable values and safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "InputError",
    "AlgebraSpec",
    "Su2Triple",
    "bracket",
    "char_poly_coeffs",
    "pairing",
    "pairing_nodes",
    "su2_basis",
    "su2_embed",
    "su2_embed_block",
    "su_basis",
    "su_coords",
    "su_from_coords",
    "ad_matrix",
    "dagger",
    "is_member",
    "project",
]


class InputError(ValueError):
    """An argument outside the domain a function accepts (a family, a size, a
    step, a point).  The CLI reports it as a config error; numerical failures
    are never raised as this type."""


def dagger(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose on the trailing two axes (batch friendly)."""
    return np.conj(np.swapaxes(A, -1, -2))


def _unit_scaled(X: np.ndarray) -> tuple:
    """(X 2^-e, max(|X|, 1) 2^-e, 2^-e), |X| the largest Frobenius norm in the
    stack, for the least e >= 0 that takes every real and imaginary part of X
    below 1 (all NaN if one is not finite).  The rescale is exact, so a test
    homogeneous in X decides the same on it, and there no norm or product overflows."""
    X = np.asarray(X, dtype=complex)
    big = max(float(np.max(np.abs(X.real), initial=0.0)), float(np.max(np.abs(X.imag), initial=0.0)))
    unit = 2.0 ** -max(int(np.frexp(big)[1]), 0) if np.isfinite(big) else np.nan
    with np.errstate(invalid="ignore"):  # an inf entry times the NaN unit is NaN, as the docstring says
        X = X * unit
    return X, max(float(np.max(np.linalg.norm(X, axis=(-2, -1)))), unit), unit


def _real_form(T: np.ndarray) -> np.ndarray:
    """phi(T), the real 2k x 2k form of complex k x k matrices (batched): entry a + ib
    becomes the block [[a, b], [-b, a]], so phi(A) phi(C) = phi(AC) and the even rows
    of phi(T) are T.view(float).  Built by copies and a product with -1, exact on
    signed zeros, which unlike np.negative keeps a NaN's sign as complex products do."""
    T = np.ascontiguousarray(T, dtype=complex)
    out = np.empty(T.shape[:-2] + (2 * T.shape[-2], 2 * T.shape[-1]))
    out[..., ::2, :] = T.view(float)
    out[..., 1::2, 1::2] = T.real
    np.multiply(T.imag, -1.0, out=out[..., 1::2, ::2])
    return out


def _cmatmul(X: np.ndarray, phi_Y: np.ndarray) -> np.ndarray:
    """The complex product XY, batched and broadcast, for Y given as its real form
    phi_Y = ``_real_form(Y)``: the rows X.view(float) times phi_Y are (XY).view(float),
    one real product.  A caller multiplying by one Y several times builds phi_Y once."""
    return (np.ascontiguousarray(X, dtype=complex).view(float) @ phi_Y).view(complex)


def bracket(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix commutator [X, Y] = XY - YX, the general one of sl(k, C)."""
    return X @ Y - Y @ X


def _su_bracket(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[X, Y] for X, Y in su(k) (batched and broadcast) as P - P^dag, P = XY: on
    skew-Hermitian matrices YX = (XY)^dag, so one real form and one real product
    (``_cmatmul``) serve, and the result is exactly skew-Hermitian.  Off su(k) it
    differs from XY - YX by about |X + X^dag| |Y| + |X| |Y + Y^dag|: for such
    arguments use ``bracket``."""
    P = _cmatmul(X, _real_form(Y))
    return P - dagger(P)


def char_poly_coeffs(P: np.ndarray) -> list:
    """[a_1, ..., a_k] with det(eta - P(zeta)) = eta^k + a_1 eta^(k-1) + ... + a_k
    for P(zeta) = sum_d P[d] zeta^d, given as (deg+1, ..., k, k) and batched
    over the middle axes; a_j has shape (j deg + 1, ...), ascending in zeta.

    Faddeev-LeVerrier: M_1 = P, a_j = -tr(M_j)/j, M_(j+1) = (M_j + a_j I) P,
    each product a convolution in zeta: exact up to rounding, no eigenvalues.
    Each product is a real product, M[e] times phi(P[d]) (``_cmatmul``), with
    phi(P) built once; M_j is a polynomial in P, so it is P (M_j + a_j I) as
    well.  M_k is only traced, never formed: tr(P[d] M[e]) is an entrywise
    product-sum, so at k = 2 no product is taken and no phi is built.
    """
    P = np.asarray(P, dtype=complex)
    k, diag = P.shape[-1], np.arange(P.shape[-1])
    phi = _real_form(P) if k > 2 else None
    M, tr, coeffs = P.copy(), np.trace(P, axis1=-2, axis2=-1), []
    for j in range(1, k + 1):
        coeffs.append(0.0 - tr / j)  # 0.0 - x: never a negative zero
        if j < k:
            M[..., diag, diag] += coeffs[-1][..., None]
            last = j == k - 1
            nxt = np.zeros((len(M) + len(P) - 1,) + P.shape[1 : -2 if last else None], dtype=complex)
            for d, e in np.ndindex(len(P), len(M)):  # one degree slice at a time
                nxt[d + e] += (P[d].swapaxes(-1, -2) * M[e]).sum(axis=(-2, -1)) if last else _cmatmul(M[e], phi[d])
            M, tr = nxt, nxt if last else np.trace(nxt, axis1=-2, axis2=-1)
    return coeffs


def is_member(X: np.ndarray, tol: float = 1e-10) -> bool:
    """Whether k x k matrices X (batched) lie in su(k): their defect max(|tr X| /
    sqrt(k), |X + X^dag|) <= tol max(|X|, 1), decided on X rescaled by
    ``_unit_scaled``, so an entry that is not finite is never a member."""
    X = np.asarray(X, dtype=complex)
    if X.ndim < 2 or X.shape[-2] != X.shape[-1]:
        return False
    X, scale, _ = _unit_scaled(X)
    trace = float(np.max(np.abs(np.trace(X, axis1=-2, axis2=-1)))) / np.sqrt(X.shape[-1])
    return bool(np.max([trace, np.max(np.linalg.norm(X + dagger(X), axis=(-2, -1)))]) <= tol * scale)  # NaN fails


def project(X: np.ndarray) -> np.ndarray:
    """Nearest traceless skew-Hermitian matrix, batched."""
    # exact halves first, so no element of su(k) overflows; the complex product
    # with 1 then signs each zero as the complex product 0.5 * (X - X^dag) did
    X = (0.5 * np.ascontiguousarray(X, dtype=complex).view(float)).view(complex)
    X = 1.0 * (X - X.conj().swapaxes(-1, -2))
    k = X.shape[-1]
    # the scaled identity comes off every entry: a diagonal-only update would
    # sign some off-diagonal zeros differently, changing every trajectory
    return X - (X.trace(axis1=-2, axis2=-1) / k)[..., None, None] * np.eye(k)


@dataclass(frozen=True)
class AlgebraSpec:
    """The algebra su(k) of traceless skew-Hermitian k x k matrices, for the
    makers of matrices that must be told k; ``family`` must be 'su'."""

    family: str
    dim: int

    def __post_init__(self):
        if self.family != "su":
            raise InputError(f"unknown family {self.family!r}")
        if not isinstance(self.dim, (int, np.integer)) or not 2 <= self.dim or 16 * int(self.dim) ** 2 > np.iinfo(np.intp).max:
            raise InputError(f"dim must be an integer >= 2 whose k x k complex matrix numpy can size, got {self.dim!r}")

    def random_element(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        Z = rng.standard_normal((self.dim, self.dim)) + 1j * rng.standard_normal((self.dim, self.dim))
        return scale * project(Z)


def pairing_nodes(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Node-wise invariant pairing -Re tr(X_n Y_n)."""
    return -np.einsum("...pq,...qp->...", X, Y).real


def pairing(X: np.ndarray, Y: np.ndarray) -> float:
    """Invariant scalar product of two k x k matrices."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1] or Y.shape != X.shape:
        raise InputError("dimension mismatch in pairing")
    return float(pairing_nodes(X, Y))


class Su2Triple(NamedTuple):
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray


def su2_basis() -> Su2Triple:
    """The standard triple e_j = (i/2) sigma_j in su(2)."""
    e1 = 0.5j * np.array([[0, 1], [1, 0]], dtype=complex)
    e2 = 0.5j * np.array([[0, -1j], [1j, 0]], dtype=complex)
    e3 = 0.5j * np.array([[1, 0], [0, -1]], dtype=complex)
    return Su2Triple(e1, e2, e3)


def _spin_matrices(k: int):
    """Hermitian spin-(k-1)/2 matrices J1, J2, J3 with [Ja, Jb] = i eps_abc Jc."""
    j = (k - 1) / 2.0
    m = j - np.arange(k)
    J3 = np.diag(m).astype(complex)
    Jp = np.zeros((k, k), dtype=complex)
    for r in range(1, k):
        # raising operator connects |j, m_r> to |j, m_r + 1>
        Jp[r - 1, r] = np.sqrt(j * (j + 1) - m[r] * (m[r] + 1))
    Jm = Jp.conj().T
    J1 = 0.5 * (Jp + Jm)
    J2 = -0.5j * (Jp - Jm)
    return J1, J2, J3


def su2_embed(spec: AlgebraSpec) -> Su2Triple:
    """Irreducible embedding su(2) -> su(k): sigma(e_a) = i Ja, spin (k-1)/2.

    The images satisfy the same bracket relations as (e1, e2, e3); for k = 2
    this is the identity embedding.
    """
    return su2_embed_block(spec, spec.dim)


def su2_embed_block(spec: AlgebraSpec, m: int) -> Su2Triple:
    """Irreducible m-dimensional embedding padded with a trivial summand."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or not 2 <= m <= spec.dim:
        raise InputError(f"block size must be an integer in [2, {spec.dim}], got {m!r}")
    out = np.zeros((3, spec.dim, spec.dim), dtype=complex)
    out[:, :m, :m] = 1j * np.stack(_spin_matrices(m))
    return Su2Triple(*out)


@lru_cache(maxsize=None)
def su_basis(k: int) -> np.ndarray:
    """Orthonormal basis of su(k) for the invariant pairing, shape (k^2-1, k, k).

    Off-diagonal pairs (E_ab - E_ba)/sqrt2 and i(E_ab + E_ba)/sqrt2, then the
    diagonal family i diag(1,..,1,-a,0,..)/sqrt(a(a+1)).
    """
    mats = []
    for a in range(k):
        for b in range(a + 1, k):
            M = np.zeros((k, k), dtype=complex)
            M[a, b] = 1.0
            M[b, a] = -1.0
            mats.append(M / np.sqrt(2.0))
            M = np.zeros((k, k), dtype=complex)
            M[a, b] = 1j
            M[b, a] = 1j
            mats.append(M / np.sqrt(2.0))
    for a in range(1, k):
        d = np.zeros(k)
        d[:a] = 1.0
        d[a] = -a
        mats.append(1j * np.diag(d) / np.sqrt(a * (a + 1.0)))
    B = np.array(mats)
    B.flags.writeable = False
    return B


def su_coords(X: np.ndarray) -> np.ndarray:
    """Real coordinates <X, e_i> of su(k) matrices in the orthonormal basis, batched.
    As e_i^dag = -e_i, <X, e_i> = Re tr(X e_i^dag) is the dot product of the float
    views of X and e_i: one real product with the basis's float table, transposed."""
    X = np.ascontiguousarray(X, dtype=complex)
    B = su_basis(X.shape[-1])
    out = X.view(float).reshape(-1, 2 * X.shape[-2] * X.shape[-1]) @ B.view(float).reshape(len(B), -1).T
    return out.reshape(X.shape[:-2] + (len(B),))


def su_from_coords(c: np.ndarray, k: int) -> np.ndarray:
    """sum_i c_i e_i of real coordinates c (..., k^2 - 1), batched: one real product
    of c and the basis's float table (d, 2k^2), written into the output's float view."""
    B = su_basis(k)
    c = np.asarray(c, dtype=float)
    out = np.empty(c.shape[:-1] + (k, k), dtype=complex)
    np.matmul(c.reshape(-1, c.shape[-1]), B.view(float).reshape(len(B), -1), out=out.view(float).reshape(-1, 2 * k * k))
    return out


def ad_matrix(X: np.ndarray) -> np.ndarray:
    """Matrix of rho |-> [rho, X] on su(k) in the orthonormal basis, batched
    over leading axes: entry (i, j) is <e_i, [e_j, X]> = <[e_i, e_j], X>."""
    X = np.asarray(X, dtype=complex)
    B = su_basis(X.shape[-1])
    structure = B[:, None] @ B[None] - B[None] @ B[:, None]  # [e_i, e_j]
    return -np.einsum("ijpq,...qp->...ij", structure, X, optimize=True).real
