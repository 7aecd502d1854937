"""Symmetric pairs g = k (+) m, (g,k)-valued Nahm solutions, the I1/I3 Lax
pairs, and the explicit sl(2) witness of the Kostant-Sekiguchi correspondence
via the Vergne map.

Two involution families are provided:

* ``transpose_conjugate``: theta(Z) = -Z^T.  On su(n) this is entrywise
  conjugation, fixing so(n); m is the space of imaginary symmetric matrices.
  The same formula is the complex-linear extension to sl(n, C).
* ``block(p, q)``: theta(Z) = I_{p,q} Z I_{p,q}, fixing s(u(p) + u(q)); m is
  the pair of off-diagonal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, InputError, bracket, dagger, su_basis
from .moment import lax_extract
from .paths import NahmData, sup_norm
from .solver import integrate_nahm

__all__ = [
    "SymmetricPairSpec",
    "split",
    "is_gk_valued",
    "gstar_defect",
    "flow_preserves_split",
    "lax_pairs_13",
    "vergne_map",
    "vergne_map_j",
    "classify_real_orbit",
    "kc_orbit_form_check",
    "tangent_transitivity_check",
]

PLUS_FORM = np.array([[1j, 1.0], [1.0, -1j]], dtype=complex)
MINUS_FORM = np.array([[-1j, 1.0], [1.0, 1j]], dtype=complex)


@dataclass(frozen=True)
class SymmetricPairSpec:
    """An involution theta splitting the base algebra into k (+) m."""

    base: AlgebraSpec
    kind: str
    p: int = 0
    q: int = 0

    def __post_init__(self):
        if self.kind not in ("transpose_conjugate", "block"):
            raise ValueError(f"unknown involution {self.kind!r}")
        if self.kind == "block" and self.p + self.q != self.base.dim:
            raise ValueError("block sizes must sum to the matrix dimension")

    def theta(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=complex)
        if self.kind == "transpose_conjugate":
            return -np.swapaxes(Z, -1, -2)
        sign = np.concatenate([np.ones(self.p), -np.ones(self.q)])
        return sign[:, None] * Z * sign[None, :]

    def _eigenbasis(self, sign: float) -> np.ndarray:
        """The su basis elements b with theta(b) = sign b."""
        return np.array([b for b in su_basis(self.base.dim) if np.linalg.norm(self.theta(b) - sign * b) < 1e-12])

    def k_basis(self) -> np.ndarray:
        return self._eigenbasis(1.0)

    def m_basis(self) -> np.ndarray:
        return self._eigenbasis(-1.0)


def split(spec: SymmetricPairSpec, X: np.ndarray):
    """Orthogonal decomposition X = X_k + X_m with theta X_k = X_k, theta X_m = -X_m."""
    X = np.asarray(X, dtype=complex)
    tX = spec.theta(X)
    return 0.5 * (X + tX), 0.5 * (X - tX)


def is_gk_valued(spec: SymmetricPairSpec, d: NahmData) -> float:
    """Max leakage of the constraint T0, T1 in k and T2, T3 in m."""
    k_part, m_part = split(spec, d.values)
    return sup_norm(np.concatenate([m_part[:2], k_part[2:]]))


def gstar_defect(spec: SymmetricPairSpec, Z: np.ndarray) -> float:
    """Distance of Z from the dual real form g* = k + i m inside g tensor C."""
    Zk, Zm = split(spec, Z)
    herm_part = 0.5 * (Zk + dagger(Zk))
    skew_part = 0.5 * (Zm - dagger(Zm))
    return float(max(np.max(np.linalg.norm(herm_part, axis=(-2, -1))),
                     np.max(np.linalg.norm(skew_part, axis=(-2, -1)))))


def flow_preserves_split(spec: SymmetricPairSpec, init: tuple, grid) -> tuple:
    """Integrate from a (g,k)-valued initial triple and measure the leakage."""
    d = integrate_nahm(spec.base, init, grid)
    return d, is_gk_valued(spec, d)


def lax_pairs_13(d: NahmData):
    """Lax pairs for the structures I1 and I3:
    (alpha1, beta1) = (T0 - iT1, T2 + iT3), (alpha3, beta3) = (T0 - iT3, T1 + iT2)."""
    lax1 = lax_extract(d)
    lax3 = lax_extract(NahmData._own(d.grid, d.values[[0, 3, 1, 2]]))  # (T1, T2, T3) -> (T3, T1, T2)
    return (lax1.alpha, lax1.beta), (lax3.alpha, lax3.beta)


def vergne_map(u: complex, v: complex) -> np.ndarray:
    """Identification of (C^2 - 0)/Z2 with the nonzero nilpotent orbit in sl(2,C)."""
    if abs(u) == 0.0 and abs(v) == 0.0:
        raise InputError("(u, v) must be nonzero")
    return np.array([[u * v, u * u], [-v * v, -u * v]], dtype=complex)


def vergne_map_j(u: complex, v: complex) -> np.ndarray:
    """The same map written for the complex structure j of the quaternionic
    coordinates u = x0 + i x1, v = x2 + i x3."""
    if abs(u) == 0.0 and abs(v) == 0.0:
        raise InputError("(u, v) must be nonzero")
    return vergne_map(u - 1j * np.conj(v), v + 1j * np.conj(u))


def classify_real_orbit(u: complex, v: complex, tol: float = 1e-10) -> str:
    """Classify (u, v): image in sl(2,R) iff u^2, v^2, uv are all real; then
    O_plus for u^2 + v^2 > 0 and O_minus for u^2 + v^2 < 0."""
    u = complex(u)
    v = complex(v)
    if u == 0 and v == 0:
        raise InputError("(u, v) must be nonzero")
    vals = (u * u, v * v, u * v)
    if any(abs(z.imag) > tol for z in vals):
        return "not_real"
    disc = (u * u + v * v).real
    if abs(disc) <= tol:
        return "degenerate"
    if disc > 0:
        # cross-check the coordinate criterion x1 = x3 = 0
        if abs(u.imag) > 1e-6 or abs(v.imag) > 1e-6:
            return "degenerate"
        return "O_plus"
    if abs(u.real) > 1e-6 or abs(v.real) > 1e-6:
        return "degenerate"
    return "O_minus"


def kc_orbit_form_check(M: np.ndarray, tol: float = 1e-10):
    """Test M = b [[i,1],[1,-i]] or b [[-i,1],[1,i]] for some b != 0.

    Returns ("plus_form", b), ("minus_form", b) or ("neither", None).
    """
    M = np.asarray(M, dtype=complex)
    b = 0.5 * (M[0, 1] + M[1, 0])
    if abs(b) > 0:
        for name, form in (("plus_form", PLUS_FORM), ("minus_form", MINUS_FORM)):
            if np.max(np.abs(M - b * form)) <= tol * max(1.0, abs(b)):
                return name, b
    return "neither", None


def tangent_transitivity_check(spec: SymmetricPairSpec, x: np.ndarray):
    """Dimensions (dim [k^C, x], dim(T_x O intersect m^C)) as numerical ranks.

    T_x O = [g^C, x]; the intersection dimension is computed from
    dim(A) + dim(B) - dim(A + B).
    """
    x = np.asarray(x, dtype=complex)
    k = x.shape[0]

    def col_space(basis):
        if len(basis) == 0:
            return np.zeros((k * k, 0), dtype=complex)
        return np.stack([bracket(b, x).reshape(-1) for b in basis], axis=1)

    def rank(A):
        if A.shape[1] == 0:
            return 0
        return int(np.linalg.matrix_rank(A, tol=1e-10 * max(1.0, float(np.abs(A).max()))))

    kc = col_space(spec.k_basis())
    full = col_space(su_basis(k))
    mc = np.stack([b.reshape(-1) for b in spec.m_basis()], axis=1)
    dim_k = rank(kc)
    dim_orbit = rank(full)
    dim_m = mc.shape[1]
    dim_sum = rank(np.concatenate([full, mc], axis=1))
    return dim_k, dim_orbit + dim_m - dim_sum
