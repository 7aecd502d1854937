"""Symmetric pairs g = k (+) m, (g,k)-valued Nahm solutions, and the explicit
sl(2) witness of the Kostant-Sekiguchi correspondence via the Vergne map.

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

from .algebra import AlgebraSpec, InputError, bracket, su_basis
from .paths import NahmData, sup_norm
from .solver import integrate_nahm

__all__ = [
    "SymmetricPairSpec",
    "split",
    "is_gk_valued",
    "flow_preserves_split",
    "vergne_map",
    "vergne_map_j",
    "classify_real_orbit",
    "kc_orbit_form_check",
    "tangent_transitivity_check",
]

PLUS_FORM = np.array([[1j, 1.0], [1.0, -1j]], dtype=complex)
MINUS_FORM = np.array([[-1j, 1.0], [1.0, 1j]], dtype=complex)
_ORBITS = np.array(["not_real", "degenerate", "O_plus", "O_minus"])
_FORMS = np.array(["plus_form", "minus_form", "neither"])


@dataclass(frozen=True)
class SymmetricPairSpec:
    """An involution theta splitting the base algebra into k (+) m."""

    base: AlgebraSpec
    kind: str
    p: int = 0
    q: int = 0

    def __post_init__(self):
        if self.kind not in ("transpose_conjugate", "block"):
            raise InputError(f"unknown involution {self.kind!r}")
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in (self.p, self.q)):
            raise InputError(f"block sizes must be integers, got ({self.p!r}, {self.q!r})")
        if self.kind == "transpose_conjugate" and (self.p, self.q) != (0, 0):
            raise InputError(f"transpose_conjugate takes no block sizes, got ({self.p}, {self.q})")
        if self.kind == "block" and not (self.p >= 1 and self.q >= 1 and self.p + self.q == self.base.dim):
            raise InputError(f"block sizes must be >= 1 and sum to the matrix dimension, got ({self.p}, {self.q})")

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


def flow_preserves_split(spec: SymmetricPairSpec, init: tuple, grid) -> tuple:
    """Integrate from a (g,k)-valued initial triple and measure the leakage."""
    d = integrate_nahm(spec.base, init, grid)
    return d, is_gk_valued(spec, d)


def _cmul(a, b) -> np.ndarray:
    """a * b entrywise as (ar br - ai bi) + i (ar bi + ai br), the rounding of a
    scalar complex product; numpy's array product may fuse a multiply-add and
    round the last bit differently."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def vergne_map(u: complex | np.ndarray, v: complex | np.ndarray) -> np.ndarray:
    """Identification of (C^2 - 0)/Z2 with the nonzero nilpotent orbit in sl(2,C):
    the (..., 2, 2) images of the points (u, v) over the leading axes."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex))
    if ((u == 0) & (v == 0)).any():
        raise InputError("(u, v) must be nonzero")
    return np.stack([_cmul(u, v), _cmul(u, u), _cmul(-v, v), _cmul(-u, v)], axis=-1).reshape(u.shape + (2, 2))


def vergne_map_j(u: complex | np.ndarray, v: complex | np.ndarray) -> np.ndarray:
    """The same map written for the complex structure j of the quaternionic
    coordinates u = x0 + i x1, v = x2 + i x3."""
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    return vergne_map(u - _cmul(1j, v.conj()), v + _cmul(1j, u.conj()))


def classify_real_orbit(u: complex | np.ndarray, v: complex | np.ndarray) -> np.ndarray:
    """Classify (u, v): image in sl(2,R) iff u^2, v^2, uv are all real; then
    O_plus for u^2 + v^2 > 0 and O_minus for u^2 + v^2 < 0, each decided to
    1e-10; a non-finite or zero point raises.  A label per point over the
    leading axes, a 0-d array for a single point."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex))
    refused = ~(np.isfinite(u) & np.isfinite(v)) | (u == 0) & (v == 0)
    if refused.any():  # the first refused point's error, as a loop over the points raises it
        bad_u, bad_v = u[refused][0].item(), v[refused][0].item()
        if not (np.isfinite(bad_u) and np.isfinite(bad_v)):
            raise InputError(f"(u, v) must be finite, got ({bad_u}, {bad_v})")
        raise InputError("(u, v) must be nonzero")
    with np.errstate(over="ignore", invalid="ignore"):  # a large finite point keeps its verdict, though u^2 overflows
        uu, vv, uv = _cmul(u, u), _cmul(v, v), _cmul(u, v)
        disc = uu.real + vv.real
    not_real = (abs(uu.imag) > 1e-10) | (abs(vv.imag) > 1e-10) | (abs(uv.imag) > 1e-10)
    # cross-check the coordinate criterion: x1 = x3 = 0 on O_plus, x0 = x2 = 0 on O_minus
    off = np.where(disc > 0, (abs(u.imag) > 1e-6) | (abs(v.imag) > 1e-6), (abs(u.real) > 1e-6) | (abs(v.real) > 1e-6))
    return _ORBITS[np.select([not_real, (abs(disc) <= 1e-10) | off, disc > 0], [0, 1, 2], 3)]


def kc_orbit_form_check(M: np.ndarray) -> tuple:
    """Test M = b [[i,1],[1,-i]] or b [[-i,1],[1,i]] for some b != 0, to 1e-10 max(1, |b|).

    Returns the labels "plus_form", "minus_form" or "neither" and b = (M_01 +
    M_10) / 2 over the leading axes of a stack (..., 2, 2), 0-d arrays for a
    single matrix; a "neither" matrix's b fits neither form.
    """
    M = np.asarray(M, dtype=complex)
    b = _cmul(0.5, M[..., 0, 1] + M[..., 1, 0])
    size = abs(b)
    tol = 1e-10 * np.maximum(1.0, size)
    fits = [(size > 0) & (np.max(abs(M - _cmul(b[..., None, None], form)), axis=(-2, -1)) <= tol)
            for form in (PLUS_FORM, MINUS_FORM)]
    return _FORMS[np.select(fits, [0, 1], 2)], b


def tangent_transitivity_check(spec: SymmetricPairSpec, x: np.ndarray):
    """Dimensions (dim [k^C, x], dim(T_x O intersect m^C)) as numerical ranks.

    T_x O = [g^C, x]; the intersection dimension is computed from
    dim(A) + dim(B) - dim(A + B).
    """
    x = np.asarray(x, dtype=complex)
    k = x.shape[0]

    def col_space(basis):
        return np.stack([bracket(b, x).reshape(-1) for b in basis], axis=1)

    def rank(A):
        return int(np.linalg.matrix_rank(A, tol=1e-10 * max(1.0, float(np.abs(A).max()))))

    kc = col_space(spec.k_basis())
    full = col_space(su_basis(k))
    mc = np.stack([b.reshape(-1) for b in spec.m_basis()], axis=1)
    dim_k = rank(kc)
    dim_orbit = rank(full)
    dim_m = mc.shape[1]
    dim_sum = rank(np.concatenate([full, mc], axis=1))
    return dim_k, dim_orbit + dim_m - dim_sum
