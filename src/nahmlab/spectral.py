"""Spectral curves of the Nahm flow: the quadratic pencil
beta(zeta) = beta + (alpha + alpha*) zeta - beta* zeta^2, the coefficients
a_j(zeta) of det(eta - beta(zeta)), their conservation along solutions, the
fixed singular curve of an orbit target, and the antiholomorphic reality
involution (zeta, eta) -> (-1/conj(zeta), -conj(eta)/conj(zeta)^2).

Coefficients come from the Faddeev-LeVerrier recursion run on the pencil's
three coefficient matrices (``algebra.char_poly_coeffs``): a_j has degree
<= 2j because the pencil entries are quadratics in zeta, and the recursion
gives its 2j+1 coefficients exactly, with no eigen-solve and no fit.
A flow's curves are computed in node blocks, with a working set bounded in n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import char_poly_coeffs, dagger
from .io import to_pairs
from .moment import _lax
from .paths import NahmData
from .solver import BoundaryTarget

__all__ = [
    "SpectralData",
    "beta_zeta",
    "char_coeffs",
    "spectral_flow",
    "conservation_check",
    "fixed_curve",
    "reality_check",
]

_BLOCK_BYTES = 1 << 16  # one k x k slice of a node block: 4096 / k^2 nodes (the size is measured in CHANGES.md)


@dataclass
class SpectralData:
    """Coefficient lists of a_j(zeta), ascending in zeta, j = 1..k."""

    k: int
    coeffs: list
    factors: Optional[list] = None

    def a(self, j: int) -> np.ndarray:
        return self.coeffs[j - 1]

    def to_json(self) -> dict:
        return {"k": self.k, "a": [to_pairs(cs).tolist() for cs in self.coeffs]}


def _pencil(alpha: np.ndarray, beta: np.ndarray, beta_dagger=None) -> tuple:
    """The pencil's coefficient matrices (beta, alpha + alpha*, beta*), batched or not."""
    alpha, beta = np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
    return beta, alpha + dagger(alpha), dagger(beta) if beta_dagger is None else np.asarray(beta_dagger, dtype=complex)


def beta_zeta(alpha: np.ndarray, beta: np.ndarray, zeta: complex, beta_dagger=None) -> np.ndarray:
    """The pencil beta + (alpha + alpha*) zeta - beta* zeta^2 at one node.

    ``beta_dagger`` overrides the beta* slot (used by negative controls that
    deliberately break the reality of the pencil).
    """
    beta, herm, bd = _pencil(alpha, beta, beta_dagger)
    return beta + herm * zeta - bd * zeta * zeta


def _curve_coeffs(beta: np.ndarray, herm: np.ndarray, quad: np.ndarray) -> list:
    """Coefficients a_j(zeta) of det(eta - (beta + herm zeta - quad zeta^2)) for
    node-batched (N, k, k) inputs, exact by Faddeev-LeVerrier on the pencil's
    coefficient matrices: a list of (2j+1, N) arrays, ascending in zeta."""
    return char_poly_coeffs(np.stack([beta, herm, -quad]))


def char_coeffs(alpha: np.ndarray, beta: np.ndarray, beta_dagger=None) -> SpectralData:
    """Spectral-curve coefficients a_j(zeta) for a single Lax-pair node."""
    fits = _curve_coeffs(*(m[None] for m in _pencil(alpha, beta, beta_dagger)))
    return SpectralData(np.shape(beta)[-1], [f[:, 0] for f in fits])


def spectral_flow(d: NahmData, beta_dagger_zero: bool = False) -> list:
    """Coefficients a_j(zeta) at every node; list of (2j+1, n+1) arrays, filled block by block."""
    nodes, step = d.grid.n + 1, max(1, _BLOCK_BYTES // (16 * d.dim**2))
    out = [np.empty((2 * j + 1, nodes), dtype=complex) for j in range(1, d.dim + 1)]
    for first in range(0, nodes, step):
        alpha, beta = _lax(d.values[:, first : first + step])
        for o, c in zip(out, _curve_coeffs(*_pencil(alpha, beta, np.zeros_like(beta) if beta_dagger_zero else None))):
            o[:, first : first + step] = c
    return out


def _coeff_drift(flows: list) -> float:
    """Max drift of any coefficient from its value at the first node, relative
    to the largest first-node coefficient (at least 1); NaN if any is NaN."""
    scale = np.max([1.0] + [np.max(np.abs(f[:, 0])) for f in flows])
    drift = np.max([np.max(np.abs(f - f[:, :1])) for f in flows])
    return float(drift) / float(scale)


def conservation_check(d: NahmData) -> float:
    """Max relative drift of any curve coefficient along the flow."""
    return _coeff_drift(spectral_flow(d))


def fixed_curve(target: BoundaryTarget) -> SpectralData:
    """The fixed singular curve of an orbit target:
    det(eta - (tau2 + i tau3) - 2i tau1 zeta + (-tau2 + i tau3) zeta^2) = 0.

    Note the zeta-linear term carries the opposite sign from the pencil of an
    actual solution flow; the two conventions are exchanged by zeta -> -zeta.
    For simultaneously diagonal tau_i the curve splits into k quadratic
    components eta = q_i(zeta), returned in ``factors``.
    """
    t1, t2, t3 = target.tau1, target.tau2, target.tau3
    k = target.dim
    beta0 = t2 + 1j * t3
    herm = 2j * t1
    quad = -(t2 - 1j * t3)  # pencil beta0 + herm z - quad z^2
    fits = _curve_coeffs(beta0[None], herm[None], quad[None])
    factors = None
    if all(np.allclose(t, np.diag(np.diagonal(t)), atol=1e-12) for t in (t1, t2, t3)):
        factors = [np.array([beta0[i, i], herm[i, i], -quad[i, i]]) for i in range(k)]
    return SpectralData(k, [f[:, 0] for f in fits], factors)


def reality_check(s: SpectralData) -> float:
    """Violation of curve invariance under the reality involution.

    Invariance is equivalent to the coefficient identity
    a_j(zeta) = (-1)^j zeta^{2j} conj(a_j(-1/conj(zeta))), i.e.
    c_{j,m} = (-1)^{j+m} conj(c_{j,2j-m}).  NaN if a coefficient is not finite.
    """
    worst = []
    scale = np.max([1.0] + [np.max(np.abs(c)) for c in s.coeffs])
    for j in range(1, s.k + 1):
        c = s.a(j)
        m = np.arange(2 * j + 1)
        mirrored = ((-1.0) ** (j + m)) * np.conj(c[::-1])
        worst.append(np.max(np.abs(c - mirrored)))
    return float(np.max(worst)) / float(scale)
