"""Spectral curves of the Nahm flow: the quadratic pencil
beta(zeta) = beta + (alpha + alpha*) zeta - beta* zeta^2, the coefficients
a_j(zeta) of det(eta - beta(zeta)), their conservation along solutions, the
fixed singular curve of an orbit target, and the antiholomorphic reality
involution (zeta, eta) -> (-1/conj(zeta), -conj(eta)/conj(zeta)^2).

Coefficients come from the Faddeev-LeVerrier recursion run on the pencil's
three coefficient matrices (``algebra.char_poly_coeffs``), its products
real products: a_j has degree <= 2j because the pencil entries are
quadratics in zeta, and the recursion gives its 2j+1 coefficients exactly,
with no eigen-solve and no fit.  A curve is the list [a_1, ..., a_k], each
ascending in zeta; a flow's curves are computed in node blocks, with a
working set bounded in n, and its drift is reduced block by block.
"""

from __future__ import annotations

import numpy as np

from .algebra import char_poly_coeffs, dagger
from .moment import _lax
from .paths import NahmData, _node_slices
from .solver import BoundaryTarget

__all__ = [
    "char_coeffs",
    "spectral_flow",
    "conservation_check",
    "fixed_curve",
    "reality_check",
]


def _pencil(alpha: np.ndarray, beta: np.ndarray, nonreal: bool = False) -> np.ndarray:
    """The pencil's coefficient matrices (beta, alpha + alpha*, -beta*), ascending
    in zeta, as one (3, ..., k, k) stack; ``nonreal`` zeroes the beta* term."""
    alpha, beta = np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
    return np.stack([beta, alpha + dagger(alpha), np.zeros_like(beta) if nonreal else -dagger(beta)])


def char_coeffs(alpha: np.ndarray, beta: np.ndarray) -> list:
    """Spectral-curve coefficients [a_1, ..., a_k] for a single Lax-pair node, each ascending in zeta."""
    return [f[:, 0] for f in char_poly_coeffs(_pencil(alpha, beta)[:, None])]


def _node_blocks(d: NahmData, nonreal: bool = False):
    """(first node, [a_1, ..., a_k] of the nodes from there) for each node block in turn."""
    for nodes in _node_slices(d.values[0]):
        alpha, beta = _lax(d.values[:, nodes])
        yield nodes.start, char_poly_coeffs(_pencil(alpha, beta, nonreal))


def spectral_flow(d: NahmData, nonreal: bool = False) -> list:
    """Coefficients a_j(zeta) at every node; list of (2j+1, n+1) arrays, filled block by block."""
    out = [np.empty((2 * j + 1, d.grid.n + 1), dtype=complex) for j in range(1, d.dim + 1)]
    for first, coeffs in _node_blocks(d, nonreal):
        for o, c in zip(out, coeffs):
            o[:, first : first + c.shape[1]] = c
    return out


def _coeff_drift(blocks) -> float:
    """Max drift of any coefficient from its value at the first node, relative
    to the largest first-node coefficient (at least 1); NaN if any is NaN.
    ``blocks`` are the coefficient lists of consecutive node blocks, first to
    last: ``spectral_flow``'s whole list is one block."""
    first, drift = None, 0.0
    for coeffs in blocks:
        first = first or [c[:, :1].copy() for c in coeffs]
        for c, f in zip(coeffs, first):
            drift = np.maximum(drift, np.max(np.abs(c - f)))
    scale = np.max([1.0] + [np.max(np.abs(f)) for f in first])
    return float(drift) / float(scale)


def conservation_check(d: NahmData) -> float:
    """Max relative drift of any curve coefficient along the flow, reduced
    block by block, so no output-sized array is held."""
    return _coeff_drift(coeffs for _, coeffs in _node_blocks(d))


def fixed_curve(target: BoundaryTarget) -> tuple:
    """The fixed singular curve (coeffs, factors) of an orbit target:
    det(eta - (tau2 + i tau3) - 2i tau1 zeta - (tau2 - i tau3) zeta^2) = 0, the
    pencil of alpha = i tau1, beta = tau2 + i tau3: a flow's at zeta -> -zeta.
    For tau_i whose off-diagonal entries are within 1e-12 of their largest
    entry, the curve splits into k quadratic components eta = q_i(zeta),
    returned in ``factors`` (else None).
    """
    taus = np.stack([target.tau1, target.tau2, target.tau3])
    pencil = _pencil(1j * taus[0], taus[1] + 1j * taus[2])
    coeffs = [f[:, 0] for f in char_poly_coeffs(pencil[:, None])]
    diagonal = np.max(np.abs(taus[:, ~np.eye(target.dim, dtype=bool)])) <= 1e-12 * np.max(np.abs(taus))
    return coeffs, [pencil[:, i, i] + 0.0 for i in range(target.dim)] if diagonal else None  # 0, not -beta*'s -0


def reality_check(coeffs: list) -> float:
    """Violation of curve invariance under the reality involution.

    Invariance is equivalent to the coefficient identity
    a_j(zeta) = (-1)^j zeta^{2j} conj(a_j(-1/conj(zeta))), i.e.
    c_{j,m} = (-1)^{j+m} conj(c_{j,2j-m}).  NaN if a coefficient is not finite.
    """
    worst = []
    scale = np.max([1.0] + [np.max(np.abs(c)) for c in coeffs])
    for j, c in enumerate(coeffs, start=1):
        m = np.arange(2 * j + 1)
        mirrored = ((-1.0) ** (j + m)) * np.conj(c[::-1])
        worst.append(np.max(np.abs(c - mirrored)))
    return float(np.max(worst)) / float(scale)
