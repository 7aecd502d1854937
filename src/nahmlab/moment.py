"""Moment maps for the based gauge action: the baby map T1' + [T0, T1], the
hyperkahler triple whose zero set is the Nahm equations, the Lax pair
alpha = T0 - i T1, beta = T2 + i T3 and the complex map built from it, the
Hamiltonian identity verifier, and the S^1 moment map / Kahler potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, bracket
from .paths import (
    CHUNK,
    AlgebraPath,
    Grid,
    NahmData,
    TangentVector,
    _component,
    _random_chunk,
    _shared_grid,
    complex_structure,
    l2_norm,
    omega,
    pairing_nodes,
    path_derivative,
    quadrature,
    sup_norm,
    vertical_field,
)

__all__ = [
    "LaxPair",
    "MomentResidual",
    "lax_extract",
    "mu_baby",
    "mu_nahm",
    "mu_complex",
    "rho_star",
    "hamiltonian_check",
    "kahler_potential",
    "kahler_form_identity_check",
    "theta_star",
    "s1_moment_identity_check",
    "kks_form",
]


@dataclass(frozen=True)
class MomentResidual(AlgebraPath):
    """The moment maps (mu1, mu2, mu3) as one read-only (3, n+1, k, k) stack,
    the components views of it."""

    _lead = (3,)
    mu1, mu2, mu3 = map(_component, range(3))

    @property
    def sup(self) -> float:
        return sup_norm(self.values)


def mu_baby(T0: AlgebraPath, T1: AlgebraPath) -> AlgebraPath:
    """Baby moment map T1' + [T0, T1], node-wise."""
    _shared_grid(T0, T1)
    v = path_derivative(T1.values, T1.grid.h) + bracket(T0.values, T1.values)
    return AlgebraPath._own(T0.grid, v)


def _mu(T: np.ndarray, h: float, i: int) -> np.ndarray:
    """mu_i = T_i' + [T0, T_i] - [T_(i+1), T_(i+2)] of a quadruple's stack, indices 1, 2, 3 cyclic."""
    return path_derivative(T[i], h) + bracket(T[0], T[i]) - bracket(T[i % 3 + 1], T[(i + 1) % 3 + 1])


def mu_nahm(d: NahmData) -> MomentResidual:
    """The three moment maps whose common zero set is the Nahm equations."""
    return MomentResidual._own(d.grid, np.stack([_mu(d.values, d.grid.h, i) for i in (1, 2, 3)]))


@dataclass
class LaxPair:
    """alpha = T0 - i T1 and beta = T2 + i T3, node-indexed."""

    grid: Grid
    alpha: np.ndarray
    beta: np.ndarray


def _lax(values: np.ndarray) -> np.ndarray:
    """(alpha, beta) = (T0 - i T1, T2 + i T3) of a quadruple stack (4, ...), as one (2, ...) array."""
    pair = 1j * values[1::2]  # i T1, i T3
    np.negative(pair[0], out=pair[0])  # T0 - i T1 is -i T1 + T0 bit for bit
    pair += values[::2]
    return pair


def lax_extract(d: NahmData) -> LaxPair:
    """alpha = T0 - i T1, beta = T2 + i T3; beta' = [beta, alpha] on solutions."""
    return LaxPair(d.grid, *_lax(d.values))


def mu_complex(d: NahmData) -> np.ndarray:
    """Complex moment map (T2 + iT3)' + [T0 - iT1, T2 + iT3]; equals mu2 + i mu3."""
    lax = lax_extract(d)
    return path_derivative(lax.beta, d.grid.h) + bracket(lax.alpha, lax.beta)


def rho_star(d: NahmData, rho: AlgebraPath) -> TangentVector:
    """Vector field induced by the gauge parameter rho, which must vanish at
    both endpoints: the vertical field in t0, [rho, Ti] in the others."""
    t0 = vertical_field(d.T0, rho).values
    return TangentVector._own(d.grid, np.concatenate([t0[None], bracket(rho.values, d.values[1:])]))


def _omega_baby(u: TangentVector, v: TangentVector) -> float:
    vals = pairing_nodes(u.t0.values, v.t1.values) - pairing_nodes(u.t1.values, v.t0.values)
    return quadrature(vals, u.grid)


def hamiltonian_check(d: NahmData, rho: AlgebraPath, v: TangentVector, which, eps: float = 1e-5) -> float:
    """Relative gap between omega(rho*, v) and the paired directional derivative
    of the moment map, d/de <mu(d + e v), rho> by central differences.

    ``which`` is "baby" or a symplectic-structure index 1, 2, 3.
    """
    return _hamiltonian_gaps(d, rho, v, [which], eps)[0][0]


def _hamiltonian_gaps(d: NahmData, rho: AlgebraPath, v: TangentVector, maps, eps: float = 1e-5) -> list:
    """``hamiltonian_check`` of each sample of a chunk (batch records) or of
    one sample, one list per map of ``maps``; the maps share rho* and the norms."""
    if any(which not in ("baby", 1, 2, 3) for which in maps):
        raise ValueError("which must be 'baby', 1, 2 or 3")

    def pair(data, which):  # <mu(data), rho>, integrated
        mu = mu_baby(data.T0, data.T1).values if which == "baby" else _mu(data.values, d.grid.h, which)
        return quadrature(pairing_nodes(mu, rho.values), d.grid)

    star, step = rho_star(d, rho), eps * v.values
    minus = NahmData._own(_shared_grid(d, v), d.values - step)
    plus = NahmData._own(d.grid, np.add(d.values, step, out=step))  # d + eps v in eps v's buffer
    sides = []
    for which in maps:
        lhs = _omega_baby(star, v) if which == "baby" else omega(which, star, v)
        sides.append((lhs, (pair(plus, which) - pair(minus, which)) / (2.0 * eps)))
    norms = l2_norm(star) * l2_norm(v)
    return [[0.0 if (scale := max(abs(a), abs(b), n)) == 0.0 else float(abs(a - b) / scale)
             for a, b, n in zip(*np.atleast_1d(lhs, rhs, norms))] for lhs, rhs in sides]


def _s1_pairing(u, v) -> float:
    """<u2, v2> + <u3, v3> integrated, for Nahm data or tangent vectors: the
    bilinear form of the S^1 moment map, and its Hessian."""
    return quadrature(pairing_nodes(u.values[2:], v.values[2:]).sum(axis=0), _shared_grid(u, v))


def kahler_potential(d: NahmData) -> float:
    """S^1 moment map (|T2|^2 + |T3|^2)/2, integrated over the interval."""
    return 0.5 * _s1_pairing(d, d)


def kahler_form_identity_check(
    spec: AlgebraSpec,
    grid: Grid,
    n_samples: int = 100,
    rng: np.random.Generator | None = None,
) -> float:
    """Max deviation of the potential identity: the I2-twisted Hessian of the
    S^1 moment map reproduces omega_2 as a bilinear form on random tangents.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    errs = []
    for first in range(0, n_samples, CHUNK):
        drawn = _random_chunk(spec, grid, rng, min(CHUNK, n_samples - first), ["tangent", "tangent"])
        u, v = (TangentVector._own(grid, t) for t in drawn)
        B = _s1_pairing(v, complex_structure(2, u)) - _s1_pairing(u, complex_structure(2, v))
        w2 = omega(2, u, v)
        errs.extend(abs(B - w2) / np.maximum(np.maximum(1.0, abs(w2)), abs(B)))
    return float(np.max(errs, initial=0.0))  # NaN if any sample is NaN


def theta_star(d: NahmData) -> TangentVector:
    """Vector field of the S^1 action fixing I_1: (0, 0, -T3, T2)."""
    return TangentVector._own(d.grid, np.concatenate([np.zeros_like(d.values[:2]), -d.values[3:], d.values[2:3]]))


def s1_moment_identity_check(d: NahmData, v: TangentVector) -> float:
    """Deviation of d mu_{S^1}(v) from omega_1(theta*, v)."""
    dmu = _s1_pairing(d, v)
    w = omega(1, theta_star(d), v)
    scale = max(1.0, abs(dmu), abs(w))
    return abs(dmu - w) / scale


def kks_form(x: np.ndarray, rho: np.ndarray, rho2: np.ndarray) -> complex:
    """Kostant-Kirillov-Souriau pairing <[rho, rho'], x>, C-bilinear."""
    br = bracket(np.asarray(rho, dtype=complex), np.asarray(rho2, dtype=complex))
    val = -np.einsum("pq,qp->", br, np.asarray(x, dtype=complex))
    return complex(val)
