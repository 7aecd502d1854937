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
    AlgebraPath,
    Grid,
    NahmData,
    TangentVector,
    _shared_grid,
    complex_structure,
    l2_norm,
    omega,
    pairing_nodes,
    path_derivative,
    quadrature,
    random_tangent,
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


@dataclass
class MomentResidual:
    mu1: AlgebraPath
    mu2: AlgebraPath
    mu3: AlgebraPath
    sup_norms: tuple

    @property
    def sup(self) -> float:
        return max(self.sup_norms)


def mu_baby(T0: AlgebraPath, T1: AlgebraPath) -> AlgebraPath:
    """Baby moment map T1' + [T0, T1], node-wise."""
    _shared_grid(T0, T1)
    v = path_derivative(T1.values, T1.grid.h) + bracket(T0.values, T1.values)
    return AlgebraPath(T0.grid, v)


def _mu_arrays(T: np.ndarray, h: float) -> np.ndarray:
    """The three Nahm residuals for stacked components T of shape (4,n+1,k,k)."""
    T0, T1, T2, T3 = T
    m1 = path_derivative(T1, h) + bracket(T0, T1) - bracket(T2, T3)
    m2 = path_derivative(T2, h) + bracket(T0, T2) - bracket(T3, T1)
    m3 = path_derivative(T3, h) + bracket(T0, T3) - bracket(T1, T2)
    return np.stack([m1, m2, m3])


def mu_nahm(d: NahmData) -> MomentResidual:
    """The three moment maps whose common zero set is the Nahm equations."""
    mus = _mu_arrays(d.stack(), d.grid.h)
    paths = [AlgebraPath(d.grid, m) for m in mus]
    sups = tuple(sup_norm(m) for m in mus)
    return MomentResidual(*paths, sups)


@dataclass
class LaxPair:
    """alpha = T0 - i T1 and beta = T2 + i T3, node-indexed."""

    grid: Grid
    alpha: np.ndarray
    beta: np.ndarray


def lax_extract(d: NahmData) -> LaxPair:
    """alpha = T0 - i T1, beta = T2 + i T3; beta' = [beta, alpha] on solutions."""
    alpha = d.T0.values - 1j * d.T1.values
    beta = d.T2.values + 1j * d.T3.values
    return LaxPair(d.grid, alpha, beta)


def mu_complex(d: NahmData) -> np.ndarray:
    """Complex moment map (T2 + iT3)' + [T0 - iT1, T2 + iT3]; equals mu2 + i mu3."""
    lax = lax_extract(d)
    return path_derivative(lax.beta, d.grid.h) + bracket(lax.alpha, lax.beta)


def rho_star(d: NahmData, rho: AlgebraPath) -> TangentVector:
    """Vector field induced by the gauge parameter rho, which must vanish at
    both endpoints: the vertical field in t0, [rho, Ti] in the others."""
    rest = (AlgebraPath(d.grid, bracket(rho.values, c.values)) for c in (d.T1, d.T2, d.T3))
    return TangentVector(vertical_field(d.T0, rho), *rest)


def _omega_baby(u: TangentVector, v: TangentVector) -> float:
    vals = pairing_nodes(u.t0.values, v.t1.values) - pairing_nodes(u.t1.values, v.t0.values)
    return quadrature(vals, u.grid)


def _perturbed(d: NahmData, v: TangentVector, eps: float) -> NahmData:
    comps = [c.values + eps * t.values for c, t in zip(d.components, v.components)]
    return NahmData.from_arrays(d.algebra, d.grid, *comps)


def hamiltonian_check(d: NahmData, rho: AlgebraPath, v: TangentVector, which, eps: float = 1e-5) -> float:
    """Relative gap between omega(rho*, v) and the paired directional derivative
    of the moment map, d/de <mu(d + e v), rho> by central differences.

    ``which`` is "baby" or a symplectic-structure index 1, 2, 3.
    """
    star = rho_star(d, rho)
    if which == "baby":
        lhs = _omega_baby(star, v)

        def moment(data):
            return mu_baby(data.T0, data.T1).values

    elif which in (1, 2, 3):
        lhs = omega(which, star, v)
        idx = which - 1

        def moment(data):
            return _mu_arrays(data.stack(), data.grid.h)[idx]

    else:
        raise ValueError("which must be 'baby', 1, 2 or 3")

    def paired(data):
        return quadrature(pairing_nodes(moment(data), rho.values), d.grid)

    rhs = (paired(_perturbed(d, v, eps)) - paired(_perturbed(d, v, -eps))) / (2.0 * eps)
    scale = max(abs(lhs), abs(rhs), l2_norm(star) * l2_norm(v))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


def _s1_pairing(u, v) -> float:
    """<u2, v2> + <u3, v3> integrated, for Nahm data or tangent vectors: the
    bilinear form of the S^1 moment map, and its Hessian."""
    (u2, u3), (v2, v3) = u.components[2:], v.components[2:]
    return quadrature(pairing_nodes(u2.values, v2.values) + pairing_nodes(u3.values, v3.values), u.grid)


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
    worst = 0.0
    for _ in range(n_samples):
        u = random_tangent(spec, grid, rng)
        v = random_tangent(spec, grid, rng)
        B = _s1_pairing(v, complex_structure(2, u)) - _s1_pairing(u, complex_structure(2, v))
        w2 = omega(2, u, v)
        scale = max(1.0, abs(w2), abs(B))
        worst = max(worst, abs(B - w2) / scale)
    return worst


def theta_star(d: NahmData) -> TangentVector:
    """Vector field of the S^1 action fixing I_1: (0, 0, -T3, T2)."""
    z = np.zeros_like(d.T0.values)
    return TangentVector.from_arrays(d.grid, z, z, -d.T3.values, d.T2.values)


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
