"""Moment maps for the based gauge action: the baby map T1' + [T0, T1], the
hyperkahler triple whose zero set is the Nahm equations, the Lax pair
(alpha, beta) = (T0 - i T1, T2 + i T3) as one array, the Hamiltonian identity
verifier, and the identities of the S^1 moment map (|T2|^2 + |T3|^2)/2, the Kahler potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, _su_bracket, pairing_nodes
from .paths import (
    CHUNK,
    AlgebraPath,
    Grid,
    NahmData,
    _derivative,
    _node_slices,
    _random_chunk,
    _shared_grid,
    _structure,
    complex_structure,
    l2_norm,
    omega,
    path_derivative,
    quadrature,
    sup_norm,
    vertical_field,
)

__all__ = [
    "MomentResidual",
    "lax_extract",
    "mu_baby",
    "mu_nahm",
    "rho_star",
    "hamiltonian_check",
    "kahler_form_identity_check",
    "theta_star",
    "s1_moment_identity_check",
]

_EPS = 1e-5  # the central-difference step of the Hamiltonian check


@dataclass(frozen=True)
class MomentResidual(AlgebraPath):
    """The moment maps (mu1, mu2, mu3) as one read-only (3, n+1, k, k) stack."""

    _lead = (3,)

    @property
    def sup(self) -> float:
        return sup_norm(self.values)


def mu_baby(T0: AlgebraPath, T1: AlgebraPath) -> AlgebraPath:
    """Baby moment map T1' + [T0, T1], node-wise."""
    _shared_grid(T0, T1)
    v = path_derivative(T1.values, T1.grid.h) + _su_bracket(T0.values, T1.values)
    return AlgebraPath._own(T0.grid, v)


def _mu(T: np.ndarray, h: float, i: int, out: np.ndarray | None = None) -> np.ndarray:
    """mu_i = T_i' + [T0, T_i] - [T_(i+1), T_(i+2)] of a quadruple's stack, indices 1, 2, 3
    cyclic, written into ``out`` (a fresh array if None): T_i' first, then the brackets added
    and subtracted node block by node block, so no path-sized real form is held; each
    element is (T_i' + [T0, T_i]) - [T_j, T_k], as on the whole array."""
    j, k = i % 3 + 1, (i + 1) % 3 + 1
    out = _derivative(T[i], h, np.empty_like(T[i]) if out is None else out)
    for nodes in _node_slices(T[i]):
        out[nodes] += _su_bracket(T[0, nodes], T[i, nodes])
        out[nodes] -= _su_bracket(T[j, nodes], T[k, nodes])
    return out


def mu_nahm(d: NahmData) -> MomentResidual:
    """The three moment maps whose common zero set is the Nahm equations, each
    written into its row of the output."""
    out = np.empty((3,) + d.values.shape[1:], dtype=complex)
    for i in (1, 2, 3):
        _mu(d.values, d.grid.h, i, out[i - 1])
    return MomentResidual._own(d.grid, out)


def _lax(values: np.ndarray) -> np.ndarray:
    """(alpha, beta) = (T0 - i T1, T2 + i T3) of a quadruple stack (4, ...), as one (2, ...) array."""
    pair = 1j * values[1::2]  # i T1, i T3
    np.negative(pair[0], out=pair[0])  # T0 - i T1 is -i T1 + T0 bit for bit
    pair += values[::2]
    return pair


def lax_extract(d: NahmData) -> np.ndarray:
    """(alpha, beta) = (T0 - i T1, T2 + i T3) as one (2, n+1, k, k) array;
    beta' = [beta, alpha] on solutions."""
    return _lax(d.values)


def rho_star(d: NahmData, rho: AlgebraPath) -> NahmData:
    """Vector field induced by the gauge parameter rho, which must vanish at
    both endpoints: the vertical field in T0, [rho, Ti] in the others."""
    t0 = vertical_field(d.T0, rho).values
    return NahmData._own(d.grid, np.concatenate([t0[None], _su_bracket(rho.values, d.values[1:])]))


def _omega_baby(u: NahmData, v: NahmData) -> float:
    vals = pairing_nodes(u.T0.values, v.T1.values) - pairing_nodes(u.T1.values, v.T0.values)
    return quadrature(vals, u.grid)


def hamiltonian_check(d: NahmData, rho: AlgebraPath, v: NahmData, which) -> float:
    """Relative gap between omega(rho*, v) and the paired directional derivative
    of the moment map, d/de <mu(d + e v), rho> by central differences.

    ``which`` is "baby" or a symplectic-structure index 1, 2, 3.
    """
    return _hamiltonian_gaps(d, rho, v, [which])[0][0]


def _hamiltonian_gaps(d: NahmData, rho: AlgebraPath, v: NahmData, maps) -> list:
    """``hamiltonian_check`` of each sample of a chunk (batch records) or of
    one sample, one list per map of ``maps``; the maps share rho* and the norms."""
    for which in maps:
        if which != "baby":
            _structure(which, "which must be 'baby', 1, 2 or 3")

    def pair(data, which):  # <mu(data), rho>, integrated
        mu = mu_baby(data.T0, data.T1).values if which == "baby" else _mu(data.values, d.grid.h, which)
        return quadrature(pairing_nodes(mu, rho.values), d.grid)

    star, step = rho_star(d, rho), _EPS * v.values
    minus = NahmData._own(_shared_grid(d, v), d.values - step)
    plus = NahmData._own(d.grid, np.add(d.values, step, out=step))  # d + eps v in eps v's buffer
    sides = []
    for which in maps:
        lhs = _omega_baby(star, v) if which == "baby" else omega(which, star, v)
        sides.append((lhs, (pair(plus, which) - pair(minus, which)) / (2.0 * _EPS)))
    norms = l2_norm(star) * l2_norm(v)
    return [[0.0 if (scale := max(abs(a), abs(b), n)) == 0.0 else float(abs(a - b) / scale)
             for a, b, n in zip(*np.atleast_1d(lhs, rhs, norms))] for lhs, rhs in sides]


def _s1_pairing(u, v) -> float:
    """<u2, v2> + <u3, v3> integrated, for Nahm data or tangent vectors: the
    bilinear form of the S^1 moment map, and its Hessian."""
    return quadrature(pairing_nodes(u.values[2:], v.values[2:]).sum(axis=0), _shared_grid(u, v))


def _rel_gap(a, b):
    """|a - b| / max(1, |a|, |b|), elementwise; NaN where a or b is."""
    return abs(a - b) / np.maximum(np.maximum(1.0, abs(a)), abs(b))


def kahler_form_identity_check(spec: AlgebraSpec, grid: Grid, n_samples: int, rng: np.random.Generator) -> float:
    """Max deviation of the potential identity: the I2-twisted Hessian of the
    S^1 moment map reproduces omega_2 as a bilinear form on random tangents.
    """
    errs = []
    for first in range(0, n_samples, CHUNK):
        drawn = _random_chunk(spec, grid, rng, min(CHUNK, n_samples - first), ["tangent", "tangent"])
        u, v = (NahmData._own(grid, t) for t in drawn)
        B = _s1_pairing(v, complex_structure(2, u)) - _s1_pairing(u, complex_structure(2, v))
        w2 = omega(2, u, v)
        errs.extend(_rel_gap(B, w2))
    return float(np.max(errs, initial=0.0))  # NaN if any sample is NaN


def theta_star(d: NahmData) -> NahmData:
    """Vector field of the S^1 action fixing I_1: (0, 0, -T3, T2)."""
    return NahmData._own(d.grid, np.concatenate([np.zeros_like(d.values[:2]), -d.values[3:], d.values[2:3]]))


def s1_moment_identity_check(d: NahmData, v: NahmData) -> float:
    """Deviation of d mu_{S^1}(v) from omega_1(theta*, v)."""
    return float(_rel_gap(_s1_pairing(d, v), omega(1, theta_star(d), v)))
