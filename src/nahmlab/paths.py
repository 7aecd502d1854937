"""Discretized path spaces: grids, quadrature, the L2 metric, the quaternionic
complex structures and their symplectic forms, and the SO(3) / S^1 actions.

Paths are sampled on uniform grids and stored as (n+1, k, k) complex arrays.
Two difference operators are used:

* ``path_derivative``      - centered interior, second-order one-sided rows at
                             the endpoints; used for free paths (connections,
                             gauge transformations, tangent vectors);
* ``dirichlet_derivative`` - centered interior, first-order one-sided rows;
                             used only for gauge parameters vanishing at both
                             endpoints.  With trapezoid weights this pair makes
                             the discrete integration-by-parts identity exact,
                             which the moment-map and quotient-metric checks
                             rely on.

``_rk4_step`` is the package's one RK4 formula.  The Nahm flow calls it once
per step in its own loop (``solver.integrate_nahm``); the linear flows of
``gauge`` call it once in all, batched over the intervals, to get every
step's propagator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, InputError, bracket, pairing_nodes, su_from_coords

__all__ = [
    "Grid",
    "AlgebraPath",
    "NahmData",
    "TangentVector",
    "quadrature",
    "path_derivative",
    "dirichlet_derivative",
    "pairing_nodes",
    "vertical_field",
    "l2_metric",
    "l2_norm",
    "sup_norm",
    "complex_structure",
    "omega",
    "so3_rotate",
    "s1_action",
    "random_smooth_path",
    "random_dirichlet_path",
    "random_tangent",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid with n intervals on [s0, s1] (n+1 nodes)."""

    s0: float
    s1: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise InputError("grid needs n >= 2 intervals")
        if not (np.isfinite(self.s0) and np.isfinite(self.s1)):
            raise InputError(f"grid endpoints must be finite, got [{self.s0}, {self.s1}]")
        if not self.s1 > self.s0:
            raise InputError("need s1 > s0")

    @property
    def h(self) -> float:
        return (self.s1 - self.s0) / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.s0, self.s1, self.n + 1)

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights."""
        w = np.full(self.n + 1, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


def _read_only(values) -> np.ndarray:
    """A read-only complex copy, for the array fields of frozen values."""
    values = np.array(values, dtype=complex)
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class AlgebraPath:
    """A discretized map [s0, s1] -> g, node-indexed matrix samples.

    The samples are a read-only copy of the input, so later writes to the
    caller's array do not show up in the path.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = _read_only(self.values)
        if values.shape[0] != self.grid.n + 1 or values.ndim != 3:
            raise ValueError(f"bad path shape {values.shape} for grid n={self.grid.n}")
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[-1]


def _shared_grid(*paths) -> Grid:
    """The grid of paths (or path quadruples) that must share one."""
    g = paths[0].grid
    for p in paths[1:]:
        if p.grid != g:
            raise ValueError("paths live on different grids")
    return g


@dataclass(frozen=True)
class _PathQuadruple:
    """Four algebra paths on one shared grid; the subclasses name them."""

    def __post_init__(self):
        _shared_grid(*self.components)

    @property
    def grid(self) -> Grid:
        return self.components[0].grid

    def stack(self) -> np.ndarray:
        """Component-stacked array of shape (4, n+1, k, k)."""
        return np.stack([c.values for c in self.components])


@dataclass(frozen=True)
class NahmData(_PathQuadruple):
    """The quadruple (T0, T1, T2, T3) of algebra paths on a shared grid."""

    algebra: AlgebraSpec
    T0: AlgebraPath
    T1: AlgebraPath
    T2: AlgebraPath
    T3: AlgebraPath

    def __post_init__(self):
        super().__post_init__()
        if self.T0.dim != self.algebra.dim:
            raise ValueError("algebra dimension does not match path samples")

    @property
    def components(self):
        return (self.T0, self.T1, self.T2, self.T3)

    @classmethod
    def from_arrays(cls, algebra: AlgebraSpec, grid: Grid, T0, T1, T2, T3) -> "NahmData":
        return cls(algebra, *(AlgebraPath(grid, T) for T in (T0, T1, T2, T3)))


@dataclass(frozen=True)
class TangentVector(_PathQuadruple):
    """A free tangent vector (t0, t1, t2, t3) to the discretized path space."""

    t0: AlgebraPath
    t1: AlgebraPath
    t2: AlgebraPath
    t3: AlgebraPath

    @property
    def components(self):
        return (self.t0, self.t1, self.t2, self.t3)

    @classmethod
    def from_arrays(cls, grid: Grid, t0, t1, t2, t3) -> "TangentVector":
        return cls(*(AlgebraPath(grid, t) for t in (t0, t1, t2, t3)))


def quadrature(f: np.ndarray, grid: Grid) -> float:
    """Trapezoid rule for node-sampled real values."""
    f = np.asarray(f)
    if f.shape[0] != grid.n + 1:
        raise ValueError(f"expected {grid.n + 1} samples, got {f.shape[0]}")
    return float(np.tensordot(grid.weights, f, axes=(0, 0)))


def path_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order derivative of a free path along axis 0."""
    v = np.asarray(values)
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return d


def dirichlet_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Derivative for paths vanishing at both endpoints.

    First-order one-sided boundary rows; the exact summation-by-parts partner
    of ``path_derivative`` under trapezoid weights.
    """
    v = np.asarray(values)
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (v[1] - v[0]) / h
    d[-1] = (v[-1] - v[-2]) / h
    return d


def _midpoints(v: np.ndarray) -> np.ndarray:
    """Cubic interpolation of node samples at interval midpoints."""
    n = v.shape[0] - 1
    if n < 3:
        return 0.5 * (v[:-1] + v[1:])
    mid = np.empty((n,) + v.shape[1:], dtype=v.dtype)
    mid[1:-1] = (-v[:-3] + 9.0 * v[1:-2] + 9.0 * v[2:-1] - v[3:]) / 16.0
    mid[0] = (5.0 * v[0] + 15.0 * v[1] - 5.0 * v[2] + v[3]) / 16.0
    mid[-1] = (v[-4] - 5.0 * v[-3] + 15.0 * v[-2] + 5.0 * v[-1]) / 16.0
    return mid


def _rk4_step(rhs, y: np.ndarray, h: float, c0, cm, c1) -> np.ndarray:
    """One classical RK4 step of y' = rhs(y, c(s)), the package's one RK4
    formula: c0, cm, c1 are c at the left node, the midpoint (read twice; the
    cubic ``_midpoints`` keep a sampled c fourth order) and the right node.
    State and coefficients broadcast, so one call can take a batch of steps."""
    k1 = rhs(y, c0)
    k2 = rhs(y + 0.5 * h * k1, cm)
    k3 = rhs(y + 0.5 * h * k2, cm)
    k4 = rhs(y + h * k3, c1)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def l2_metric(u: TangentVector, v: TangentVector) -> float:
    """L2 metric: integral of the summed component pairings."""
    g = _shared_grid(u.t0, v.t0)
    total = np.zeros(g.n + 1)
    for uc, vc in zip(u.components, v.components):
        total += pairing_nodes(uc.values, vc.values)
    return quadrature(total, g)


def l2_norm(u: TangentVector) -> float:
    return float(np.sqrt(max(l2_metric(u, u), 0.0)))


def sup_norm(values: np.ndarray) -> float:
    """Max Frobenius norm over nodes."""
    return float(np.max(np.linalg.norm(values, axis=(-2, -1))))


def vertical_field(T0: AlgebraPath, rho: AlgebraPath) -> AlgebraPath:
    """Tangent to the based-gauge orbit: [rho, T0] - rho' for Dirichlet rho."""
    _shared_grid(T0, rho)
    end = max(np.linalg.norm(rho.values[0]), np.linalg.norm(rho.values[-1]))
    if end > 1e-10 * max(1.0, sup_norm(rho.values)):
        raise ValueError("gauge parameter must vanish at both endpoints")
    v = bracket(rho.values, T0.values) - dirichlet_derivative(rho.values, rho.grid.h)
    return AlgebraPath(T0.grid, v)


# Components of right multiplication by the quaternion units i, j, k acting on
# t0 + t1 i + t2 j + t3 k.  Operators compose in application order:
# (v I1) I2 = v I3.
_STRUCTURE = {
    1: ((-1, 1), (1, 0), (1, 3), (-1, 2)),
    2: ((-1, 2), (-1, 3), (1, 0), (1, 1)),
    3: ((-1, 3), (1, 2), (-1, 1), (1, 0)),
}


def complex_structure(i: int, v: TangentVector) -> TangentVector:
    """Apply the complex structure I_i (right quaternion multiplication)."""
    if i not in (1, 2, 3):
        raise ValueError("complex structure index must be 1, 2 or 3")
    comps = [c.values for c in v.components]
    out = [sign * comps[idx] for sign, idx in _STRUCTURE[i]]
    return TangentVector.from_arrays(v.grid, *out)


def omega(i: int, u: TangentVector, v: TangentVector) -> float:
    """Symplectic form omega_i(u, v) = g(I_i u, v)."""
    return l2_metric(complex_structure(i, u), v)


def so3_rotate(A: np.ndarray, d: NahmData) -> NahmData:
    """Rotate the triple (T1, T2, T3) by A in SO(3); T0 is unchanged."""
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3) or np.linalg.norm(A.T @ A - np.eye(3)) > 1e-10:
        raise ValueError("need an orthogonal 3x3 matrix")
    if np.linalg.det(A) < 0:
        raise ValueError("need det A = +1")
    T = np.stack([d.T1.values, d.T2.values, d.T3.values])
    R = np.einsum("ij,jnkl->inkl", A, T)
    return NahmData.from_arrays(d.algebra, d.grid, d.T0.values, R[0], R[1], R[2])


def s1_action(theta: float, d: NahmData) -> NahmData:
    """(T2 + i T3) -> e^{i theta} (T2 + i T3); fixes T0, T1."""
    c, s = np.cos(theta), np.sin(theta)
    T2 = c * d.T2.values - s * d.T3.values
    T3 = s * d.T2.values + c * d.T3.values
    return NahmData.from_arrays(d.algebra, d.grid, d.T0.values, d.T1.values, T2, T3)


def random_smooth_path(
    spec: AlgebraSpec,
    grid: Grid,
    rng: np.random.Generator,
    modes: int = 3,
    scale: float = 1.0,
) -> AlgebraPath:
    """Low-frequency Fourier path with exactly algebra-valued samples."""
    d = spec.dim * spec.dim - 1
    x = (grid.nodes - grid.s0) / (grid.s1 - grid.s0)
    coeff = np.zeros((grid.n + 1, d))
    for m in range(modes + 1):
        damp = scale / (1.0 + m * m)
        a = rng.standard_normal(d) * damp
        b = rng.standard_normal(d) * damp
        coeff += np.outer(np.cos(np.pi * m * x), a)
        if m > 0:
            coeff += np.outer(np.sin(np.pi * m * x), b)
    return AlgebraPath(grid, su_from_coords(coeff, spec.dim))


def random_dirichlet_path(
    spec: AlgebraSpec,
    grid: Grid,
    rng: np.random.Generator,
    modes: int = 3,
    scale: float = 1.0,
) -> AlgebraPath:
    """Smooth path vanishing at both endpoints (sine series)."""
    d = spec.dim * spec.dim - 1
    x = (grid.nodes - grid.s0) / (grid.s1 - grid.s0)
    coeff = np.zeros((grid.n + 1, d))
    for m in range(1, modes + 1):
        a = rng.standard_normal(d) * scale / (m * m)
        coeff += np.outer(np.sin(np.pi * m * x), a)
    return AlgebraPath(grid, su_from_coords(coeff, spec.dim))


def random_tangent(
    spec: AlgebraSpec,
    grid: Grid,
    rng: np.random.Generator,
    modes: int = 3,
    scale: float = 1.0,
) -> TangentVector:
    return TangentVector(*(random_smooth_path(spec, grid, rng, modes, scale) for _ in range(4)))
