"""Discretized path spaces: grids, quadrature, the L2 metric, and the
quaternionic complex structures and their symplectic forms.

Paths are sampled on uniform grids and stored as read-only (n+1, k, k)
complex arrays; a quadruple T0 + T1 i + T2 j + T3 k (``NahmData``), a point of
the flat path space or a tangent vector to it, is one (4, n+1, k, k) stack, the
moment-map triple (``moment.MomentResidual``) one (3, n+1, k, k) stack, their
components ``AlgebraPath`` views of it.  That is the one layout, C-ordered, with
a chunk of B paths as lead + (n+1, B, k, k).  Two difference operators are used:

* ``path_derivative``      - centered interior, second-order one-sided rows at
                             the endpoints; used for free paths (connections,
                             gauge transformations, tangent vectors);
* ``dirichlet_derivative`` - centered interior, first-order one-sided rows;
                             used only for gauge parameters vanishing at both
                             endpoints.  With trapezoid weights this pair makes
                             the discrete integration-by-parts identity exact,
                             which the moment-map and quotient-metric checks
                             rely on.

``_rk4_step`` is the package's one RK4 formula.  The Nahm loop calls it once
per step over a batch of states (``solver._nahm_flow``), the Parareal coarse
sweep a few times a segment (``solver._parareal``), and the linear flows of
``gauge`` once in all, batched over the intervals, for every step's propagator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AlgebraSpec, InputError, _su_bracket, pairing_nodes, su_from_coords

__all__ = [
    "Grid",
    "AlgebraPath",
    "NahmData",
    "quadrature",
    "path_derivative",
    "dirichlet_derivative",
    "vertical_field",
    "l2_metric",
    "l2_norm",
    "sup_norm",
    "complex_structure",
    "omega",
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
        if not isinstance(self.n, (int, np.integer)) or not 2 <= self.n < np.iinfo(np.intp).max:
            raise InputError(f"grid needs an integer n >= 2 intervals, n + 1 nodes an array can index, got {self.n!r}")
        # NaN, an infinite endpoint, s1 <= s0 and a step that overflows or underflows all fail this
        if not 0 < (float(self.s1) - float(self.s0)) / self.n < np.inf:
            raise InputError(f"grid needs s0 < s1 with a finite nonzero step (s1 - s0) / n, "
                             f"got [{self.s0}, {self.s1}] and n = {self.n}")

    @property
    def h(self) -> float:
        return (self.s1 - self.s0) / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        """The n + 1 nodes, made on first use and read-only."""
        x = np.linspace(self.s0, self.s1, self.n + 1)
        x.flags.writeable = False
        return x

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights, made on first use and read-only."""
        w = np.full(self.n + 1, self.h)
        w[0] = w[-1] = 0.5 * self.h
        w.flags.writeable = False
        return w


def _read_only(values) -> np.ndarray:
    """A read-only complex copy, for the array fields of frozen values."""
    values = np.array(values, dtype=complex)
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class AlgebraPath:
    """A discretized map [s0, s1] -> g: node-indexed (n+1, k, k) samples, a
    read-only copy of the input, so later writes to the caller's array do not
    show up in the path.  A subclass with a leading component axis ``_lead``
    holds its component paths as one such stack, lead + (n+1, k, k), or lead +
    (n+1, B, k, k) for a chunk of B paths: the one layout, component-major and
    C-ordered in memory, as every producer returns it and the Nahm loop steps it."""

    grid: Grid
    values: np.ndarray

    _lead = ()

    def __post_init__(self):
        self._hold(self.grid, np.array(self.values, dtype=complex))

    def _hold(self, grid: Grid, values: np.ndarray, k: int | None = None, batch: bool = False):
        """Take ``values``, a fresh complex array of shape lead + (n+1, k, k),
        or with ``batch`` lead + (n+1, B, k, k) for B paths, without a copy and
        make it read-only; k is checked when given."""
        batch_axis = values.shape[len(self._lead) + 1:-2][:1] if batch else ()
        want = self._lead + (grid.n + 1,) + batch_axis + (values.shape[-1:] * 2 if k is None else (k, k))
        if values.shape != want:
            raise ValueError(f"bad {type(self).__name__} shape {values.shape}, expected {want}")
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        return self

    @classmethod
    def _own(cls, grid: Grid, values: np.ndarray, k: int | None = None, batch: bool = True, **fields):
        """The record of ``values``, a fresh array no one else holds, and of
        ``fields``; unless ``batch`` is off, of a chunk of B paths as well."""
        rec = object.__new__(cls)
        rec.__dict__.update(fields)
        return rec._hold(grid, values, k, batch)

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @cached_property
    def components(self) -> tuple:
        """The component paths of a stack, views of it; a plain path is its own."""
        return tuple(AlgebraPath._own(self.grid, v) for v in self.values) if self._lead else (self,)


def _component(i: int) -> property:
    return property(lambda self: self.components[i], doc=f"Component {i}, a view of the stack.")


def _shared_grid(*paths) -> Grid:
    """The grid of paths that must share one."""
    g = paths[0].grid
    for p in paths[1:]:
        if p.grid != g:
            raise InputError("paths live on different grids")
    return g


@dataclass(frozen=True, init=False)
class NahmData(AlgebraPath):
    """The quadruple (T0, T1, T2, T3) of su(k) paths on one grid, held as one
    read-only stack of shape (4, n+1, k, k); the components are views of it.
    The path space is flat, so a tangent vector to it is such a quadruple too."""

    _lead = (4,)
    T0, T1, T2, T3 = map(_component, range(4))

    def __init__(self, algebra: AlgebraSpec, T0: AlgebraPath, T1: AlgebraPath, T2: AlgebraPath, T3: AlgebraPath):
        self._hold(_shared_grid(T0, T1, T2, T3), np.array([T.values for T in (T0, T1, T2, T3)]), algebra.dim)

    @property
    def algebra(self) -> AlgebraSpec:
        return AlgebraSpec("su", self.dim)

    @classmethod
    def from_arrays(cls, algebra: AlgebraSpec, grid: Grid, T0, T1, T2, T3) -> "NahmData":
        return cls._own(grid, np.array((T0, T1, T2, T3), dtype=complex), algebra.dim, batch=False)


def quadrature(f: np.ndarray, grid: Grid):
    """Trapezoid rule for node-sampled real values; for (n+1, B) values of a
    batch, the array of the B integrals, each the same 1-D sum as a path's."""
    f = np.asarray(f)
    if f.shape[0] != grid.n + 1:
        raise ValueError(f"expected {grid.n + 1} samples, got {f.shape[0]}")
    if f.ndim > 1:
        return np.array([quadrature(member, grid) for member in np.ascontiguousarray(f.T)])
    return float(np.dot(grid.weights, f))


def path_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order derivative of a free path along axis 0."""
    v = np.asarray(values)
    return _derivative(v, h, np.empty_like(v))


def _derivative(v: np.ndarray, h: float, d: np.ndarray) -> np.ndarray:
    """``path_derivative`` of v written into d, with no path-sized temporary."""
    np.divide(np.subtract(v[2:], v[:-2], out=d[1:-1]), 2.0 * h, out=d[1:-1])
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return d


def dirichlet_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Derivative for paths vanishing at both endpoints.

    First-order one-sided boundary rows; the exact summation-by-parts partner
    of ``path_derivative`` under trapezoid weights.
    """
    v = np.asarray(values)
    d = _derivative(v, h, np.empty_like(v))  # its central interior; the end rows are replaced
    d[0] = (v[1] - v[0]) / h
    d[-1] = (v[-1] - v[-2]) / h
    return d


_BLOCK_BYTES = 1 << 16  # one k x k slice of a node block: 4096 / k^2 nodes (the size is measured in CHANGES.md)


def _node_slices(values: np.ndarray) -> list:
    """The node slices of consecutive blocks of a path's samples (n+1, ...),
    each block's samples about ``_BLOCK_BYTES``, first to last."""
    step = max(1, _BLOCK_BYTES // values[0].nbytes)
    return [slice(first, first + step) for first in range(0, len(values), step)]


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


def _rk4_scalars(h: float) -> tuple:
    """h/2, h, h/6, 2 as 0-d real arrays, made once per flow; a complex flow
    converts them to complex once, as numpy would per product."""
    return tuple(np.array(c) for c in (0.5 * h, h, h / 6.0, 2.0))


def _rk4_step(rhs, y: np.ndarray, scalars: tuple, c0, cm, c1) -> np.ndarray:
    """One classical RK4 step of y' = rhs(y, c(s)), the package's one RK4
    formula, with ``_rk4_scalars(h)``: c0, cm, c1 are c at the left node, the
    midpoint (read twice; cubic ``_midpoints`` keep a sampled c fourth order)
    and the right node.  State and coefficients broadcast to batch steps."""
    half, h, sixth, two = scalars
    k1 = rhs(y, c0)
    k2 = rhs(y + half * k1, cm)
    k3 = rhs(y + half * k2, cm)
    k4 = rhs(y + h * k3, c1)
    return y + sixth * (k1 + two * k2 + two * k3 + k4)


def l2_metric(u: NahmData, v: NahmData) -> float:
    """L2 metric: integral of the summed component pairings."""
    return quadrature(pairing_nodes(u.values, v.values).sum(axis=0, initial=0.0), _shared_grid(u, v))


def l2_norm(u: NahmData) -> float:
    return np.sqrt(np.maximum(l2_metric(u, u), 0.0))


def sup_norm(values: np.ndarray) -> float:
    """Max Frobenius norm over nodes."""
    return float(np.max(np.linalg.norm(values, axis=(-2, -1))))


def vertical_field(T0: AlgebraPath, rho: AlgebraPath) -> AlgebraPath:
    """Tangent to the based-gauge orbit: [rho, T0] - rho' for Dirichlet rho."""
    _shared_grid(T0, rho)
    norms = np.linalg.norm(rho.values, axis=(-2, -1))  # per node and batch member
    # np.max keeps a NaN, which fails; fmax, as max does, takes 1 over a NaN sup
    if not np.all(np.max(norms[[0, -1]], axis=0) <= 1e-10 * np.fmax(1.0, np.max(norms, axis=0))):
        raise InputError("gauge parameter must vanish at both endpoints")
    v = _su_bracket(rho.values, T0.values) - dirichlet_derivative(rho.values, rho.grid.h)
    return AlgebraPath._own(T0.grid, v)


# Right multiplication by the quaternion units i, j, k acting on
# t0 + t1 i + t2 j + t3 k: component m of the result is signs[m] times
# component source[m].  Operators compose in application order:
# (v I1) I2 = v I3.
_STRUCTURE = {  # i: (signs, source)
    1: ((-1, 1, 1, -1), (1, 0, 3, 2)),
    2: ((-1, -1, 1, 1), (2, 3, 0, 1)),
    3: ((-1, 1, -1, 1), (3, 2, 1, 0)),
}


def _structure(i, refusal: str = "complex structure index must be the int 1, 2 or 3") -> tuple:
    """The (signs, source) of I_i; InputError(refusal) unless i is the int 1, 2 or 3 (a bool is no index)."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or i not in _STRUCTURE:
        raise InputError(refusal)
    return _STRUCTURE[i]


def complex_structure(i: int, v: NahmData) -> NahmData:
    """Apply the complex structure I_i (right quaternion multiplication)."""
    signs, source = _structure(i)
    return NahmData._own(v.grid, np.reshape(signs, (4,) + (1,) * (v.values.ndim - 1)) * v.values[list(source)])


def omega(i: int, u: NahmData, v: NahmData) -> float:
    """Symplectic form omega_i(u, v) = g(I_i u, v), paired from u's component views."""
    grid, total = _shared_grid(u, v), 0.0
    for sign, m, vm in zip(*_structure(i), v.values):  # in component order, as l2_metric sums
        total = (np.add if sign > 0 else np.subtract)(total, pairing_nodes(u.values[m], vm))
    return quadrature(total, grid)


# samples per chunk of a batched sample loop: past about ten the time per
# sample stops falling (measured in CHANGES.md), while a chunk's memory grows
CHUNK = 10


def _random_chunk(spec: AlgebraSpec, grid: Grid, rng: np.random.Generator, count: int, kinds, modes=3, scale=1.0):
    """``count`` rounds of draws in one pass, a round one draw of each kind in
    turn: "path" (a ``random_smooth_path``), "tangent" (four) or "dirichlet"
    (a ``random_dirichlet_path``).  Each kind comes back as the samples
    (..., n+1, count, k, k) of its draws, with the numbers, and the generator's
    end state, of the rounds drawn one by one."""
    d, x = spec.dim * spec.dim - 1, (grid.nodes - grid.s0) / (grid.s1 - grid.s0)
    shapes = {"path": (modes + 1, 2, d), "tangent": (4, modes + 1, 2, d), "dirichlet": (modes, 1, d)}
    sizes = [int(np.prod(shapes[kind])) for kind in kinds]
    out = []
    for kind, z in zip(kinds, np.split(rng.standard_normal((count, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)):
        z = np.moveaxis(z.reshape((count,) + shapes[kind]), 0, -2)[..., None, :, :]  # (..., mode, term, 1, count, d)
        coeff = np.zeros(z.shape[:-5] + (grid.n + 1, count, d))
        for m in range(z.shape[-5]):
            if kind == "dirichlet":  # the sine of mode j = m + 1, damped by scale / j^2
                j = m + 1
                coeff += np.sin(np.pi * j * x)[:, None, None] * (z[..., m, 0, :, :, :] * scale / (j * j))
                continue
            damp = scale / (1.0 + m * m)  # a cosine and a sine, the sine of mode 0 drawn but unused
            coeff += np.cos(np.pi * m * x)[:, None, None] * (z[..., m, 0, :, :, :] * damp)
            if m > 0:
                coeff += np.sin(np.pi * m * x)[:, None, None] * (z[..., m, 1, :, :, :] * damp)
        out.append(su_from_coords(coeff, spec.dim))
    return out


def random_smooth_path(
    spec: AlgebraSpec,
    grid: Grid,
    rng: np.random.Generator,
    modes: int = 3,
    scale: float = 1.0,
) -> AlgebraPath:
    """Low-frequency Fourier path with exactly algebra-valued samples."""
    return AlgebraPath._own(grid, _random_chunk(spec, grid, rng, 1, ["path"], modes, scale)[0][:, 0])


def random_dirichlet_path(spec: AlgebraSpec, grid: Grid, rng: np.random.Generator, scale: float = 1.0) -> AlgebraPath:
    """Smooth path vanishing at both endpoints (sine series)."""
    return AlgebraPath._own(grid, _random_chunk(spec, grid, rng, 1, ["dirichlet"], scale=scale)[0][:, 0])


def random_tangent(spec: AlgebraSpec, grid: Grid, rng: np.random.Generator) -> NahmData:
    return NahmData._own(grid, _random_chunk(spec, grid, rng, 1, ["tangent"])[0][:, :, 0])
