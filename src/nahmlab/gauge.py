"""Gauge-group action on path space, real and complex gauge fixing, monodromy,
and the horizontal projection behind the quotient metric.

The compact group acts on quadruples, a unitary path g (``GroupPath``) by
g.(T0, Ti) = (g T0 g^dag - g' g^dag, g Ti g^dag).  Trivializing T0 means
solving g' = g T0 with g(s0) = 1; the endpoint value g(s1) is the monodromy
realizing the identification of the path-space quotient with the group
itself.  The complex trivialization of T0 + i T1 is a GL(k, C) path, handed
out as a plain ``AlgebraPath``: the complex group acts on the Lax pair, not on
the quadruple.  The ODE is linear: one batched step of the RK4 formula of
``paths`` gives every propagator, a blocked prefix product multiplies them
out, and a real gauge takes their unitary polar factor by Newton-Schulz steps.
Each product is one real product, X.view(float) times the real form phi(Y)
(``algebra._cmatmul``), phi built once for all the products that share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AlgebraSpec, InputError, _cmatmul, _real_form, _unit_scaled, ad_matrix, dagger, su_coords, su_from_coords
from .moment import mu_baby
from .paths import (
    AlgebraPath,
    NahmData,
    _midpoints,
    _rk4_scalars,
    _rk4_step,
    _shared_grid,
    path_derivative,
    quadrature,
    sup_norm,
    vertical_field,
)

__all__ = [
    "GroupPath",
    "act",
    "trivialize",
    "monodromy",
    "complex_trivialize",
    "complex_trivialize_direct",
    "exp_su_path",
    "vertical_field",
    "horizontal_project",
    "quotient_metric",
]


@dataclass(frozen=True)
class GroupPath(AlgebraPath):
    """Node-indexed unitary matrices, the path of a gauge transformation in G.

    The samples are a read-only copy of the input, as in ``AlgebraPath``;
    ``_own`` takes a fresh array instead, and both check unitarity.
    """

    def _hold(self, grid, values: np.ndarray, k: int | None = None, batch: bool = False):
        super()._hold(grid, values, k, batch)
        if not self.unitarity_defect <= 1e-8:
            raise ValueError(f"GroupPath not unitary, max |g g^dag - 1| = {self.unitarity_defect:.3e}")
        return self

    @cached_property
    def unitarity_defect(self) -> float:
        """max over the nodes of |g g^dag - 1| (= |g^dag g - 1| for square g),
        unless a producer handed it over; phi(g^dag) is phi(g) transposed."""
        return sup_norm(_cmatmul(self.values, _real_form(self.values).swapaxes(-1, -2)) - np.eye(self.dim))


def exp_su_path(rho: AlgebraPath) -> GroupPath:
    """Node-wise exponential of a skew-Hermitian path (batched via eigh)."""
    w, V = np.linalg.eigh(-1j * rho.values)
    vals = _cmatmul(V * np.exp(1j * w)[..., None, :], _real_form(dagger(V)))
    return GroupPath._own(rho.grid, vals)


def act(g: GroupPath, d: NahmData) -> NahmData:
    """Gauge action: T0 conjugates with the connection term, Ti conjugate.
    The gauge is inverted as g^dag (to its unitarity defect, <= 1e-8), its
    real form built once for all five products (``algebra._cmatmul``)."""
    _shared_grid(g, d)
    gv, ginv = g.values, _real_form(dagger(g.values))
    out = np.empty_like(d.values)
    for x, o in zip(d.values, out):
        o[...] = _cmatmul(_cmatmul(gv, _real_form(x)), ginv)
    out[0] -= _cmatmul(path_derivative(gv, d.grid.h), ginv)
    return NahmData._own(d.grid, out)


def _right_trivialize(C: AlgebraPath, unitary: bool) -> AlgebraPath:
    """g' = g C, g(s0) = 1.  The flow is linear, so the RK4 step from node m
    is g_m P_m with P_m the step from the identity: one step batched over the
    intervals gives every P_m.  g is their running product in b x b blocks
    (b ~ sqrt(n), identities pad): inside all blocks at once, across the block
    ends, then into the next block.  A real gauge takes the polar factor by
    Newton-Schulz steps g + (1 - g g^dag) g / 2 (a defect e < 1/2 goes to about
    3 e^2 / 4) until the defect is 4 k eps or stops falling, at most 8; then
    that defect, of the g returned, is handed to the path's unitarity check.
    A complex flow, with no such test, first refuses h |C| past 2 sqrt 2, RK4's
    limit on the imaginary axis (|C| Frobenius bounds every eigenvalue).  Each
    product is ``_cmatmul``'s: phi of C and of its midpoints serves all four
    stages, and phi(g), transposed for g^dag, both products of a polar step."""
    c, k, eye = C.values, C.dim, np.eye(C.dim, dtype=complex)
    b = int(np.ceil(np.sqrt(len(c))))
    with np.errstate(over="ignore", invalid="ignore"):  # past RK4 stability: the tests below report it
        if not unitary:  # decided on the exact rescale, where no norm overflows
            scaled, _, unit = _unit_scaled(c)
            hc = C.grid.h * np.linalg.norm(scaled, axis=(-2, -1))
            if np.any(past := hc > 2.0 * np.sqrt(2.0) * unit):
                m = np.argmax(past)  # the first node past the limit
                raise np.linalg.LinAlgError(f"RK4 complex gauge step h |C| = {hc[m] / unit:.3e} past 2 sqrt(2) "
                                            f"at s = {C.grid.nodes[m]:.6g}: grid too coarse")
        scalars = tuple(x.astype(complex) for x in _rk4_scalars(C.grid.h))
        phi = _real_form(c)
        steps = _rk4_step(_cmatmul, eye, scalars, phi[:-1], _real_form(_midpoints(c)), phi[1:])
        g = np.concatenate([eye[None], steps, np.broadcast_to(eye, (b * b - len(c), k, k))]).reshape(b, b, k, k)
        phi = _real_form(g)  # the right factors are the propagators as stepped
        for j in range(1, b):
            g[:, j] = _cmatmul(g[:, j - 1], phi[:, j])
        phi = _real_form(g[:, -1])
        for i in range(1, b):
            g[i, -1] = _cmatmul(g[i - 1, -1], phi[i])
        g[1:, :-1] = _cmatmul(g[:-1, -1:], _real_form(g[1:, :-1]))
        g, last, held = g.reshape(b * b, k, k)[: len(c)], np.inf, {}
        for _ in range(8 if unitary else 0):
            phi = _real_form(g)
            e = eye - _cmatmul(g, phi.swapaxes(-1, -2))
            defect = np.linalg.norm(e, axis=(-2, -1))
            if not defect.max() < 0.5:
                m = np.argmin(defect < 0.5)  # the first node off
                off = f"{defect[m]:.3e}"
                if not np.isfinite(defect[m]):  # an overflowed step: name h |C| there, its norm taken on the rescale
                    scaled, _, unit = _unit_scaled(c[m])
                    off = f"an overflow, h |C| = {C.grid.h * np.linalg.norm(scaled) / unit:.3e},"
                raise np.linalg.LinAlgError(f"RK4 gauge off unitary by {off} at s = {C.grid.nodes[m]:.6g}: "
                                            "grid too coarse")
            if defect.max() <= 4 * k * np.finfo(float).eps or defect.max() >= last:
                held["unitarity_defect"] = float(defect.max())
                break
            g, last = g + 0.5 * _cmatmul(e, phi), defect.max()
    return GroupPath._own(C.grid, g, **held) if unitary else AlgebraPath._own(C.grid, g)


def trivialize(T0: AlgebraPath) -> GroupPath:
    """Unique gauge g with g(s0) = 1 solving g.T0 = 0 (so g' = g T0)."""
    return _right_trivialize(T0, unitary=True)


def monodromy(T0: AlgebraPath) -> np.ndarray:
    """Endpoint g(s1) of the trivializing gauge; G0-invariant."""
    return trivialize(T0).values[-1]


def complex_trivialize_direct(T0: AlgebraPath, T1: AlgebraPath) -> AlgebraPath:
    """One-stage complex trivialization: solve g' = g (T0 + i T1), g(s0) = 1,
    for the GL(k, C) path g."""
    _shared_grid(T0, T1)
    return _right_trivialize(AlgebraPath(T0.grid, T0.values + 1j * T1.values), unitary=False)


def complex_trivialize(T0: AlgebraPath, T1: AlgebraPath, level_tol: float):
    """Two-stage complex gauge fixing of a level-set pair (T0, T1).

    Requires T1(s0) in su(k) and T1' = [T1, T0] to tolerance.  Returns the
    real trivializing gauge g, the endpoint exp(i (s1-s0) T1(s0)) g(s1) of the
    combined complex gauge, and T1(s0); the exponent is Hermitian, so one eigh
    gives the exponential.
    """
    grid = _shared_grid(T0, T1)
    if not level_tol > 0:
        raise InputError(f"need a level-set tolerance > 0, got {level_tol!r}")
    T1_0 = T1.values[0]
    if not AlgebraSpec("su", T1.dim).is_member(T1_0, tol=1e-8):
        raise InputError("T1(s0) is not in su(k)")
    res = sup_norm(mu_baby(T0, T1).values)
    if not res <= level_tol:
        raise InputError(f"level-set residual {res:.3e} exceeds {level_tol:.1e}")
    g = trivialize(T0)
    conj = _cmatmul(_cmatmul(g.values, _real_form(T1.values)), _real_form(dagger(g.values)))
    drift = sup_norm(conj - conj[0])
    if not drift <= max(10.0 * level_tol, 1e-8):
        raise InputError(f"gauged T1 drifts by {drift:.3e}, not constant")
    w, V = np.linalg.eigh(1j * (grid.s1 - grid.s0) * T1_0)
    g_tilde_end = (V * np.exp(w)) @ dagger(V) @ g.values[-1]
    return g, g_tilde_end, T1_0


def _vertical_operator(T0: AlgebraPath):
    """Blocks (ad, below, above) of rho -> [rho, T0] - rho' in basis coordinates.

    Over nodes 0..n, with rho(0) = rho(n) = 0, row m of the field reads
    below[m-1] rho[m-1] + ad[m] rho[m] + above[m] rho[m+1]: the one-sided rows
    of ``dirichlet_derivative`` at the ends, the central difference inside.
    The stencil coefficients have shape (n, 1, 1), to scale blocks node-wise.
    """
    below = np.full((T0.grid.n, 1, 1), 0.5 / T0.grid.h)
    below[-1] = 1.0 / T0.grid.h
    return ad_matrix(T0.values), below, -below[::-1]


def _block_tridiagonal(ad, below, above, x: np.ndarray) -> np.ndarray:
    """Row m is ad[m] x[m] + below[m-1] x[m-1] + above[m] x[m+1], for x of shape
    (n+1, d, c); the operator (ad^T, above, below) is its transpose."""
    out = ad @ x
    out[1:] += below * x[:-1]
    out[:-1] += above * x[1:]
    return out


def _horizontal_coords(T0: AlgebraPath, *ts: AlgebraPath) -> np.ndarray:
    """Coordinates (n+1, d, len(ts)) of the horizontal parts of ts at T0.

    The weighted normal equations (V^T W V) rho = V^T W t for the optimal
    Dirichlet gauge parameter are block-pentadiagonal and positive definite:
    one banded Cholesky factorization serves every t.  G is written straight
    into lower band storage band[u, i d + q] = G[i d + q + u, i d + q], u <= 2d,
    held Fortran-ordered as bt[i, q, u] and factored in place: entry (p, q) of
    block G[i+b, i] goes to bt[i, q, b d + p - q].
    """
    from scipy.linalg import cho_solve_banded, cholesky_banded  # loaded on first use, not at import
    _shared_grid(T0, *ts)
    n, d, w = T0.grid.n, T0.dim**2 - 1, T0.grid.weights[:, None, None]
    ad, below, above = _vertical_operator(T0)
    A, At, eye = ad[1:-1], np.swapaxes(ad[1:-1], -1, -2), np.eye(d)
    bt = np.zeros((n - 1, d, 2 * d + 1))
    p, q = np.tril_indices(d)
    bt[:, q, p - q] = (w[1:-1] * (At @ A) + (w[:-2] * above[:-1] ** 2 + w[2:] * below[1:] ** 2) * eye)[:, p, q]
    p, q = np.indices((d, d)).reshape(2, -1)
    bt[:-1, q, d + p - q] = (w[1:-2] * above[1:-1] * A[:-1] + w[2:-1] * below[1:-1] * At[1:])[:, p, q]
    bt[:-2, :, 2 * d] = (w[2:-2] * above[2:-1] * below[1:-2])[..., 0]
    tc = np.stack([su_coords(t.values) for t in ts], axis=-1)
    rhs = _block_tridiagonal(np.swapaxes(ad, -1, -2), above, below, w * tc)[1:-1]
    rho = np.zeros_like(tc)
    factor = cholesky_banded(bt.reshape(-1, 2 * d + 1).T, overwrite_ab=True, lower=True)
    rho[1:-1] = cho_solve_banded((factor, True), rhs.reshape(-1, len(ts))).reshape(rhs.shape)
    return tc - _block_tridiagonal(ad, below, above, rho)


def horizontal_project(T0: AlgebraPath, t: AlgebraPath) -> AlgebraPath:
    """Component of t orthogonal to the based-gauge orbit directions at T0.

    Solves the weighted normal equations for the optimal gauge parameter and
    subtracts the fitted vertical field.
    """
    return AlgebraPath(T0.grid, su_from_coords(_horizontal_coords(T0, t)[..., 0], T0.dim))


def quotient_metric(T0: AlgebraPath, t: AlgebraPath, t2: AlgebraPath) -> float:
    """L2 metric of the horizontal projections of t and t2 at T0."""
    p = _horizontal_coords(T0, t, t2)
    return quadrature(np.einsum("mi,mi->m", p[..., 0], p[..., 1]), T0.grid)
