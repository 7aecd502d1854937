"""Initial-value and terminal-value solvers for the baby and full Nahm
equations, closed-form reference solutions, and half-line adjoint-orbit
identification.  The Lax pair (``LaxPair``, ``lax_extract``) lives in
``moment``; the names here are the same objects.

All initial-value work is done in the T0 = 0 gauge, where the system reads
T1' = [T2, T3] (and cyclic), stepped by the RK4 formula of ``paths`` from a
start projected once onto the algebra: the field maps su(k)^3 into itself, and
RK4 keeps that linear subspace to rounding; the baby flow is a conjugation
by the trivializing gauge of ``gauge``, with no stepping of its own.
The half-line problem fixes the whole state at a truncation length L to the
first-order asymptotic model tau_i + sigma(e_i)/(L+1), which determines the
solution: since S(u) = -T(L - u) solves Nahm whenever T does, one forward
integration from -model(L), batched with the guess's, gives T(0); unless the
guess ends at the model, a forward replay from T(0) gives the path on [0, L].
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import AlgebraSpec, InputError, Su2Triple, _unit_scaled, bracket, char_poly_coeffs, dagger, su2_basis, su2_embed
from .gauge import trivialize
from .io import to_pairs
from .moment import LaxPair, lax_extract, mu_nahm
from .paths import AlgebraPath, Grid, NahmData, _read_only, _rk4_scalars, _rk4_step

__all__ = [
    "NahmBlowUpError",
    "LaxPair",
    "BoundaryTarget",
    "HalflineResult",
    "OrbitReport",
    "char_poly",
    "integrate_baby",
    "integrate_nahm",
    "nil_solution",
    "coth_solution",
    "lax_extract",
    "asymptotic_model",
    "halfline_solve",
    "orbit_identify",
]


class NahmBlowUpError(RuntimeError):
    """A Nahm flow exceeded the configured norm bound in finite time."""

    def __init__(self, s: float, norm: float):
        super().__init__(f"Nahm flow blow-up near s = {s:.6g} (norm {norm:.3e})")
        self.s = s
        self.norm = norm


def char_poly(M: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients of det(eta - M), descending."""
    return np.concatenate([[1.0], *char_poly_coeffs(np.asarray(M, dtype=complex)[None])])


_CYCLE = np.array([[1, 2, 0], [2, 0, 1]])


def _nahm_rhs(Y: np.ndarray, _) -> np.ndarray:
    """Right-hand side (T1', T2', T3') = ([T2,T3], [T3,T1], [T1,T2]) of a
    component-major (3, B, k, k) batch: X = [A; C] = [(T2,T3,T1); (T3,T1,T2)],
    and one stacked matmul X @ [C; A] gives the six products [AC; CA]."""
    X = Y.take(_CYCLE, axis=0)
    P = X @ X[::-1]
    return P[0] - P[1]


def _member_triple(algebra: AlgebraSpec, mats, what: str) -> np.ndarray:
    """mats as a (3, k, k) stack; InputError unless three elements of the algebra."""
    Y = [np.asarray(M, dtype=complex) for M in mats]
    if len(Y) != 3 or any(M.shape != (algebra.dim, algebra.dim) for M in Y) or not algebra.is_member(Y, tol=1e-8):
        raise InputError(f"{what} must be three elements of su({algebra.dim})")
    return np.stack(Y)


def _nahm_flow(algebra: AlgebraSpec, Y0: np.ndarray, grid: Grid, blowup_bound: float) -> tuple:
    """RK4 steps from states Y0 (B, 3, k, k), projected onto the algebra once on
    entry (off it the flow is nonlinear and would carry a start's off-algebra
    part along; on it RK4 stays there to rounding): the (n+1, B, 3, k, k) path
    and per member None or (s, max norm or inf) at the first node past the bound,
    where it is zeroed (a fixed point, so the cheap test holds for the rest)."""
    if not blowup_bound > 0:
        raise InputError(f"need a blow-up bound > 0, got {blowup_bound!r}")
    # a sum of the squared norms below this keeps every norm within the
    # bound, rounding allowed for; the clamp keeps the square normal and finite
    bound = min(float(blowup_bound), 1e150)
    cheap_bound = bound * bound * (1.0 - 1e-12) if bound > 1e-150 else 0.0

    # the state is stepped component-major, (3, B, k, k): the right-hand side
    # then takes its views on the leading axis, the cheapest numpy makes
    scalars, blowups = _rk4_scalars(grid.h), [None] * len(Y0)
    traj = np.empty((grid.n + 1, 3, len(Y0)) + Y0.shape[2:], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        traj[0] = algebra.project(Y0.swapaxes(0, 1))
        y = traj[0]
        for m in range(grid.n):
            y = traj[m + 1] = _rk4_step(_nahm_rhs, y, scalars, None, None, None)
            if not np.vdot(y, y).real <= cheap_bound:
                norms = np.linalg.norm(y, axis=(-2, -1))
                for b in np.flatnonzero(~np.all(norms <= blowup_bound, axis=0)):
                    norm = float(np.max(norms[:, b])) if np.all(np.isfinite(norms[:, b])) else np.inf
                    blowups[b], y[:, b] = (grid.s0 + (m + 1) * grid.h, norm), 0.0
                if None not in blowups:
                    break
    return traj.swapaxes(1, 2), blowups


def integrate_nahm(
    algebra: AlgebraSpec,
    init: tuple,
    grid: Grid,
    blowup_bound: float = 1e6,
) -> NahmData:
    """Solve the Nahm equations in the T0 = 0 gauge from (T1, T2, T3)(s0).

    The start is projected onto the algebra once; RK4 then keeps the state
    in it to rounding.  Blow-up past the norm bound raises NahmBlowUpError.
    """
    traj, (blowup,) = _nahm_flow(algebra, _member_triple(algebra, init, "init")[None], grid, blowup_bound)
    if blowup is not None:
        raise NahmBlowUpError(*blowup)
    return _gauge_zero(algebra, grid, traj[:, 0].swapaxes(0, 1))


def integrate_baby(T1_init: np.ndarray, T0: AlgebraPath):
    """The Lax flow T1' = [T1, T0(s)] from T1(s0); returns the (T0, T1) paths.

    T1 is covariantly constant, T1(s) = g(s)^-1 T1(s0) g(s) for g' = g T0
    (``gauge.trivialize``): isospectral to rounding, fourth order as g is."""
    su = AlgebraSpec("su", T0.dim)
    X = np.asarray(T1_init, dtype=complex)
    if X.shape != (T0.dim, T0.dim) or not su.is_member(X, tol=1e-8):
        raise InputError(f"initial T1 is not an element of su({T0.dim})")
    g = trivialize(T0).values
    return T0, AlgebraPath(T0.grid, su.project(dagger(g) @ X @ g))


def _gauge_zero(algebra: AlgebraSpec, grid: Grid, T: np.ndarray) -> NahmData:
    """NahmData with T0 = 0 and (T1, T2, T3) = T, of shape (3, n+1, k, k)."""
    return NahmData._own(grid, np.concatenate([np.zeros_like(T[:1]), T]), algebra.dim)


def _separable(algebra: AlgebraSpec, grid: Grid, profiles: tuple, triple) -> NahmData:
    """T0 = 0 and T_i(s) = f_i(s) triple_i, for node-sampled profiles f_i."""
    return _gauge_zero(algebra, grid, np.asarray(profiles)[:, :, None, None] * np.asarray(triple)[:, None])


def nil_solution(algebra: AlgebraSpec, grid: Grid, sigma: Optional[Su2Triple] = None, offset: float = 1.0) -> NahmData:
    """The pole solution T_i(s) = sigma(e_i)/(s + offset), T0 = 0."""
    if sigma is None:
        sigma = su2_embed(algebra)
    f = 1.0 / (grid.nodes + offset)
    return _separable(algebra, grid, (f, f, f), sigma)


def coth_solution(a: float, s0_offset: float, grid: Grid) -> NahmData:
    """Closed-form su(2) half-line solution with T1 -> -a e1 exponentially.

    T1 = -a coth(a(s+c)) e1, T2 = a/sinh(a(s+c)) e2, T3 = -a/sinh(a(s+c)) e3.
    """
    if a <= 0 or s0_offset <= 0:
        raise InputError("need a > 0 and s0_offset > 0")
    xi = a * (grid.nodes + s0_offset)
    with np.errstate(over="ignore"):  # past xi ~ 710, 1/sinh(xi) is its limit 0
        return _separable(AlgebraSpec("su", 2), grid, (-a / np.tanh(xi), a / np.sinh(xi), -a / np.sinh(xi)), su2_basis())


@dataclass(frozen=True)
class BoundaryTarget:
    """Commuting limits (tau1, tau2, tau3), optional su(2) embedding images,
    and the truncation length L of the half-line.

    The matrices are read-only copies of the input, as in ``AlgebraPath``.
    """

    tau1: np.ndarray
    tau2: np.ndarray
    tau3: np.ndarray
    sigma: Optional[Su2Triple] = None
    L: float = 10.0

    def __post_init__(self):
        for name in ("tau1", "tau2", "tau3"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        if self.sigma is not None:
            object.__setattr__(self, "sigma", Su2Triple(*(_read_only(e) for e in self.sigma)))
        if not (np.isfinite(self.L) and self.L > 0):
            raise InputError(f"need a finite L > 0, got {self.L!r}")
        taus = np.stack((self.tau1, self.tau2, self.tau3))
        if not AlgebraSpec("su", self.dim).is_member(taus):
            raise InputError("boundary limits tau_i must lie in su(k)")
        # the commutation tests are homogeneous, so they are taken on the
        # rescaled limits, where no norm or product overflows
        taus, scale = _unit_scaled(taus)
        for i in range(3):
            for j in range(i + 1, 3):
                if not np.linalg.norm(bracket(taus[i], taus[j])) <= 1e-10 * scale**2:
                    raise InputError("boundary limits tau_i must commute")
        if self.sigma is not None:
            sigma, sscale = _unit_scaled(np.stack(self.sigma))
            for s in sigma:
                for t in taus:
                    if not np.linalg.norm(bracket(s, t)) <= 1e-8 * sscale * scale:
                        raise InputError("sigma images must commute with the tau_i")

    @property
    def dim(self) -> int:
        return self.tau1.shape[0]


def asymptotic_model(target: BoundaryTarget, s: float) -> np.ndarray:
    """First-order asymptotic values (tau_i + sigma(e_i)/(s+1)) as (3,k,k)."""
    taus = np.stack([target.tau1, target.tau2, target.tau3])
    if target.sigma is not None:
        taus = taus + np.stack(target.sigma) / (s + 1.0)
    return taus


@dataclass
class HalflineResult:
    data: Optional[NahmData]
    converged: bool
    terminal_deviation: float
    iterations: int
    message: str = ""


def halfline_solve(
    target: BoundaryTarget,
    init_guess: tuple,
    step: float = 5e-3,
    tol: float = 1e-6,
    blowup_bound: float = 1e6,
) -> HalflineResult:
    """The Nahm solution on [0, L] whose state at s = L is the asymptotic model.

    Fixing the full state at L is a terminal-value problem with exactly one
    solution.  The guess (three elements of su(k)) and -model(L) flow as one
    batch; a guess ending within ``tol`` of the model is kept (``iterations``
    0), else the backward solve's T(0) is replayed forward (``iterations`` 1).
    ``converged`` means the reported trajectory ends within 10 tol of the
    model; a blow-up before L gives ``data=None``.
    """
    if not (np.isfinite(step) and step > 0):
        raise InputError(f"need a finite step > 0, got {step!r}")
    if not tol > 0:
        raise InputError(f"need a tolerance > 0, got {tol!r}")
    L = float(target.L)
    grid = Grid(0.0, L, max(int(np.ceil(L / step)), 8))
    algebra = AlgebraSpec("su", target.dim)
    model = _member_triple(algebra, asymptotic_model(target, L), "the model at L")
    guess = _member_triple(algebra, init_guess, "init_guess")

    def gap(term):
        return float(np.max(np.linalg.norm(term - model, axis=(-2, -1))))

    # S(u) = -T(L - u) solves Nahm whenever T does, so the solution through
    # model(L) has T(0) = -S(L) for the S starting at -model(L)
    traj, (guess_blowup, back_blowup) = _nahm_flow(algebra, np.stack([guess, -model]), grid, blowup_bound)
    kept = guess_blowup is None and gap(traj[-1, 0]) <= tol
    iterations, data = int(not kept), _gauge_zero(algebra, grid, traj[:, 0].swapaxes(0, 1)) if kept else None
    if not kept and back_blowup is None:
        with suppress(NahmBlowUpError):
            data = integrate_nahm(algebra, tuple(-traj[-1, 1]), grid, blowup_bound)
    deviation = np.inf if data is None else gap(data.values[1:, -1])
    converged = data is not None and deviation <= 10.0 * tol
    msg = "converged" if converged else "did not reach terminal tolerance"
    if data is None:
        msg = "the solution through the model blows up on [0, L]"
    return HalflineResult(data, converged, deviation, iterations, msg)


@dataclass
class OrbitReport:
    charpoly_beta0: np.ndarray
    charpoly_target: np.ndarray
    max_coeff_dev: float
    certified: bool
    residual_sup: float
    beta0_rank: int

    def to_json(self) -> dict:
        return {
            "charpoly_beta0": to_pairs(self.charpoly_beta0).tolist(),
            "charpoly_target": to_pairs(self.charpoly_target).tolist(),
            "max_coeff_dev": float(self.max_coeff_dev),
            "certified": bool(self.certified),
            "residual_sup": float(self.residual_sup),
            "beta0_rank": int(self.beta0_rank),
        }


def orbit_identify(
    d: NahmData,
    target: BoundaryTarget,
    coeff_tol: float = 1e-6,
    residual_gate: float = 1e-3,
) -> OrbitReport:
    """Compare the characteristic polynomial of beta(0) with that of the orbit
    representative tau2 + i tau3 (+ sigma(e2) + i sigma(e3) when present).

    Certification requires both coefficient agreement and a small Nahm
    residual on the supplied data.
    """
    beta0 = lax_extract(d).beta[0]
    rep = target.tau2 + 1j * target.tau3
    if target.sigma is not None:
        rep = rep + target.sigma.e2 + 1j * target.sigma.e3
    p_beta = char_poly(beta0)
    p_rep = char_poly(rep)
    scale = max(1.0, float(np.max(np.abs(p_rep))))
    dev = float(np.max(np.abs(p_beta - p_rep))) / scale
    residual = mu_nahm(d).sup
    certified = dev <= coeff_tol and residual <= residual_gate
    # rank read at the certification scale: singular values below
    # sqrt(coeff_tol) * |beta(0)| are treated as zero
    rank_tol = np.sqrt(coeff_tol) * max(1.0, float(np.linalg.norm(beta0)))
    rank = int(np.linalg.matrix_rank(beta0, tol=rank_tol))
    return OrbitReport(p_beta, p_rep, dev, certified, residual, rank)
