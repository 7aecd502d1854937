"""Initial-value and terminal-value solvers for the baby and full Nahm
equations, closed-form reference solutions, and half-line adjoint-orbit
identification.  The Lax pair (``LaxPair``, ``lax_extract``) lives in
``moment``; the names here are the same objects.

All initial-value work is done in the T0 = 0 gauge, where the system reads
T1' = [T2, T3] (and cyclic), stepped by the RK4 formula of ``paths`` with a
projection onto the algebra after every step; the baby flow is a conjugation
by the trivializing gauge of ``gauge``, with no stepping of its own.
The half-line problem fixes the whole state at a truncation length L to the
first-order asymptotic model tau_i + sigma(e_i)/(L+1), which determines the
solution: since S(u) = -T(L - u) solves Nahm whenever T does, one forward
integration from -model(L) gives T(0), and a forward replay from T(0) gives
the trajectory on [0, L].
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import AlgebraSpec, InputError, Su2Triple, bracket, char_poly_coeffs, dagger, su2_basis, su2_embed
from .gauge import trivialize
from .io import to_pairs
from .moment import LaxPair, lax_extract, mu_nahm
from .paths import AlgebraPath, Grid, NahmData, _read_only, _rk4_step

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


_LEFT, _RIGHT = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])


def _nahm_rhs(Y: np.ndarray, _) -> np.ndarray:
    """Right-hand side (T1', T2', T3') = ([T2,T3], [T3,T1], [T1,T2]), batched,
    with the six products taken by one stacked matmul."""
    P = Y.take(_LEFT, axis=-3) @ Y.take(_RIGHT, axis=-3)
    return P[..., :3, :, :] - P[..., 3:, :, :]


def integrate_nahm(
    algebra: AlgebraSpec,
    init: tuple,
    grid: Grid,
    blowup_bound: float = 1e6,
) -> NahmData:
    """Solve the Nahm equations in the T0 = 0 gauge from (T1, T2, T3)(s0).

    The state is projected onto the algebra after every RK4 step; blow-up
    past the norm bound raises NahmBlowUpError.
    """
    if not blowup_bound > 0:
        raise InputError(f"need a blow-up bound > 0, got {blowup_bound!r}")
    Y0 = np.stack([np.asarray(M, dtype=complex) for M in init])
    if not algebra.is_member(Y0, tol=1e-8):
        raise InputError("initial matrices are not algebra elements")

    # a sum of the three squared norms below this keeps every norm within the
    # bound, rounding allowed for; the clamp keeps the square normal and finite
    bound = min(float(blowup_bound), 1e150)
    cheap_bound = bound * bound * (1.0 - 1e-12) if bound > 1e-150 else 0.0

    h, traj = grid.h, np.empty((grid.n + 1,) + Y0.shape, dtype=complex)
    traj[0] = y = Y0
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(grid.n):
            y = traj[m + 1] = algebra.project(_rk4_step(_nahm_rhs, y, h, None, None, None))
            if not np.vdot(y, y).real <= cheap_bound:
                norms = np.linalg.norm(y, axis=(-2, -1))
                if not np.all(norms <= blowup_bound):
                    norm = float(np.max(norms)) if np.all(np.isfinite(norms)) else np.inf
                    raise NahmBlowUpError(grid.s0 + (m + 1) * h, norm)
    zero = np.zeros_like(traj[:, 0])
    return NahmData.from_arrays(algebra, grid, zero, traj[:, 0], traj[:, 1], traj[:, 2])


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


def _separable(algebra: AlgebraSpec, grid: Grid, profiles: tuple, triple) -> NahmData:
    """T0 = 0 and T_i(s) = f_i(s) triple_i, for node-sampled profiles f_i."""
    zero = np.zeros((grid.n + 1, algebra.dim, algebra.dim), dtype=complex)
    comps = [f[:, None, None] * np.asarray(e)[None] for f, e in zip(profiles, triple)]
    return NahmData.from_arrays(algebra, grid, zero, *comps)


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
        taus = (self.tau1, self.tau2, self.tau3)
        scale = max(max(np.linalg.norm(t) for t in taus), 1.0)
        for i in range(3):
            for j in range(i + 1, 3):
                if np.linalg.norm(bracket(taus[i], taus[j])) > 1e-10 * scale**2:
                    raise InputError("boundary limits tau_i must commute")
        if not AlgebraSpec("su", self.dim).is_member(np.stack(taus)):
            raise InputError("boundary limits tau_i must lie in su(k)")
        if self.sigma is not None:
            sscale = max(max(np.linalg.norm(s) for s in self.sigma), 1.0)
            for s in self.sigma:
                for t in taus:
                    if np.linalg.norm(bracket(s, t)) > 1e-8 * sscale * scale:
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
    solution.  A guess whose forward flow already ends within ``tol`` of the
    model is kept (``iterations`` 0); otherwise the solution is integrated
    backward from the model and its T(0) replayed forward (``iterations`` 1).
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
    model = asymptotic_model(target, L)

    def flow(init):
        d = integrate_nahm(algebra, tuple(init), grid, blowup_bound)
        return d, np.stack([c.values[-1] for c in (d.T1, d.T2, d.T3)])

    def gap(term):
        return float(np.max(np.linalg.norm(term - model, axis=(-2, -1))))

    iterations, data = 0, None
    with suppress(NahmBlowUpError):
        data, term = flow(algebra.project(np.stack([np.asarray(M, dtype=complex) for M in init_guess])))
    if data is None or gap(term) > tol:
        # S(u) = -T(L - u) solves Nahm whenever T does, so the solution
        # through model(L) has T(0) = -S(L) for the S starting at -model(L)
        iterations, data = 1, None
        with suppress(NahmBlowUpError):
            data, term = flow(-flow(-model)[1])
    deviation = np.inf if data is None else gap(term)
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
