"""Initial-value and terminal-value solvers for the baby and full Nahm
equations, closed-form reference solutions, and half-line adjoint-orbit
identification.  ``orbit_identify`` reads beta(0) off the Lax pair
(``moment._lax``) of node 0 alone.

All initial-value work is done in the T0 = 0 gauge, where the system reads
T1' = [T2, T3] (and cyclic), stepped by the RK4 formula of ``paths`` from a
start projected once onto su(k)^3, which the field maps into itself and RK4
keeps to rounding, in real form (``algebra._real_form``: one real BLAS call a
product, the complex path its even rows).  A flow's last live member with >=
``_PARAREAL_MIN`` steps to go finishes as Parareal segments (``_parareal``),
within 1e-13 of the loop's: one long path, or a half-line backward solve.
The baby flow is a conjugation by the trivializing gauge of ``gauge``.
The half-line problem fixes the whole state at a truncation length L to the
first-order asymptotic model tau_i + sigma(e_i)/(L+1), which determines the
solution: since S(u) = -T(L - u) solves Nahm whenever T does, one forward
integration from -model(L), batched with the guess's, gives the solution:
unless the guess ends at the model, the path is S's, reversed and negated.
Result records are plain dataclasses; the CLI renders them as artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, InputError, Su2Triple, _cmatmul, _real_form, _unit_scaled, bracket, char_poly_coeffs, dagger, is_member, project, su2_basis, su2_embed
from .gauge import trivialize
from .moment import _lax, lax_extract, mu_nahm  # noqa: F401 (perfbench traces solver.lax_extract)
from .paths import AlgebraPath, Grid, NahmData, _read_only, _rk4_scalars, _rk4_step, sup_norm

__all__ = [
    "NahmBlowUpError",
    "BoundaryTarget",
    "HalflineResult",
    "OrbitReport",
    "integrate_baby",
    "integrate_nahm",
    "nil_solution",
    "coth_solution",
    "asymptotic_model",
    "halfline_solve",
    "orbit_identify",
]


class NahmBlowUpError(RuntimeError):
    """A Nahm flow passed the norm bound at s, the first RK4 node past it: at a pole, <= 2 steps past the crossing."""

    def __init__(self, s: float, norm: float):
        super().__init__(f"Nahm flow blow-up near s = {s:.6g} (norm {norm:.3e})")
        self.s = s
        self.norm = norm


_CYCLE = np.array([[1, 2, 0], [2, 0, 1]])
BLOCK = 32  # nodes stepped between two blow-up tests (the width is measured in CHANGES.md)
# a last live member with >= _PARAREAL_MIN steps to go runs as Parareal segments (the values are measured in CHANGES.md)
_PARAREAL_MIN, _SEGMENT, _COARSE, _CORRECTIONS, _JUMP_TOL = 1000, 96, 2, 2, 64 * np.finfo(float).eps
_KEEP_TOL = 1e-6  # a half-line guess is kept when its flow ends this close to the model
_COEFF_TOL, _RESIDUAL_GATE = 1e-6, 1e-3  # an orbit is certified within these (char poly, Nahm residual)


def _nahm_rhs(Y: np.ndarray, _) -> np.ndarray:
    """Right-hand side (T1', T2', T3') = ([T2,T3], [T3,T1], [T1,T2]) of a
    component-major (3, B, m, m) batch (real forms in the loop, m = 2k): X =
    [A; C] = [(T2,T3,T1); (T3,T1,T2)], and X @ [C; A] gives [AC; CA] at once."""
    X = Y.take(_CYCLE, axis=0)
    P = X @ X[::-1]
    return P[0] - P[1]


def _member_triple(mats, k: int, what: str) -> np.ndarray:
    """mats as a (3, k, k) stack; InputError unless three elements of su(k)."""
    Y = [np.asarray(M, dtype=complex) for M in mats]
    if len(Y) != 3 or any(M.shape != (k, k) for M in Y) or not is_member(Y, tol=1e-8):
        raise InputError(f"{what} must be three elements of su({k})")
    return np.stack(Y)


def _nahm_flow(Y0: np.ndarray, grid: Grid, blowup_bound: float, out: np.ndarray | None = None) -> tuple:
    """RK4 steps from states Y0 (B, 3, k, k), projected onto su(k) once on
    entry (off it the flow is nonlinear and would carry a start's off-algebra
    part along; on it RK4 stays there to rounding), taken on the real form phi
    of the state and copied out as its even rows: the C-ordered (3, n+1, B, k, k)
    path, a fresh array or ``out``, and per member None or (s, max norm or inf)
    at the first node past the bound, zeroed from the next node on (a fixed
    point).  The bound is tested once per ``BLOCK`` nodes, on their summed
    squared norms; a block past that is searched node by node.  Nodes after the
    block in which the last member blew up are left unset.  At node 0 and after
    each blow-up block, a lone live member with >= ``_PARAREAL_MIN`` steps to go
    is tried once in ``_parareal``, which writes its rows past that node if it
    takes the path; the blown-up members' rows are then zeroed."""
    if not blowup_bound > 0:
        raise InputError(f"need a blow-up bound > 0, got {blowup_bound!r}")
    # a block's summed squared norms below this keep every norm within the bound, their
    # rounding (< 2 ulp a term) allowed for; the clamp keeps the square normal and finite
    bound = min(float(blowup_bound), 1e150)
    cheap_bound = bound * bound * (1.0 - 2.0 ** -50 * BLOCK * Y0.size) if bound > 1e-150 else 0.0

    # the state is stepped component-major in real form, (3, B, 2k, 2k): the right-
    # hand side then takes its views on the leading axis, the cheapest numpy makes
    scalars, blowups = _rk4_scalars(grid.h), [None] * len(Y0)
    traj = np.empty((3, grid.n + 1, len(Y0)) + Y0.shape[2:], dtype=complex) if out is None else out
    with np.errstate(over="ignore", invalid="ignore"):
        traj[:, 0] = project(Y0.swapaxes(0, 1))
        y, start = _real_form(traj[:, 0]), Y0
        for m0 in range(0, grid.n, BLOCK):
            if start is not None and blowups.count(None) == 1 and grid.n - m0 >= _PARAREAL_MIN:
                b = blowups.index(None)
                if _parareal(start[b : b + 1], Grid(grid.s0 + m0 * grid.h, grid.s1, grid.n - m0), blowup_bound, traj[:, m0 + 1 :, b]):
                    traj[:, m0 + 1 :, np.arange(len(Y0)) != b] = 0.0
                    break
            start = None
            for m in range(m0, min(m0 + BLOCK, grid.n)):
                y = _rk4_step(_nahm_rhs, y, scalars, None, None, None)
                traj[:, m + 1].view(float)[...] = y[..., ::2, :]
            block = traj[:, m0 + 1 : m + 2]
            # one vdot per component's contiguous block: one over the strided block would copy it
            if not sum(np.vdot(c, c).real for c in block) <= cheap_bound:
                # the (node, member) pairs that may be past the bound, in node order, each
                # decided on the rescaled node, where a finite state's squares do not overflow
                for i, b in zip(*np.nonzero(~(np.max(np.linalg.norm(block, axis=(-2, -1)), axis=0) <= blowup_bound))):
                    scaled, _, unit = _unit_scaled(block[:, i, b])
                    norm = sup_norm(scaled) / unit if np.isfinite(unit) else np.inf
                    if blowups[b] is None and not (norm <= blowup_bound and np.isfinite(unit)):
                        blowups[b] = (grid.s0 + (m0 + int(i) + 1) * grid.h, norm)
                        block[:, i + 1 :, b] = y[:, b] = 0.0
                        start = traj[:, m + 1].swapaxes(0, 1)
                if None not in blowups:
                    break
    return traj, blowups


def _parareal(Y0: np.ndarray, grid: Grid, bound: float, out: np.ndarray) -> bool:
    """One start Y0 (1, 3, k, k)'s path past node 0 written into out (3, n, k, k), True, or False for the
    sequential loop.  Sweep i sets the starts of M segments of <= ``_SEGMENT`` steps, U[j+1] = F[j] +
    G(U[j]) - G_old[j] (G ``_COARSE`` RK4 steps, F the last batch's ends, none at first), and flows them
    as one batch, whose largest jump |F[j] - U[j+1]| must be within max|U| ``_JUMP_TOL`` ** (i /
    (``_CORRECTIONS`` + 1)), as the coarse error's powers fall; within max|U| ``_JUMP_TOL`` the batch is
    the path, each segment giving its start and interior nodes, the last its end too."""
    M = -(-grid.n // _SEGMENT)
    steps = np.diff(np.arange(M + 1) * grid.n // M)  # the longest last, so no member steps past s1
    fine, coarse = Grid(0.0, steps[-1] * grid.h, int(steps[-1])), {m: _rk4_scalars(m * grid.h / _COARSE) for m in set(steps)}
    U, (F, G) = Y0.repeat(M, axis=0), np.zeros((2, M - 1) + Y0.shape[1:], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, _CORRECTIONS + 2):
            for j in range(M - 1):
                y = _real_form(project(U[j]))  # the start the fine flow takes
                for _ in range(_COARSE):
                    y = _rk4_step(_nahm_rhs, y, coarse[steps[j]], None, None, None)
                g = y[..., ::2, :].copy().view(complex)
                U[j + 1], G[j] = F[j] + (g - G[j]), g
            if not sup_norm(G) <= bound:
                return False
            traj, blowups = _nahm_flow(U, fine, bound)
            F = traj[:, steps[:-1], np.arange(M - 1)].swapaxes(0, 1)
            jump, scale = np.max(np.abs(F - U[1:])), np.max(np.abs(U))  # a product, as a zero path's quotient is 0 / 0
            if blowups != [None] * M or not jump <= _JUMP_TOL ** (i / (_CORRECTIONS + 1)) * scale:
                return False
            if jump <= _JUMP_TOL * scale:
                np.concatenate([traj[:, int(j == 0) : m + (j == M - 1), j] for j, m in enumerate(steps)], axis=1, out=out)
                return True
            del traj  # freed before the next batch's buffer is taken


def integrate_nahm(
    algebra: AlgebraSpec,
    init: tuple,
    grid: Grid,
    blowup_bound: float = 1e6,
) -> NahmData:
    """Solve the Nahm equations in the T0 = 0 gauge from (T1, T2, T3)(s0).

    The start is projected onto the algebra once; RK4 then keeps the state
    in it to rounding.  Blow-up past the norm bound raises NahmBlowUpError at
    the first node past it (at a pole, within two steps of the crossing).
    The start is ``_nahm_flow``'s one live member at node 0, so a path of >=
    ``_PARAREAL_MIN`` steps is ``_parareal``'s, within 1e-13 relative of the loop's.
    """
    values = np.zeros((4, grid.n + 1, 1, algebra.dim, algebra.dim), dtype=complex)  # T0 = 0; the flow writes the rest
    _, (blowup,) = _nahm_flow(_member_triple(init, algebra.dim, "init")[None], grid, blowup_bound, values[1:])
    if blowup is not None:
        raise NahmBlowUpError(*blowup)
    return NahmData._own(grid, values[:, :, 0])


def integrate_baby(T1_init: np.ndarray, T0: AlgebraPath):
    """The Lax flow T1' = [T1, T0(s)] from T1(s0); returns the (T0, T1) paths.

    T1 is covariantly constant, T1(s) = g(s)^-1 T1(s0) g(s) for g' = g T0
    (``gauge.trivialize``): isospectral to rounding, fourth order as g is."""
    X = np.asarray(T1_init, dtype=complex)
    if X.shape != (T0.dim, T0.dim) or not is_member(X, tol=1e-8):
        raise InputError(f"initial T1 is not an element of su({T0.dim})")
    g = trivialize(T0).values
    return T0, AlgebraPath(T0.grid, project(_cmatmul(_cmatmul(dagger(g), _real_form(X)), _real_form(g))))


def _separable(grid: Grid, profiles: tuple, triple) -> NahmData:
    """T0 = 0 and T_i(s) = f_i(s) triple_i, for node-sampled profiles f_i,
    written straight into rows 1..3 of the zeroed stack."""
    triple = np.asarray(triple)
    values = np.zeros((4, grid.n + 1) + triple.shape[1:], dtype=complex)
    np.multiply(np.asarray(profiles)[:, :, None, None], triple[:, None], out=values[1:])
    return NahmData._own(grid, values)


def nil_solution(algebra: AlgebraSpec, grid: Grid) -> NahmData:
    """The pole solution T_i(s) = sigma(e_i)/(s + 1), T0 = 0, for the irreducible
    sigma = ``su2_embed``; the pole at s = -1 must lie left of the grid."""
    if not grid.s0 + 1 > 0:
        raise InputError(f"need s0 > -1, the pole left of the grid, got s0 = {grid.s0!r}")
    f = 1.0 / (grid.nodes + 1.0)
    return _separable(grid, (f, f, f), su2_embed(algebra))


def coth_solution(a: float, s0_offset: float, grid: Grid) -> NahmData:
    """Closed-form su(2) half-line solution with T1 -> -a e1 exponentially.

    T1 = -a coth(a(s+c)) e1, T2 = a/sinh(a(s+c)) e2, T3 = -a/sinh(a(s+c)) e3.
    """
    if not (0 < a < np.inf and 0 < s0_offset < np.inf):
        raise InputError(f"need finite a > 0 and s0_offset > 0, got {a!r} and {s0_offset!r}")
    with np.errstate(over="ignore"):  # past xi ~ 710, 1/sinh(xi) is its limit 0; an overflowed xi is inf, the limit too
        xi = a * (grid.nodes + s0_offset)
        return _separable(grid, (-a / np.tanh(xi), a / np.sinh(xi), -a / np.sinh(xi)), su2_basis())


@dataclass(frozen=True)
class BoundaryTarget:
    """Commuting limits (tau1, tau2, tau3), the su(2) representation's images
    sigma (the zero triple, the trivial one, when none is given) and length L.

    The matrices are read-only copies of the input, as in ``AlgebraPath``.
    """

    tau1: np.ndarray
    tau2: np.ndarray
    tau3: np.ndarray
    sigma: Su2Triple | None = None
    L: float = 10.0

    def __post_init__(self):
        for name in ("tau1", "tau2", "tau3"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        if not (np.isfinite(self.L) and self.L > 0):
            raise InputError(f"need a finite L > 0, got {self.L!r}")
        taus = (self.tau1, self.tau2, self.tau3)
        if len({tau.shape for tau in taus}) > 1 or not is_member(np.stack(taus)):
            raise InputError("boundary limits tau_i must lie in su(k)")
        sigma = _member_triple((np.zeros_like(self.tau1),) * 3 if self.sigma is None else self.sigma, self.dim, "sigma")
        object.__setattr__(self, "sigma", Su2Triple(*(_read_only(e) for e in sigma)))
        # the commutation tests are homogeneous, so they are taken on the
        # rescaled limits, where no norm or product overflows
        taus, scale, _ = _unit_scaled(np.stack(taus))
        if not sup_norm(bracket(taus[:, None], taus)) <= 1e-10 * scale**2:
            raise InputError("boundary limits tau_i must commute")
        sigma, sscale, unit = _unit_scaled(np.stack(self.sigma))
        if not sup_norm(bracket(sigma[:, None], taus)) <= 1e-8 * sscale * scale:
            raise InputError("sigma images must commute with the tau_i")
        # su(2)'s relations, quadratic against linear: on the rescale the linear side takes the unit once more
        if not sup_norm(_nahm_rhs(sigma, None) + unit * sigma) <= 1e-8 * sscale**2:
            raise InputError("sigma images must represent su(2): [sigma(e1), sigma(e2)] = -sigma(e3), cyclically")

    @property
    def dim(self) -> int:
        return self.tau1.shape[0]


def asymptotic_model(target: BoundaryTarget, s: float) -> np.ndarray:
    """First-order asymptotic values (tau_i + sigma(e_i)/(s+1)) as (3,k,k)."""
    return np.stack([target.tau1, target.tau2, target.tau3]) + np.stack(target.sigma) / (s + 1.0)


@dataclass
class HalflineResult:
    data: NahmData
    converged: bool
    terminal_deviation: float
    iterations: int
    message: str = ""


def halfline_solve(
    target: BoundaryTarget,
    init_guess: tuple,
    step: float = 5e-3,
    blowup_bound: float = 1e6,
) -> HalflineResult:
    """The Nahm solution on [0, L] whose state at s = L is the asymptotic model.

    Fixing the full state at L is a terminal-value problem with exactly one
    solution.  The guess (three elements of su(k)) and -model(L) flow as one
    batch; a guess ending within ``_KEEP_TOL`` of the model is kept (``iterations``
    0), else the backward solve's path S, reversed and negated, is the result
    (``iterations`` 1): node j of T is node n - j of -S, on the same grid.
    The model is compared in its projection onto su(k), which the backward
    path ends at exactly (deviation 0).  So every result is ``converged``; a
    blow-up of the backward solve raises NahmBlowUpError at the solution's
    node past the bound, as ``integrate_nahm`` does.  Once the guess has blown
    up with >= ``_PARAREAL_MIN`` steps to go, the backward member finishes as
    Parareal segments (``_nahm_flow``); a kept or finite guess shares the loop
    to the end.
    """
    L = float(target.L)
    if not (np.isfinite(step) and step > 0 and L / float(step) < np.iinfo(np.intp).max):
        raise InputError(f"need a finite step > 0 with L / step nodes an array can index, got {step!r} for L = {L!r}")
    grid = Grid(0.0, L, max(int(np.ceil(L / step)), 8))
    model = asymptotic_model(target, L)
    guess = _member_triple(init_guess, target.dim, "init_guess")

    # S(u) = -T(L - u) solves Nahm whenever T does, so the solution through
    # model(L) is T(s) = -S(L - s) for the S starting at -model(L)
    traj, (guess_blowup, back_blowup) = _nahm_flow(np.stack([guess, -model]), grid, blowup_bound)
    model = -traj[:, 0, 1]  # project(model), where the backward path ends, as projected under the flow's errstate
    kept = guess_blowup is None and sup_norm(traj[:, -1, 0] - model) <= _KEEP_TOL
    if not kept and back_blowup is not None:
        raise NahmBlowUpError(L - back_blowup[0], back_blowup[1])
    values = np.zeros((4, grid.n + 1) + model.shape[1:], dtype=complex)
    values[1:] = traj[:, :, 0] if kept else traj[:, ::-1, 1]
    if not kept:  # negated in place: a ufunc on the strided reversed path would take an iteration buffer
        np.negative(values[1:], out=values[1:])
    data = NahmData._own(grid, values)
    return HalflineResult(data, True, sup_norm(data.values[1:, -1] - model), int(not kept), "converged")


@dataclass
class OrbitReport:
    charpoly_beta0: np.ndarray
    charpoly_target: np.ndarray
    max_coeff_dev: float
    certified: bool
    residual_sup: float
    beta0_rank: int


def orbit_identify(d: NahmData, target: BoundaryTarget) -> OrbitReport:
    """Compare the characteristic polynomial of beta(0) with that of the orbit
    representative tau2 + i tau3 + sigma(e2) + i sigma(e3).

    Certification requires both coefficient agreement (``_COEFF_TOL``) and a
    small Nahm residual (``_RESIDUAL_GATE``) on the supplied data.
    """
    if d.dim != target.dim:
        raise InputError(f"the data are in su({d.dim}), the target in su({target.dim})")
    beta0 = _lax(d.values[:, :1])[1, 0]
    rep = target.tau2 + 1j * target.tau3 + target.sigma.e2 + 1j * target.sigma.e3
    # the monic coefficients of det(eta - M), descending, for M = beta(0) and the representative
    p_beta, p_rep = np.concatenate([np.ones((1, 2)), *char_poly_coeffs(np.stack([beta0, rep])[None])]).T
    scale = max(1.0, float(np.max(np.abs(p_rep))))
    dev = float(np.max(np.abs(p_beta - p_rep))) / scale
    residual = mu_nahm(d).sup
    certified = dev <= _COEFF_TOL and residual <= _RESIDUAL_GATE
    # rank read at the certification scale: singular values below
    # sqrt(_COEFF_TOL) * |beta(0)| are treated as zero
    rank_tol = np.sqrt(_COEFF_TOL) * max(1.0, float(np.linalg.norm(beta0)))
    rank = int(np.linalg.matrix_rank(beta0, tol=rank_tol))
    return OrbitReport(p_beta, p_rep, dev, certified, residual, rank)
