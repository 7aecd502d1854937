"""The invariant suite behind ``nahmlab check``: the table of what it certifies,
the one pass/fail comparison, and the function that measures the table on seeded
su(2) data.  ``check.json`` lists the entries in table order."""

import numpy as np

from .algebra import AlgebraSpec, InputError, _cmatmul, _real_form, pairing, pairing_nodes, su2_basis
from .gauge import GroupPath, act, exp_su_path, horizontal_project, monodromy, quotient_metric, trivialize
from .moment import _hamiltonian_gaps, _lax, _omega_baby, kahler_form_identity_check, mu_nahm, rho_star
from .moment import s1_moment_identity_check
from .paths import CHUNK, AlgebraPath, Grid, NahmData, _random_chunk, quadrature, random_dirichlet_path
from .paths import random_smooth_path, random_tangent, sup_norm, vertical_field
from .solver import coth_solution, integrate_nahm
from .spectral import char_coeffs, conservation_check, reality_check

__all__ = ["CHECKS", "passes", "run_check_suite"]

_MAPS = {"hamiltonian_baby": "baby", "hamiltonian_I1": 1, "hamiltonian_I2": 2, "hamiltonian_I3": 3}

# name -> (threshold as a function of the grid step h, expected refinement order, 0 if none)
CHECKS = {
    "closed_form_residual": (lambda h: 50.0 * h**2, 2),  # mu(T) = 0 on the coth solution, differenced
    "conservation_drift": (lambda h: 1e4 * h**4, 4),  # the spectral curve is constant along a flow
    # omega(rho*, v) = <d mu(v), rho>: the baby and the I1, I2, I3 moment maps are Hamiltonian
    **{name: (lambda h: 1e-5, 0) for name in _MAPS},
    "kahler_form_identity": (lambda h: 1e-12, 0),  # d I2 d mu = omega_2, the Kahler potential
    "s1_moment_identity": (lambda h: 1e-12, 0),  # mu is the moment map of the circle action
    "monodromy_invariance": (lambda h: 500.0 * h**2, 2),  # the monodromy is a based-gauge invariant
    "act_composition": (lambda h: 500.0 * h**2, 2),  # the gauge action is a group action
    "trivialize_unitarity": (lambda h: 1e-8, 0),  # T0 = g^-1 g' has a unitary solution g
    "quotient_metric_constants": (lambda h: 1e-8, 0),  # the quotient metric is bi-invariant on constants
    "vertical_projection": (lambda h: 1e-8, 0),  # horizontal projection kills gauge-orbit tangents
    "reality": (lambda h: 1e-9, 0),  # spectral curves of su(k) data are real
}


def passes(error, threshold) -> bool:
    """The one verdict: error <= threshold, so a NaN or an infinite error never passes."""
    return bool(error <= threshold)


def run_check_suite(seed: int, n: int, samples: int, inject_sign_flip: bool) -> list:
    """Measure every entry of ``CHECKS`` on an n-step grid of [0, 1].

    Returns a list of {name, error, threshold, order, pass} entries in table order.
    """
    if samples < 1:
        raise InputError(f"the Hamiltonian checks need samples >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    su2 = AlgebraSpec("su", 2)
    grid = Grid(0.0, 1.0, n)
    errors = {}

    coth = coth_solution(1.0, 1.0, grid)
    errors["closed_form_residual"] = mu_nahm(coth).sup
    # the coth curve has nonzero coefficients, so the drift is measurable
    errors["conservation_drift"] = conservation_check(integrate_nahm(su2, tuple(coth.values[1:, 0]), grid))

    errs = {name: [] for name in _MAPS}
    for first in range(0, samples, CHUNK):
        # data, rho and v of each sample, drawn as four smooth paths, a Dirichlet path and a tangent
        data, rho, v = _random_chunk(su2, grid, rng, min(CHUNK, samples - first), ["tangent", "dirichlet", "tangent"])
        data, rho, v = NahmData._own(grid, data), AlgebraPath._own(grid, rho), NahmData._own(grid, v)
        gaps = _hamiltonian_gaps(data, rho, v, list(_MAPS.values()))
        if inject_sign_flip:  # deliberate harness control on the baby map, the first: a sign flip must be caught
            gaps[0] = abs(np.add(gaps[0], 2.0 * abs(_omega_baby(rho_star(data, rho), v))))
        for name, found in zip(_MAPS, gaps):
            errs[name].extend(found)
    # np.max, unlike max, keeps a NaN error, and a NaN is no pass
    errors.update((name, np.max(found)) for name, found in errs.items())

    errors["kahler_form_identity"] = kahler_form_identity_check(su2, Grid(0.0, 1.0, min(n, 200)), 20, rng)
    dd = NahmData(su2, *(random_smooth_path(su2, grid, rng) for _ in range(4)))
    errors["s1_moment_identity"] = s1_moment_identity_check(dd, random_tangent(su2, grid, rng))

    T0 = random_smooth_path(su2, grid, rng, modes=2, scale=0.8)
    g0 = trivialize(T0)
    h_gauge = exp_su_path(random_dirichlet_path(su2, grid, rng, scale=0.5))
    moved = act(h_gauge, NahmData(su2, T0, *(AlgebraPath(grid, np.zeros_like(T0.values)) for _ in range(3))))
    errors["monodromy_invariance"] = np.linalg.norm(monodromy(moved.T0) - g0.values[-1])

    g1 = exp_su_path(random_smooth_path(su2, grid, rng, scale=0.5))
    g2 = exp_su_path(random_smooth_path(su2, grid, rng, scale=0.5))
    data = NahmData(su2, *(random_smooth_path(su2, grid, rng) for _ in range(4)))
    g12 = GroupPath(grid, _cmatmul(g1.values, _real_form(g2.values)))
    errors["act_composition"] = sup_norm(act(g12, data).values - act(g1, act(g2, data)).values)

    errors["trivialize_unitarity"] = g0.unitarity_defect

    e1 = su2_basis().e1
    const = AlgebraPath(grid, np.broadcast_to(e1, (n + 1, 2, 2)).copy())
    qm = quotient_metric(AlgebraPath(grid, np.zeros_like(T0.values)), const, const)
    errors["quotient_metric_constants"] = abs(qm - pairing(e1, e1))
    proj = horizontal_project(T0, vertical_field(T0, random_dirichlet_path(su2, grid, rng)))
    errors["vertical_projection"] = quadrature(pairing_nodes(proj.values, proj.values), grid)

    errors["reality"] = reality_check(char_coeffs(*_lax(data.values[:, :1])[:, 0]))

    return [{"name": name, "error": float(errors[name]), "threshold": float(threshold(grid.h)), "order": order,
             "pass": passes(errors[name], threshold(grid.h))} for name, (threshold, order) in CHECKS.items()]
