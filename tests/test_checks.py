"""The invariant registry behind ``nahmlab check`` and the acceptance suite:
its names, thresholds and orders are pinned here, since both read them from
``nahmlab.checks``."""

import numpy as np

from nahmlab.checks import CHECKS, passes, run_check_suite
from nahmlab.paths import Grid

H = Grid(0.0, 1.0, 300).h  # the default check grid

PINNED = {  # name -> (threshold at h = 1/300, expected refinement order)
    "closed_form_residual": (50.0 * H**2, 2),
    "conservation_drift": (1e4 * H**4, 4),
    "hamiltonian_baby": (1e-5, 0),
    "hamiltonian_I1": (1e-5, 0),
    "hamiltonian_I2": (1e-5, 0),
    "hamiltonian_I3": (1e-5, 0),
    "kahler_form_identity": (1e-12, 0),
    "s1_moment_identity": (1e-12, 0),
    "monodromy_invariance": (500.0 * H**2, 2),
    "act_composition": (500.0 * H**2, 2),
    "trivialize_unitarity": (1e-8, 0),
    "quotient_metric_constants": (1e-8, 0),
    "vertical_projection": (1e-8, 0),
    "reality": (1e-9, 0),
}


def test_registry_names_thresholds_and_orders_are_pinned():
    assert list(CHECKS) == list(PINNED)
    assert {name: (threshold(H), order) for name, (threshold, order) in CHECKS.items()} == PINNED


def test_a_non_finite_error_never_passes():
    assert passes(1.0, 1.0) and not passes(1.5, 1.0)
    assert not passes(np.nan, 1.0)
    assert not passes(np.inf, 1.0)


def test_the_suite_reports_the_registry_in_order():
    checks = run_check_suite(0, 60, 1, False)
    assert [c["name"] for c in checks] == list(CHECKS)
    assert [(c["threshold"], c["order"]) for c in checks] == [(t(1 / 60), o) for t, o in CHECKS.values()]
    assert all(c["pass"] == passes(c["error"], c["threshold"]) for c in checks)
