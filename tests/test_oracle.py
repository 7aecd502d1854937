"""An independent reference for every flow: scipy's DOP853 at tight
tolerance on coefficients given in closed form, and the measured order of the
package's RK4 against it.

T0 is the Fourier series that ``random_smooth_path`` samples (modes 1, scale
0.4, seed 100 + k), evaluated at any s; the T1 of a level-set pair is the
oracle's own solution of the Lax equation, sampled at the nodes.  The oracle
is good to about 2e-13, so the orders are measured from n = 375 to n = 750,
where the RK4 error is still well above that floor.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nahmlab.algebra import AlgebraSpec, su_from_coords
from nahmlab.gauge import complex_trivialize_direct, trivialize
from nahmlab.paths import AlgebraPath, Grid, random_smooth_path
from nahmlab.solver import integrate_baby, integrate_nahm

COARSE, FINE = 375, 750


def fourier_path(k, seed, modes=1, scale=0.4):
    """s -> T0(s) on [0, 1], drawing the coefficients as random_smooth_path does."""
    rng = np.random.default_rng(seed)
    d = k * k - 1
    terms = []
    for m in range(modes + 1):
        damp = scale / (1.0 + m * m)
        terms.append((m, rng.standard_normal(d) * damp, rng.standard_normal(d) * damp))

    def T0(s):
        c = sum(np.cos(np.pi * m * s) * a + (np.sin(np.pi * m * s) * b if m > 0 else 0.0) for m, a, b in terms)
        return su_from_coords(c[None], k)[0]

    return T0


def oracle(rhs, y0, nodes):
    """The solution of y' = rhs(s, y) at the nodes, by DOP853 at rtol = atol = 1e-13."""
    y0 = np.asarray(y0, dtype=complex)
    sol = solve_ivp(lambda s, y: rhs(s, y.reshape(y0.shape)).ravel(), (nodes[0], nodes[-1]), y0.ravel(),
                    method="DOP853", rtol=1e-13, atol=1e-13, t_eval=nodes)
    assert sol.success
    return sol.y.T.reshape((len(nodes),) + y0.shape)


def sampled_T0(k, n):
    return random_smooth_path(AlgebraSpec("su", k), Grid(0.0, 1.0, n), np.random.default_rng(100 + k),
                              modes=1, scale=0.4)


def baby_start(k):
    return AlgebraSpec("su", k).random_element(np.random.default_rng(7), 0.8)


def errors(flow, truth):
    """max |flow(n) - truth| over the nodes, for n = COARSE and FINE."""
    return [np.abs(flow(n) - truth[:: FINE // n]).max() for n in (COARSE, FINE)]


def measured_order(errs):
    return np.log2(errs[0] / errs[1])


@pytest.mark.parametrize("k", [2, 4, 6])
def test_closed_form_T0_matches_the_sampled_path(k):
    T0 = fourier_path(k, 100 + k)
    samples = sampled_T0(k, FINE)
    assert np.abs(samples.values - np.array([T0(s) for s in samples.grid.nodes])).max() < 1e-15


# error at n = FINE of the previous node-by-node stepper, against this oracle
STEPPED_TRIVIALIZE = {2: 1.22e-12, 4: 1.43e-12, 6: 1.04e-12}
STEPPED_BABY = {2: 2.53e-12, 4: 2.82e-12, 6: 3.93e-12}


@pytest.mark.parametrize("k", [2, 4, 6])
def test_trivialize_is_fourth_order_against_the_oracle(k):
    T0 = fourier_path(k, 100 + k)
    truth = oracle(lambda s, g: g @ T0(s), np.eye(k), Grid(0.0, 1.0, FINE).nodes)
    errs = errors(lambda n: trivialize(sampled_T0(k, n)).values, truth)
    assert abs(measured_order(errs) - 4.0) <= 0.1, errs
    assert errs[1] <= 1.1 * STEPPED_TRIVIALIZE[k], errs


@pytest.mark.parametrize("k", [2, 4, 6])
def test_integrate_baby_is_fourth_order_against_the_oracle(k):
    T0 = fourier_path(k, 100 + k)
    truth = oracle(lambda s, y: y @ T0(s) - T0(s) @ y, baby_start(k), Grid(0.0, 1.0, FINE).nodes)
    errs = errors(lambda n: integrate_baby(baby_start(k), sampled_T0(k, n))[1].values, truth)
    assert abs(measured_order(errs) - 4.0) <= 0.1, errs
    assert errs[1] <= 1.1 * STEPPED_BABY[k], errs


@pytest.mark.parametrize("k", [2, 4, 6])
def test_complex_trivialize_direct_is_fourth_order_against_the_oracle(k):
    # the level-set pair (T0, T1) and g' = g (T0 + i T1), solved together
    T0 = fourier_path(k, 100 + k)

    def rhs(s, y):
        T1, g = y
        return np.stack([T1 @ T0(s) - T0(s) @ T1, g @ (T0(s) + 1j * T1)])

    truth = oracle(rhs, np.stack([baby_start(k), np.eye(k)]), Grid(0.0, 1.0, FINE).nodes)

    def flow(n):
        T0n = sampled_T0(k, n)
        return complex_trivialize_direct(T0n, AlgebraPath(T0n.grid, truth[:: FINE // n, 0])).values

    errs = errors(flow, truth[:, 1])
    assert abs(measured_order(errs) - 4.0) <= 0.1, errs


def nahm_rhs(s, Y):
    T1, T2, T3 = Y
    return np.stack([T2 @ T3 - T3 @ T2, T3 @ T1 - T1 @ T3, T1 @ T2 - T2 @ T1])


def nahm_start(k):
    """One generator (seed 5) draws three scale-0.5 elements for su(2), su(3),
    ... in turn; the su(k) draw is the start.  The su(4) draw blows up
    before s = 1."""
    rng = np.random.default_rng(5)
    for j in range(2, k + 1):
        init = np.stack([AlgebraSpec("su", j).random_element(rng, 0.5) for _ in range(3)])
    return init


@pytest.mark.parametrize("k", [2, 3])
def test_integrate_nahm_is_fourth_order_against_the_oracle(k):
    spec, init = AlgebraSpec("su", k), nahm_start(k)
    truth = oracle(nahm_rhs, init, Grid(0.0, 1.0, 400).nodes)
    errs = []
    for n in (200, 400):
        d = integrate_nahm(spec, tuple(init), Grid(0.0, 1.0, n))
        errs.append(np.abs(d.stack()[1:].swapaxes(0, 1) - truth[:: 400 // n]).max())
    assert abs(measured_order(errs) - 4.0) <= 0.1, errs
