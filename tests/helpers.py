"""Test helpers shared by several test modules."""

import numpy as np

from nahmlab import solver
from nahmlab.paths import AlgebraPath


def const_path(grid, M):
    return AlgebraPath(grid, np.broadcast_to(M, (grid.n + 1,) + M.shape).copy())


def real_form_product(X, Y):
    """XY as the package takes complex products: the rows X.view(float) times
    the real form of Y, each entry a + ib the block [[a, b], [-b, a]]."""
    k = Y.shape[-1]
    phi = np.empty(Y.shape[:-2] + (2 * k, 2 * k))
    phi[..., ::2, ::2] = phi[..., 1::2, 1::2] = Y.real
    phi[..., ::2, 1::2], phi[..., 1::2, ::2] = Y.imag, -1.0 * Y.imag
    return (np.ascontiguousarray(X).view(float) @ phi).view(complex)


def sequential(Y0, grid, bound=1e6):
    """The sequential Nahm loop's (3, n+1, k, k) path of one start, and its blow-up:
    ``solver._nahm_flow`` with the segment engine's step floor raised past n."""
    floor, solver._PARAREAL_MIN = solver._PARAREAL_MIN, grid.n + 1
    try:
        traj, (blowup,) = solver._nahm_flow(np.asarray(Y0)[None], grid, bound)
    finally:
        solver._PARAREAL_MIN = floor
    return traj[:, :, 0], blowup
