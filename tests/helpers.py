"""Test helpers shared by several test modules."""

import numpy as np

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
