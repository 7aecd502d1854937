import numpy as np
import pytest

from nahmlab.algebra import char_poly_coeffs


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def nonreal_curve():
    """The reality check's negative control: the curve [a_1, ..., a_k] of one
    Lax-pair node's pencil with the beta* term dropped, beta + (alpha +
    alpha*) zeta, built here and not by a switch of the package's pencil."""

    def curve(alpha, beta):
        pencil = np.stack([beta, alpha + alpha.conj().T, np.zeros_like(beta)])
        return [a[:, 0] for a in char_poly_coeffs(pencil[:, None])]

    return curve
