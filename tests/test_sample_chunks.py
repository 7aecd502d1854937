"""The sample loops of ``nahmlab check`` run in chunks of ``paths.CHUNK``
samples, each chunk drawn in one pass and measured as one batch.  The
one-sample-at-a-time loops they replaced live here as the reference, and the
chunked results must equal theirs bit for bit: the random paths, the
generator's end state, every Hamiltonian and Kahler-identity error and the
suite's entries."""

import numpy as np
import pytest

from nahmlab import checks
from nahmlab.algebra import AlgebraSpec, pairing_nodes, su_from_coords
from nahmlab.checks import run_check_suite
from nahmlab.moment import (
    _mu,
    _omega_baby,
    _s1_pairing,
    hamiltonian_check,
    kahler_form_identity_check,
    mu_baby,
    rho_star,
)
from nahmlab.paths import (
    CHUNK,
    AlgebraPath,
    Grid,
    NahmData,
    _random_chunk,
    complex_structure,
    l2_metric,
    quadrature,
    random_dirichlet_path,
    random_smooth_path,
    random_tangent,
)

SU2 = AlgebraSpec("su", 2)
MAPS = {"hamiltonian_baby": "baby", "hamiltonian_I1": 1, "hamiltonian_I2": 2, "hamiltonian_I3": 3}


# ---------------------------------------------------------------------------
# the reference: one path, one sample at a time


def ref_smooth_path(spec, grid, rng, modes=3, scale=1.0):
    d = spec.dim * spec.dim - 1
    x = (grid.nodes - grid.s0) / (grid.s1 - grid.s0)
    coeff = np.zeros((grid.n + 1, d))
    for m in range(modes + 1):
        damp = scale / (1.0 + m * m)
        a = rng.standard_normal(d) * damp
        b = rng.standard_normal(d) * damp
        coeff += np.outer(np.cos(np.pi * m * x), a)
        if m > 0:
            coeff += np.outer(np.sin(np.pi * m * x), b)
    return AlgebraPath(grid, su_from_coords(coeff, spec.dim))


def ref_dirichlet_path(spec, grid, rng, modes=3, scale=1.0):
    d = spec.dim * spec.dim - 1
    x = (grid.nodes - grid.s0) / (grid.s1 - grid.s0)
    coeff = np.zeros((grid.n + 1, d))
    for m in range(1, modes + 1):
        a = rng.standard_normal(d) * scale / (m * m)
        coeff += np.outer(np.sin(np.pi * m * x), a)
    return AlgebraPath(grid, su_from_coords(coeff, spec.dim))


def ref_tangent(spec, grid, rng):
    return NahmData(spec, *(ref_smooth_path(spec, grid, rng) for _ in range(4)))


def ref_l2_norm(u):
    return float(np.sqrt(max(l2_metric(u, u), 0.0)))


def ref_perturbed(d, v, eps):
    return NahmData._own(d.grid, d.values + eps * v.values)


def ref_hamiltonian_check(d, rho, v, which, eps=1e-5):
    star = rho_star(d, rho)
    lhs = _omega_baby(star, v) if which == "baby" else l2_metric(complex_structure(which, star), v)

    def paired(data):
        mu = mu_baby(data.T0, data.T1).values if which == "baby" else _mu(data.values, d.grid.h, which)
        return quadrature(pairing_nodes(mu, rho.values), d.grid)

    rhs = (paired(ref_perturbed(d, v, eps)) - paired(ref_perturbed(d, v, -eps))) / (2.0 * eps)
    scale = max(abs(lhs), abs(rhs), ref_l2_norm(star) * ref_l2_norm(v))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


def ref_kahler_form_identity_check(spec, grid, n_samples, rng):
    errs = []
    for _ in range(n_samples):
        u = ref_tangent(spec, grid, rng)
        v = ref_tangent(spec, grid, rng)
        B = _s1_pairing(v, complex_structure(2, u)) - _s1_pairing(u, complex_structure(2, v))
        w2 = l2_metric(complex_structure(2, u), v)
        scale = max(1.0, abs(w2), abs(B))
        errs.append(abs(B - w2) / scale)
    return float(np.max(errs, initial=0.0))


def ref_sample_loops(seed, n, samples, inject_sign_flip):
    """The suite's Hamiltonian and Kahler-identity entries, and its generator
    after them, as the loops made them one sample at a time."""
    rng = np.random.default_rng(seed)  # the suite draws nothing before its sample loops
    grid = Grid(0.0, 1.0, n)
    errs = {name: [] for name in MAPS}
    for _ in range(samples):
        data = NahmData(SU2, *(ref_smooth_path(SU2, grid, rng) for _ in range(4)))
        rho = ref_dirichlet_path(SU2, grid, rng)
        v = ref_tangent(SU2, grid, rng)
        for name, which in MAPS.items():
            err = ref_hamiltonian_check(data, rho, v, which)
            if inject_sign_flip and which == "baby":
                err = abs(err + 2.0 * abs(_omega_baby(rho_star(data, rho), v)))
            errs[name].append(err)
    errors = {name: float(np.max(found)) for name, found in errs.items()}
    errors["kahler_form_identity"] = ref_kahler_form_identity_check(SU2, Grid(0.0, 1.0, min(n, 200)), 20, rng)
    return errors, rng.bit_generator.state


# ---------------------------------------------------------------------------
# the chunked code against it


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_single_draws_match_the_reference(k):
    spec = AlgebraSpec("su", k)
    for n in (2, 7, 300):
        grid = Grid(0.0, 1.5, n)
        rngs = [np.random.default_rng(10 * k + n) for _ in range(2)]
        for new, ref, kw in ((random_smooth_path, ref_smooth_path, {}),
                             (random_smooth_path, ref_smooth_path, {"modes": 1, "scale": 0.4}),
                             (random_dirichlet_path, ref_dirichlet_path, {"scale": 0.5}),
                             (random_tangent, ref_tangent, {})):
            assert same_bits(new(spec, grid, rngs[0], **kw).values, ref(spec, grid, rngs[1], **kw).values)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("k", [2, 3])
def test_a_chunk_draw_matches_its_draws_one_by_one(k):
    spec, grid = AlgebraSpec("su", k), Grid(0.0, 1.0, 40)
    batched, single = np.random.default_rng(3), np.random.default_rng(3)
    count = CHUNK + 3
    data, rho, v = _random_chunk(spec, grid, batched, count, ["tangent", "dirichlet", "tangent"])
    assert data.shape == (4, grid.n + 1, count, k, k) and rho.shape == (grid.n + 1, count, k, k)
    for b in range(count):
        assert same_bits(data[:, :, b], ref_tangent(spec, grid, single).values)
        assert same_bits(rho[:, b], ref_dirichlet_path(spec, grid, single).values)
        assert same_bits(v[:, :, b], ref_tangent(spec, grid, single).values)
    assert batched.bit_generator.state == single.bit_generator.state


@pytest.mark.parametrize("k", [2, 3])
def test_single_record_hamiltonian_check_matches_the_reference(k):
    spec, grid = AlgebraSpec("su", k), Grid(0.0, 1.0, 80)
    rng = np.random.default_rng(11)
    for _ in range(3):
        d = NahmData(spec, *(ref_smooth_path(spec, grid, rng) for _ in range(4)))
        rho, v = ref_dirichlet_path(spec, grid, rng), ref_tangent(spec, grid, rng)
        for which in ("baby", 1, 2, 3):
            gap = hamiltonian_check(d, rho, v, which)
            assert type(gap) is float and gap.hex() == ref_hamiltonian_check(d, rho, v, which).hex()


@pytest.mark.parametrize("samples", [1, CHUNK, CHUNK + 3, 20])
def test_kahler_form_identity_check_matches_the_reference(samples):
    for seed, n in ((0, 200), (5, 33)):
        grid = Grid(0.0, 1.0, n)
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        dev = kahler_form_identity_check(SU2, grid, samples, rngs[0])
        assert dev.hex() == ref_kahler_form_identity_check(SU2, grid, samples, rngs[1]).hex()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("inject_sign_flip", [False, True])
@pytest.mark.parametrize("samples", [1, CHUNK, CHUNK + 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_suite_sample_entries_match_the_reference(monkeypatch, seed, samples, inject_sign_flip):
    # the generator the suite hands on past its sample loops: the rest of the
    # suite is the same code from the same state, so its entries are the same
    handed_on = []

    def first_draw_after_the_loops(spec, grid, rng, *args, **kwargs):
        handed_on.append(rng.bit_generator.state)
        return random_smooth_path(spec, grid, rng, *args, **kwargs)

    monkeypatch.setattr(checks, "random_smooth_path", first_draw_after_the_loops)
    n = 120
    entries = {c["name"]: c for c in run_check_suite(seed, n, samples, inject_sign_flip)}
    errors, state = ref_sample_loops(seed, n, samples, inject_sign_flip)
    assert handed_on[0] == state
    for name, error in errors.items():
        assert entries[name]["error"].hex() == error.hex(), name
        assert entries[name]["pass"] == checks.passes(error, entries[name]["threshold"])
    assert entries["hamiltonian_baby"]["pass"] is not inject_sign_flip
