import json

import numpy as np
import pytest

from nahmlab.algebra import AlgebraSpec, InputError, bracket, su2_basis
from nahmlab.cli import main
from nahmlab.moment import lax_extract
from nahmlab.paths import Grid, NahmData, random_smooth_path, sup_norm
from nahmlab.solver import coth_solution
from nahmlab.sympair import (
    SymmetricPairSpec,
    classify_real_orbit,
    flow_preserves_split,
    is_gk_valued,
    kc_orbit_form_check,
    split,
    tangent_transitivity_check,
    vergne_map,
    vergne_map_j,
)

SU2 = AlgebraSpec("su", 2)
SU3 = AlgebraSpec("su", 3)
E1, E2, E3 = su2_basis()
SO2 = SymmetricPairSpec(SU2, "transpose_conjugate")
B21 = SymmetricPairSpec(SU3, "block", 2, 1)


def validate(spec: SymmetricPairSpec, rng: np.random.Generator | None = None, samples: int = 20) -> float:
    """Max defect over: involutivity, automorphism property, bracket closure."""
    rng = np.random.default_rng(0) if rng is None else rng
    worst = 0.0
    for _ in range(samples):
        X = spec.base.random_element(rng)
        Y = spec.base.random_element(rng)
        worst = max(worst, float(np.linalg.norm(spec.theta(spec.theta(X)) - X)))
        worst = max(worst, float(np.linalg.norm(spec.theta(bracket(X, Y)) - bracket(spec.theta(X), spec.theta(Y)))))
    kb, mb = spec.k_basis(), spec.m_basis()
    if len(kb) + len(mb) != spec.base.dim ** 2 - 1:
        raise ValueError("basis does not split into theta eigenspaces")
    for A, B_, sign in ((kb, kb, -1.0), (kb, mb, 1.0), (mb, mb, -1.0)):
        for a in A:
            for b in B_:
                br = bracket(a, b)
                # [k,k] and [m,m] land in k, [k,m] in m
                worst = max(worst, float(np.linalg.norm(spec.theta(br) - (-sign) * br)))
    return worst


def km_init(spec, rng, scale=0.2):
    kb, mb = spec.k_basis(), spec.m_basis()
    T1 = sum(rng.standard_normal() * b for b in kb)
    T2 = sum(rng.standard_normal() * b for b in mb)
    T3 = sum(rng.standard_normal() * b for b in mb)
    nrm = max(np.linalg.norm(m) for m in (T1, T2, T3))
    return tuple(scale / nrm * m for m in (T1, T2, T3))


@pytest.mark.parametrize("spec", [SO2, B21])
def test_involution_is_automorphism(spec, rng):
    assert validate(spec, rng) <= 1e-12


def test_unknown_involution_is_refused():
    with pytest.raises(InputError, match="unknown involution 'bogus'"):
        SymmetricPairSpec(SU2, "bogus")


@pytest.mark.parametrize("p, q", [(2, 0), (0, 2), (1, 2)])
def test_block_sizes_are_at_least_one_and_sum_to_the_dimension(p, q):
    # an empty block leaves k or m without a basis to take ranks over
    with pytest.raises(InputError, match="block sizes"):
        SymmetricPairSpec(SU2, "block", p, q)


@pytest.mark.parametrize("p, q", [(1.5, 1.5), (1.0, 2.0), (True, 2)])
def test_block_sizes_must_be_integers(p, q):
    # a float or bool size would construct, and k_basis would then fail inside numpy
    with pytest.raises(InputError, match="block sizes must be integers"):
        SymmetricPairSpec(SU3, "block", p, q)


def test_numpy_integer_block_sizes_are_accepted():
    spec = SymmetricPairSpec(SU3, "block", np.int64(1), np.int64(2))
    plain = SymmetricPairSpec(SU3, "block", 1, 2)
    assert np.array_equal(spec.k_basis(), plain.k_basis()) and np.array_equal(spec.m_basis(), plain.m_basis())


@pytest.mark.parametrize("p, q", [(5, -7), (1, 1), (0, 2), (1, 0)])
def test_transpose_conjugate_refuses_block_sizes(p, q):
    # the involution -Z^T has no blocks: sizes given to it would be ignored
    with pytest.raises(InputError, match="no block sizes"):
        SymmetricPairSpec(SU2, "transpose_conjugate", p, q)
    assert SymmetricPairSpec(SU2, "transpose_conjugate", 0, 0) == SO2


def test_split_examples():
    # su(2)/so(2): e2 is real antisymmetric (fixed), e3 imaginary diagonal
    Xk, Xm = split(SO2, E2)
    assert np.abs(Xk - E2).max() < 1e-15 and np.abs(Xm).max() < 1e-15
    Xk, Xm = split(SO2, E3)
    assert np.abs(Xk).max() < 1e-15 and np.abs(Xm - E3).max() < 1e-15


@pytest.mark.parametrize("spec", [SO2, B21])
def test_split_orthogonal_and_idempotent(spec, rng):
    from nahmlab.algebra import pairing

    for _ in range(5):
        X = spec.base.random_element(rng)
        Xk, Xm = split(spec, X)
        assert np.abs(Xk + Xm - X).max() < 1e-13
        assert abs(pairing(Xk, Xm)) < 1e-12
        assert np.abs(split(spec, Xk)[0] - Xk).max() < 1e-13
        assert np.abs(split(spec, Xm)[1] - Xm).max() < 1e-13


def test_is_gk_valued_crafted(rng):
    g = Grid(0.0, 1.0, 50)
    f = np.sin(np.pi * g.nodes)
    T0 = f[:, None, None] * E2[None]
    T1 = 0.3 * f[:, None, None] * E2[None]
    T2 = f[:, None, None] * E1[None]
    T3 = f[:, None, None] * E3[None]
    d = NahmData.from_arrays(SU2, g, T0, T1, T2, T3)
    assert is_gk_valued(SO2, d) < 1e-14
    generic = NahmData(SU2, *(random_smooth_path(SU2, g, rng) for _ in range(4)))
    assert is_gk_valued(SO2, generic) > 1e-2


def test_is_gk_valued_coth_after_axis_relabeling():
    # (T1,T2,T3) -> (T2,T1,-T3) is in SO(3) and puts the coth solution into
    # (g,k)-valued form for su(2)/so(2)
    d = coth_solution(1.0, 1.0, Grid(0.0, 1.0, 100))
    perm = NahmData.from_arrays(SU2, d.grid, d.T0.values, d.T2.values, d.T1.values, -d.T3.values)
    assert is_gk_valued(SO2, perm) < 1e-14


@pytest.mark.parametrize("spec", [SO2, B21])
def test_flow_preserves_split(spec, rng):
    d, leak = flow_preserves_split(spec, km_init(spec, rng), Grid(0.0, 1.0, 1000))
    assert leak <= 1e-10


def test_flow_broken_init_leaks(rng):
    init = tuple(SU2.random_element(rng, 0.25) for _ in range(3))
    d, leak = flow_preserves_split(SO2, init, Grid(0.0, 1.0, 200))
    assert leak > 1e-2


def test_lax_containment_along_flow(rng):
    d, _ = flow_preserves_split(SO2, km_init(SO2, rng), Grid(0.0, 1.0, 500))
    alpha, beta = lax_extract(d)  # the I1 pair alpha1 = T0 - iT1, beta1 = T2 + iT3
    a1k, a1m = split(SO2, alpha)
    b1k, b1m = split(SO2, beta)
    assert sup_norm(a1m) < 1e-12  # alpha1 in k tensor C
    assert sup_norm(b1k) < 1e-12  # beta1 in m tensor C


def test_vergne_map_values():
    assert np.abs(vergne_map(1.0, 0.0) - np.array([[0.0, 1.0], [0.0, 0.0]])).max() == 0.0
    u, v = 0.8 + 0.2j, -1.1 + 0.5j
    assert np.abs(vergne_map(u, v) - vergne_map(-u, -v)).max() < 1e-15


def test_vergne_map_nilpotent(rng):
    for _ in range(10):
        u, v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        M = vergne_map(u, v)
        assert abs(np.trace(M)) < 1e-13
        assert np.abs(M @ M).max() < 1e-12
    with pytest.raises(ValueError):
        vergne_map(0.0, 0.0)


def test_vergne_map_j_values():
    want = np.array([[1j, 1.0], [1.0, -1j]])
    assert np.abs(vergne_map_j(1.0, 0.0) - want).max() < 1e-15
    assert np.abs(vergne_map_j(0.0, 1.0) + want).max() < 1e-15
    M = vergne_map_j(0.3 - 0.7j, 1.2 + 0.4j)
    assert np.abs(M @ M).max() < 1e-12


def test_classify_real_orbit():
    assert classify_real_orbit(1.0, 0.0) == "O_plus"
    assert classify_real_orbit(1j, 0.0) == "O_minus"
    assert classify_real_orbit(1.0, 1j) == "not_real"
    assert classify_real_orbit(0.4, -2.0) == "O_plus"
    assert classify_real_orbit(0.4j, -2.0j) == "O_minus"
    # large finite points keep their verdicts, though u^2 overflows
    assert classify_real_orbit(1e200, 0.0) == "O_plus"
    assert classify_real_orbit(1e200j, 0.0) == "O_minus"
    assert classify_real_orbit(1e200, 1e200j) == "not_real"
    with pytest.raises(ValueError):
        classify_real_orbit(0.0, 0.0)
    # a non-finite point gets no verdict
    for u, v in ((np.nan, np.nan), (complex(np.nan, np.nan), 1j), (np.inf, 0.0)):
        with pytest.raises(InputError, match="finite"):
            classify_real_orbit(u, v)


def test_kc_orbit_form_values():
    form, b = kc_orbit_form_check(vergne_map_j(1.0, 0.0))
    assert form == "plus_form" and abs(b - 1.0) < 1e-14
    x0, x2 = 0.9, -0.4
    form, b = kc_orbit_form_check(vergne_map_j(x0, x2))
    assert form == "plus_form"
    assert abs(b - (x0 - 1j * x2) ** 2) < 1e-13
    x1, x3 = -1.3, 0.6
    form, b = kc_orbit_form_check(vergne_map_j(1j * x1, 1j * x3))
    assert form == "minus_form"
    form, _ = kc_orbit_form_check(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert form == "neither"


def test_vergne_witness_end_to_end(rng):
    # even samples real (O_plus, plus form), odd ones imaginary (O_minus, minus form), in one batch
    even = np.arange(1000) % 2 == 0
    x = rng.standard_normal((1000, 2))
    u, v = np.where(even[:, None], x, 1j * x).T
    assert (classify_real_orbit(u, v) == np.where(even, "O_plus", "O_minus")).all()
    form, b = kc_orbit_form_check(vergne_map_j(u, v))
    crossovers = (form != np.where(even, "plus_form", "minus_form")) | (abs(b) == 0.0)
    assert np.count_nonzero(crossovers) == 0


# --------------------------------------------------------------------------
# the batched witness against the per-point loop it replaced

PLUS_FORM = np.array([[1j, 1.0], [1.0, -1j]], dtype=complex)
MINUS_FORM = np.array([[-1j, 1.0], [1.0, 1j]], dtype=complex)


def loop_map(u, v):
    if abs(u) == 0.0 and abs(v) == 0.0:
        raise InputError("(u, v) must be nonzero")
    return np.array([[u * v, u * u], [-v * v, -u * v]], dtype=complex)


def loop_map_j(u, v):
    return loop_map(u - 1j * np.conj(v), v + 1j * np.conj(u))


def loop_classify(u, v):
    u = complex(u)
    v = complex(v)
    if not (np.isfinite(u) and np.isfinite(v)):
        raise InputError(f"(u, v) must be finite, got ({u}, {v})")
    if u == 0 and v == 0:
        raise InputError("(u, v) must be nonzero")
    vals = (u * u, v * v, u * v)
    if any(abs(z.imag) > 1e-10 for z in vals):
        return "not_real"
    disc = (u * u + v * v).real
    if abs(disc) <= 1e-10:
        return "degenerate"
    if disc > 0:
        if abs(u.imag) > 1e-6 or abs(v.imag) > 1e-6:
            return "degenerate"
        return "O_plus"
    if abs(u.real) > 1e-6 or abs(v.real) > 1e-6:
        return "degenerate"
    return "O_minus"


def loop_form(M):
    M = np.asarray(M, dtype=complex)
    b = 0.5 * (M[0, 1] + M[1, 0])
    if abs(b) > 0:
        for name, form in (("plus_form", PLUS_FORM), ("minus_form", MINUS_FORM)):
            if np.max(np.abs(M - b * form)) <= 1e-10 * max(1.0, abs(b)):
                return name, b
    return "neither", None


def loop_vergne(cfg: dict):
    """The per-point ``cmd_vergne``: vergne.json's text, stdout and the exit code."""
    points = [(complex(p[0], p[1]), complex(p[2], p[3])) for p in cfg.get("points", [])]
    rng = np.random.default_rng(cfg.get("seed", 0))
    for i in range(cfg.get("samples", 0)):
        x = rng.standard_normal(2)
        if i % 2 == 0:
            points.append((complex(x[0], 0.0), complex(x[1], 0.0)))
        else:
            points.append((complex(0.0, x[0]), complex(0.0, x[1])))
    table, out = [], ""
    crossovers = nonfinite = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for u, v in points:
            orbit = loop_classify(u, v)
            M = loop_map_j(u, v)
            form, b = loop_form(M)
            if not np.isfinite(M).all():
                nonfinite += 1
                out += f"vergne: point {[u.real, u.imag, v.real, v.imag]} has a non-finite image -> FAIL\n"
            expected = {"O_plus": "plus_form", "O_minus": "minus_form"}.get(orbit)
            if expected is not None and form != expected:
                crossovers += 1
            table.append({"u": [u.real, u.imag], "v": [v.real, v.imag], "orbit": orbit,
                          "image": [[z.real, z.imag] for z in M.ravel().tolist()], "form": form,
                          "b": None if b is None else [b.real, b.imag]})
    out += f"vergne: {len(points)} points, {crossovers} crossovers\n"
    text = json.dumps({"samples": table, "crossovers": crossovers}, indent=2, sort_keys=True) + "\n"
    return text, out, 0 if crossovers == nonfinite == 0 else 1


WITNESS_POINTS = [
    # on the axes
    (1, 0), (0, 1), (1j, 0), (0, 1j), (-1, 0), (0, -1j), (-0.0 + 0j, 2), (complex(0.0, -0.0), -3j),
    # imaginary parts at the two tolerances: 1e-11 against the squares' 1e-10, 1e-6 at the coordinate cross-check
    (1 + 1e-11j, 0.5), (1e-11 + 1j, 0.5j), (1 + 1e-6j, 0.5), (1 + 1.0000001e-6j, 0.5), (1e-6 + 1j, 0.5j),
    (1.0000001e-6 + 1j, 0.5j), (2 + 1e-6j, 1e-6j), (1e-6j, 1e-6), (1e-11 + 0j, 1e-11 + 0j),
    # u^2 + v^2 within 1e-10 of 0
    (1, 1j), (1, 1j * (1 + 2e-11)), (1, 1j * (1 + 1e-10)), (1 + 1e-12j, 1j), (1e-5, 1e-5j), (3e-6, 0),
    # images whose b is zero: "neither"
    (1 + 1j, 0), (1 + 1j, 2 - 2j),
    # large and tiny
    (1e200, 0), (1e200j, 0), (1e200, 1e200j), (1e308 + 1e308j, 1e308 + 1e308j), (5e-324, 0), (1e-160, 1e-160j),
]
ODD_MATRICES = np.array([np.zeros((2, 2)), [[1, 1], [-1, 0]], [[1, 2], [3, 4]], [[np.nan, 1], [1, 0]],
                         [[0, np.inf], [1, 0]], [[1j, 1 + 1e-9], [1, -1j]]], dtype=complex)


def witness_points() -> list:
    """The edge points and random ones, as the Python complex pairs ``cmd_vergne`` once passed."""
    x = np.random.default_rng(7).standard_normal((20, 4))
    drawn = [(x0, 1j * x1) for x0, x1, _, _ in x] + [(x0 + 1j * x1, x2 + 1j * x3) for x0, x1, x2, x3 in x]
    return [(complex(a), complex(b)) for a, b in WITNESS_POINTS + drawn]


def test_batched_witness_matches_the_per_point_loop():
    # label for label and byte for byte, in one batch and point by point
    points = witness_points()
    u, v = np.array(points).T
    with np.errstate(over="ignore", invalid="ignore"):
        orbit = classify_real_orbit(u, v)
        images = vergne_map_j(u, v)
        plain = vergne_map(u, v)
        matrices = np.concatenate([images, plain, ODD_MATRICES])
        form, b = kc_orbit_form_check(matrices)
        for i, (x, y) in enumerate(points):
            label = classify_real_orbit(x, y)
            assert label.shape == () and label == orbit[i] == loop_classify(x, y), (x, y)
            assert vergne_map_j(x, y).tobytes() == images[i].tobytes() == loop_map_j(x, y).tobytes(), (x, y)
            assert vergne_map(x, y).tobytes() == plain[i].tobytes() == loop_map(x, y).tobytes(), (x, y)
        for i, M in enumerate(matrices):
            name, c = loop_form(M)
            one, one_b = kc_orbit_form_check(M)
            assert one.shape == one_b.shape == () and one == form[i] == name, M
            assert one_b.tobytes() == b[i].tobytes(), M
            if c is not None:
                assert b[i].tobytes() == c.tobytes(), M
    assert {"not_real", "degenerate", "O_plus", "O_minus"} == set(orbit)
    assert {"plus_form", "minus_form", "neither"} == set(form[:len(points)])


def test_classify_real_orbit_refuses_the_first_refused_point():
    # a batch raises what a loop over its points raises first
    with pytest.raises(InputError, match="nonzero"):
        classify_real_orbit([1.0, 0.0, np.nan], [1j, 0.0, 0.0])
    with pytest.raises(InputError, match=r"finite, got \(\(inf\+0j\), 0j\)"):
        classify_real_orbit([1.0, np.inf, 0.0], [1j, 0.0, 0.0])
    with pytest.raises(InputError, match="nonzero"):
        vergne_map([[1.0, 2.0], [3.0, 0.0]], 0.0)
    assert classify_real_orbit(np.zeros((0,)), np.zeros((0,))).shape == (0,)


@pytest.mark.parametrize("cfg, seed", [
    ({"samples": 1000, "seed": 3}, None),  # the README's
    ({"samples": 1000, "seed": 3}, 1097657232),  # the benchmark cli workload's, at its seed 0
    ({"samples": 1001, "seed": 11,
      "points": [[1, 0, 0, 0], [0, 1, 0, 1], [1, 1, 1, 1], [0.5, 0, -0.5, 0], [1e-11, 0, 1e-11, 0]]}, None),
    ({"points": [[1e308, 1e308, 1e308, 1e308], [1, 1, 0, 0], [2, 0, 1e-6, 0]], "samples": 3}, None),  # exit 1
])
def test_vergne_json_matches_the_per_point_loop(tmp_path, capsys, cfg, seed):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["vergne", "--config", str(path), "--out-dir", str(tmp_path / "out")]
    code = main(argv + ([] if seed is None else ["--seed", str(seed)]))
    text, out, want = loop_vergne(cfg if seed is None else {**cfg, "seed": seed})
    assert (code, capsys.readouterr().out) == (want, out)
    assert (tmp_path / "out" / "vergne.json").read_text() == text


def test_tangent_transitivity_nilpotent():
    dims = tangent_transitivity_check(SO2, vergne_map(1.0, 0.0))
    assert dims == (1, 1)


def test_tangent_transitivity_semisimple():
    x = np.diag([1.0, -1.0]).astype(complex)  # symmetric traceless: in m^C
    dims = tangent_transitivity_check(SO2, x)
    assert dims[0] == dims[1]


def test_tangent_transitivity_zero():
    assert tangent_transitivity_check(SO2, np.zeros((2, 2))) == (0, 0)


def test_tangent_transitivity_su3(rng):
    # generic nilpotent in m^C for su(3)/s(u(2)+u(1))
    mb = B21.m_basis()
    x = mb[0] + 1j * mb[1]
    dims = tangent_transitivity_check(B21, x)
    assert dims[0] == dims[1]
