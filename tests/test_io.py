import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nahmlab.algebra import AlgebraSpec, InputError
from nahmlab.io import (
    Table,
    from_pairs,
    matrix_from_json,
    nahm_from_json,
    nahm_to_json,
    residual_to_csv,
    to_pairs,
    write_csv,
    write_json,
)
from nahmlab.moment import mu_nahm
from nahmlab.paths import _BLOCK_BYTES, Grid, NahmData, random_smooth_path
from nahmlab.solver import nil_solution

SU2 = AlgebraSpec("su", 2)


def test_matrix_roundtrip(rng):
    M = SU2.random_element(rng) + 1j * SU2.random_element(rng)
    data = to_pairs(M.ravel()).tolist()
    assert len(data) == 4 and all(len(e) == 2 for e in data)
    assert from_pairs(data).reshape(2, 2).tobytes() == M.tobytes()
    assert matrix_from_json(data, 2).tobytes() == M.tobytes()


@pytest.mark.parametrize("k, lead, want", [
    (3, (), r"\(9, 2\)"),  # a 2 x 2 matrix read as an su(3) one
    (2, (10,), r"\(10, 4, 2\)"),  # 11 nodes where the grid has 10
    (3, (11,), r"\(11, 9, 2\)"),  # 11 nodes of 2 x 2 matrices read as su(3) ones
])
def test_matrix_decoder_names_the_expected_shape(rng, k, lead, want):
    # one decoder reads a single matrix and a path's nodes alike
    nodes = to_pairs(rng.standard_normal((11, 4)) + 1j * rng.standard_normal((11, 4))).tolist()
    data = nodes if lead else nodes[0]
    with pytest.raises(ValueError, match=r"expected \[re, im\] pairs of shape " + want):
        matrix_from_json(data, k, *lead)
    assert matrix_from_json(nodes, 2, 11).tobytes() == from_pairs(nodes).tobytes()
    assert matrix_from_json(nodes, 2, 11).shape == (11, 2, 2)


@pytest.mark.parametrize("data", [[["a", 0]], [[{}, 0]], [[10**400, 0]], [[1, 0], [1]]],
                         ids=["string", "object", "huge-int", "ragged"])
def test_pair_decoders_refuse_what_is_not_pairs_of_numbers(data):
    # numpy's TypeError, ValueError or OverflowError is one InputError, still a ValueError
    for decode in (from_pairs, lambda d: matrix_from_json(d, 1)):
        with pytest.raises(InputError, match=r"expected \[re, im\] pairs of numbers"):
            decode(data)


def test_pair_decoder_shape_errors_are_input_errors():
    with pytest.raises(InputError, match=r"expected \[re, im\] pairs, got shape \(1, 3\)"):
        from_pairs([[1, 0, 0]])
    with pytest.raises(InputError, match=r"expected \[re, im\] pairs of shape \(4, 2\)"):
        matrix_from_json([[1, 0]] * 3, 2)


def test_nahm_roundtrip(rng):
    g = Grid(0.0, 1.0, 20)
    d = NahmData(SU2, *(random_smooth_path(SU2, g, rng) for _ in range(4)))
    back = nahm_from_json(nahm_to_json(d))
    assert back.algebra == d.algebra
    assert back.grid == d.grid
    for a, b in zip(back.components, d.components):
        assert np.abs(a.values - b.values).max() == 0.0


def test_nahm_json_is_serializable(rng, tmp_path):
    d = nil_solution(SU2, Grid(0.0, 1.0, 10))
    path = tmp_path / "sol.json"
    write_json(nahm_to_json(d), path)
    loaded = json.loads(path.read_text())
    assert loaded["algebra"] == {"family": "su", "dim": 2}
    assert len(loaded["T1"]) == 11


def test_residual_csv(tmp_path):
    d = nil_solution(SU2, Grid(0.0, 1.0, 10))
    res = mu_nahm(d)
    norms = np.stack([np.linalg.norm(res.values[i], axis=(-2, -1)) for i in range(3)])
    path = tmp_path / "res.csv"
    residual_to_csv(d.grid, norms, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "mu1", "mu2", "mu3"]
    assert len(rows) == 12


# --------------------------------------------------------------------------
# the serializers against the stdlib paths they replaced


def _pyify(obj):
    """The pre-pass that fed ``json.dumps`` before ``write_json`` had its own
    encoder: the reference the encoder must match byte for byte."""
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, complex):  # a Python complex or an np.complex128
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _pyify(obj.tolist())  # a complex array's entries become pairs above
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _fmt(x) -> str:
    """The per-float CSV format that ``write_csv`` replaced."""
    return f"{float(x):.17g}"


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, float("nan"), float("inf"), float("-inf")]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
STRINGS = st.text(max_size=8) | st.sampled_from(['"', 'a "quoted" key', "back\\slash", "\u00e9t\u00e9", "\u2603",
                                                 "\n\t", "100%", "%s %r"])
SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
ARRAYS = hnp.arrays(np.float64, SHAPES, elements=st.floats(allow_nan=False, allow_infinity=False)) | hnp.arrays(
    np.float64, SHAPES, elements=FLOATS)
COMPLEX = st.builds(complex, FLOATS, FLOATS)
COMPLEX_ARRAYS = hnp.arrays(np.complex128, SHAPES, elements=COMPLEX)  # non-finite parts too
INT_ARRAYS = hnp.arrays(np.int64, SHAPES) | hnp.arrays(np.bool_, SHAPES)
LEAVES = (st.none() | st.booleans() | st.integers() | FLOATS | STRINGS | ARRAYS | INT_ARRAYS
          | FLOATS.map(np.float64) | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
          | COMPLEX | COMPLEX.map(np.complex128) | COMPLEX_ARRAYS)
TREES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(STRINGS, kids, max_size=4),
    max_leaves=24,
)
EDGE_TREE = {
    "floats": EDGE_FLOATS,
    "strings": ["\u00e9", 'say "hi"', ""],
    "scalars": (np.float64(-0.0), np.float64("nan"), np.int64(-7), np.bool_(True), np.bool_(False)),
    "empty": [{}, [], ()],
    "arrays": [np.zeros(0), np.zeros((2, 0)), np.zeros((0, 3)), np.arange(6.0).reshape(1, 2, 3),
               np.array([[1.5, np.nan], [-np.inf, -0.0]])],
    "complex": [1j, complex(-0.0, np.nan), np.complex128(complex(np.inf, -0.0)), np.zeros((2, 0), complex),
                np.array([[1 + 2j, complex(np.nan, -np.inf)]]), np.arange(4.0).view(complex)],
}


# one directory per property test, which every example overwrites: a fresh
# directory per example leaves hundreds for pytest's temp cleanup to delete
@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("json")


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=150, deadline=None)
@given(data=st.dictionaries(STRINGS, TREES, max_size=5) | st.lists(TREES, max_size=5))
@example(data=EDGE_TREE)
def test_write_json_matches_stdlib_encoder(data, json_dir):
    path = json_dir / "out.json"
    write_json(data, path)
    assert path.read_text() == json.dumps(_pyify(data), indent=2, sort_keys=True) + "\n"


def test_write_json_rejects_unknown_types(tmp_path):
    # the text is written as it is made: a refusal leaves what came before it
    for bad, left in (({"x": {1, 2}}, '{\n  "x": '), ({1: "non-string key"}, "")):
        with pytest.raises(TypeError):
            write_json(bad, tmp_path / "bad.json")
        assert (tmp_path / "bad.json").read_text() == left


def test_write_json_memory_does_not_grow_with_the_text(rng, tmp_path):
    # four times the nodes: the file grows by 9000 nodes of pairs, the traced
    # peak by the array's finiteness mask only, not by the text, its floats or
    # their tuple
    sizes, peaks = [], []
    for n in (3000, 12000):
        data = {"T1": rng.standard_normal((n + 1, 4, 2)), "n": n}
        tracemalloc.start()
        try:
            write_json(data, tmp_path / "sol.json")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append((tmp_path / "sol.json").stat().st_size)
    assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) / 4


def _table_rows(columns: dict, null: dict) -> list:
    """The row dicts a table stands for, built a row at a time."""
    n = len(next(iter(columns.values())))
    return [{key: None if key in null and null[key][i] else col[i].tolist() for key, col in columns.items()}
            for i in range(n)]


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, -1e308])
ENTRY_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3)  # shape () is a scalar entry


@st.composite
def tables(draw):
    """Float, complex, int, bool and label columns over 0-5 rows, some with
    null rows, and now and then one non-finite entry; with the row dicts they
    stand for."""
    n = draw(st.integers(0, 5))
    columns, null = {}, {}
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    for key in draw(st.lists(STRINGS, min_size=1, max_size=4, unique=True)):
        kind = draw(st.sampled_from("fcUib"))
        if kind == "U":
            columns[key] = np.array(draw(st.lists(STRINGS, min_size=n, max_size=n)), dtype=str)
        elif kind in "ib":
            columns[key] = draw(hnp.arrays(np.int64 if kind == "i" else np.bool_, (n, *draw(ENTRY_SHAPES))))
        else:
            shape = (n, *draw(ENTRY_SHAPES), *((2,) if kind == "c" else ()))
            col = draw(hnp.arrays(np.float64, shape, elements=FINITE))
            if bad is not None and col.size:
                col.flat[draw(st.integers(0, col.size - 1))], bad = bad, None
            columns[key] = col.view(complex)[..., 0] if kind == "c" else col
        if draw(st.booleans()):
            null[key] = draw(hnp.arrays(np.bool_, n))
    return Table(columns, null), _table_rows(columns, null)


def _edge_table(columns: dict, null: dict) -> tuple:
    return Table(columns, null), _table_rows(columns, null)


EDGE_TABLES = [
    _edge_table({"x": np.zeros(0), "label": np.array([], dtype=str)}, {}),  # no rows
    _edge_table({"100%": np.array([-0.0, 1.5]), "b": np.array([complex(-0.0, -0.0), 2j]),
                 "%s key": np.array(["%r", 'say "hi"'])}, {"b": np.array([True, False])}),
    _edge_table({"x": np.array([[np.nan, 1.0], [np.inf, -0.0]]), "b": np.array([complex(-np.inf, 0), 1j])},
                {"b": np.array([False, True])}),  # non-finite: NaN and Infinity fill their slots as text
]


@settings(max_examples=150, deadline=None)
@given(case=tables())
@example(case=EDGE_TABLES[0])
@example(case=EDGE_TABLES[1])
@example(case=EDGE_TABLES[2])
def test_write_json_table_matches_its_row_dicts(case, json_dir):
    # at the top level, in an object and in a list: each depth's indentation
    table, rows = case
    for data, reference in ((table, rows), ({"samples": table, "more": [table]}, {"samples": rows, "more": [rows]})):
        write_json(data, json_dir / "out.json")
        assert (json_dir / "out.json").read_text() == json.dumps(_pyify(reference), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("entry", [(), (3, 2)])
def test_write_json_node_blocks_keep_the_layout(entry, rng, json_dir):
    # a node block of _BLOCK_BYTES at a time: exactly one block, and two and a
    # node; then a NaN in the array's second block and an Infinity in the
    # table's, whose row is a label's slot and a's and z's
    b = _BLOCK_BYTES // (8 * int(np.prod(entry)))
    t = _BLOCK_BYTES // (8 * (1 + 2 * int(np.prod(entry)) if entry else 4))
    for rows in (b, 2 * b + 1):
        a = rng.standard_normal((rows, *entry)) * 10.0 ** rng.integers(-300, 300, (rows, *entry))
        a.reshape(-1)[::7] = -0.0
        labels = np.array(["O_plus", "O_minus"])[rng.integers(0, 2, rows)]
        c = a.copy()  # the table's column
        for bad in (False, True):
            if bad:
                a.reshape(rows, -1)[min(b, rows - 1), 0], c.reshape(rows, -1)[t, 0] = np.nan, np.inf
            table = Table({"a": c, "z": c.view(complex) if entry else c + 1j, "label": labels},
                          {"z": labels == "O_plus"})
            write_json({"a": a, "t": table}, json_dir / "out.json")
            reference = {"a": a.tolist(), "t": _table_rows(table.columns, table.null)}
            assert (json_dir / "out.json").read_text() == json.dumps(_pyify(reference), indent=2, sort_keys=True) + "\n"


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    ends=st.tuples(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6)),
    ncols=st.integers(1, 4),
    is_complex=st.booleans(),
    draw=st.data(),
)
def test_write_csv_matches_csv_writer(n, ends, ncols, is_complex, draw, csv_dir):
    grid = Grid(ends[0], ends[0] + ends[1], n)
    table = draw.draw(hnp.arrays(np.float64, (n + 1, ncols * (2 if is_complex else 1)), elements=FLOATS))
    if is_complex:
        table = table.view(complex)  # bit-exact, unlike re + 1j * im
    names = [f"c{i}" for i in range(ncols)]
    write_csv(grid, names, table, csv_dir / "new.csv")
    _reference_csv(grid, names, table, csv_dir / "ref.csv")
    assert (csv_dir / "new.csv").read_bytes() == (csv_dir / "ref.csv").read_bytes()


def _reference_csv(grid: Grid, names: list, table: np.ndarray, path) -> None:
    """The stdlib writer that ``write_csv`` replaced, a row at a time."""
    if np.iscomplexobj(table):
        names = [f"{name}_{part}" for name in names for part in ("re", "im")]
        table = to_pairs(table).reshape(len(table), -1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s"] + names)
        for s, row in zip(grid.nodes.tolist(), table.tolist()):
            writer.writerow([_fmt(s)] + [_fmt(x) for x in row])


@pytest.mark.parametrize("ncols, is_complex", [(12, False), (8, True)])
def test_write_csv_node_blocks_keep_the_rows(ncols, is_complex, rng, csv_dir):
    # a block of _BLOCK_BYTES of table rows at a time: exactly one block, and two and a row
    width = ncols * (2 if is_complex else 1)
    b = _BLOCK_BYTES // (8 * width)
    names = [f"c{i}" for i in range(ncols)]
    for rows in (b, 2 * b + 1):
        table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
        table = table.view(complex) if is_complex else table
        grid = Grid(-1.0, 3.0, rows - 1)
        write_csv(grid, names, table, csv_dir / "new.csv")
        _reference_csv(grid, names, table, csv_dir / "ref.csv")
        assert (csv_dir / "new.csv").read_bytes() == (csv_dir / "ref.csv").read_bytes()


def test_write_csv_memory_does_not_grow_with_the_text(rng, tmp_path):
    # four times the rows: the file grows by 9000 rows of text, the traced peak by
    # the node array only, not by the text, its floats or their tuple
    sizes, peaks = [], []
    for n in (3000, 12000):
        grid = Grid(0.0, 1.0, n)
        table = rng.standard_normal((n + 1, 3))
        tracemalloc.start()
        try:
            write_csv(grid, ["mu1", "mu2", "mu3"], table, tmp_path / "res.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append((tmp_path / "res.csv").stat().st_size)
    assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) / 4


# --------------------------------------------------------------------------
# exact read-back


def _awkward_values(grid: Grid, k: int, rng) -> np.ndarray:
    """Node samples with -0.0 and non-finite parts, which survive a JSON round
    trip only if nothing recombines re and im arithmetically."""
    z = rng.standard_normal((grid.n + 1, k, k)) + 1j * rng.standard_normal((grid.n + 1, k, k))
    flat = z.reshape(-1).view(float)
    flat[:6] = [-0.0, -0.0, np.inf, 0.0, np.nan, -np.inf]
    return z


def test_nahm_json_reads_back_bit_for_bit(rng, tmp_path):
    grid = Grid(0.0, 1.0, 6)
    d = NahmData.from_arrays(SU2, grid, *(_awkward_values(grid, 2, rng) for _ in range(4)))
    path = tmp_path / "sol.json"
    write_json(nahm_to_json(d), path)
    back = nahm_from_json(json.loads(path.read_text()))
    for a, b in zip(back.components, d.components):
        assert a.values.tobytes() == b.values.tobytes()


def test_nahm_json_wrong_pair_count_raises(tmp_path):
    d = nil_solution(SU2, Grid(0.0, 1.0, 5))
    path = tmp_path / "sol.json"
    write_json(nahm_to_json(d), path)
    ragged = json.loads(path.read_text())
    ragged["T2"][3] = ragged["T2"][3][:-1]
    short = json.loads(path.read_text())
    short["T1"] = [node[:-1] for node in short["T1"]]
    fours = json.loads(path.read_text())  # the same numbers, grouped in fours
    fours["T3"] = [[node[0] + node[1], node[2] + node[3]] for node in fours["T3"]]
    for data in (ragged, short, fours):
        with pytest.raises(ValueError):
            nahm_from_json(data)




@pytest.mark.parametrize(
    "block, key, value, message",
    [
        ("grid", "n", 5.0, "grid.n must be int, got float"),
        ("grid", "n", 4.7, "grid.n must be int, got float"),
        ("algebra", "dim", "2", "algebra.dim must be int, got str"),
        ("grid", "s0", "0.0", "grid.s0 must be float, got str"),
        ("grid", "s1", True, "grid.s1 must be float, got bool"),
    ],
)
def test_nahm_json_refuses_values_it_would_have_to_coerce(block, key, value, message):
    # each value but n = 4.7 used to read back as the record's own number through int() or float()
    data = json.loads(json.dumps(nahm_to_json(nil_solution(SU2, Grid(0.0, 1.0, 5))), default=np.ndarray.tolist))
    assert nahm_from_json(data).grid == Grid(0.0, 1.0, 5)
    data[block][key] = value
    with pytest.raises(InputError, match=f"the record's {message}"):
        nahm_from_json(data)


@pytest.mark.parametrize("value, kind", [("0.5", "str"), (True, "bool"), (None, "NoneType"), ("nan", "str"),
                                         ("1e400", "str")])
def test_nahm_json_refuses_an_entry_that_is_no_json_number(value, kind):
    # numpy read "0.5" as 0.5, true as 1, null and "nan" as NaN and "1e400" as inf
    data = json.loads(json.dumps(nahm_to_json(nil_solution(SU2, Grid(0.0, 1.0, 5))), default=np.ndarray.tolist))
    data["T1"][2][1][0] = value
    want = rf"^the record's T1: expected \[re, im\] pairs of numbers: an entry must be float, got {kind}$"
    with pytest.raises(InputError, match=want):
        nahm_from_json(data)


@pytest.mark.parametrize("key, value, got", [("s0", -10**400, "-inf"), ("s1", 10**400, "inf")], ids=["s0", "s1"])
def test_nahm_json_refuses_an_integer_past_the_largest_float(key, value, got):
    # float(10**400) raised OverflowError
    data = json.loads(json.dumps(nahm_to_json(nil_solution(SU2, Grid(0.0, 1.0, 5))), default=np.ndarray.tolist))
    data["grid"][key] = value
    with pytest.raises(InputError, match=f"^the record's grid.{key} must be finite, got {got}$"):
        nahm_from_json(data)
    data["grid"][key] = float(key == "s1")
    data["T3"][0][0][1] = value
    with pytest.raises(InputError, match="^the record's T3: .* must be finite, got an integer past the largest float$"):
        nahm_from_json(data)


def test_nahm_json_names_the_component_of_a_shape_error():
    data = nahm_to_json(nil_solution(SU2, Grid(0.0, 1.0, 5)))
    data["T2"] = data["T2"][:-1]
    with pytest.raises(InputError, match=r"^the record's T2: expected \[re, im\] pairs of shape \(6, 4, 2\)"):
        nahm_from_json(data)


@pytest.mark.parametrize("drop", [("T2",), ("grid",), ("grid", "s1"), ("algebra", "dim")])
def test_nahm_json_missing_key_is_an_input_error(drop):
    data = nahm_to_json(nil_solution(SU2, Grid(0.0, 1.0, 5)))
    record = data[drop[0]] if len(drop) == 2 else data
    del record[drop[-1]]
    with pytest.raises(InputError, match=f"a Nahm record needs the key '{drop[-1]}'"):
        nahm_from_json(data)


@pytest.mark.parametrize("block, value", [("algebra", [2]), ("grid", "x")])
def test_nahm_json_refuses_a_block_that_is_no_object(block, value):
    # both escaped as TypeError ("list indices must be integers ...", "string indices ...")
    data = nahm_to_json(nil_solution(SU2, Grid(0.0, 1.0, 5)))
    data[block] = value
    with pytest.raises(InputError, match=f"the record's {block} must be dict, got {type(value).__name__}"):
        nahm_from_json(data)
