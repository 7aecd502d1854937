"""JSON / CSV serialization.

A complex number is written as its [re, im] pair and a matrix as a flat
row-major JSON array of pairs, in the stdlib's ``json.dumps(obj, indent=2,
sort_keys=True)`` layout.  An array is written a node block at a time, each
block one ``%s`` template filled by one C-level ``%``, and a ``Table`` (records
given as columns) the same way through one row template, so no row object is
built and a finite float array's text is never held whole.  A finite float
fills its slot as itself; any other entry (NaN, Infinity, an int, a bool, a
label) as the text ``json.dumps`` gives it, made for its whole array at once.
CSV files have one row per grid node, a complex value takes an _re and an _im
column, and floats have 17 significant digits, so identical runs produce
byte-identical artifacts.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .algebra import AlgebraSpec, InputError
from .paths import Grid, NahmData, _node_slices

__all__ = [
    "to_pairs",
    "from_pairs",
    "matrix_from_json",
    "nahm_to_json",
    "nahm_from_json",
    "write_csv",
    "residual_to_csv",
    "coeffs_to_csv",
    "write_json",
    "Table",
]


def to_pairs(z) -> np.ndarray:
    """Complex values with a trailing [re, im] axis: how every artifact stores
    a complex number (nested lists of pairs in JSON, column pairs in CSV)."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1)


def from_pairs(data) -> np.ndarray:
    """Complex array from (nested lists of) [re, im] pairs, the JSON form of
    ``to_pairs``, bit for bit (reinterpreted, not recombined); else InputError.
    A list's entries must be JSON numbers: no bool, string or null, and no
    integer past the largest float; NaN and Infinity read as ``write_json`` writes them."""
    try:
        pairs = np.ascontiguousarray(data, dtype=float)
        entries = data if isinstance(data, list) else []  # an array's entries are numbers already
        for _ in range(pairs.ndim - 1):
            entries = chain.from_iterable(entries)
        if kinds := set(map(type, entries)) - {int, float}:
            raise TypeError(f"an entry must be float, got {', '.join(sorted(kind.__name__ for kind in kinds))}")
    except (TypeError, ValueError, OverflowError) as exc:  # numpy's OverflowError is an integer past the largest float
        why = "an entry must be finite, got an integer past the largest float" if isinstance(exc, OverflowError) else exc
        raise InputError(f"expected [re, im] pairs of numbers: {why}") from None
    if pairs.shape[-1:] != (2,):
        raise InputError(f"expected [re, im] pairs, got shape {pairs.shape}")
    return pairs.view(complex)[..., 0]


def matrix_from_json(data, k: int, *lead: int) -> np.ndarray:
    """The lead + (k, k) stack of k x k matrices, each a flat row-major list of
    [re, im] pairs: one matrix with no ``lead``, a path's nodes with (n + 1,)."""
    z = from_pairs(data)
    if z.shape != (*lead, k * k):
        raise InputError(f"expected [re, im] pairs of shape {(*lead, k * k, 2)}, got shape {z.shape + (2,)}")
    return z.reshape(*lead, k, k)


def nahm_to_json(d: NahmData) -> dict:
    """Each component as one flat row-major matrix per node, a float array of [re, im] pairs."""
    nodes = dict(zip(("T0", "T1", "T2", "T3"), to_pairs(d.values.reshape(4, d.grid.n + 1, -1))))
    grid = {"s0": float(d.grid.s0), "s1": float(d.grid.s1), "n": int(d.grid.n)}
    return {"algebra": {"family": "su", "dim": d.dim}, "grid": grid, **nodes}


def _typed(val, typ, what: str):
    """val checked against typ, as every JSON value is read: an int is taken as
    a float, a bool is never taken as a number, and a float must be finite."""
    if typ is float and isinstance(val, int) and not isinstance(val, bool):
        # an integer past the largest float is read as the infinity of its sign, which is refused below
        val = float(val) if abs(val) <= sys.float_info.max else np.inf if val > 0 else -np.inf
    if not isinstance(val, typ) or (isinstance(val, bool) and typ in (int, float)):
        raise InputError(f"{what} must be {typ.__name__}, got {type(val).__name__}")
    if typ is float and not np.isfinite(val):
        raise InputError(f"{what} must be finite, got {val}")
    return val


def nahm_from_json(data: dict) -> NahmData:
    """The NahmData of a ``nahm_to_json`` record; InputError for a missing key or a mistyped value."""
    try:
        alg, box = (_typed(data[key], dict, f"the record's {key}") for key in ("algebra", "grid"))
        family, dim, nodes = alg["family"], alg["dim"], [data[f"T{i}"] for i in range(4)]
        s0, s1, n = box["s0"], box["s1"], box["n"]
    except KeyError as exc:
        raise InputError(f"a Nahm record needs the key {exc}") from None
    spec = AlgebraSpec(family, _typed(dim, int, "the record's algebra.dim"))
    grid = Grid(_typed(s0, float, "the record's grid.s0"), _typed(s1, float, "the record's grid.s1"),
                _typed(n, int, "the record's grid.n"))
    for i, node in enumerate(nodes):
        try:
            nodes[i] = matrix_from_json(node, spec.dim, grid.n + 1)
        except InputError as exc:
            raise InputError(f"the record's T{i}: {exc}") from None
    return NahmData.from_arrays(spec, grid, *nodes)


def write_csv(grid: Grid, names: list, table: np.ndarray, path) -> None:
    """One row per grid node: s, then the node's row of ``table`` (shape
    (n+1, len(names))).  A complex table gives each name an ``_re`` and an
    ``_im`` column.  The rows are formatted and written a node block at a
    time, so the file's text is never held whole."""
    table = np.asarray(table)
    if np.iscomplexobj(table):
        names = [f"{name}_{part}" for name in names for part in ("re", "im")]
        table = to_pairs(table).reshape(len(table), -1)
    s, row = grid.nodes, ",".join(["%.17g"] * (1 + len(names))) + "\r\n"
    with Path(path).open("w", newline="") as out:
        out.write(",".join(["s"] + names) + "\r\n")
        for nodes in _node_slices(table):
            block = np.column_stack([s[nodes], table[nodes]])
            out.write((row * len(block)) % tuple(block.ravel().tolist()))


def residual_to_csv(grid: Grid, norms: np.ndarray, path) -> None:
    """Columns s, |mu1|, |mu2|, |mu3| node-wise."""
    write_csv(grid, ["mu1", "mu2", "mu3"], np.asarray(norms).T, path)


def coeffs_to_csv(grid: Grid, flows: list, path) -> None:
    """Columns s, then the re/im parts of each curve coefficient a_j,m along
    the flow; ``flows`` is the list of (2j+1, n+1) arrays of ``spectral_flow``."""
    names = [f"a{j}_{m}" for j, f in enumerate(flows, start=1) for m in range(f.shape[0])]
    write_csv(grid, names, np.concatenate(flows).T, path)


def _template(shape: tuple, depth: int) -> str:
    """The layout of an array of slot values of ``shape`` at nesting ``depth``:
    one join per axis lays out ``%s`` slots, and an empty axis is ``[]``."""
    text = "%s"
    for axis in range(len(shape) - 1, -1, -1):
        inner = "\n" + "  " * (depth + axis + 1)
        text = "[" + inner + ("," + inner).join([text] * shape[axis]) + "\n" + "  " * (depth + axis) + "]" \
            if shape[axis] else "[]"
    return text


def _blocks(rows, values: np.ndarray, depth: int, write, keep=None) -> None:
    """The list of ``values``' rows at nesting ``depth``, each laid out by
    ``rows`` (one template for all, or an array of one per row) and filled
    with its entries (those of ``keep`` when given) a node block at a time,
    each block by one C-level ``%``."""
    if not len(values):
        return write("[]")
    inner = "\n" + "  " * (depth + 1)
    sep, lead = "," + inner, "[" + inner
    for nodes in _node_slices(values):
        block = values[nodes]
        layout = sep.join([rows] * len(block) if isinstance(rows, str) else rows[nodes])
        write(lead + layout % tuple((block if keep is None else block[keep[nodes]]).ravel().tolist()))
        lead = sep
    write("\n" + "  " * depth + "]")


def _fill(a: np.ndarray) -> np.ndarray:
    """The slot values of an array's entries: a complex entry as its [re, im]
    pair, a finite float as itself (its ``str`` is its ``repr``), and any other
    entry (NaN, Infinity, an int, a bool, a label) as ``_scalar``'s text."""
    a = to_pairs(a) if a.dtype.kind == "c" else a
    return a if a.dtype == float and np.isfinite(a).all() else np.frompyfunc(_scalar, 1, 1)(a)


@dataclass(frozen=True)
class Table:
    """Records given as columns, which ``write_json`` writes as the list of
    their row objects without building them.  ``columns`` maps each key (one
    at least) to an array over the rows, of any dtype ``write_json`` writes
    and any trailing shape (a row's entry is its nested list, a complex number
    as [re, im]); ``null`` maps a key to the boolean rows whose entry is null."""

    columns: dict
    null: dict = field(default_factory=dict)


def _table(table: Table, depth: int, write) -> None:
    """A table's rows at nesting ``depth``: a row template for each pattern of
    nulls, laid out once, filled a block of rows at a time."""
    keys = sorted(table.columns)
    cols = [_fill(table.columns[key]) for key in keys]
    n = len(cols[0])
    flats = [col.reshape(n, col[:1].size) for col in cols]
    null = [table.null.get(key, np.zeros(n, bool)) for key in keys]
    keep = np.concatenate([np.repeat(~no[:, None], flat.shape[1], axis=1) for no, flat in zip(null, flats)], axis=1)
    inner = "\n" + "  " * (depth + 2)
    pattern = [tuple(row) for row in np.stack(null, axis=1).tolist()]
    templates = {nulls: "{" + inner + ("," + inner).join(
        encode_basestring_ascii(key).replace("%", "%%") + ": " + ("null" if no else _template(col.shape[1:], depth + 2))
        for key, col, no in zip(keys, cols, nulls)) + "\n" + "  " * (depth + 1) + "}" for nulls in set(pattern)}
    _blocks(np.array([templates[nulls] for nulls in pattern], dtype=object), np.concatenate(flats, axis=1), depth,
            write, keep)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(obj) -> str:
    """A JSON scalar's text, as ``json.dumps`` writes it."""
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write(obj, depth: int, write) -> None:
    """``json.dumps(obj, indent=2, sort_keys=True)`` at nesting ``depth``, passed
    to ``write`` piece by piece; a complex as [re, im], an array or a Table a
    node block at a time; keys must be str."""
    if isinstance(obj, np.generic) or isinstance(obj, np.ndarray) and not obj.ndim:
        obj = obj.item()
    if isinstance(obj, complex):
        obj = [obj.real, obj.imag]
    elif isinstance(obj, Table):
        return _table(obj, depth, write)
    elif isinstance(obj, np.ndarray):
        obj = _fill(obj)
        return _blocks(_template(obj.shape[1:], depth + 1), obj, depth, write)
    if isinstance(obj, dict):
        keys, brackets = sorted(obj), "{}"
        items = [(encode_basestring_ascii(key) + ": ", obj[key]) for key in keys]
    elif isinstance(obj, (list, tuple)):
        items, brackets = [("", v) for v in obj], "[]"
    else:
        return write(_scalar(obj))
    if not items:
        return write(brackets)
    inner = "\n" + "  " * (depth + 1)
    lead = brackets[0] + inner
    for prefix, value in items:
        write(lead + prefix)
        _write(value, depth + 1, write)
        lead = "," + inner
    write("\n" + "  " * depth + brackets[1])


def write_json(data, path) -> None:
    """``data`` as ``json.dumps(data, indent=2, sort_keys=True)`` plus a newline,
    complex values as [re, im] pairs and a ``Table`` as its list of rows.  The
    text is written as it is made, an array or a table a block of rows at a
    time, so a finite float array's text is never held whole.  A value that is
    not JSON (a set, a non-str key, an array entry that is no JSON scalar)
    raises TypeError partway and leaves at ``path`` the text written before it."""
    with Path(path).open("w") as out:
        _write(data, 0, out.write)
        out.write("\n")
