"""JSON / CSV serialization.

A complex number is written as its [re, im] pair and a matrix as a flat
row-major JSON array of pairs, in the stdlib's ``json.dumps(obj, indent=2,
sort_keys=True)`` layout; a float array is written whole.  CSV files have one
row per grid node, a complex value takes an _re and an _im column, and floats
have 17 significant digits, so identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

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
]


def to_pairs(z) -> np.ndarray:
    """Complex values with a trailing [re, im] axis: how every artifact stores
    a complex number (nested lists of pairs in JSON, column pairs in CSV)."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1)


def from_pairs(data) -> np.ndarray:
    """Complex array from (nested lists of) [re, im] pairs, the JSON form of
    ``to_pairs``, bit for bit (reinterpreted, not recombined); else InputError."""
    try:
        pairs = np.ascontiguousarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"expected [re, im] pairs of numbers: {exc}") from None
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


def nahm_from_json(data: dict) -> NahmData:
    spec = AlgebraSpec(data["algebra"]["family"], int(data["algebra"]["dim"]))
    grid = Grid(float(data["grid"]["s0"]), float(data["grid"]["s1"]), int(data["grid"]["n"]))
    comps = [matrix_from_json(data[name], spec.dim, grid.n + 1) for name in ("T0", "T1", "T2", "T3")]
    return NahmData.from_arrays(spec, grid, *comps)


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


def _float_array(a: np.ndarray, depth: int) -> str:
    """A finite float array at nesting ``depth``: one join per axis lays out
    ``%r`` slots, and one C-level ``%`` fills them all."""
    text = "%r"
    for axis in range(a.ndim - 1, -1, -1):
        inner = "\n" + "  " * (depth + axis + 1)
        text = "[" + inner + ("," + inner).join([text] * a.shape[axis]) + "\n" + "  " * (depth + axis) + "]"
    return text % tuple(a.ravel().tolist())


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(obj, depth: int) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` at nesting ``depth``, a complex as [re, im]; keys must be str."""
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, complex):
        return _encode([obj.real, obj.imag], depth)
    if isinstance(obj, np.generic) and not isinstance(item := obj.item(), np.generic):
        return _encode(item, depth)
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return _encode(to_pairs(obj), depth)
        if obj.dtype == np.float64 and obj.ndim and obj.size and np.isfinite(obj).all():
            return _float_array(obj, depth)
        return _encode(obj.tolist(), depth)
    if isinstance(obj, dict):
        items = [encode_basestring_ascii(key) + ": " + _encode(obj[key], depth + 1) for key in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_encode(v, depth + 1) for v in obj]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def write_json(data: dict, path) -> None:
    """``data`` as ``json.dumps(data, indent=2, sort_keys=True)`` plus a newline, complex values as [re, im] pairs."""
    Path(path).write_text(_encode(data, 0) + "\n")
