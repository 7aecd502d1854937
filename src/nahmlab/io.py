"""JSON / CSV serialization.

Matrices serialize as flat row-major JSON arrays of [re, im] pairs.  CSV
files have one row per grid node, a complex value takes an _re and an _im
column, and floats are printed with 17 significant digits so identical runs
produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .algebra import AlgebraSpec
from .gauge import GroupPath
from .paths import Grid, NahmData

__all__ = [
    "to_pairs",
    "from_pairs",
    "matrix_to_json",
    "matrix_from_json",
    "nahm_to_json",
    "nahm_from_json",
    "group_path_to_json",
    "group_path_from_json",
    "write_csv",
    "nahm_to_csv",
    "residual_to_csv",
    "coeffs_to_csv",
    "write_json",
    "fmt",
]


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def to_pairs(z) -> np.ndarray:
    """Complex values with a trailing [re, im] axis: how every artifact stores
    a complex number (``.tolist()`` of it in JSON, column pairs in CSV)."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1)


def from_pairs(data) -> np.ndarray:
    """Complex array from a flat list of [re, im] pairs, the JSON form of ``to_pairs``."""
    return np.array([complex(re, im) for re, im in data])


def matrix_to_json(M: np.ndarray) -> list:
    return to_pairs(np.ravel(M)).tolist()


def matrix_from_json(data: list, k: int) -> np.ndarray:
    flat = from_pairs(data)
    if flat.size != k * k:
        raise ValueError(f"expected {k * k} entries, got {flat.size}")
    return flat.reshape(k, k)


def _grid_to_json(grid: Grid) -> dict:
    return {"s0": float(grid.s0), "s1": float(grid.s1), "n": int(grid.n)}


def _grid_from_json(data: dict) -> Grid:
    return Grid(float(data["s0"]), float(data["s1"]), int(data["n"]))


def _nodes_to_json(values: np.ndarray) -> list:
    """One flat row-major matrix per node."""
    return to_pairs(values.reshape(len(values), -1)).tolist()


def nahm_to_json(d: NahmData) -> dict:
    out = {
        "algebra": {"family": d.algebra.family, "dim": d.algebra.dim},
        "grid": _grid_to_json(d.grid),
    }
    for name, comp in zip(("T0", "T1", "T2", "T3"), d.components):
        out[name] = _nodes_to_json(comp.values)
    return out


def nahm_from_json(data: dict) -> NahmData:
    spec = AlgebraSpec(data["algebra"]["family"], int(data["algebra"]["dim"]))
    grid = _grid_from_json(data["grid"])
    comps = []
    for name in ("T0", "T1", "T2", "T3"):
        comps.append(np.stack([matrix_from_json(m, spec.dim) for m in data[name]]))
    return NahmData.from_arrays(spec, grid, *comps)


def group_path_to_json(g: GroupPath) -> dict:
    return {"grid": _grid_to_json(g.grid), "flavor": g.flavor, "values": _nodes_to_json(g.values)}


def group_path_from_json(data: dict) -> GroupPath:
    grid = _grid_from_json(data["grid"])
    vals = np.stack([matrix_from_json(m, int(np.sqrt(len(data["values"][0])))) for m in data["values"]])
    return GroupPath(grid, vals, data["flavor"])


def write_csv(grid: Grid, names: list, table: np.ndarray, path) -> None:
    """One row per grid node: s, then the node's row of ``table`` (shape
    (n+1, len(names))).  A complex table gives each name an ``_re`` and an
    ``_im`` column."""
    table = np.asarray(table)
    if np.iscomplexobj(table):
        names = [f"{name}_{part}" for name in names for part in ("re", "im")]
        table = to_pairs(table).reshape(len(table), -1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s"] + names)
        for s, row in zip(grid.nodes.tolist(), table.tolist()):
            writer.writerow([fmt(s)] + [fmt(x) for x in row])


def nahm_to_csv(d: NahmData, path) -> None:
    """Columns s, then the re/im parts of each component's row-major entries."""
    k = d.algebra.dim
    names = [f"{name}_{a}{b}" for name in ("T0", "T1", "T2", "T3") for a in range(k) for b in range(k)]
    write_csv(d.grid, names, np.moveaxis(d.stack(), 0, 1).reshape(d.grid.n + 1, -1), path)


def residual_to_csv(grid: Grid, norms: np.ndarray, path) -> None:
    """Columns s, |mu1|, |mu2|, |mu3| node-wise."""
    write_csv(grid, ["mu1", "mu2", "mu3"], np.asarray(norms).T, path)


def coeffs_to_csv(grid: Grid, flows: list, path) -> None:
    """Columns s, then the re/im parts of each curve coefficient a_j,m along
    the flow; ``flows`` is the list of (2j+1, n+1) arrays of ``spectral_flow``."""
    names = [f"a{j}_{m}" for j, f in enumerate(flows, start=1) for m in range(f.shape[0])]
    write_csv(grid, names, np.concatenate(flows).T, path)


def _pyify(obj):
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _pyify(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(data: dict, path) -> None:
    Path(path).write_text(json.dumps(_pyify(data), indent=2, sort_keys=True) + "\n")
