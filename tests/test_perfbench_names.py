"""The nahmlab names the benchmark harness reads resolve: each function that
``perfbench/tracing.py`` wraps by name (``TRACED``), and each attribute that a
``perfbench/*.py`` file reads through a name it binds from nahmlab (``import
nahmlab``, ``from nahmlab import solver``, ``from nahmlab import io as nio``).
The harness is read as source, never imported or run, so a deletion that would
break a benchmark run fails here first."""

import ast
import importlib
from pathlib import Path

import nahmlab

PERFBENCH = Path(nahmlab.__file__).parents[2] / "perfbench"


def resolves(dotted: str) -> bool:
    """Whether the dotted path names an object: each part an attribute of the
    one before it, or a submodule that imports."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


def nahmlab_bindings(tree: ast.Module) -> dict:
    """The names a file binds to nahmlab or to something in it, each with the
    dotted path it stands for."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "nahmlab":
                    bound[alias.asname or "nahmlab"] = alias.name if alias.asname else "nahmlab"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "nahmlab":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def test_every_traced_name_resolves():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    (traced,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]]
    names = [f"nahmlab.{module}.{name}" for module, names in traced.items() for name in names]
    assert "nahmlab.solver.halfline_solve" in names
    assert [name for name in names if not resolves(name)] == []


def test_every_attribute_read_through_a_nahmlab_name_resolves():
    # the bindings are read per file: report.py binds none, so its local dict
    # called ``paths`` is not taken for the nahmlab module of that name
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = nahmlab_bindings(tree)
        reads |= {f"{bound[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound}
    assert {"nahmlab.solver.halfline_solve", "nahmlab.io.nahm_from_json"} <= reads
    assert sorted(name for name in reads if not resolves(name)) == []
