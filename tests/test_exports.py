"""The public surface: each library module's ``__all__`` names only what it
defines or re-exports, the package namespace imports only public names,
every public name is used by the package, the benchmark harness or the
acceptance suite, and only the command-line front end renders artifacts."""

import ast
import importlib
import inspect
import pkgutil
from functools import cached_property
from pathlib import Path
from types import FunctionType

import pytest

import nahmlab

# every module but the command-line entry point declares its public names
LIBRARY = sorted(m.name for m in pkgutil.iter_modules(nahmlab.__path__) if m.name != "cli")


@pytest.mark.parametrize("name", LIBRARY)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"nahmlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_names_in_all():
    tree = ast.parse(Path(nahmlab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    stale = []
    for node in imports:
        public = importlib.import_module(f"nahmlab.{node.module}").__all__
        stale += [f"{node.module}.{alias.name}" for alias in node.names if alias.name not in public]
    assert stale == []


def reached() -> tuple:
    """The names and the attribute names read in the package itself (outside
    ``__init__``), the benchmark harness and the acceptance suite."""
    root = Path(nahmlab.__file__).parents[2]
    sources = [p for p in Path(nahmlab.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((root / "perfbench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    names, attrs = set(), set()
    for path in sources:
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names |= {n.id for n in nodes if isinstance(n, ast.Name)}
        attrs |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    return names, attrs


def test_every_public_name_is_reached_outside_its_unit_tests():
    # a public name earns its place by a use in the package itself, in the
    # benchmark harness or in the acceptance suite: read, not imported
    names, attrs = reached()
    public = {n for name in LIBRARY for n in importlib.import_module(f"nahmlab.{name}").__all__}
    unreached = sorted(public - names - attrs)
    assert unreached == [], f"public names reached only by their unit tests: {unreached}"


def test_every_public_member_of_a_public_class_is_reached_outside_its_unit_tests():
    # the same rule for the methods, properties and component views of each
    # public class: every one is read as an attribute in those places
    _, attrs = reached()
    modules = [importlib.import_module(f"nahmlab.{name}") for name in LIBRARY]
    classes = {obj for m in modules for obj in (getattr(m, n) for n in m.__all__) if inspect.isclass(obj)}
    kinds = (property, cached_property, classmethod, staticmethod, FunctionType)
    unreached = sorted(f"{cls.__name__}.{member}" for cls in classes for member, value in vars(cls).items()
                       if not member.startswith("_") and isinstance(value, kinds) and member not in attrs)
    assert unreached == [], f"public class members reached only by their unit tests: {unreached}"


def imports_io(tree: ast.Module) -> bool:
    """Whether a module of the package imports ``nahmlab.io``, in any spelling."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 and node.module is None or node.level == 0 and node.module == "nahmlab"
            if node.level == 1 and node.module == "io" or node.module == "nahmlab.io":
                return True
            if package and any(alias.name == "io" for alias in node.names):
                return True
        if isinstance(node, ast.Import) and any(alias.name == "nahmlab.io" for alias in node.names):
            return True
    return False


def test_only_the_cli_imports_io():
    # serialization is the front end's: a library module hands out its values
    # and the CLI renders them with ``io``'s helpers (read, not imported)
    sources = sorted(Path(nahmlab.__file__).parent.glob("*.py"))
    importers = [p.stem for p in sources if imports_io(ast.parse(p.read_text()))]
    assert importers == ["cli"]


def test_the_cli_overflow_policy_has_one_home_in_main():
    # one np.errstate in cli.py, main's own, around every command: an
    # overflow reaches a verdict as inf or NaN, so no command needs its own
    tree = ast.parse((Path(nahmlab.__file__).parent / "cli.py").read_text())
    errstates = {id(n) for n in ast.walk(tree) if isinstance(n, ast.Call) and ast.unparse(n.func) == "np.errstate"}
    (main,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    assert len(errstates) == 1
    assert errstates <= {id(n) for n in ast.walk(main)}


def test_only_the_edges_build_an_algebra_spec():
    # a function that receives matrices reads k from them: a spec is built
    # only where k comes from outside the arrays, at the input edges (the
    # CLI's config, a JSON record), for the su(2) the check suite hands to the
    # matrix makers, and by NahmData.algebra for its callers
    sources = sorted(Path(nahmlab.__file__).parent.glob("*.py"))
    builders = {p.stem for p in sources for n in ast.walk(ast.parse(p.read_text()))
                if isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1] == "AlgebraSpec"}
    assert builders <= {"cli", "io", "checks", "paths"}, sorted(builders)


def test_only_io_writes_the_pair_encoding():
    # io knows how a complex number is written to JSON; the CLI hands its
    # records to write_json as the library returns them
    sources = sorted(Path(nahmlab.__file__).parent.glob("*.py"))
    users = {p.stem for p in sources for n in ast.walk(ast.parse(p.read_text()))
             if isinstance(n, ast.Name) and n.id == "to_pairs" or isinstance(n, ast.Attribute) and n.attr == "to_pairs"
             or isinstance(n, ast.alias) and n.name == "to_pairs"}
    assert users == {"io"}, sorted(users)


def test_no_handler_catches_everything():
    # a bug inside a decoder or a command must not pass as a config error
    sources = sorted(Path(nahmlab.__file__).parent.glob("*.py"))
    broad = [f"{p.name}:{n.lineno}" for p in sources for n in ast.walk(ast.parse(p.read_text()))
             if isinstance(n, ast.ExceptHandler) and (n.type is None or any(
                 ast.unparse(t).split(".")[-1] in ("Exception", "BaseException")
                 for t in (n.type.elts if isinstance(n.type, ast.Tuple) else [n.type])))]
    assert broad == []
