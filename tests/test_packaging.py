"""Packaging metadata: every console script names an importable callable,
no module of the package imports a name it never uses or defines a private
helper nothing calls, every handler of a foreign exception re-raises it as
a package error, no raise names a built-in exception, and every name the
benchmark looks up in the package exists."""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

from bwsl import errors

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
BENCHMARKS = ROOT / "benchmarks"


def test_console_scripts_resolve():
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attr_path = target.partition(":")
        obj = importlib.import_module(module_name)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"console script {name}: {target} is not callable"


def test_src_has_no_unused_imports():
    unused = []
    for path in sorted((ROOT / "src" / "bwsl").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, f"unused imports: {unused}"


def test_src_has_no_unreferenced_private_definitions():
    # a private function, class or constant, or a private method, that no
    # code in the package reads is a helper left behind by a refactor
    defined, referenced = {}, set()
    for path in sorted((ROOT / "src" / "bwsl").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
        for node in (n for body in scopes for n in body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = [f"{where} {name}" for name, where in defined.items() if name not in referenced]
    assert not unreferenced, f"private definitions nothing references: {unreferenced}"


def test_foreign_errors_are_reraised_as_bwsl_errors():
    # malformed input raises a BwslError, never a bare NumPy or builtin
    # error: a handler that catches any other exception must end in
    # ``raise <BwslError subclass>(...) from None``
    own = {name for name, obj in vars(errors).items()
           if isinstance(obj, type) and issubclass(obj, errors.BwslError)}
    checked, wrong = 0, []
    for path in sorted((ROOT / "src" / "bwsl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if all(getattr(c, "id", None) in own for c in caught):
                continue
            checked += 1
            last = node.body[-1]
            if not (isinstance(last, ast.Raise) and isinstance(last.exc, ast.Call)
                    and getattr(last.exc.func, "id", None) in own
                    and isinstance(last.cause, ast.Constant) and last.cause.value is None):
                wrong.append(f"{path.name}:{node.lineno}")
    assert checked > 0
    assert not wrong, f"handlers that do not re-raise a BwslError from None: {wrong}"


def test_src_raises_no_builtin_exception():
    # a caller catches BwslError for every malformed input: a raise that
    # names TypeError, ValueError or another built-in class escapes that
    raised, wrong = 0, []
    for path in sorted((ROOT / "src" / "bwsl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            raised += 1
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", None) or getattr(exc, "attr", "")
            cls = getattr(builtins, name, None)
            if isinstance(cls, type) and issubclass(cls, BaseException):
                wrong.append(f"{path.name}:{node.lineno} {name}")
    assert raised > 0
    assert not wrong, f"raises of built-in exceptions: {wrong}"


def _assigned(tree: ast.AST, name: str):
    """The literal value of the first assignment to ``name`` in ``tree``."""
    return next(
        ast.literal_eval(n.value) for n in ast.walk(tree)
        if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == [name]
    )


def _benchmark_names() -> list[tuple[str, str]]:
    """(module, attribute path) of every name the benchmark harness wraps
    (``spans.WRAPPED``) or probes (``layers.probe_layers``), read from the
    source without importing the harness."""
    spans = ast.parse((BENCHMARKS / "spans.py").read_text(encoding="utf-8"))
    layers = ast.parse((BENCHMARKS / "layers.py").read_text(encoding="utf-8"))
    probe = next(
        n for n in ast.walk(layers) if isinstance(n, ast.FunctionDef) and n.name == "probe_layers"
    )
    owner = next(  # the module probe_layers looks its names up in
        n.args[0].id for n in ast.walk(probe)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "getattr"
    )
    return [(module, path) for _, module, path in _assigned(spans, "WRAPPED")] + [
        (f"bwsl.{owner}", name) for name in _assigned(probe, "names")
    ]


def test_names_the_benchmark_looks_up_exist():
    # the harness reports a vanished name as missing and carries on, so a
    # rename in the package would silently drop that name's metrics
    names = _benchmark_names()
    assert len(names) > 4
    missing = []
    for module_name, path in names:
        obj = importlib.import_module(module_name)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(f"{module_name}:{path}")
    assert not missing, f"names the benchmark looks up are gone: {missing}"
