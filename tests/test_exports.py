"""Every name the package exports has a caller outside the tests.

A use is a load of the name or of an attribute of that name, or a string
constant equal to it (the benchmark's tracer looks functions up by name), in
the package's own modules, the demos or the benchmark.  Imports and the
definition itself do not count, so code that only tests call fails here.

No public function decides a precision of its own: the scale table
``reconstruct.SCALES`` is where precision defaults live.  The package's knobs
are counted, so that adding one edits the bound below in the same diff.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import radialborn

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "radialborn"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def used_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += list((ROOT / "demos").glob("*.py")) + list((ROOT / "bench").glob("*.py"))
    used = set().union(*(used_names(p) for p in sources))
    assert [n for n in exported_names() if n not in used] == []


def test_every_public_function_requires_its_precision():
    taking = {}
    for info in pkgutil.iter_modules(radialborn.__path__):
        module = importlib.import_module(f"radialborn.{info.name}")
        for name, fn in vars(module).items():
            if (name.startswith("_") or inspect.isclass(fn) or not callable(fn)
                    or getattr(fn, "__module__", None) != module.__name__):
                continue
            prec = inspect.signature(fn).parameters.get("prec")
            if prec is not None:
                taking[f"{info.name}.{name}"] = prec.default
    assert "born.series_coefficients" in taking and "fourier.forward_radial_ft" in taking
    assert {n: d for n, d in taking.items() if d is not inspect.Parameter.empty} == {}


KNOB_BOUND = 29


def _is_dataclass(cls):
    for deco in cls.decorator_list:
        fn = deco.func if isinstance(deco, ast.Call) else deco
        if (fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)) == "dataclass":
            return True
    return False


def knob_count(paths):
    """Parameters with a default plus dataclass fields with a default."""
    n = 0
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                n += len(node.args.defaults)
                n += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                n += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return n


def test_knob_count_does_not_grow(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from dataclasses import dataclass\n\n"
                     "@dataclass(frozen=True)\nclass A:\n    y: int\n    x: int = 1\n\n"
                     "def f(a, b=1, *, c=2, d):\n    return lambda e=3: e\n")
    assert knob_count([probe]) == 4
    assert knob_count(sorted(PACKAGE.glob("*.py"))) <= KNOB_BOUND
