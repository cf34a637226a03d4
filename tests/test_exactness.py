"""Static guard for the engine's exactness rule.

The arithmetic and claim modules never touch floating point and never
swallow an InexactDivisionError: no float literal, no true division, no
float() call, and no bare or broad except clause.  The CLI is exempt; it
prints elapsed seconds and turns errors into exit codes.

They also make no id() call.  Seed sweeps stream their classes and free
each one once it is expanded, so a new object can take a dead one's id;
a cache keyed on id() would then hand out another object's facts.

Nor do they pass state between calls by a side channel: no ContextVar
and no global statement.  A sweep hands its exchange memo and intern table
to each step as arguments.

Every import sits at module level.  The module graph runs one way: pattern
and polygon each import only poly, so the mutation route and the path route
to a cluster variable share nothing but the Laurent ring; verify imports
all three and the CLI all four.  An import inside a function is how a cycle
against that order would hide.  Importing the package and its CLI loads no
dataclasses module, which would bring inspect, ast and dis to every start;
the one check here that starts an interpreter holds that.

Every module-level import in the package (bar the re-exporting __init__.py)
and in the tests is used, as a name or as the root of an attribute chain.

Only pattern.py reads or writes a seed's labels.  Labels are ints from one
sweep's intern table and mean nothing outside it; code elsewhere that kept
or compared them would carry one sweep's names into another.

No module of the package, the CLI included, imports an underscore-prefixed
name from another: a helper private to one module is not another's to
call, so what a module needs from its neighbour is public there.  The
CLI's only exemptions are the float and except rules.  The tests' reference
routes in oracles.py import no such name either.

No module of the package, the CLI included, reads the environment: a run is
fixed by its arguments, so no report depends on a variable its caller did
not pass.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cluster_logcc"
MODULES = ["poly.py", "pattern.py", "polygon.py", "verify.py"]
BROAD = {"BaseException", "Exception", "ArithmeticError", "InexactDivisionError"}


def _caught_names(handler: ast.ExceptHandler):
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for t in caught:
        if isinstance(t, ast.Name):
            yield t.id
        elif isinstance(t, ast.Attribute):
            yield t.attr


def _breaches(tree: ast.AST):
    local_imports = {
        inner
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "id")
        ):
            yield node.lineno, f"{node.func.id}() call"
        elif isinstance(node, ast.Global):
            yield node.lineno, "global statement"
        elif node in local_imports:
            yield node.lineno, "import inside a function"
        elif (isinstance(node, ast.Name) and node.id == "ContextVar") or (
            isinstance(node, ast.Attribute) and node.attr == "ContextVar"
        ):
            yield node.lineno, "ContextVar"
        elif isinstance(node, ast.ExceptHandler):
            if node.type is None:
                yield node.lineno, "bare except"
            for name in _caught_names(node):
                if name in BROAD:
                    yield node.lineno, f"except {name}"


@pytest.mark.parametrize("module", MODULES)
def test_module_stays_exact(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert list(_breaches(tree)) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = a / b",
        "x /= 2",
        "x = float(y)",
        "cache[id(x)] = y",
        "try:\n    f()\nexcept:\n    pass",
        "try:\n    f()\nexcept (ValueError, Exception):\n    pass",
        "try:\n    f()\nexcept poly.InexactDivisionError:\n    pass",
        "memo = ContextVar('memo', default=None)",
        "memo = cv.ContextVar('memo')",
        "def f():\n    global memo\n    memo = {}",
        "def f():\n    def g():\n        from .polygon import flip",
    ],
)
def test_guard_sees_each_breach(source):
    assert len(list(_breaches(ast.parse(source)))) == 1


def _package_imports(tree: ast.AST):
    """The modules a module's relative imports name; `from . import x` gives None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield node.module


@pytest.mark.parametrize(
    "module,imports",
    [
        ("poly.py", set()),
        ("pattern.py", {"poly"}),
        ("polygon.py", {"poly"}),
        ("verify.py", {"poly", "pattern", "polygon"}),
        ("cli.py", {"poly", "pattern", "polygon", "verify"}),
    ],
)
def test_module_graph(module, imports):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert set(_package_imports(tree)) == imports


def test_import_loads_no_dataclasses():
    # the record types are NamedTuples and plain classes; dataclasses would
    # cost every start its own import and an exec per decorated class
    probe = "import sys, cluster_logcc, cluster_logcc.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _unused_imports(tree: ast.Module):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    yield node.lineno, bound


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(TESTS.glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_every_import_is_used(path):
    assert list(_unused_imports(ast.parse(path.read_text(encoding="utf-8")))) == []


@pytest.mark.parametrize(
    "source,unused",
    [
        ("import os", ["os"]),
        ("import os.path\nos.sep", []),
        ("from a import b as c\nb()", ["c"]),
        ("from a import b, c\nx = b.d", ["c"]),
        ("from __future__ import annotations", []),
        ("from a import T\ndef f(x: T): pass", []),
    ],
)
def test_import_guard_sees_unused_names(source, unused):
    assert [name for _, name in _unused_imports(ast.parse(source))] == unused


def _label_uses(tree: ast.AST):
    """Lines naming a seed's labels: the attribute, a keyword or a string."""
    for node in ast.walk(tree):
        if (
            (isinstance(node, ast.Attribute) and node.attr == "labels")
            or (isinstance(node, ast.keyword) and node.arg == "labels")
            or (isinstance(node, ast.Constant) and node.value == "labels")
        ):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_pattern_touches_seed_labels(path):
    uses = list(_label_uses(ast.parse(path.read_text(encoding="utf-8"))))
    assert bool(uses) == (path.name == "pattern.py"), uses


@pytest.mark.parametrize(
    "source",
    [
        "x = seed.labels",
        "seed.labels[0]",
        "s = replace(seed, labels=None)",
        "getattr(seed, 'labels')",
    ],
)
def test_label_guard_sees_each_use(source):
    assert len(list(_label_uses(ast.parse(source)))) == 1


def _private_imports(tree: ast.AST):
    """Underscore-prefixed names imported from a module of the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "cluster_logcc"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, alias.name


@pytest.mark.parametrize("module", MODULES + ["cli.py"])
def test_engine_imports_no_private_name(module):
    assert list(_private_imports(ast.parse((SRC / module).read_text(encoding="utf-8")))) == []


def test_reference_routes_import_no_private_name():
    # a reference that imported a package helper would share code with the
    # route it checks
    oracles = (TESTS / "oracles.py").read_text(encoding="utf-8")
    assert list(_private_imports(ast.parse(oracles))) == []


@pytest.mark.parametrize(
    "source,private",
    [
        ("from .pattern import _labelled", ["_labelled"]),
        ("from .pattern import Seed, _labelled as lab", ["_labelled"]),
        ("from . import _tables", ["_tables"]),
        ("from cluster_logcc.polygon import _path_sum", ["_path_sum"]),
        ("from .pattern import principal_states", []),
        ("from __future__ import annotations", []),
        ("from collections import _chain", []),
    ],
)
def test_private_import_guard_sees_each_breach(source, private):
    assert [name for _, name in _private_imports(ast.parse(source))] == private


def _environment_reads(tree: ast.AST):
    """Lines reading os.environ or os.getenv, by attribute or by import."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in ("environ", "getenv") for alias in node.names)
        ):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    assert list(_environment_reads(ast.parse(path.read_text(encoding="utf-8")))) == []


@pytest.mark.parametrize(
    "source",
    [
        "raw = os.environ.get('X')",
        "raw = os.environ['X']",
        "raw = os.getenv('X')",
        "from os import environ",
        "from os import getenv as g",
    ],
)
def test_environment_guard_sees_each_read(source):
    assert len(list(_environment_reads(ast.parse(source)))) == 1
