"""Every public name of the package is used by the program itself.

A public name is a module-level function, class or assignment of
src/intcone whose name does not start with an underscore, or a method or
property of such a class whose name does not (dunders are excluded with
every other underscored name).  It counts as
used when src/, scripts/ or perfbench/ refers to it outside its own
definition: as a name, an attribute, an imported name or a string (the
benchmark wraps names given as strings).  Like a grep, the scan does not
resolve bindings, so a local variable of the same name counts too.  Tests
do not count.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "intcone"
USERS = ("src", "scripts", "perfbench")


def _definitions(tree):
    """(label, name, first line, last line) of each public top-level
    definition and, labelled Class.name, of each public method or property
    of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    not item.name.startswith("_")
                ):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def _references(tree):
    """(name, line) of each name, attribute, imported name or string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _trees():
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def public_names():
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        out += [(path, *d) for d in _definitions(tree)]
    return out


@pytest.fixture(scope="module")
def uses():
    """name -> the (path, line) places where src/, scripts/ and perfbench/
    refer to it."""
    found = {}
    for path, tree in _trees():
        for name, line in _references(tree):
            found.setdefault(name, []).append((path, line))
    return found


def test_the_scan_sees_every_module():
    modules = {path.stem for path, *_ in public_names()}
    assert {"linalg", "lattice", "psd", "soc", "cuts", "cli"} <= modules


@pytest.mark.parametrize(
    "path, label, name, first, last",
    public_names(),
    ids=[f"{path.stem}.{label}" for path, label, *_ in public_names()],
)
def test_public_name_is_used_outside_its_definition(uses, path, label, name, first, last):
    outside = [
        (where, line)
        for where, line in uses.get(name, [])
        if where != path or not first <= line <= last
    ]
    assert outside, f"{path.stem}.{label} is referenced only by its own definition"
