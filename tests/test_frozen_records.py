"""Every dataclass record of the package is frozen.

A record is built once by its constructor, which validates its fields and
derives any private state from them, and never changes afterwards.  The
scan reads each `@dataclass` decorator of src/intcone, bare or called,
plain or as `dataclasses.dataclass`, and requires `frozen=True`.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "intcone"


def _is_dataclass(node):
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr == "dataclass"
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _is_frozen(decorator):
    return isinstance(decorator, ast.Call) and any(
        kw.arg == "frozen"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in decorator.keywords
    )


def records():
    """(path, class name, its dataclass decorator) for every dataclass."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                found = filter(_is_dataclass, node.decorator_list)
                out += [(path, node.name, d) for d in found]
    return out


def test_the_scan_sees_the_records():
    names = {name for _, name, _ in records()}
    assert {"Cone", "LCISystem", "GeneratorStream", "CGCut", "IcrResult"} <= names
    assert len(names) >= 12


@pytest.mark.parametrize(
    "path, name, decorator",
    records(),
    ids=[f"{path.stem}.{name}" for path, name, _ in records()],
)
def test_record_is_frozen(path, name, decorator):
    assert _is_frozen(decorator), f"{path.stem}.{name} is a dataclass without frozen=True"
