"""The CLI decides malformed input in one place.

`cli.main` maps each error kind a command raises to its exit code through
`_EXIT_CODES`; a value of the wrong JSON type raises TypeError where it is
read and a missing key KeyError, and both are exit 2 there.  No reader
catches either to wrap it, so no per-field reader and no reader chosen by
a cone's shape is needed, and the cone record keeps no shape.
"""

import ast
import dataclasses
import pathlib

from intcone import cli, cuts

CLI = pathlib.Path(__file__).resolve().parent.parent / "src" / "intcone" / "cli.py"


def _names(node):
    """The bare and dotted names an except clause lists."""
    if node is None:
        return set()
    exprs = node.elts if isinstance(node, ast.Tuple) else [node]
    return {e.id if isinstance(e, ast.Name) else getattr(e, "attr", None) for e in exprs}


def test_main_maps_wrong_types_and_missing_keys_to_exit_two():
    assert cli._EXIT_CODES[TypeError] == cli._EXIT_CODES[KeyError] == 2


def test_no_except_clause_in_the_cli_catches_them():
    caught = [
        handler.lineno
        for handler in ast.walk(ast.parse(CLI.read_text(), str(CLI)))
        if isinstance(handler, ast.ExceptHandler)
        and _names(handler.type) & {"TypeError", "KeyError"}
    ]
    assert not caught, f"TypeError or KeyError caught at cli.py lines {caught}"


def test_the_per_field_readers_are_gone():
    names = {
        node.id if isinstance(node, ast.Name) else node.name
        for node in ast.walk(ast.parse(CLI.read_text(), str(CLI)))
        if isinstance(node, (ast.Name, ast.FunctionDef))
    }
    assert not names & {"_READERS", "_read_field"}


def test_the_cone_record_keeps_no_shape():
    assert "shape" not in {f.name for f in dataclasses.fields(cuts.Cone)}
