"""The SOC generator alphabet and the SOC points are each read by one rule.

soc spells each label once (`_SIGN_LABELS`, `_SWAP_LABELS`), writes Aplus
and AplusInv as one closed form per dimension family (n = 3 and n >= 4),
parameterised by the sign of the height's term, and reaches a letter from
`generator_matrix` only through `linalg.apply_word`, whose refusal of an
unknown label it shares.  The public SOC entries read their point through
`_require_point`, which returns it read with `linalg.as_int`.  The
primitive vector on a ray is `linalg._primitive` wherever it is taken.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "intcone"
SOC = ast.parse((PACKAGE / "soc.py").read_text())
ENTRIES = ("decompose_soc", "is_sporadic_soc", "descend")


def function(name):
    (node,) = [
        node for node in SOC.body if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return node


def label_prefix(node):
    """The leading constant text of an f-string, '' when it has none."""
    first = node.values[0] if node.values else None
    return first.value if isinstance(first, ast.Constant) else ""


def test_each_coordinate_label_is_spelt_once():
    fstrings = [node for node in ast.walk(SOC) if isinstance(node, ast.JoinedStr)]
    for prefix in ("Q", "P1"):
        hits = [node for node in fstrings if label_prefix(node) == prefix]
        assert len(hits) == 1, (prefix, [node.lineno for node in hits])


def test_one_sum_letter_body_per_dimension_family():
    # a letter body takes the vector v; one for n = 3, one for n >= 4
    bodies = [
        node
        for node in ast.walk(function("_sum_letters"))
        if isinstance(node, ast.FunctionDef) and [a.arg for a in node.args.args] == ["v"]
    ]
    assert len(bodies) == 2, [node.lineno for node in bodies]


def test_generator_matrix_reads_letters_through_apply_word():
    node = function("generator_matrix")
    subscripts = [sub.lineno for sub in ast.walk(node) if isinstance(sub, ast.Subscript)]
    assert not subscripts, f"generator_matrix subscripts at lines {subscripts}"
    attrs = {a.attr for a in ast.walk(node) if isinstance(a, ast.Attribute)}
    assert "apply_word" in attrs


def test_the_entries_use_the_point_require_point_reads():
    # each entry rebinds its point to _require_point's as_int-read tuple
    for name in ENTRIES:
        bound = [
            node
            for node in ast.walk(function(name))
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "_require_point"
        ]
        assert len(bound) == 1, name


def test_one_primitive_vector_rule():
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "_primitive":
                users.add(path.stem)
            assert not (isinstance(node, ast.FunctionDef) and node.name == "_direction")
    assert users == {"cuts", "psd", "soc"}
