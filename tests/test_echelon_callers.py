"""Every PSD and positive-definite question runs the symmetric elimination.

linalg has two fraction-free eliminations.  The symmetric one,
`_psd_echelon`, answers PSD membership, the rank, the rank split, the
LDL^T split, the peel frame's adjugate and the congruence invariants; the
general `_echelon` serves only the matrix functions that take any matrix.
The cofactor adjugate (`_cofactors`, n^2 determinants) serves only the
public adjugate and unimodular inverse, which nothing in the package calls.
The gcd ladder serves only the rank split, whose kernel vectors never
start with a negative entry, as the ladder now assumes.  The entries that
take an outside matrix reach the elimination through one entry check,
`_psd_input`, which freezes, tests symmetry, eliminates and raises, so
the rank split and the peel frame take an elimination and never refuse.
Of the modules, only psd, which holds the Hermite constants, imports
fractions.
The scan reads every reference to each of these names in src/intcone, as a
bare name or as an attribute, and the top-level function (or method) it
sits in.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "intcone"

GENERAL = {("linalg", name) for name in ("det", "rank", "primitive_kernel_vector")}
INVERSES = ("adjugate", "inverse_unimodular")
SYMMETRIC = {
    ("linalg", "is_psd_exact"),
    ("linalg", "_psd_input"),
    ("linalg", "_reduce_rank"),
    ("lattice", "_peel_data"),
    ("lattice", "_decompose"),
}
OUTSIDE = {
    ("linalg", "reduce_rank"),
    ("psd", "decompose"),
    ("psd", "is_sporadic"),
    ("psd", "unimodular_witness"),
}


def references(name):
    """(module, enclosing top-level function or None) for each reference
    to name in the package."""
    out = []

    def visit(node, module, func):
        if func is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        ):
            out.append((module, func))
        for child in ast.iter_child_nodes(node):
            visit(child, module, func)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, None)
    return out


def test_the_general_echelon_serves_only_general_matrices():
    refs = references("_echelon")
    assert ("linalg", "det") in refs
    outside = set(refs) - GENERAL
    assert not outside, f"_echelon referenced in {sorted(outside, key=str)}"


def test_the_cofactor_adjugate_serves_only_the_uncalled_public_inverses():
    # O(n^5) in all; a peel frame borders its adjugate up instead
    assert set(references("_cofactors")) == {("linalg", name) for name in INVERSES}
    for name in INVERSES:
        outside = set(references(name)) - {("linalg", name)}
        assert not outside, f"{name} referenced in {sorted(outside, key=str)}"


def test_psd_questions_run_the_symmetric_elimination():
    missing = SYMMETRIC - set(references("_psd_echelon"))
    assert not missing, f"not running _psd_echelon: {sorted(missing)}"


def test_outside_matrices_enter_through_one_check():
    # the entries on outside matrices leave freezing, the symmetry test,
    # the elimination and the refusal to _psd_input alone
    assert set(references("_psd_input")) == OUTSIDE
    direct = OUTSIDE & set(references("_psd_echelon"))
    assert not direct, f"eliminating past _psd_input: {sorted(direct)}"


def test_the_gcd_ladder_serves_only_the_rank_split():
    # _ladder refuses -e_0 instead of flipping a sign: only _reduce_rank,
    # fed by _kernel_vector, may call it
    for name in ("_ladder", "_apply_ladder"):
        assert set(references(name)) == {("linalg", "_reduce_rank")}, name


def test_the_rank_split_is_handed_a_psd_elimination():
    # _reduce_rank does not refuse a missing elimination: each caller holds
    # one from _psd_input, or of a residue it built PSD
    assert set(references("_reduce_rank")) == {
        ("linalg", "reduce_rank"),
        ("lattice", "_peel_data"),
        ("psd", "unimodular_witness"),
    }
    assert set(references("_peel_data")) == {("lattice", "_kx_first"), ("psd", "decompose")}


def test_only_psd_imports_fractions():
    # the Hermite constants are the package's only rationals
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                importers.add(path.stem)
    assert importers == {"psd"}
