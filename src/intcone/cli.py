"""Batch command-line front end with JSON input and certificate checking.

Every subcommand reads at most one JSON document (stdin by default, or a
file path argument), runs one module operation, and prints a single-line
result envelope {status, payload, provenance}.  List-producing subcommands
accept --lines to stream the items as newline-delimited JSON instead.  The
`verify` subcommand re-checks any certificate payload this tool emits and
exits nonzero on a mismatch, which is the whole tamper-detection story:
exit 0 success, exit 1 domain error or failed verification, exit 2
malformed input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__, cuts, linalg, psd, soc
from .cuts import CGCut, GeneratorStream, LCISystem
from .psd import Rank1Certificate
from .soc import SocCertificate


class MalformedInput(Exception):
    pass


def _int(v):
    # a JSON integer only: bool, float and str input is never coerced
    if type(v) is not int:
        raise ValueError(f"{json.dumps(v)} is not an integer")
    return v


def _rows(obj):
    try:
        return tuple(tuple(_int(v) for v in row) for row in obj)
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"expected a matrix of integers: {exc}")


def _vec(obj):
    try:
        return tuple(_int(v) for v in obj)
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"expected a vector of integers: {exc}")


# the cut commands read an element in its cone's native shape: the entries
# must be integers (exit 2), the shape is checked where it is used (exit 1)
_READERS = {"matrix": _rows, "vector": _vec}


def _load(raw: bytes):
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"input is not valid JSON: {exc}")


def _field(obj, key):
    if not isinstance(obj, dict) or key not in obj:
        raise MalformedInput(f"missing field {key!r}")
    return obj[key]


def _matrix_input(doc):
    """Accept either bare rows or {"matrix": rows}."""
    if isinstance(doc, dict):
        doc = _field(doc, "matrix")
    return _rows(doc)


def _point_input(doc):
    if isinstance(doc, dict):
        doc = _field(doc, "point")
    return _vec(doc)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cmd_psd_decompose(doc, args):
    x = _matrix_input(doc)
    cert = psd.decompose(x)
    if cert.reconstruct() != x:
        raise RuntimeError("certificate failed its reconstruction check")
    return {
        "kind": "psd-certificate",
        "matrix": [list(r) for r in x],
        "certificate": cert.to_json(),
    }


def _cmd_psd_sporadic(doc, args):
    x = _matrix_input(doc)
    return {"sporadic": psd.is_sporadic(x), "det": linalg.det(x)}


def _cmd_psd_search_sporadic(doc, args):
    classes = psd.search_sporadic(args.n, args.diag_bound)
    return {
        "n": args.n,
        "diag_bound": args.diag_bound,
        "classes": [[list(r) for r in m] for m in classes],
    }


def _cmd_psd_equiv(doc, args):
    x = _rows(_field(doc, "x"))
    y = _rows(_field(doc, "y"))
    witness = psd.unimodular_witness(x, y)
    return {
        "equivalent": witness is not None,
        "witness": None if witness is None else witness.to_json(),
    }


def _cmd_soc_decompose(doc, args):
    s = _point_input(doc)
    cert = soc.decompose_soc(s, minimal_roots=args.minimal_roots)
    if cert.reconstruct() != s:
        raise RuntimeError("certificate failed its reconstruction check")
    return {
        "kind": "soc-certificate",
        "point": list(s),
        "certificate": cert.to_json(),
    }


def _cmd_soc_descend(doc, args):
    s = _point_input(doc)
    root, word = soc.descend(s)
    if soc.apply_word(word, root) != s:
        raise RuntimeError("descent word failed its replay check")
    return {
        "kind": "soc-descent",
        "point": list(s),
        "root": list(root),
        "word": list(word),
    }


def _cmd_soc_roots(doc, args):
    found = soc.roots(args.n, minimal=args.minimal_roots)
    return {
        "n": args.n,
        "minimal": args.minimal_roots,
        "roots": [list(r) for r in found],
    }


def _cmd_soc_sporadic(doc, args):
    s = _point_input(doc)
    return {"sporadic": soc.is_sporadic_soc(s), "form": soc.lorentz_form(s, s)}


def _cmd_soc_tree(doc, args):
    points = soc.pythagorean_orbit(args.n, args.max_height)
    return {
        "n": args.n,
        "max_height": args.max_height,
        "points": [list(p) for p in points],
    }


def _system_input(doc):
    if isinstance(doc, dict) and "system" in doc:
        sys_doc, roots_doc = doc["system"], doc.get("roots")
    else:
        sys_doc, roots_doc = doc, None
    try:
        system = LCISystem.from_json(sys_doc)
    except (TypeError, KeyError) as exc:
        raise MalformedInput(f"bad system document: {exc!r}")
    roots = None
    if roots_doc is not None:
        read = _READERS[cuts.cone_record(system.cone, system.n).shape]
        roots = tuple(read(r) for r in roots_doc)
    return system, roots


def _cmd_cg_cuts(doc, args):
    system, roots = _system_input(doc)
    gen = GeneratorStream(
        cone=system.cone,
        n=system.n,
        word_cap=args.word_cap,
        roots=roots,
        cap=args.max_height,
    )
    found = cuts.cg_cuts(system, gen)
    return {
        "kind": "cut-list",
        "system": system.to_json(),
        "word_cap": args.word_cap,
        "cap": args.max_height,
        "cuts": [c.to_json() for c in found],
    }


def _cmd_icr_search(doc, args):
    name = str(_field(doc, "cone"))
    try:
        n = _int(_field(doc, "n"))
    except ValueError as exc:
        raise MalformedInput(f"field 'n': {exc}")
    raw = _field(doc, "element")
    cone = cuts.cone_record(name, n)
    element = _READERS[cone.shape](raw)
    bound = 2 * cone.ambient_dim - 2
    cap = args.cap if args.cap is not None else bound
    gen = GeneratorStream(cone=name, n=n, word_cap=args.word_cap)
    got = cuts.icr_search(element, gen, cap=cap)
    return {
        "result": got.to_json(),
        "bound": bound,
        "cap": cap,
        "word_cap": args.word_cap,
    }


def _verify_psd_certificate(payload):
    x = _rows(_field(payload, "matrix"))
    cert = Rank1Certificate.from_json(_field(payload, "certificate"))
    rem, wit = cert.remainder, cert.witness
    sizes = [cert.n] + [len(vec) for vec, _ in cert.vectors]
    sizes += [m.n for m in (rem, wit) if m is not None]
    if any(size != len(x) for size in sizes):
        return "certificate does not fit the size of the matrix"
    if cert.reconstruct() != x:
        return "reconstruction does not match the matrix"
    for vec, lam in cert.vectors:
        if lam < 1:
            return "nonpositive multiplicity"
    if rem is None:
        return None if wit is None else "witness without a remainder"
    if not linalg.is_psd_exact(rem.rows) or not psd.is_sporadic(rem.rows):
        return "remainder is not a nonzero sporadic PSD matrix"
    catalog = psd.sporadic_catalog(cert.n)
    if wit is None:
        return "remainder has no catalog witness" if catalog else None
    u = wit.rows
    moved = linalg.mat_mul(u, linalg.mat_mul(rem.rows, linalg.transpose(u)))
    if moved not in catalog:
        return "witness does not map the remainder onto the catalog"
    return None


def _verify_soc_certificate(payload):
    s = _vec(_field(payload, "point"))
    cert = SocCertificate.from_json(_field(payload, "certificate"))
    if cert.reconstruct() != s:
        return "reconstruction does not match the point"
    for lam, word, root in cert.terms:
        if lam < 1:
            return "nonpositive multiplicity"
        if root not in soc.roots(cert.n):
            return "unknown root"
    return None


def _verify_soc_descent(payload):
    s = _vec(_field(payload, "point"))
    root = _vec(_field(payload, "root"))
    word = tuple(str(w) for w in _field(payload, "word"))
    if root not in soc.roots(len(s)):
        return "unknown root"
    if soc.apply_word(word, root) != s:
        return "word does not map the root to the point"
    return None


def _verify_cut_list(payload):
    system = LCISystem.from_json(_field(payload, "system"))
    blobs = _field(payload, "cuts")
    if not isinstance(blobs, list):
        raise MalformedInput("field 'cuts' must be a list")
    for blob in blobs:
        reason = cuts.check_cut(system, CGCut.from_json(blob))
        if reason is not None:
            return reason
    return None


_VERIFIERS = {
    "psd-certificate": _verify_psd_certificate,
    "soc-certificate": _verify_soc_certificate,
    "soc-descent": _verify_soc_descent,
    "cut-list": _verify_cut_list,
}


def _cmd_verify(doc, args):
    payload = doc
    if isinstance(doc, dict) and "payload" in doc:
        payload = doc["payload"]
    kind = _field(payload, "kind")
    checker = _VERIFIERS.get(kind)
    if checker is None:
        raise MalformedInput(f"unknown certificate kind {kind!r}")
    try:
        reason = checker(payload)
    except (TypeError, KeyError) as exc:
        raise MalformedInput(f"bad {kind} payload: {exc!r}")
    if reason is not None:
        raise ValueError(f"verification failed: {reason}")
    return {"verified": True, "kind": kind}


_COMMANDS = {
    "psd-decompose": (_cmd_psd_decompose, True, None),
    "psd-sporadic": (_cmd_psd_sporadic, True, None),
    "psd-search-sporadic": (_cmd_psd_search_sporadic, False, "classes"),
    "psd-equiv": (_cmd_psd_equiv, True, None),
    "soc-decompose": (_cmd_soc_decompose, True, None),
    "soc-descend": (_cmd_soc_descend, True, None),
    "soc-roots": (_cmd_soc_roots, False, "roots"),
    "soc-sporadic": (_cmd_soc_sporadic, True, None),
    "soc-tree": (_cmd_soc_tree, False, "points"),
    "cg-cuts": (_cmd_cg_cuts, True, "cuts"),
    "icr-search": (_cmd_icr_search, True, None),
    "verify": (_cmd_verify, True, None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intcone",
        description="Integer cone decompositions, sporadic searches, and cuts",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, needs_input, lines_key, help_text):
        p = subs.add_parser(name, help=help_text)
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="recorded in provenance; fixes any randomized harness",
        )
        if needs_input:
            p.add_argument(
                "input",
                nargs="?",
                default="-",
                help="JSON file path, or - for stdin (the default)",
            )
        if lines_key is not None:
            p.add_argument(
                "--lines",
                action="store_true",
                help="stream list items as JSON lines instead of one envelope",
            )
        return p

    p = sub("psd-decompose", True, None, "rank-1 peel a PSD integer matrix")
    p = sub("psd-sporadic", True, None, "test a matrix for sporadicity")
    p = sub("psd-search-sporadic", False, "classes", "enumerate sporadic classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--diag-bound", type=int, default=4)
    p = sub("psd-equiv", True, None, "search for a congruence witness")
    p = sub("soc-decompose", True, None, "write a cone point as moved roots")
    p.add_argument("--minimal-roots", action="store_true")
    p = sub("soc-descend", True, None, "drive a point down to its root")
    p = sub("soc-roots", False, "roots", "list the roots for a dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--minimal-roots", action="store_true")
    p = sub("soc-sporadic", True, None, "test a cone point for sporadicity")
    p = sub("soc-tree", False, "points", "generate the Pythagorean orbit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-height", type=int, required=True)
    p = sub("cg-cuts", True, "cuts", "emit Chvatal-Gomory cuts for a system")
    p.add_argument("--word-cap", type=int, default=2)
    p.add_argument("--max-height", type=int, default=None)
    p = sub("icr-search", True, None, "minimal generator count for an element")
    p.add_argument("--word-cap", type=int, default=2)
    p.add_argument("--cap", type=int, default=None)
    p = sub("verify", True, None, "re-check an emitted certificate payload")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler, needs_input, lines_key = _COMMANDS[args.command]

    raw = b""
    if needs_input:
        if args.input == "-":
            raw = sys.stdin.buffer.read()
        else:
            try:
                with open(args.input, "rb") as fh:
                    raw = fh.read()
            except OSError as exc:
                print(_dump({"status": "error", "payload": {"error": str(exc)}}))
                return 2

    provenance = {
        "input_sha256": hashlib.sha256(raw).hexdigest(),
        "seed": args.seed,
        "version": __version__,
    }

    try:
        doc = _load(raw) if needs_input else None
        payload = handler(doc, args)
    except MalformedInput as exc:
        print(
            _dump(
                {
                    "status": "error",
                    "payload": {"error": str(exc)},
                    "provenance": provenance,
                }
            )
        )
        return 2
    except (ValueError, RuntimeError) as exc:
        print(
            _dump(
                {
                    "status": "error",
                    "payload": {"error": str(exc)},
                    "provenance": provenance,
                }
            )
        )
        return 1

    if lines_key is not None and getattr(args, "lines", False):
        for item in payload[lines_key]:
            print(_dump(item))
        return 0

    print(
        _dump(
            {"status": "ok", "payload": payload, "provenance": provenance}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
