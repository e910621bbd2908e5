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
import functools
import hashlib
import json
import sys
from collections.abc import Callable
from typing import NamedTuple

from . import __version__, cuts, linalg, psd, soc
from .cuts import CGCut, GeneratorStream, LCISystem
from .psd import Rank1Certificate
from .soc import SocCertificate


class MalformedInput(Exception):
    pass


# the exit code of each error kind a command may raise (see the module doc)
_EXIT_CODES = {MalformedInput: 2, ValueError: 1, RuntimeError: 1}


def _rows(obj):
    try:
        return linalg.int_rows(obj)
    except TypeError as exc:
        raise MalformedInput(f"expected a matrix of integers: {exc}")


def _vec(obj):
    try:
        return tuple(map(linalg.as_int, obj))
    except TypeError as exc:
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


def _unwrap(doc, key):
    """Accept either the bare value or {key: value}."""
    return _field(doc, key) if isinstance(doc, dict) else doc


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cmd_psd_decompose(doc, args):
    x = _rows(_unwrap(doc, "matrix"))
    cert = psd.decompose(x)
    if cert.reconstruct() != x:
        raise RuntimeError("certificate failed its reconstruction check")
    return {
        "kind": "psd-certificate",
        "matrix": [list(r) for r in x],
        "certificate": cert.to_json(),
    }


def _cmd_psd_sporadic(doc, args):
    x = _rows(_unwrap(doc, "matrix"))
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
    s = _vec(_unwrap(doc, "point"))
    cert = soc.decompose_soc(s, minimal_roots=args.minimal_roots)
    if cert.reconstruct() != s:
        raise RuntimeError("certificate failed its reconstruction check")
    return {
        "kind": "soc-certificate",
        "point": list(s),
        "certificate": cert.to_json(),
    }


def _cmd_soc_descend(doc, args):
    s = _vec(_unwrap(doc, "point"))
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
    s = _vec(_unwrap(doc, "point"))
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
        n = linalg.as_int(_field(doc, "n"))
    except TypeError as exc:
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
    if any(size != len(s) for size in [cert.n] + [len(r) for _, _, r in cert.terms]):
        return "certificate does not fit the size of the point"
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


class _Command(NamedTuple):
    handler: Callable
    help: str
    reads_input: bool = True  # one JSON document, from a path or stdin
    lines_key: str | None = None  # the payload list that --lines streams
    flags: tuple = ()  # (name, add_argument keywords) of its own options


_N = ("--n", {"type": int, "required": True})
_MINIMAL_ROOTS = ("--minimal-roots", {"action": "store_true"})
_WORD_CAP = ("--word-cap", {"type": int, "default": 2})

_COMMANDS = {
    "psd-decompose": _Command(_cmd_psd_decompose, "rank-1 peel a PSD integer matrix"),
    "psd-sporadic": _Command(_cmd_psd_sporadic, "test a matrix for sporadicity"),
    "psd-search-sporadic": _Command(
        _cmd_psd_search_sporadic, "enumerate sporadic classes", False, "classes",
        flags=(_N, ("--diag-bound", {"type": int, "default": 4})),
    ),
    "psd-equiv": _Command(_cmd_psd_equiv, "search for a congruence witness"),
    "soc-decompose": _Command(
        _cmd_soc_decompose, "write a cone point as moved roots", flags=(_MINIMAL_ROOTS,)
    ),
    "soc-descend": _Command(_cmd_soc_descend, "drive a point down to its root"),
    "soc-roots": _Command(
        _cmd_soc_roots, "list the roots for a dimension", False, "roots",
        flags=(_N, _MINIMAL_ROOTS),
    ),
    "soc-sporadic": _Command(_cmd_soc_sporadic, "test a cone point for sporadicity"),
    "soc-tree": _Command(
        _cmd_soc_tree, "generate the Pythagorean orbit", False, "points",
        flags=(_N, ("--max-height", {"type": int, "required": True})),
    ),
    "cg-cuts": _Command(
        _cmd_cg_cuts, "emit Chvatal-Gomory cuts for a system", True, "cuts",
        flags=(_WORD_CAP, ("--max-height", {"type": int})),
    ),
    "icr-search": _Command(
        _cmd_icr_search, "minimal generator count for an element",
        flags=(_WORD_CAP, ("--cap", {"type": int})),
    ),
    "verify": _Command(_cmd_verify, "re-check an emitted certificate payload"),
}


@functools.cache  # the parser depends on nothing but _COMMANDS: build it once
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intcone",
        description="Integer cone decompositions, sporadic searches, and cuts",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = subs.add_parser(name, help=cmd.help)
        p.add_argument(
            "--seed",
            type=int,
            help="recorded in provenance; fixes any randomized harness",
        )
        if cmd.reads_input:
            p.add_argument(
                "input",
                nargs="?",
                default="-",
                help="JSON file path, or - for stdin (the default)",
            )
        if cmd.lines_key is not None:
            p.add_argument(
                "--lines",
                action="store_true",
                help="stream list items as JSON lines instead of one envelope",
            )
        for flag, options in cmd.flags:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cmd = _COMMANDS[args.command]

    raw = b""
    if cmd.reads_input:
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
        doc = _load(raw) if cmd.reads_input else None
        payload = cmd.handler(doc, args)
    except tuple(_EXIT_CODES) as exc:
        error = {"error": str(exc)}
        print(_dump({"status": "error", "payload": error, "provenance": provenance}))
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))

    if cmd.lines_key is not None and args.lines:
        for item in payload[cmd.lines_key]:
            print(_dump(item))
        return 0

    print(_dump({"status": "ok", "payload": payload, "provenance": provenance}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
