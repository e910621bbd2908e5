"""End-to-end tests for the command line front end."""

import hashlib
import io
import json
import pathlib
import types

import pytest

import intcone
from _oracles import soc_generator_labels
from intcone import cli, linalg, soc

M6 = (
    (2, 0, 1, 1, 1, 1),
    (0, 2, 0, 1, 1, 1),
    (1, 0, 2, 1, 1, 1),
    (1, 1, 1, 2, 1, 1),
    (1, 1, 1, 1, 2, 1),
    (1, 1, 1, 1, 1, 2),
)
I2 = [[1, 0], [0, 1]]


@pytest.fixture
def invoke(tmp_path, capsys):
    """Run main() with an optional JSON document passed as a file argument."""

    def run(args, doc=None):
        argv = list(args)
        if doc is not None:
            path = tmp_path / f"in{len(list(tmp_path.iterdir()))}.json"
            path.write_text(json.dumps(doc))
            argv.append(str(path))
        rc = cli.main(argv)
        return rc, capsys.readouterr().out

    return run


SOC3 = {"cone": "soc", "n": 3, "c": [0, 0, 1], "A": [[1, 0, 0]]}
PSD2 = {"cone": "psd", "n": 2, "c": [[1, 0], [0, 1]], "A": [[[1, 0], [0, 0]]]}


def payload_of(out):
    return json.loads(out)["payload"]


def _recording(name):
    return json.loads((pathlib.Path(__file__).parent / "data" / name).read_text())


def _replay(case, capsys, monkeypatch):
    # a recorded input of null marks a command that reads no input
    argv = case["argv"]
    if case["input"] is not None:
        stdin = types.SimpleNamespace(buffer=io.BytesIO(case["input"].encode()))
        monkeypatch.setattr(cli.sys, "stdin", stdin)
        argv = argv + ["-"]
    rc = cli.main(argv)
    assert (rc, capsys.readouterr().out) == (case["rc"], case["stdout"])


def _ids(cases):
    return [f"{i}-{c['argv'][0]}" for i, c in enumerate(cases)]


# cg-cuts and icr-search envelopes (stdout and exit code) recorded from the
# per-cone implementation that the flat cone record replaced
CUT_ENVELOPES = _recording("cut_envelopes.json")

# psd-decompose, psd-sporadic and psd-equiv envelopes recorded from the
# Fraction-based elimination and the recursive first-peel search that the
# integer-only peel path replaced; the last two, psd-search-sporadic at
# n = 6, diag-bound 2, plain and --lines, from the search that filtered
# column order and the determinant only at the leaves
PSD_ENVELOPES = _recording("psd_envelopes.json")

# soc-decompose (heights up to 50 in n = 3..10, plus taller points),
# soc-descend, soc-sporadic, soc-roots, soc-tree and verify (each kind
# once accepted and once tampered) envelopes recorded from the cli that
# declared each subcommand twice, in a command table and in the parser
SOC_ENVELOPES = _recording("soc_envelopes.json")


@pytest.mark.parametrize("case", CUT_ENVELOPES, ids=_ids(CUT_ENVELOPES))
def test_cut_envelopes_match_the_recording(case, capsys, monkeypatch):
    _replay(case, capsys, monkeypatch)


@pytest.mark.parametrize("case", PSD_ENVELOPES, ids=_ids(PSD_ENVELOPES))
def test_psd_envelopes_match_the_recording(case, capsys, monkeypatch):
    _replay(case, capsys, monkeypatch)


@pytest.mark.parametrize("case", SOC_ENVELOPES, ids=_ids(SOC_ENVELOPES))
def test_soc_envelopes_match_the_recording(case, capsys, monkeypatch):
    _replay(case, capsys, monkeypatch)


# payloads that verify when b is read as 1, as int() reads 1.5, true and
# "1", so a reader that coerces instead of rejecting lets them through: a
# cut-list emitted by cg-cuts on SOC3 at word cap 0, and certificates for
# I2 and for the root (0, 0, 1)
def _soc_cut_list(root=(1, 0, 1), rhs=1, u=(1,), A=((1, 0, 0),), word=()):
    cut = {"u": list(u), "rhs": rhs, "root": list(root), "word": word}
    system = {**SOC3, "A": [list(row) for row in A]}
    return {"kind": "cut-list", "system": system, "cuts": [cut]}


def _i2_certificate(lam):
    vectors = [{"x": [1, 0], "lambda": lam}, {"x": [0, 1], "lambda": 1}]
    cert = {"n": 2, "vectors": vectors, "remainder": None, "witness": None}
    return {"kind": "psd-certificate", "matrix": I2, "certificate": cert}


def _soc_certificate(lam, word=()):
    terms = [{"lambda": lam, "word": word, "root": [0, 0, 1]}]
    cert = {"n": 3, "terms": terms}
    return {"kind": "soc-certificate", "point": [0, 0, 1], "certificate": cert}


# a soc-descent of the root (0, 0, 1) onto itself, less its word
_SOC_DESCENT = {"kind": "soc-descent", "point": [0, 0, 1], "root": [0, 0, 1]}


class TestEnvelope:
    def test_shape_and_provenance(self, invoke, tmp_path):
        doc = [[1, 0], [0, 1]]
        rc, out = invoke(["psd-sporadic", "--seed", "9"], doc)
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 1
        env = json.loads(lines[0])
        assert set(env) == {"status", "payload", "provenance"}
        assert env["status"] == "ok"
        prov = env["provenance"]
        assert prov["seed"] == 9
        assert prov["version"] == intcone.__version__
        raw = (tmp_path / "in0.json").read_bytes()
        assert prov["input_sha256"] == hashlib.sha256(raw).hexdigest()

    def test_seed_defaults_to_null(self, invoke):
        _, out = invoke(["soc-roots", "--n", "3"])
        assert json.loads(out)["provenance"]["seed"] is None

    def test_identical_runs_are_byte_identical(self, invoke):
        doc = [20, 21, 29]
        _, first = invoke(["soc-decompose", "--seed", "4"], doc)
        _, second = invoke(["soc-decompose", "--seed", "4"], doc)
        assert first == second

    def test_reads_stdin_by_default(self, capsys, monkeypatch):
        data = json.dumps([[2, 1], [1, 1]]).encode()
        monkeypatch.setattr(
            cli.sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(data))
        )
        rc = cli.main(["psd-sporadic"])
        assert rc == 0
        assert payload_of(capsys.readouterr().out)["sporadic"] is False

    def test_missing_file_is_malformed_input(self, invoke):
        rc, _ = invoke(["psd-sporadic", "/no/such/file.json"])
        assert rc == 2

    @pytest.mark.parametrize("bad", [1.5, True, "1"], ids=["float", "bool", "str"])
    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["psd-decompose"], lambda b: [[1, 0], [0, b]]),
            (["psd-equiv"], lambda b: {"x": I2, "y": [[b, 0], [0, 1]]}),
            (["soc-decompose"], lambda b: [3, 4, b]),
            (["icr-search"], lambda b: {"cone": "soc", "n": 3, "element": [b, 0, 1]}),
            (["icr-search"], lambda b: {"cone": "soc", "n": b, "element": [0, 0, 1]}),
            (["verify"], lambda b: _soc_cut_list(root=[b, 0, 1])),
            (["verify"], lambda b: _soc_cut_list(rhs=b)),
            (["verify"], lambda b: _soc_cut_list(u=[b])),
            (["verify"], lambda b: _soc_cut_list(A=[[b, 0, 0]])),
            (["verify"], lambda b: _i2_certificate(b)),
            (["verify"], lambda b: _soc_certificate(b)),
            (["cg-cuts"], lambda b: {**SOC3, "c": [0, 0, b]}),
            (["cg-cuts"], lambda b: {**SOC3, "A": [[b, 0, 0]]}),
        ],
        ids=[
            "matrix",
            "equiv",
            "vector",
            "element",
            "n",
            "cut-root",
            "cut-rhs",
            "cut-u",
            "cut-system",
            "psd-lambda",
            "soc-lambda",
            "system-c",
            "system-A",
        ],
    )
    def test_non_integer_input_is_malformed(self, invoke, argv, doc, bad):
        rc, out = invoke(argv, doc(bad))
        assert rc == 2
        assert json.loads(out)["status"] == "error"
        assert "is not an integer" in payload_of(out)["error"]

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["verify"], {"kind": ["x"]}),
            (["verify"], {**_SOC_DESCENT, "word": [None]}),
            (["verify"], _soc_certificate(1, word=[None])),
            (["verify"], _soc_cut_list(word=[None])),
            (["verify"], {**_soc_cut_list(), "system": {**SOC3, "cone": ["soc"]}}),
            (["icr-search"], {"cone": ["soc"], "n": 3, "element": [0, 0, 1]}),
            (["cg-cuts"], {**SOC3, "cone": ["soc"]}),
        ],
        ids=[
            "kind",
            "descent-word",
            "soc-word",
            "cut-word",
            "cut-cone",
            "icr-cone",
            "cg-cone",
        ],
    )
    def test_non_string_label_is_malformed(self, invoke, argv, doc):
        rc, out = invoke(argv, doc)
        assert rc == 2
        assert json.loads(out)["status"] == "error"
        assert "is not a string" in payload_of(out)["error"]

    @pytest.mark.parametrize(
        "doc",
        [
            {**_SOC_DESCENT, "word": "Q1"},
            _soc_certificate(1, word="Aplus"),
            _soc_cut_list(word="Q1"),
        ],
        ids=["descent-word", "soc-word", "cut-word"],
    )
    def test_string_word_is_malformed(self, invoke, doc):
        # a bare string is not split into one-character labels
        rc, out = invoke(["verify"], doc)
        assert rc == 2
        assert json.loads(out)["status"] == "error"
        assert "is not a list of labels" in payload_of(out)["error"]

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_parser_is_built_once_and_keeps_no_flag_values(self, invoke):
        cli._build_parser.cache_clear()
        _, lines = invoke(["soc-roots", "--n", "3", "--lines"])
        _, seeded = invoke(["soc-roots", "--n", "3", "--seed", "3"])
        _, plain = invoke(["soc-roots", "--n", "3"])
        assert cli._build_parser.cache_info().misses == 1
        assert [json.loads(line) for line in lines.splitlines()] == [
            list(r) for r in soc.roots(3)
        ]
        assert json.loads(seeded)["provenance"]["seed"] == 3
        # one envelope with a null seed: neither --lines nor --seed carried over
        assert json.loads(plain)["provenance"]["seed"] is None


# argument lists the parser refuses, after any command name: unknown
# options and extra positionals, bad and missing option values, a
# top-level flag after the command, and "--" ahead of an option
BAD_TAILS = (
    ["--bogus"],
    ["a.json", "b.json"],
    ["--seed", "x"],
    ["--seed"],
    ["--se", "3", "--bogus"],
    ["--version"],
    ["--", "--seed", "3"],
    ["--n", "x", "--diag-bound", "y", "--max-height", "z", "--word-cap", "w", "--cap", "v"],
    ["--lines", "--minimal-roots"],
)


def _exit_of(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse of argv that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestParsing:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_a_named_command_fails_as_the_full_parser_does(self, command, capsys):
        # main parses a named command with its own subparser; every refusal
        # keeps the full parser's exit code and bytes
        full = cli._build_parser().parse_args
        for tail in BAD_TAILS + (["-h"],):
            argv = [command, *tail]
            want = _exit_of(full, argv, capsys)
            assert _exit_of(cli.main, argv, capsys) == want, argv
            assert want[0] == (0 if tail == ["-h"] else 2), argv
        if command in ("psd-search-sporadic", "soc-roots", "soc-tree"):
            want = _exit_of(full, [command], capsys)
            assert _exit_of(cli.main, [command], capsys) == want
            assert "required" in want[2]

    def test_other_argument_lists_go_to_the_full_parser(self, capsys):
        full = cli._build_parser().parse_args
        for argv in ([], ["-h"], ["--version"], ["frobnicate"], ["--bogus", "soc-roots"]):
            assert _exit_of(cli.main, argv, capsys) == _exit_of(full, argv, capsys), argv

    def test_a_named_command_parses_as_the_full_parser_does(self):
        full = cli._build_parser().parse_args
        for argv in (
            ["psd-decompose"],
            ["psd-decompose", "in.json", "--seed", "4"],
            ["psd-search-sporadic", "--n", "5", "--lines"],
            ["soc-decompose", "--minimal-roots", "-"],
            ["soc-roots", "--n", "9", "--minimal-roots"],
            ["soc-tree", "--max-height", "7", "--n", "4"],
            ["cg-cuts", "--word-cap", "3", "--max-height", "9", "--lines"],
            ["icr-search", "--cap", "2", "--", "x.json"],
            ["verify", "--se", "1"],
        ):
            assert vars(cli._parse(argv)) == vars(full(argv)), argv


class TestPsdCommands:
    def test_sporadic_on_the_known_class(self, invoke):
        rc, out = invoke(["psd-sporadic"], [list(r) for r in M6])
        assert rc == 0
        assert payload_of(out) == {"sporadic": True, "det": 3}

    def test_sporadic_on_identity(self, invoke):
        rc, out = invoke(["psd-sporadic"], [[1, 0], [0, 1]])
        assert rc == 0
        assert payload_of(out)["sporadic"] is False

    def test_decompose_then_verify(self, invoke):
        rc, out = invoke(["psd-decompose"], [[2, 1], [1, 1]])
        assert rc == 0
        env = json.loads(out)
        assert env["payload"]["kind"] == "psd-certificate"
        rc2, out2 = invoke(["verify"], env)
        assert rc2 == 0
        assert payload_of(out2)["verified"] is True

    def test_tall_decompose_verifies(self, invoke):
        k = 10**6
        rc, out = invoke(["psd-decompose"], [[k, k, 0], [k, k, 0], [0, 0, k]])
        assert rc == 0
        env = json.loads(out)
        vectors = env["payload"]["certificate"]["vectors"]
        assert vectors[-2:] == [
            {"x": [1, 1, 0], "lambda": 442425},
            {"x": [528, 528, 1], "lambda": 2},
        ]
        rc2, out2 = invoke(["verify"], env)
        assert rc2 == 0
        assert payload_of(out2)["verified"] is True

    def test_decompose_with_remainder_verifies(self, invoke):
        rc, out = invoke(["psd-decompose"], [list(r) for r in M6])
        assert rc == 0
        env = json.loads(out)
        assert env["payload"]["certificate"]["remainder"] is not None
        rc2, _ = invoke(["verify"], env)
        assert rc2 == 0

    def test_decompose_rejects_non_psd(self, invoke):
        rc, out = invoke(["psd-decompose"], [[1, 3], [3, 1]])
        assert rc == 1
        assert json.loads(out)["status"] == "error"

    def test_equiv_finds_a_shear(self, invoke):
        doc = {"x": [[1, 0], [0, 1]], "y": [[2, 1], [1, 1]]}
        rc, out = invoke(["psd-equiv"], doc)
        assert rc == 0
        got = payload_of(out)
        assert got["equivalent"] is True
        u = tuple(tuple(r) for r in got["witness"]["rows"])
        x = ((1, 0), (0, 1))
        assert linalg.mat_mul(u, linalg.mat_mul(x, linalg.transpose(u))) == (
            (2, 1),
            (1, 1),
        )

    def test_equiv_distinguishes_determinants(self, invoke):
        doc = {"x": [[1, 0], [0, 1]], "y": [[2, 0], [0, 2]]}
        rc, out = invoke(["psd-equiv"], doc)
        assert rc == 0
        assert payload_of(out) == {"equivalent": False, "witness": None}

    def test_search_sporadic_is_empty_below_six(self, invoke):
        rc, out = invoke(["psd-search-sporadic", "--n", "3", "--diag-bound", "2"])
        assert rc == 0
        assert payload_of(out)["classes"] == []

    def test_search_sporadic_lines_mode(self, invoke):
        rc, out = invoke(
            ["psd-search-sporadic", "--n", "2", "--diag-bound", "2", "--lines"]
        )
        assert rc == 0
        assert out == ""


class TestSocCommands:
    def test_roots_for_dimension_seven(self, invoke):
        rc, out = invoke(["soc-roots", "--n", "7"])
        assert rc == 0
        assert payload_of(out)["roots"] == [
            [1, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0, 1],
            [1, 1, 1, 1, 1, 1, 3],
        ]

    def test_roots_minimal_flag_drops_split_roots(self, invoke):
        _, full = invoke(["soc-roots", "--n", "9"])
        _, mini = invoke(["soc-roots", "--n", "9", "--minimal-roots"])
        assert len(payload_of(full)["roots"]) == 6
        assert len(payload_of(mini)["roots"]) == 5

    def test_roots_lines_mode(self, invoke):
        rc, out = invoke(["soc-roots", "--n", "8", "--lines"])
        assert rc == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [list(r) for r in soc.roots(8)]

    def test_decompose_then_verify(self, invoke):
        rc, out = invoke(["soc-decompose"], [3, 4, 5])
        assert rc == 0
        env = json.loads(out)
        assert env["payload"]["certificate"]["terms"] == [
            {"lambda": 1, "root": [1, 0, 1], "word": ["P12", "AplusInv", "P12"]}
        ]
        rc2, _ = invoke(["verify"], env)
        assert rc2 == 0

    def test_decompose_rejects_outside_points(self, invoke):
        rc, _ = invoke(["soc-decompose"], [5, 0, 1])
        assert rc == 1

    def test_descend_then_verify(self, invoke):
        rc, out = invoke(["soc-descend"], [20, 21, 29])
        assert rc == 0
        env = json.loads(out)
        assert env["payload"]["root"] == [1, 0, 1]
        rc2, _ = invoke(["verify"], env)
        assert rc2 == 0

    def test_descend_rejects_generic_points(self, invoke):
        rc, _ = invoke(["soc-descend"], [1, 1, 2])
        assert rc == 1

    def test_sporadic_flags_and_form(self, invoke):
        _, out = invoke(["soc-sporadic"], [2, 2, 3])
        assert payload_of(out) == {"sporadic": True, "form": -1}
        _, out = invoke(["soc-sporadic"], [3, 4, 5])
        assert payload_of(out) == {"sporadic": False, "form": 0}

    def test_sporadic_outside_cone_is_a_domain_error(self, invoke):
        rc, _ = invoke(["soc-sporadic"], [9, 9, 9])
        assert rc == 1

    @pytest.mark.parametrize("point", [[], [5], [0, 1], [0] * 10 + [1]])
    def test_sporadic_rejects_bad_dimensions(self, invoke, point):
        # as soc-decompose and soc-descend do, before any cone test
        for cmd in ("soc-sporadic", "soc-decompose", "soc-descend"):
            rc, out = invoke([cmd], point)
            assert rc == 1, cmd
            assert payload_of(out) == {
                "error": "dimension must be between 3 and 10"
            }, cmd

    def test_tree_matches_the_module(self, invoke):
        rc, out = invoke(["soc-tree", "--n", "3", "--max-height", "5"])
        assert rc == 0
        assert payload_of(out)["points"] == [
            list(p) for p in soc.pythagorean_orbit(3, 5)
        ]


class TestCutCommands:
    def system(self):
        return {"cone": "soc", "n": 3, "c": [0, 0, 1], "A": [[1, 0, 0]]}

    def test_cut_list_then_verify(self, invoke):
        rc, out = invoke(["cg-cuts", "--word-cap", "1"], self.system())
        assert rc == 0
        env = json.loads(out)
        got = env["payload"]
        assert got["kind"] == "cut-list"
        assert got["word_cap"] == 1
        assert got["cuts"][0] == {
            "u": [1],
            "rhs": 1,
            "root": [1, 0, 1],
            "word": [],
        }
        rc2, _ = invoke(["verify"], env)
        assert rc2 == 0

    def test_custom_roots_restrict_the_stream(self, invoke):
        doc = {"system": self.system(), "roots": [[0, 0, 1]]}
        rc, out = invoke(["cg-cuts", "--word-cap", "0"], doc)
        assert rc == 0
        assert payload_of(out)["cuts"] == [
            {"u": [0], "rhs": 1, "root": [0, 0, 1], "word": []}
        ]

    @pytest.mark.parametrize("roots", [5, "x", {"a": 1}], ids=["int", "str", "dict"])
    def test_non_list_roots_are_malformed(self, invoke, roots):
        rc, out = invoke(["cg-cuts"], {"system": self.system(), "roots": roots})
        assert rc == 2
        assert "field 'roots' must be a list" in payload_of(out)["error"]

    def test_lines_mode_streams_cuts(self, invoke):
        rc, out = invoke(["cg-cuts", "--word-cap", "0", "--lines"], self.system())
        assert rc == 0
        assert [json.loads(l)["u"] for l in out.splitlines()] == [[1], [0]]

    def test_icr_defaults_to_the_ambient_bound(self, invoke):
        doc = {"cone": "soc", "n": 3, "element": [0, 0, 2]}
        rc, out = invoke(["icr-search"], doc)
        assert rc == 0
        got = payload_of(out)
        assert got["bound"] == 4 and got["cap"] == 4
        assert got["result"]["status"] == "ok"
        assert got["result"]["count"] == 1
        assert got["result"]["terms"] == [{"lambda": 2, "element": [0, 0, 1]}]

    def test_icr_psd_identity(self, invoke):
        doc = {
            "cone": "psd",
            "n": 3,
            "element": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        }
        rc, out = invoke(["icr-search"], doc)
        assert rc == 0
        got = payload_of(out)
        assert got["bound"] == 10
        assert got["result"]["count"] == 3

    def test_icr_cap_flag_reports_exceeded(self, invoke):
        doc = {"cone": "soc", "n": 3, "element": [1, 1, 2]}
        rc, out = invoke(["icr-search", "--cap", "1"], doc)
        assert rc == 0
        assert payload_of(out)["result"]["status"] == "exceeded"

    @pytest.mark.parametrize("flag", ["--cap", "--word-cap"])
    def test_icr_negative_caps_are_domain_errors(self, invoke, flag):
        doc = {"cone": "soc", "n": 3, "element": [0, 0, 2]}
        rc, out = invoke(["icr-search", flag, "-1"], doc)
        assert rc == 1
        assert "cap must be nonnegative" in payload_of(out)["error"]

    def test_negative_max_height_is_a_domain_error(self, invoke):
        # a negative height cap used to give an empty cut list and exit 0
        rc, out = invoke(["cg-cuts", "--max-height", "-1"], self.system())
        assert rc == 1
        assert "cap must be nonnegative" in payload_of(out)["error"]

    def test_icr_outside_cone_is_a_domain_error(self, invoke):
        doc = {"cone": "soc", "n": 3, "element": [2, 0, 1]}
        rc, _ = invoke(["icr-search"], doc)
        assert rc == 1


class TestInputChecks:
    """Shape and size checks of the readers, each reached through the CLI."""

    @pytest.mark.parametrize(
        "argv, doc, error",
        [
            (["psd-decompose"], [[1, 2]], "matrix must be square"),
            (
                ["icr-search"],
                {"cone": "psd", "n": 2, "element": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                "matrix element has the wrong shape",
            ),
            (["icr-search"], {"cone": "psd", "n": 1, "element": [[1]]}, "need n >= 2"),
            (
                ["verify"],
                {
                    "kind": "psd-certificate",
                    "matrix": I2,
                    "certificate": {
                        "n": 2,
                        "vectors": [],
                        "remainder": {"n": 2, "rows": [[1]]},
                        "witness": None,
                    },
                },
                "n does not match row count",
            ),
        ],
        ids=["ragged-matrix", "psd-element-shape", "psd-n-1", "remainder-size"],
    )
    def test_domain_error(self, invoke, argv, doc, error):
        rc, out = invoke(argv, doc)
        assert (rc, payload_of(out)) == (1, {"error": error})

    def test_equiv_of_empty_matrices(self, invoke):
        rc, out = invoke(["psd-equiv"], {"x": [], "y": []})
        assert rc == 0
        assert payload_of(out) == {"equivalent": True, "witness": {"n": 0, "rows": []}}


class TestVerify:
    def test_bare_payload_is_accepted(self, invoke):
        _, out = invoke(["soc-descend"], [3, 4, 5])
        rc, _ = invoke(["verify"], json.loads(out)["payload"])
        assert rc == 0

    def test_unknown_kind_is_malformed(self, invoke):
        rc, _ = invoke(["verify"], {"kind": "pdf-certificate"})
        assert rc == 2

    def test_missing_kind_is_malformed(self, invoke):
        rc, _ = invoke(["verify"], {"matrix": [[1]]})
        assert rc == 2

    def test_tampered_point_fails(self, invoke):
        _, out = invoke(["soc-decompose"], [3, 4, 5])
        env = json.loads(out)
        env["payload"]["point"][0] += 1
        rc, out2 = invoke(["verify"], env)
        assert rc == 1
        assert "reconstruction" in payload_of(out2)["error"]

    @pytest.mark.parametrize(
        "n, root",
        [(10**12, [0, 0, 1]), (4, [0, 0, 1]), (3, [0, 0, 0, 1])],
        ids=["huge-n", "wrong-n", "long-root"],
    )
    def test_soc_certificate_of_another_size_fails(self, invoke, n, root):
        # a huge n used to reach reconstruct() and end in a MemoryError
        cert = {"n": n, "terms": [{"lambda": 1, "word": [], "root": root}]}
        payload = {"kind": "soc-certificate", "point": [0, 0, 1], "certificate": cert}
        rc, out = invoke(["verify"], payload)
        assert rc == 1
        assert "does not fit the size of the point" in payload_of(out)["error"]

    @pytest.mark.parametrize(
        "label, n",
        [("Q01", 3), ("P102", 3), ("Q\u0661", 3), ("Q3", 3)]
        + [(label, 11) for label in soc_generator_labels(11)],
    )
    def test_labels_outside_the_table_fail(self, invoke, label, n):
        # a label parser read "Q01", "P102" and "Q" with an Arabic-Indic one
        # as Q1, P12 and Q1, and took Q1 at n = 11 as well
        point = [0] * (n - 1) + [1]
        term = {"lambda": 1, "word": [label], "root": point}
        payloads = [
            {"kind": "soc-descent", "point": point, "root": point, "word": [label]},
            {
                "kind": "soc-certificate",
                "point": point,
                "certificate": {"n": n, "terms": [term]},
            },
        ]
        for payload in payloads:
            rc, out = invoke(["verify"], payload)
            assert (rc, json.loads(out)["status"]) == (1, "error")
        with pytest.raises(ValueError):
            soc.apply_word([label], point)

    def test_tampered_descent_word_fails(self, invoke):
        _, out = invoke(["soc-descend"], [20, 21, 29])
        env = json.loads(out)
        env["payload"]["word"][0] = "Q1"
        rc, _ = invoke(["verify"], env)
        assert rc == 1

    def test_tampered_matrix_fails(self, invoke):
        _, out = invoke(["psd-decompose"], [[2, 1], [1, 1]])
        env = json.loads(out)
        env["payload"]["matrix"][0][0] = 5
        rc, _ = invoke(["verify"], env)
        assert rc == 1

    def test_tampered_witness_fails(self, invoke):
        _, out = invoke(["psd-decompose"], [list(r) for r in M6])
        env = json.loads(out)
        shear = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
        shear[0][1] = 1
        env["payload"]["certificate"]["witness"]["rows"] = shear
        rc, out2 = invoke(["verify"], env)
        assert rc == 1
        assert "witness" in payload_of(out2)["error"]

    @pytest.mark.parametrize(
        "matrix, n, vectors, remainder, witness",
        [
            # sums to I2, but the remainder is not PSD
            (I2, 2, [[2, 0]], [[-3, 0], [0, 1]], None),
            # sums to I2, but I2 is not sporadic: it has peels
            (I2, 2, [], I2, None),
            ([[2, 1], [1, 1]], 2, [[1, 0], [1, 1]], None, I2),
            (I2, 2, [[1], [0, 1]], None, None),
            (I2, 3, [[1, 0], [0, 1]], None, None),
            # M6 is sporadic, but n = 6 has a complete catalog to witness it
            (M6, 6, [], M6, None),
        ],
        ids=[
            "remainder-not-psd",
            "remainder-not-sporadic",
            "witness-without-remainder",
            "short-vector",
            "wrong-n",
            "remainder-without-witness",
        ],
    )
    def test_false_psd_certificate_fails(
        self, invoke, matrix, n, vectors, remainder, witness
    ):
        def square(rows):
            return None if rows is None else {"n": len(rows), "rows": rows}

        cert = {
            "n": n,
            "vectors": [{"x": x, "lambda": 1} for x in vectors],
            "remainder": square(remainder),
            "witness": square(witness),
        }
        payload = {"kind": "psd-certificate", "matrix": matrix, "certificate": cert}
        rc, out = invoke(["verify"], payload)
        assert (rc, json.loads(out)["status"]) == (1, "error")

    @pytest.mark.parametrize("cert", [[], 5, "x", None], ids=["list", "int", "str", "null"])
    def test_non_object_psd_certificate_is_malformed(self, invoke, cert):
        # the reader called cert.get and ended in an AttributeError traceback
        payload = {"kind": "psd-certificate", "matrix": [[1]], "certificate": cert}
        rc, out = invoke(["verify"], payload)
        assert (rc, json.loads(out)["status"]) == (2, "error")

    @pytest.mark.parametrize(
        "payload, reason",
        [
            # each sums to its point or matrix, through a zero multiple
            (
                {
                    "kind": "psd-certificate",
                    "matrix": [[1]],
                    "certificate": {
                        "n": 1,
                        "vectors": [{"x": [1], "lambda": 1}, {"x": [1], "lambda": 0}],
                        "remainder": None,
                        "witness": None,
                    },
                },
                "nonpositive multiplicity",
            ),
            (
                {
                    "kind": "psd-certificate",
                    "matrix": [[1, 0], [0, 0]],
                    "certificate": {
                        "n": 2,
                        "vectors": [
                            {"x": [1, 0], "lambda": 1},
                            {"x": [0, 0], "lambda": 3},
                        ],
                        "remainder": None,
                        "witness": None,
                    },
                },
                "zero peel vector",
            ),
            (
                {
                    "kind": "soc-certificate",
                    "point": [1, 0, 1],
                    "certificate": {
                        "n": 3,
                        "terms": [
                            {"lambda": 1, "word": [], "root": [1, 0, 1]},
                            {"lambda": 0, "word": [], "root": [0, 0, 1]},
                        ],
                    },
                },
                "nonpositive multiplicity",
            ),
            # (3, 4, 5) is Pythagorean but not a root of dimension 3
            (
                {
                    "kind": "soc-certificate",
                    "point": [3, 4, 5],
                    "certificate": {
                        "n": 3,
                        "terms": [{"lambda": 1, "word": [], "root": [3, 4, 5]}],
                    },
                },
                "unknown root",
            ),
            (
                {"kind": "soc-descent", "point": [3, 4, 5], "root": [3, 4, 5], "word": []},
                "unknown root",
            ),
            # an empty word replays at any length, so n = 2 reaches the
            # multiplicity check before the dimension check
            (
                {
                    "kind": "soc-certificate",
                    "point": [0, 0],
                    "certificate": {
                        "n": 2,
                        "terms": [{"lambda": 0, "word": [], "root": [0, 1]}],
                    },
                },
                "nonpositive multiplicity",
            ),
        ],
        ids=[
            "psd-zero-lambda",
            "psd-zero-vector",
            "soc-zero-lambda",
            "soc-certificate-root",
            "soc-descent-root",
            "soc-n-2-zero-lambda",
        ],
    )
    def test_false_claim_names_its_reason(self, invoke, payload, reason):
        rc, out = invoke(["verify"], payload)
        assert rc == 1
        assert payload_of(out)["error"] == f"verification failed: {reason}"

    @pytest.mark.parametrize(
        "system, cut",
        [
            # replays to 5x <= 0, yet x = 1 is feasible
            (SOC3, {"u": [5], "rhs": 0, "root": [5, 0, 0], "word": []}),
            (PSD2, {"u": [1], "rhs": 1, "root": [[1, 1], [0, 0]], "word": []}),
        ],
        ids=["soc", "psd-asymmetric"],
    )
    def test_cut_root_outside_the_cone_fails(self, invoke, system, cut):
        payload = {"kind": "cut-list", "system": system, "cuts": [cut]}
        rc, out = invoke(["verify"], payload)
        assert rc == 1
        assert "cut root" in payload_of(out)["error"]

    @pytest.mark.parametrize(
        "system, other_shape",
        [(SOC3, [[1, 0], [0, 1]]), (PSD2, [1, 0, 0, 1])],
        ids=["soc", "psd"],
    )
    @pytest.mark.parametrize(
        "mutate, rc",
        [
            (lambda p, cut, other: cut.update(word=["Zed"]), 1),
            (lambda p, cut, other: cut.update(root=other), 1),
            (lambda p, cut, other: cut.pop("u"), 2),
            (lambda p, cut, other: p["system"].pop("A"), 2),
            (lambda p, cut, other: p["system"].update(c=5), 2),
            (lambda p, cut, other: p.update(cuts=5), 2),
            (lambda p, cut, other: p.update(cuts={}), 2),
        ],
        ids=["label", "root-shape", "no-u", "no-A", "scalar-c", "cuts-int", "cuts-dict"],
    )
    def test_malformed_cut_list_exits_cleanly(
        self, invoke, system, other_shape, mutate, rc
    ):
        # a missing key or a wrong JSON type is malformed (2); an unknown
        # label or a root of another cone's shape is a false claim (1)
        _, out = invoke(["cg-cuts", "--word-cap", "1"], system)
        payload = json.loads(out)["payload"]
        mutate(payload, payload["cuts"][-1], other_shape)
        got, out2 = invoke(["verify"], payload)
        assert (got, json.loads(out2)["status"]) == (rc, "error")

    def test_tampered_cut_fails(self, invoke):
        doc = {"cone": "soc", "n": 3, "c": [0, 0, 1], "A": [[1, 0, 0]]}
        _, out = invoke(["cg-cuts", "--word-cap", "1"], doc)
        env = json.loads(out)
        env["payload"]["cuts"][0]["rhs"] += 1
        rc, out2 = invoke(["verify"], env)
        assert rc == 1
        assert "replay" in payload_of(out2)["error"]
