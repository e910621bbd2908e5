"""Smoke tests: each experiment script's main() on a tiny range."""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(capsys, name, argv):
    assert load(name).main(argv) == 0
    return capsys.readouterr().out.splitlines()


def test_sporadic_census(capsys):
    lines = run(capsys, "sporadic_census", ["--dims", "3", "7", "--max-height", "3"])
    assert lines[0].split() == ["n", "h", "pythagorean", "sporadic", "interior"]
    assert lines[1].split() == ["3", "1", "1", "1", "0"]
    assert lines[3].startswith("  n=3 totals: 1 pythagorean, 2 sporadic,")
    assert lines[4] == "  n=3 sporadic forms: form -1: 2"
    # from dimension seven on, other negative forms join in
    assert lines[-1] == "  n=7 sporadic forms: form -1: 4, form -3: 1"


def test_orbit_growth(capsys):
    lines = run(capsys, "orbit_growth", ["--dims", "3", "4", "--heights", "10", "5"])
    assert lines[0].split() == ["n", "h<=5", "h<=10", "time"]
    # (+-1, 0, 1), (0, +-1, 1) and the eight signed orders of (3, 4, 5)
    assert lines[1].split()[:3] == ["3", "12", "12"]
    assert len(lines) == 3 and lines[2].split()[0] == "4"


def test_icr_profile(capsys):
    lines = run(capsys, "icr_profile", ["--n", "3", "--max-height", "2", "--word-cap", "3"])
    assert lines[0].startswith("T_3, height <= 2: 19 points")
    assert [line.split()[:3] for line in lines[1:4]] == [
        ["rank", "0:", "1"],
        ["rank", "1:", "10"],
        ["rank", "2:", "8"],
    ]
    assert lines[-1] == "  observed max 2 at (-1, -1, 2), guarantee 4"


@pytest.mark.parametrize("name", ["sporadic_census", "orbit_growth"])
def test_rejects_dimensions_outside_the_cone_family(name):
    with pytest.raises(SystemExit):
        load(name).main(["--dims", "11"])
