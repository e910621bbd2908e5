"""Self-tests of the benchmark: output checks catch corrupted results, work
counts repeat, self time excludes child spans, and the metrics the code
computes are exactly the ones BENCHMARK.json declares.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from clock import SpeedClock  # noqa: E402
from spans import Tracer, summarize  # noqa: E402

IC = run.load_program()
workloads.bind(IC)
SPEC = run.spec()


def make(name, seed=1):
    wl = workloads.WORKLOADS[name](seed)
    wl.setup()
    return wl


def corrupt_psd(cert):
    (x, lam), *rest = cert.vectors
    return dataclasses.replace(cert, vectors=((x, lam + 1), *rest))


def corrupt_soc(cert):
    (lam, word, root), *rest = cert.terms
    return dataclasses.replace(cert, terms=((lam + 1, word, root), *rest))


def corrupt_cuts(out):
    if isinstance(out, list):
        return [dataclasses.replace(c, rhs=c.rhs + 1) for c in out]
    if out.status != "ok":
        return dataclasses.replace(out, status="lost")
    (lam, y), *rest = out.terms
    return dataclasses.replace(out, terms=((lam + 1, y), *rest))


def corrupt_cli(out):
    rc, text, vrc, vtext = out
    return rc, text, 1, vtext


CORRUPT = {
    "psd-peel": corrupt_psd,
    "soc-certify": corrupt_soc,
    "cuts-icr": corrupt_cuts,
    "cli-roundtrip": corrupt_cli,
}


@pytest.mark.parametrize("name", sorted(CORRUPT))
def test_corrupted_result_raises_error_rate(name):
    wl = make(name)
    real = wl.call

    def tampered(req):
        return CORRUPT[name](real(req))

    wl.call = tampered
    clock = SpeedClock()
    outcome = run.Outcome()
    clock.start()
    try:
        run.run_window(wl, 0.2, clock, outcome)
    finally:
        clock.stop()
    assert outcome.attempted > 0
    assert outcome.failed / outcome.attempted > 0


def test_corrupted_search_result_fails_its_check():
    wl = workloads.WORKLOADS["psd-sporadic-search"](1)
    assert wl.check((5, 3), [workloads.psd.M6[:5]]) is not None
    assert wl.check((6, 2), []) is not None
    shifted = tuple(
        tuple(v + (i == j == 0) for j, v in enumerate(row))
        for i, row in enumerate(workloads.psd.M6)
    )
    assert wl.check((6, 2), [shifted]) is not None
    assert wl.check((6, 2), [workloads.psd.M6]) is None


def test_raising_call_counts_as_failure():
    wl = make("psd-peel")

    def broken(req):
        raise ValueError("boom")

    wl.call = broken
    outcome = run.Outcome()
    clock = SpeedClock()
    clock.start()
    try:
        run.run_window(wl, 0.05, clock, outcome)
    finally:
        clock.stop()
    assert outcome.failed == outcome.attempted > 0
    assert "boom" in outcome.first_error


def traced_counts(wl, reqs):
    tracer = Tracer()
    layers.install(tracer, IC)
    wl.tracer = tracer
    try:
        for i, req in enumerate(reqs):
            tracer.request = i
            wl.call(req)
    finally:
        tracer.restore()
        wl.tracer = None
    return tracer


@pytest.mark.parametrize("name", ["psd-peel", "soc-certify", "cuts-icr", "cli-roundtrip"])
def test_work_counts_repeat_and_tracer_restores(name):
    wl = make(name)
    originals = {k: v for k, v in vars(IC.linalg).items() if callable(v)}
    reqs = [r for r, _ in zip(wl.requests(), range(24))]
    first = layers.work_counts(traced_counts(wl, reqs))
    second = layers.work_counts(traced_counts(wl, reqs))
    assert first == second
    assert sum(first.values()) > 0
    assert {k: v for k, v in vars(IC.linalg).items() if callable(v)} == originals


def test_traced_metrics_match_benchmark_json():
    wl = make("cli-roundtrip")
    reqs = [r for r, _ in zip(wl.requests(), range(8))]
    tracer = traced_counts(wl, reqs)
    values = layers.metrics(tracer, reqs, 1.0)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: u for k, (_, u) in values.items()} == declared
    assert values["cli.main.calls"][0] == 16
    assert values["cli.verify.calls"][0] == 8
    assert values["cli.parser.calls"][0] == 16


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer, inner = tracer._id("a.outer"), tracer._id("a.inner")
    # hand-made spans: outer [0, 100], two children [10, 30] and [50, 60]
    for nid, start, end, parent in ((outer, 0, 100, -1), (inner, 10, 30, 0), (inner, 50, 60, 0)):
        tracer.name.append(nid)
        tracer.start.append(start * 10**6)
        tracer.end.append(end * 10**6)
        tracer.parent.append(parent)
        tracer.req.append(0)
    calls, ms, self_ms, _, _ = summarize(tracer)
    assert calls == {"a.outer": 1, "a.inner": 2}
    assert ms["a.outer"] == 100 and ms["a.inner"] == 30
    assert self_ms["a.outer"] == 70 and self_ms["a.inner"] == 30


def test_recursive_spans_count_inclusive_time_once():
    tracer = Tracer()
    f = tracer._id("a.f")
    for start, end, parent in ((0, 100, -1), (10, 90, 0)):
        tracer.name.append(f)
        tracer.start.append(start * 10**6)
        tracer.end.append(end * 10**6)
        tracer.parent.append(parent)
        tracer.req.append(0)
    calls, ms, self_ms, _, _ = summarize(tracer)
    assert calls["a.f"] == 2 and ms["a.f"] == 100 and self_ms["a.f"] == 100


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert "setup_s" in names and len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_block_rates():
    assert run.block_rates([0.5, 0.5, 0.25, 0.75, 3.0]) == [2.0, 2.0, 1 / 3]
    assert run.block_rates([0.1, 0.1]) == [10.0]


def test_fails_without_program_sources():
    """A directory holding only BENCHMARK.json and the benchmark's own files
    makes the benchmark exit nonzero without printing a result."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        run.HERE,
        bare / "perfbench",
        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "psd-peel",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert not done.stdout.strip()
