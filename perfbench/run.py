"""Benchmark of the intcone package: five closed-loop workloads.

One workload per run (what a comparison of two commits uses):

    python3 perfbench/run.py --workload psd-peel --seed 1 --seconds 20 --trace 0

Every workload in turn, in child processes, printing each metric and
writing a result file:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1 \\
        --repeat 3 --out perfbench/results/seed-1.json

Run from the root of a checkout; the package is imported from its src/.

With --trace 0 a run sets the workload up SETUPS times, then sends
requests for --seconds and checks every output, and reports the
end-to-end metrics of BENCHMARK.json.  Times are speed-corrected (see
clock.py).  ops_per_s is the median request rate over blocks of BLOCK_S
seconds of calls, so that one rare slow input moves one block, not the
whole figure; the plain mean rate and the slowest request are printed too.

With --trace 1 a run passes over the workload's fixed trace list once
untraced and twice traced (see spans.py and layers.py), reports the
per-layer metrics of BENCHMARK.json, and counts a failure when the work
counts of the two traced passes, or of an earlier traced run of the same
code, seed and workload, differ.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUPS = 5  # set-ups per run; setup_s is their median
BLOCK_S = 1.0  # ops_per_s is the median rate over blocks of this much call time

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from clock import NOMINAL, SpeedClock  # noqa: E402
from spans import Tracer  # noqa: E402


def load_program():
    """Import intcone from the checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    pkg = src / "intcone"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"benchmark: no intcone sources at {pkg}")
    sys.path.insert(0, str(src))
    import intcone
    from intcone import cli, cuts, lattice, linalg, psd, soc

    if Path(intcone.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"benchmark: intcone imported from {intcone.__file__}, not {pkg}")
    return SimpleNamespace(
        linalg=linalg, lattice=lattice, psd=psd, soc=soc, cuts=cuts, cli=cli
    )


def code_hash() -> str:
    """Hash of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "intcone").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- measuring --------------------------------------------------------------


class Outcome:
    """Requests attempted and failed, and the first failure's reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def record(self, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.first_error = self.first_error or reason


def call(wl, req):
    """(output, None), or (None, reason) when the call raised."""
    try:
        return wl.call(req), None
    except Exception as exc:  # a failed request is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def run_window(wl, seconds, clock, outcome):
    """Send requests until the window closes, checking each output at once
    (outside its timed call) so no output is kept; returns the raw call
    intervals as two arrays, starts and ends, so that memory does not grow
    with the request rate."""
    starts, ends = array("d"), array("d")
    it = wl.requests()
    start = clock.now()
    while True:
        req = next(it)
        t0 = clock.now()
        out, reason = call(wl, req)
        t1 = clock.now()
        starts.append(t0)
        ends.append(t1)
        outcome.record(reason or wl.check(req, out))
        elapsed = clock.now() - start
        if wl.pass_size:
            passes, rest = divmod(len(starts), wl.pass_size)
            if rest == 0 and elapsed * (passes + 1) / passes > seconds:
                return starts, ends
        elif elapsed >= seconds:
            return starts, ends


def run_list(wl, reqs, clock, tracer=None):
    """Call every request in order; returns (output, reason) pairs and the
    raw call intervals."""
    results, intervals = [], []
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = i
        t0 = clock.now()
        results.append(call(wl, req))
        intervals.append((t0, clock.now()))
    return results, intervals


def check_all(wl, reqs, results, outcome) -> None:
    for req, (out, reason) in zip(reqs, results):
        outcome.record(reason or wl.check(req, out))


def first_difference(a: dict, b: dict):
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return f"{key}: {a.get(key)} != {b.get(key)}"
    return None


def traced_passes(wl, ic, seed, clock, outcome):
    """One untraced and two traced passes over the fixed trace list, after
    the set-ups have filled every cache.  Work counts must agree between
    the two traced passes and with any earlier traced run of the same
    code, seed and workload."""
    reqs = list(itertools.islice(wl.requests(), wl.trace_size))
    results, base = run_list(wl, reqs, clock)
    check_all(wl, reqs, results, outcome)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        layers.install(tracer, ic)
        wl.tracer = tracer
        try:
            results, intervals = run_list(wl, reqs, clock, tracer)
        finally:
            tracer.restore()
            wl.tracer = None
        check_all(wl, reqs, results, outcome)
        passes.append((tracer, intervals))
    counts = [layers.work_counts(tracer) for tracer, _ in passes]
    diffs = [first_difference(counts[0], counts[1])]
    WORK.mkdir(exist_ok=True)
    stored = WORK / f"counts-{wl.name}-{seed}-{code_hash()[:16]}.json"
    if stored.exists():
        diffs.append(first_difference(json.loads(stored.read_text()), counts[0]))
    else:
        stored.write_text(json.dumps(counts[0], indent=1))
    for diff in filter(None, diffs):
        outcome.record(f"work count differs: {diff}")
    tracer, intervals = passes[0]
    tracer.dump(WORK / f"spans-{wl.name}-{seed}.json")
    return SimpleNamespace(
        reqs=reqs, base=base, tracer=tracer, intervals=intervals,
        counts=len(counts[0]), repeat=not any(diffs),
    )


def trace_metrics(measured, clock):
    def total(intervals):
        return sum(clock.nominal(a, b) for a, b in intervals)

    overhead = total(measured.intervals) / total(measured.base)
    values = layers.metrics(measured.tracer, measured.reqs, overhead)
    notes = [
        f"trace list {len(measured.reqs)} requests, "
        f"{len(measured.tracer)} spans per traced pass",
        f"{measured.counts} work counts, repeat exactly: {measured.repeat}",
    ]
    return values, notes


def block_rates(latencies, block_s=BLOCK_S):
    """Requests per second over consecutive blocks of requests, each block
    closed once its calls reach block_s seconds (a lone long call makes a
    block of its own)."""
    rates, count, busy = [], 0, 0.0
    for t in latencies:
        count, busy = count + 1, busy + t
        if busy >= block_s:
            rates.append(count / busy)
            count, busy = 0, 0.0
    return rates or [count / busy]


def e2e_metrics(wl, intervals, setups, clock, peak_rss_kb):
    latencies = [clock.nominal(a, b) for a, b in zip(*intervals)]
    raw = [b - a for a, b in zip(*intervals)]
    p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
    rates = block_rates(latencies)
    values = {
        "setup_s": (statistics.median(clock.nominal(a, b) for a, b in setups), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p99_ms": (p99 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    notes = [
        f"{len(latencies)} requests, {sum(t > p99 for t in latencies)} beyond p99, "
        f"{len(rates)} blocks, slowest request {max(latencies) * 1e3:.6g} ms",
        f"mean rate over the whole run {len(latencies) / sum(latencies):.6g} 1/s",
        f"raw wall: ops_per_s {len(raw) / sum(raw):.6g}, "
        f"latency_p50_ms {statistics.median(raw) * 1e3:.6g}, "
        f"reference kernel median {clock.reference_s() * 1e3:.4g} ms "
        f"(nominal {NOMINAL * 1e3:.4g} ms)",
    ]
    if wl.seed_ignored:
        notes.append("seed ignored: the workload is a fixed list of searches")
        notes.append(f"search_s {sum(latencies[: wl.pass_size]):.6g}")
    return values, notes


def single(args) -> int:
    ic = load_program()
    declared = spec()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    workloads.bind(ic)
    outcome = Outcome()
    clock = SpeedClock()
    clock.start()
    try:
        setups = []
        for _ in range(SETUPS):
            t0 = clock.now()
            wl.setup()
            setups.append((t0, clock.now()))
        if args.trace:
            measured = traced_passes(wl, ic, args.seed, clock, outcome)
        else:
            measured = run_window(wl, args.seconds, clock, outcome)
    finally:
        clock.stop()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        values, notes = trace_metrics(measured, clock)
        names = [m["name"] for m in declared["per_layer"]]
    else:
        values, notes = e2e_metrics(wl, measured, setups, clock, peak_rss_kb)
        names = [m["name"] for m in declared["end_to_end"]]
    if set(values) != set(names):
        sys.exit(f"benchmark: metrics {sorted(set(values) ^ set(names))} "
                 "are computed but not declared, or declared but not computed")
    notes.append(f"error_rate {outcome.failed / outcome.attempted} "
                 f"({outcome.failed}/{outcome.attempted})")
    if outcome.first_error is not None:
        notes.append(f"first failure: {outcome.first_error}")
    for line in notes:
        print(f"{wl.name}: {line}")
    for name in names:
        value, unit = values[name]
        if value or not args.trace:
            print(f"{wl.name}: {name} = {value:.6g} {unit}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": values[n][0], "unit": values[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


# -- every workload ---------------------------------------------------------


def child(name, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"benchmark: {name} exited {done.returncode}: {done.stderr[-2000:]}")
    sys.stdout.write(done.stdout)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    declared = spec()
    results = {}
    for w in declared["workloads"]:
        name = w["name"]
        runs = [child(name, args.seed, args.seconds, 0) for _ in range(args.repeat)]
        entry = {
            "why": w["why"],
            "runs": runs,
            "median": {
                m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in runs)
                for m in declared["end_to_end"]
            },
            "error_rate": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
        }
        if args.trace:
            entry["trace"] = child(name, args.seed, args.seconds, 1)
        results[name] = entry
    print()
    for name, entry in results.items():
        for m in declared["end_to_end"]:
            print(f"{name:<20} {m['name']:<15} {entry['median'][m['name']]:>12.6g} {m['unit']}")
        print(f"{name:<20} {'error_rate':<15} {entry['error_rate']:>12.6g} ratio")
    doc = {
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "machine": machine(),
        "code_sha256": code_hash(),
        "layer_map": layers.MOVES,
        "workloads": results,
    }
    out = Path(args.out) if args.out else HERE / "results" / f"seed-{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    runs = [r for e in results.values() for r in e["runs"] + [e.get("trace")] if r]
    return 0 if all(r["correct"] for r in runs) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload (--workload all)")
    parser.add_argument("--out", help="result file (--workload all)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
