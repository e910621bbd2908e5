"""Which `intcone` names the traced run wraps, and the per-layer metrics.

Layers are the package's modules.  The wrapped names are the entry points
each module offers, plus the module-level names one layer calls in another
(`lattice._kx_first` from psd, `psd._check_leaf` from the search walk,
`soc._peel_candidate` from the peel loop, ...).

MOVES records, for each group of layer metrics, the end-to-end metric on a
workload that it should move; a later change that claims a gain cites it.
"""

from __future__ import annotations

from collections import Counter

from spans import Tracer, summarize

LINALG_FNS = (
    "det",
    "rank",
    "is_psd_exact",
    "reduce_rank",
    "adjugate",
    "inverse_unimodular",
    "primitive_kernel_vector",
)

# search sub-workloads: label -> search_sporadic(n, diag_bound) arguments
SEARCHES = {"n5b3": (5, 3), "n6b2": (6, 2)}

MOVES = {
    "linalg.*": "psd-peel ops_per_s and latency_p99_ms; is_psd_exact: "
    "cuts-icr latency_p50_ms; det: psd-sporadic-search latency_p50_ms "
    "(the witness backtrack)",
    "lattice.*": "psd-peel latency_p99_ms; psd-sporadic-search "
    "latency_p50_ms and ops_per_s",
    "psd.decompose.*, psd.peels": "psd-peel ops_per_s",
    "psd.search.*, psd.unimodular_witness.*": "psd-sporadic-search "
    "latency_p50_ms, latency_p99_ms and ops_per_s",
    "soc.*": "soc-certify ops_per_s and latency_p99_ms",
    "cuts.*": "cuts-icr ops_per_s",
    "cli.*": "cli-roundtrip ops_per_s and latency_p50_ms",
    "trace.overhead": "none (cost of the traced run itself)",
}


def _tally_peels(tracer, cert):
    tracer.count("psd.peels", sum(lam for _, lam in cert.vectors))


def _tally_classes(tracer, classes):
    tracer.count("psd.search.classes", len(classes))


def _tally_hit(counter):
    def tally(tracer, out):
        if out is not None and out is not False:
            tracer.count(counter)

    return tally


def _tally_word(tracer, out):
    tracer.count("soc.descend.word_len", len(out[1]))


def _tally_terms(tracer, cert):
    tracer.count("soc.terms", len(cert.terms))


def _tally_icr(tracer, result):
    tracer.count("cuts.icr." + result.status)


def _tally_cuts(tracer, found):
    tracer.count("cuts.cg.cuts", len(found))


def install(tracer: Tracer, ic) -> None:
    """Wrap the traced names of the package `ic` (a namespace holding the
    modules linalg, lattice, psd, soc, cuts and cli)."""
    mods = (ic.linalg, ic.lattice, ic.psd, ic.soc, ic.cuts, ic.cli)

    def fn(mod, attr, name, tally=None):
        tracer.patch(mod, attr, tracer.wrap(getattr(mod, attr), name, tally), mods)

    for attr in LINALG_FNS:
        fn(ic.linalg, attr, "linalg." + attr)
    fn(ic.lattice, "_kx_first", "lattice.kx_first")
    fn(ic.lattice, "_decompose", "lattice.qfq")
    fn(ic.lattice, "enumerate_below", "lattice.enumerate_below")
    qfq = ic.lattice.QuadFormQuery
    tracer.patch(qfq, "points", tracer.wrap_generator(qfq.points, "lattice.points"))
    fn(ic.psd, "decompose", "psd.decompose", _tally_peels)
    fn(ic.psd, "search_sporadic", "psd.search_sporadic", _tally_classes)
    fn(ic.psd, "_check_leaf", "psd.check_leaf")
    fn(ic.psd, "_swap_minimal", "psd.swap_minimal")
    fn(ic.psd, "unimodular_witness", "psd.unimodular_witness")
    fn(ic.soc, "decompose_soc", "soc.decompose_soc", _tally_terms)
    fn(ic.soc, "_first_peel", "soc.first_peel")
    fn(ic.soc, "_peel_candidate", "soc.peel_candidate", _tally_hit("soc.peel_hit"))
    fn(ic.soc, "descend", "soc.descend", _tally_word)
    stream = ic.cuts.GeneratorStream
    tracer.patch(stream, "__iter__", tracer.wrap_generator(stream.__iter__, "cuts.stream"))
    fn(ic.cuts, "icr_search", "cuts.icr", _tally_icr)
    fn(ic.cuts, "cg_cuts", "cuts.cg", _tally_cuts)
    fn(ic.cuts, "in_semigroup", "cuts.semigroup", _tally_hit("cuts.semigroup.accept"))
    fn(ic.cli, "main", "cli.main")
    fn(ic.cli, "_build_parser", "cli.parser")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def work_counts(tracer: Tracer) -> dict[str, int]:
    """Every count the traced run records: calls per wrapped name and each
    counter's total.  These must repeat exactly at a fixed seed."""
    calls = Counter(tracer.names[i] for i in tracer.name)
    out = {f"{name}.calls": calls[name] for name in sorted(calls)}
    totals: Counter = Counter()
    for (counter, _), n in tracer.counts.items():
        totals[counter] += n
    out.update((k, totals[k]) for k in sorted(totals))
    return out


def metrics(tracer: Tracer, requests, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass over `requests`."""
    calls, ms, self_ms, by_req, by_parent = summarize(tracer)
    count: Counter = Counter()
    for (counter, _), n in tracer.counts.items():
        count[counter] += n
    out: dict[str, tuple[float, str]] = {}

    def timed(metric, name, calls_of=None):
        out[metric + ".calls"] = (calls_of if calls_of is not None else calls[name], "count")
        out[metric + ".ms"] = (ms[name], "ms")

    def layer_self(layer):
        total = sum(v for k, v in self_ms.items() if k.split(".")[0] == layer)
        out[layer + ".self_ms"] = (total, "ms")

    for attr in LINALG_FNS:
        timed("linalg." + attr, "linalg." + attr)
    layer_self("linalg")

    for short in ("kx_first", "qfq", "enumerate_below"):
        timed("lattice." + short, "lattice." + short)
    timed("lattice.points", "lattice.points", count["lattice.points.queries"])
    out["lattice.points.yielded"] = (count["lattice.points.yielded"], "count")
    out["lattice.first_hit_ratio"] = (
        _ratio(count["lattice.points.first_hit"], count["lattice.points.queries"]),
        "ratio",
    )
    layer_self("lattice")

    timed("psd.decompose", "psd.decompose")
    out["psd.peels"] = (count["psd.peels"], "count")
    timed("psd.unimodular_witness", "psd.unimodular_witness")
    for label, args in SEARCHES.items():
        reqs = [i for i, r in enumerate(requests) if r == args]

        def per(name, field):
            return sum(by_req.get((name, r), (0, 0.0))[field] for r in reqs)

        pre = f"psd.search.{label}."
        leaves = per("psd.check_leaf", 0)
        classes = sum(tracer.counts["psd.search.classes", r] for r in reqs)
        out[pre + "ms"] = (per("psd.search_sporadic", 1), "ms")
        out[pre + "leaves"] = (leaves, "count")
        out[pre + "leaf.ms"] = (per("psd.check_leaf", 1), "ms")
        out[pre + "swap_checks"] = (per("psd.swap_minimal", 0), "count")
        out[pre + "full_tests"] = (
            sum(by_parent["lattice.qfq", "psd.check_leaf", r] for r in reqs),
            "count",
        )
        out[pre + "unimodular_witness.calls"] = (per("psd.unimodular_witness", 0), "count")
        out[pre + "unimodular_witness.ms"] = (per("psd.unimodular_witness", 1), "ms")
        out[pre + "classes"] = (classes, "count")
        out[pre + "leaf_yield"] = (_ratio(classes, leaves), "ratio")
    layer_self("psd")

    for short in ("decompose_soc", "first_peel", "peel_candidate", "descend"):
        timed("soc." + short, "soc." + short)
    out["soc.peel_hit_ratio"] = (
        _ratio(count["soc.peel_hit"], calls["soc.peel_candidate"]),
        "ratio",
    )
    out["soc.descend.word_len"] = (count["soc.descend.word_len"], "count")
    out["soc.terms"] = (count["soc.terms"], "count")
    layer_self("soc")

    out["cuts.stream.walks"] = (count["cuts.stream.queries"], "count")
    out["cuts.stream.emitted"] = (count["cuts.stream.yielded"], "count")
    out["cuts.stream.ms"] = (ms["cuts.stream"], "ms")
    timed("cuts.icr", "cuts.icr")
    out["cuts.icr.semigroup_checks"] = (calls["cuts.semigroup"], "count")
    out["cuts.icr.accept_ratio"] = (
        _ratio(count["cuts.semigroup.accept"], calls["cuts.semigroup"]),
        "ratio",
    )
    for status in ("ok", "infeasible", "exceeded"):
        out["cuts.icr." + status] = (count["cuts.icr." + status], "count")
    timed("cuts.cg", "cuts.cg")
    cg_reqs = {r for (name, r) in by_req if name == "cuts.cg"}
    streamed = sum(tracer.counts["cuts.stream.yielded", r] for r in cg_reqs)
    out["cuts.cg.cuts"] = (count["cuts.cg.cuts"], "count")
    out["cuts.cg.keep_ratio"] = (_ratio(count["cuts.cg.cuts"], streamed), "ratio")
    layer_self("cuts")

    timed("cli.main", "cli.main")
    timed("cli.parser", "cli.parser")
    timed("cli.verify", "cli.verify")
    out["cli.bytes_out"] = (count["cli.bytes_out"], "bytes")
    layer_self("cli")

    out["trace.overhead"] = (overhead, "ratio")
    return out
