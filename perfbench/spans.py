"""Outside-in span tracing for the benchmark's traced run.

The tracer rebinds chosen module-level functions (and two generator
methods) of the `intcone` package to wrappers that record one span per
call, or one span per resume for generators.  The program's own files are
not touched: a wrapper is installed by assigning to the module attribute,
which is also what the module's own global lookups see, and every binding
is restored on exit.

Spans live in compact arrays in memory (name id, start, end, parent span,
request id) and are written out once, after the traced passes.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import Counter
from time import perf_counter_ns


class Tracer:
    """Span store plus per-request counters recorded at wrapped boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.req = array("i")
        self.request = -1
        self.counts: Counter = Counter()  # (counter name, request id) -> n
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.req.append(self.request)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def count(self, counter: str, amount: int = 1) -> None:
        self.counts[counter, self.request] += amount

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._id(name))

    def wrap(self, fn, name: str, tally=None):
        """A wrapper recording a span per call; tally(tracer, result) may
        add counts read off the result."""
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if tally is not None:
                tally(self, out)
            return out

        return wrapper

    def wrap_generator(self, fn, name: str):
        """A wrapper for a generator function: one span per resume, plus the
        counts `<name>.queries` (generators resumed at least once),
        `<name>.yielded` and `<name>.first_hit` (queries whose first resume
        produced an item)."""
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name + ".queries")
            gen = fn(*args, **kwargs)
            first = True
            while True:
                idx = self._open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                if first:
                    self.count(name + ".first_hit")
                    first = False
                self.count(name + ".yielded")
                yield item

        return wrapper

    def patch(self, owner, attr: str, wrapper, modules=()) -> None:
        """Bind `wrapper` in place of owner.attr, and in place of every other
        module-level binding of the same object in `modules`."""
        orig = getattr(owner, attr)
        targets = [(owner, attr)]
        for mod in modules:
            for key, val in vars(mod).items():
                if val is orig and (mod, key) != (owner, attr):
                    targets.append((mod, key))
        for obj, key in targets:
            self._undo.append((obj, key, orig))
            setattr(obj, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def __len__(self) -> int:
        return len(self.start)

    def dump(self, path) -> None:
        """Write every span as one JSON document."""
        rows = [
            [self.name[i], self.start[i], self.end[i], self.parent[i], self.req[i]]
            for i in range(len(self))
        ]
        doc = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "request"],
            "spans": rows,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


def summarize(tracer: Tracer):
    """Per-name totals from the spans.

    Returns (calls, ms, self_ms, by_request, by_parent):
    - calls[name]: spans of that name;
    - ms[name]: inclusive time, counting only spans with no ancestor of the
      same name, so recursion is not counted twice;
    - self_ms[name]: each span's duration minus the part its child spans
      cover (children of one span are disjoint, since the run has one
      thread and spans close in LIFO order);
    - by_request[(name, request)]: [calls, inclusive ms];
    - by_parent[(name, parent name, request)]: calls.
    """
    n = len(tracer)
    names = tracer.names
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    covered = [0] * n
    outer = [True] * n
    calls: Counter = Counter()
    ms: Counter = Counter()
    self_ms: Counter = Counter()
    by_request: dict[tuple[str, int], list] = {}
    by_parent: Counter = Counter()
    for i in range(n):
        p = tracer.parent[i]
        nid = tracer.name[i]
        if p >= 0:
            covered[p] += dur[i]
            outer[i] = _no_same_ancestor(tracer, p, nid)
    for i in range(n):
        name = names[tracer.name[i]]
        p = tracer.parent[i]
        calls[name] += 1
        self_ms[name] += (dur[i] - covered[i]) / 1e6
        slot = by_request.setdefault((name, tracer.req[i]), [0, 0.0])
        slot[0] += 1
        if outer[i]:
            ms[name] += dur[i] / 1e6
            slot[1] += dur[i] / 1e6
        parent = names[tracer.name[p]] if p >= 0 else ""
        by_parent[name, parent, tracer.req[i]] += 1
    return calls, ms, self_ms, by_request, by_parent


def _no_same_ancestor(tracer: Tracer, p: int, nid: int) -> bool:
    while p >= 0:
        if tracer.name[p] == nid:
            return False
        p = tracer.parent[p]
    return True
