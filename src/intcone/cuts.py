"""Chvatal-Gomory cuts and Caratheodory-rank search over cone semigroups.

A linear conical inequality system keeps x feasible while c - A(x) stays in
the cone.  Pairing any dual-cone semigroup element y against the system
yields the valid inequality y*A(x) <= y*c; since both implemented cones are
self-dual, the generator streams supply the y's directly, tagged with the
(root, word) provenance that produced them.  Inside, every element is a
flat integer tuple (an SOC point as it is, a PSD matrix as its n^2
row-major entries) and a `Cone` record holds all that differs between the
cones; public functions take and return vectors for SOC, matrices for PSD.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import lru_cache

from . import linalg, psd, soc
from .linalg import Rows

Flat = tuple[int, ...]


@dataclass(frozen=True)
class Cone:
    """One cone in one dimension.  `flatten` reads a native element (a
    matrix or a vector of ints, see linalg.as_int) and checks its shape."""

    shape: str  # "matrix" or "vector"
    ambient_dim: int
    flatten: Callable[[object], Flat]
    unflatten: Callable[[Flat], object]
    member: Callable[[Flat], bool]
    weight: Flat  # the dot product with it is the trace or the height
    generators: Mapping[str, Rows]  # label -> matrix acting on flat elements
    roots: tuple  # the default roots, native


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _psd_cone(n: int) -> Cone:
    def flatten(obj):
        rows = [tuple(row) for row in obj]  # a non-list row fails before a bad entry
        rows = linalg.int_rows(rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix element has the wrong shape")
        if not linalg.is_symmetric(rows):
            raise ValueError("matrix element must be symmetric")
        return tuple(v for row in rows for v in row)

    def unflatten(y):
        return tuple(y[i * n : (i + 1) * n] for i in range(n))

    e1 = tuple(tuple(int(i == j == 0) for j in range(n)) for i in range(n))
    return Cone(
        shape="matrix",
        ambient_dim=n * (n + 1) // 2,
        flatten=flatten,
        unflatten=unflatten,
        member=lambda y: linalg.is_psd_exact(unflatten(y)),
        weight=tuple(int(i == j) for i in range(n) for j in range(n)),
        # X -> g X g^T on row-major entries is the Kronecker square of g
        generators={
            label: tuple(tuple(a * b for a in gi for b in gj) for gi in g for gj in g)
            for label, g in psd.gl_generators(n).items()
        },
        roots=(e1,) + psd.sporadic_catalog(n),
    )


def _soc_cone(n: int) -> Cone:
    def flatten(obj):
        vec = tuple(map(linalg.as_int, obj))
        if len(vec) != n:
            raise ValueError("vector element has the wrong length")
        return vec

    return Cone(
        shape="vector",
        ambient_dim=n,
        flatten=flatten,
        unflatten=lambda y: y,
        member=soc.in_cone,
        weight=tuple(int(i == n - 1) for i in range(n)),
        generators=soc._generators(n),
        roots=soc.roots(n),
    )


_CONES = {"psd": _psd_cone, "soc": _soc_cone}


@lru_cache(maxsize=None)
def cone_record(name: str, n: int) -> Cone:
    """The record of cone `name` in dimension n, built once."""
    if name not in _CONES:
        raise ValueError("cone must be " + " or ".join(map(repr, _CONES)))
    return _CONES[name](n)


def pair(cone: str, y, other) -> int:
    """Dual pairing: trace inner product for PSD, dot product for SOC."""
    rec = cone_record(cone, len(y))
    return _dot(rec.flatten(y), rec.flatten(other))


def in_semigroup(cone: Cone, y: Flat) -> bool:
    return cone.member(y)


def apply_group_word(cone: str, n: int, word, root):
    """Transport a root along a word: congruence for PSD, left action for SOC."""
    rec = cone_record(cone, n)
    return rec.unflatten(linalg.apply_word(rec.generators, word, rec.flatten(root)))


@dataclass
class LCISystem:
    """Integral data of the system {x : c - sum x_i A_i in cone}."""

    cone: str
    n: int
    c: tuple
    a: tuple

    def __post_init__(self):
        rec = self._cone = cone_record(self.cone, self.n)
        self._c = rec.flatten(self.c)
        self._a = tuple(rec.flatten(ai) for ai in self.a)
        self.c = rec.unflatten(self._c)
        self.a = tuple(rec.unflatten(ai) for ai in self._a)

    @property
    def m(self) -> int:
        return len(self.a)

    def slack(self, x):
        """c - A(x) as a cone element."""
        if len(x) != self.m:
            raise ValueError("variable vector has the wrong length")
        out = list(self._c)
        for xi, ai in zip(x, self._a):
            for k, v in enumerate(ai):
                out[k] -= xi * v
        return self._cone.unflatten(tuple(out))

    def is_feasible(self, x) -> bool:
        return in_semigroup(self._cone, self._cone.flatten(self.slack(x)))

    def to_json(self) -> dict:
        return {
            "cone": self.cone,
            "n": self.n,
            "c": _lists(self.c),
            "A": [_lists(ai) for ai in self.a],
        }

    @classmethod
    def from_json(cls, obj) -> "LCISystem":
        return cls(
            cone=linalg.as_str(obj["cone"]),
            n=linalg.as_int(obj["n"]),
            c=tuple(obj["c"]),
            a=tuple(tuple(ai) for ai in obj["A"]),
        )


def _lists(e):
    """A native element as JSON: nested tuples become nested lists."""
    return [_lists(v) for v in e] if isinstance(e, tuple) else e


def _tuples(obj):
    return tuple(_tuples(v) if isinstance(v, list) else linalg.as_int(v) for v in obj)


@dataclass(frozen=True)
class CGCut:
    """The inequality u . x <= rhs together with its generating pair."""

    u: tuple[int, ...]
    rhs: int
    root: tuple
    word: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "u": list(self.u),
            "rhs": self.rhs,
            "root": _lists(self.root),
            "word": list(self.word),
        }

    @classmethod
    def from_json(cls, obj) -> "CGCut":
        return cls(
            u=tuple(map(linalg.as_int, obj["u"])),
            rhs=linalg.as_int(obj["rhs"]),
            root=_tuples(obj["root"]),
            word=linalg.as_labels(obj["word"]),
        )


def check_cut(sys: LCISystem, cut: CGCut) -> str | None:
    """Why `cut` is not the cut its provenance generates for `sys`, or None.

    The root must lie in the cone (then so does every image of it), and
    carrying it along the word must give back u and rhs exactly.
    """
    rec = sys._cone
    try:
        root = rec.flatten(cut.root)
    except (TypeError, ValueError):
        return f"cut root {_lists(cut.root)} does not fit the system's cone"
    if not rec.member(root):
        return f"cut root {_lists(cut.root)} lies outside the cone"
    y = linalg.apply_word(rec.generators, cut.word, root)
    u = tuple(_dot(y, ai) for ai in sys._a)
    if u != cut.u or _dot(y, sys._c) != cut.rhs:
        return f"cut {list(cut.u)} <= {cut.rhs} does not replay"
    return None


@dataclass
class GeneratorStream:
    """Breadth-first dual-semigroup elements g.r for words up to word_cap.

    Deduplicates by element, so each element carries its first (shortest)
    word.  `cap` optionally filters emissions by height/trace.  Iterating
    starts the walk over.  Roots must be nonzero elements of the cone.
    """

    cone: str
    n: int
    word_cap: int
    roots: tuple | None = None
    cap: int | None = None

    def __post_init__(self):
        rec = self._cone = cone_record(self.cone, self.n)
        if self.word_cap < 0:
            raise ValueError("word_cap must be nonnegative")
        if self.roots is None:
            self.roots = rec.roots
        self._roots = tuple(rec.flatten(r) for r in self.roots)
        if not all(any(r) for r in self._roots):
            raise ValueError("roots must be nonzero")
        if not all(rec.member(r) for r in self._roots):
            raise ValueError("roots must lie in the cone")
        self.roots = tuple(rec.unflatten(r) for r in self._roots)

    def __iter__(self):
        rec = self._cone
        gens = tuple(rec.generators.items())
        seen = set(self._roots)
        queue = deque((y, r, ()) for y, r in zip(self._roots, self.roots))
        while queue:
            y, root, word = queue.popleft()
            if self.cap is None or _dot(rec.weight, y) <= self.cap:
                yield rec.unflatten(y), root, word
            if len(word) == self.word_cap:
                continue
            for label, g in gens:
                child = linalg.mat_vec(g, y)
                if child not in seen:
                    seen.add(child)
                    queue.append((child, root, (label,) + word))


def cg_cuts(sys: LCISystem, gen: GeneratorStream) -> list[CGCut]:
    """One cut u.x <= rhs per emitted generator, first provenance kept.

    Cuts that agree after dividing u and rhs by gcd(u) (only attempted when
    the division leaves rhs integral, so the floor is unaffected) are
    reported once.  rhs is y paired with c; with integral data the floor in
    the defining inequality is the identity and is applied implicitly.
    """
    if gen.cone != sys.cone or gen.n != sys.n:
        raise ValueError("generator stream does not match the system's cone")
    out = []
    seen = set()
    for y, root, word in gen:
        y = sys._cone.flatten(y)
        u = tuple(_dot(y, ai) for ai in sys._a)
        rhs = _dot(y, sys._c)
        g = linalg.vec_gcd(u)
        if g > 1 and rhs % g == 0:
            key = (tuple(v // g for v in u), rhs // g)
        else:
            key = (u, rhs)
        if key in seen:
            continue
        seen.add(key)
        out.append(CGCut(u=u, rhs=rhs, root=root, word=word))
    return out


def validate_cut(sys: LCISystem, cut: CGCut, samples) -> bool:
    """False iff some exactly-feasible sample violates the cut."""
    for x in samples:
        x = tuple(map(linalg.as_int, x))
        if not sys.is_feasible(x):
            continue
        if sum(a * b for a, b in zip(cut.u, x)) > cut.rhs:
            return False
    return True


@dataclass(frozen=True)
class IcrResult:
    """Outcome of a minimal-support generator decomposition search."""

    status: str  # ok | exceeded | infeasible
    count: int | None = None
    terms: tuple = ()  # (multiplicity, element) pairs

    def to_json(self) -> dict:
        terms = [{"lambda": lam, "element": _lists(t)} for lam, t in self.terms]
        return {"status": self.status, "count": self.count, "terms": terms}


def icr_search(s, gen: GeneratorStream, cap: int) -> IcrResult:
    """Fewest distinct generators writing s = sum of lambda_i b_i.

    Multiplicities are free positive integers; the rank counts the number
    of generators in the sum, so a high multiple of a single generator
    still has rank one.  Heights (SOC) and traces (PSD) add up across any
    decomposition and every candidate carries weight at least 1, which
    bounds the support size by weight(s); exhausting that bound proves
    infeasibility within the candidate set, while exhausting only `cap`
    reports `exceeded`.  Iterative deepening over the support size with a
    strictly increasing candidate index keeps the search deterministic.
    Subtracting fewer copies of a cone element keeps membership, so each
    candidate's feasible multiplicities are a contiguous range, scanned
    from the largest down.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    rec = gen._cone
    s = rec.flatten(s)
    if not in_semigroup(rec, s):
        raise ValueError("element is outside the cone")
    total = _dot(rec.weight, s)
    cands = []
    for y, _, _ in gen:
        y = rec.flatten(y)
        w = _dot(rec.weight, y)
        if 1 <= w <= total:
            cands.append((y, w))
    cands.sort(key=lambda yw: -yw[1])

    chosen = []

    def dfs(res, res_weight, k_left, i0):
        if res_weight == 0:
            return not any(res)
        if k_left == 0:
            return False
        for i in range(i0, len(cands)):
            y, w = cands[i]
            if w > res_weight:
                continue
            for lam in range(res_weight // w, 0, -1):
                nxt = tuple(a - lam * b for a, b in zip(res, y))
                if not in_semigroup(rec, nxt):
                    continue
                chosen.append((lam, y))
                if dfs(nxt, res_weight - lam * w, k_left - 1, i + 1):
                    return True
                chosen.pop()
        return False

    depth_limit = min(cap, total, len(cands))
    for k in range(depth_limit + 1):
        chosen.clear()
        if dfs(s, total, k, 0):
            terms = tuple((lam, rec.unflatten(y)) for lam, y in chosen)
            return IcrResult(status="ok", count=k, terms=terms)
    if cap >= min(total, len(cands)):
        return IcrResult(status="infeasible")
    return IcrResult(status="exceeded")
