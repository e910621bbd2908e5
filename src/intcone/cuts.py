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

from bisect import bisect_left
from collections import OrderedDict, deque
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul, neg
from types import MappingProxyType

from . import linalg, psd, soc
from .linalg import Rows

Flat = tuple[int, ...]


@dataclass(frozen=True)
class Cone:
    """One cone in one dimension.  `flatten` is the one reader of a native
    element, a matrix or a vector: an entry that is not an int raises
    TypeError (linalg.as_int), a wrong shape ValueError, so no caller
    reads an element by its cone's shape first.  The letters and default
    roots are built on first use: a PSD record holds nothing of size n^2,
    so a misshapen element fails at once."""

    ambient_dim: int
    flatten: Callable[[object], Flat]
    unflatten: Callable[[Flat], object]
    member: Callable[[Flat], bool]
    weight: Callable[[Flat], int]  # the trace or the height
    letters: Callable[[], Mapping[str, Callable[[Flat], Flat]]]  # builds `generators`
    default_roots: Callable[[], tuple]  # builds `roots`, native
    # icr_search's admission test: `norm` is taken once per element of a
    # cached search view and once per residual; most(res, norm(res), y,
    # norm(y), top) is the largest lam <= top with res - lam*y in the cone,
    # 0 if there is none.  Callers keep res in the cone and 1 <= top <=
    # weight(res) // weight(y), so res - lam*y keeps a nonnegative weight.
    norm: Callable[[Flat], object]
    most: Callable[..., int]
    generators = cached_property(lambda self: self.letters())  # label -> flat letter
    roots = cached_property(lambda self: self.default_roots())


def _bisected_multiple(cone, res, y, top) -> int:
    """Subtracting fewer copies of a cone element keeps membership, so the
    feasible multiplicities run from 1 up to some largest one: one
    membership test at 1 rules y in or out and bisection finds the
    largest."""
    if not in_semigroup(cone, tuple(a - b for a, b in zip(res, y))):
        return 0
    lo, hi = 1, top
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if in_semigroup(cone, tuple(a - mid * b for a, b in zip(res, y))):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _congruence(g: Rows) -> Callable[[Flat], Flat]:
    """X -> g X g^T on row-major entries, the Kronecker square of g, as a
    letter: entry (i n + j, p n + q) is g_ip g_jq, so its nonzero entries
    are the pairs of nonzero entries of rows i and j of g, and the
    n^2 x n^2 matrix itself is never formed."""
    n = len(g)
    nonzero = [[(p, a) for p, a in enumerate(row) if a] for row in g]
    return linalg.sparse_letter(
        [(p * n + q, a * b) for p, a in nonzero[i] for q, b in nonzero[j]]
        for i in range(n)
        for j in range(n)
    )


def _psd_cone(n: int) -> Cone:
    if n < 2:
        raise ValueError("need n >= 2")  # psd.gl_generators' refusal, taken eagerly

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

    def most(res, _, y, __, top):
        return _bisected_multiple(rec, res, y, top)

    def default_roots():  # e_11, whose n - 1 zero rows are one tuple, then the catalog
        e11 = ((1,) + (0,) * (n - 1),) + ((0,) * n,) * (n - 1)
        return (e11,) + psd.sporadic_catalog(n)

    rec = Cone(
        ambient_dim=n * (n + 1) // 2,
        flatten=flatten,
        unflatten=unflatten,
        member=lambda y: linalg.is_psd_exact(unflatten(y)),
        weight=lambda y: sum(y[:: n + 1]),
        letters=lambda: MappingProxyType(
            {label: _congruence(g) for label, g in psd.gl_generators(n).items()}
        ),
        default_roots=default_roots,
        norm=lambda y: None,
        most=most,
    )
    return rec


def _soc_cone(n: int) -> Cone:
    soc._require_dim(n)

    def flatten(obj):
        vec = tuple(map(linalg.as_int, obj))
        if len(vec) != n:
            raise ValueError("vector element has the wrong length")
        return vec

    return Cone(
        ambient_dim=n,
        flatten=flatten,
        unflatten=lambda y: y,
        member=soc.in_cone,
        weight=lambda y: y[n - 1],
        letters=lambda: soc._letters(n),
        default_roots=lambda: soc.roots(n),
        norm=lambda y: soc._form(y, y),
        most=soc._most_multiple,
    )


_CONES = {"psd": _psd_cone, "soc": _soc_cone}


@lru_cache(maxsize=None, typed=True)
def cone_record(name: str, n: int) -> Cone:
    """The record of cone `name` in dimension n, built once."""
    if name not in _CONES:
        raise ValueError("cone must be " + " or ".join(map(repr, _CONES)))
    return _CONES[name](linalg.as_int(n))


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


@dataclass(frozen=True)
class LCISystem:
    """Integral data of the system {x : c - sum x_i A_i in cone}."""

    cone: str
    n: int
    c: tuple
    a: tuple

    def __post_init__(self):
        rec = cone_record(self.cone, self.n)
        c = rec.flatten(self.c)
        a = tuple(rec.flatten(ai) for ai in self.a)
        object.__setattr__(self, "_cone", rec)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "c", rec.unflatten(c))
        object.__setattr__(self, "a", tuple(rec.unflatten(ai) for ai in a))

    @property
    def m(self) -> int:
        return len(self.a)

    def _slack(self, x) -> Flat:
        x = tuple(map(linalg.as_int, x))
        if len(x) != self.m:
            raise ValueError("variable vector has the wrong length")
        out = list(self._c)
        for xi, ai in zip(x, self._a):
            for k, v in enumerate(ai):
                out[k] -= xi * v
        return tuple(out)

    def is_feasible(self, x) -> bool:
        return in_semigroup(self._cone, self._slack(x))

    def to_json(self) -> dict:
        return {
            "cone": self.cone,
            "n": self.n,
            "c": _lists(self.c),
            "A": [_lists(ai) for ai in self.a],
        }

    @classmethod
    def from_json(cls, obj) -> "LCISystem":
        obj = linalg.as_obj(obj)
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
        obj = linalg.as_obj(obj)
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


# walk elements the stream cache holds in all: each costs about 490 bytes
# with its share of the search view (tracemalloc on the ("soc", 10, 4)
# walk: 287 + 201), so the cache holds about 98 MB at most
_MAX_HELD = 200_000


def _walk(cone: str, n: int, word_cap: int, roots: tuple) -> tuple:
    """(flat y, weight, root, word) for every distinct y = g.r reachable
    from the distinct roots by at most word_cap generators, breadth first,
    generators in table order; each y keeps its first (shortest) word."""
    rec = cone_record(cone, n)
    gens = tuple(rec.generators.items())
    queue = deque((rec.flatten(root), root, ()) for root in roots)
    seen = {y for y, _, _ in queue}
    out = []
    while queue:
        y, root, word = queue.popleft()
        out.append((y, rec.weight(y), root, word))
        if len(word) == word_cap:
            continue
        for label, g in gens:
            child = g(y)
            if child not in seen:
                seen.add(child)
                queue.append((child, root, (label,) + word))
    return tuple(out)


def _search_view(walk: tuple, norm: Callable[[Flat], object]) -> tuple:
    """(ys, weights, norms, rays): the walk's flat elements, their weights
    and their admission norms (Cone.norm) heaviest first, ties in walk
    order, and for each primitive direction the ascending indices of the
    elements on its ray."""
    order = sorted(walk, key=lambda e: -e[1])
    ys = tuple(y for y, _, _, _ in order)
    weights = tuple(w for _, w, _, _ in order)
    rays = {}
    for i, y in enumerate(ys):
        rays.setdefault(linalg._primitive(y), []).append(i)
    return ys, weights, tuple(map(norm, ys)), rays


class _StreamCache:
    """(walk, search view) by (cone, n, word_cap, roots), least recently
    used first out once the walks held pass _MAX_HELD elements in all; a
    walk larger than that is built for its caller and not kept."""

    def __init__(self):
        self.entries: OrderedDict[tuple, tuple] = OrderedDict()
        self.held = 0

    def get(self, key: tuple) -> tuple:
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
            return entry
        walk = _walk(*key)
        entry = walk, _search_view(walk, cone_record(*key[:2]).norm)
        if len(walk) > _MAX_HELD:
            return entry
        self.entries[key] = entry
        self.held += len(walk)
        while self.held > _MAX_HELD:
            self.held -= len(self.entries.popitem(last=False)[1][0])
        return entry


_streams = _StreamCache()


@dataclass(frozen=True)
class GeneratorStream:
    """Breadth-first dual-semigroup elements g.r for words up to word_cap.

    Deduplicates by element, so each element carries its first (shortest)
    word.  `cap` optionally filters emissions by height/trace.  Roots must
    be nonzero elements of the cone; a repeated root is kept at its first
    place only.  The walk is computed once per (cone, n, word_cap, roots)
    and shared by every equal stream while the stream cache, bounded by
    the elements it holds, keeps it.
    """

    cone: str
    n: int
    word_cap: int
    roots: tuple | None = None
    cap: int | None = None

    def __post_init__(self):
        rec = cone_record(self.cone, self.n)
        if linalg.as_int(self.word_cap) < 0:
            raise ValueError("word_cap must be nonnegative")
        if self.cap is not None and linalg.as_int(self.cap) < 0:
            raise ValueError("cap must be nonnegative")
        if self.roots is None:  # the record's own: distinct, nonzero, in the cone
            roots = rec.roots
        else:
            flat = tuple(dict.fromkeys(rec.flatten(r) for r in self.roots))
            if not all(any(r) for r in flat):
                raise ValueError("roots must be nonzero")
            if not all(rec.member(r) for r in flat):
                raise ValueError("roots must lie in the cone")
            roots = tuple(rec.unflatten(r) for r in flat)
        object.__setattr__(self, "_cone", rec)
        object.__setattr__(self, "roots", roots)

    def _cached(self) -> tuple:
        return _streams.get((self.cone, self.n, self.word_cap, self.roots))

    def __iter__(self):
        unflatten = self._cone.unflatten
        walk, _ = self._cached()
        for y, w, root, word in walk:
            if self.cap is None or w <= self.cap:
                yield unflatten(y), root, word


def cg_cuts(sys: LCISystem, gen: GeneratorStream) -> list[CGCut]:
    """One cut u.x <= rhs per emitted generator, first provenance kept.

    Cuts that agree after dividing u and rhs by gcd(u) (only attempted when
    the division leaves rhs integral, so the floor is unaffected) are
    reported once.  rhs is y paired with c; with integral data the floor in
    the defining inequality is the identity and is applied implicitly.
    """
    if gen.cone != sys.cone or gen.n != sys.n:
        raise ValueError("generator stream does not match the system's cone")
    walk, _ = gen._cached()
    out = []
    seen = set()
    for y, w, root, word in walk:
        if gen.cap is not None and w > gen.cap:
            continue
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
    The rounds share one table of dead residuals, each with the least
    start index from which it has no sum at any depth: a residual is dead
    when every candidate it admits leads to a dead residual and none to
    one that the round's depth bound cut off.  Every later visit from
    that index or beyond is skipped.  A dead subtree holds no solution,
    so the search meets its solutions in the same order as without the
    table and returns the same first hit.

    The candidates are the stream's elements heaviest first, ties in walk
    order; those of weight at most min(weight(s), stream cap) are a suffix
    of the cached view, and each level starts where the weights drop to
    the residual's.  Subtracting fewer copies of a cone element keeps
    membership, so a candidate's feasible multiplicities run from 1 up to
    some largest one.  The cone record's `most` finds it (0 refuses
    the candidate), and the search descends from it to 1 without testing
    again.  PSD bisects with membership tests.  SOC solves the quadratic
    of the Lorentz form B in closed form (soc._most_multiple): each node
    takes B(res, res) once, each view element carries B(y, y), its root's
    value since every generator preserves B, and a candidate costs one
    product B(res, y) and at most one isqrt, with no residual built until
    it is admitted.  The last term must be the residual itself, lambda
    times one candidate: it is the first candidate on the residual's ray
    whose weight divides the residual's, found by the ray's primitive
    vector without a membership test.
    """
    if linalg.as_int(cap) < 0:
        raise ValueError("cap must be nonnegative")
    rec = gen._cone
    s = rec.flatten(s)
    if not in_semigroup(rec, s):
        raise ValueError("element is outside the cone")
    total = rec.weight(s)
    limit = total if gen.cap is None else min(total, gen.cap)
    _, (ys, weights, norms, rays) = gen._cached()
    norm, most = rec.norm, rec.most
    first = bisect_left(weights, -limit, key=neg)

    chosen = []
    dead = {}  # residual -> least start index with no sum at any depth

    def dfs(res, res_weight, k_left, i0):
        """True: found, terms in `chosen`; False: dead, no sum from i0 at
        any depth; None: cut by the depth bound."""
        if res_weight == 0:
            return not any(res)
        if dead.get(res, i0 + 1) <= i0:
            return False
        if k_left == 0:
            return None
        if k_left == 1:
            for i in rays.get(linalg._primitive(res), ()):
                if i >= i0 and res_weight % weights[i] == 0:
                    chosen.append((res_weight // weights[i], ys[i]))
                    return True
            return None
        outcome = False
        rn = norm(res)
        for i in range(max(i0, bisect_left(weights, -res_weight, key=neg)), len(ys)):
            y, w = ys[i], weights[i]
            for lam in range(most(res, rn, y, norms[i], res_weight // w), 0, -1):
                nxt = tuple(a - lam * b for a, b in zip(res, y))
                chosen.append((lam, y))
                child = dfs(nxt, res_weight - lam * w, k_left - 1, i + 1)
                if child:
                    return True
                chosen.pop()
                if child is None:
                    outcome = None
        if outcome is False:
            dead[res] = i0
        return outcome

    depth_limit = min(cap, total, len(ys) - first)
    for k in range(depth_limit + 1):
        chosen.clear()
        if dfs(s, total, k, first):
            terms = tuple((lam, rec.unflatten(y)) for lam, y in chosen)
            return IcrResult(status="ok", count=k, terms=terms)
    if cap >= min(total, len(ys) - first):
        return IcrResult(status="infeasible")
    return IcrResult(status="exceeded")
