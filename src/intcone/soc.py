"""Integer points of the second-order cone in dimensions 3 through 10.

T_n is the set of integer vectors whose last coordinate (the height)
dominates the Euclidean length of the rest.  Pythagorean tuples sit on the
boundary, sporadic points admit no Pythagorean peel at all, and a small
generator group (one reflection-like matrix plus coordinate permutations
and sign flips) drags every boundary or sporadic point down to a short
list of roots.  Decompositions come with replayable group-word
certificates.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt
from types import MappingProxyType

from . import linalg
from .linalg import Rows, UnimodularMatrix, vec_gcd

MIN_DIM = 3
MAX_DIM = 10


def lorentz_form(a, b) -> int:
    """Bilinear form: plain dot product on all but the last coordinate,
    minus the product of the last ones."""
    if len(a) != len(b):
        raise ValueError("vectors must have equal length")
    n = len(a)
    return sum(a[i] * b[i] for i in range(n - 1)) - a[n - 1] * b[n - 1]


def in_cone(s) -> bool:
    return s[-1] >= 0 and sum(v * v for v in s[:-1]) <= s[-1] * s[-1]


# -- generator group --------------------------------------------------------


def _require_dim(n: int):
    if not MIN_DIM <= n <= MAX_DIM:
        raise ValueError(f"dimension must be between {MIN_DIM} and {MAX_DIM}")


@lru_cache(maxsize=None)
def _generators(n: int) -> Mapping[str, Rows]:
    """The whole generator alphabet of dimension n, label -> rows, in label
    order: the descent matrix Aplus and its inverse, the sign flips Q1..Q{n-1}
    of one coordinate, and the transpositions P12..P1{n-1} of the first
    coordinate with another.  These 2 + (n - 1) + (n - 2) labels are the only
    ones; a word is read by lookup, never parsed.  Read-only, as it is
    cached.
    """
    _require_dim(n)
    eye = linalg.identity(n)
    if n == 3:
        aplus = ((1, 2, -2), (2, 1, -2), (-2, -2, 3))
    else:
        pad = (0,) * (n - 4)
        aplus = (
            (0, 1, 1) + pad + (-1,),
            (1, 0, 1) + pad + (-1,),
            (1, 1, 0) + pad + (-1,),
            *(tuple(-v for v in eye[i]) for i in range(3, n - 1)),
            (-1, -1, -1) + pad + (2,),
        )
    table = {"Aplus": aplus, "AplusInv": linalg.inverse_unimodular(aplus)}
    for k in range(1, n):
        table[f"Q{k}"] = tuple(
            tuple(-v for v in row) if i == k - 1 else row for i, row in enumerate(eye)
        )
    for j in range(2, n):
        swap = {0: j - 1, j - 1: 0}
        table[f"P1{j}"] = tuple(eye[swap.get(i, i)] for i in range(n))
    return MappingProxyType(table)


@lru_cache(maxsize=None)
def generator_matrix(label: str, n: int) -> UnimodularMatrix:
    return UnimodularMatrix(_generators(n)[label])


def apply_word(word, s):
    """Apply the word's matrix to s by linalg.apply_word on the table of
    s's dimension.  An empty word reads no table, so it returns s of any
    length unchanged."""
    s = tuple(s)
    return linalg.apply_word(_generators(len(s)), word, s) if word else s


# -- membership classes -----------------------------------------------------


def is_pythagorean(s) -> bool:
    return in_cone(s) and lorentz_form(s, s) == 0


def _peel_candidate(s, h: int, primitive_only: bool):
    """Lexicographically first Pythagorean p with p_n = h and s - p in T_n.

    Walks the first n-1 coordinates with two exact interval constraints:
    the partial sum of p_i^2 must stay within h^2 (hit it exactly at the
    end), and the partial sum of (s_i - p_i)^2 within (s_n - h)^2.  Each
    node also checks that the sphere slice left for the remaining
    coordinates still meets the remaining ball over the reals, which cuts
    off empty subtrees at once.
    """
    n = len(s)
    m = n - 1
    ball = (s[-1] - h) ** 2
    p = [0] * m
    suffix_sq = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix_sq[i] = suffix_sq[i + 1] + s[i] * s[i]

    def walk(i, sphere_left, ball_left):
        c = suffix_sq[i]
        gap = c + sphere_left - ball_left
        if gap > 0 and gap * gap > 4 * c * sphere_left:
            return None
        si = s[i]
        if i == m - 1:
            r = isqrt(sphere_left)
            if r * r != sphere_left:
                return None
            for v in ((-r, r) if r else (0,)):
                d = si - v
                if d * d <= ball_left:
                    p[i] = v
                    if not primitive_only or gcd(vec_gcd(p), h) == 1:
                        return tuple(p) + (h,)
            return None
        rs = isqrt(sphere_left)
        rb = isqrt(ball_left)
        lo = max(-rs, si - rb)
        hi = min(rs, si + rb)
        for v in range(lo, hi + 1):
            p[i] = v
            got = walk(i + 1, sphere_left - v * v, ball_left - (si - v) ** 2)
            if got is not None:
                return got
        return None

    return walk(0, h * h, ball)


def _first_peel(s, primitive_only: bool):
    """Largest-height, lexicographically first [primitive] Pythagorean p
    with s - p in T_n; None when no peel exists.

    Both settings find a peel on the same points: if s - k p' is in T_n
    for a primitive Pythagorean p' and some k >= 1, then s - p' = (1 -
    1/k) s + (1/k)(s - k p') is an integer point of the convex cone T_n.
    They differ in how far the walk goes: on a point whose early peels are
    multiples, the primitive walk runs on past them."""
    height = s[-1]
    c = sum(v * v for v in s[:-1])
    r = isqrt(c)
    for h in range(height, 0, -1):
        # a sphere of radius h must meet the ball around the prefix
        lead = 2 * h - height
        if lead > 0 and lead * lead > c:
            continue
        got = _peel_candidate(s, h, primitive_only)
        if got is not None:
            return got
    return None


def is_sporadic_soc(s) -> bool:
    """True iff no nonzero Pythagorean tuple can be subtracted within T_n.

    A form value of -1 short-circuits to true; a nonzero Pythagorean input
    short-circuits to false (it peels itself).  Otherwise the first peel
    of any kind ends the walk; a primitive one exists too (_first_peel),
    but the walk to it can run much longer.
    """
    if not in_cone(s):
        raise ValueError("point is outside the cone")
    f = lorentz_form(s, s)
    if f == -1:
        return True
    if f == 0:
        return not any(s)
    return _first_peel(s, primitive_only=False) is None


# -- normal form and descent ------------------------------------------------


def _normalize_steps(s):
    """Applied labels (in application order) bringing the first n-1
    coordinates to a nonnegative non-increasing arrangement."""
    n = len(s)
    cur = list(s)
    applied = []
    for k in range(1, n):
        if cur[k - 1] < 0:
            cur[k - 1] = -cur[k - 1]
            applied.append(f"Q{k}")
    m = n - 1
    for t in range(m - 1, 0, -1):
        j = min(range(t + 1), key=lambda i: cur[i])
        if cur[t] == cur[j]:
            continue
        if j != 0:
            cur[0], cur[j] = cur[j], cur[0]
            applied.append(f"P1{j + 1}")
        cur[0], cur[t] = cur[t], cur[0]
        applied.append(f"P1{t + 1}")
    return tuple(cur), applied


def descend(s):
    """Drag a primitive Pythagorean or sporadic point down to a root.

    Returns (root, word) with the word mapping the root back to s.  Each
    round normalizes, stops on a root, and otherwise applies the descent
    matrix, which must strictly lower the height; a failure to drop is a
    broken internal invariant and raises RuntimeError.  The word lists the
    inverse of each applied letter in application order: AplusInv for
    Aplus, the other letters as they are (they are involutions).
    """
    n = len(s)
    _require_dim(n)
    if not in_cone(s):
        raise ValueError("point is outside the cone")
    if vec_gcd(s) != 1:
        raise ValueError("point must be primitive")
    f = lorentz_form(s, s)
    if f != 0 and not is_sporadic_soc(s):
        raise ValueError("point is neither Pythagorean nor sporadic")
    root_set = set(roots(n))
    aplus = _generators(n)["Aplus"]
    cur = tuple(s)
    word: list[str] = []
    while True:
        cur, steps = _normalize_steps(cur)
        word.extend(steps)
        if cur in root_set:
            break
        h = cur[-1]
        cur = linalg.mat_vec(aplus, cur)
        word.append("AplusInv")
        if not in_cone(cur) or cur[-1] >= h:
            raise RuntimeError("descent failed to lower the height")
    return cur, tuple(word)


@lru_cache(maxsize=None)
def roots(n: int, minimal: bool = False) -> tuple[tuple[int, ...], ...]:
    """The root list per dimension, in the source listing order.

    minimal=True drops the three tall sporadic roots, one in dimension 9
    and two in dimension 10, that split as sums of other roots
    (root_splits).
    """
    _require_dim(n)
    e_last = (0,) * (n - 1) + (1,)
    diag = (1,) + (0,) * (n - 2) + (1,)
    if n <= 6:
        out = (diag, e_last)
    elif n == 7:
        out = (diag, e_last, (1, 1, 1, 1, 1, 1, 3))
    elif n == 8:
        out = (
            diag,
            e_last,
            (1, 1, 1, 1, 1, 1, 1, 3),
            (1, 1, 1, 1, 1, 1, 0, 3),
        )
    elif n == 9:
        out = (
            diag,
            e_last,
            (1, 1, 1, 1, 1, 1, 1, 1, 3),
            (1, 1, 1, 1, 1, 1, 1, 0, 3),
            (1, 1, 1, 1, 1, 1, 0, 0, 3),
            (2, 2, 2, 2, 2, 2, 2, 1, 6),
        )
    else:
        out = (
            diag,
            (1, 1, 1, 1, 1, 1, 1, 1, 1, 3),
            e_last,
            (1, 1, 1, 1, 1, 1, 1, 1, 0, 3),
            (1, 1, 1, 1, 1, 1, 1, 0, 0, 3),
            (1, 1, 1, 1, 1, 1, 0, 0, 0, 3),
            (2, 2, 2, 2, 2, 2, 2, 2, 1, 6),
            (2, 2, 2, 2, 2, 2, 2, 1, 0, 6),
        )
    if minimal:
        out = tuple(r for r in out if r not in root_splits(n))
    return out


def root_splits(n: int) -> dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]]:
    """How each non-minimal root decomposes as a sum of two other roots.

    The non-minimal roots are the roots of height 6.  Each such r splits as
    its floor half r // 2 plus the rest r - r // 2, both listed roots of
    height 3, in that (half, rest) order.
    """
    halves = {r: tuple(v // 2 for v in r) for r in roots(n) if r[-1] == 6}
    return {r: (h, tuple(a - b for a, b in zip(r, h))) for r, h in halves.items()}


# -- decomposition ----------------------------------------------------------


@dataclass(frozen=True)
class SocCertificate:
    """s as a sum of multiples of word-transported roots."""

    n: int
    terms: tuple[tuple[int, tuple[str, ...], tuple[int, ...]], ...]

    def reconstruct(self) -> tuple[int, ...]:
        total = [0] * self.n
        for lam, word, root in self.terms:
            moved = apply_word(word, root)
            for i in range(self.n):
                total[i] += lam * moved[i]
        return tuple(total)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"lambda": lam, "word": list(word), "root": list(root)}
                for lam, word, root in self.terms
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "SocCertificate":
        return cls(
            n=linalg.as_int(obj["n"]),
            terms=tuple(
                (
                    linalg.as_int(t["lambda"]),
                    linalg.as_labels(t["word"]),
                    tuple(map(linalg.as_int, t["root"])),
                )
                for t in obj["terms"]
            ),
        )


def _max_multiple(s, p) -> int:
    """Largest k with s - k p still in the cone, for Pythagorean p."""
    k = s[-1] // p[-1]
    cross = lorentz_form(s, p)
    if cross < 0:
        k = min(k, lorentz_form(s, s) // (2 * cross))
    return k


def decompose_soc(s, minimal_roots: bool = False) -> SocCertificate:
    """Peel Pythagorean tuples greedily, then descend the sporadic rest.

    Peels always take the largest-height, lexicographically first
    primitive Pythagorean tuple that stays subtractable, with its maximal
    integer multiple.  The sporadic residual (if any) is scaled to a
    primitive point, descended, and contributes one term; with
    minimal_roots=True a residual landing on a redundant root is split
    into the two smaller roots carried by the same word.
    """
    n = len(s)
    _require_dim(n)
    if not in_cone(s):
        raise ValueError("point is outside the cone")
    cur = tuple(s)
    terms: list[tuple[int, tuple[str, ...], tuple[int, ...]]] = []
    while any(cur):
        p = _first_peel(cur, primitive_only=True)
        if p is None:
            g = vec_gcd(cur)
            prim = tuple(v // g for v in cur)
            root, word = descend(prim)
            if minimal_roots and root in root_splits(n):
                x, y = root_splits(n)[root]
                terms.append((g, word, x))
                terms.append((g, word, y))
            else:
                terms.append((g, word, root))
            break
        lam = _max_multiple(cur, p)
        root, word = descend(p)
        terms.append((lam, word, root))
        cur = tuple(a - lam * b for a, b in zip(cur, p))
    return SocCertificate(n=n, terms=tuple(terms))


# -- orbit expansion --------------------------------------------------------


def pythagorean_orbit(n: int, max_height: int) -> list[tuple[int, ...]]:
    """All primitive Pythagorean tuples of height <= max_height.

    Breadth-first closure of the Pythagorean roots under the full
    generator alphabet, pruned at the height cap: a descent path never
    climbs, so every target is reachable without overshooting the cap.
    Output sorted by (height, coordinates).
    """
    _require_dim(n)
    if max_height < 0:
        raise ValueError("max_height must be nonnegative")
    mats = _generators(n).values()
    seen: set[tuple[int, ...]] = set()
    queue = deque(
        r for r in roots(n) if lorentz_form(r, r) == 0 and r[-1] <= max_height
    )
    seen.update(queue)
    while queue:
        s = queue.popleft()
        for m in mats:
            t = linalg.mat_vec(m, s)
            if t[-1] <= max_height and t not in seen:
                seen.add(t)
                queue.append(t)
    return sorted(seen, key=lambda p: (p[-1], p))
