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
from operator import mul
from types import MappingProxyType

from . import linalg
from .linalg import UnimodularMatrix, vec_gcd

MIN_DIM = 3
MAX_DIM = 10


def lorentz_form(a, b) -> int:
    """Bilinear form: plain dot product on all but the last coordinate,
    minus the product of the last ones."""
    if len(a) != len(b):
        raise ValueError("vectors must have equal length")
    return _form(a, b)


def _form(a, b) -> int:
    """lorentz_form without its length check, for vectors of one length."""
    return sum(map(mul, a, b)) - 2 * a[-1] * b[-1]


def in_cone(s) -> bool:
    return s[-1] >= 0 and sum(v * v for v in s[:-1]) <= s[-1] * s[-1]


# -- generator group --------------------------------------------------------


def _require_dim(n: int):
    if not MIN_DIM <= linalg.as_int(n) <= MAX_DIM:
        raise ValueError(f"dimension must be between {MIN_DIM} and {MAX_DIM}")


def _require_point(s) -> tuple[int, ...]:
    """The public entry check: s read with linalg.as_int as a tuple, of a
    dimension in 3..10 and in T_n.  Returns that tuple, which the entries
    use in place of s, so a bool or float entry raises TypeError."""
    s = tuple(map(linalg.as_int, s))
    _require_dim(len(s))
    if not in_cone(s):
        raise ValueError("point is outside the cone")
    return s


def _sum_letters(n: int) -> tuple[linalg.Letter, linalg.Letter]:
    """Aplus and AplusInv of dimension n as closed forms: the one
    definition of both, which _letters holds.

    Aplus = D R_r with D = diag(-1, ..., -1, 1) and R_r the Lorentz
    reflection v -> v - 2 B(v, r) / B(r, r) r in r = (1, 1, 1) for n = 3
    and r = (1, 1, 1, 0, ..., 0, 1) otherwise; both are involutions, so
    AplusInv = R_r D.  With k = 2, c = 2 for n = 3 and k = 3, c = 1
    otherwise, sigma = +-1 and b = c (v_1 + ... + v_k - sigma v_n),
        v -> (b - v_1, ..., b - v_k, -v_{k+1}, ..., -v_{n-1}, v_n - sigma b)
    is Aplus for sigma = 1 and AplusInv for sigma = -1: one body per
    dimension family.  Like a linalg letter, each indexes v without
    checking its length.
    """
    m = n - 1

    def letter(sigma):
        if n == 3:

            def g(v):
                x, y, z = v
                b = 2 * (x + y - sigma * z)
                return (b - x, b - y, z - sigma * b)

        else:

            def g(v):
                x, y, z, t = v[0], v[1], v[2], v[m]
                b = x + y + z - sigma * t
                return (b - x, b - y, b - z, *[-u for u in v[3:m]], t - sigma * b)

        g.size = n
        return g

    return letter(1), letter(-1)


# _SIGN_LABELS[k] flips coordinate k, _SWAP_LABELS[j] swaps coordinate j
# with the first (j >= 1: _SWAP_LABELS[0] is no label)
_SIGN_LABELS = tuple(f"Q{k + 1}" for k in range(MAX_DIM - 1))
_SWAP_LABELS = tuple(f"P1{j + 1}" for j in range(MAX_DIM - 1))


@lru_cache(maxsize=None, typed=True)
def _letters(n: int) -> Mapping[str, linalg.Letter]:
    """The one definition of the generator alphabet of dimension n, label
    -> letter in label order: Aplus and AplusInv (_sum_letters), the sign
    flips Q1..Q{n-1} of one coordinate and the transpositions P12..P1{n-1}
    of the first coordinate with another, keyed by _SIGN_LABELS and
    _SWAP_LABELS.  These are the only labels; a word is read by lookup,
    never parsed.  Read-only, as it is cached.
    """
    _require_dim(n)
    table = dict(zip(("Aplus", "AplusInv"), _sum_letters(n)))
    for k in range(n - 1):
        table[_SIGN_LABELS[k]] = linalg.sparse_letter(
            [(i, -1 if i == k else 1)] for i in range(n)
        )
    for j in range(1, n - 1):
        swap = {0: j, j: 0}
        table[_SWAP_LABELS[j]] = linalg.sparse_letter([(swap.get(i, i), 1)] for i in range(n))
    return MappingProxyType(table)


@lru_cache(maxsize=None, typed=True)
def generator_matrix(label: str, n: int) -> UnimodularMatrix:
    """The matrix of letter `label` of dimension n, its columns the images
    of the unit vectors under linalg.apply_word, so a label outside the
    alphabet raises its ValueError."""
    letters = _letters(n)
    cols = [linalg.apply_word(letters, (label,), e) for e in linalg.identity(n)]
    return UnimodularMatrix(linalg.transpose(cols))


def apply_word(word, s):
    """Apply the word's matrix to s, read with linalg.as_int, by
    linalg.apply_word on the letters of s's dimension.  An empty word
    reads no table, so it returns s of any length unchanged."""
    s = tuple(map(linalg.as_int, s))
    return linalg.apply_word(_letters(len(s)), word, s) if word else s


# -- membership classes -----------------------------------------------------


def is_pythagorean(s) -> bool:
    """Whether s, read with linalg.as_int, lies in T_n with form 0."""
    s = tuple(map(linalg.as_int, s))
    return in_cone(s) and _form(s, s) == 0


def _three_squares(x: int) -> bool:
    """True iff x >= 0 is a sum of three squares: by Legendre's theorem,
    iff x is not 4^a (8b + 7)."""
    if not x:
        return True
    e = (x & -x).bit_length() - 1
    return bool(e & 1) or (x >> e) & 7 != 7


def _not_two_squares(x: int) -> bool:
    """A sufficient test that x >= 0 is not a sum of two squares: the odd
    part of x is 3 mod 4, or 3 divides x exactly once.  Either way a prime
    3 mod 4 divides x to an odd power.  No trial division, so the cost
    stays O(log x)."""
    if not x:
        return False
    return (x >> ((x & -x).bit_length() - 1)) & 3 == 3 or (
        x % 3 == 0 and x % 9 != 0
    )


def _peel_candidate(s, h: int, primitive_only: bool):
    """Lexicographically first Pythagorean p with p_n = h and s - p in T_n.

    Walks the first n-1 coordinates with two exact interval constraints:
    the partial sum of p_i^2 must stay within h^2 (hit it exactly at the
    end), and the partial sum of (s_i - p_i)^2 within (s_n - h)^2.

    A node is entered only if the sphere slice left for the remaining
    coordinates still meets the remaining ball over the reals.  The only
    caller, _first_peel, tests the root, by a height test that is the
    root's own on T_n.  Every other node is tested in its parent's loop,
    where the gap of child v is linear in v, so a refused child is never
    entered.  The loop stops at the first refused child after an admitted
    one, and that is exact: child v is admitted exactly when v is an
    integer in the projection onto coordinate i of the real cap
    {x in R^k : |x|^2 = S, |x - s[i:]|^2 <= B} (S and B the sphere and
    ball budgets left, k = n-1-i >= 2).  On the sphere the ball is the
    half-space x . s[i:] >= (|s[i:]|^2 + S - B) / 2, and a sphere of
    dimension k-1 >= 1 cut by a half-space is connected, so its
    projection is an interval.

    An admitted child is still skipped, and not entered, when no integer
    point lies under it: one that would leave three coordinates on a
    budget that is no sum of three squares (_three_squares), or two on
    one that _not_two_squares refuses.  The node of coordinate n-2 tests
    each child's leaf in its own loop, with one isqrt.  A skipped child
    stays admitted for the stop rule, as it lies in the real cap.

    The walk is one loop over a stack of suspended levels, with no call
    per node (the Schnorr-Euchner form of Fincke-Pohst enumeration, as in
    lattice._points).  A level is entered on its budgets S and B.
    Descending into child v keeps v in p[i] and pushes the level's (hi,
    S, B, t2); backtracking pops them and resumes the level at p[i] + 1
    with the level admitted, as it admitted p[i].  So the nodes are
    entered in depth-first order, as by one call per node, and the first
    hit is the same.
    """
    n = len(s)
    m = n - 1
    p = [0] * m
    suffix_sq = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix_sq[i] = suffix_sq[i + 1] + s[i] * s[i]
    last = m - 2  # the level that tests its children's leaves
    stack = []
    i, S, B = 0, h * h, (s[-1] - h) ** 2
    lo = None  # None while level i is to be entered, else where it resumes
    while True:
        si = s[i]
        c4 = 4 * suffix_sq[i + 1]
        if lo is None:
            rs, rb = isqrt(S), isqrt(B)  # level entry: i, S, B
            lo, hi = si - rb, si + rb
            if lo < -rs:
                lo = -rs
            if hi > rs:
                hi = rs
            t2 = suffix_sq[i] + S - B
            admitted = False
        for v in range(lo, hi + 1):
            left = S - v * v
            gap = t2 - 2 * si * v
            if gap > 0 and gap * gap > c4 * left:
                if admitted:
                    break
                continue
            admitted = True
            if i == last:
                # the last coordinate w must square to left exactly
                r = isqrt(left)
                if r * r != left:
                    continue
                ball_left_w = B - (si - v) ** 2
                for w in ((-r, r) if r else (0,)):
                    d = s[m - 1] - w
                    if d * d <= ball_left_w:
                        p[i], p[m - 1] = v, w
                        if not primitive_only or gcd(vec_gcd(p), h) == 1:
                            return tuple(p) + (h,)
                continue
            if i == m - 3 and _not_two_squares(left) or i == m - 4 and not _three_squares(left):
                continue
            p[i] = v
            stack.append((hi, S, B, t2))
            i, S, B = i + 1, left, B - (si - v) ** 2
            lo = None
            break
        if lo is None:
            continue
        if not stack:
            return None
        i -= 1
        hi, S, B, t2 = stack.pop()
        lo, admitted = p[i] + 1, True


def _first_peel(s, primitive_only: bool, top: int | None = None):
    """Largest-height, lexicographically first [primitive] Pythagorean p
    with s - p in T_n and p_n <= top (default s_n); None when there is
    none.  decompose_soc passes top, to skip heights that an earlier peel
    already refuted.

    Both settings find a peel on the same points: if s - k p' is in T_n
    for a primitive Pythagorean p' and some k >= 1, then s - p' = (1 -
    1/k) s + (1/k)(s - k p') is an integer point of the convex cone T_n.
    They differ in how far the walk goes: on a point whose early peels are
    multiples, the primitive walk runs on past them."""
    height = s[-1]
    c = sum(v * v for v in s[:-1])
    for h in range(height if top is None else top, 0, -1):
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
    s = _require_point(s)
    f = _form(s, s)
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
    for k in range(n - 1):
        if cur[k] < 0:
            cur[k] = -cur[k]
            applied.append(_SIGN_LABELS[k])
    for t in range(n - 2, 0, -1):
        low = min(cur[: t + 1])
        if cur[t] == low:
            continue
        j = cur.index(low)
        if j != 0:
            cur[0], cur[j] = cur[j], cur[0]
            applied.append(_SWAP_LABELS[j])
        cur[0], cur[t] = cur[t], cur[0]
        applied.append(_SWAP_LABELS[t])
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
    s = _require_point(s)
    if vec_gcd(s) != 1:
        raise ValueError("point must be primitive")
    # is_sporadic_soc's test on the point already read: form 0 is
    # Pythagorean, form -1 sporadic, any other sporadic iff it has no peel
    if _form(s, s) not in (0, -1) and _first_peel(s, primitive_only=False) is not None:
        raise ValueError("point is neither Pythagorean nor sporadic")
    return _descent(s)


def _descent(cur):
    """descend's loop without its entry checks, for a tuple its caller
    already knows to be a primitive Pythagorean or sporadic point of T_n,
    n in 3..10: descend's point, decompose_soc's peels and its residual."""
    n = len(cur)
    aplus = _letters(n)["Aplus"]
    found = _ROOT_SETS[n]
    word: list[str] = []
    while True:
        cur, steps = _normalize_steps(cur)
        word.extend(steps)
        if cur in found:
            break
        h = cur[-1]
        cur = aplus(cur)
        word.append("AplusInv")
        if not in_cone(cur) or cur[-1] >= h:
            raise RuntimeError("descent failed to lower the height")
    return cur, tuple(word)


@lru_cache(maxsize=None, typed=True)
def roots(n: int, minimal: bool = False) -> tuple[tuple[int, ...], ...]:
    """The root list per dimension, in the source listing order.

    minimal=True drops the three tall roots (height 6), one in dimension 9
    and two in dimension 10, that split as sums of other roots
    (root_splits).  Only the one in dimension 9 is sporadic: each of the
    two in dimension 10 keeps the Pythagorean peel (1, ..., 1, 3).
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


# every root of each dimension, for the descent's stopping test
_ROOT_SETS = {n: frozenset(roots(n)) for n in range(MIN_DIM, MAX_DIM + 1)}


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
        obj = linalg.as_obj(obj)
        return cls(
            n=linalg.as_int(obj["n"]),
            terms=tuple(
                (
                    linalg.as_int(t["lambda"]),
                    linalg.as_labels(t["word"]),
                    tuple(map(linalg.as_int, t["root"])),
                )
                for t in map(linalg.as_obj, obj["terms"])
            ),
        )


def _most_multiple(s, ss, y, yy, top) -> int:
    """The largest lam <= top with s - lam y in T_n, 0 if there is none,
    for s, y in T_n, ss = B(s, s), yy = B(y, y) and 1 <= top <= s_n // y_n.

    As heights stay nonnegative, that is q(lam) = ss - 2 lam c + lam^2 yy
    <= 0 with c = B(s, y) <= 0.  q holds everywhere if c = 0, up to ss / 2c
    if yy = 0, and otherwise, concave, everywhere if its discriminant
    c^2 - yy ss is 0, else up to its smaller root (c + sqrt(c^2 - yy ss)) /
    yy, as s - y lies below the larger.  lam = 1 is tested first: it
    refuses most candidates of a rank search without an isqrt."""
    c = _form(s, y)
    if ss - 2 * c + yy > 0:
        return 0
    if c >= 0:
        return top
    if not yy:
        return min(top, ss // (2 * c))
    d = c * c - yy * ss
    if d <= 0:
        return top
    return min(top, (c + isqrt(d - 1) + 1) // yy)


def decompose_soc(s, minimal_roots: bool = False) -> SocCertificate:
    """Peel Pythagorean tuples greedily, then descend the sporadic rest.

    Peels always take the largest-height, lexicographically first
    primitive Pythagorean tuple that stays subtractable, with its maximal
    integer multiple.  Each later search starts at the last peel's height:
    if s' = s - lam p and s' - q is in T_n, then so is s - q = (s' - q) +
    lam p, so every peel of s' is a peel of s, and no primitive one is
    taller than p.  The sporadic residual (if any) is scaled to a
    primitive point, descended, and contributes one term; with
    minimal_roots=True a residual landing on a redundant root is split
    into the two smaller roots carried by the same word.

    Both descents skip descend's entry checks (_descent): a peel is
    primitive, Pythagorean and in the cone by construction, and when no
    primitive peel at or below top exists, the residual has no peel at
    all, by the argument above and _first_peel's; nor has its primitive
    part q, since cur - p' = (g - 1) q + (q - p') for any peel p' of q.
    """
    cur = _require_point(s)
    n = len(cur)
    top = cur[-1]
    terms: list[tuple[int, tuple[str, ...], tuple[int, ...]]] = []
    while any(cur):
        p = _first_peel(cur, primitive_only=True, top=top)
        if p is None:
            g = vec_gcd(cur)
            root, word = _descent(linalg._primitive(cur))
            if minimal_roots and root in root_splits(n):
                x, y = root_splits(n)[root]
                terms.append((g, word, x))
                terms.append((g, word, y))
            else:
                terms.append((g, word, root))
            break
        lam = _most_multiple(cur, _form(cur, cur), p, 0, cur[-1] // p[-1])
        root, word = _descent(p)
        terms.append((lam, word, root))
        cur = tuple(a - lam * b for a, b in zip(cur, p))
        top = min(cur[-1], p[-1])
    return SocCertificate(n=n, terms=tuple(terms))


# -- orbit expansion --------------------------------------------------------


def pythagorean_orbit(n: int, max_height: int) -> list[tuple[int, ...]]:
    """All primitive Pythagorean tuples of height <= max_height.

    Breadth-first closure of the Pythagorean roots under the full
    generator alphabet, pruned at the height cap: a descent path never
    climbs, so every target is reachable without overshooting the cap.
    Output sorted by (height, coordinates).
    """
    letters = _letters(n).values()
    if linalg.as_int(max_height) < 0:
        raise ValueError("max_height must be nonnegative")
    seen: set[tuple[int, ...]] = set()
    queue = deque(
        r for r in roots(n) if lorentz_form(r, r) == 0 and r[-1] <= max_height
    )
    seen.update(queue)
    while queue:
        s = queue.popleft()
        for g in letters:
            t = g(s)
            if t[-1] <= max_height and t not in seen:
                seen.add(t)
                queue.append(t)
    return sorted(seen, key=lambda p: (p[-1], p))
