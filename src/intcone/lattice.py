"""Enumeration of integer vectors below a quadratic-form bound.

Given a positive definite integer matrix A, walk every nonzero integer x
with x^T A x <= t.  Symmetric Bareiss elimination writes the form as
sum_k (d_{k+1} x_k + N_k)^2 / (d_k d_{k+1}), with d_k the leading principal
minors and N_k an integer combination of the coordinates after k, so the
last coordinate is chosen outermost; each coordinate then ranges over an
interval computed exactly from integer square roots, with integers only
(Fincke-Pohst enumeration, kept fraction-free).  Of the pair {x, -x} only
the representative whose first nonzero entry is positive is produced, in
ascending order per level, which fixes a deterministic total order used by
every "first hit" consumer in the package; the order does not depend on
the form, so an enumeration can resume after a point found under another.
The walk is one loop over per-level arrays (the loop form of Schnorr and
Euchner) with the last coordinate's level folded into the loop of the one
before it, which yields only the canonical values of x_0, so no point is
scanned for its sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from . import linalg


def _decompose(rows):
    """Fraction-free LDL^T split of a positive definite A, as (d, M).

    A is positive definite exactly when it is PSD of full rank, and then
    its symmetric elimination (linalg._psd_echelon) pivots on 0, 1, ... in
    turn: d[k] is the leading principal minor of order k (d[0] = 1) and
    row k of M holds the entries M[k][j], j > k, of the k-th elimination
    step, so that L_jk = M[k][j] / d[k+1] and D_k = d[k+1] / d[k].  Raises
    if A is not positive definite.
    """
    elim = linalg._psd_echelon(rows)
    if elim is None or len(elim[0]) < len(rows):
        raise ValueError("matrix is not positive definite")
    m = elim[1]
    return [1] + [m[k][k] for k in range(len(m))], m


@dataclass(frozen=True)
class QuadFormQuery:
    """A positive definite form together with an enumeration bound.

    Construction validates positive definiteness (the R D R^T split doubles
    as the check) and keeps the split for `points`.  The package's own
    adjugates, built and known positive definite, skip the query: their
    split goes to the walk, _points, directly.
    """

    a: linalg.Rows
    bound: int

    def __post_init__(self):
        object.__setattr__(self, "a", linalg.freeze(self.a))
        if not linalg.is_symmetric(self.a):
            raise ValueError("form matrix must be symmetric")
        if linalg.as_int(self.bound) < 0:
            raise ValueError("bound must be nonnegative")
        object.__setattr__(self, "_split", _decompose(self.a))

    def points(self):
        """An iterator over the canonical nonzero solutions in deterministic
        order: ascending in x_{n-1}, then in x_{n-2} and so on down to x_0,
        that is, by the reversed tuple, whatever the form.

        The walk (_points) is one loop over per-level arrays.  The level of
        x_0 is folded into the loop of x_1: each value of x_1 computes the
        interval of x_0 in place and yields only its canonical values, from
        0 when the first nonzero entry of x[1:] is positive and from 1
        otherwise.
        """
        return _points(self._split, self.bound)


def _points(split, bound, start=None):
    """The walk of QuadFormQuery.points on a split (d, M) from _decompose,
    for a bound >= 0 and a start of the form's length or None, unchecked:
    the solutions at or after start in that order, as psd.decompose
    resumes at its last peel, whether or not start is a solution itself.

    One loop over per-level arrays: at level k >= 1, x[k] is the value to
    try next and hi[k] the upper end of its interval, cap[k] = d[k] e with
    e = d[k+1] * (budget left), offs[k] the offsets N_i of the coordinates
    i <= k given x[k+1:], and sg[k] the sign of the first nonzero entry of
    x[k+1:].  Coordinate k may take v exactly when (v d[k+1] + N_k)^2 <=
    cap[k], that is |v d[k+1] + N_k| <= isqrt(cap[k]), as no integer sits
    strictly between isqrt(cap) and sqrt(cap).  A value past hi[k] returns
    to level k+1 and advances it.  Level 0 is folded into the loop of level
    1: each x[1] computes the interval of x_0 in place and yields only its
    canonical values, from 0 when x[1:] has a positive first nonzero entry
    (x[1] > 0, or x[1] = 0 and sg[1] > 0) and from 1 otherwise.  tight
    says x[k:] is start[k:]: a level entered tight starts at start[k] and
    stays tight when start[k] is at or above its lower end, else it starts
    at its lower end and clears the flag, and any advance clears it, so
    the start floors the first path alone.
    """
    d, m = split
    n = len(d) - 1
    if n == 0:
        return
    tight = start is not None
    if n == 1:
        d1 = d[1]
        lo = start[0] if tight and start[0] > 1 else 1
        for v in range(lo, isqrt(d1 * bound) // d1 + 1):
            yield (v,)
        return
    x = [0] * n
    hi = [0] * n
    cap = [0] * n
    offs = [None] * n
    sg = [0] * n
    j = n - 1
    cap[j] = d[j] * d[n] * bound
    offs[j] = [0] * n
    m0 = m[0]
    d1 = d[1]
    while True:
        # enter level j: cap[j], offs[j] and sg[j] are set
        nj = offs[j][j]
        dj = d[j + 1]
        r = isqrt(cap[j])
        hi[j] = (r - nj) // dj
        lo = -((r + nj) // dj)
        if tight:
            if start[j] >= lo:
                lo = start[j]
            else:
                tight = False
        x[j] = lo
        k = j
        while True:
            v = x[k]
            if v > hi[k]:
                k += 1
                if k == n:
                    return
                x[k] += 1
                tight = False
                continue
            o = offs[k]
            dk = d[k + 1]
            w = v * dk + o[k]
            e = (cap[k] - w * w) // dk
            if k > 1:
                break
            # level 0: d[0] = 1, so its cap is e itself
            n0 = o[0] + m0[1] * v
            r = isqrt(e)
            lo = -((r + n0) // d1)
            floor = 0 if v > 0 or (v == 0 and sg[1] > 0) else 1
            if tight and start[0] > floor:
                floor = start[0]
            if lo < floor:
                lo = floor
            for u in range(lo, (r - n0) // d1 + 1):
                x[0] = u
                yield tuple(x)
            x[1] = v + 1
            tight = False
        j = k - 1
        offs[j] = [o[i] + m[i][k] * v for i in range(k)]
        cap[j] = d[j] * e
        sg[j] = 1 if v > 0 else -1 if v < 0 else sg[k]


def enumerate_below(a, t: int) -> list[tuple[int, ...]]:
    """All nonzero x with x^T a x <= t, canonical signs, enumeration order."""
    return list(QuadFormQuery(a, t).points())


def _peel_data(x, elim):
    """The first-peel search of a frozen PSD X, as (lift, adj(B), det(B));
    elim is X's _psd_echelon when the caller holds it (_kx_first, and
    decompose on its first frame), or None, and then it is taken here.

    linalg._reduce_rank gives U^T X U = diag(0, B) with B full rank, U^{-T}
    from the same gcd ladder, and B's own symmetric elimination.  The peels
    of X (x with X - x x^T PSD) are exactly x = lift y with lift the last
    len(B) columns of U^{-T} and y a peel of B, i.e. y^T adj(B) y <= det(B).
    A peel lies in the range of X, so X - x x^T keeps the kernel of X, and
    while its rank holds the same U reduces it, to B - y y^T.  adj(B) is
    bordered up from B's leading minors, read off that elimination
    (linalg._bordered_adjugate).
    """
    if elim is None:
        elim = linalg._psd_echelon(x)
    _, u_inv_t, block, block_elim = linalg._reduce_rank(x, elim)
    zeros = len(u_inv_t) - len(block)
    lift = tuple(row[zeros:] for row in u_inv_t)
    adj, d = linalg._bordered_adjugate(block, block_elim)
    return lift, adj, d


def _lift(lift, y):
    """The peel of X that the peel y of B lifts to, signed so that its first
    nonzero entry is positive."""
    x = linalg.mat_vec(lift, y)
    return x if next(v for v in x if v) > 0 else tuple(-v for v in x)


def _kx_first(x, elim):
    """The first point of K(X) = {x != 0 : X - x x^T is PSD}, or None, for
    a frozen PSD X and its _psd_echelon elim."""
    lift, adj, d = _peel_data(x, elim)
    y = next(_points(_decompose(adj), d), None)
    return None if y is None else _lift(lift, y)
