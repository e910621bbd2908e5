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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import linalg


_GAMMA_EXACT = {
    1: Fraction(1),
    2: Fraction(4, 3),
    3: Fraction(2),
    4: Fraction(4),
    5: Fraction(8),
    6: Fraction(64, 3),
    7: Fraction(64),
    8: Fraction(256),
    24: Fraction(4) ** 24,
}


def hermite_gamma(n: int) -> Fraction:
    """gamma_n^n: exact for n <= 8 and n = 24, Mordell-style bound otherwise.

    These are the constants in lambda_1(L)^n <= gamma_n^n * det(Gram), i.e.
    already raised to the n-th power so every comparison stays rational.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n in _GAMMA_EXACT:
        return _GAMMA_EXACT[n]
    return Fraction(4, 3) ** (n * (n - 1) // 2)


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
    as the check) and keeps the split for `points`.
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

    def points(self, start=None):
        """Yield the canonical nonzero solutions in deterministic order:
        ascending in x_{n-1}, then in x_{n-2} and so on down to x_0, that
        is, by the reversed tuple, whatever the form.

        With start, a vector of the form's length, only the solutions at or
        after start in that order are yielded, whether or not start is a
        solution itself; a start of another length raises ValueError.  The
        start is applied once per level, as a floor on the levels that
        match its prefix, so the enumeration after it is the plain one.
        """
        d, m = self._split
        n = len(d) - 1
        if start is not None:
            start = tuple(map(linalg.as_int, start))
            if len(start) != n:
                raise ValueError("start must have the form's length")
        if n == 0:
            return
        x = [0] * n

        def level(k, e, offs, tight=False):
            # e = d[k+1] * (budget left); coordinate k may take v exactly
            # when (v d[k+1] + offs[k])^2 <= d[k] e; tight says x[k+1:] is
            # start[k+1:], so x[k] starts at start[k], the one value whose
            # subtree is tight in turn
            dk, nk = d[k + 1], offs[k]
            cap = d[k] * e
            # the integer v d[k+1] + offs[k] squares to at most cap exactly
            # when its absolute value is at most isqrt(cap), as no integer
            # sits strictly between isqrt(cap) and sqrt(cap)
            r = isqrt(cap)
            hi = (r - nk) // dk
            lo = -((r + nk) // dk)
            if tight:
                s = start[k]
                if k and lo <= s <= hi:
                    x[k] = s
                    w = s * dk + nk
                    offs2 = [offs[i] + m[i][k] * s for i in range(k)]
                    yield from level(k - 1, (cap - w * w) // dk, offs2, True)
                    lo = s + 1
                elif s > lo:
                    lo = s
            for v in range(lo, hi + 1):
                x[k] = v
                if k == 0:
                    for xi in x:
                        if xi > 0:
                            yield tuple(x)
                            break
                        if xi < 0:
                            break
                else:
                    w = v * dk + nk
                    offs2 = [offs[i] + m[i][k] * v for i in range(k)]
                    yield from level(k - 1, (cap - w * w) // dk, offs2)
            x[k] = 0

        yield from level(n - 1, d[n] * self.bound, [0] * n, start is not None)


def enumerate_below(a, t: int) -> list[tuple[int, ...]]:
    """All nonzero x with x^T a x <= t, canonical signs, enumeration order."""
    return list(QuadFormQuery(a, t).points())


def _peel_data(x, elim=None):
    """The first-peel search of a frozen PSD X, as (lift, adj(B), det(B));
    elim is X's _psd_echelon when the caller holds it, else it is taken
    here.

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


def _kx_first(x_rows, elim=None):
    """The first point of K(X) = {x != 0 : X - x x^T is PSD}, or None; elim
    is X's _psd_echelon when the caller holds it."""
    lift, adj, d = _peel_data(linalg.freeze(x_rows), elim)
    y = next(QuadFormQuery(adj, d).points(), None)
    return None if y is None else _lift(lift, y)
