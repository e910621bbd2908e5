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
every "first hit" consumer in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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


def _floor_div_surd(p: int, d: int, q: int) -> int:
    # floor((p + sqrt(d)) / q) for q > 0, d >= 0; exact because no integer
    # can sit strictly between isqrt(d) and sqrt(d).
    return (p + isqrt(d)) // q


def _decompose(rows):
    """Fraction-free LDL^T split of a positive definite A, as (d, M).

    The Bareiss echelon of A: without a row swap its pivots are the leading
    principal minors, so A is positive definite exactly when the echelon
    makes no swap and finds n pivots, all positive (Sylvester's criterion).
    Then d[k] is the leading principal minor of order k (d[0] = 1) and row k
    of M holds the entries M[k][j], j > k, of the k-th elimination step, so
    that L_jk = M[k][j] / d[k+1] and D_k = d[k+1] / d[k].  Raises if A is
    not positive definite.
    """
    m, pivots, swaps = linalg._echelon(rows)
    d = [1] + [m[k][k] for k in range(len(pivots))]
    if swaps or len(pivots) < len(m) or min(d) <= 0:
        raise ValueError("matrix is not positive definite")
    return d, m


@dataclass(frozen=True)
class QuadFormQuery:
    """A positive definite form together with an enumeration bound.

    Construction validates positive definiteness (the R D R^T split doubles
    as the check) and caches the split, so `points` reuses the split that
    the constructor checked instead of computing it again.
    """

    a: linalg.Rows
    bound: int

    def __post_init__(self):
        object.__setattr__(self, "a", linalg.freeze(self.a))
        if not linalg.is_symmetric(self.a):
            raise ValueError("form matrix must be symmetric")
        if linalg.as_int(self.bound) < 0:
            raise ValueError("bound must be nonnegative")
        self._split  # force PD validation at construction

    @cached_property
    def _split(self):
        return _decompose(self.a)

    def points(self):
        """Yield the canonical nonzero solutions in deterministic order."""
        d, m = self._split
        n = len(d) - 1
        if n == 0:
            return
        x = [0] * n

        def level(k, e, offs):
            # e = d[k+1] * (budget left); coordinate k may take v exactly
            # when (v d[k+1] + offs[k])^2 <= d[k] e
            dk, nk = d[k + 1], offs[k]
            cap = d[k] * e
            hi = _floor_div_surd(-nk, cap, dk)
            lo = -_floor_div_surd(nk, cap, dk)
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

        yield from level(n - 1, d[n] * self.bound, [0] * n)


def enumerate_below(a, t: int) -> list[tuple[int, ...]]:
    """All nonzero x with x^T a x <= t, canonical signs, enumeration order."""
    return list(QuadFormQuery(a, t).points())


def _peel_data(x_rows):
    """The first-peel search of a PSD X, as (lift, adj(B), det(B)).

    linalg.reduce_rank gives U^T X U = diag(0, B) with B full rank, and
    U^{-T} from the same gcd ladder.  The peels of X (x with X - x x^T PSD)
    are exactly x = lift y with lift the last len(B) columns of U^{-T} and
    y a peel of B, i.e. y^T adj(B) y <= det(B).  A peel lies in the range of
    X, so X - x x^T keeps the kernel of X, and while its rank holds the same
    U reduces it, to B - y y^T.  adj(B) and det(B) come from one echelon
    of [B | I] (linalg._adjugate_det).
    """
    _, u_inv_t, block = linalg.reduce_rank(x_rows)
    zeros = len(u_inv_t) - len(block)
    lift = tuple(row[zeros:] for row in u_inv_t)
    adj, d = linalg._adjugate_det(block)
    return lift, adj, d


def _lift(lift, y):
    """The peel of X that the peel y of B lifts to, signed so that its first
    nonzero entry is positive."""
    x = linalg.mat_vec(lift, y)
    return x if next(v for v in x if v) > 0 else tuple(-v for v in x)


def _kx_first(x_rows):
    """The first point of K(X) = {x != 0 : X - x x^T is PSD}, or None."""
    lift, adj, d = _peel_data(x_rows)
    y = next(QuadFormQuery(adj, d).points(), None)
    return None if y is None else _lift(lift, y)
