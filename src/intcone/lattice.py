"""Enumeration of integer vectors below a quadratic-form bound.

Given a positive definite integer matrix A, walk every nonzero integer x
with x^T A x <= t.  The recursion splits the form as sum_k D_k (x_k +
sum_{j>k} R_kj x_j)^2 with R unit upper-triangular, so the last coordinate
is chosen outermost; each coordinate then ranges over an interval computed
exactly from integer square roots (no floats).  Of the pair {x, -x} only
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
    """LDL^T split of a positive definite A, returned as (L^T, D).

    With L unit lower-triangular the form is sum_k D_k (x_k + sum_{j>k}
    L_jk x_j)^2, so once the coordinates after position k are fixed the
    k-th one ranges over an interval.  Raises if A is not positive definite.
    """
    n = len(rows)
    b = [[Fraction(rows[i][j]) for j in range(n)] for i in range(n)]
    l = [[Fraction(0)] * n for _ in range(n)]
    d = [Fraction(0)] * n
    for j in range(n):
        s = b[j][j] - sum(l[j][k] * l[j][k] * d[k] for k in range(j))
        if s <= 0:
            raise ValueError("matrix is not positive definite")
        d[j] = s
        l[j][j] = Fraction(1)
        for i in range(j + 1, n):
            v = b[i][j] - sum(l[i][k] * l[j][k] * d[k] for k in range(j))
            l[i][j] = v / s
    r = [[l[j][i] for j in range(n)] for i in range(n)]
    return r, d


@dataclass(frozen=True)
class QuadFormQuery:
    """A positive definite form together with an enumeration bound.

    Construction validates positive definiteness (the R D R^T split doubles
    as the check) and caches the split for repeated enumeration.
    """

    a: linalg.Rows
    bound: int

    def __post_init__(self):
        object.__setattr__(self, "a", linalg.freeze(self.a))
        if not linalg.is_symmetric(self.a):
            raise ValueError("form matrix must be symmetric")
        if self.bound < 0:
            raise ValueError("bound must be nonnegative")
        self._split  # force PD validation at construction

    @cached_property
    def _split(self):
        return _decompose(self.a)

    def points(self):
        """Yield the canonical nonzero solutions in deterministic order."""
        r, d = self._split
        n = len(d)
        if n == 0:
            return
        x = [0] * n
        zero = Fraction(0)

        def level(k, rem, off):
            dk = d[k]
            ok = off[k]
            cap = rem / dk
            p_num, q_den = cap.numerator, cap.denominator
            a_num, b_den = ok.numerator, ok.denominator
            # |v + ok| <= sqrt(cap):  v in [ceil(-ok - s), floor(-ok + s)]
            big_p = -a_num * q_den
            big_d = p_num * q_den * b_den * b_den
            big_q = b_den * q_den
            hi = _floor_div_surd(big_p, big_d, big_q)
            lo = -_floor_div_surd(a_num * q_den, big_d, big_q)
            for v in range(lo, hi + 1):
                x[k] = v
                used = dk * (v + ok) ** 2
                if k == 0:
                    for xi in x:
                        if xi > 0:
                            yield tuple(x)
                            break
                        if xi < 0:
                            break
                else:
                    rem2 = rem - used
                    off2 = [off[i] + r[i][k] * v for i in range(k)]
                    yield from level(k - 1, rem2, off2)
            x[k] = 0

        yield from level(n - 1, Fraction(self.bound), [zero] * n)


def enumerate_below(a, t: int) -> list[tuple[int, ...]]:
    """All nonzero x with x^T a x <= t, canonical signs, enumeration order."""
    return list(QuadFormQuery(a, t).points())


def shortest_nonzero(a):
    """(lambda_1, minimizer): the minimum of the form over nonzero integer
    vectors and the first vector attaining it in enumeration order."""
    a = linalg.freeze(a)
    t0 = min(a[i][i] for i in range(len(a)))
    best = None
    best_x = None
    for x in QuadFormQuery(a, t0).points():
        v = _form(a, x)
        if best is None or v < best:
            best, best_x = v, x
    return best, best_x


def _form(a, x):
    return sum(a[i][j] * x[i] * x[j] for i in range(len(x)) for j in range(len(x)))


def _kx_first(x_rows):
    n = len(x_rows)
    if n == 0:
        return None
    r = linalg.rank(x_rows)
    if r == n:
        adj = linalg.adjugate(x_rows)
        d = linalg.det(x_rows)
        return next(QuadFormQuery(adj, d).points(), None)
    u, block = linalg.reduce_rank(x_rows)
    if not block:
        return None
    y = _kx_first(block)
    if y is None:
        return None
    padded = (0,) * (n - len(block)) + y
    u_inv_t = linalg.transpose(linalg.inverse_unimodular(u))
    lifted = linalg.mat_vec(u_inv_t, padded)
    first = next(v for v in lifted if v)
    if first < 0:
        lifted = tuple(-v for v in lifted)
    return lifted
