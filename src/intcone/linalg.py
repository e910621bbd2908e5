"""Exact linear algebra over the integers.

Everything in here works on small dense matrices represented as tuples (or
lists) of rows of Python ints.  No floats and no fractions anywhere: one
fraction-free (Bareiss) echelon, whose entries are minors of the input so
that every division in it is exact, serves the determinant, the rank, the
kernel vector and lattice's positive-definite split, and, run on [A | I],
the adjugate and the unimodular inverse; `_psd_rank`, behind
`is_psd_exact` and the rank split, is its symmetric variant, pivoting on
the diagonal.  One gcd ladder per kernel vector builds, in place, the
rank split's U and U^{-T}.  Matrices stay well under 11x11 here, so the
code favours clarity over asymptotics.  `apply_word` is the one fold of
a generator word.  `as_int` is the one rule for integers read from JSON
or passed to a constructor, `as_str` the one for JSON strings, and
`as_labels` the one for lists of labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

Rows = tuple[tuple[int, ...], ...]


def as_int(v) -> int:
    """v itself if it is an int: the one rule for integers read from JSON.
    bool, float and str input is never coerced but raises TypeError."""
    if type(v) is not int:
        raise TypeError(f"{json.dumps(v)} is not an integer")
    return v


def as_str(v) -> str:
    """v itself if it is a str: the one rule for labels, names and kinds
    read from JSON.  Any other value raises TypeError."""
    if type(v) is not str:
        raise TypeError(f"{json.dumps(v)} is not a string")
    return v


def as_labels(v) -> tuple[str, ...]:
    """A list of strings as a tuple of labels: the one rule for words read
    from JSON.  Anything else, a bare string included, raises TypeError
    instead of being split into characters."""
    if type(v) is not list:
        raise TypeError(f"{json.dumps(v)} is not a list of labels")
    return tuple(map(as_str, v))


def int_rows(obj) -> Rows:
    """Rows read with as_int; the shape is left to the caller."""
    return tuple(tuple(map(as_int, row)) for row in obj)


def freeze(rows) -> Rows:
    """A square row-iterable as an immutable tuple-of-tuples, read with
    as_int: a non-int entry raises TypeError, a ragged shape ValueError."""
    out = int_rows(rows)
    if any(len(row) != len(out) for row in out):
        raise ValueError("matrix must be square")
    return out


def is_symmetric(rows) -> bool:
    n = len(rows)
    return all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i))


def identity(n: int) -> Rows:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(rows) -> Rows:
    return tuple(zip(*[tuple(r) for r in rows])) if rows else ()


def mat_mul(a, b) -> Rows:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a, v) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def apply_word(table, word, v) -> tuple[int, ...]:
    """The word's matrix applied to v, for a table label -> rows: folded
    right to left, so no matrix product is ever formed.  A label outside
    the table raises ValueError."""
    v = tuple(v)
    for label in reversed(word):
        g = table.get(label)
        if g is None:
            raise ValueError(f"unknown generator label {label!r}")
        v = mat_vec(g, v)
    return v


def vec_gcd(v) -> int:
    g = 0
    for a in v:
        g = gcd(g, a)
    return g


def det(rows) -> int:
    """Determinant: the signed last pivot of the fraction-free echelon form.

    0 when some column has no pivot; the empty 0x0 matrix has determinant 1
    (empty product).
    """
    n = len(rows)
    if n == 0:
        return 1
    a, pivots, swaps = _echelon(rows)
    if len(pivots) < n:
        return 0
    return -a[n - 1][n - 1] if swaps % 2 else a[n - 1][n - 1]


def adjugate(rows) -> Rows:
    """Adjugate of a nonsingular symmetric matrix (the result is symmetric
    as well), from one echelon of [A | I].  Singular input raises
    ValueError, as in inverse_unimodular."""
    if not is_symmetric(rows):
        raise ValueError("adjugate expects a symmetric matrix")
    adj, _ = _adjugate_det(rows)
    if adj is None:
        raise ValueError("adjugate expects a nonsingular matrix")
    return adj


def _adjugate_det(rows):
    """(adj(A), det(A)) from one echelon of [A | I]; (None, 0) if singular.

    The echelon takes [A | I] to [R | E] with R = E A upper triangular, so
    R adj(A) = det(A) E: back-substitution from the last row gives adj(A),
    and every division is exact because adj(A) is integral.
    """
    n = len(rows)
    a, pivots, swaps = _echelon([(*r, *e) for r, e in zip(rows, identity(n))])
    if pivots != list(range(n)):
        return None, 0
    d = (-1) ** swaps * (a[n - 1][n - 1] if n else 1)
    adj = [[0] * n for _ in range(n)]
    for k in range(n - 1, -1, -1):
        row_k = a[k]
        for c in range(n):
            s = d * row_k[n + c] - sum(row_k[j] * adj[j][c] for j in range(k + 1, n))
            adj[k][c] = s // row_k[k]
    return tuple(map(tuple, adj)), d


def is_psd_exact(rows) -> bool:
    """Exact positive-semidefiniteness: whether _psd_rank finds a rank."""
    return _psd_rank(rows) is not None


def _psd_rank(rows):
    """The rank of a PSD matrix by symmetric Bareiss elimination, or None
    when the matrix is not PSD.

    A negative diagonal entry refutes, a zero diagonal entry with a nonzero
    row refutes, otherwise pivot on the first positive diagonal entry and
    eliminate.  The remaining entries are the Schur complement scaled by
    the last pivot, a positive principal minor, so every sign test reads
    the Schur complement itself.  Once every remaining row is zero the
    number of pivots taken is the rank.  The zero (or empty) matrix is PSD
    of rank 0.
    """
    if not is_symmetric(rows):
        raise ValueError("is_psd_exact expects a symmetric matrix")
    a = [list(row) for row in rows]
    idx = list(range(len(a)))
    prev = 1
    pivots = 0
    while idx:
        pivot_i = None
        for i in idx:
            d = a[i][i]
            if d < 0:
                return None
            if d == 0:
                if any(a[i][j] for j in idx):
                    return None
            elif pivot_i is None:
                pivot_i = i
        if pivot_i is None:
            break  # all remaining rows are zero
        row_p = a[pivot_i]
        p = row_p[pivot_i]
        idx.remove(pivot_i)
        for i in idx:
            row_i = a[i]
            ci = row_i[pivot_i]
            for j in idx:
                row_i[j] = (p * row_i[j] - ci * row_p[j]) // prev
        prev = p
        pivots += 1
    return pivots


def _echelon(rows):
    """Fraction-free row echelon form (Bareiss), its pivot columns and its
    number of row swaps.

    Row k of the result is final once it holds the k-th pivot; its pivot
    entry is, up to the sign of the swaps, the leading minor on the first
    k + 1 pivot rows and columns.
    """
    a = [list(row) for row in rows]
    n = len(a)
    m = len(a[0]) if a else 0
    pivots: list[int] = []
    swaps = 0
    prev = 1
    for col in range(m):
        r = len(pivots)
        if r == n:
            break
        piv = r
        while piv < n and not a[piv][col]:
            piv += 1
        if piv == n:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            swaps += 1
        row_r = a[r]
        p = row_r[col]
        for i in range(r + 1, n):
            row_i = a[i]
            lead = row_i[col]
            for j in range(col + 1, m):
                row_i[j] = (p * row_i[j] - lead * row_r[j]) // prev
            row_i[col] = 0
        prev = p
        pivots.append(col)
    return a, pivots, swaps


def rank(rows) -> int:
    """Rank: the number of pivots of the fraction-free echelon form."""
    return len(_echelon(rows)[1])


def primitive_kernel_vector(rows):
    """A primitive integer kernel vector of a rank-deficient matrix.

    Deterministic: in the fraction-free echelon form the first free column
    f follows f pivot columns, so the kernel has exactly one direction
    supported on columns 0..f.  Back-substitution with z_f set to the last
    pivot minor stays integral (Cramer's rule); divide by the gcd and flip
    so the first nonzero entry is positive.  Returns None for full column
    rank.
    """
    a, pivots, _ = _echelon(rows)
    m = len(a[0]) if a else 0
    free = next((c for c, col in enumerate(pivots) if col != c), len(pivots))
    if free == m:
        return None
    z = [0] * m
    z[free] = a[free - 1][free - 1] if free else 1
    for k in range(free - 1, -1, -1):
        row_k = a[k]
        z[k] = -sum(row_k[j] * z[j] for j in range(k + 1, free + 1)) // row_k[k]
    g = vec_gcd(z)
    if z[next(c for c in range(m) if z[c])] < 0:
        g = -g
    return tuple(v // g for v in z)


def _xgcd(a: int, b: int):
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return (old_r, old_s, old_t) if old_r >= 0 else (-old_r, -old_s, -old_t)


def _ladder(z):
    """The gcd ladder of a primitive z: steps (i, p, q, a, b) taking columns
    (0, i) to (p c0 + q ci, a ci - b c0), a p + b q = 1, that fold each z_i
    into the running gcd, and the sign left on column 0.  The inverse
    transpose of a step is (i, a, b, p, q), that of the sign the sign."""
    z = tuple(map(as_int, z))
    if vec_gcd(z) != 1:
        raise ValueError("z must be a nonzero primitive vector")
    steps, g = [], z[0]
    for i, zi in enumerate(z[1:], 1):
        if zi:
            g2, a, b = _xgcd(g, zi)
            steps.append((i, g // g2, zi // g2, a, b))
            g = g2
    return steps, g


def _apply_ladder(m, steps, sign, at=0):
    """Right-multiply the list rows m in place by diag(I_at, the ladder)."""
    for i, p, q, a, b in steps:
        i += at
        for row in m:
            c0, ci = row[at], row[i]
            row[at], row[i] = c0 * p + ci * q, ci * a - c0 * b
    if sign < 0:
        for row in m:
            row[at] = -row[at]


def inverse_unimodular(u) -> Rows:
    """Exact integer inverse of a matrix with determinant +-1: det(u)
    adj(u), both from one echelon."""
    adj, d = _adjugate_det(u)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(d * v for v in row) for row in adj)


def reduce_rank(rows):
    """Split off the kernel of a singular PSD matrix.

    Returns (U, U^{-T}, block) with U unimodular and U^T X U = diag(0, ...,
    0, block) where the zero block collects the kernel (top-left) and block
    is full rank.  The rank r comes from _psd_rank, so exactly n - r kernel
    vectors are split off.  Each kernel vector's gcd ladder acts in place
    on the block, on U and, inverse-transposed, on U^{-T}: nothing is
    inverted.  The closing check X U[:, :n-r] = 0 says the same as a zero
    kernel block of U^T X U, as U is invertible.  Full-rank input returns
    (identity, identity, X) unchanged; the all-zero matrix returns an
    empty block.
    """
    x = freeze(rows)
    r = _psd_rank(x)
    if r is None:
        raise ValueError("reduce_rank expects a PSD matrix")
    n = len(x)
    u, u_inv_t = ([list(row) for row in identity(n)] for _ in range(2))
    cur = x
    for zeros in range(n - r):
        z = primitive_kernel_vector(cur)
        if z is None:
            raise RuntimeError("reduce_rank found no kernel vector below the rank")
        steps, sign = _ladder(z)
        w = [list(row) for row in cur]
        _apply_ladder(w, steps, sign)  # cur u1
        w = [list(col) for col in zip(*w)]  # u1^T cur, as cur is symmetric
        _apply_ladder(w, steps, sign)
        if any(w[0]):  # w is symmetric, so its first column is zero too
            raise RuntimeError("kernel vector left a nonzero first row")
        _apply_ladder(u, steps, sign, zeros)  # U diag(I, u1)
        inv_t = [(i, a, b, p, q) for i, p, q, a, b in steps]
        _apply_ladder(u_inv_t, inv_t, sign, zeros)
        cur = tuple(tuple(row[1:]) for row in w[1:])
    u, u_inv_t = tuple(map(tuple, u)), tuple(map(tuple, u_inv_t))
    if any(any(mat_vec(x, z)) for z in list(zip(*u))[: n - r]):
        raise RuntimeError("reduce_rank left a kernel column of U outside the kernel")
    return u, u_inv_t, cur


@dataclass(frozen=True)
class _IntMatrix:
    """Immutable square integer matrix; each subclass adds its `_check`."""

    rows: Rows

    def __post_init__(self):
        object.__setattr__(self, "rows", freeze(self.rows))
        self._check()

    @property
    def n(self) -> int:
        return len(self.rows)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, obj):
        rows = int_rows(obj["rows"])
        if as_int(obj["n"]) != len(rows):
            raise ValueError("n does not match row count")
        return cls(rows)


@dataclass(frozen=True)
class SymIntMatrix(_IntMatrix):
    """Immutable symmetric integer matrix with validation at construction."""

    def _check(self):
        if not is_symmetric(self.rows):
            raise ValueError("matrix must be symmetric")


@dataclass(frozen=True)
class UnimodularMatrix(_IntMatrix):
    """Integer matrix with determinant +-1."""

    def _check(self):
        if det(self.rows) not in (1, -1):
            raise ValueError("matrix must have determinant +-1")
