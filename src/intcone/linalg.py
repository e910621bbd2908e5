"""Exact linear algebra over the integers.

Everything in here works on small dense matrices represented as tuples (or
lists) of rows of Python ints.  No floats and no fractions anywhere: one
fraction-free (Bareiss) echelon, whose entries are minors of the input so
that every division in it is exact, serves the determinant, the rank, the
kernel vector and lattice's positive-definite split; `is_psd_exact` is its
symmetric variant, pivoting on the diagonal.  Unimodular completions come
from a gcd ladder.  Matrices stay well under 11x11 in this package, so the
implementations favour clarity over asymptotics.  `as_int` is the one rule
for integers read from JSON.
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


def int_rows(obj) -> Rows:
    """Rows read with as_int; the shape is left to the caller."""
    return tuple(tuple(map(as_int, row)) for row in obj)


def freeze(rows) -> Rows:
    """Copy a row-iterable into an immutable tuple-of-tuples of ints."""
    out = tuple(tuple(int(v) for v in row) for row in rows)
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


def outer(x) -> Rows:
    return tuple(tuple(a * b for b in x) for a in x)


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


def _minor(rows, i, j):
    return [
        [rows[r][c] for c in range(len(rows)) if c != j]
        for r in range(len(rows))
        if r != i
    ]


def adjugate_general(rows) -> Rows:
    """Adjugate via cofactors; defined for singular input too."""
    n = len(rows)
    if n == 0:
        return ()
    if n == 1:
        return ((1,),)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = det(_minor(rows, i, j))
            adj[j][i] = -c if (i + j) % 2 else c
    return freeze(adj)


def adjugate(rows) -> Rows:
    """Adjugate of a symmetric matrix (the result is symmetric as well)."""
    if not is_symmetric(rows):
        raise ValueError("adjugate expects a symmetric matrix")
    return adjugate_general(rows)


def is_psd_exact(rows) -> bool:
    """Exact positive-semidefiniteness by symmetric Bareiss elimination.

    A negative diagonal entry refutes, a zero diagonal entry with a nonzero
    row refutes, otherwise pivot on the first positive diagonal entry and
    eliminate.  The remaining entries are the Schur complement scaled by
    the last pivot, a positive principal minor, so every sign test reads
    the Schur complement itself.  The zero (or empty) matrix is PSD.
    """
    if not is_symmetric(rows):
        raise ValueError("is_psd_exact expects a symmetric matrix")
    a = [list(row) for row in rows]
    idx = list(range(len(a)))
    prev = 1
    while idx:
        pivot_i = None
        for i in idx:
            d = a[i][i]
            if d < 0:
                return False
            if d == 0:
                if any(a[i][j] for j in idx):
                    return False
            elif pivot_i is None:
                pivot_i = i
        if pivot_i is None:
            return True  # all remaining rows are zero
        row_p = a[pivot_i]
        p = row_p[pivot_i]
        idx.remove(pivot_i)
        for i in idx:
            row_i = a[i]
            ci = row_i[pivot_i]
            for j in idx:
                row_i[j] = (p * row_i[j] - ci * row_p[j]) // prev
        prev = p
    return True


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
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def extend_to_unimodular(z) -> Rows:
    """A unimodular matrix whose first column is the primitive vector z.

    Built from a deterministic gcd ladder: 2x2 elementary steps fold each
    coordinate into the running gcd, and the inverse steps accumulate into
    the returned matrix.  extend_to_unimodular(e1) is the identity.
    """
    z = tuple(int(v) for v in z)
    n = len(z)
    if n == 0 or all(v == 0 for v in z):
        raise ValueError("z must be nonzero")
    if abs(vec_gcd(z)) != 1:
        raise ValueError("z must be primitive")
    u = [list(row) for row in identity(n)]
    g = z[0]
    for i in range(1, n):
        zi = z[i]
        if zi == 0 and g != 0:
            continue
        g2, a, b = _xgcd(g, zi)
        if g2 == 0:
            continue  # both still zero, nothing to fold yet
        if g2 < 0:
            g2, a, b = -g2, -a, -b
        # inverse of the row op [[a, b], [-zi/g2, g/g2]] on coords (0, i)
        p, q = g // g2, zi // g2
        for r in range(n):
            c0, ci = u[r][0], u[r][i]
            u[r][0] = c0 * p + ci * q
            u[r][i] = -c0 * b + ci * a
        g = g2
    if g < 0:
        for r in range(n):
            u[r][0] = -u[r][0]
    out = freeze(u)
    if tuple(row[0] for row in out) != z:
        raise RuntimeError("unimodular completion lost its first column")
    return out


def inverse_unimodular(u) -> Rows:
    """Exact integer inverse of a matrix with determinant +-1."""
    d = det(u)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    adj = adjugate_general(u)
    return tuple(tuple(d * v for v in row) for row in adj)


def reduce_rank(rows):
    """Split off the kernel of a singular PSD matrix.

    Returns (U, block) with U unimodular and U^T X U = diag(0, ..., 0, block)
    where the zero block collects the kernel (top-left) and block is full
    rank.  Full-rank input returns (identity, X) unchanged; the all-zero
    matrix returns (identity, ()) with an empty block.
    """
    x = freeze(rows)
    if not is_psd_exact(x):
        raise ValueError("reduce_rank expects a PSD matrix")
    n = len(x)
    u_total = identity(n)
    cur = x
    z = primitive_kernel_vector(cur)
    while z is not None:
        zeros = n - len(cur)
        u1 = extend_to_unimodular(z)
        b = mat_mul(transpose(u1), mat_mul(cur, u1))
        if any(b[0]):  # b is symmetric, so its first column is zero too
            raise RuntimeError("kernel vector left a nonzero first row")
        # u_total diag(I, u1): u1 acts on the columns after the kernel block
        tail = mat_mul([row[zeros:] for row in u_total], u1)
        u_total = tuple(row[:zeros] + t for row, t in zip(u_total, tail))
        cur = tuple(row[1:] for row in b[1:])
        z = primitive_kernel_vector(cur)
    full = mat_mul(transpose(u_total), mat_mul(x, u_total))
    if any(any(row) for row in full[: n - len(cur)]):
        raise RuntimeError("reduce_rank left a nonzero row in the kernel block")
    return u_total, cur


@dataclass(frozen=True)
class SymIntMatrix:
    """Immutable symmetric integer matrix with validation at construction."""

    rows: Rows

    def __post_init__(self):
        object.__setattr__(self, "rows", freeze(self.rows))
        if not is_symmetric(self.rows):
            raise ValueError("matrix must be symmetric")

    @property
    def n(self) -> int:
        return len(self.rows)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, obj) -> "SymIntMatrix":
        rows = int_rows(obj["rows"])
        if as_int(obj["n"]) != len(rows):
            raise ValueError("n does not match row count")
        return cls(rows)


@dataclass(frozen=True)
class UnimodularMatrix:
    """Integer matrix with determinant +-1."""

    rows: Rows

    def __post_init__(self):
        object.__setattr__(self, "rows", freeze(self.rows))
        if det(self.rows) not in (1, -1):
            raise ValueError("matrix must have determinant +-1")

    @property
    def n(self) -> int:
        return len(self.rows)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, obj) -> "UnimodularMatrix":
        rows = int_rows(obj["rows"])
        if as_int(obj["n"]) != len(rows):
            raise ValueError("n does not match row count")
        return cls(rows)
