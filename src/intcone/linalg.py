"""Exact linear algebra over the integers.

Everything in here works on small dense matrices represented as tuples (or
lists) of rows of Python ints.  No floats and no fractions anywhere: two
fraction-free (Bareiss) eliminations do the work, and their entries are
minors of the input, so every division is exact.  The symmetric one,
`_psd_echelon`, pivoting on the diagonal, answers every PSD and
positive-definite question: PSD membership, rank, determinant, lattice's
positive-definite split and the rank split's kernel vectors; the leading
minors on its diagonal border up the adjugate of a peel frame's block
(`_bordered_adjugate`, by the identity `_border` that the sporadic search
also uses).  The general `_echelon` serves `det`, `rank` and
`primitive_kernel_vector` on any matrix and, through `det`, the cofactors of
the public `adjugate` and `inverse_unimodular`.  One gcd ladder per kernel
vector builds, in place, the rank split's U and U^{-T}; `_reduce_rank` takes
an elimination its caller already holds and hands back the block's.
Matrices stay well under 11x11 here, so the code favours clarity
over asymptotics.  A generator acts on vectors as a letter, a function built
once by `sparse_letter` from the generator's nonzero entries (or written
as a closed form with the same `size` attribute), and `apply_word` is the
one fold of a word of letters; `_primitive` is the one primitive vector on
a ray.  `as_int` is the one rule for integers read from JSON, passed to a
constructor or handed to a public SOC entry, `as_str` the one for JSON
strings, and `as_labels` the one for lists of labels.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from math import gcd
from operator import mul

Rows = tuple[tuple[int, ...], ...]
Letter = Callable[[tuple[int, ...]], tuple[int, ...]]


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
    """Whether the rows equal the columns, compared a row at a time; a
    matrix that is not square is never symmetric."""
    return tuple(map(tuple, rows)) == tuple(zip(*rows))


def identity(n: int) -> Rows:
    return tuple([(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)])


def transpose(rows) -> Rows:
    return tuple(zip(*[tuple(r) for r in rows])) if rows else ()


def mat_mul(a, b) -> Rows:
    bt = list(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in a)


def mat_vec(a, v) -> tuple[int, ...]:
    """a v; a row longer or shorter than v is truncated to the shorter."""
    return tuple([sum(map(mul, row, v)) for row in a])


def sparse_letter(terms) -> Letter:
    """v -> g v for the square matrix g whose row i holds the nonzero
    entries terms[i], as (column, entry) pairs.  A g with one entry in each
    row, such as a sign flip or a permutation, is one indexed
    comprehension, any other g a short sum per row.  The letter's `size`
    is len(terms); it indexes v without checking its length, which
    apply_word does."""
    terms = tuple(map(tuple, terms))
    if any(len(row) != 1 for row in terms):

        def g(v):
            return tuple([sum([a * v[j] for j, a in row]) for row in terms])

    else:
        pairs = tuple(row[0] for row in terms)

        def g(v):
            return tuple([a * v[j] for j, a in pairs])

    g.size = len(terms)
    return g


def apply_word(letters, word, v) -> tuple[int, ...]:
    """The word's matrix applied to v, for a table label -> letter: the
    letters folded right to left, so no matrix product is ever formed.  A
    label outside the table, or a v whose length is not a letter's size,
    raises ValueError; the empty word returns any v as a tuple."""
    v = tuple(v)
    for label in reversed(word):
        g = letters.get(label)
        if g is None:
            raise ValueError(f"unknown generator label {label!r}")
        if len(v) != g.size:
            raise ValueError(f"letter {label!r} acts on length {g.size}, not {len(v)}")
        v = g(v)
    return v


def vec_gcd(v) -> int:
    g = 0
    for a in v:
        g = gcd(g, a)
    return g


def _primitive(v):
    """The primitive integer vector on the ray of a nonzero v: v itself when
    its entries are coprime."""
    g = vec_gcd(v)
    return v if g == 1 else tuple(a // g for a in v)


def det(rows) -> int:
    """Determinant: the signed last pivot of the fraction-free echelon form.

    0 when some column has no pivot; the empty 0x0 matrix has determinant 1
    (empty product).  A matrix that is not square raises ValueError."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    a, pivots, swaps = _echelon(rows)
    if len(pivots) < n:
        return 0
    return -a[n - 1][n - 1] if swaps % 2 else a[n - 1][n - 1]


def adjugate(rows) -> Rows:
    """Adjugate of a nonsingular symmetric matrix (the result is symmetric
    as well), from its cofactors.  Singular input raises ValueError, as in
    inverse_unimodular."""
    if not is_symmetric(rows):
        raise ValueError("adjugate expects a symmetric matrix")
    if not det(rows):
        raise ValueError("adjugate expects a nonsingular matrix")
    return _cofactors(rows)


def _cofactors(rows) -> Rows:
    """adj(A) of a square A: entry (i, j) is (-1)^(i+j) det of A without
    row j and column i, n^2 determinants in all."""
    without = [[(*r[:i], *r[i + 1 :]) for r in rows] for i in range(len(rows))]
    return tuple(
        tuple((-1) ** (i + j) * det(rest[:j] + rest[j + 1 :]) for j in range(len(rest)))
        for i, rest in enumerate(without)
    )


def is_psd_exact(rows) -> bool:
    """Exact positive-semidefiniteness: whether _psd_echelon completes."""
    if not is_symmetric(rows):
        raise ValueError("is_psd_exact expects a symmetric matrix")
    return _psd_echelon(rows) is not None


def _psd_input(rows, error):
    """An outside matrix as (X, _psd_echelon(X)), X frozen: the one entry
    check of reduce_rank and psd's decompose, is_sporadic and
    unimodular_witness.  An asymmetric X raises is_psd_exact's ValueError,
    one that is not PSD ValueError(error); _psd_echelon itself trusts its
    input."""
    x = freeze(rows)
    if not is_symmetric(x):
        raise ValueError("is_psd_exact expects a symmetric matrix")
    elim = _psd_echelon(x)
    if elim is None:
        raise ValueError(error)
    return x, elim


def _psd_echelon(rows):
    """Symmetric Bareiss elimination of a PSD matrix, as (pivots, rows
    after elimination), or None when the matrix is not PSD.

    A negative diagonal entry refutes, a zero diagonal entry with a nonzero
    row refutes, otherwise pivot on the first positive diagonal entry and
    eliminate.  The remaining entries are the Schur complement scaled by
    the last pivot, a positive principal minor, so every sign test reads
    the Schur complement itself.  Once every remaining row is zero, pivots
    lists the pivot indices in order: its length is the rank, and at full
    rank the last pivot is det(A).  Row pivots[k] keeps its entries of the
    k-th step.  While the pivots run 0, 1, ..., k, the general echelon
    takes the same steps without a swap, so rows 0..k agree with its rows
    on and above the diagonal (lattice's LDL^T split, _kernel_vector).
    The rows must be symmetric, which is not checked here: the entries
    that take outside matrices check it once (_psd_input), and
    every other matrix eliminated is a block, residue or adjugate built
    symmetric by the package.
    """
    a = [list(row) for row in rows]
    idx = list(range(len(a)))
    prev = 1
    pivots = []
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
        pivots.append(pivot_i)
    return pivots, a


def _echelon(rows):
    """Fraction-free row echelon form (Bareiss), its pivot columns and its
    number of row swaps.

    Row k of the result is final once it holds the k-th pivot; its pivot
    entry is, up to the sign of the swaps, the leading minor on the first
    k + 1 pivot rows and columns.  Rows of unequal length raise ValueError.
    """
    a = [list(row) for row in rows]
    n = len(a)
    m = len(a[0]) if a else 0
    if any(len(row) != m for row in a):
        raise ValueError("matrix rows must have equal length")
    pivots: list[int] = []
    swaps = 0
    prev = 1
    for col in range(m):
        r = len(pivots)
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
    """A primitive integer kernel vector of a rank-deficient matrix, or None
    for full column rank: _kernel_vector of its echelon form."""
    a, pivots, _ = _echelon(rows)
    return _kernel_vector(a, pivots)


def _kernel_vector(a, pivots):
    """The primitive kernel vector of an elimination whose first pivots
    are columns 0, 1, ... on rows 0, 1, ..., None at full column rank.

    The first free column f follows f pivot columns, so the kernel has
    exactly one direction supported on columns 0..f: back-substitution with
    z_f the last pivot minor stays integral (Cramer's rule), then divide by
    the gcd and flip so that the first nonzero entry is positive."""
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
    into the running gcd, which must end at 1, not at -1 as for -e_0, never
    a _kernel_vector output.  The inverse transpose of a step is (i, a, b,
    p, q)."""
    z = tuple(map(as_int, z))
    steps, g = [], z[0]
    for i, zi in enumerate(z[1:], 1):
        if zi:
            g2, a, b = _xgcd(g, zi)
            steps.append((i, g // g2, zi // g2, a, b))
            g = g2
    if g != 1:
        raise ValueError("z must be a nonzero primitive vector")
    return steps


def _apply_ladder(m, steps, at=0):
    """Right-multiply the list rows m in place by diag(I_at, the ladder)."""
    for i, p, q, a, b in steps:
        i += at
        for row in m:
            c0, ci = row[at], row[i]
            row[at], row[i] = c0 * p + ci * q, ci * a - c0 * b


def inverse_unimodular(u) -> Rows:
    """Exact integer inverse of a matrix with determinant +-1: det(u)
    adj(u), the adjugate from its cofactors."""
    d = det(u)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(d * v for v in row) for row in _cofactors(u))


def reduce_rank(rows):
    """Split off the kernel of a singular PSD matrix.

    Returns (U, U^{-T}, block) with U unimodular and U^T X U = diag(0, ...,
    0, block) where the zero block collects the kernel (top-left) and block
    is full rank: _reduce_rank of X and its symmetric elimination.
    Full-rank input returns (identity, identity, X) unchanged; the all-zero
    matrix returns an empty block.  Input that is not PSD raises ValueError.
    """
    return _reduce_rank(*_psd_input(rows, "reduce_rank expects a PSD matrix"))[:3]


def _reduce_rank(x, elim):
    """reduce_rank of a frozen PSD X from elim = _psd_echelon(X), as (U,
    U^{-T}, block, the block's _psd_echelon); at full rank X is its own
    block at once.  Each caller holds elim from _psd_input or for a
    residue it built PSD, so nothing is refused here.

    While the block's symmetric elimination finds fewer pivots than it has
    rows, the kernel vector read off it (_kernel_vector) acts by its gcd
    ladder, in place, on the block, on U and, inverse-transposed, on
    U^{-T}: nothing is inverted.  The closing check X U[:, :n-r] = 0 says
    the same as a zero kernel block of U^T X U, as U is invertible.
    """
    pivots, elim_rows = elim
    if len(pivots) == len(x):
        eye = identity(len(x))
        return eye, eye, x, elim
    u, u_inv_t = ([list(row) for row in identity(len(x))] for _ in range(2))
    cur = x
    while len(pivots) < len(cur):
        zeros = len(x) - len(cur)
        steps = _ladder(_kernel_vector(elim_rows, pivots))
        w = [list(row) for row in cur]
        _apply_ladder(w, steps)  # cur u1
        w = [list(col) for col in zip(*w)]  # u1^T cur, as cur is symmetric
        _apply_ladder(w, steps)
        if any(w[0]):  # w is symmetric, so its first column is zero too
            raise RuntimeError("kernel vector left a nonzero first row")
        _apply_ladder(u, steps, zeros)  # U diag(I, u1)
        inv_t = [(i, a, b, p, q) for i, p, q, a, b in steps]
        _apply_ladder(u_inv_t, inv_t, zeros)
        cur = tuple(tuple(row[1:]) for row in w[1:])
        pivots, elim_rows = _psd_echelon(cur)
    u, u_inv_t = tuple(map(tuple, u)), tuple(map(tuple, u_inv_t))
    if any(any(mat_vec(x, z)) for z in list(zip(*u))[: len(x) - len(cur)]):
        raise RuntimeError("reduce_rank left a kernel column of U outside the kernel")
    return u, u_inv_t, cur, (pivots, elim_rows)


def _rank1_update(p, u, d_old, d_new, lam) -> list[list[int]]:
    """(d_new p + lam u u^T) / d_old as lists of rows, every division
    exact: the adjugate of B - lam y y^T for p = adj(B), u = p y, d_old =
    det(B) and d_new = det(B - lam y y^T), and, with lam = 1, the top-left
    block of the bordered adjugate (_border)."""
    return [
        [(d_new * pj + lur * uj) // d_old for pj, uj in zip(pr, u)]
        for pr, lur in zip(p, [lam * ur for ur in u])
    ]


def _border(p, u, d_old, d_new) -> Rows:
    """adj(A) for A = [[B, c], [c^T, t]] with det(A) = d_new, from p =
    adj(B), d_old = det(B) and u = p c: the bordered-inverse identity, every
    division exact.  Its diagonal is (d_new p_rr + u_r^2) / d_old, then
    d_old."""
    top = _rank1_update(p, u, d_old, d_new, 1)
    for row, ur in zip(top, u):
        row.append(-ur)
    top.append([-v for v in u] + [d_old])
    return tuple(map(tuple, top))


def _bordered_adjugate(rows, elim):
    """(adj(B), det(B)) of a positive definite B from elim = _psd_echelon(B),
    bordering B's leading blocks one row and column at a time (_border).

    B's elimination pivots on 0, 1, ... in turn, so entry (k, k) of its
    rows is the leading principal minor of order k + 1: each step's
    determinant is read off it, and no other elimination runs.  The empty
    matrix gives ((), 1).
    """
    minors = elim[1]
    adj, d = (), 1
    for k, row in enumerate(rows):
        u = [sum(map(mul, pr, row)) for pr in adj]  # row[:k] is B's column k
        adj = _border(adj, u, d, minors[k][k])
        d = minors[k][k]
    return adj, d


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
