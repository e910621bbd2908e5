"""Integer rank-one decomposition in the cone of PSD integer matrices.

A PSD integer matrix is peeled into a sum of outer products x x^T plus, in
low dimensions never and from dimension six on occasionally, a "sporadic"
remainder from which no rank-one integer summand can be subtracted.  The
peeling order is fully deterministic (first hit of the lattice enumeration
on the exact ellipsoid x^T adj(X) x <= det(X)), sporadic remainders are
recognised exactly, and equivalent sporadic finds are identified by an
explicit unimodular congruence witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import ceil, isqrt
from operator import mul

from . import lattice, linalg
from .linalg import Rows, SymIntMatrix, UnimodularMatrix

# The unique (up to unimodular congruence) sporadic class in dimension six.
M6: Rows = (
    (2, 0, 1, 1, 1, 1),
    (0, 2, 0, 1, 1, 1),
    (1, 0, 2, 1, 1, 1),
    (1, 1, 1, 2, 1, 1),
    (1, 1, 1, 1, 2, 1),
    (1, 1, 1, 1, 1, 2),
)


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


def sporadic_catalog(n: int) -> tuple[Rows, ...]:
    """Known sporadic classes per dimension; complete only through n = 6."""
    return (M6,) if linalg.as_int(n) == 6 else ()


def sporadic_det_bound(n: int) -> Fraction:
    """Upper bound on the determinant of a sporadic matrix in dimension n:
    Hermite's gamma_n^n, exact for n <= 8 and n = 24, else its bound
    (4/3)^(n(n-1)/2).  A full-rank sporadic X has y^T adj(X) y > det(X) for
    all integer y != 0, and lambda_1(adj X)^n <= gamma_n^n det(X)^(n-1), so
    det(X) < gamma_n^n; kept to the n-th power, the bound stays rational.
    """
    n = linalg.as_int(n)
    if n < 1:
        raise ValueError("n must be positive")
    if n in _GAMMA_EXACT:
        return _GAMMA_EXACT[n]
    return Fraction(4, 3) ** (n * (n - 1) // 2)


def is_sporadic(x_rows) -> bool:
    """True iff X is PSD, nonzero, and no nonzero rank-one peel exists.

    The zero matrix is the identity of the semigroup and counts as fully
    decomposed, so it returns False.  So does every matrix of rank one: it
    is b x x^T with x integral and b >= 1, and x peels off.  Only from rank
    two on is the first peel searched for (lattice._kx_first).
    """
    x, elim = linalg._psd_input(x_rows, "is_sporadic expects a PSD matrix")
    return len(elim[0]) >= 2 and lattice._kx_first(x, elim) is None


@dataclass(frozen=True)
class Rank1Certificate:
    """Outcome of a full peeling run.

    vectors holds (x, multiplicity) pairs in discovery order.  remainder is
    the sporadic residue, None when the peeling reaches zero.  witness, when
    present, conjugates the remainder onto a catalog representative:
    witness * remainder * witness^T is the catalog matrix.
    """

    n: int
    vectors: tuple[tuple[tuple[int, ...], int], ...]
    remainder: SymIntMatrix | None
    witness: UnimodularMatrix | None

    def reconstruct(self) -> Rows:
        """The remainder (or zero) plus each lam x x^T; callers check sizes."""
        if self.remainder is None:
            total = ((0,) * self.n,) * self.n
        else:
            total = self.remainder.rows
        for x, lam in self.vectors:
            total = _sub_outer(total, x, -lam)
        return total

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "vectors": [{"x": list(x), "lambda": lam} for x, lam in self.vectors],
            "remainder": None if self.remainder is None else self.remainder.to_json(),
            "witness": None if self.witness is None else self.witness.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "Rank1Certificate":
        if not isinstance(obj, dict):
            raise TypeError("certificate must be a JSON object")
        rem = obj.get("remainder")
        wit = obj.get("witness")
        return cls(
            n=linalg.as_int(obj["n"]),
            vectors=tuple(
                (tuple(map(linalg.as_int, t["x"])), linalg.as_int(t["lambda"]))
                for t in obj["vectors"]
            ),
            remainder=None if rem is None else SymIntMatrix.from_json(rem),
            witness=None if wit is None else UnimodularMatrix.from_json(wit),
        )


def _sub_outer(rows, x, lam):
    return tuple(
        tuple([v - lxi * xj for v, xj in zip(row, x)])
        for row, lxi in zip(rows, [lam * xi for xi in x])
    )


def _rank_one_peel(rows):
    """(x, lam) with rows = lam x x^T, for a PSD rows of rank one.

    Row i of lam x x^T is lam x_i x, so x is the primitive part of any
    nonzero row, and lam = X_ii / x_i^2 for that row.  The first nonzero
    row's first nonzero entry is its diagonal lam x_i^2 > 0, so its
    primitive part needs no sign flip.  This is the peel the enumeration
    would find: the peels of lam x x^T are t x with 1 <= t^2 <= lam, the
    first of them x, and x goes lam times.
    """
    i, row = next((i, row) for i, row in enumerate(rows) if any(row))
    x = linalg._primitive(row)
    return x, rows[i][i] // (x[i] * x[i])


def decompose(x_rows) -> Rank1Certificate:
    """Peel deterministic rank-one summands until zero or a sporadic residue.

    Each step peels the first peel of the residue (the first point that
    lattice._points finds in the frame lattice._peel_data builds) at its
    maximal multiple, so each distinct peel vector is one step.  The
    residue is reduced to its full-rank block B once (lattice._peel_data:
    one symmetric elimination of B gives the frame, its leading minors and
    so adj(B); the first frame reuses the elimination that checked X), and
    the first y with y^T adj(B) y <= det(B) is lifted back to x.
    With q = y^T adj(B) y and d = det(B), B - lam y y^T is PSD exactly
    while lam q <= d, so x goes at lam = d // q, and the adjugate of B -
    lam y y^T comes from an exact integer rank-one downdate of B's
    (linalg._rank1_update).  The peel set only shrinks and the enumeration
    order does not depend on the form, so no later peel comes before y: while
    d - lam q > 0 the frame holds and the next enumeration resumes at y
    (lattice._points' start).  At d - lam q = 0 the rank, taken once by
    _psd_echelon, drops by one, and the residue is reduced again, except at
    rank one: there it is lam x x^T, closed from one of its rows
    (_rank_one_peel).  The vectors are those of peeling one copy at a time
    and merging equal neighbours.  X is tested for symmetry once, here; the
    residues, blocks and adjugates built from it are symmetric by
    construction and are not tested again.
    """
    x0, elim = linalg._psd_input(x_rows, "decompose expects a PSD matrix")
    r = len(elim[0])
    n = len(x0)
    cur = x0
    vectors: list[tuple[tuple[int, ...], int]] = []
    d = 0
    while r > 1:
        if d == 0:
            lift, adj, d = lattice._peel_data(cur, elim)
            elim = y = None
        y = next(lattice._points(lattice._decompose(adj), d, y), None)
        if y is None:
            break
        ay = linalg.mat_vec(adj, y)
        q = sum(a * b for a, b in zip(ay, y))
        lam = d // q
        x = lattice._lift(lift, y)
        vectors.append((x, lam))
        cur = _sub_outer(cur, x, lam)
        d2 = d - lam * q
        if d2:
            adj = linalg._rank1_update(adj, ay, d, d2, lam)
        else:
            r -= 1
        d = d2
    if r == 1:
        x, lam = _rank_one_peel(cur)
        vectors.append((x, lam))
        cur = _sub_outer(cur, x, lam)
        if any(v for row in cur for v in row):
            raise RuntimeError("rank-one peel left a nonzero residue")
    if r <= 1:
        return Rank1Certificate(n=n, vectors=tuple(vectors), remainder=None, witness=None)
    witness = None
    for cat in sporadic_catalog(n):
        witness = unimodular_witness(cur, cat)
        if witness is not None:
            break
    return Rank1Certificate(
        n=n, vectors=tuple(vectors), remainder=SymIntMatrix(cur), witness=witness
    )


@dataclass(frozen=True)
class _ShellRecord:
    """A positive definite A's congruence data up to the form value cap =
    len(counts), with its shell product table.

    det is det(A); counts[val - 1] is the number of canonical vectors v
    with v^T A v = val.  vecs numbers the signed shell vectors once, shell
    by shell for val = 1..cap, each shell its canonical vectors in
    enumeration order followed by their negatives; norms[a] is the value
    of vecs[a] and spans[val] = (start, half) where shell val begins and
    where its canonical half ends.  The table row T[a][b] = vecs[a]^T A
    vecs[b] and the buckets (a, value, norm) -> [b], in index order, are
    built on a's first use and kept on the record, so they live exactly as
    long as it.
    """

    rows: Rows
    det: int
    counts: tuple[int, ...]
    vecs: tuple[tuple[int, ...], ...]
    norms: tuple[int, ...]
    spans: dict[int, tuple[int, int]]
    table: dict = field(default_factory=dict, repr=False, compare=False)
    buckets: dict = field(default_factory=dict, repr=False, compare=False)

    def _row(self, a) -> list[int]:
        row = self.table.get(a)
        if row is None:
            av = linalg.mat_vec(self.rows, self.vecs[a])
            row = []
            # each shell's second half negates its first: half the products
            for start, half in self.spans.values():
                part = [sum(map(mul, av, v)) for v in self.vecs[start:half]]
                row += part
                row += [-x for x in part]
            self.table[a] = row
        return row

    def _bucket(self, a, value, norm):
        b = self.buckets.get(a)
        if b is None:
            b = self.buckets[a] = {}
            for c, key in enumerate(zip(self._row(a), self.norms)):
                b.setdefault(key, []).append(c)
        return b.get((value, norm), ())

    def witness(self, y):
        """The first U with U A U^T = Y whose rows are shell vectors, or
        None; Y must have det(A) as its determinant and no diagonal entry
        above the record's cap.

        Row i of U is a vector of the shell Y_ii whose products with rows
        0..i-1 match Y, backtracking row by row (Plesken-Souvignier).  Row 0
        runs over the canonical half of shell Y_00, as a global sign flip is
        free; row i over the bucket (row 0, Y_i0, Y_ii), checking its
        products with rows 1..i-1 by table lookups.  Every candidate list
        keeps shell order, so the first U is that of the plain backtrack
        through the shells.  A complete U has det(U)^2 det(A) = det(Y) =
        det(A) != 0, so it is unimodular.
        """
        n = len(y)
        idx: list[int] = []

        def extend(i):
            if i == n:
                return True
            checks = [(self._row(idx[j]), y[i][j]) for j in range(1, i)]
            for c in self._bucket(idx[0], y[i][0], y[i][i]):
                for row, val in checks:
                    if row[c] != val:
                        break
                else:
                    idx.append(c)
                    if extend(i + 1):
                        return True
                    idx.pop()
            return False

        start, half = self.spans.get(y[0][0], (0, 0))
        for a in range(start, half):
            idx.append(a)
            if extend(1):
                return tuple(self.vecs[c] for c in idx)
            idx.pop()
        return None


def _shell_record(rows, d, cap) -> _ShellRecord:
    """The record of a positive definite A with det(A) = d, from one
    enumeration below cap."""
    shells: list[list[tuple[int, ...]]] = [[] for _ in range(cap)]
    for v in lattice.enumerate_below(rows, cap):
        shells[sum(map(mul, v, [sum(map(mul, r, v)) for r in rows])) - 1].append(v)
    vecs: list[tuple[int, ...]] = []
    norms: list[int] = []
    spans = {}
    for val, s in enumerate(shells, 1):
        spans[val] = (len(vecs), len(vecs) + len(s))
        vecs += s
        vecs += [tuple(-a for a in v) for v in s]
        norms += [val] * (2 * len(s))
    counts = tuple(map(len, shells))
    return _ShellRecord(rows, d, counts, tuple(vecs), tuple(norms), spans)


def unimodular_witness(x_rows, y_rows):
    """A unimodular U with U X U^T = Y, or None when none exists.

    One pass over the full-rank cores.  Each matrix is checked and split
    once (linalg._psd_input, then linalg._reduce_rank): U_X^T X U_X =
    diag(0, B_X), and likewise for Y.  The congruence invariants come
    cheapest first: the rank and determinant of the cores, read off their
    eliminations, then the count of vectors at each form value up to the
    largest diagonal entry of B_Y.  The _shell_record of each core, one
    enumeration below that value, holds these counts; only when they agree
    does the shell product table backtrack of B_X's record
    (_ShellRecord.witness, the one _join_class uses) look for the first W
    with W B_X W^T = B_Y, building the table rows it reads.  W bordered
    with the identity on the kernels, diag(I, W), maps diag(0, B_X) onto
    diag(0, B_Y), so U = U_Y^{-T} diag(I, W) U_X^T maps X onto Y, and U is
    checked once.  Full-rank matrices are their own cores, with U_X = U_Y =
    I; the zero and the empty matrix have empty cores and W = ().
    """
    x = linalg.freeze(x_rows)
    y = linalg.freeze(y_rows)
    if len(x) != len(y):
        raise ValueError("unimodular_witness expects matrices of equal size")
    error = "unimodular_witness expects PSD matrices"
    (ux, _, bx, (_, ex)), (_, uy_inv_t, by, (_, ey)) = (
        linalg._reduce_rank(*linalg._psd_input(m, error)) for m in (x, y)
    )
    # a core pivots on 0, 1, ... in turn, so its last pivot is its determinant
    n, r = len(x), len(bx)
    d = ex[-1][-1] if r else 1
    if len(by) != r or r and ey[-1][-1] != d:
        return None
    cap = max([by[i][i] for i in range(r)], default=0)
    rec = _shell_record(bx, d, cap)
    if rec.counts != _shell_record(by, d, cap).counts:
        return None
    core = rec.witness(by) if r else ()
    if core is None:
        return None
    w = linalg.identity(n)[: n - r] + tuple((0,) * (n - r) + row for row in core)
    u = linalg.mat_mul(uy_inv_t, linalg.mat_mul(w, linalg.transpose(ux)))
    _check_witness(u, x, y)
    return UnimodularMatrix(u)


def _check_witness(u, x, y):
    if linalg.mat_mul(u, linalg.mat_mul(x, linalg.transpose(u))) != y:
        raise RuntimeError("congruence witness does not map X onto Y")


def search_sporadic(n: int, diag_bound: int) -> list[Rows]:
    """All sporadic classes with nondecreasing diagonal <= diag_bound.

    A sporadic X represents no 1.  If v^T X v = 1 then y = X v is a nonzero
    integer vector, and for every w, w^T (X - y y^T) w = w^T X w - (w^T X
    v)^2 >= 0 by Cauchy-Schwarz in the inner product of X, so y peels off.
    Congruence keeps the values of the form, so no matrix in the orbit of
    such an X is sporadic either, and the walk drops them without changing
    the classes found or their order: every diagonal starts at 2 (e_i has
    norm X_ii), and an entry X_ik = v with X_ii + X_kk - 2|v| = 1 (the norm
    of e_i -+ e_k) is skipped with its whole subtree.

    So the walk exhausts positive definite integer matrices with 2 <= X_11
    <= ... <= X_nn <= diag_bound column by column over exact integer
    intervals: with the adjugates and determinants of all leading blocks
    kept on a stack, extendability of a partial column c over the reals is
    exactly c^T adj(A_j) c < X_kk det(A_j), a quadratic whose integer
    solution range comes from one integer square root.  Accepted columns
    update the adjugate by the exact bordered-inverse identity, so leaves
    have their ellipsoid data for free.

    Permutations of equal diagonal entries and basis sign flips are
    unimodular, so the walk keeps to orbit representatives.  Each column's
    first nonzero entry is positive.  Where X_{k-1,k-1} = X_kk, column k's
    entries above row k-1 are lexicographically at least column k-1's, the
    order that swapping k-1 and k would otherwise lower; the walk raises
    each entry's lower end while that prefix is tied.  At the last column
    the determinant is known before the bordered update, and a matrix with
    det >= gamma_n^n is dropped there.  The diagonal of the leaf's adjugate
    is known too, as (d_new p_rr + u_r^2) / d_old and then d_old (p the
    adjugate of the leading block, u = p c for the last column c), and
    _check_leaf first drops a leaf with an entry <= det (some X - e_i e_i^T
    stays PSD), testing d_old and then forming u one row at a time, so it
    stops at the first failing entry; only a leaf that passes every entry
    builds its adjugate.
    Next come the e_i +- e_j probes, then _swap_minimal (each adjacent
    equal-diagonal swap, sign-normalized, must not give a lexicographically
    smaller matrix; it decides the ties and the swap of the first two rows,
    and the orbit minimum always survives).  A surviving leaf is then
    compared with the classes found so far that share its determinant
    (_join_class), by the backtrack through each class's shell product
    table; its shell counts up to diag_bound (one enumeration of the leaf)
    are computed only when two or more classes share the determinant.  A
    match ends the leaf: if X - x x^T is PSD for an integral x != 0, so is
    U X U^T - (U x)(U x)^T = U (X - x x^T) U^T, so congruence preserves
    sporadicity and the leaf is a known class.  Only a leaf that matches no
    class runs the full sporadicity test, an enumeration of its ellipsoid,
    and a sporadic one is appended as a new class; the classes and their
    order are those of testing every leaf first.  Deterministic order
    throughout.
    """
    n = linalg.as_int(n)
    diag_bound = linalg.as_int(diag_bound)
    if n < 2 or diag_bound < 1:
        raise ValueError("need n >= 2 and diag_bound >= 1")
    bound = ceil(sporadic_det_bound(n))  # an integer det is below it iff below ceil
    reps: list[_ShellRecord] = []
    for diag in combinations_with_replacement(range(2, diag_bound + 1), n):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = diag[i]
        adjs: list[Rows] = [((1,),)]
        dets = [diag[0]]
        _fill_column(a, 1, n, adjs, dets, bound, diag_bound, reps)
    return [rec.rows for rec in reps]


def _fill_column(a, k, n, adjs, dets, bound, cap, reps):
    t = a[k][k]
    col = [0] * k
    # with a[k-1][k-1] == t, swapping k-1 and k moves col[:k-1] into column
    # k-1 unflipped (its first nonzero entry is positive), so the leaf
    # survives _swap_minimal only if col[:k-1] >= a[:k-1][k-1] in lex order
    prev = [a[i][k - 1] for i in range(k - 1)] if a[k - 1][k - 1] == t else []

    def entry(i, q, seen, tight):
        # q is col^T adj(A_i) col for the i entries chosen so far; seen
        # marks whether any of them was nonzero (sign normalization); tight
        # whether they equal prev[:i] (column order)
        if i == k:
            d_old = dets[-1]
            d_new = t * d_old - q
            if k == n - 1 and d_new >= bound:
                return  # det >= gamma_n^n: not sporadic, skip the adjugate
            p = adjs[-1]
            for j in range(k):
                a[j][k] = a[k][j] = col[j]
            if k == n - 1:
                _check_leaf(a, n, p, col, d_old, d_new, cap, reps)
            else:
                u = [sum(map(mul, pr, col)) for pr in p]
                adjs.append(linalg._border(p, u, d_old, d_new))
                dets.append(d_new)
                _fill_column(a, k + 1, n, adjs, dets, bound, cap, reps)
                adjs.pop()
                dets.pop()
            for j in range(k):
                a[j][k] = a[k][j] = 0
            return
        p = adjs[i]
        alpha = p[i][i]
        beta = sum(map(mul, p[i], col))  # col[i:] is still zero
        # with u = adjs[i-1] a[:i][i], adjs[i] has top-left block (dets[i]
        # adjs[i-1] + u u^T) / dets[i-1] and last column -u: beta = -u . col
        rho = (dets[i] * q + beta * beta) // dets[i - 1]
        # alpha v^2 + 2 beta v + rho <= t * det(A_{i+1}) - 1
        disc = beta * beta + alpha * (t * dets[i] - 1 - rho)
        if disc < 0:
            return
        # the integer alpha v + beta squares to at most disc exactly when
        # its absolute value is at most isqrt(disc)
        r = isqrt(disc)
        hi = (r - beta) // alpha
        lo = -((r + beta) // alpha)
        if not seen and lo < 0:
            lo = 0
        tight = tight and i < len(prev)
        if tight:
            lo = max(lo, prev[i])
        # e_i -+ e_k has norm X_ii + t - 2|v|, and norm 1 means no leaf below
        # this entry is sporadic; that |v| exists only when X_ii + t is odd
        s = a[i][i] + t
        norm1 = (s >> 1, -(s >> 1)) if s & 1 else ()
        for v in range(lo, hi + 1):
            if v in norm1:
                continue
            col[i] = v
            entry(
                i + 1,
                alpha * v * v + 2 * beta * v + rho,
                seen or v != 0,
                tight and v == prev[i],
            )
        col[i] = 0

    entry(0, 0, False, True)


def _swap_minimal(rows, n):
    """False when an adjacent equal-diagonal swap lowers the matrix order.

    rows must be sign-normalized (each column's first nonzero entry above
    the diagonal positive), as every leaf of the walk is.  The order is
    lexicographic on the upper triangle read column by column, and a swap
    of k and k+1 is compared after the basis sign flips that normalize its
    columns left to right.  Columns before k are untouched by the swap and
    already normalized, so the comparison starts at column max(k, 1).
    Flipping basis vector c changes only column c's entries and those of
    later columns, so each column is normalized just before it is compared,
    and the comparison stops at the first differing entry.
    """
    for k in range(n - 1):
        if rows[k][k] != rows[k + 1][k + 1]:
            continue
        p = list(range(n))
        p[k], p[k + 1] = k + 1, k
        sign = [1] * n
        for c in range(max(k, 1), n):
            pc = p[c]
            col = [sign[i] * rows[p[i]][pc] for i in range(c)]
            if next((v for v in col if v), 0) < 0:
                sign[c] = -1
                col = [-v for v in col]
            base = [rows[i][c] for i in range(c)]
            if col < base:
                return False
            if col != base:
                break
    return True


def _check_leaf(a, n, p, col, d_old, d, cap, reps):
    """Append the leaf a to reps when it is a new sporadic class.

    The leaf is [[B, c], [c^T, t]] with p = adj(B), d_old = det(B), c = col
    and d = det(a).  reps holds one _ShellRecord below cap per class so far.
    The e_i probe reads the diagonal of adj(a) from the bordered update
    before building it: its last entry is d_old, and entry r is (d p_rr +
    u_r^2) / d_old with u_r = p[r] . c, formed one row at a time; the first
    entry <= d rejects the leaf (X - e_i e_i^T stays PSD).  Then come the
    e_i +- e_j probes and _swap_minimal.  A surviving leaf is matched
    against the known classes of its determinant before the full
    sporadicity test (_join_class): a match is sporadic and already known,
    so only a leaf that matches no class enumerates its ellipsoid.
    """
    if d_old <= d:
        return
    dd = d * d_old
    u = []
    for r, pr in enumerate(p):
        ur = sum(map(mul, pr, col))
        if d * pr[r] + ur * ur <= dd:
            return
        u.append(ur)
    adj = linalg._border(p, u, d_old, d)
    for i in range(n):
        for j in range(i):
            cross = 2 * adj[i][j]
            if adj[i][i] + adj[j][j] - abs(cross) <= d:
                return  # some e_i +- e_j peels off
    if not _swap_minimal(a, n):
        return
    _join_class(
        tuple(tuple(r) for r in a),
        d,
        cap,
        reps,
        lambda: next(lattice._points(lattice._decompose(adj), d), None) is None,
    )


def _join_class(rows, d, cap, reps, sporadic):
    """The record in reps congruent to the positive definite rows, or None;
    with none, rows' own _ShellRecord below cap is appended to reps as a
    new class when sporadic(), the full sporadicity test of rows, holds.

    A match needs no full test, since unimodular congruence preserves
    sporadicity: if X - x x^T is PSD for an integral x != 0, then U X U^T -
    (U x)(U x)^T = U (X - x x^T) U^T is PSD, and U x != 0 is integral; U^-1
    is integral too, so U X U^T is sporadic exactly when X is.  Every
    record in reps is sporadic, so a match is a known sporadic class.

    Only records with rows' determinant d are searched, each by its table
    backtrack (_ShellRecord.witness, which unimodular_witness runs on the
    full-rank cores of its pair), and every find is checked.  When two
    or more records share d, rows' record is built first, and records
    whose shell counts differ from its counts are skipped; a new class
    keeps that record, so rows is enumerated at most once.  With a single
    such record the backtrack runs alone: it fails only on a new class or
    on a leaf that sporadic() then rejects (no search through (7, 2) and
    (6, 3) has one), and a failed backtrack costs more than the counts only
    there.  With none, sporadic() runs at once.
    """
    same = [rec for rec in reps if rec.det == d]
    own = None
    if len(same) > 1:
        own = _shell_record(rows, d, cap)
        same = [rec for rec in same if rec.counts == own.counts]
    for rec in same:
        u = rec.witness(rows)
        if u is not None:
            _check_witness(u, rec.rows, rows)
            return rec
    if sporadic():
        reps.append(own if own is not None else _shell_record(rows, d, cap))
    return None


# -- the three generators of GL(n, Z), acting on the cut generator stream -----


def gl_generators(n: int) -> dict[str, Rows]:
    """Cyclic shift, one elementary row addition, and the first transposition
    generate GL(n, Z); the inverses of the first two are written out as
    extra letters: the reverse shift, and row 1 minus row 0."""
    if n < 2:
        raise ValueError("need n >= 2")
    eye = linalg.identity(n)
    e0, e1, rest = eye[0], eye[1], eye[2:]
    return {
        "shift": eye[1:] + eye[:1],
        "addrow": (e0, tuple(a + b for a, b in zip(e1, e0))) + rest,
        "swap": (e1, e0) + rest,
        "shift_inv": eye[-1:] + eye[:-1],
        "addrow_inv": (e0, tuple(a - b for a, b in zip(e1, e0))) + rest,
    }
