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
from itertools import combinations_with_replacement, groupby
from math import ceil
from operator import mul

from . import lattice, linalg
from .lattice import QuadFormQuery
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


def sporadic_catalog(n: int) -> tuple[Rows, ...]:
    """Known sporadic classes per dimension; complete only through n = 6."""
    return (M6,) if n == 6 else ()


def sporadic_det_bound(n: int) -> Fraction:
    """Upper bound on the determinant of any sporadic matrix in dimension n."""
    return lattice.hermite_gamma(n)


def is_sporadic(x_rows) -> bool:
    """True iff X is PSD, nonzero, and no nonzero rank-one peel exists.

    The zero matrix is the identity of the semigroup and counts as fully
    decomposed, so it returns False.
    """
    x_rows = linalg.freeze(x_rows)
    if not linalg.is_psd_exact(x_rows):
        raise ValueError("is_sporadic expects a PSD matrix")
    if not any(v for row in x_rows for v in row):
        return False
    return lattice._kx_first(x_rows) is None


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
        total = [[0] * self.n for _ in range(self.n)]
        for x, lam in self.vectors:
            for i in range(self.n):
                for j in range(self.n):
                    total[i][j] += lam * x[i] * x[j]
        if self.remainder is not None:
            for i in range(self.n):
                for j in range(self.n):
                    total[i][j] += self.remainder.rows[i][j]
        return tuple(map(tuple, total))

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


def _sub_outer(rows, x):
    n = len(rows)
    return tuple(
        tuple(rows[i][j] - x[i] * x[j] for j in range(n)) for i in range(n)
    )


def decompose(x_rows) -> Rank1Certificate:
    """Peel deterministic rank-one summands until zero or a sporadic residue.

    Each step peels lattice._kx_first of the residue.  The residue is
    reduced to its full-rank block B once, and the first peel y of B is
    lifted back; after each peel the ellipsoid data (adjugate and
    determinant) of B - y y^T comes from an exact integer rank-one downdate
    of B's (_rank1_update).  Only when that determinant reaches 0, i.e. the
    rank drops, is the residue reduced again.  The run takes at most tr(X)
    steps since every peel lowers the trace.
    """
    x0 = linalg.freeze(x_rows)
    if not linalg.is_psd_exact(x0):
        raise ValueError("decompose expects a PSD matrix")
    n = len(x0)
    cur = x0
    found: list[tuple[int, ...]] = []
    d = 0
    while any(v for row in cur for v in row):
        if d == 0:
            lift, adj, d = lattice._peel_data(cur)
        y = next(QuadFormQuery(adj, d).points(), None)
        if y is None:
            break
        x = lattice._lift(lift, y)
        found.append(x)
        cur = _sub_outer(cur, x)
        ay = linalg.mat_vec(adj, y)
        d2 = d - sum(a * b for a, b in zip(ay, y))
        adj, d = _rank1_update(adj, ay, d, d2), d2
    vectors = tuple((x, len(list(run))) for x, run in groupby(found))
    if not any(v for row in cur for v in row):
        return Rank1Certificate(n=n, vectors=vectors, remainder=None, witness=None)
    witness = None
    for cat in sporadic_catalog(n):
        witness = unimodular_witness(cur, cat)
        if witness is not None:
            break
    return Rank1Certificate(
        n=n, vectors=vectors, remainder=SymIntMatrix(cur), witness=witness
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

    Cheap congruence invariants first: determinant, rank (from the
    _psd_rank pass that also checks PSD), and the count of vectors at each
    form value up to the largest diagonal entry of Y.  The _shell_record of
    each matrix, one enumeration below that value, holds these counts; only
    when they agree does the shell product table backtrack of X's record
    (_ShellRecord.witness, the one _join_class uses) look for the first U,
    building the table rows it reads.  Singular pairs are compared through
    their full-rank cores.
    """
    x = linalg.freeze(x_rows)
    y = linalg.freeze(y_rows)
    if len(x) != len(y):
        raise ValueError("unimodular_witness expects matrices of equal size")
    n = len(x)
    ranks = []
    for m in (x, y):
        ranks.append(linalg._psd_rank(m))
        if ranks[-1] is None:
            raise ValueError("unimodular_witness expects PSD matrices")
    if n == 0:
        return UnimodularMatrix(())
    d = linalg.det(x)
    if d != linalg.det(y):
        return None
    r = ranks[0]
    if r != ranks[1]:
        return None
    if r < n:
        ux, _, bx = linalg.reduce_rank(x)
        _, uy_inv_t, by = linalg.reduce_rank(y)
        if r == 0:
            core: Rows = ()
        else:
            wit = unimodular_witness(bx, by)
            if wit is None:
                return None
            core = wit.rows
        w = linalg.identity(n)[: n - r] + tuple((0,) * (n - r) + row for row in core)
        u = linalg.mat_mul(uy_inv_t, linalg.mat_mul(w, linalg.transpose(ux)))
        _check_witness(u, x, y)
        return UnimodularMatrix(u)
    cap = max(y[i][i] for i in range(n))
    rec = _shell_record(x, d, cap)
    if rec.counts != _shell_record(y, d, cap).counts:
        return None
    u = rec.witness(y)
    if u is None:
        return None
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
    and the orbit minimum always survives), then the full sporadicity test.
    A sporadic leaf is compared only with the classes found so far that
    share its determinant (_join_class), by the backtrack through each
    class's shell product table; its shell counts up to diag_bound (one
    enumeration of the leaf) are computed only when two or more classes
    share the determinant.  Deterministic order throughout.
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


def _rank1_update(p, u, d_old, d_new) -> list[list[int]]:
    """(d_new p + u u^T) / d_old as lists of rows, every division exact: the
    adjugate of B - y y^T for p = adj(B), u = p y, d_old = det(B) and d_new
    = det(B - y y^T), and the top-left block of the bordered adjugate
    (_border)."""
    return [
        [(d_new * pj + ur * uj) // d_old for pj, uj in zip(pr, u)]
        for pr, ur in zip(p, u)
    ]


def _border(p, u, d_old, d_new) -> Rows:
    """adj(A) for A = [[B, c], [c^T, t]] with det(A) = d_new, from p =
    adj(B), d_old = det(B) and u = p c: the bordered-inverse identity, every
    division exact.  Its diagonal is (d_new p_rr + u_r^2) / d_old, then
    d_old."""
    top = _rank1_update(p, u, d_old, d_new)
    for row, ur in zip(top, u):
        row.append(-ur)
    top.append([-v for v in u] + [d_old])
    return tuple(map(tuple, top))


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
                adjs.append(_border(p, u, d_old, d_new))
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
        hi = lattice._floor_div_surd(-beta, disc, alpha)
        lo = -lattice._floor_div_surd(beta, disc, alpha)
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


def _sign_normalize(m, n):
    """Flip basis signs so every column's first nonzero entry is positive."""
    for k in range(1, n):
        lead = next((m[i][k] for i in range(k) if m[i][k]), 0)
        if lead < 0:
            for i in range(n):
                m[i][k] = -m[i][k]
                m[k][i] = -m[k][i]
    return m


def _upper_key(m, n):
    return tuple(m[i][k] for k in range(1, n) for i in range(k))


def _swap_minimal(rows, n):
    """False when an adjacent equal-diagonal swap lowers the matrix order."""
    base = _upper_key(rows, n)
    for k in range(n - 1):
        if rows[k][k] != rows[k + 1][k + 1]:
            continue
        sw = [list(r) for r in rows]
        sw[k], sw[k + 1] = sw[k + 1], sw[k]
        for r in sw:
            r[k], r[k + 1] = r[k + 1], r[k]
        if _upper_key(_sign_normalize(sw, n), n) < base:
            return False
    return True


def _check_leaf(a, n, p, col, d_old, d, cap, reps):
    """Append the leaf a to reps when it is a new sporadic class.

    The leaf is [[B, c], [c^T, t]] with p = adj(B), d_old = det(B), c = col
    and d = det(a).  reps holds one _ShellRecord below cap per class so far.
    The e_i probe reads the diagonal of adj(a) from the bordered update
    before building it: its last entry is d_old, and entry r is (d p_rr +
    u_r^2) / d_old with u_r = p[r] . c, formed one row at a time; the first
    entry <= d rejects the leaf (X - e_i e_i^T stays PSD).
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
    adj = _border(p, u, d_old, d)
    for i in range(n):
        for j in range(i):
            cross = 2 * adj[i][j]
            if adj[i][i] + adj[j][j] - abs(cross) <= d:
                return  # some e_i +- e_j peels off
    if not _swap_minimal(a, n):
        return
    if next(QuadFormQuery(adj, d).points(), None) is not None:
        return
    _join_class(tuple(tuple(r) for r in a), d, cap, reps)


def _join_class(rows, d, cap, reps):
    """The record in reps congruent to the positive definite rows; when
    there is none, rows' own _ShellRecord below cap is appended to reps as
    a new class and None is returned.

    Only records with rows' determinant d are searched, each by its table
    backtrack (_ShellRecord.witness), and every find is checked.  When two
    or more records share d, rows' record is built first, and records
    whose shell counts differ from its counts are skipped; a new class
    keeps that record, so rows is enumerated at most once.  With a single
    such record the backtrack runs alone: it fails at most once per new
    class, and a failed backtrack costs more than the counts only there.
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
