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

from dataclasses import dataclass
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


def rank1_step(x_rows):
    """The deterministic first integer vector x with X - x x^T still PSD.

    Returns None when no such nonzero x exists, i.e. X is sporadic.  Raises
    on non-PSD input and on the zero matrix.
    """
    x_rows = linalg.freeze(x_rows)
    if not linalg.is_psd_exact(x_rows):
        raise ValueError("rank1_step expects a PSD matrix")
    if not any(v for row in x_rows for v in row):
        raise ValueError("rank1_step expects a nonzero matrix")
    return lattice._kx_first(x_rows)


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

    Chooses the same vector as rank1_step at every step.  The residue is
    reduced to its full-rank block B once, and the first peel y of B is
    lifted back; after each peel the ellipsoid data (adjugate and
    determinant) of B - y y^T comes from an exact integer rank-one downdate
    of B's.  Only when that determinant reaches 0, i.e. the rank drops, is
    the residue reduced again.  The run takes at most tr(X) steps since
    every peel lowers the trace.
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
        adj = tuple(
            tuple((d2 * adj_i[j] + ay_i * ay[j]) // d for j in range(len(y)))
            for adj_i, ay_i in zip(adj, ay)
        )
        d = d2
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
    len(counts).

    det is det(A); counts[val - 1] is the number of canonical vectors v
    with v^T A v = val; shells[val] holds the signed pairs (v, A v), the
    canonical v in enumeration order followed by their negatives.
    """

    rows: Rows
    det: int
    counts: tuple[int, ...]
    shells: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]


def _shell_record(rows, d, cap) -> _ShellRecord:
    """The record of a positive definite A with det(A) = d, from one
    enumeration below cap."""
    shells: dict = {val: [] for val in range(1, cap + 1)}
    for v in lattice.enumerate_below(rows, cap):
        av = linalg.mat_vec(rows, v)
        shells[sum(map(mul, v, av))].append((v, av))
    counts = tuple(len(s) for s in shells.values())
    for s in shells.values():
        s += [(tuple(-a for a in v), tuple(-a for a in av)) for v, av in s]
    return _ShellRecord(rows, d, counts, shells)


def _shell_counts(rows, cap) -> tuple[int, ...]:
    """The counts of _shell_record, without keeping the vectors."""
    counts = [0] * cap
    for v in lattice.enumerate_below(rows, cap):
        counts[sum(map(mul, v, [sum(map(mul, r, v)) for r in rows])) - 1] += 1
    return tuple(counts)


def _congruence(rec: _ShellRecord, y):
    """The first U with U A U^T = Y whose rows come from rec's shells, or
    None; Y must have det(A) as its determinant and no diagonal entry above
    rec's cap.

    Row i of U is a vector of the shell Y_ii whose cross products with
    rows 0..i-1 match Y, backtracking row by row (Plesken-Souvignier); the
    first row skips the negatives, as a global sign flip is free.  A
    complete U has det(U)^2 det(A) = det(Y) = det(A) != 0, so it is
    unimodular.
    """
    n = len(y)
    rows_u: list[tuple[int, ...]] = []

    def backtrack(i):
        if i == n:
            return True
        pool = rec.shells[y[i][i]]
        if i == 0:
            pool = pool[: len(pool) // 2]
        for v, av in pool:
            if all(sum(map(mul, rows_u[j], av)) == y[i][j] for j in range(i)):
                rows_u.append(v)
                if backtrack(i + 1):
                    return True
                rows_u.pop()
        return False

    return tuple(rows_u) if backtrack(0) else None


def unimodular_witness(x_rows, y_rows):
    """A unimodular U with U X U^T = Y, or None when none exists.

    Cheap congruence invariants first: determinant, rank, and the count of
    vectors at each form value up to the largest diagonal entry of Y.  One
    enumeration of each matrix below that value gives these counts, and
    X's pass also keeps its shells (_shell_record), which _congruence
    searches for the first U.  Singular pairs are compared through their
    full-rank cores.
    """
    x = linalg.freeze(x_rows)
    y = linalg.freeze(y_rows)
    if len(x) != len(y):
        raise ValueError("unimodular_witness expects matrices of equal size")
    n = len(x)
    for m in (x, y):
        if not linalg.is_psd_exact(m):
            raise ValueError("unimodular_witness expects PSD matrices")
    if n == 0:
        return UnimodularMatrix(())
    d = linalg.det(x)
    if d != linalg.det(y):
        return None
    r = linalg.rank(x)
    if r != linalg.rank(y):
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
    if rec.counts != _shell_counts(y, cap):
        return None
    u = _congruence(rec, y)
    if u is None:
        return None
    _check_witness(u, x, y)
    return UnimodularMatrix(u)


def _check_witness(u, x, y):
    if linalg.mat_mul(u, linalg.mat_mul(x, linalg.transpose(u))) != y:
        raise RuntimeError("congruence witness does not map X onto Y")


def search_sporadic(n: int, diag_bound: int) -> list[Rows]:
    """All sporadic classes with nondecreasing diagonal <= diag_bound.

    Exhausts positive definite integer matrices with 1 <= X_11 <= ... <=
    X_nn <= diag_bound column by column over exact integer intervals: with
    the adjugates and determinants of all leading blocks kept on a stack,
    extendability of a partial column c over the reals is exactly
    c^T adj(A_j) c < X_kk det(A_j), a quadratic whose integer solution range
    comes from one integer square root.  Accepted columns update the
    adjugate by the exact bordered-inverse identity, so leaves have their
    ellipsoid data for free.

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
    share its determinant and its shell counts up to diag_bound (one
    enumeration of the leaf), by a backtrack through each class's shells,
    which are enumerated once, when the class is found.  Deterministic order
    throughout.
    """
    n = linalg.as_int(n)
    diag_bound = linalg.as_int(diag_bound)
    if n < 2 or diag_bound < 1:
        raise ValueError("need n >= 2 and diag_bound >= 1")
    bound = ceil(sporadic_det_bound(n))  # an integer det is below it iff below ceil
    reps: list[_ShellRecord] = []
    for diag in combinations_with_replacement(range(1, diag_bound + 1), n):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = diag[i]
        adjs: list[Rows] = [((1,),)]
        dets = [diag[0]]
        _fill_column(a, 1, n, adjs, dets, bound, diag_bound, reps)
    return [rec.rows for rec in reps]


def _border(p, u, d_old, d_new) -> Rows:
    """adj(A) for A = [[B, c], [c^T, t]] with det(A) = d_new, from p =
    adj(B), d_old = det(B) and u = p c: the bordered-inverse identity, every
    division exact.  Its diagonal is (d_new p_rr + u_r^2) / d_old, then
    d_old."""
    k = len(u)
    top = [
        [(d_new * p[r][j] + u[r] * u[j]) // d_old for j in range(k)] + [-u[r]]
        for r in range(k)
    ]
    return tuple(tuple(r) for r in top + [[-v for v in u] + [d_old]])


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
        for v in range(lo, hi + 1):
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
    rows = tuple(tuple(r) for r in a)
    if _class_of(rows, d, cap, reps) is None:
        reps.append(_shell_record(rows, d, cap))


def _class_of(rows, d, cap, reps):
    """The record in reps congruent to the positive definite rows, or None.

    Only records with rows' determinant d and shell counts below cap are
    searched, each for some U with U R U^T = rows; every find is checked.
    """
    counts = None
    for rec in reps:
        if rec.det != d:
            continue
        if counts is None:
            counts = _shell_counts(rows, cap)
        if rec.counts != counts:
            continue
        u = _congruence(rec, rows)
        if u is not None:
            _check_witness(u, rec.rows, rows)
            return rec
    return None


# -- the three generators of GL(n, Z), acting on the cut generator stream -----


def gl_generators(n: int) -> dict[str, Rows]:
    """Cyclic shift, one elementary row addition, and the first transposition
    generate GL(n, Z); explicit inverses are included as extra letters."""
    if n < 2:
        raise ValueError("need n >= 2")
    shift = tuple(
        tuple(1 if j == (i + 1) % n else 0 for j in range(n)) for i in range(n)
    )
    addrow = tuple(
        tuple(1 if i == j or (i, j) == (1, 0) else 0 for j in range(n))
        for i in range(n)
    )
    swap = tuple(
        tuple(
            1 if (i, j) in ((0, 1), (1, 0)) or (i == j and i > 1) else 0
            for j in range(n)
        )
        for i in range(n)
    )
    return {
        "shift": shift,
        "addrow": addrow,
        "swap": swap,
        "shift_inv": linalg.inverse_unimodular(shift),
        "addrow_inv": linalg.inverse_unimodular(addrow),
    }

