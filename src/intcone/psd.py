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


def _shells(rows, cap):
    """The pairs (v, A v) of the enumeration below cap, keyed by v^T A v."""
    shells: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {
        val: [] for val in range(1, cap + 1)
    }
    for v in lattice.enumerate_below(rows, cap):
        av = linalg.mat_vec(rows, v)
        shells[sum(a * b for a, b in zip(v, av))].append((v, av))
    return shells


def unimodular_witness(x_rows, y_rows):
    """A unimodular U with U X U^T = Y, or None when none exists.

    Cheap congruence invariants first: determinant, rank, and the count of
    vectors at each form value up to the largest diagonal entry of Y.  One
    enumeration of each matrix below that value gives these counts, and
    X's pass also keeps every vector v with X v, grouped by v^T X v: the
    shells of a row-by-row backtracking search with all cross products
    pinned by Y.  Singular pairs are compared through their full-rank
    cores.
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
    if linalg.det(x) != linalg.det(y):
        return None
    r = linalg.rank(x)
    if r != linalg.rank(y):
        return None
    if r < n:
        ux, bx = linalg.reduce_rank(x)
        uy, by = linalg.reduce_rank(y)
        if r == 0:
            core: Rows = ()
        else:
            wit = unimodular_witness(bx, by)
            if wit is None:
                return None
            core = wit.rows
        w = [[0] * n for _ in range(n)]
        for i in range(n - r):
            w[i][i] = 1
        for i in range(r):
            for j in range(r):
                w[n - r + i][n - r + j] = core[i][j]
        uy_inv_t = linalg.transpose(linalg.inverse_unimodular(uy))
        u = linalg.mat_mul(
            uy_inv_t, linalg.mat_mul(linalg.freeze(w), linalg.transpose(ux))
        )
        _check_witness(u, x, y)
        return UnimodularMatrix(u)
    cap = max(y[i][i] for i in range(n))
    shells = _shells(x, cap)
    y_shells = _shells(y, cap)
    if any(len(shells[val]) != len(y_shells[val]) for val in shells):
        return None
    for val in shells:
        shells[val] = shells[val] + [
            (tuple(-a for a in v), tuple(-a for a in xv))
            for v, xv in shells[val]
        ]
    rows_u: list[tuple[int, ...]] = []

    def backtrack(i):
        if i == n:
            return linalg.det(tuple(rows_u)) in (1, -1)
        pool = shells[y[i][i]]
        if i == 0:
            pool = pool[: len(pool) // 2]  # a global sign flip is free
        for v, xv in pool:
            if all(
                sum(a * b for a, b in zip(rows_u[j], xv)) == y[i][j]
                for j in range(i)
            ):
                rows_u.append(v)
                if backtrack(i + 1):
                    return True
                rows_u.pop()
        return False

    if not backtrack(0):
        return None
    u = tuple(rows_u)
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
    det >= gamma_n^n is dropped there, before its adjugate is built.  A
    leaf that remains is filtered by cheap subtraction probes, then by
    _swap_minimal (each adjacent equal-diagonal swap, sign-normalized, must
    not give a lexicographically smaller matrix; it decides the ties and
    the swap of the first two rows, and the orbit minimum always survives),
    then by the full sporadicity test, and is finally deduplicated up to
    unimodular congruence.  Deterministic order throughout.
    """
    if n < 2 or diag_bound < 1:
        raise ValueError("need n >= 2 and diag_bound >= 1")
    bound = ceil(sporadic_det_bound(n))  # an integer det is below it iff below ceil
    reps: list[Rows] = []
    for diag in combinations_with_replacement(range(1, diag_bound + 1), n):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = diag[i]
        adjs: list[Rows] = [((1,),)]
        dets = [diag[0]]
        _fill_column(a, 1, n, adjs, dets, bound, reps)
    return reps


def _fill_column(a, k, n, adjs, dets, bound, reps):
    if k == n:
        _check_leaf(a, n, adjs[-1], dets[-1], reps)
        return
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
            u = [sum(p[r][j] * col[j] for j in range(k)) for r in range(k)]
            top = [
                [(d_new * p[r][j] + u[r] * u[j]) // d_old for j in range(k)]
                + [-u[r]]
                for r in range(k)
            ]
            adjs.append(tuple(tuple(r) for r in top + [[-v for v in u] + [d_old]]))
            dets.append(d_new)
            for j in range(k):
                a[j][k] = a[k][j] = col[j]
            _fill_column(a, k + 1, n, adjs, dets, bound, reps)
            adjs.pop()
            dets.pop()
            for j in range(k):
                a[j][k] = a[k][j] = 0
            return
        p = adjs[i]
        alpha = p[i][i]
        beta = sum(p[j][i] * col[j] for j in range(i))
        rho = sum(
            p[j][l] * col[j] * col[l] for j in range(i) for l in range(i)
        )
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


def _check_leaf(a, n, adj, d, reps):
    for i in range(n):
        if adj[i][i] <= d:
            return  # X - e_i e_i^T stays PSD, so not sporadic
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
    for r in reps:
        if unimodular_witness(rows, r) is not None:
            return
    reps.append(rows)


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

