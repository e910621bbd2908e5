"""Independent brute-force oracles used to pin down expected values.

Everything here is deliberately naive (cofactor recursion, box scans,
principal-minor tests, explicit congruences) and shares no code with the
package internals, except that evaluate_word takes the second-order cone's
generator matrices from the package, to multiply them here, and
reduce_rank_dense its kernel vectors, so that both rank splits fold the
same vectors, and gl_generators_by_inversion inverts with the package's
inverse_unimodular, as the code it replaced did.  The uncached stream walk
and icr search take the package's cone record (weight, membership,
flatten) from the caller, as the stream code they copy did, but not its
letters: dense_generators builds the dense matrices the walk multiplies
by, from soc.generator_matrix rows and from Kronecker squares of
psd.gl_generators formed here.  tuple_icr_search is icr_search as it was
before the SOC record admitted candidates on the Lorentz form; it reads
the stream's cached search view and admits by membership alone.
echelon_split is the positive-definite split that lattice._decompose
took from the general echelon before the symmetric elimination served it.
peel_by_one_decompose is the peel loop that psd.decompose replaced, with
the package's frame, enumeration, lift, catalog match and certificate
type, and its own one-copy adjugate downdate.
recursive_unimodular_witness is psd.unimodular_witness as it was before
it made one pass over the full-rank cores, calling itself on the cores
of a singular pair.
recursive_points is the enumeration walk of QuadFormQuery.points as it
was before the loop over per-level arrays, one generator per level, on
the package's split.
soc_peel_candidate and soc_first_peel are the SOC peel walk as it was
before each child was tested in its parent's loop and a peel search took
a top height, and soc_root_refuted is the root test that _peel_candidate
made before it left that test to _first_peel; soc_recursive_peel_candidate
is the walk as it was before it became one loop, one call per node, with
the package's square-sum tests;
soc_decompose_from_each_height is decompose_soc over them,
with the package's descent and certificate type and its own maximal
multiple.  lorentz_multiple is the bisection on the Lorentz form that the
SOC cone record admitted candidates with before soc._most_multiple.
"""

from bisect import bisect_left
from collections import deque
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, product
from math import gcd, isqrt
from operator import mul, neg

from intcone import lattice, linalg, psd, soc


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = rows[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def adjugate_cofactor(rows):
    """adj(A)[i][j] = (-1)^(i+j) times the minor of A without row j and
    column i; defined for singular A too."""
    n = len(rows)
    return tuple(
        tuple(
            (-1) ** (i + j)
            * det_cofactor(
                [[r[c] for c in range(n) if c != i] for r in rows[:j] + rows[j + 1 :]]
            )
            for j in range(n)
        )
        for i in range(n)
    )


def psd_by_minors(rows):
    """PSD iff every principal minor (all subsets) is nonnegative."""
    n = len(rows)
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        sub = [[rows[i][j] for j in idx] for i in idx]
        if det_cofactor(sub) < 0:
            return False
    return True


def echelon_split(rows):
    """(d, upper rows of M): lattice's LDL^T split of a positive definite
    matrix as the general Bareiss echelon gave it, before the split moved
    to the symmetric elimination; raises ValueError on any other matrix.

    Without a row swap the echelon's pivots are the leading principal
    minors, so the matrix is positive definite exactly when the echelon
    makes no swap and finds n pivots, all positive (Sylvester's
    criterion).  Row k of the upper rows holds the echelon's entries from
    column k on.
    """
    a = [list(row) for row in rows]
    n = len(a)
    swaps, prev, r = 0, 1, 0
    for col in range(n):
        piv = next((i for i in range(r, n) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            swaps += 1
        p = a[r][col]
        for i in range(r + 1, n):
            lead = a[i][col]
            for j in range(col + 1, n):
                a[i][j] = (p * a[i][j] - lead * a[r][j]) // prev
            a[i][col] = 0
        prev = p
        r += 1
    d = [1] + [a[k][k] for k in range(r)]
    if swaps or r < n or min(d) <= 0:
        raise ValueError("matrix is not positive definite")
    return d, [row[k:] for k, row in enumerate(a)]


def form_value(a, x):
    n = len(x)
    return sum(a[i][j] * x[i] * x[j] for i in range(n) for j in range(n))


def recursive_points(split, bound, start=None):
    """QuadFormQuery.points on a split (d, M) as the recursive walk it was:
    one generator per level, each point passed up a yield-from chain and
    scanned for its sign at level 0."""
    d, m = split
    n = len(d) - 1
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

    yield from level(n - 1, d[n] * bound, [0] * n, start is not None)


def points_below_box(a, t):
    """All nonzero x with x^T a x <= t, canonical sign, by plain box scan.

    The box is |x_i| <= sqrt(t (a^-1)_ii), the largest value of x_i on the
    ellipsoid (Cauchy-Schwarz), with the inverse diagonal taken exactly in
    rationals; x_i is an integer, so |x_i| <= isqrt(floor(t (a^-1)_ii)).
    """
    n = len(a)
    inv_diag = _inverse_diagonal(a)
    radii = [isqrt(t * d.numerator // d.denominator) for d in inv_diag]
    out = []
    for x in product(*[range(-r, r + 1) for r in radii]):
        if all(v == 0 for v in x):
            continue
        first = next(v for v in x if v != 0)
        if first < 0:
            continue
        if form_value(a, x) <= t:
            out.append(tuple(x))
    return out


def plain_shells(a, cap):
    """The signed vectors of a positive definite a at each form value 1..cap:
    the canonical ones of points_below_box sorted as the package enumerates
    them (by the last coordinate, then the one before it, and so on, each
    ascending), followed by their negatives in the same order."""
    shells = {val: [] for val in range(1, cap + 1)}
    for x in sorted(points_below_box(a, cap), key=lambda x: x[::-1]):
        shells[form_value(a, x)].append(x)
    for s in shells.values():
        s += [tuple(-v for v in x) for x in s]
    return shells


def congruence_backtrack(a, shells, y):
    """The first U with U a U^T = y whose rows come from plain_shells(a, cap),
    cap at least y's largest diagonal entry, or None.

    Row i of U runs over the shell y_ii, keeping the vectors whose dot
    products with a times rows 0..i-1 match y; row 0 runs over the canonical
    half only."""
    n = len(y)
    rows_u = []

    def backtrack(i):
        if i == n:
            return True
        pool = shells[y[i][i]]
        if i == 0:
            pool = pool[: len(pool) // 2]
        for v in pool:
            av = [sum(a[r][c] * v[c] for c in range(n)) for r in range(n)]
            if all(
                sum(p * q for p, q in zip(rows_u[j], av)) == y[i][j] for j in range(i)
            ):
                rows_u.append(v)
                if backtrack(i + 1):
                    return True
                rows_u.pop()
        return False

    return tuple(rows_u) if backtrack(0) else None


def _inverse_diagonal(a):
    n = len(a)
    m = [[Fraction(a[i][j]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = m[col][col]
        m[col] = [v / f for v in m[col]]
        inv[col] = [v / f for v in inv[col]]
        for r in range(n):
            if r != col and m[r][col]:
                g = m[r][col]
                m[r] = [v - g * w for v, w in zip(m[r], m[col])]
                inv[r] = [v - g * w for v, w in zip(inv[r], inv[col])]
    return [inv[i][i] for i in range(n)]


# ceil(gamma_n^n) for gamma_2^2 = 4/3, gamma_3^3 = 2, gamma_4^4 = 4
_HERMITE_CEIL = {2: 2, 3: 2, 4: 4}


def sporadic_leaf_candidates(n, b):
    """Every positive definite integer n x n matrix with nondecreasing
    diagonal <= b, each column's first nonzero entry above the diagonal
    positive, no adjacent equal-diagonal swap making it smaller, and
    determinant below ceil(gamma_n^n), by a plain scan of the box
    X_ij^2 < X_ii X_jj that positive definiteness implies."""
    out = []
    for diag in combinations_with_replacement(range(1, b + 1), n):
        columns = []
        for j in range(1, n):
            radii = [isqrt(diag[i] * diag[j] - 1) for i in range(j)]
            box = product(*[range(-r, r + 1) for r in radii])
            columns.append([c for c in box if next((v for v in c if v), 1) > 0])
        for cols in product(*columns):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = diag[i]
            for j, col in enumerate(cols, start=1):
                for i, v in enumerate(col):
                    m[i][j] = m[j][i] = v
            minors = [det_cofactor([r[:k] for r in m[:k]]) for k in range(1, n + 1)]
            if min(minors) <= 0 or minors[-1] >= _HERMITE_CEIL[n]:
                continue
            if _swap_minimal(m):
                out.append(tuple(map(tuple, m)))
    return out


def _upper(m):
    return tuple(m[i][j] for j in range(1, len(m)) for i in range(j))


def _swap_minimal(m):
    """No transposition of adjacent equal-diagonal basis vectors, followed by
    the sign flips that make each column's first nonzero entry above the
    diagonal positive (columns left to right), gives a smaller _upper."""
    n = len(m)
    for k in range(n - 1):
        if m[k][k] != m[k + 1][k + 1]:
            continue
        p = list(range(n))
        p[k], p[k + 1] = k + 1, k
        sw = [[m[p[i]][p[j]] for j in range(n)] for i in range(n)]
        for j in range(1, n):
            if next((sw[i][j] for i in range(j) if sw[i][j]), 0) < 0:
                for i in range(n):
                    sw[i][j], sw[j][i] = -sw[i][j], -sw[j][i]
        if _upper(sw) < _upper(m):
            return False
    return True


def subtractable_vector_box(rows, radius):
    """First x (by growing sup-norm shell, then lexicographic) with
    rows - x x^T still PSD; None when the whole box fails."""
    n = len(rows)
    for r in range(1, radius + 1):
        for x in product(range(-r, r + 1), repeat=n):
            if max(abs(v) for v in x) != r:
                continue
            diff = [
                [rows[i][j] - x[i] * x[j] for j in range(n)] for i in range(n)
            ]
            if psd_by_minors(diff):
                return x
    return None


def pythagorean_tuples_signed(n, max_height):
    """All integer p with sum(p_i^2 for i<n-1) == p_{n-1}^2, height >= 1."""
    return [
        tuple(list(p) + [h])
        for h in range(1, max_height + 1)
        for p in _sphere_points(n - 1, h * h)
    ]


def _sphere_points(k, target):
    pts = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            if budget == 0:
                pts.append(tuple(prefix))
            return
        r = isqrt(budget)
        for v in range(-r, r + 1):
            rec(prefix + [v], remaining - 1, budget - v * v)

    rec([], k, target)
    return pts


def primitive_pythagorean_signed(n, max_height):
    out = []
    for p in pythagorean_tuples_signed(n, max_height):
        g = 0
        for v in p:
            g = gcd(g, v)
        if g == 1:
            out.append(p)
    return out


def cone_member(s):
    return s[-1] >= 0 and sum(v * v for v in s[:-1]) <= s[-1] ** 2


def sporadic_by_search(s):
    """Try to subtract every signed Pythagorean tuple up to the height of s."""
    for p in pythagorean_tuples_signed(len(s), s[-1]):
        if cone_member(tuple(a - b for a, b in zip(s, p))):
            return False
    return True


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def evaluate_word(word, n):
    """Product of the SOC generator matrices in list order."""
    out = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for label in word:
        out = mat_mul(out, soc.generator_matrix(label, n).rows)
    return out


def soc_generator_labels(n):
    """The SOC label list as the replaced label parser spelled it out."""
    return (
        ("Aplus", "AplusInv")
        + tuple(f"Q{k}" for k in range(1, n))
        + tuple(f"P1{j}" for j in range(2, n))
    )


def soc_generator_parse(label, n):
    """The SOC generator rows as the replaced label parser built them: A from
    its dimension-3 or general pattern, Aplus negating all of A's rows but
    the last, and Q{k} and P1{j} from the digits.  AplusInv is J Aplus^T J
    with J = diag(1, ..., 1, -1), as Aplus preserves the Lorentz form."""
    if label == "Aplus":
        if n == 3:
            a = ((-1, -2, 2), (-2, -1, 2), (-2, -2, 3))
        else:
            pad = (0,) * (n - 4)
            a = (
                ((0, -1, -1) + pad + (1,), (-1, 0, -1) + pad + (1,), (-1, -1, 0) + pad + (1,))
                + tuple(tuple(int(j == i) for j in range(n)) for i in range(3, n - 1))
                + ((-1, -1, -1) + pad + (2,),)
            )
        return tuple(tuple(-v for v in a[i]) if i < n - 1 else a[i] for i in range(n))
    if label == "AplusInv":
        aplus = soc_generator_parse("Aplus", n)
        sign = (1,) * (n - 1) + (-1,)
        return tuple(
            tuple(sign[i] * aplus[j][i] * sign[j] for j in range(n)) for i in range(n)
        )
    if label.startswith("Q") and label[1:].isdigit():
        k = int(label[1:])
        return tuple(
            tuple((-1 if i == k - 1 else 1) if i == j else 0 for j in range(n))
            for i in range(n)
        )
    if label.startswith("P1") and label[2:].isdigit():
        j = int(label[2:])
        lookup = {0: j - 1, j - 1: 0}
        return tuple(
            tuple(1 if c == lookup.get(r, r) else 0 for c in range(n)) for r in range(n)
        )
    raise ValueError(f"unknown generator label {label!r}")


def soc_inverse_label(label):
    """The inverse SOC letter: Aplus and AplusInv swap, Q and P are involutions."""
    return {"Aplus": "AplusInv", "AplusInv": "Aplus"}.get(label, label)


def gl_letters(n):
    """The GL(n, Z) letters of the PSD generator stream, in its label order:
    cyclic shift, the row addition e_1 -> e_1 + e_0, the first
    transposition, and the inverses of the first two.  The transposition
    needs two rows, so n = 1 has no such letters."""
    if n < 2:
        raise ValueError("the generator stream's letters need n >= 2")

    def perm(image):
        return tuple(tuple(int(j == image(i)) for j in range(n)) for i in range(n))

    def addrow(c):
        return tuple(
            tuple(int(i == j) + c * int((i, j) == (1, 0)) for j in range(n))
            for i in range(n)
        )

    swap = {0: 1, 1: 0}
    return {
        "shift": perm(lambda i: (i + 1) % n),
        "addrow": addrow(1),
        "swap": perm(lambda i: swap.get(i, i)),
        "shift_inv": perm(lambda i: (i - 1) % n),
        "addrow_inv": addrow(-1),
    }


def random_unimodular(n, length, rng):
    """Product of `length` random GL(n, Z) letters; seeded by the caller.
    GL(1, Z) is {1, -1}, so for n = 1 the letters are the two signs."""
    letters = list(gl_letters(n).values()) if n > 1 else [((1,),), ((-1,),)]
    u = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for _ in range(length):
        u = mat_mul(u, rng.choice(letters))
    return u


def congruence_walk(roots, letters, word_cap):
    """(y, root, word) for every distinct y = g X g^T reachable from a root
    by at most word_cap letters, breadth first, letters in dict order; the
    newest letter is applied last and written first."""
    seen = set(roots)
    queue = deque((r, r, ()) for r in roots)
    out = []
    while queue:
        y, root, word = queue.popleft()
        out.append((y, root, word))
        if len(word) == word_cap:
            continue
        for label, g in letters.items():
            gt = tuple(zip(*g))
            child = mat_mul(g, mat_mul(y, gt))
            if child not in seen:
                seen.add(child)
                queue.append((child, root, (label,) + word))
    return out


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def unimodular_completion(z):
    """A unimodular matrix with first column the primitive z, built as a
    dense matrix by the gcd ladder: each 2x2 step that folds z_i into the
    running gcd acts on columns (0, i) of the whole matrix."""
    n = len(z)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    g = z[0]
    for i in range(1, n):
        zi = z[i]
        if zi == 0 and g != 0:
            continue
        g2, a, b = _xgcd(g, zi)
        if g2 == 0:
            continue
        if g2 < 0:
            g2, a, b = -g2, -a, -b
        p, q = g // g2, zi // g2
        for r in range(n):
            c0, ci = u[r][0], u[r][i]
            u[r][0] = c0 * p + ci * q
            u[r][i] = -c0 * b + ci * a
        g = g2
    if g < 0:
        for r in range(n):
            u[r][0] = -u[r][0]
    return tuple(map(tuple, u))


def reduce_rank_dense(x):
    """(U, block) with U^T X U = diag(0, ..., 0, block) for a PSD X, by
    products: each kernel vector's completion u1 conjugates the block as
    u1^T B u1 and grows U by diag(I, u1)."""
    n = len(x)
    u_total = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    cur = tuple(map(tuple, x))
    z = linalg.primitive_kernel_vector(cur)
    while z is not None:
        zeros = n - len(cur)
        u1 = unimodular_completion(z)
        b = mat_mul(tuple(zip(*u1)), mat_mul(cur, u1))
        if any(b[0]):
            raise RuntimeError("kernel vector left a nonzero first row")
        tail = mat_mul([row[zeros:] for row in u_total], u1)
        u_total = tuple(row[:zeros] + t for row, t in zip(u_total, tail))
        cur = tuple(row[1:] for row in b[1:])
        z = linalg.primitive_kernel_vector(cur)
    full = mat_mul(tuple(zip(*u_total)), mat_mul(x, u_total))
    if any(any(row) for row in full[: n - len(cur)]):
        raise RuntimeError("reduce_rank left a nonzero row in the kernel block")
    return u_total, cur


def root_splits_table(n):
    """The SOC root splits as the replaced table spelled them out."""
    if n == 9:
        return {
            (2, 2, 2, 2, 2, 2, 2, 1, 6): (
                (1, 1, 1, 1, 1, 1, 1, 0, 3),
                (1, 1, 1, 1, 1, 1, 1, 1, 3),
            )
        }
    if n == 10:
        return {
            (2, 2, 2, 2, 2, 2, 2, 2, 1, 6): (
                (1, 1, 1, 1, 1, 1, 1, 1, 0, 3),
                (1, 1, 1, 1, 1, 1, 1, 1, 1, 3),
            ),
            (2, 2, 2, 2, 2, 2, 2, 1, 0, 6): (
                (1, 1, 1, 1, 1, 1, 1, 0, 0, 3),
                (1, 1, 1, 1, 1, 1, 1, 1, 0, 3),
            ),
        }
    return {}


def gl_generators_by_inversion(n):
    """The PSD letters as the replaced builder made them: the shift, the row
    addition and the transposition by entry rules, and the two inverse
    letters by linalg.inverse_unimodular."""
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


def _rec_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def kronecker_square(g):
    """The dense n^2 x n^2 matrix of X -> g X g^T on row-major entries."""
    return tuple(tuple(a * b for a in gi for b in gj) for gi in g for gj in g)


def dense_generators(rec):
    """label -> dense matrix on flat elements for a cuts cone record, in
    the record's label order: the SOC rows of soc.generator_matrix, or the
    Kronecker squares of psd.gl_generators."""
    root = rec.roots[0]
    n = len(root)
    if isinstance(root[0], int):  # an SOC root is a vector, a PSD root a matrix
        return {label: soc.generator_matrix(label, n).rows for label in soc._letters(n)}
    return {label: kronecker_square(g) for label, g in psd.gl_generators(n).items()}


def uncached_walk(rec, roots, word_cap, cap=None):
    """(element, root, word) as the generator stream emitted them before
    its walk was cached: walked again on every call, each root taken as
    given (a repeated root is walked twice), `cap` applied on emission.
    `rec` is a cuts cone record; roots are its native elements."""
    flat = tuple(rec.flatten(r) for r in roots)
    gens = tuple(dense_generators(rec).items())
    seen = set(flat)
    queue = deque((y, r, ()) for y, r in zip(flat, roots))
    out = []
    while queue:
        y, root, word = queue.popleft()
        if cap is None or rec.weight(y) <= cap:
            out.append((rec.unflatten(y), root, word))
        if len(word) == word_cap:
            continue
        for label, g in gens:
            child = tuple(_rec_dot(row, y) for row in g)
            if child not in seen:
                seen.add(child)
                queue.append((child, root, (label,) + word))
    return out


def uncached_icr_search(s, rec, roots, word_cap, stream_cap, cap):
    """(status, count, terms) of icr_search as it ran before the stream was
    cached: candidates drained from uncached_walk on every call, flattened,
    kept at weight 1..weight(s) and sorted heaviest first; the same
    iterative-deepening search over them."""
    s = rec.flatten(s)
    total = rec.weight(s)
    cands = []
    for y, _, _ in uncached_walk(rec, roots, word_cap, stream_cap):
        y = rec.flatten(y)
        w = rec.weight(y)
        if 1 <= w <= total:
            cands.append((y, w))
    cands.sort(key=lambda yw: -yw[1])

    chosen = []

    def dfs(res, res_weight, k_left, i0):
        if res_weight == 0:
            return not any(res)
        if k_left == 0:
            return False
        for i in range(i0, len(cands)):
            y, w = cands[i]
            if w > res_weight:
                continue
            for lam in range(res_weight // w, 0, -1):
                nxt = tuple(a - lam * b for a, b in zip(res, y))
                if not rec.member(nxt):
                    continue
                chosen.append((lam, y))
                if dfs(nxt, res_weight - lam * w, k_left - 1, i + 1):
                    return True
                chosen.pop()
        return False

    for k in range(min(cap, total, len(cands)) + 1):
        chosen.clear()
        if dfs(s, total, k, 0):
            return "ok", k, tuple((lam, rec.unflatten(y)) for lam, y in chosen)
    if cap >= min(total, len(cands)):
        return "infeasible", None, ()
    return "exceeded", None, ()


def tuple_icr_search(s, gen, cap):
    """(status, count, terms) of cuts.icr_search as it ran before the
    cone record chose how to admit a candidate: the same cached view, ray
    lookup and table of dead residuals, but every candidate admitted by
    building res - lam*y and testing it with the record's membership, one
    test at 1 and a bisection for the largest multiplicity."""
    rec = gen._cone
    s = rec.flatten(s)
    total = rec.weight(s)
    limit = total if gen.cap is None else min(total, gen.cap)
    _, view = gen._cached()
    ys, weights, rays = view[0], view[1], view[-1]
    first = bisect_left(weights, -limit, key=neg)

    def direction(y):
        g = 0
        for v in y:
            g = gcd(g, v)
        return tuple(v // g for v in y)

    chosen = []
    dead = {}

    def dfs(res, res_weight, k_left, i0):
        if res_weight == 0:
            return not any(res)
        if dead.get(res, i0 + 1) <= i0:
            return False
        if k_left == 0:
            return None
        if k_left == 1:
            for i in rays.get(direction(res), ()):
                if i >= i0 and res_weight % weights[i] == 0:
                    chosen.append((res_weight // weights[i], ys[i]))
                    return True
            return None
        outcome = False
        for i in range(max(i0, bisect_left(weights, -res_weight, key=neg)), len(ys)):
            y, w = ys[i], weights[i]
            if not rec.member(tuple(a - b for a, b in zip(res, y))):
                continue
            lo, hi = 1, res_weight // w
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if rec.member(tuple(a - mid * b for a, b in zip(res, y))):
                    lo = mid
                else:
                    hi = mid - 1
            for lam in range(lo, 0, -1):
                nxt = tuple(a - lam * b for a, b in zip(res, y))
                chosen.append((lam, y))
                child = dfs(nxt, res_weight - lam * w, k_left - 1, i + 1)
                if child:
                    return True
                chosen.pop()
                if child is None:
                    outcome = None
        if outcome is False:
            dead[res] = i0
        return outcome

    for k in range(min(cap, total, len(ys) - first) + 1):
        chosen.clear()
        if dfs(s, total, k, first):
            return "ok", k, tuple((lam, rec.unflatten(y)) for lam, y in chosen)
    if cap >= min(total, len(ys) - first):
        return "infeasible", None, ()
    return "exceeded", None, ()


def peel_by_one_decompose(x_rows):
    """psd.decompose as it was before peels went at their maximal multiple:
    one enumeration per copy of each peel, each from the origin, a fresh
    frame (reduce_rank) at every rank drop down to rank one, and runs of
    equal vectors merged afterwards."""
    x0 = linalg.freeze(x_rows)
    if not linalg.is_psd_exact(x0):
        raise ValueError("decompose expects a PSD matrix")
    n = len(x0)
    cur = x0
    found = []
    d = 0
    while any(v for row in cur for v in row):
        if d == 0:
            lift, adj, d = lattice._peel_data(cur, None)
        y = next(lattice.QuadFormQuery(adj, d).points(), None)
        if y is None:
            break
        x = lattice._lift(lift, y)
        found.append(x)
        cur = tuple(
            tuple(cur[i][j] - x[i] * x[j] for j in range(n)) for i in range(n)
        )
        ay = linalg.mat_vec(adj, y)
        d2 = d - sum(a * b for a, b in zip(ay, y))
        adj = [[(d2 * pj + ar * aj) // d for pj, aj in zip(pr, ay)] for pr, ar in zip(adj, ay)]
        d = d2
    vectors = tuple((x, len(list(run))) for x, run in groupby(found))
    if not any(v for row in cur for v in row):
        return psd.Rank1Certificate(n=n, vectors=vectors, remainder=None, witness=None)
    witness = None
    for cat in psd.sporadic_catalog(n):
        witness = psd.unimodular_witness(cur, cat)
        if witness is not None:
            break
    return psd.Rank1Certificate(
        n=n, vectors=vectors, remainder=linalg.SymIntMatrix(cur), witness=witness
    )


def recursive_unimodular_witness(x_rows, y_rows):
    """psd.unimodular_witness as it was before it made one pass over the
    full-rank cores: it checks both matrices, compares rank and
    determinant, and on a singular pair splits both with _reduce_rank and
    calls itself on the blocks, then borders and checks that witness.  The
    package's shell records, table backtrack and witness check; the entry
    symmetry check written out, with the package's error text."""
    x = linalg.freeze(x_rows)
    y = linalg.freeze(y_rows)
    if len(x) != len(y):
        raise ValueError("unimodular_witness expects matrices of equal size")
    n = len(x)
    if n == 0:
        return linalg.UnimodularMatrix(())
    elims, invariants = [], []
    for m in (x, y):
        if not linalg.is_symmetric(m):
            raise ValueError("is_psd_exact expects a symmetric matrix")
        elim = linalg._psd_echelon(m)
        if elim is None:
            raise ValueError("unimodular_witness expects PSD matrices")
        pivots, rows = elim  # at full rank the last pivot is the determinant
        d = rows[pivots[-1]][pivots[-1]] if len(pivots) == n else 0
        elims.append(elim)
        invariants.append((len(pivots), d))
    if invariants[0] != invariants[1]:
        return None
    r, d = invariants[0]
    if r < n:
        ux, _, bx, _ = linalg._reduce_rank(x, elims[0])
        _, uy_inv_t, by, _ = linalg._reduce_rank(y, elims[1])
        if r == 0:
            core = ()
        else:
            wit = recursive_unimodular_witness(bx, by)
            if wit is None:
                return None
            core = wit.rows
        w = linalg.identity(n)[: n - r] + tuple((0,) * (n - r) + row for row in core)
        u = linalg.mat_mul(uy_inv_t, linalg.mat_mul(w, linalg.transpose(ux)))
        psd._check_witness(u, x, y)
        return linalg.UnimodularMatrix(u)
    cap = max(y[i][i] for i in range(n))
    rec = psd._shell_record(x, d, cap)
    if rec.counts != psd._shell_record(y, d, cap).counts:
        return None
    u = rec.witness(y)
    if u is None:
        return None
    psd._check_witness(u, x, y)
    return linalg.UnimodularMatrix(u)


def soc_peel_candidate(s, h: int, primitive_only: bool):
    """soc._peel_candidate as it was before each child was tested in its
    parent's loop: every child in the box range is entered, and refused
    by its own gap test."""
    n = len(s)
    m = n - 1
    ball = (s[-1] - h) ** 2
    p = [0] * m
    suffix_sq = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix_sq[i] = suffix_sq[i + 1] + s[i] * s[i]

    def walk(i, sphere_left, ball_left):
        c = suffix_sq[i]
        gap = c + sphere_left - ball_left
        if gap > 0 and gap * gap > 4 * c * sphere_left:
            return None
        si = s[i]
        if i == m - 1:
            r = isqrt(sphere_left)
            if r * r != sphere_left:
                return None
            for v in ((-r, r) if r else (0,)):
                d = si - v
                if d * d <= ball_left:
                    p[i] = v
                    if not primitive_only or gcd(linalg.vec_gcd(p), h) == 1:
                        return tuple(p) + (h,)
            return None
        rs = isqrt(sphere_left)
        rb = isqrt(ball_left)
        lo = max(-rs, si - rb)
        hi = min(rs, si + rb)
        for v in range(lo, hi + 1):
            p[i] = v
            got = walk(i + 1, sphere_left - v * v, ball_left - (si - v) ** 2)
            if got is not None:
                return got
        return None

    return walk(0, h * h, ball)


def soc_recursive_peel_candidate(s, h: int, primitive_only: bool):
    """soc._peel_candidate as it was before it became one loop over a
    stack of suspended levels: one call of the inner walk per node
    entered, with the same interval, gap test, stop rule, square-sum
    skips, leaf test and primitivity test."""
    n = len(s)
    m = n - 1
    p = [0] * m
    suffix_sq = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix_sq[i] = suffix_sq[i + 1] + s[i] * s[i]

    def walk(i, sphere_left, ball_left):
        si = s[i]
        rs = isqrt(sphere_left)
        rb = isqrt(ball_left)
        lo = max(-rs, si - rb)
        hi = min(rs, si + rb)
        c4 = 4 * suffix_sq[i + 1]
        t2 = suffix_sq[i] + sphere_left - ball_left
        admitted = False
        leaf, two, three = i == m - 2, i == m - 3, i == m - 4
        for v in range(lo, hi + 1):
            left = sphere_left - v * v
            gap = t2 - 2 * si * v
            if gap > 0 and gap * gap > c4 * left:
                if admitted:
                    break
                continue
            admitted = True
            if leaf:
                # the last coordinate w must square to left exactly
                r = isqrt(left)
                if r * r != left:
                    continue
                ball_left_w = ball_left - (si - v) ** 2
                for w in ((-r, r) if r else (0,)):
                    d = s[m - 1] - w
                    if d * d <= ball_left_w:
                        p[i], p[m - 1] = v, w
                        if not primitive_only or gcd(linalg.vec_gcd(p), h) == 1:
                            return tuple(p) + (h,)
                continue
            if two and soc._not_two_squares(left) or three and not soc._three_squares(left):
                continue
            p[i] = v
            got = walk(i + 1, left, ball_left - (si - v) ** 2)
            if got is not None:
                return got
        return None

    return walk(0, h * h, (s[-1] - h) ** 2)


def soc_root_refuted(s, h: int) -> bool:
    """Whether soc._peel_candidate(s, h, ...) refused its root, as it did
    before _first_peel alone tested the root: the sphere of radius h misses
    the ball of radius s_n - h around s[:n-1]."""
    ball = (s[-1] - h) ** 2
    c = sum(v * v for v in s[:-1])
    gap = c + h * h - ball
    return gap > 0 and gap * gap > 4 * c * h * h


def soc_first_peel(s, primitive_only: bool):
    """soc._first_peel as it was before it took a top height: every height
    from s_n down, through soc_peel_candidate."""
    height = s[-1]
    c = sum(v * v for v in s[:-1])
    r = isqrt(c)
    for h in range(height, 0, -1):
        # a sphere of radius h must meet the ball around the prefix
        lead = 2 * h - height
        if lead > 0 and lead * lead > c:
            continue
        got = soc_peel_candidate(s, h, primitive_only)
        if got is not None:
            return got
    return None


def soc_decompose_from_each_height(s, minimal_roots=False):
    """soc.decompose_soc with every peel search started at the residual's
    own height (soc_first_peel), as it ran before a peel search resumed at
    the last peel's height; the package's descent, maximal multiple, root
    splits and certificate type."""
    n = len(s)
    cur = tuple(s)
    terms = []
    while any(cur):
        p = soc_first_peel(cur, primitive_only=True)
        if p is None:
            g = linalg.vec_gcd(cur)
            prim = tuple(v // g for v in cur)
            root, word = soc.descend(prim)
            if minimal_roots and root in soc.root_splits(n):
                x, y = soc.root_splits(n)[root]
                terms.append((g, word, x))
                terms.append((g, word, y))
            else:
                terms.append((g, word, root))
            break
        # the largest k with cur - k p in T_n, for Pythagorean p
        lam = cur[-1] // p[-1]
        cross = soc.lorentz_form(cur, p)
        if cross < 0:
            lam = min(lam, soc.lorentz_form(cur, cur) // (2 * cross))
        root, word = soc.descend(p)
        terms.append((lam, word, root))
        cur = tuple(a - lam * b for a, b in zip(cur, p))
    return soc.SocCertificate(n=n, terms=tuple(terms))


def lorentz_multiple(_, res, rr, y, yy, top) -> int:
    """On the Lorentz form B(a, b) = a.b - a_n b_n, with rr = B(res, res)
    and yy = B(y, y): res - lam*y lies in T_n exactly when its height is
    nonnegative, which top ensures, and rr - 2 lam B(res, y) + lam^2 yy
    <= 0.  The bisection is the one of _bisected_multiple on that
    quadratic, so no tuple is built."""
    ry2 = 2 * (sum(map(mul, res, y)) - 2 * res[-1] * y[-1])
    if rr - ry2 + yy > 0:
        return 0
    lo, hi = 1, top
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if (mid * yy - ry2) * mid + rr <= 0:
            lo = mid
        else:
            hi = mid - 1
    return lo
