"""Independent brute-force oracles used to pin down expected values.

Everything here is deliberately naive (cofactor recursion, box scans,
principal-minor tests, explicit congruences) and shares no code with the
package internals, except that evaluate_word takes the second-order cone's
generator matrices from the package, to multiply them here, and
reduce_rank_dense its kernel vectors, so that both rank splits fold the
same vectors, and gl_generators_by_inversion inverts with the package's
inverse_unimodular, as the code it replaced did.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, isqrt

from intcone import linalg, soc


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


def form_value(a, x):
    n = len(x)
    return sum(a[i][j] * x[i] * x[j] for i in range(n) for j in range(n))


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
