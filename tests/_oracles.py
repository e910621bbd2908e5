"""Independent brute-force oracles used to pin down expected values.

Everything here is deliberately naive (cofactor recursion, box scans,
principal-minor tests, explicit congruences) and shares no code with the
package internals; evaluate_word alone takes the second-order cone's
generator matrices from the package, to multiply them here.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, isqrt

from intcone import soc


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

    The box radius comes from t * (a^-1)_ii <= t * (sum of |adj| row) /
    |det|; we just use a safely large radius derived from rational inverse
    diagonal entries.
    """
    n = len(a)
    inv_diag = _inverse_diagonal(a)
    radii = [isqrt(int(t * d) + 1) + 1 for d in inv_diag]
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
