import random
from fractions import Fraction

import pytest

from _oracles import echelon_split, form_value, points_below_box, recursive_points
from intcone import lattice, linalg
from intcone.lattice import QuadFormQuery, enumerate_below
from intcone.psd import sporadic_det_bound
from test_linalg import M6_ADJ, random_symmetric


def random_pd(rng, n, spread=3):
    # B^T B + I is positive definite for any integer B
    b = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
    a = [[sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
    return tuple(map(tuple, a))


def shortest_nonzero(a):
    """(lambda_1, minimizer): the minimum of the form over nonzero integer
    vectors, from the package's enumeration below the smallest diagonal
    entry, and the first vector attaining it in enumeration order."""
    t0 = min(a[i][i] for i in range(len(a)))
    x = min(enumerate_below(a, t0), key=lambda v: form_value(a, v))
    return form_value(a, x), x


def kx_first(rows):
    """lattice._kx_first of a matrix, frozen and eliminated as
    psd.is_sporadic hands it over."""
    x = linalg.freeze(rows)
    return lattice._kx_first(x, linalg._psd_echelon(x))


def outer_sub(x, v):
    return tuple(tuple(a - b * c for a, c in zip(row, v)) for row, b in zip(x, v))


class TestEnumerateBelow:
    def test_identity_radius_one(self):
        assert set(enumerate_below(linalg.identity(2), 1)) == {(1, 0), (0, 1)}

    def test_small_form(self):
        got = enumerate_below(((2, 1), (1, 2)), 2)
        assert set(got) == {(1, 0), (0, 1), (1, -1)}

    def test_m6_adjugate_below_3_empty(self):
        assert enumerate_below(M6_ADJ, 3) == []

    def test_zero_bound(self):
        assert enumerate_below(linalg.identity(3), 0) == []

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError):
            enumerate_below(((1, 0), (0, 0)), 1)
        with pytest.raises(ValueError):
            enumerate_below(((-1, 0), (0, 1)), 1)
        # not PSD, det 16: a general echelon reaches four positive pivots
        # after two row swaps, but a PD matrix must be PSD of full rank,
        # and the symmetric elimination refutes PSD at once: its first
        # diagonal entry is zero on a nonzero row
        swapped = ((0, 0, 2, 0), (0, 0, -1, 2), (2, -1, 0, 0), (0, 2, 0, 0))
        with pytest.raises(ValueError):
            enumerate_below(swapped, 1)

    def test_query_rejects_an_asymmetric_form_and_a_negative_bound(self):
        with pytest.raises(ValueError, match="form matrix must be symmetric"):
            QuadFormQuery(((1, 1), (0, 1)), 1)
        with pytest.raises(ValueError, match="bound must be nonnegative"):
            QuadFormQuery(((1,),), -1)

    def test_matches_box_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 4)
            a = random_pd(rng, n, 2)
            t = rng.randint(0, 12)
            got = enumerate_below(a, t)
            assert sorted(got) == sorted(points_below_box(a, t))
            assert len(set(got)) == len(got)
            for x in got:
                assert form_value(a, x) <= t
                assert next(v for v in x if v) > 0

    def test_first_hit_identity(self):
        pts = QuadFormQuery(linalg.identity(3), 1).points()
        assert next(pts) == (1, 0, 0)

    def test_deterministic_order(self):
        a = ((2, 1), (1, 2))
        assert enumerate_below(a, 2) == enumerate_below(a, 2)


class TestSplit:
    def test_matches_the_echelon_split(self):
        # B^T B + I is positive definite, B^T B for a B with fewer rows is
        # singular PSD, and a random symmetric matrix is mostly indefinite:
        # the symmetric split must equal the general echelon's above the
        # diagonal, the only entries QuadFormQuery.points reads, and
        # reject exactly what it rejected
        rng = random.Random(37)
        kinds = {"pd": 0, "rejected": 0}
        for trial in range(600):
            n = rng.randint(0, 6)
            if trial % 3 == 0:
                a = random_pd(rng, n)
            elif trial % 3 == 1:
                k = rng.randint(0, n)
                b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
                a = linalg.mat_mul(linalg.transpose(b), b) if k else ((0,) * n,) * n
            else:
                a = random_symmetric(rng, n, -3, 3)
            try:
                want = echelon_split(a)
            except ValueError:
                with pytest.raises(ValueError, match="not positive definite"):
                    lattice._decompose(a)
                kinds["rejected"] += 1
                continue
            d, m = lattice._decompose(a)
            assert (d, [row[k:] for k, row in enumerate(m)]) == want, a
            kinds["pd"] += 1
        assert min(kinds.values()) >= 150, kinds


class TestShortestNonzero:
    def test_identity(self):
        assert shortest_nonzero(linalg.identity(3)) == (1, (1, 0, 0))

    def test_m6_adjugate(self):
        value, x = shortest_nonzero(M6_ADJ)
        assert value == 4
        assert form_value(M6_ADJ, x) == 4
        assert form_value(M6_ADJ, (1, 0, 0, 0, 0, 0)) == 4

    def test_two_dim(self):
        assert shortest_nonzero(((5, 4), (4, 5))) == (2, (1, -1))

    def test_hermite_bound_invariant(self):
        rng = random.Random(37)
        for _ in range(60):
            n = rng.randint(1, 6)
            a = random_pd(rng, n, 2)
            t0 = min(a[i][i] for i in range(n))
            lam = min(form_value(a, x) for x in points_below_box(a, t0))
            assert Fraction(lam) ** n <= sporadic_det_bound(n) * linalg.det(a)

    def test_minimum_matches_oracle(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randint(1, 3)
            a = random_pd(rng, n, 3)
            lam, _ = shortest_nonzero(a)
            t0 = min(a[i][i] for i in range(n))
            vals = [form_value(a, x) for x in points_below_box(a, t0)]
            assert lam == min(vals)


class TestKxNonzeroPoint:
    # lattice._kx_first finds the first nonzero integer point of
    # K(X) = {x : X - x x^T is PSD}; psd.decompose peels it at every step
    def test_identity(self):
        for n in (1, 2, 3, 5):
            assert kx_first(linalg.identity(n)) == (1,) + (0,) * (n - 1)

    def test_singular(self):
        x = ((1, 0), (0, 0))
        v = kx_first(x)
        assert v is not None
        assert linalg.is_psd_exact(outer_sub(x, v))

    def test_remainder_always_psd(self):
        rng = random.Random(43)
        for _ in range(80):
            n = rng.randint(1, 5)
            total = [[0] * n for _ in range(n)]
            for _ in range(rng.randint(1, n)):
                v = [rng.randint(-4, 4) for _ in range(n)]
                for i in range(n):
                    for j in range(n):
                        total[i][j] += v[i] * v[j]
            x = tuple(map(tuple, total))
            got = kx_first(x)
            if got is None:
                continue
            assert any(got)
            assert linalg.is_psd_exact(outer_sub(x, got))


def by_reversed_tuple(points):
    return sorted(points, key=lambda x: x[::-1])


class TestResumedEnumeration:
    # _points(split, t, p) is the suffix of points() from p, in the order
    # by the reversed tuple, which does not depend on the form
    def test_plain_order_is_by_the_reversed_tuple(self):
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(1, 4)
            a = random_pd(rng, n, 2)
            t = rng.randint(0, 14)
            assert enumerate_below(a, t) == by_reversed_tuple(points_below_box(a, t))

    def test_start_at_each_solution_yields_the_suffix(self):
        rng = random.Random(59)
        for _ in range(40):
            n = rng.randint(1, 4)
            a, t = random_pd(rng, n, 2), rng.randint(0, 14)
            split = lattice._decompose(a)
            pts = enumerate_below(a, t)
            for i, p in enumerate(pts):
                assert list(lattice._points(split, t, p)) == pts[i:]

    def test_start_off_the_solutions(self):
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randint(1, 4)
            a = random_pd(rng, n, 2)
            t = rng.randint(0, 14)
            split = lattice._decompose(a)
            order = by_reversed_tuple(points_below_box(a, t))
            starts = [(0,) * n, (-9,) * n, (9,) * n]
            starts += [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(15)]
            for s in starts:
                expect = [x for x in order if x[::-1] >= s[::-1]]
                assert list(lattice._points(split, t, s)) == expect, (a, t, s)


class TestLoopWalk:
    # the loop over per-level arrays yields what the recursive walk it
    # replaced yielded, in the same order, from every start
    def test_matches_the_recursive_walk(self):
        rng = random.Random(67)
        seen = {"bound 0": 0, "x0 = 0, x1 > 0": 0, "x0 = x1 = 0": 0, "resumed": 0}
        for trial in range(140):
            n = 1 + trial % 7
            a = random_pd(rng, n, 1)
            top = max(a[i][i] for i in range(n)) + 4
            t = 0 if trial % 10 == 0 else rng.randint(1, top)
            split = lattice._decompose(a)
            pts = list(QuadFormQuery(a, t).points())
            assert pts == list(recursive_points(split, t)), (a, t)
            seen["bound 0"] += t == 0
            # the negation of such a point has x0 = 0 in front of a
            # negative tail, which the leaf must refuse
            seen["x0 = 0, x1 > 0"] += any(p[0] == 0 and p[1] > 0 for p in pts if n > 1)
            seen["x0 = x1 = 0"] += any(p[0] == p[1] == 0 for p in pts if n > 2)
            starts = [(-9,) * n, (9,) * n, (0,) * n]
            starts += [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(6)]
            for p in pts:
                starts += [p, (p[0] + 1,) + p[1:], (-9,) + p[1:], (9,) + p[1:]]
            for s in starts:
                got = list(lattice._points(split, t, s))
                assert got == list(recursive_points(split, t, s)), (a, t, s)
                seen["resumed"] += len(got)
        assert min(seen.values()) >= 10, seen
