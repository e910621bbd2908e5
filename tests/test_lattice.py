import random
from fractions import Fraction

import pytest

from _oracles import form_value, points_below_box
from intcone import lattice, linalg
from intcone.lattice import QuadFormQuery, enumerate_below, hermite_gamma
from test_linalg import M6_ADJ


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


def outer_sub(x, v):
    return tuple(tuple(a - b * c for a, c in zip(row, v)) for row, b in zip(x, v))


class TestHermiteGamma:
    def test_exact_values(self):
        expected = {
            2: Fraction(4, 3),
            3: Fraction(2),
            4: Fraction(4),
            5: Fraction(8),
            6: Fraction(64, 3),
            7: Fraction(64),
            8: Fraction(256),
            24: Fraction(4) ** 24,
        }
        for n, v in expected.items():
            assert hermite_gamma(n) == v

    def test_fallback(self):
        assert hermite_gamma(9) == Fraction(4, 3) ** 36

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            hermite_gamma(0)


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
        # not PSD, det 16: its echelon reaches four positive pivots after
        # two row swaps, so only "no swap" (not an even count) rejects it
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
            assert Fraction(lam) ** n <= hermite_gamma(n) * linalg.det(a)

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
            assert lattice._kx_first(linalg.identity(n)) == (1,) + (0,) * (n - 1)

    def test_singular(self):
        x = ((1, 0), (0, 0))
        v = lattice._kx_first(x)
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
            got = lattice._kx_first(x)
            if got is None:
                continue
            assert any(got)
            assert linalg.is_psd_exact(outer_sub(x, got))
