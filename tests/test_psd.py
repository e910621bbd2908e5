import hashlib
import itertools
import json
import pathlib
import random
import sys
import types
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    _swap_minimal as swap_minimal_oracle,
    adjugate_cofactor,
    congruence_backtrack,
    det_cofactor,
    gl_generators_by_inversion,
    peel_by_one_decompose,
    plain_shells,
    psd_by_minors,
    random_unimodular,
    recursive_unimodular_witness,
    sporadic_leaf_candidates,
    subtractable_vector_box,
)
from intcone import lattice, linalg, psd
from intcone.psd import (
    M6,
    Rank1Certificate,
    decompose,
    gl_generators,
    is_sporadic,
    search_sporadic,
    sporadic_catalog,
    sporadic_det_bound,
    unimodular_witness,
)
from test_lattice import kx_first
from test_linalg import psd_rank


def outer(x):
    return tuple(tuple(a * b for b in x) for a in x)


def random_psd_sum(rng, n, terms, lo=-3, hi=3):
    """Sum of `terms` random integer outer products, possibly rank deficient."""
    total = [[0] * n for _ in range(n)]
    for _ in range(terms):
        x = [rng.randint(lo, hi) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                total[i][j] += x[i] * x[j]
    return tuple(tuple(r) for r in total)


def conjugate(u, a):
    return linalg.mat_mul(u, linalg.mat_mul(a, linalg.transpose(u)))


class TestCatalog:
    def test_m6_shape(self):
        assert linalg.is_symmetric(M6)
        assert linalg.det(M6) == 3
        assert linalg.is_psd_exact(M6)

    def test_m6_is_sporadic(self):
        assert is_sporadic(M6)
        assert Fraction(linalg.det(M6)) < sporadic_det_bound(6)

    def test_catalog_entries(self):
        for n in range(2, 6):
            assert sporadic_catalog(n) == ()
        assert sporadic_catalog(6) == (M6,)
        assert sporadic_catalog(7) == ()


class TestSporadicDetBound:
    def test_table_values(self):
        assert sporadic_det_bound(2) == Fraction(4, 3)
        assert sporadic_det_bound(5) == 8
        assert sporadic_det_bound(6) == Fraction(64, 3)

    def test_exact_values(self):
        expected = {
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
        for n, v in expected.items():
            assert sporadic_det_bound(n) == v

    def test_fallback(self):
        assert sporadic_det_bound(9) == Fraction(4, 3) ** 36

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sporadic_det_bound(0)


class TestRank1Step:
    # the rank-one step of decompose is lattice._kx_first: the first x != 0
    # with X - x x^T still PSD
    def test_identity(self):
        assert kx_first(((1, 0), (0, 1))) == (1, 0)

    def test_m6_has_no_step(self):
        assert kx_first(M6) is None

    def test_small_example(self):
        assert kx_first(((2, 1), (1, 1))) == (1, 0)

    def test_zero_has_no_step(self):
        assert kx_first(((0, 0), (0, 0))) is None

    def test_rejects_non_psd(self):
        # the entry check refuses it before any step is searched
        with pytest.raises(ValueError):
            is_sporadic(((1, 2), (2, 1)))

    def test_step_keeps_psd(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(2, 5)
            a = random_psd_sum(rng, n, rng.randint(1, n))
            if not any(v for row in a for v in row):
                continue
            x = kx_first(a)
            assert x is not None
            assert any(x)
            diff = [
                [a[i][j] - x[i] * x[j] for j in range(n)] for i in range(n)
            ]
            assert psd_by_minors(diff)


class TestIsSporadic:
    def test_zero_matrix(self):
        assert not is_sporadic(((0, 0), (0, 0)))

    def test_unit_outer(self):
        for n in (2, 3, 6):
            e1 = (1,) + (0,) * (n - 1)
            assert not is_sporadic(outer(e1))

    def test_double_m6(self):
        doubled = tuple(tuple(2 * v for v in row) for row in M6)
        assert not is_sporadic(doubled)
        x = subtractable_vector_box(doubled, 2)
        assert x is not None

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            is_sporadic(((-1, 0), (0, 1)))

    def test_invariant_under_congruence(self):
        rng = random.Random(23)
        for _ in range(10):
            u = random_unimodular(6, rng.randint(1, 5), rng)
            assert is_sporadic(conjugate(u, M6))
        for _ in range(10):
            n = rng.randint(2, 4)
            a = random_psd_sum(rng, n, rng.randint(1, n))
            if not any(v for row in a for v in row):
                continue
            u = random_unimodular(n, rng.randint(1, 5), rng)
            assert is_sporadic(a) == is_sporadic(conjugate(u, a)) == False

    def test_rank_below_two_searches_nothing(self, monkeypatch):
        # b x x^T has the peel x, so ranks 0 and 1 answer from the rank alone
        def refuse(*_):
            raise AssertionError("searched a matrix of rank below two")

        monkeypatch.setattr(lattice, "_kx_first", refuse)
        monkeypatch.setattr(linalg, "_reduce_rank", refuse)
        assert not is_sporadic(((0, 0, 0),) * 3)
        for b, x in ((1, (0, 1, 0)), (3, (2, -1, 0)), (7, (0, -3, 5)), (4, (6, 4, -2))):
            rows = tuple(tuple(b * v for v in row) for row in outer(x))
            assert not is_sporadic(rows)
            assert subtractable_vector_box(rows, max(map(abs, x))) is not None

    def test_matches_the_box_oracle(self):
        # X - x x^T PSD needs x_i^2 <= X_ii, so a box of radius
        # isqrt(max X_ii) holds every peel
        rng = random.Random(29)
        seen = set()
        for _ in range(60):
            n = rng.randint(2, 4)
            a = random_psd_sum(rng, n, rng.randint(0, n), -2, 2)
            radius = isqrt(max(a[i][i] for i in range(n)))
            peel = subtractable_vector_box(a, radius) if radius else None
            nonzero = any(v for row in a for v in row)
            assert is_sporadic(a) == (nonzero and peel is None)
            seen.add(psd_rank(a))
        assert {0, 1, 2} <= seen
        assert is_sporadic(M6) and subtractable_vector_box(M6, 1) is None


class TestDecompose:
    def test_identity(self):
        cert = decompose(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert cert.vectors == (
            ((1, 0, 0), 1),
            ((0, 1, 0), 1),
            ((0, 0, 1), 1),
        )
        assert cert.remainder is None
        assert cert.witness is None

    def test_m6_is_its_own_remainder(self):
        cert = decompose(M6)
        assert cert.vectors == ()
        assert cert.remainder is not None
        assert cert.remainder.rows == M6
        assert cert.witness is not None
        assert conjugate(cert.witness.rows, M6) == M6

    def test_small_example(self):
        cert = decompose(((2, 1), (1, 1)))
        assert cert.vectors == (((1, 0), 1), ((1, 1), 1))
        assert cert.remainder is None
        assert cert.reconstruct() == ((2, 1), (1, 1))

    def test_multiplicity_aggregation(self):
        cert = decompose(((4, 0), (0, 0)))
        assert cert.vectors == (((1, 0), 4),)

    def test_zero(self):
        cert = decompose(((0, 0), (0, 0)))
        assert cert.vectors == ()
        assert cert.remainder is None

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            decompose(((0, 1), (1, 0)))

    def test_reconstruction_and_trace_bound(self):
        rng = random.Random(31)
        for _ in range(80):
            n = rng.randint(2, 5)
            a = random_psd_sum(rng, n, rng.randint(1, n + 1))
            cert = decompose(a)
            assert cert.reconstruct() == a
            assert cert.remainder is None
            steps = sum(lam for _, lam in cert.vectors)
            assert steps <= sum(a[i][i] for i in range(n))

    def test_matches_iterated_rank1_step(self):
        # exercises the incremental determinant/adjugate downdate against
        # the plain per-step recomputation
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(2, 4)
            a = random_psd_sum(rng, n, n + 1)
            cert = decompose(a)
            cur = a
            expect = []
            while any(v for row in cur for v in row):
                x = kx_first(cur)
                if x is None:
                    break
                expect.append(x)
                cur = tuple(
                    tuple(cur[i][j] - x[i] * x[j] for j in range(n))
                    for i in range(n)
                )
            flat = [x for x, lam in cert.vectors for _ in range(lam)]
            assert flat == expect

    def test_rank1_update_is_the_downdated_adjugate(self):
        # adj(B - y y^T) = (det(B - y y^T) adj(B) + u u^T) / det(B), u = adj(B) y
        rng = random.Random(43)
        checked = 0
        while checked < 60:
            n = rng.randint(1, 4)
            b = random_psd_sum(rng, n, n + 2)
            d = det_cofactor(b)
            if d == 0:
                continue
            y = tuple(rng.randint(-2, 2) for _ in range(n))
            p = adjugate_cofactor(b)
            u = linalg.mat_vec(p, y)
            down = tuple(
                tuple(b[i][j] - y[i] * y[j] for j in range(n)) for i in range(n)
            )
            d2 = det_cofactor(down)
            assert d2 == d - sum(a * c for a, c in zip(u, y))
            got = linalg._rank1_update(p, u, d, d2, 1)
            assert tuple(map(tuple, got)) == adjugate_cofactor(down)
            checked += 1

    def test_rank1_update_at_every_multiple(self):
        # adj(B - lam y y^T) for every lam with B - lam y y^T PSD, the
        # singular last multiple (d divisible by q) included
        rng = random.Random(47)
        checked = singular = 0
        while checked < 40:
            n = rng.randint(1, 4)
            b = random_psd_sum(rng, n, n + 2)
            d = det_cofactor(b)
            if d == 0:
                continue
            p = adjugate_cofactor(b)
            ys = lattice.enumerate_below(p, d)
            y = rng.choice(ys) if rng.random() < 0.5 else ys[0]
            u = linalg.mat_vec(p, y)
            q = sum(a * c for a, c in zip(u, y))
            for lam in range(1, d // q + 1):
                down = tuple(
                    tuple(b[i][j] - lam * y[i] * y[j] for j in range(n))
                    for i in range(n)
                )
                got = linalg._rank1_update(p, u, d, d - lam * q, lam)
                assert tuple(map(tuple, got)) == adjugate_cofactor(down)
            singular += d % q == 0
            checked += 1
        assert singular > 0

    def test_rank_one_residue_is_closed_without_a_frame(self, monkeypatch):
        calls = []
        peel_data = lattice._peel_data
        monkeypatch.setattr(
            lattice, "_peel_data", lambda *a: calls.append(a) or peel_data(*a)
        )
        cert = decompose(((18, -12, 6), (-12, 8, -4), (6, -4, 2)))
        assert cert.vectors == (((3, -2, 1), 2),)
        assert calls == []
        # one frame for the rank-two input, none once the rank drops to one
        cert = decompose(((2, 1), (1, 1)))
        assert cert.vectors == (((1, 0), 1), ((1, 1), 1))
        assert len(calls) == 1

    def test_full_rank_input_is_eliminated_once(self, monkeypatch):
        # the entry check's elimination is the first frame's: _psd_echelon
        # runs on the input itself once, not again to reduce it
        calls = []
        psd_echelon = linalg._psd_echelon
        monkeypatch.setattr(
            linalg, "_psd_echelon", lambda rows: calls.append(rows) or psd_echelon(rows)
        )
        rng = random.Random(61)
        inputs = [((2, 1), (1, 1)), ((3, 1, 0), (1, 2, 1), (0, 1, 2))]
        while len(inputs) < 30:
            n = rng.randint(2, 5)
            a = random_psd_sum(rng, n, n + 2, -5, 5)
            if psd_rank(a) == n and linalg.adjugate(a) != a:
                inputs.append(a)
        for a in inputs:
            calls.clear()
            cert = decompose(a)
            assert cert.reconstruct() == a
            assert sum(tuple(map(tuple, rows)) == a for rows in calls) == 1

    def test_rank_one_peel_reads_x_and_b_off_a_row(self):
        # b x x^T for primitive x whose first nonzero entry is positive,
        # with negative and zero entries among the rest
        rng = random.Random(59)
        signs = Counter()
        for _ in range(400):
            n = rng.randint(1, 6)
            x = [rng.choice((0, rng.randint(-9, 9))) for _ in range(n)]
            if not any(x):
                continue
            g = linalg.vec_gcd(x)
            lead = next(v for v in x if v)
            x = tuple(v // g if lead > 0 else -v // g for v in x)
            b = rng.randint(1, 40)
            signs.update((v > 0) - (v < 0) for v in x)
            rows = tuple(tuple(b * xi * xj for xj in x) for xi in x)
            assert psd._rank_one_peel(rows) == (x, b), (x, b)
        assert min(signs[-1], signs[0]) > 100

    def test_rank_one_close_checks_its_residue(self, monkeypatch):
        monkeypatch.setattr(psd, "_rank_one_peel", lambda rows: ((1, 1), 1))
        with pytest.raises(RuntimeError, match="nonzero residue"):
            decompose(((4, 2), (2, 1)))

    def test_tall_input_takes_few_enumerations(self, monkeypatch):
        # peeling one copy at a time takes about 442,000 enumerations on it
        k = 10**6
        tall = ((k, k, 0), (k, k, 0), (0, 0, k))
        calls = []
        points = lattice._points
        monkeypatch.setattr(lattice, "_points", lambda *a: calls.append(a) or points(*a))
        cert = decompose(tall)
        assert cert.vectors == (
            ((1, 1, -999), 1),
            ((1, 1, -44), 1),
            ((1, 1, -7), 1),
            ((1, 1, -3), 1),
            ((1, 1, -1), 3),
            ((1, 1, 0), 442425),
            ((528, 528, 1), 2),
        )
        assert cert.remainder is None and cert.witness is None
        assert cert.reconstruct() == tall
        assert 1 <= len(calls) <= 16

    def test_peels_enumerate_the_adjugate_unchecked(self, monkeypatch):
        # each peel walks the split of the adjugate decompose built itself:
        # no QuadFormQuery, one freeze (the input's), and one symmetry
        # test, the input's, at decompose's entry
        def refuse(*_):
            raise AssertionError("decompose built a QuadFormQuery")

        frozen, callers = [], []
        freeze, is_symmetric = linalg.freeze, linalg.is_symmetric

        def symmetric(rows):
            callers.append((sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name))
            return is_symmetric(rows)

        monkeypatch.setattr(lattice.QuadFormQuery, "__post_init__", refuse)
        monkeypatch.setattr(linalg, "freeze", lambda rows: frozen.append(rows) or freeze(rows))
        monkeypatch.setattr(linalg, "is_symmetric", symmetric)
        big = 10**6
        inputs = [
            ((big, big, 0), (big, big, 0), (0, 0, big)),
            ((2, 1), (1, 1)),
            ((18, -12, 6), (-12, 8, -4), (6, -4, 2)),
            ((3, 1, 0), (1, 2, 1), (0, 1, 2)),
        ]
        rng = random.Random(71)
        inputs += [random_psd_sum(rng, n, k, -5, 5) for n in (2, 3, 4, 5) for k in range(1, n + 1)]
        peels = 0
        for a in inputs:
            frozen.clear()
            callers.clear()
            cert = decompose(a)
            assert cert.reconstruct() == a and cert.remainder is None
            assert len(frozen) == 1
            assert callers == [("_psd_input", "decompose")]
            peels += len(cert.vectors)
        assert peels > 2 * len(inputs)

    def test_certificates_keep_their_bytes(self):
        # sha256 of the to_json of 500 criterion-02 decompositions (n 2..5,
        # k 1..n in a fixed cycle), one JSON line each; any change to the
        # enumeration order or the first hit moves it
        rng = random.Random(2027)
        h = hashlib.sha256()
        for i in range(500):
            n = 2 + i % 4
            a = random_psd_sum(rng, n, 1 + (i // 4) % n, -5, 5)
            h.update(json.dumps(decompose(a).to_json()).encode() + b"\n")
        assert h.hexdigest() == (
            "74ad1825cab2af0e0dc9471f9ceb5a870adda372c040092dd0cde425cd69fc6b"
        )

    def test_sporadic_remainder_with_shift(self):
        a = tuple(
            tuple(M6[i][j] + 2 * (i == 0) * (j == 0) for j in range(6))
            for i in range(6)
        )
        cert = decompose(a)
        assert cert.reconstruct() == a
        if cert.remainder is not None:
            assert is_sporadic(cert.remainder.rows)

    def test_json_roundtrip(self):
        for a in (M6, ((2, 1), (1, 1)), ((0, 0), (0, 0))):
            cert = decompose(a)
            again = Rank1Certificate.from_json(cert.to_json())
            assert again == cert


def _assert_same_certificate(a):
    cert, old = decompose(a), peel_by_one_decompose(a)
    assert cert.vectors == old.vectors, a
    assert cert.remainder == old.remainder, a
    assert cert.witness == old.witness, a
    return cert


class TestAgainstThePeelByOneLoop:
    def test_criterion_02_inputs(self):
        rng = random.Random(53)
        for n in (2, 3, 4, 5, 6):
            for _ in range(40):
                k = rng.randint(1, n)
                _assert_same_certificate(random_psd_sum(rng, n, k, -5, 5))

    def test_sporadic_residues(self):
        rng = random.Random(59)
        sporadic = 0
        for trial in range(12):
            a = M6 if trial == 0 else conjugate(random_unimodular(6, rng.randint(1, 4), rng), M6)
            extra = random_psd_sum(rng, 6, trial % 3, -1, 1)
            a = tuple(tuple(map(sum, zip(r, e))) for r, e in zip(a, extra))
            cert = _assert_same_certificate(a)
            sporadic += cert.remainder is not None
        assert sporadic >= 4

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                    st.integers(1, 3),
                ),
                max_size=n + 1,
            ).map(lambda terms: (n, terms))
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_random_sums(self, case):
        n, terms = case
        a = [[0] * n for _ in range(n)]
        for x, lam in terms:
            for i in range(n):
                for j in range(n):
                    a[i][j] += lam * x[i] * x[j]
        _assert_same_certificate(tuple(map(tuple, a)))


class TestUnimodularWitness:
    def test_self_witness(self):
        wit = unimodular_witness(M6, M6)
        assert wit is not None
        assert conjugate(wit.rows, M6) == M6

    def test_determinant_mismatch(self):
        assert unimodular_witness(((1, 0), (0, 1)), ((1, 0), (0, 2))) is None

    def test_conjugated_m6(self):
        rng = random.Random(43)
        u = random_unimodular(6, 5, rng)
        y = conjugate(u, M6)
        wit = unimodular_witness(M6, y)
        assert wit is not None
        assert conjugate(wit.rows, M6) == y

    def test_identity_vs_squeezed(self):
        wit = unimodular_witness(((1, 0), (0, 1)), ((2, 1), (1, 1)))
        assert wit is not None
        assert conjugate(wit.rows, ((1, 0), (0, 1))) == ((2, 1), (1, 1))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            unimodular_witness(((1,),), ((1, 0), (0, 1)))

    def test_singular_pair(self):
        wit = unimodular_witness(((1, 1), (1, 1)), ((1, -1), (-1, 1)))
        assert wit is not None
        assert conjugate(wit.rows, ((1, 1), (1, 1))) == ((1, -1), (-1, 1))

    def test_singular_core_mismatch(self):
        assert unimodular_witness(((1, 1), (1, 1)), ((2, 2), (2, 2))) is None

    def test_rank_mismatch(self):
        assert unimodular_witness(((1, 0), (0, 0)), ((1, 1), (1, 2))) is None

    def test_rank_mismatch_at_equal_determinant(self):
        # both singular, so only the ranks tell them apart
        e11, zero = ((1, 0, 0), (0, 0, 0), (0, 0, 0)), ((0, 0, 0),) * 3
        for x, y in ((e11, zero), (zero, e11)):
            assert unimodular_witness(x, y) is None

    def test_rejects_non_psd(self):
        i2 = ((1, 0), (0, 1))
        for x, y in ((i2, ((1, 0), (0, -1))), (((0, 1), (1, 0)), i2)):
            with pytest.raises(ValueError, match="PSD"):
                unimodular_witness(x, y)

    def test_inequivalent_same_det(self):
        # both have determinant 4, but different minimal vector counts
        a = ((1, 0), (0, 4))
        b = ((2, 0), (0, 2))
        assert unimodular_witness(a, b) is None

    def test_matches_the_recursive_witness(self):
        # the one pass over the cores against the recursion it replaced:
        # the same witness rows, the same None, the same error and text
        kinds = Counter()
        for x, y in _witness_pairs():
            got = _witness_outcome(unimodular_witness, x, y)
            assert got == _witness_outcome(recursive_unimodular_witness, x, y), (x, y)
            kinds[got[0]] += 1
        assert kinds["witness"] > 200 and kinds["none"] > 80 and kinds["error"] > 150, kinds

    def test_random_conjugates(self):
        rng = random.Random(47)
        for _ in range(25):
            n = rng.randint(2, 4)
            a = random_psd_sum(rng, n, n + 2)
            u = random_unimodular(n, rng.randint(1, 5), rng)
            y = conjugate(u, a)
            wit = unimodular_witness(a, y)
            assert wit is not None
            assert conjugate(wit.rows, a) == y


def _witness_outcome(find, x, y):
    """("witness", its rows), ("none", None) or ("error", its type and
    text) for find(x, y)."""
    try:
        wit = find(x, y)
    except (TypeError, ValueError) as exc:
        return "error", (type(exc), str(exc))
    return ("none", None) if wit is None else ("witness", wit.rows)


def _full_rank_core(rng, r):
    """A positive definite r x r matrix with entries of at most a few units."""
    while True:
        core = random_psd_sum(rng, r, r + 1, -1, 1)
        if psd_rank(core) == r:
            return core


def _move(rng, x):
    """x moved by a word of at most two GL(n, Z) letters; longer words grow
    the diagonal, and with it the shell enumeration, past a test's budget."""
    return conjugate(random_unimodular(len(x), rng.randint(0, 2), rng), x)


def _embed(rng, core, n):
    """diag(0, core) of size n, moved."""
    k = n - len(core)
    return _move(rng, ((0,) * n,) * k + tuple((0,) * k + row for row in core))


def _witness_pairs():
    """Seeded (X, Y) pairs for n 1..6 and every rank 0..n: congruent pairs,
    pairs of unequal rank, pairs of equal rank and unequal determinant,
    unrelated pairs, and inputs that are not PSD, not symmetric, not
    square, not integral or not of equal size."""
    rng = random.Random(89)
    pairs = [((), ()), SAME_COUNTS_4, (((1,),), ((1, 2),)), (((1.0,),), ((1,),))]
    for n in range(1, 7):
        for r in range(n + 1):
            core = _full_rank_core(rng, r)
            x = _embed(rng, core, n)
            pairs += [(x, _move(rng, x)) for _ in range(8)]
            other_rank = rng.choice([k for k in range(n + 1) if k != r])
            pairs.append((x, _embed(rng, _full_rank_core(rng, other_rank), n)))
            pairs += [(x, _embed(rng, _full_rank_core(rng, r), n)) for _ in range(3)]
            if r:
                # a positive definite core's last cofactor is positive, so
                # raising its last diagonal entry raises its determinant
                bumped = core[:-1] + (core[-1][:-1] + (core[-1][-1] + 1,),)
                pairs.append((_embed(rng, bumped, n), x))
            not_psd = ((-1,) + x[0][1:],) + x[1:]
            pairs += [(x, not_psd), (not_psd, x), (x, ((0,) * (n + 1),) * (n + 1))]
            if n > 1:
                skew = ((x[0][0], x[0][1] + 1) + x[0][2:],) + x[1:]
                pairs += [(skew, x), (x, skew), (not_psd, skew)]
    return pairs


def _raise(*args):
    raise AssertionError("called a general elimination")


class TestNoGeneralElimination:
    # the rank, the determinant and the kernel vectors of a PSD matrix all
    # come from its symmetric elimination (linalg._psd_echelon)
    def test_decompose_takes_no_general_kernel_vector(self, monkeypatch):
        monkeypatch.setattr(linalg, "primitive_kernel_vector", _raise)
        rng = random.Random(1)
        for n in (2, 3, 4, 5):
            for _ in range(60):
                rows = random_psd_sum(rng, n, rng.randint(1, n), -5, 5)
                cert = decompose(rows)
                assert cert.remainder is None
                assert cert.reconstruct() == rows

    def test_peel_frames_take_no_general_adjugate(self, monkeypatch):
        # a frame borders adj(B) up from the leading minors of B's
        # symmetric elimination; no cofactor adjugate is ever taken
        monkeypatch.setattr(linalg, "_cofactors", _raise)
        rng = random.Random(67)
        for n in (2, 3, 4, 5):
            for _ in range(60):
                rows = random_psd_sum(rng, n, rng.randint(1, n), -5, 5)
                cert = decompose(rows)
                assert cert.remainder is None
                assert cert.reconstruct() == rows
                assert not is_sporadic(rows)

    def test_witness_takes_no_general_determinant(self, monkeypatch):
        # psd's view of linalg loses det; the witness's own unimodularity
        # check inside linalg keeps it
        view = types.SimpleNamespace(**vars(linalg))
        view.det = _raise
        monkeypatch.setattr(psd, "linalg", view)
        rng = random.Random(53)
        cases = [(M6, conjugate(random_unimodular(6, 5, rng), M6))]
        for _ in range(30):
            n = rng.randint(1, 4)
            a = random_psd_sum(rng, n, rng.randint(0, n + 1))
            cases.append((a, conjugate(random_unimodular(n, 3, rng), a)))
        for x, y in cases:
            wit = unimodular_witness(x, y)
            assert wit is not None and conjugate(wit.rows, x) == y
        assert unimodular_witness(((1, 0), (0, 1)), ((1, 0), (0, 2))) is None
        assert unimodular_witness(((1, 0), (0, 4)), ((2, 0), (0, 2))) is None
        assert unimodular_witness(((1, 0), (0, 0)), ((1, 1), (1, 2))) is None


ASYMMETRIC = ((2, 1), (0, 2))
SYMMETRIC_PSD = ((2, 1), (1, 2))


@pytest.mark.parametrize(
    "ask",
    [
        lambda: linalg.is_psd_exact(ASYMMETRIC),
        lambda: linalg.reduce_rank(ASYMMETRIC),
        lambda: decompose(ASYMMETRIC),
        lambda: is_sporadic(ASYMMETRIC),
        lambda: unimodular_witness(ASYMMETRIC, SYMMETRIC_PSD),
        lambda: unimodular_witness(SYMMETRIC_PSD, ASYMMETRIC),
    ],
    ids=["is_psd_exact", "reduce_rank", "decompose", "is_sporadic", "witness-x", "witness-y"],
)
def test_outside_matrices_are_checked_for_symmetry_at_the_entry(ask):
    # _psd_echelon no longer checks symmetry; each public PSD question on
    # an outside matrix does, with the text the elimination used to raise
    with pytest.raises(ValueError, match="is_psd_exact expects a symmetric matrix"):
        ask()


class TestSearchSporadic:
    def test_dimension_two_empty(self):
        assert search_sporadic(2, 3) == []

    def test_dimension_five_empty(self):
        assert search_sporadic(5, 2) == []

    @pytest.mark.parametrize("n, b", [(4, 3), (4, 4), (5, 3)])
    def test_leaves_that_pass_every_probe_are_not_classes(self, n, b):
        # some leaves of these searches pass every probe and match no class
        # (3, 11 and 18 of them); only the full test shows they are not
        # sporadic
        assert search_sporadic(n, b) == []

    def test_unit_diagonal_empty(self):
        assert search_sporadic(6, 1) == []

    def test_deterministic(self):
        assert search_sporadic(3, 2) == search_sporadic(3, 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            search_sporadic(1, 2)
        with pytest.raises(ValueError):
            search_sporadic(3, 0)

    def test_rejects_non_integer_arguments(self):
        for args in ((3, True), (True, 2), (3, 2.0), (3.0, 2), (6, False)):
            with pytest.raises(TypeError):
                search_sporadic(*args)


# non-congruent, with equal determinant 32 and equal shell counts below 3
SAME_COUNTS_4 = (
    ((2, -1, 0, 0), (-1, 3, -1, -1), (0, -1, 3, 1), (0, -1, 1, 3)),
    ((2, 0, 0, 0), (0, 3, -1, -1), (0, -1, 3, -1), (0, -1, -1, 3)),
)


def dedup_streams():
    rng = random.Random(53)
    m6_conjugates = [
        conjugate(random_unimodular(6, rng.randint(1, 4), rng), M6) for _ in range(6)
    ]
    diag3 = tuple(
        tuple(int(i == j) * (3 if i == 5 else 1) for j in range(6)) for i in range(6)
    )
    a, b = SAME_COUNTS_4
    swap = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    binary = [
        ((2, 1), (1, 12)),  # det 23, not congruent to the next
        ((4, 1), (1, 6)),
        ((1, 0), (0, 4)),  # det 4, shell counts unlike the next
        ((2, 0), (0, 2)),
        ((4, -1), (-1, 6)),
        ((2, 2), (2, 4)),
        ((12, 1), (1, 2)),
        ((3, 1), (1, 8)),  # det 23, a third class, new after a count check
    ]
    return [
        [M6, diag3] + m6_conjugates,
        binary,
        [a, b, conjugate(swap, a), conjugate(swap, b), b],
    ]


def test_dedup_agrees_with_unimodular_witness(monkeypatch):
    # _join_class(rows, d, cap, reps, sporadic): a match ends the leaf
    # without the full test; only an unmatched leaf calls sporadic() once,
    # after every backtrack, and is appended when it holds.  Each stream
    # runs twice: rule "all" calls every leaf sporadic, rule "some" calls
    # every third one not
    witness = psd._ShellRecord.witness
    shell_record = psd._shell_record
    events = []
    counted = []

    def recording(rec, y):
        # the backtrack runs only against records with y's determinant
        assert rec.det == linalg.det(y)
        u = witness(rec, y)
        events.append((rec, u is not None))
        return u

    def counting(rows, d, cap):
        counted.append(rows)
        return shell_record(rows, d, cap)

    def shell_counts(rows, cap):
        return shell_record(rows, linalg.det(rows), cap).counts

    monkeypatch.setattr(psd._ShellRecord, "witness", recording)
    monkeypatch.setattr(psd, "_shell_record", counting)
    outcomes = []
    count_skips = 0
    refused = {"all": 0, "some": 0}
    for rule in ("all", "some"):
        for stream in dedup_streams():
            cap = max(m[i][i] for m in stream for i in range(len(m)))
            reps = []
            kept = []
            for i, m in enumerate(stream):
                d = linalg.det(m)
                verdict = rule == "all" or i % 3 != 1
                events.clear()
                counted.clear()
                before = list(reps)

                def sporadic():
                    events.append("full test")
                    return verdict

                found = psd._join_class(m, d, cap, reps, sporadic)
                same = [r for r in before if r.det == d]
                backtracks = [e for e in events if e != "full test"]
                # the full test runs once, last, and only without a match
                assert events.count("full test") == (found is None)
                assert "full test" not in events[:-1]
                added = found is None and verdict
                # the leaf's counts run only when two or more records share
                # d, and then only records with equal counts are backtracked;
                # a new class keeps the record, so the leaf is enumerated once
                assert counted == ([m] if len(same) > 1 or added else [])
                for rec, ok in backtracks:
                    assert any(rec is r for r in same)
                    assert len(same) == 1 or rec.counts == shell_counts(m, cap)
                    outcomes.append(ok)
                if len(same) > 1:
                    count_skips += sum(r.counts != shell_counts(m, cap) for r in same)
                expected = [
                    r for r in before if unimodular_witness(m, r.rows) is not None
                ]
                assert len(expected) <= 1
                assert found is (expected[0] if expected else None)
                if added:
                    assert reps[:-1] == before
                    assert reps[-1] == shell_record(m, d, cap)
                else:
                    assert reps == before
                    refused[rule] += found is None
                known = any(unimodular_witness(m, p) is not None for p in kept)
                if verdict and not known:
                    kept.append(m)
            assert [r.rows for r in reps] == kept
    assert True in outcomes and False in outcomes  # a backtrack that fails
    assert count_skips  # and records skipped on their counts
    assert refused["all"] == 0 and refused["some"]  # unmatched leaves left out


def test_search_full_tests_only_unmatched_leaves(monkeypatch):
    # work-count pin: in (6, 2) only the first leaf of the M6 class is
    # enumerated; the 254 later ones match it first (255 full tests when
    # every leaf ran one before the match)
    # psd reaches the walk itself only for a full test; the shell records
    # reach it through enumerate_below, from inside lattice
    made = []
    points = lattice._points

    def counted(*args):
        if sys._getframe(1).f_globals["__name__"] == psd.__name__:
            made.append(args)
        return points(*args)

    monkeypatch.setattr(lattice, "_points", counted)
    assert len(search_sporadic(6, 2)) == 1
    assert 1 <= len(made) <= 2


def test_search_checks_every_witness(monkeypatch):
    # a wrong congruence from the table is caught, not trusted
    witness = psd._ShellRecord.witness

    def wrong(rec, y):
        u = witness(rec, y)
        return None if u is None else linalg.identity(len(y))

    monkeypatch.setattr(psd._ShellRecord, "witness", wrong)
    with pytest.raises(RuntimeError):
        search_sporadic(6, 2)


# the sporadic class of search_sporadic(7, 2)
C7 = (
    (2, 0, 0, 0, 0, 0, 1),
    (0, 2, 0, 0, 0, 1, -1),
    (0, 0, 2, 0, 0, -1, 0),
    (0, 0, 0, 2, 1, -1, -1),
    (0, 0, 0, 1, 2, -1, -1),
    (0, 1, -1, -1, -1, 2, 0),
    (1, -1, 0, -1, -1, 0, 2),
)


def test_table_matches_the_plain_backtrack_in_the_search(monkeypatch):
    # every congruence the (6, 2) search asks its table for, against the
    # plain dot-product backtrack over box-scanned shells
    witness = psd._ShellRecord.witness
    calls = []

    def recording(rec, y):
        u = witness(rec, y)
        calls.append((rec, y, u))
        return u

    monkeypatch.setattr(psd._ShellRecord, "witness", recording)
    assert len(search_sporadic(6, 2)) == 1
    assert len(calls) == 254
    shells = {}
    for rec, y, u in calls:
        if rec.rows not in shells:
            shells[rec.rows] = plain_shells(rec.rows, len(rec.counts))
        assert u is not None
        assert u == congruence_backtrack(rec.rows, shells[rec.rows], y)


@pytest.mark.parametrize("a, seed", [(M6, 59), (C7, 61)], ids=["M6", "C7"])
def test_table_matches_the_plain_backtrack_on_conjugates(a, seed):
    rng = random.Random(seed)
    n = len(a)
    conjugates = [
        conjugate(random_unimodular(n, rng.randint(1, 3), rng), a) for _ in range(6)
    ]
    cap = max(y[i][i] for y in conjugates for i in range(n))
    shells = plain_shells(a, cap)
    rec = psd._shell_record(a, linalg.det(a), cap)
    for y in conjugates:
        u = congruence_backtrack(a, shells, y)
        assert u is not None
        assert rec.witness(y) == u
        assert unimodular_witness(a, y).rows == u


def test_table_fails_on_equal_counts():
    a, b = SAME_COUNTS_4
    for x, y in ((a, b), (b, a)):
        rec = psd._shell_record(x, linalg.det(x), 3)
        assert rec.counts == psd._shell_record(y, linalg.det(y), 3).counts
        assert congruence_backtrack(x, plain_shells(x, 3), y) is None
        assert rec.witness(y) is None


@pytest.mark.parametrize("n, b", [(4, 4), (5, 3), (6, 2)])
def test_leaf_adjugate_is_the_bordered_update(n, b, monkeypatch):
    # every leaf gets its leading block's adjugate and determinant, and the
    # leaves that build their adjugate are exactly those whose adjugate's
    # diagonal exceeds det everywhere (the e_i probe, against an oracle)
    check_leaf = psd._check_leaf
    border = linalg._border
    current = []
    built = []
    passing = []

    def recording(a, n, p, col, d_old, d, *rest):
        leaf = tuple(map(tuple, a))
        block = tuple(row[:-1] for row in leaf[:-1])
        assert d == linalg.det(leaf)
        assert (p, d_old) == (linalg.adjugate(block), linalg.det(block))
        assert tuple(col) == tuple(row[-1] for row in leaf[:-1])
        adj = linalg.adjugate(leaf)
        if all(adj[i][i] > d for i in range(n)):
            passing.append(leaf)
        current.append(leaf)
        check_leaf(a, n, p, col, d_old, d, *rest)
        current.pop()

    def bordering(*args):
        adj = border(*args)
        if current:
            built.append((current[-1], adj))
        return adj

    monkeypatch.setattr(psd, "_check_leaf", recording)
    monkeypatch.setattr(linalg, "_border", bordering)
    search_sporadic(n, b)
    assert built
    assert [leaf for leaf, _ in built] == passing
    for leaf, adj in built:
        assert adj == linalg.adjugate(leaf)


# the matrices that passed psd._swap_minimal, in order, for each search,
# recorded from the walk that tested column order only at the leaves
SURVIVORS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "sporadic_survivors.json").read_text()
)


def norm_one_vector(m):
    """Some e_i, e_i +- e_j or e_i +- e_j +- e_k with v^T m v = 1, or None."""
    n = len(m)
    vectors = []
    for size in (1, 2, 3):
        for support in itertools.combinations(range(n), size):
            for signs in itertools.product((1, -1), repeat=size - 1):
                v = [0] * n
                for i, s in zip(support, (1,) + signs):
                    v[i] = s
                vectors.append(tuple(v))
    return next(
        (v for v in vectors if sum(v[i] * m[i][j] * v[j] for i in range(n) for j in range(n)) == 1),
        None,
    )


@pytest.mark.parametrize(
    "search", SURVIVORS, ids=[f"n{s['n']}b{s['diag_bound']}" for s in SURVIVORS]
)
def test_swap_survivors_match_the_recording(search, monkeypatch):
    # the walk skips every leaf where some e_i, e_i +- e_j or e_i +- e_j +-
    # e_k has norm 1, and each such recorded survivor X has the rank-one
    # peel X v
    swap_minimal = psd._swap_minimal
    passed = []

    def recording(rows, n):
        ok = swap_minimal(rows, n)
        if ok:
            passed.append([list(r) for r in rows])
        return ok

    monkeypatch.setattr(psd, "_swap_minimal", recording)
    search_sporadic(search["n"], search["diag_bound"])
    recorded = search["survivors"]
    assert passed == [m for m in recorded if norm_one_vector(m) is None]
    n = search["n"]
    for m in recorded:
        v = norm_one_vector(m)
        if v is not None:
            y = linalg.mat_vec(m, v)
            assert any(y)
            assert psd_by_minors([[m[i][j] - y[i] * y[j] for j in range(n)] for i in range(n)])


def sign_normalized(m):
    """m with basis signs flipped, columns left to right, so that each
    column's first nonzero entry above the diagonal is positive: the form
    of every leaf that reaches psd._swap_minimal."""
    m = [list(r) for r in m]
    n = len(m)
    for j in range(1, n):
        if next((m[i][j] for i in range(j) if m[i][j]), 0) < 0:
            for i in range(n):
                m[i][j], m[j][i] = -m[i][j], -m[j][i]
    return m


def swap_check_inputs(count, seed):
    """Seeded sign-normalized symmetric matrices, n 2..7: short diagonal
    alphabets for runs of equal entries, mostly zero off-diagonal entries
    of both signs (so a swap can put a negative entry first in a column and
    force a flip), and columns copied, up to sign, into the next one for
    ties that the comparison must read past."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        n = 2 + t % 6
        diag = [rng.choice((2, 2, 3) if t % 4 else (2, 3, 4)) for _ in range(n)]
        if t % 3:
            diag.sort()
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = diag[i]
            for j in range(i):
                m[i][j] = m[j][i] = rng.choice((0, 0, 0, 1, -1, 1, -1, 2, -2))
        for _ in range(rng.randint(0, 2)):
            k = rng.randrange(1, n)
            s = rng.choice((1, -1))
            for i in range(k - 1):
                m[i][k] = m[k][i] = s * m[i][k - 1]
        out.append(sign_normalized(m))
    return out


def test_swap_minimal_matches_the_oracle_on_random_matrices():
    inputs = swap_check_inputs(3000, 67)
    verdicts = []
    for m in inputs:
        n = len(m)
        got = psd._swap_minimal(m, n)
        assert got == swap_minimal_oracle(m), m
        verdicts.append((n, got))
    # every size both ways, but n = 2, where the swap keeps X_12 and its sign
    assert set(verdicts) == {(2, True)} | {
        (n, ok) for n in range(3, 8) for ok in (True, False)
    }


@pytest.mark.parametrize("n, b", [(4, 5), (6, 2)])
def test_swap_minimal_matches_the_oracle_in_the_search(n, b, monkeypatch):
    # (4, 5) sees 6 passes and 4 refusals; the (5, 3) walk skips every leaf
    # that would reach the swap check, each having a norm-1 vector
    swap_minimal = psd._swap_minimal
    seen = []

    def recording(rows, n):
        ok = swap_minimal(rows, n)
        assert ok == swap_minimal_oracle(rows), rows
        seen.append(ok)
        return ok

    monkeypatch.setattr(psd, "_swap_minimal", recording)
    search_sporadic(n, b)
    assert True in seen and False in seen


@pytest.mark.parametrize("n", [2, 3, 4])
def test_walk_prunes_only_non_minimal_leaves(n, monkeypatch):
    # the walk's column-order bound, determinant test and norm-1 skip may
    # drop a leaf only when the brute-force oracle, less the leaves where
    # some e_i, e_i +- e_j or e_i +- e_j +- e_k has norm 1, drops it too;
    # and no leaf it keeps has such a vector
    check_leaf = psd._check_leaf
    reached = set()

    def recording(a, *rest):
        reached.add(tuple(map(tuple, a)))
        return check_leaf(a, *rest)

    monkeypatch.setattr(psd, "_check_leaf", recording)
    for b in (1, 2, 3):
        reached.clear()
        search_sporadic(n, b)
        candidates = sporadic_leaf_candidates(n, b)
        assert candidates
        expected = [m for m in candidates if norm_one_vector(m) is None]
        assert set(expected) <= reached
        assert all(norm_one_vector(m) is None for m in reached)


@pytest.mark.parametrize("n, b, leaves", [(5, 3, 860), (4, 5, 336), (6, 2, 3163)])
def test_walk_leaf_counts(n, b, leaves, monkeypatch):
    # work-count pin: the norm-1 skip on three coordinates cut (5, 3) from
    # 5,348 leaves and (4, 5) from 1,531; (6, 2) has an all-even diagonal,
    # where every norm is even and nothing is skipped
    check_leaf = psd._check_leaf
    count = [0]

    def counting(*args):
        count[0] += 1
        return check_leaf(*args)

    monkeypatch.setattr(psd, "_check_leaf", counting)
    search_sporadic(n, b)
    assert count[0] == leaves


class TestGlGenerators:
    def test_shapes_and_dets(self):
        for n in (2, 3, 6):
            gens = gl_generators(n)
            assert set(gens) == {
                "shift",
                "addrow",
                "swap",
                "shift_inv",
                "addrow_inv",
            }
            for m in gens.values():
                assert linalg.det(m) in (1, -1)

    def test_three_generators(self):
        gens = gl_generators(3)
        assert gens["shift"] == ((0, 1, 0), (0, 0, 1), (1, 0, 0))
        assert gens["addrow"] == ((1, 0, 0), (1, 1, 0), (0, 0, 1))
        assert gens["swap"] == ((0, 1, 0), (1, 0, 0), (0, 0, 1))

    def test_letters_match_the_replaced_builder(self):
        # values and key order, which fixes the cut stream's order
        for n in range(2, 9):
            got = gl_generators(n)
            assert list(got.items()) == list(gl_generators_by_inversion(n).items()), n

    def test_inverse_labels(self):
        gens = gl_generators(4)
        eye = linalg.identity(4)
        assert linalg.mat_mul(gens["shift"], gens["shift_inv"]) == eye
        assert linalg.mat_mul(gens["addrow"], gens["addrow_inv"]) == eye
        assert linalg.mat_mul(gens["swap"], gens["swap"]) == eye

    def test_random_unimodular_deterministic(self):
        a = random_unimodular(5, 8, random.Random(3))
        b = random_unimodular(5, 8, random.Random(3))
        assert a == b
        assert linalg.det(a) in (1, -1)
