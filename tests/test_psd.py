import json
import pathlib
import random
from fractions import Fraction

import pytest

from _oracles import (
    adjugate_cofactor,
    congruence_backtrack,
    det_cofactor,
    gl_generators_by_inversion,
    plain_shells,
    psd_by_minors,
    random_unimodular,
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


class TestRank1Step:
    # the rank-one step of decompose is lattice._kx_first: the first x != 0
    # with X - x x^T still PSD
    def test_identity(self):
        assert lattice._kx_first(((1, 0), (0, 1))) == (1, 0)

    def test_m6_has_no_step(self):
        assert lattice._kx_first(M6) is None

    def test_small_example(self):
        assert lattice._kx_first(((2, 1), (1, 1))) == (1, 0)

    def test_zero_has_no_step(self):
        assert lattice._kx_first(((0, 0), (0, 0))) is None

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            lattice._kx_first(((1, 2), (2, 1)))

    def test_step_keeps_psd(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(2, 5)
            a = random_psd_sum(rng, n, rng.randint(1, n))
            if not any(v for row in a for v in row):
                continue
            x = lattice._kx_first(a)
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
                x = lattice._kx_first(cur)
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
            got = psd._rank1_update(p, u, d, d2)
            assert tuple(map(tuple, got)) == adjugate_cofactor(down)
            checked += 1

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


class TestSearchSporadic:
    def test_dimension_two_empty(self):
        assert search_sporadic(2, 3) == []

    def test_dimension_five_empty(self):
        assert search_sporadic(5, 2) == []

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
    witness = psd._ShellRecord.witness
    shell_record = psd._shell_record
    backtracks = []
    counted = []

    def recording(rec, y):
        # the backtrack runs only against records with y's determinant
        assert rec.det == linalg.det(y)
        u = witness(rec, y)
        backtracks.append((rec, u is not None))
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
    for stream in dedup_streams():
        cap = max(m[i][i] for m in stream for i in range(len(m)))
        reps = []
        for m in stream:
            d = linalg.det(m)
            backtracks.clear()
            counted.clear()
            before = list(reps)
            found = psd._join_class(m, d, cap, reps)
            same = [r for r in before if r.det == d]
            # the leaf's counts run only when two or more records share d,
            # and then only records with equal counts are backtracked; a
            # new class keeps the record, so the leaf is enumerated once
            assert counted == ([m] if len(same) > 1 or found is None else [])
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
            if found is None:
                assert reps[:-1] == before
                assert reps[-1] == shell_record(m, d, cap)
            else:
                assert reps == before
        assert [r.rows for r in reps] == [
            m
            for i, m in enumerate(stream)
            if all(unimodular_witness(m, p) is None for p in stream[:i])
        ]
    assert True in outcomes and False in outcomes  # a backtrack that fails
    assert count_skips  # and records skipped on their counts


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
    border = psd._border
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
    monkeypatch.setattr(psd, "_border", bordering)
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
    """Some e_i or e_i +- e_j with v^T m v = 1, or None."""
    n = len(m)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    vectors = units + [
        tuple(p + s * q for p, q in zip(units[i], units[j]))
        for i in range(n)
        for j in range(i + 1, n)
        for s in (1, -1)
    ]
    return next(
        (v for v in vectors if sum(v[i] * m[i][j] * v[j] for i in range(n) for j in range(n)) == 1),
        None,
    )


@pytest.mark.parametrize(
    "search", SURVIVORS, ids=[f"n{s['n']}b{s['diag_bound']}" for s in SURVIVORS]
)
def test_swap_survivors_match_the_recording(search, monkeypatch):
    # the walk skips every leaf where some e_i or e_i +- e_j has norm 1, and
    # each such recorded survivor X has the rank-one peel X v
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_walk_prunes_only_non_minimal_leaves(n, monkeypatch):
    # the walk's column-order bound, determinant test and norm-1 skip may
    # drop a leaf only when the brute-force oracle, less the leaves where
    # some e_i or e_i +- e_j has norm 1, drops it too; and no leaf it keeps
    # has such a vector
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
