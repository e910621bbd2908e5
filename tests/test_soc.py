import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    cone_member,
    evaluate_word,
    primitive_pythagorean_signed,
    root_splits_table,
    soc_generator_labels,
    soc_generator_parse,
    soc_inverse_label,
    sporadic_by_search,
)
from intcone import cuts, linalg, soc
from intcone.soc import (
    SocCertificate,
    apply_word,
    decompose_soc,
    descend,
    generator_matrix,
    in_cone,
    is_pythagorean,
    is_sporadic_soc,
    lorentz_form,
    pythagorean_orbit,
    root_splits,
    roots,
)

J3 = ((1, 0, 0), (0, 1, 0), (0, 0, -1))


def random_cone_point(rng, n, max_height):
    """Uniform-ish integer point of T_n with the given height cap."""
    h = rng.randint(0, max_height)
    budget = h * h
    coords = []
    for _ in range(n - 1):
        r = isqrt(budget)
        v = rng.randint(-r, r)
        coords.append(v)
        budget -= v * v
    rng.shuffle(coords)
    return tuple(coords) + (h,)


def signature_matrix(n):
    return tuple(
        tuple((1 if i < n - 1 else -1) if i == j else 0 for j in range(n))
        for i in range(n)
    )


class TestLorentzForm:
    def test_examples(self):
        assert lorentz_form((3, 4, 5), (3, 4, 5)) == 0
        assert lorentz_form((0, 0, 1), (0, 0, 1)) == -1
        assert lorentz_form((1, 1, 1, 1, 1, 1, 3), (1, 1, 1, 1, 1, 1, 3)) == -3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lorentz_form((1, 0, 1), (1, 0, 0, 1))

    def test_bilinear(self):
        rng = random.Random(11)
        for _ in range(50):
            a = tuple(rng.randint(-9, 9) for _ in range(4))
            b = tuple(rng.randint(-9, 9) for _ in range(4))
            c = tuple(rng.randint(-9, 9) for _ in range(4))
            ab = tuple(x + y for x, y in zip(a, b))
            assert lorentz_form(ab, c) == lorentz_form(a, c) + lorentz_form(b, c)


class TestGenerators:
    def test_descent_matrix_dim3(self):
        assert soc._generators(3)["Aplus"] == ((1, 2, -2), (2, 1, -2), (-2, -2, 3))
        assert soc._generators(3)["AplusInv"] == ((1, 2, 2), (2, 1, 2), (2, 2, 3))

    def test_descent_matrix_dim4(self):
        assert soc._generators(4)["Aplus"] == (
            (0, 1, 1, -1),
            (1, 0, 1, -1),
            (1, 1, 0, -1),
            (-1, -1, -1, 2),
        )

    def test_sign_flip_and_swap(self):
        assert soc._generators(3)["Q1"] == ((-1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert soc._generators(3)["P12"] == ((0, 1, 0), (1, 0, 0), (0, 0, 1))

    def test_labels(self):
        assert tuple(soc._generators(3)) == ("Aplus", "AplusInv", "Q1", "Q2", "P12")
        assert len(soc._generators(10)) == 2 + 9 + 8

    def test_table_matches_the_replaced_parser(self):
        # every label of every dimension, in the parser's label order
        for n in range(3, 11):
            table = soc._generators(n)
            assert tuple(table) == soc_generator_labels(n)
            assert len(table) == 2 + (n - 1) + (n - 2)
            for label, rows in table.items():
                assert rows == soc_generator_parse(label, n), (label, n)
                assert soc.generator_matrix(label, n).rows == rows

    def test_bad_labels(self):
        # a label outside its dimension's table, or a dimension outside
        # 3..10, is a ValueError in both folds
        cases = (("Q3", (0, 0, 1)), ("P13", (0, 0, 1)), ("B2", (0, 0, 0, 1)))
        for label, point in cases:
            with pytest.raises(ValueError, match="unknown generator label"):
                soc.apply_word((label,), point)
            with pytest.raises(ValueError, match="unknown generator label"):
                cuts.apply_group_word("soc", len(point), (label,), point)
        for point in ((0, 1), (0,) * 10 + (1,)):
            with pytest.raises(ValueError):
                soc.apply_word(("Q1",), point)
            with pytest.raises(ValueError):
                cuts.apply_group_word("soc", len(point), ("Q1",), point)
        with pytest.raises(ValueError):
            soc._generators(11)

    def test_unimodular_wrapper(self):
        m = generator_matrix("Aplus", 5)
        assert isinstance(m, linalg.UnimodularMatrix)
        assert abs(linalg.det(m.rows)) == 1

    def test_form_preserved_by_every_generator(self):
        for n in range(3, 11):
            j = signature_matrix(n)
            for label in soc._generators(n):
                g = soc._generators(n)[label]
                gt = linalg.transpose(g)
                assert linalg.mat_mul(gt, linalg.mat_mul(j, g)) == j, (label, n)

    def test_inverse_pairs(self):
        for n in range(3, 11):
            a = soc._generators(n)["Aplus"]
            b = soc._generators(n)["AplusInv"]
            assert linalg.mat_mul(a, b) == linalg.identity(n)
        g4 = soc._generators(4)
        assert linalg.mat_mul(g4["Q2"], g4["Q2"]) == linalg.identity(4)
        assert linalg.mat_mul(g4["P13"], g4["P13"]) == linalg.identity(4)


class TestWords:
    def test_empty_word_is_identity(self):
        assert evaluate_word((), 3) == linalg.identity(3)
        assert apply_word((), (3, 4, 5)) == (3, 4, 5)

    def test_application_order(self):
        # the list is a left-to-right matrix product acting on the left
        word = ("P12", "AplusInv", "P12")
        assert apply_word(word, (1, 0, 1)) == (3, 4, 5)
        m = evaluate_word(word, 3)
        assert linalg.mat_vec(m, (1, 0, 1)) == (3, 4, 5)

    def test_inversion(self):
        rng = random.Random(5)
        for n in range(3, 7):
            labels = tuple(soc._generators(n))
            for _ in range(20):
                word = tuple(rng.choice(labels) for _ in range(rng.randint(0, 6)))
                s = random_cone_point(rng, n, 9)
                inverse = tuple(soc_inverse_label(label) for label in reversed(word))
                assert apply_word(inverse, apply_word(word, s)) == s

    def test_form_invariance_check(self):
        cases = [(("Aplus", "Q1", "P12"), (3, 4, 5))]
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(3, 10)
            word = tuple(rng.choice(tuple(soc._generators(n))) for _ in range(4))
            cases.append((word, tuple(rng.randint(-8, 8) for _ in range(n))))
        for word, s in cases:
            moved = apply_word(word, s)
            assert lorentz_form(moved, moved) == lorentz_form(s, s)


class TestPythagorean:
    def test_examples(self):
        assert is_pythagorean((3, 4, 5))
        assert is_pythagorean((1, 0, 0, 1))
        assert not is_pythagorean((1, 1, 1, 3))
        assert not is_pythagorean((0, 0, 1))

    def test_needs_cone_membership(self):
        # the form vanishes but the height is negative
        assert not is_pythagorean((3, 4, -5))


class TestNormalize:
    # _normalize_steps lists the labels in the order they are applied, so
    # the word mapping s to its normal form is that list reversed

    def test_sign_fix(self):
        assert soc._normalize_steps((-4, 3, 5)) == ((4, 3, 5), ["Q1"])

    def test_sort(self):
        assert soc._normalize_steps((3, 4, 5)) == ((4, 3, 5), ["P12"])

    def test_sign_and_sort(self):
        assert soc._normalize_steps((0, -1, 1, 2)) == ((1, 1, 0, 2), ["Q2", "P13"])

    def test_random_points(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(3, 10)
            s = random_cone_point(rng, n, 12)
            out, applied = soc._normalize_steps(s)
            prefix = out[:-1]
            assert all(v >= 0 for v in prefix)
            assert all(prefix[i] >= prefix[i + 1] for i in range(len(prefix) - 1))
            assert out[-1] == s[-1]
            assert apply_word(tuple(reversed(applied)), s) == out
            assert soc._normalize_steps(out) == (out, [])


class TestSporadicSoc:
    def test_examples(self):
        assert is_sporadic_soc((0, 0, 1))
        assert is_sporadic_soc((2, 2, 3))
        assert is_sporadic_soc((1, 1, 1, 1, 1, 1, 3))
        assert not is_sporadic_soc((1, 1, 2))
        assert not is_sporadic_soc((3, 4, 5))

    def test_zero_point(self):
        # nothing can be subtracted from the origin, so it passes the test
        assert is_sporadic_soc((0, 0, 0, 0))

    def test_rejects_outside_cone(self):
        with pytest.raises(ValueError):
            is_sporadic_soc((5, 0, 3))

    def test_against_brute_force_dim3(self):
        for h in range(0, 7):
            for x in range(-h, h + 1):
                for y in range(-h, h + 1):
                    s = (x, y, h)
                    if in_cone(s):
                        assert is_sporadic_soc(s) == sporadic_by_search(s), s

    def test_against_brute_force_random(self):
        rng = random.Random(29)
        for _ in range(120):
            n = rng.randint(4, 6)
            s = random_cone_point(rng, n, 7)
            assert is_sporadic_soc(s) == sporadic_by_search(s), s

    def test_tall_roots_lose_sporadicity_in_dim10(self):
        # with nine leading coordinates the all-ones tuple becomes
        # Pythagorean, which hands both height-6 roots a peel that their
        # dimension-9 counterpart does not have
        nine = (2, 2, 2, 2, 2, 2, 2, 1, 6)
        assert is_sporadic_soc(nine)
        ones = (1, 1, 1, 1, 1, 1, 1, 1, 1, 3)
        assert is_pythagorean(ones)
        for tall in ((2, 2, 2, 2, 2, 2, 2, 2, 1, 6), (2, 2, 2, 2, 2, 2, 2, 1, 0, 6)):
            assert in_cone(tuple(a - b for a, b in zip(tall, ones)))
            assert not is_sporadic_soc(tall)

    def test_primitive_peels_decide_like_all_peels(self):
        # both settings of the peel walk, on vertical points and on
        # multiples of every root, where both kinds of peel occur
        points = [(0,) * (n - 1) + (k,) for n in (3, 4, 5) for k in range(1, 41)]
        points += [
            tuple(k * v for v in r)
            for n in range(3, 11)
            for r in roots(n)
            for k in range(2, 9)
        ]
        assert len(points) == 323
        differ = 0
        for s in points:
            peel = soc._first_peel(s, primitive_only=False)
            prim = soc._first_peel(s, primitive_only=True)
            assert (prim is None) == (peel is None), s
            assert is_sporadic_soc(s) == (peel is None), s
            if peel is not None:
                for p in (peel, prim):
                    assert is_pythagorean(p) and any(p), s
                    assert in_cone(tuple(a - b for a, b in zip(s, p))), s
                assert soc.vec_gcd(prim) == 1, s
                # the walk goes down in height, then up lexicographically,
                # and the first peel of any kind comes no later in it
                assert (-peel[-1], peel) <= (-prim[-1], prim), s
                differ += peel != prim
        assert differ  # points where the first peel is not primitive

    def test_closed_under_descent_moves(self):
        sporadics = [(0, 0, 1), (2, 2, 3), (1, 1, 1, 1, 1, 1, 3)]
        for s in sporadics:
            n = len(s)
            for label in ("Aplus", "AplusInv", "Q1", "P12"):
                t = apply_word((label,), s)
                if in_cone(t):
                    assert is_sporadic_soc(t), (s, label)


class TestDescend:
    def test_roots_are_fixed(self):
        for n in range(3, 11):
            for r in roots(n):
                if is_pythagorean(r) or is_sporadic_soc(r):
                    assert descend(r) == (r, ())
                else:
                    # only the two redundant height-6 roots of dimension 10
                    # fall outside both classes; see the sporadic tests
                    assert n == 10 and r[-1] == 6
                    with pytest.raises(ValueError):
                        descend(r)

    def test_pythagorean_trace(self):
        root, word = descend((3, 4, 5))
        assert root == (1, 0, 1)
        assert word == ("P12", "AplusInv", "P12")
        assert apply_word(word, root) == (3, 4, 5)

    def test_sporadic_trace(self):
        root, word = descend((2, 2, 3))
        assert root == (0, 0, 1)
        assert word == ("AplusInv",)
        assert apply_word(word, root) == (2, 2, 3)

    def test_sign_only(self):
        root, word = descend((-1, 0, 1))
        assert root == (1, 0, 1)
        assert word == ("Q1",)

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            descend((6, 8, 10))

    def test_rejects_unclassified_point(self):
        # (1,1,2) is interior: neither boundary nor sporadic
        with pytest.raises(ValueError):
            descend((1, 1, 2))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            descend((1, 1))

    def test_replay_with_monotone_heights(self):
        rng = random.Random(31)
        for n in (3, 4, 5):
            for s in primitive_pythagorean_signed(n, 15):
                root, word = descend(s)
                assert root in roots(n)
                assert apply_word(word, root) == s
                # walking the descent forward, the height never climbs and
                # drops strictly at every descent-matrix step
                cur = s
                for label in (soc_inverse_label(w) for w in word):
                    nxt = apply_word((label,), cur)
                    if label == "Aplus":
                        assert nxt[-1] < cur[-1]
                    else:
                        assert nxt[-1] == cur[-1]
                    cur = nxt
                assert cur == root
            if n == 3:
                continue
            for _ in range(10):
                s = random_cone_point(rng, n, 6)
                if any(s) and is_sporadic_soc(s) and soc.vec_gcd(s) == 1:
                    root, word = descend(s)
                    assert apply_word(word, root) == s


class TestRoots:
    def test_low_dimensions(self):
        assert roots(3) == ((1, 0, 1), (0, 0, 1))
        assert roots(6) == ((1, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 1))

    def test_dim7(self):
        assert roots(7) == (
            (1, 0, 0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0, 0, 1),
            (1, 1, 1, 1, 1, 1, 3),
        )

    def test_dim8(self):
        assert roots(8) == (
            (1, 0, 0, 0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0, 0, 0, 1),
            (1, 1, 1, 1, 1, 1, 1, 3),
            (1, 1, 1, 1, 1, 1, 0, 3),
        )

    def test_dim9(self):
        assert roots(9) == (
            (1, 0, 0, 0, 0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0, 0, 0, 0, 1),
            (1, 1, 1, 1, 1, 1, 1, 1, 3),
            (1, 1, 1, 1, 1, 1, 1, 0, 3),
            (1, 1, 1, 1, 1, 1, 0, 0, 3),
            (2, 2, 2, 2, 2, 2, 2, 1, 6),
        )

    def test_dim10(self):
        assert roots(10) == (
            (1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
            (1, 1, 1, 1, 1, 1, 1, 1, 1, 3),
            (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
            (1, 1, 1, 1, 1, 1, 1, 1, 0, 3),
            (1, 1, 1, 1, 1, 1, 1, 0, 0, 3),
            (1, 1, 1, 1, 1, 1, 0, 0, 0, 3),
            (2, 2, 2, 2, 2, 2, 2, 2, 1, 6),
            (2, 2, 2, 2, 2, 2, 2, 1, 0, 6),
        )

    def test_minimal_lists(self):
        for n in range(3, 9):
            assert roots(n, minimal=True) == roots(n)
        assert len(roots(9, minimal=True)) == 5
        assert len(roots(10, minimal=True)) == 6
        assert (2, 2, 2, 2, 2, 2, 2, 1, 6) not in roots(9, minimal=True)

    def test_splits(self):
        for n in range(3, 11):
            for r, (x, y) in root_splits(n).items():
                assert r in roots(n)
                assert x in roots(n, minimal=True)
                assert y in roots(n, minimal=True)
                assert tuple(a + b for a, b in zip(x, y)) == r

    def test_splits_match_the_replaced_table(self):
        # values and key order; the derived rule reads no table of its own
        for n in range(3, 11):
            got = root_splits(n)
            assert list(got.items()) == list(root_splits_table(n).items()), n
        assert [len(root_splits(n)) for n in (9, 10)] == [1, 2]

    def test_roots_live_in_cone(self):
        for n in range(3, 11):
            for r in roots(n):
                assert in_cone(r)
                assert soc.vec_gcd(r) == 1


class TestDecomposeSoc:
    def test_axis_point(self):
        cert = decompose_soc((0, 0, 2))
        assert cert.terms == (
            (1, ("Q1",), (1, 0, 1)),
            (1, (), (1, 0, 1)),
        )
        assert cert.reconstruct() == (0, 0, 2)

    def test_boundary_point_is_single_term(self):
        cert = decompose_soc((3, 4, 5))
        assert cert.terms == ((1, ("P12", "AplusInv", "P12"), (1, 0, 1)),)

    def test_multiple_collapses(self):
        cert = decompose_soc((6, 8, 10))
        assert cert.terms == ((2, ("P12", "AplusInv", "P12"), (1, 0, 1)),)
        assert cert.reconstruct() == (6, 8, 10)

    def test_sporadic_alone(self):
        cert = decompose_soc((0, 0, 0, 0, 1))
        assert cert.terms == ((1, (), (0, 0, 0, 0, 1)),)

    def test_zero_point(self):
        assert decompose_soc((0, 0, 0)).terms == ()

    def test_mixed_boundary_and_sporadic(self):
        # (5,6,8) = (3,4,5) + (2,2,3): one boundary peel, one sporadic rest
        cert = decompose_soc((5, 6, 8))
        assert cert.terms == (
            (1, ("P12", "AplusInv", "P12"), (1, 0, 1)),
            (1, ("AplusInv",), (0, 0, 1)),
        )
        assert cert.reconstruct() == (5, 6, 8)

    def test_redundant_root_kept_by_default(self):
        r = (2, 2, 2, 2, 2, 2, 2, 1, 6)
        cert = decompose_soc(r)
        assert cert.terms == ((1, (), r),)

    def test_dim10_tall_root_splits_by_peeling(self):
        # not sporadic in dimension 10, so the ordinary peel loop applies
        # and lands on the two-root split without the minimal-roots flag
        r = (2, 2, 2, 2, 2, 2, 2, 2, 1, 6)
        cert = decompose_soc(r)
        assert cert.terms == (
            (1, (), (1, 1, 1, 1, 1, 1, 1, 1, 1, 3)),
            (1, (), (1, 1, 1, 1, 1, 1, 1, 1, 0, 3)),
        )
        assert cert.reconstruct() == r

    def test_redundant_root_split_when_minimal(self):
        r = (2, 2, 2, 2, 2, 2, 2, 1, 6)
        cert = decompose_soc(r, minimal_roots=True)
        assert cert.terms == (
            (1, (), (1, 1, 1, 1, 1, 1, 1, 0, 3)),
            (1, (), (1, 1, 1, 1, 1, 1, 1, 1, 3)),
        )
        assert cert.reconstruct() == r

    def test_rejects_outside_cone(self):
        with pytest.raises(ValueError):
            decompose_soc((2, 2, 1))

    def test_random_reconstruction(self):
        rng = random.Random(41)
        for _ in range(250):
            n = rng.randint(3, 10)
            s = random_cone_point(rng, n, 30)
            cert = decompose_soc(s)
            assert cert.reconstruct() == s
            for lam, word, root in cert.terms:
                assert lam >= 1
                assert root in roots(n)
                moved = apply_word(word, root)
                assert in_cone(moved)
                if lorentz_form(root, root) == 0:
                    assert soc.vec_gcd(moved) == 1

    def test_minimal_mode_still_reconstructs(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.choice((9, 10))
            s = random_cone_point(rng, n, 20)
            cert = decompose_soc(s, minimal_roots=True)
            assert cert.reconstruct() == s
            for lam, word, root in cert.terms:
                assert root in roots(n, minimal=True)


class TestSocCertificate:
    def test_json_roundtrip(self):
        cert = decompose_soc((0, 0, 2))
        again = SocCertificate.from_json(cert.to_json())
        assert again == cert
        assert again.reconstruct() == (0, 0, 2)

    def test_json_shape(self):
        obj = decompose_soc((3, 4, 5)).to_json()
        assert obj["n"] == 3
        term = obj["terms"][0]
        assert set(term) == {"lambda", "word", "root"}


class TestPythagoreanOrbit:
    def test_smallest_orbit(self):
        assert pythagorean_orbit(3, 1) == [
            (-1, 0, 1),
            (0, -1, 1),
            (0, 1, 1),
            (1, 0, 1),
        ]

    def test_matches_brute_force_dim3(self):
        expected = sorted(
            primitive_pythagorean_signed(3, 25), key=lambda p: (p[-1], p)
        )
        assert pythagorean_orbit(3, 25) == expected

    def test_matches_brute_force_dim4(self):
        expected = sorted(
            primitive_pythagorean_signed(4, 10), key=lambda p: (p[-1], p)
        )
        assert pythagorean_orbit(4, 10) == expected

    def test_height_zero_is_empty(self):
        assert pythagorean_orbit(3, 0) == []

    def test_sorted_by_height_then_lex(self):
        pts = pythagorean_orbit(4, 6)
        assert pts == sorted(pts, key=lambda p: (p[-1], p))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=3, max_value=8), st.randoms(use_true_random=False))
def test_word_action_preserves_cone(n, rnd):
    labels = tuple(soc._generators(n))
    word = tuple(rnd.choice(labels) for _ in range(rnd.randint(0, 5)))
    s = random_cone_point(rnd, n, 10)
    moved = apply_word(word, s)
    assert in_cone(moved)
    assert lorentz_form(moved, moved) == lorentz_form(s, s)
