import functools
import hashlib
import inspect
import json
import pathlib
import random
import sys
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    cone_member,
    evaluate_word,
    lorentz_multiple,
    primitive_pythagorean_signed,
    root_splits_table,
    soc_decompose_from_each_height,
    soc_generator_labels,
    soc_generator_parse,
    soc_inverse_label,
    soc_peel_candidate,
    soc_recursive_peel_candidate,
    soc_root_refuted,
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


def walk_points(rng, n, count, max_height=60):
    """Seeded points of T_n of height <= max_height for the peel-walk
    comparisons: plain draws, points with zero coordinates (a zero
    coordinate, or a zero tail of the first n-1), points whose first n-1
    coordinates repeat one value up to sign, points with no positive
    coordinate, and every multiple of every root within the cap."""
    m = n - 1
    points = [
        tuple(k * v for v in r)
        for r in roots(n)
        for k in range(1, max_height // r[-1] + 1)
    ]
    while len(points) < count:
        kind = len(points) % 5
        s = list(random_cone_point(rng, n, max_height))
        h = s[-1]
        if kind == 1:
            for i in rng.sample(range(m), rng.randint(1, m - 1)):
                s[i] = 0
        elif kind == 2:
            tail = rng.randint(1, m - 1)
            s[m - tail : m] = [0] * tail
        elif kind == 3:
            v = rng.randint(0, isqrt(h * h // m))
            s[:m] = [rng.choice((v, -v)) if rng.random() < 0.8 else 0 for _ in range(m)]
        elif kind == 4:
            s[:m] = [-abs(v) for v in s[:m]]
        points.append(tuple(s))
    return points


def tall_soc_points():
    """The soc-decompose inputs of height >= 60 in the recorded envelopes."""
    path = pathlib.Path(__file__).parent / "data" / "soc_envelopes.json"
    cases = json.loads(path.read_text())
    points = set()
    for case in cases:
        if case["argv"][0] == "soc-decompose":
            doc = json.loads(case["input"])
            s = tuple(doc["point"] if isinstance(doc, dict) else doc)
            if s[-1] >= 60:
                points.add(s)
    return sorted(points)


# soc._peel_candidate marks the line where its loop enters a level, on
# whose budgets that level's names i, S and B then hold; both it and its
# recursive oracles test each child's gap on a line with this text
ENTRY_MARK = "# level entry: i, S, B"
GAP_TEXT = "gap = t2 - 2 * si * v"


@functools.cache
def walk_lines(walker):
    """The inner walk's code object of a recursive walker (None for the
    loop), the code object whose frames are traced, and the numbers of the
    lines with the entry mark and with the gap test."""
    inner = next(
        (c for c in walker.__code__.co_consts if getattr(c, "co_name", None) == "walk"),
        None,
    )
    lines, first = inspect.getsourcelines(walker)
    entry = frozenset(first + k for k, line in enumerate(lines) if ENTRY_MARK in line)
    gaps = frozenset(first + k for k, line in enumerate(lines) if GAP_TEXT in line)
    assert inner or len(entry) == 1, "the walk lost its entry mark"
    return inner, inner or walker.__code__, entry, gaps


def walk_events(fn, *args, walker=None):
    """fn(*args), and the peel walk's events during it, in order: ("node",
    i, sphere_left, ball_left) for each node entered and ("child", i, v)
    for each child whose gap is tested.  walker (fn by default) is the
    walk: soc._peel_candidate, whose nodes are read by a line hook on its
    marked entry line, or a recursive oracle, whose inner walk enters one
    node per call."""
    inner, target, entry, gaps = walk_lines(walker or fn)
    events = []

    def line_hook(frame, event, arg):
        if event == "line" and frame.f_lineno in gaps:
            loc = frame.f_locals
            events.append(("child", loc["i"], loc["v"]))
        elif event == "line" and frame.f_lineno in entry:
            loc = frame.f_locals
            events.append(("node", loc["i"], loc["S"], loc["B"]))
        return line_hook

    def call_hook(frame, event, arg):
        if frame.f_code is not target:
            return None
        if inner is not None:
            loc = frame.f_locals
            events.append(("node", loc["i"], loc["sphere_left"], loc["ball_left"]))
        return line_hook if entry or gaps else None

    old = sys.gettrace()
    sys.settrace(call_hook)
    try:
        out = fn(*args)
    finally:
        sys.settrace(old)
    return out, events


def walk_nodes(fn, *args, walker=None):
    """fn(*args), and the (i, sphere_left, ball_left) of every node the
    peel walk enters during it, in order (walk_events)."""
    out, events = walk_events(fn, *args, walker=walker)
    return out, [e[1:] for e in events if e[0] == "node"]


def refuted(suffix_sq, sphere_left, ball_left):
    """The real relaxation's verdict on a walk node: the sphere of squared
    radius sphere_left misses the ball of squared radius ball_left around
    the rest of s, whose squared length is suffix_sq."""
    gap = suffix_sq + sphere_left - ball_left
    return gap > 0 and gap * gap > 4 * suffix_sq * sphere_left


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
        assert generator_matrix("Aplus", 3).rows == ((1, 2, -2), (2, 1, -2), (-2, -2, 3))
        assert generator_matrix("AplusInv", 3).rows == ((1, 2, 2), (2, 1, 2), (2, 2, 3))

    def test_descent_matrix_dim4(self):
        assert generator_matrix("Aplus", 4).rows == (
            (0, 1, 1, -1),
            (1, 0, 1, -1),
            (1, 1, 0, -1),
            (-1, -1, -1, 2),
        )

    def test_sign_flip_and_swap(self):
        assert generator_matrix("Q1", 3).rows == ((-1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert generator_matrix("P12", 3).rows == ((0, 1, 0), (1, 0, 0), (0, 0, 1))

    def test_labels(self):
        assert tuple(soc._letters(3)) == ("Aplus", "AplusInv", "Q1", "Q2", "P12")
        assert len(soc._letters(10)) == 2 + 9 + 8

    def test_table_matches_the_replaced_parser(self):
        # every label of every dimension, in the parser's label order
        for n in range(3, 11):
            labels = tuple(soc._letters(n))
            assert labels == soc_generator_labels(n)
            assert len(labels) == 2 + (n - 1) + (n - 2)
            for label in labels:
                rows = soc.generator_matrix(label, n).rows
                assert rows == soc_generator_parse(label, n), (label, n)

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
            soc.generator_matrix("Q1", 11)
        # generator_matrix reads its columns through linalg.apply_word
        for label in ("B2", "Q3"):
            with pytest.raises(ValueError, match="unknown generator label"):
                soc.generator_matrix(label, 3)

    def test_letters_match_the_rows(self):
        # every letter a word is applied through is the rows of the replaced
        # parser, as generator_matrix reads its rows off the letters
        rng = random.Random(47)
        for n in range(3, 11):
            letters = soc._letters(n)
            assert tuple(letters) == soc_generator_labels(n)
            for label, g in letters.items():
                parsed = soc_generator_parse(label, n)
                rows = soc.generator_matrix(label, n).rows
                for _ in range(20):
                    v = tuple(rng.randint(-50, 50) for _ in range(n))
                    want = linalg.mat_vec(parsed, v)
                    assert g(v) == want == linalg.mat_vec(rows, v), (label, n)
                assert g.size == n
            # the closed-form sum letters: inverse to each other, preserving
            # the Lorentz form, and equal on large entries to the parser's rows
            aplus, aplus_inv = letters["Aplus"], letters["AplusInv"]
            parsed = {g: soc_generator_parse(g, n) for g in ("Aplus", "AplusInv")}
            for _ in range(200):
                u = tuple(rng.randint(-(10**6), 10**6) for _ in range(n))
                v = tuple(rng.randint(-(10**6), 10**6) for _ in range(n))
                assert aplus(aplus_inv(v)) == v == aplus_inv(aplus(v)), n
                for g in (aplus, aplus_inv):
                    assert lorentz_form(g(u), g(v)) == lorentz_form(u, v), n
                assert aplus(v) == linalg.mat_vec(parsed["Aplus"], v), n
                assert aplus_inv(v) == linalg.mat_vec(parsed["AplusInv"], v), n

    def test_letter_table_is_read_only(self):
        with pytest.raises(TypeError):
            soc._letters(3)["Q1"] = soc._letters(3)["Q2"]

    def test_unimodular_wrapper(self):
        m = generator_matrix("Aplus", 5)
        assert isinstance(m, linalg.UnimodularMatrix)
        assert abs(linalg.det(m.rows)) == 1

    def test_form_preserved_by_every_generator(self):
        for n in range(3, 11):
            j = signature_matrix(n)
            for label in soc._letters(n):
                g = generator_matrix(label, n).rows
                gt = linalg.transpose(g)
                assert linalg.mat_mul(gt, linalg.mat_mul(j, g)) == j, (label, n)

    def test_inverse_pairs(self):
        for n in range(3, 11):
            a = generator_matrix("Aplus", n).rows
            b = generator_matrix("AplusInv", n).rows
            assert linalg.mat_mul(a, b) == linalg.identity(n)
        for label in ("Q2", "P13"):
            g = generator_matrix(label, 4).rows
            assert linalg.mat_mul(g, g) == linalg.identity(4)


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
            labels = tuple(soc._letters(n))
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
            word = tuple(rng.choice(tuple(soc._letters(n))) for _ in range(4))
            cases.append((word, tuple(rng.randint(-8, 8) for _ in range(n))))
        for word, s in cases:
            moved = apply_word(word, s)
            assert lorentz_form(moved, moved) == lorentz_form(s, s)

    def test_reads_entries_with_as_int(self):
        with pytest.raises(TypeError, match="1.5 is not an integer"):
            apply_word(("Q1",), (1.5, 0, 2))
        with pytest.raises(TypeError, match="true is not an integer"):
            apply_word((), (True, 0, 1))
        # the empty word reads no letter table, so any length comes back
        assert apply_word((), [1, 2]) == (1, 2)
        assert apply_word(("Q1",), [1, 0, 2]) == (-1, 0, 2)


class TestPythagorean:
    def test_examples(self):
        assert is_pythagorean((3, 4, 5))
        assert is_pythagorean((1, 0, 0, 1))
        assert not is_pythagorean((1, 1, 1, 3))
        assert not is_pythagorean((0, 0, 1))

    def test_needs_cone_membership(self):
        # the form vanishes but the height is negative
        assert not is_pythagorean((3, 4, -5))

    def test_reads_entries_with_as_int(self):
        with pytest.raises(TypeError, match="true is not an integer"):
            is_pythagorean((True, 0, True))
        with pytest.raises(TypeError, match="0.0 is not an integer"):
            is_pythagorean((0.0, 0, 0))
        assert is_pythagorean([3, 4, 5])


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

    def test_reads_entries_with_as_int(self):
        with pytest.raises(TypeError, match="true is not an integer"):
            is_sporadic_soc((0, True, 2))
        with pytest.raises(TypeError, match="0.0 is not an integer"):
            is_sporadic_soc((0.0, 0, 1))
        assert is_sporadic_soc([2, 2, 3])
        assert not is_sporadic_soc([3, 4, 5])

    def test_rejects_outside_cone(self):
        with pytest.raises(ValueError):
            is_sporadic_soc((5, 0, 3))

    @pytest.mark.parametrize("s", [(), (5,), (0, 1), (0,) * 10 + (1,)])
    def test_rejects_bad_dimension(self, s):
        # checked before cone membership, as decompose_soc does
        with pytest.raises(ValueError, match="dimension must be between 3 and 10"):
            is_sporadic_soc(s)
        with pytest.raises(ValueError, match="dimension must be between 3 and 10"):
            decompose_soc(s)

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


# points where, at some height, a child that the real relaxation admits
# but the arithmetic refuses (no sum of two or three squares left, or no
# square at the leaf) sits between two admitted children, and the peel
# lies past it: a walk that stopped at such a child would miss the peel
STOP_RULE_PINS = (
    (3, -3, 10),
    (1, 8, 10),
    (11, 5, 17),
    (4, 4, 0, 10),
    (-1, 0, 1, -3, 6),
    (-2, -2, -6, -1, -5, 9),
    (0, -1, 0, 10, 0, -1, 11),
    (4, -4, 4, 4, 4, 4, 4, 14),
    (7, 0, 0, 0, 0, 0, -3, 0, 12),
    (-2, 0, 0, 0, 0, 0, 12, 0, 0, 13),
)


class TestPeelWalk:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_every_height_matches_the_unpruned_walk(self, n):
        # the walk that enters every child in the box range and lets it
        # refuse itself finds the same peel at every height.  Heights stop
        # at 30: at 60 the n = 9 points alone take minutes
        rng = random.Random(70 + n)
        points = walk_points(rng, n, 300, max_height=30)
        points += [s for s in STOP_RULE_PINS if len(s) == n]
        assert len(points) >= 300
        assert any(0 in s[:-1] and any(s[:-1]) for s in points)
        assert any(s[-2] == 0 and any(s[:-1]) for s in points)
        assert any(len(set(map(abs, s[:-1]))) == 1 and s[0] for s in points)
        found = 0
        for s in points:
            for h in range(1, s[-1] + 1):
                for prim in (False, True):
                    got = soc._peel_candidate(s, h, prim)
                    assert got == soc_peel_candidate(s, h, prim), (s, h, prim)
                    found += got is not None
        assert found > 300

    def test_square_sum_refusals(self):
        # _three_squares is exact (Legendre), and _not_two_squares never
        # refuses a sum of two squares, by brute force up to 3,000
        limit = 3_000
        squares = [v * v for v in range(isqrt(limit) + 1)]
        two = {a + b for a in squares for b in squares if a + b <= limit}
        three = {a + c for a in two for c in squares if a + c <= limit}
        refused = 0
        for x in range(limit + 1):
            assert soc._three_squares(x) == (x in three), x
            if x in two:
                assert not soc._not_two_squares(x), x
            refused += soc._not_two_squares(x)
        assert len(three) < limit + 1 and refused > 1_000
        # tall budgets cost no trial division
        assert not soc._three_squares(4**40 * 7)
        assert soc._three_squares(2 * 4**40 * 7)
        assert soc._not_two_squares(3 * 4**40) and soc._not_two_squares(5**60 * 3)
        assert not soc._not_two_squares(9 * 5**60)

    def test_first_peel_starts_at_top(self):
        # the first peel at or below top, by the unpruned walk height by height
        rng = random.Random(72)
        for n in (3, 5, 8):
            for s in walk_points(rng, n, 30, max_height=20):
                for prim in (False, True):
                    peels = [soc_peel_candidate(s, h, prim) for h in range(s[-1] + 1)]
                    for top in range(s[-1] + 1):
                        want = next(
                            (p for p in reversed(peels[1 : top + 1]) if p), None
                        )
                        assert soc._first_peel(s, prim, top=top) == want, (s, top)
                    assert soc._first_peel(s, prim) == soc._first_peel(
                        s, prim, top=s[-1]
                    )

    def test_entered_nodes_survive_the_real_relaxation(self):
        # no node, the root included, is entered only to be refused, and
        # the children each node admits are consecutive, so the loop may
        # stop at the first refused child after an admitted one.  The
        # searches run as the program runs them, through _first_peel,
        # which tests the root: each resumes below the last hit, so every
        # height is walked once
        rng = random.Random(73)
        entered = 0
        for n in (3, 4, 6, 10):
            for s in walk_points(rng, n, 40, max_height=30):
                m = n - 1
                suffix_sq = [sum(v * v for v in s[i:m]) for i in range(m + 1)]
                top = s[-1]
                while top > 0:
                    got, nodes = walk_nodes(
                        soc._first_peel, s, False, top, walker=soc._peel_candidate
                    )
                    entered += len(nodes)
                    for i, sphere, ball in nodes:
                        assert not refuted(suffix_sq[i], sphere, ball), (s, top, i)
                        if i == m - 1:
                            continue
                        rs, rb = isqrt(sphere), isqrt(ball)
                        box = range(max(-rs, s[i] - rb), min(rs, s[i] + rb) + 1)
                        admitted = [
                            v
                            for v in box
                            if not refuted(
                                suffix_sq[i + 1], sphere - v * v, ball - (s[i] - v) ** 2
                            )
                        ]
                        if admitted:
                            assert admitted == list(
                                range(admitted[0], admitted[-1] + 1)
                            ), (s, top, i, sphere, ball)
                    top = 0 if got is None else got[-1] - 1
        assert entered > 1_000

    def test_first_peel_makes_the_root_test(self, monkeypatch):
        # _first_peel walks exactly the heights whose root the old root
        # test admitted, on points of T_n inside the cone and on its
        # boundary, so _peel_candidate need not test its root again
        heights = []
        monkeypatch.setattr(soc, "_peel_candidate", lambda s, h, _: heights.append(h))
        rng = random.Random(79)
        refused = walked = 0
        for n in range(3, 11):
            points = walk_points(rng, n, 60, max_height=60)
            while len(points) < 100:
                p = [rng.randint(-9, 9) for _ in range(n - 1)]
                r = isqrt(sum(v * v for v in p))
                if r * r == sum(v * v for v in p):
                    points.append(tuple(p) + (r,))
            for s in points:
                heights.clear()
                assert soc._first_peel(s, False) is None
                want = [h for h in range(s[-1], 0, -1) if not soc_root_refuted(s, h)]
                assert heights == want, s
                walked += len(want)
                refused += s[-1] - len(want)
        assert refused > 1_000 and walked > 1_000, (refused, walked)

    def test_walk_node_count(self):
        # a shorter cousin of the slow tall point (ROADMAP item 3): over
        # every height the unpruned walk enters 19,693 nodes, the walk
        # that tests each child in its parent's loop 2,427
        s = (8, -1, -3, 3, 2, 4, -3, -2, 20, 23)
        nodes = unpruned = 0
        for h in range(1, s[-1] + 1):
            got, walked = walk_nodes(soc._peel_candidate, s, h, True)
            want, entered = walk_nodes(soc_peel_candidate, s, h, True)
            assert got == want, h
            nodes += len(walked)
            unpruned += len(entered)
        assert unpruned == 19_693
        assert nodes <= 3_000

    @pytest.mark.parametrize("n", range(3, 11))
    def test_loop_walks_like_the_recursion(self, n):
        # the loop over suspended levels enters the nodes of the recursive
        # walk it replaced and tests the same children, in the same order,
        # at every height, and returns the same hit
        rng = random.Random(90 + n)
        points = walk_points(rng, n, 30, max_height=24)
        points += [s for s in STOP_RULE_PINS if len(s) == n]
        nodes = resumed = 0
        for s in points:
            for h in range(1, s[-1] + 1):
                for prim in (False, True):
                    got, events = walk_events(soc._peel_candidate, s, h, prim)
                    want, expected = walk_events(soc_recursive_peel_candidate, s, h, prim)
                    assert got == want, (s, h, prim)
                    assert events == expected, (s, h, prim)
                    entered = [e[1] for e in events if e[0] == "node"]
                    nodes += len(entered)
                    # a node no deeper than the one before follows a pop
                    resumed += sum(b <= a for a, b in zip(entered, entered[1:]))
        assert nodes > 300 and (resumed > 30 or n == 3), (nodes, resumed)


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

    def test_reads_entries_with_as_int(self):
        with pytest.raises(TypeError, match="true is not an integer"):
            descend((True, 0, True))
        with pytest.raises(TypeError, match="0.0 is not an integer"):
            descend((0.0, 0, 1))
        root, word = descend([3, 4, 5])
        assert (root, word) == ((1, 0, 1), ("P12", "AplusInv", "P12"))
        assert type(root) is tuple and all(type(v) is int for v in root)

    def test_reads_its_point_once(self, monkeypatch):
        # the sporadic test runs on the tuple already read, not through the
        # public is_sporadic_soc, which would read the point again
        calls = []
        read = soc._require_point
        monkeypatch.setattr(soc, "_require_point", lambda s: calls.append(s) or read(s))
        for s in ((0, 0, 1), (3, 4, 5), (2, 2, 3)):
            calls.clear()
            descend(s)
            assert len(calls) == 1, s

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

    def test_class_of_each_listed_root(self):
        # P Pythagorean, S sporadic, - neither: the two tall roots of
        # dimension 10 keep the Pythagorean peel (1, ..., 1, 3)
        want = {n: "PS" for n in range(3, 7)}
        want.update({7: "PSS", 8: "PSSS", 9: "PSSSSS", 10: "PPSSSS--"})
        for n, classes in want.items():
            got = "".join(
                "P" if is_pythagorean(r) else "S" if is_sporadic_soc(r) else "-"
                for r in roots(n)
            )
            assert got == classes, n

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

    def test_reads_entries_with_as_int(self):
        with pytest.raises(TypeError, match="true is not an integer"):
            decompose_soc((True, 0, True))
        with pytest.raises(TypeError, match="0.0 is not an integer"):
            decompose_soc((0.0, 0, 1))
        cert = decompose_soc([5, 6, 8])
        assert cert.terms == (
            (1, ("P12", "AplusInv", "P12"), (1, 0, 1)),
            (1, ("AplusInv",), (0, 0, 1)),
        )
        for _, _, root in cert.terms:
            assert type(root) is tuple and all(type(v) is int for v in root)
        assert cert.reconstruct() == (5, 6, 8)

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

    def test_certificates_keep_their_bytes(self):
        # sha256 of the to_json of 500 criterion-10 decompositions (n 3..10
        # in a fixed cycle, height <= 50), one JSON line each; any change
        # to the peel walk's order or first hit moves it
        rng = random.Random(2031)
        h = hashlib.sha256()
        for i in range(500):
            s = random_cone_point(rng, 3 + i % 8, 50)
            h.update(json.dumps(decompose_soc(s).to_json()).encode() + b"\n")
        assert h.hexdigest() == (
            "2ef6078ab81ee0415d917dd7e41e585975f8cd0b3160f2c041e8f16a1bbbb01c"
        )

    def test_matches_a_search_from_each_residual_height(self):
        # each later peel search starts at the last peel's height; the
        # certificates equal those of a search from the residual's height
        rng = random.Random(79)
        multi = 0
        for n in range(3, 11):
            for s in walk_points(rng, n, 130, max_height=40):
                cert = decompose_soc(s)
                assert cert == soc_decompose_from_each_height(s), s
                multi += len(cert.terms) > 2
        assert multi > 100
        for n in (9, 10):
            for s in walk_points(rng, n, 40, max_height=20):
                assert decompose_soc(s, minimal_roots=True) == (
                    soc_decompose_from_each_height(s, minimal_roots=True)
                ), s

    def test_descents_need_no_entry_checks(self, monkeypatch):
        # every peel and residual decompose_soc descends passes descend's
        # entry checks, and _descent gives it descend's root and word
        seen = set()
        descent = soc._descent

        def recorded(s):
            seen.add(s)
            return descent(s)

        monkeypatch.setattr(soc, "_descent", recorded)
        rng = random.Random(83)
        points = [
            random_cone_point(rng, n, 60) for n in range(3, 11) for _ in range(80)
        ]
        points += [
            tuple(k * v for v in r)
            for n in range(3, 11)
            for r in roots(n)
            for k in (1, 2, 7)
        ]
        points += tall_soc_points()
        for s in points:
            for minimal in (False, True):
                decompose_soc(s, minimal_roots=minimal)
        monkeypatch.undo()
        assert len(seen) > 500
        assert sum(lorentz_form(p, p) < 0 for p in seen) > 100
        assert any(s[-1] >= 60 for s in seen)
        for p in seen:
            assert descent(p) == descend(p), p

    def test_peel_searches_resume_at_the_last_peel(self, monkeypatch):
        # (16, 11, 20) peels (3, 4, 5), then (4, 3, 5) at the same height,
        # then (1, 0, 1).  Searching each residual from its own height
        # tries 42 candidate heights; resuming at the last peel tries 22
        calls = []
        walk = soc._peel_candidate

        def counted(s, h, primitive_only):
            calls.append(h)
            return walk(s, h, primitive_only)

        monkeypatch.setattr(soc, "_peel_candidate", counted)
        cert = decompose_soc((16, 11, 20))
        assert cert == soc_decompose_from_each_height((16, 11, 20))
        assert [lam for lam, _, _ in cert.terms] == [1, 1, 1, 1]
        assert len(calls) <= 25

    def test_minimal_mode_still_reconstructs(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.choice((9, 10))
            s = random_cone_point(rng, n, 20)
            cert = decompose_soc(s, minimal_roots=True)
            assert cert.reconstruct() == s
            for lam, word, root in cert.terms:
                assert root in roots(n, minimal=True)


def _most_multiple_cases(n, rng):
    """Seeded (res, y, top) with res and y in T_n of height at most 40 and
    1 <= top <= res_n // y_n: generic pairs, Pythagorean y, both on one
    boundary ray, res on or just above the ray of an interior y, and tops
    below the height ratio.  Points are drawn a coordinate at a time within the
    height's budget, Pythagorean tuples as random words on (1, 0, ..., 1)."""
    letters = list(soc._letters(n).values())

    def point(h):
        body, budget = [], h * h
        for _ in range(n - 1):
            r = isqrt(budget)
            body.append(rng.randint(-r, r))
            budget -= body[-1] ** 2
        rng.shuffle(body)
        return (*body, h)

    def pythagorean():
        while True:
            p = (1,) + (0,) * (n - 2) + (1,)
            for _ in range(rng.randint(0, 6)):
                p = rng.choice(letters)(p)
            if 0 < p[-1] <= 40:
                return p

    while True:
        kind = rng.randrange(4)
        if kind == 0:
            res, y = point(rng.randint(1, 40)), point(rng.randint(1, 12))
        elif kind == 1:
            res, y = point(rng.randint(1, 40)), pythagorean()
        elif kind == 2:
            p, k = pythagorean(), rng.randint(1, 3)
            res, y = tuple(3 * v for v in p), tuple(k * v for v in p)
        else:
            # on the ray, or lifted off it by a few units of height
            y, k = point(rng.randint(1, 8)), rng.randint(1, 5)
            res = tuple(k * v for v in y[:-1]) + (k * y[-1] + rng.choice((0, 0, 3)),)
        ratio = res[-1] // y[-1]
        if ratio >= 1:
            yield res, y, rng.randint(1, ratio)


def _check_most_multiple(res, y, top):
    """soc._most_multiple against the bisection it replaced and against
    in_cone on every multiple up to top; its answer."""
    ss, yy = lorentz_form(res, res), lorentz_form(y, y)
    got = soc._most_multiple(res, ss, y, yy, top)
    assert got == lorentz_multiple(None, res, ss, y, yy, top), (res, y, top)
    for k in range(1, top + 1):
        inside = in_cone(tuple(a - k * b for a, b in zip(res, y)))
        assert inside == (k <= got), (res, y, top, k)
    return got


class TestMostMultiple:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_matches_the_bisection_and_a_scan(self, n):
        # every branch taken in every dimension
        rng = random.Random(f"most-multiple/{n}")
        branches = set()
        cases = _most_multiple_cases(n, rng)
        for _ in range(1500):
            res, y, top = next(cases)
            got = _check_most_multiple(res, y, top)
            ss, yy, c = lorentz_form(res, res), lorentz_form(y, y), lorentz_form(res, y)
            if ss - 2 * c + yy > 0:
                branches.add("refused")
            elif c >= 0:
                branches.add("c >= 0")
            elif yy == 0:
                branches.add("yy = 0")
            elif c * c == yy * ss:
                branches.add("zero discriminant")
            elif got == top < (c + isqrt(c * c - yy * ss - 1) + 1) // yy:
                branches.add("capped by top")
        assert len(branches) == 5, branches

    @pytest.mark.parametrize(
        "res, y, top, want",
        [
            ((1, 0, 10), (0, 0, 1), 10, 9),  # discriminant 1, smaller root 9
            ((2, 0, 10), (0, 0, 1), 10, 8),  # discriminant 4, a root exactly
            ((0, 0, 6), (0, 0, 2), 3, 3),  # zero discriminant, on the ray
            ((3, 4, 5), (3, 4, 5), 1, 1),  # c = 0, both on one boundary ray
            ((3, 0, 5), (3, 4, 5), 1, 0),  # refused at 1
        ],
    )
    def test_boundary_cases(self, res, y, top, want):
        assert _check_most_multiple(res, y, top) == want


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

    @pytest.mark.parametrize("max_height", [True, 2.5, 2.0])
    def test_rejects_a_non_integer_height(self, max_height):
        # read with linalg.as_int: True is not height 1, nor 2.5 a cap of 2
        with pytest.raises(TypeError, match="is not an integer"):
            pythagorean_orbit(3, max_height)

    def test_sorted_by_height_then_lex(self):
        pts = pythagorean_orbit(4, 6)
        assert pts == sorted(pts, key=lambda p: (p[-1], p))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=3, max_value=8), st.randoms(use_true_random=False))
def test_word_action_preserves_cone(n, rnd):
    labels = tuple(soc._letters(n))
    word = tuple(rnd.choice(labels) for _ in range(rnd.randint(0, 5)))
    s = random_cone_point(rnd, n, 10)
    moved = apply_word(word, s)
    assert in_cone(moved)
    assert lorentz_form(moved, moved) == lorentz_form(s, s)
