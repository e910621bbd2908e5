"""Tests for cut generation and the minimal-decomposition search."""

import dataclasses
import random
import tracemalloc
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    congruence_walk,
    dense_generators,
    gl_letters,
    tuple_icr_search,
    uncached_icr_search,
    uncached_walk,
)
from intcone import cuts, linalg, psd, soc
from intcone.cuts import CGCut, GeneratorStream, IcrResult, LCISystem

E11_2 = ((1, 0), (0, 0))
I2 = ((1, 0), (0, 1))
E11_3 = ((1, 0, 0), (0, 0, 0), (0, 0, 0))
I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# the (cone, n, word_cap) streams the cuts-icr benchmark workload searches
ICR_KEYS = [("soc", 3, 6), ("soc", 4, 4), ("soc", 5, 3), ("psd", 2, 3), ("psd", 3, 2)]


def soc_system():
    return LCISystem(cone="soc", n=3, c=(0, 0, 1), a=((1, 0, 0),))


class TestLCISystem:
    def test_shapes(self):
        sys = soc_system()
        assert sys.m == 1
        assert cuts.cone_record(sys.cone, sys.n).ambient_dim == 3

    def test_psd_ambient_dim_counts_upper_triangle(self):
        sys = LCISystem(cone="psd", n=3, c=I3, a=(E11_3,))
        assert cuts.cone_record(sys.cone, sys.n).ambient_dim == 6

    def test_slack_soc(self):
        sys = LCISystem(cone="soc", n=3, c=(0, 0, 5), a=((1, 0, 0), (0, 1, 1)))
        assert sys._slack((2, 3)) == (-2, -3, 2)

    def test_slack_psd(self):
        sys = LCISystem(cone="psd", n=2, c=I2, a=(E11_2,))
        assert sys._slack((3,)) == (-2, 0, 0, 1)

    def test_feasibility(self):
        sys = soc_system()
        assert sys.is_feasible((1,))
        assert sys.is_feasible((-1,))
        assert not sys.is_feasible((2,))

    def test_feasibility_is_membership_of_the_slack(self):
        rng = random.Random(53)
        for sys in (soc_system(), LCISystem(cone="psd", n=2, c=I2, a=(E11_2,))):
            rec = cuts.cone_record(sys.cone, sys.n)
            for _ in range(50):
                x = tuple(rng.randint(-3, 3) for _ in range(sys.m))
                assert sys.is_feasible(x) == rec.member(sys._slack(x))
            for read in (sys._slack, sys.is_feasible):
                with pytest.raises(TypeError, match="is not an integer"):
                    read((1.0,))

    def test_rejects_bad_cone_tag(self):
        with pytest.raises(ValueError):
            LCISystem(cone="exp", n=3, c=(0, 0, 1), a=())

    def test_rejects_asymmetric_matrix(self):
        bad = ((0, 1), (0, 0))
        with pytest.raises(ValueError):
            LCISystem(cone="psd", n=2, c=bad, a=())

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            LCISystem(cone="soc", n=3, c=(0, 0, 1, 0), a=())
        with pytest.raises(ValueError):
            soc_system()._slack((1, 2))

    def test_json_roundtrip(self):
        for sys in (soc_system(), LCISystem(cone="psd", n=2, c=I2, a=(E11_2,))):
            blob = sys.to_json()
            assert set(blob) == {"cone", "n", "c", "A"}
            back = LCISystem.from_json(blob)
            assert back.cone == sys.cone and back.c == sys.c and back.a == sys.a

    def test_a_float_dimension_leaves_later_streams_working(self):
        # a float n must not reach soc.roots through the record cache the
        # int uses, where it would break every later int stream
        with pytest.raises(TypeError, match="is not an integer"):
            LCISystem(cone="soc", n=3.0, c=(0, 0, 1), a=((1, 0, 0),))
        assert any(GeneratorStream(cone="soc", n=3, word_cap=1))
        assert any(GeneratorStream(cone="psd", n=2, word_cap=1))
        with pytest.raises(TypeError, match="is not an integer"):
            GeneratorStream(cone="psd", n=2.0, word_cap=1)


# (entry on a dimension, its lru cache or None, a valid dimension)
DIMENSION_ENTRIES = {
    "cone_record-soc": (lambda n: cuts.cone_record("soc", n), cuts.cone_record, 4),
    "cone_record-psd": (lambda n: cuts.cone_record("psd", n), cuts.cone_record, 2),
    "soc._letters": (soc._letters, soc._letters, 3),
    "soc.roots": (soc.roots, soc.roots, 3),
    "soc.generator_matrix": (lambda n: soc.generator_matrix("Q1", n), soc.generator_matrix, 3),
    "psd.sporadic_det_bound": (psd.sporadic_det_bound, None, 6),
    "psd.sporadic_catalog": (psd.sporadic_catalog, None, 6),
}


@pytest.mark.parametrize("name", DIMENSION_ENTRIES)
def test_a_non_int_dimension_is_refused_before_and_after_the_int(name):
    # a cache keyed on a float or bool must not answer for the int it equals
    entry, cache, n = DIMENSION_ENTRIES[name]
    for bad in (float(n), True):
        if cache is not None:
            cache.cache_clear()
        with pytest.raises(TypeError, match="is not an integer"):
            entry(bad)
        want = entry(n)
        try:
            entry(int(bad))  # True equals 1, outside some entries' range
        except ValueError:
            pass
        with pytest.raises(TypeError, match="is not an integer"):
            entry(bad)
        assert entry(n) == want


class TestFrozenRecords:
    def test_assigning_any_field_raises(self):
        records = (
            soc_system(),
            LCISystem(cone="psd", n=2, c=I2, a=(E11_2,)),
            GeneratorStream(cone="soc", n=3, word_cap=1),
            GeneratorStream(cone="psd", n=2, word_cap=1, cap=4),
        )
        for record in records:
            for field in dataclasses.fields(record):
                before = getattr(record, field.name)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, field.name, before)
                assert getattr(record, field.name) == before

    @pytest.mark.parametrize("cone, n", [("psd", 2), ("soc", 3)])
    def test_shared_generator_table_is_read_only(self, cone, n):
        table = cuts.cone_record(cone, n).generators
        label = next(iter(table))
        with pytest.raises(TypeError):
            table[label] = table[label]
        with pytest.raises(TypeError):
            table["extra"] = table[label]

    def test_a_negative_word_cap_cannot_be_assigned(self):
        # the walk would never reach a word of length -1
        gen = GeneratorStream(cone="soc", n=3, word_cap=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            gen.word_cap = -1
        assert list(gen) == list(GeneratorStream(cone="soc", n=3, word_cap=1))

    def test_cuts_follow_the_system_as_written(self):
        # a reassigned c would leave the flat copy the cuts read stale
        sys = soc_system()
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.c = (0, 0, 5)
        reloaded = LCISystem.from_json(sys.to_json())
        for cut in cuts.cg_cuts(sys, GeneratorStream(cone="soc", n=3, word_cap=1)):
            assert cuts.check_cut(reloaded, cut) is None


class TestLetters:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_psd_letters_are_the_dense_kronecker_squares(self, n):
        rec = cuts.cone_record("psd", n)
        dense = dense_generators(rec)
        assert tuple(rec.generators) == tuple(dense) == tuple(psd.gl_generators(n))
        rng = random.Random(f"psd-letters/{n}")
        for label, g in rec.generators.items():
            assert g.size == n * n
            for _ in range(20):
                y = tuple(rng.randint(-9, 9) for _ in range(n * n))
                assert g(y) == linalg.mat_vec(dense[label], y), (label, n)

    def test_psd_letters_act_by_congruence(self):
        # X -> g X g^T on the native matrix, for a symmetric X
        x = ((2, 1, 0), (1, 3, -1), (0, -1, 4))
        for label, g in psd.gl_generators(3).items():
            want = linalg.mat_mul(linalg.mat_mul(g, x), linalg.transpose(g))
            assert cuts.apply_group_word("psd", 3, (label,), x) == want, label

    def test_soc_letters_are_the_soc_alphabet(self):
        for n in range(3, 11):
            assert cuts.cone_record("soc", n).generators is soc._letters(n)

    def test_large_psd_record_builds_no_kronecker_square(self, monkeypatch):
        # dense Kronecker squares of n = 30 took 32.7 MB (n^4 entries each)
        cuts.cone_record.cache_clear()
        monkeypatch.setattr(cuts, "_streams", cuts._StreamCache())
        tracemalloc.start()
        try:
            cuts.cone_record("psd", 30)
            walk = list(GeneratorStream(cone="psd", n=30, word_cap=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(walk) > 1
        assert peak < 4_000_000, peak

    def test_psd_record_builds_nothing_of_size_n_squared(self, monkeypatch):
        # at n = 800 the record's n^2 weight vector, default root and five
        # Kronecker letters took over 3 s and 400 MB before an element's
        # shape was checked; a record of any n now refuses one at once
        def refuse(_):
            raise AssertionError("built a congruence letter")

        n = 2000
        cuts.cone_record.cache_clear()
        monkeypatch.setattr(cuts, "_congruence", refuse)
        tracemalloc.start()
        try:
            rec = cuts.cone_record("psd", n)
            with pytest.raises(ValueError, match="matrix element has the wrong shape"):
                rec.flatten([[1]])
            with pytest.raises(ValueError, match="matrix element has the wrong shape"):
                LCISystem(cone="psd", n=n, c=((1,),), a=())
            gen = GeneratorStream(cone="psd", n=n, word_cap=2)
            with pytest.raises(ValueError, match="matrix element has the wrong shape"):
                cuts.icr_search(((1,),), gen, cap=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            cuts.cone_record.cache_clear()
        assert gen.roots[0][0][0] == 1 and len(gen.roots[0]) == n
        assert peak < 500_000, peak


class TestCGCutJson:
    def test_vector_root(self):
        cut = CGCut(u=(1, 2), rhs=3, root=(1, 0, 1), word=("Aplus",))
        assert CGCut.from_json(cut.to_json()) == cut

    def test_matrix_root(self):
        cut = CGCut(u=(0,), rhs=1, root=E11_2, word=("swap", "shift"))
        back = CGCut.from_json(cut.to_json())
        assert back == cut
        assert back.root == E11_2


class TestGeneratorStream:
    def test_word_cap_zero_emits_roots_in_order(self):
        gen = GeneratorStream(cone="soc", n=3, word_cap=0)
        out = list(gen)
        assert [e for e, _, _ in out] == list(soc.roots(3))
        assert all(w == () for _, _, w in out)

    def test_default_psd_roots(self):
        assert GeneratorStream(cone="psd", n=2, word_cap=0).roots == (E11_2,)
        six = GeneratorStream(cone="psd", n=6, word_cap=0).roots
        assert six == (
            tuple(
                tuple(1 if i == 0 and j == 0 else 0 for j in range(6))
                for i in range(6)
            ),
        ) + psd.sporadic_catalog(6)

    def test_elements_are_unique_and_shortest_word_wins(self):
        gen = GeneratorStream(cone="soc", n=3, word_cap=1)
        out = list(gen)
        elems = [e for e, _, _ in out]
        assert len(elems) == len(set(elems))
        # Q1 also maps (1,0,1) there, but Aplus comes first in label order
        words = {e: (r, w) for e, r, w in out}
        assert words[(-1, 0, 1)] == ((1, 0, 1), ("Aplus",))

    @pytest.mark.parametrize("n", [2, 3])
    def test_psd_walk_matches_explicit_congruences(self, n):
        e11 = tuple(tuple(int(i == j == 0) for j in range(n)) for i in range(n))
        expected = congruence_walk((e11,), gl_letters(n), word_cap=2)
        assert list(GeneratorStream(cone="psd", n=n, word_cap=2)) == expected

    def test_replay_matches_emission(self):
        for cone, n, cap in (("soc", 4, 2), ("psd", 2, 2)):
            for y, root, word in GeneratorStream(cone=cone, n=n, word_cap=cap):
                assert cuts.apply_group_word(cone, n, word, root) == y

    def test_replay_rejects_unknown_labels_and_dimensions(self):
        e11 = ((1, 0), (0, 0))
        with pytest.raises(ValueError, match="unknown generator label 'Q1'"):
            cuts.apply_group_word("psd", 2, ("shift", "Q1"), e11)
        with pytest.raises(ValueError):
            cuts.apply_group_word("psd", 1, ("shift",), ((1,),))

    def test_emissions_stay_in_the_cone(self):
        for y, _, _ in GeneratorStream(cone="soc", n=5, word_cap=2):
            assert soc.in_cone(y)
        for y, _, _ in GeneratorStream(cone="psd", n=3, word_cap=2):
            assert linalg.is_psd_exact(y)

    def test_height_cap_filters_emissions(self):
        gen = GeneratorStream(cone="soc", n=3, word_cap=3, cap=5)
        heights = [y[-1] for y, _, _ in gen]
        assert heights and max(heights) <= 5

    def test_iteration_is_repeatable(self):
        gen = GeneratorStream(cone="soc", n=3, word_cap=2)
        first = list(gen)
        entry = cuts._streams.entries[("soc", 3, 2, gen.roots)]
        assert list(gen) == first
        assert cuts._streams.entries[("soc", 3, 2, gen.roots)] is entry

    def test_rejects_zero_root(self):
        with pytest.raises(ValueError, match="nonzero"):
            GeneratorStream(cone="soc", n=3, word_cap=0, roots=((0, 0, 0),))
        with pytest.raises(ValueError, match="nonzero"):
            GeneratorStream(
                cone="psd", n=2, word_cap=0, roots=(((0, 0), (0, 0)),)
            )

    @pytest.mark.parametrize(
        "cone, root",
        [("soc", (5, 0, 0)), ("psd", ((1, 2), (2, 1)))],
        ids=["soc", "psd"],
    )
    def test_rejects_root_outside_the_cone(self, cone, root):
        # its cuts are not valid, and verify rejects them
        with pytest.raises(ValueError, match="lie in the cone"):
            GeneratorStream(cone=cone, n=len(root), word_cap=0, roots=(root,))

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            GeneratorStream(cone="soc", n=3, word_cap=-1)
        with pytest.raises(ValueError):
            GeneratorStream(cone="nope", n=3, word_cap=0)
        with pytest.raises(ValueError, match="cap must be nonnegative"):
            GeneratorStream(cone="soc", n=3, word_cap=2, cap=-1)
        assert list(GeneratorStream(cone="soc", n=3, word_cap=2, cap=0)) == []

    @pytest.mark.parametrize(
        "caps",
        [
            {"word_cap": 1.5},
            {"word_cap": True},
            {"word_cap": "2"},
            {"word_cap": 2, "cap": 2.0},
        ],
    )
    def test_rejects_a_cap_that_is_not_an_int(self, caps):
        # never coerced: no word length would ever equal a word_cap of 1.5,
        # so its walk would not end
        with pytest.raises(TypeError, match="is not an integer"):
            GeneratorStream(cone="soc", n=3, **caps)

    def test_repeated_root_is_emitted_once(self):
        once = list(GeneratorStream(cone="soc", n=3, word_cap=1, roots=((1, 0, 1),)))
        twice = GeneratorStream(
            cone="soc", n=3, word_cap=1, roots=((1, 0, 1), (1, 0, 1))
        )
        assert list(twice) == once
        spelled = GeneratorStream(
            cone="psd", n=2, word_cap=1, roots=(((1, 1), (1, 1)), [[1, 1], [1, 1]])
        )
        assert list(spelled) == list(
            GeneratorStream(cone="psd", n=2, word_cap=1, roots=(((1, 1), (1, 1)),))
        )

    def test_equal_streams_walk_once(self, monkeypatch):
        calls = []
        walk = cuts._walk

        def counted(*key):
            calls.append(key)
            return walk(*key)

        monkeypatch.setattr(cuts, "_walk", counted)
        monkeypatch.setattr(cuts, "_streams", cuts._StreamCache())
        first = list(GeneratorStream(cone="soc", n=3, word_cap=3))
        assert calls
        calls.clear()
        gen = GeneratorStream(cone="soc", n=3, word_cap=3)
        assert list(gen) == first
        assert calls == []
        for cone, n, word_cap in ICR_KEYS:
            gen = GeneratorStream(cone=cone, n=n, word_cap=word_cap)
            s = gen.roots[-1]
            cuts.icr_search(s, gen, cap=4)
            calls.clear()
            again = GeneratorStream(cone=cone, n=n, word_cap=word_cap)
            assert cuts.icr_search(s, again, cap=4) == cuts.icr_search(s, gen, cap=4)
            assert list(again) and calls == []

    def test_cache_is_bounded_by_held_elements(self, monkeypatch):
        calls = []
        walk = cuts._walk

        def counted(*key):
            calls.append(key)
            return walk(*key)

        def stream(word_cap):
            return GeneratorStream(cone="soc", n=3, word_cap=word_cap)

        def cached():
            return [key[2] for key in cuts._streams.entries]

        monkeypatch.setattr(cuts, "_walk", counted)
        monkeypatch.setattr(cuts, "_MAX_HELD", 25)  # walks of 2, 7, 17 and 37
        monkeypatch.setattr(cuts, "_streams", cuts._StreamCache())
        one, two = list(stream(1)), list(stream(2))
        assert cached() == [1, 2] and cuts._streams.held == 24
        calls.clear()
        assert list(stream(1)) == one and calls == []
        assert cached() == [2, 1]
        assert cuts.icr_search((1, 1, 2), stream(0), cap=4).status == "infeasible"
        assert cached() == [1, 0] and cuts._streams.held == 9  # 2 went first
        three = list(stream(3))
        assert three == uncached_walk(cuts.cone_record("soc", 3), soc.roots(3), 3)
        assert cached() == [1, 0] and cuts._streams.held == 9  # 37 is never kept
        assert list(stream(2)) == two
        assert cached() == [0, 2] and cuts._streams.held == 19  # 1 went first

    def test_oversized_walk_leaves_the_held_walks(self, monkeypatch):
        # a walk of 37 elements, past a bound of 25, is built for its caller
        # and neither enters the cache nor pushes a held walk out
        calls = []
        walk = cuts._walk

        def counted(*key):
            calls.append(key[2])
            return walk(*key)

        def stream(word_cap):
            return GeneratorStream(cone="soc", n=3, word_cap=word_cap)

        monkeypatch.setattr(cuts, "_walk", counted)
        monkeypatch.setattr(cuts, "_MAX_HELD", 25)
        monkeypatch.setattr(cuts, "_streams", cuts._StreamCache())
        one, two = list(stream(1)), list(stream(2))
        for _ in range(2):
            assert len(list(stream(3))) == 37
            assert cuts.icr_search((1, 1, 2), stream(3), cap=4).status == "ok"
        assert [key[2] for key in cuts._streams.entries] == [1, 2]
        assert cuts._streams.held == 24
        assert calls == [1, 2, 3, 3, 3, 3]
        assert list(stream(1)) == one and list(stream(2)) == two
        assert calls == [1, 2, 3, 3, 3, 3]


def spy_admissions(monkeypatch):
    """The admission tests of every icr_search from here on, as (residual,
    candidate, top multiplicity): the cone records that cuts hands out,
    and so the streams built after this call, carry a `most` that records
    its arguments before it answers."""
    tested = []
    record = cuts.cone_record

    def spied(name, n):
        rec = record(name, n)

        def recording(res, rn, y, yn, top):
            tested.append((res, y, top))
            return rec.most(res, rn, y, yn, top)

        return dataclasses.replace(rec, most=recording)

    monkeypatch.setattr(cuts, "cone_record", spied)
    return tested


def outer_product_sum(rng, n):
    """A sum of 1..n outer products of {-1, 0, 1} vectors."""
    x = [[0] * n for _ in range(n)]
    for _ in range(rng.randint(1, n)):
        v = [rng.randint(-1, 1) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                x[i][j] += v[i] * v[j]
    return tuple(map(tuple, x))


def seeded_points(cone, n, count, seed):
    """`count` nonzero cone elements: SOC points of height at most 8, PSD
    sums of 1..n outer products of {-1, 0, 1} vectors."""
    rng = random.Random(f"{cone}/{n}/{seed}")
    out = []
    while len(out) < count:
        if cone == "soc":
            s = tuple(rng.randint(-6, 6) for _ in range(n - 1)) + (rng.randint(1, 8),)
            if soc.in_cone(s):
                out.append(s)
            continue
        x = outer_product_sum(rng, n)
        if any(x[i][i] for i in range(n)):
            out.append(x)
    return out


def workload_points(cone, n, count, seed):
    """`count` elements drawn as the cuts-icr benchmark draws them: SOC
    points of height 1..8, each coordinate drawn within what the height
    leaves and then shuffled; PSD sums of 1..n outer products of
    {-1, 0, 1} vectors with trace 1..6."""
    rng = random.Random(f"workload/{cone}/{n}/{seed}")
    out = []
    while len(out) < count:
        if cone == "soc":
            h = rng.randint(1, 8)
            budget, body = h * h, []
            for _ in range(n - 1):
                body.append(rng.randint(-isqrt(budget), isqrt(budget)))
                budget -= body[-1] ** 2
            rng.shuffle(body)
            out.append(tuple(body) + (h,))
            continue
        x = outer_product_sum(rng, n)
        if 0 < sum(x[i][i] for i in range(n)) <= 6:
            out.append(x)
    return out


@st.composite
def soc_points(draw, n=3, max_height=6):
    """A nonzero integer point of T_n below a height."""
    h = draw(st.integers(1, max_height))
    body = []
    for _ in range(n - 1):
        r = isqrt(h * h - sum(v * v for v in body))
        body.append(draw(st.integers(-r, r)))
    return tuple(body) + (h,)


def soc_roots():
    """Small T_3 points, some scaled by 2 or 3 (so some are parallel)."""
    return st.tuples(soc_points(max_height=4), st.integers(1, 3)).map(
        lambda pf: tuple(pf[1] * v for v in pf[0])
    )


class TestAgainstTheUncachedStream:
    """The cached walk and icr_search's candidate view against copies of
    the uncached code they replaced."""

    @pytest.mark.parametrize("stream_cap", [None, 3], ids=["uncapped", "cap3"])
    @pytest.mark.parametrize("key", ICR_KEYS, ids=lambda k: "%s%d-w%d" % k)
    def test_walk(self, key, stream_cap):
        cone, n, word_cap = key
        gen = GeneratorStream(cone=cone, n=n, word_cap=word_cap, cap=stream_cap)
        expected = uncached_walk(gen._cone, gen.roots, word_cap, stream_cap)
        assert list(gen) == expected

    @pytest.mark.parametrize("stream_cap", [None, 4], ids=["uncapped", "cap4"])
    @pytest.mark.parametrize(
        "cone, roots",
        [
            ("soc", ((0, 0, 1), (3, 4, 5), (1, 0, 1))),
            ("soc", ((0, 3, 5), (0, 0, 2))),
            ("psd", (((2, 1), (1, 1)), ((1, 0), (0, 0)))),
            ("psd", (((1, 1, 0), (1, 1, 0), (0, 0, 0)), I3)),
        ],
        ids=["soc3", "soc3-multiple", "psd2", "psd3"],
    )
    def test_walk_from_custom_roots(self, cone, roots, stream_cap):
        n = len(roots[0])
        gen = GeneratorStream(cone=cone, n=n, word_cap=3, roots=roots, cap=stream_cap)
        assert list(gen) == uncached_walk(gen._cone, gen.roots, 3, stream_cap)

    @pytest.mark.parametrize("repeat", [False, True], ids=["roots", "repeated-root"])
    @pytest.mark.parametrize("key", ICR_KEYS, ids=lambda k: "%s%d-w%d" % k)
    def test_icr_search(self, key, repeat):
        cone, n, word_cap = key
        rec = cuts.cone_record(cone, n)
        roots = rec.roots + rec.roots[:1] if repeat else rec.roots
        cap = 2 * n - 2 if cone == "soc" else n * (n + 1) - 2
        for stream_cap in (None, 3):
            gen = GeneratorStream(
                cone=cone, n=n, word_cap=word_cap, roots=roots, cap=stream_cap
            )
            for s in seeded_points(cone, n, 8, repeat):
                for c in (cap, 1):
                    got = cuts.icr_search(s, gen, cap=c)
                    want = uncached_icr_search(
                        s, rec, gen.roots, word_cap, stream_cap, c
                    )
                    assert (got.status, got.count, got.terms) == want, s

    @pytest.mark.parametrize(
        "key", [("soc", 5, 3), ("soc", 4, 4), ("psd", 3, 2)], ids=lambda k: "%s%d-w%d" % k
    )
    def test_icr_search_on_the_workload_mix(self, key):
        # the benchmark's draws end infeasible or exceeded far more often
        # than seeded_points', so they reach the dead residuals that
        # icr_search carries from one deepening round to the next
        cone, n, word_cap = key
        gen = GeneratorStream(cone=cone, n=n, word_cap=word_cap)
        cap = 2 * n - 2 if cone == "soc" else n * (n + 1) - 2
        seen = []
        for s in workload_points(cone, n, 60, "mix"):
            for c in (cap, 3, 2, 1):
                got = cuts.icr_search(s, gen, cap=c)
                want = uncached_icr_search(s, gen._cone, gen.roots, word_cap, None, c)
                assert (got.status, got.count, got.terms) == want, (s, c)
                seen.append((got.status, got.count))
        assert any(status == "infeasible" for status, _ in seen)
        assert any(status == "exceeded" for status, _ in seen)
        # an ok sum of three or more terms is met only after rounds that
        # the depth bound cut off
        assert any(status == "ok" and count >= 3 for status, count in seen)

    @pytest.mark.parametrize("stream_cap", [None, 4], ids=["uncapped", "cap4"])
    @pytest.mark.parametrize(
        "cone, roots",
        [
            ("soc", ((0, 3, 5), (0, 0, 2))),
            ("soc", ((0, 0, 2), (3, 4, 5), (6, 8, 10), (0, 0, 1))),
            ("soc", ((2, 0, 2), (-3, 4, 5), (1, 1, 2))),
            ("psd", (((1, 1), (1, 1)), ((2, 2), (2, 2)), ((1, 0), (0, 0)))),
            ("psd", (((2, 0, 0), (0, 0, 0), (0, 0, 0)), ((1, 1, 0), (1, 1, 0), (0, 0, 0)))),
        ],
        ids=["soc-multiple", "soc-parallel", "soc-scaled", "psd2-doubled", "psd3-scaled"],
    )
    def test_icr_search_from_custom_roots(self, cone, roots, stream_cap):
        n = len(roots[0])
        cap = 2 * n - 2 if cone == "soc" else n * (n + 1) - 2
        for word_cap in (0, 2):
            gen = GeneratorStream(
                cone=cone, n=n, word_cap=word_cap, roots=roots, cap=stream_cap
            )
            for s in seeded_points(cone, n, 8, "custom"):
                for c in (cap, 2, 1):
                    got = cuts.icr_search(s, gen, cap=c)
                    want = uncached_icr_search(
                        s, gen._cone, gen.roots, word_cap, stream_cap, c
                    )
                    assert (got.status, got.count, got.terms) == want, s

    def test_repeated_root_is_searched_once(self):
        # the oracle took the repeat as a second candidate and said exceeded
        root = ((1, 1), (1, 1))
        gen = GeneratorStream(cone="psd", n=2, word_cap=1, roots=(root, root), cap=6)
        assert gen.roots == (root,)
        s = ((2, -1), (-1, 1))
        got = cuts.icr_search(s, gen, cap=2)
        want = uncached_icr_search(s, gen._cone, gen.roots, 1, 6, 2)
        assert (got.status, got.count, got.terms) == want == ("infeasible", None, ())

    @given(
        roots=st.lists(soc_roots(), min_size=1, max_size=4, unique=True),
        s=soc_points(max_height=8),
        word_cap=st.integers(0, 2),
        stream_cap=st.sampled_from([None, 6]),
        cap=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=150, deadline=None)
    def test_icr_search_on_random_soc_roots(self, roots, s, word_cap, stream_cap, cap):
        gen = GeneratorStream(
            cone="soc", n=3, word_cap=word_cap, roots=tuple(roots), cap=stream_cap
        )
        got = cuts.icr_search(s, gen, cap=cap)
        want = uncached_icr_search(s, gen._cone, gen.roots, word_cap, stream_cap, cap)
        assert (got.status, got.count, got.terms) == want


class TestAgainstTheTupleSearch:
    """icr_search against a copy of itself from before the cone record
    chose the admission test, when every candidate was admitted by
    building the residual and testing its membership."""

    def test_icr_search_on_the_workload_keys(self):
        seen = set()
        for cone, n, word_cap in ICR_KEYS:
            cap = 2 * n - 2 if cone == "soc" else n * (n + 1) - 2
            for stream_cap in (None, 3):
                gen = GeneratorStream(cone=cone, n=n, word_cap=word_cap, cap=stream_cap)
                for s in workload_points(cone, n, 40, "tuple"):
                    for c in (cap, 2, 1):
                        got = cuts.icr_search(s, gen, cap=c)
                        want = tuple_icr_search(s, gen, c)
                        assert (got.status, got.count, got.terms) == want, (s, c)
                        seen.add((cone, n, got.status))
        assert {status for _, _, status in seen} == {"ok", "infeasible", "exceeded"}
        assert {(cone, n) for cone, n, status in seen if status == "ok"} == {
            key[:2] for key in ICR_KEYS
        }


@st.composite
def form_cases(draw):
    """(res, y): y an element of the SOC stream of word cap 2 in dimension
    3, 5, 7 or 9, and res = p + m y for a point p of T_n and m in 1..3, so
    that y is no heavier than res."""
    n = draw(st.sampled_from([3, 5, 7, 9]))
    walk = GeneratorStream(cone="soc", n=n, word_cap=2)._cached()[0]
    y = draw(st.sampled_from([y for y, _, _, _ in walk]))
    p = draw(soc_points(n=n, max_height=10))
    m = draw(st.integers(1, 3))
    return tuple(a + m * b for a, b in zip(p, y)), y


class TestLorentzAdmission:
    """The SOC record admits candidates on the Lorentz form; that must agree
    with soc.in_cone on every residual it no longer builds."""

    @given(case=form_cases())
    @example(case=((3, 4, 9), (0, 0, 1)))  # B(y, y) = -1
    @example(case=((2, 2, 2, 2, 2, 1, 7), (1, 1, 1, 1, 1, 1, 3)))  # -3
    @example(case=((1, 2, 1, 2, 1, 2, 1, 1, 13), (2, 2, 2, 2, 2, 2, 2, 1, 6)))  # -7
    @example(case=((4, 0, 0, 4), (1, 0, 0, 1)))  # 0, on the boundary
    @settings(max_examples=300, deadline=None)
    def test_form_agrees_with_membership(self, case):
        res, y = case
        rec = cuts.cone_record("soc", len(y))
        top = res[-1] // y[-1]
        largest = rec.most(res, rec.norm(res), y, rec.norm(y), top)
        assert 0 <= largest <= top
        for lam in range(1, top + 1):
            inside = soc.in_cone(tuple(a - lam * b for a, b in zip(res, y)))
            assert inside == (lam <= largest), lam

    @pytest.mark.parametrize("n", range(3, 11))
    def test_view_carries_each_roots_form(self, n):
        # every generator preserves B, so each element's B(y, y) is its
        # root's: -1 for e_last, -3 for (1, ..., 1, 3) in dimension 7, -7
        # for (2, ..., 2, 1, 6) in dimension 9
        gen = GeneratorStream(cone="soc", n=n, word_cap=2)
        walk, (ys, _, norms, _) = gen._cached()
        root_of = {y: root for y, _, root, _ in walk}
        assert len(ys) == len(norms) == len(walk)
        for y, yy in zip(ys, norms):
            assert yy == soc.lorentz_form(y, y) == soc.lorentz_form(*[root_of[y]] * 2)
        forms = {soc.lorentz_form(r, r) for r in soc.roots(n)}
        assert -1 in forms and (n != 7 or -3 in forms) and (n != 9 or -7 in forms)

    def test_psd_admits_by_membership(self, monkeypatch):
        # the SOC record holds the closed form itself, with no adapter; the
        # PSD record bisects with membership tests on its own record
        assert cuts.cone_record("soc", 5).most is soc._most_multiple
        gen = GeneratorStream(cone="psd", n=3, word_cap=2)
        _, (ys, _, norms, _) = gen._cached()
        assert norms == (None,) * len(ys)
        tested = []
        member = cuts.in_semigroup

        def counted(cone, y):
            tested.append(cone)
            return member(cone, y)

        monkeypatch.setattr(cuts, "in_semigroup", counted)
        res, y = (3, 1, 0, 1, 3, 0, 0, 0, 1), (1, 0, 0, 0, 1, 0, 0, 0, 0)
        assert gen._cone.most(res, None, y, None, 3) == 2
        assert tested and all(cone is gen._cone for cone in tested)


class TestCgCuts:
    def test_soc_unit_bound_cut(self):
        gen = GeneratorStream(
            cone="soc", n=3, word_cap=0, roots=((1, 0, 1), (0, 0, 1))
        )
        got = cuts.cg_cuts(soc_system(), gen)
        assert got[0] == CGCut(u=(1,), rhs=1, root=(1, 0, 1), word=())
        assert got[1] == CGCut(u=(0,), rhs=1, root=(0, 0, 1), word=())

    def test_psd_unit_bound_cut(self):
        sys = LCISystem(cone="psd", n=2, c=I2, a=(E11_2,))
        gen = GeneratorStream(cone="psd", n=2, word_cap=0)
        (cut,) = cuts.cg_cuts(sys, gen)
        assert cut.u == (1,) and cut.rhs == 1

    def test_proportional_generators_collapse(self):
        sys = LCISystem(cone="soc", n=3, c=(0, 0, 3), a=((1, 0, 1),))
        gen = GeneratorStream(
            cone="soc", n=3, word_cap=0, roots=((0, 0, 1), (0, 0, 2))
        )
        got = cuts.cg_cuts(sys, gen)
        assert len(got) == 1
        assert got[0].root == (0, 0, 1)

    def test_indivisible_rhs_keeps_both(self):
        # u scales but rhs does not divide, so the floor could differ
        sys = LCISystem(cone="soc", n=3, c=(0, 0, 1), a=((2, 0, 0),))
        gen = GeneratorStream(
            cone="soc", n=3, word_cap=0, roots=((1, 0, 1), (2, 0, 2))
        )
        got = cuts.cg_cuts(sys, gen)
        assert [(c.u, c.rhs) for c in got] == [((2,), 1), ((4,), 2)]

    def test_dimension_mismatch(self):
        gen4 = GeneratorStream(cone="soc", n=4, word_cap=0)
        with pytest.raises(ValueError):
            cuts.cg_cuts(soc_system(), gen4)
        genp = GeneratorStream(cone="psd", n=3, word_cap=0)
        with pytest.raises(ValueError):
            cuts.cg_cuts(soc_system(), genp)

    def test_provenance_replays_bit_exact(self):
        sys = LCISystem(
            cone="soc", n=3, c=(1, -1, 4), a=((1, 0, 0), (0, 1, 2))
        )
        gen = GeneratorStream(cone="soc", n=3, word_cap=2)
        for cut in cuts.cg_cuts(sys, gen):
            y = cuts.apply_group_word("soc", 3, cut.word, cut.root)
            assert tuple(cuts.pair("soc", y, ai) for ai in sys.a) == cut.u
            assert cuts.pair("soc", y, sys.c) == cut.rhs

    def test_psd_provenance_replays_bit_exact(self):
        a1 = ((1, 0), (0, 0))
        a2 = ((0, 1), (1, 0))
        sys = LCISystem(cone="psd", n=2, c=((3, 1), (1, 2)), a=(a1, a2))
        gen = GeneratorStream(cone="psd", n=2, word_cap=2)
        got = cuts.cg_cuts(sys, gen)
        assert got
        for cut in got:
            y = cuts.apply_group_word("psd", 2, cut.word, cut.root)
            assert tuple(cuts.pair("psd", y, ai) for ai in sys.a) == cut.u
            assert cuts.pair("psd", y, sys.c) == cut.rhs


    @pytest.mark.parametrize("stream_cap", [None, 3], ids=["uncapped", "cap3"])
    def test_cuts_read_the_cached_walk(self, monkeypatch, stream_cap):
        # each cut comes from the walk's flat entries, so no emitted matrix
        # is read again and checked for symmetry, and the cuts are those of
        # the stream's emissions
        a1 = ((1, 0), (0, 0))
        a2 = ((0, 1), (1, 0))
        sys = LCISystem(cone="psd", n=2, c=((3, 1), (1, 2)), a=(a1, a2))
        gen = GeneratorStream(cone="psd", n=2, word_cap=2, cap=stream_cap)
        want, seen = [], set()
        for y, root, word in gen:
            y = tuple(v for row in y for v in row)
            u = tuple(cuts._dot(y, ai) for ai in sys._a)
            rhs = cuts._dot(y, sys._c)
            g = linalg.vec_gcd(u)
            key = (tuple(v // g for v in u), rhs // g) if g > 1 and rhs % g == 0 else (u, rhs)
            if key not in seen:
                seen.add(key)
                want.append(CGCut(u=u, rhs=rhs, root=root, word=word))
        checked = []
        monkeypatch.setattr(linalg, "is_symmetric", lambda rows: checked.append(rows) or True)
        assert cuts.cg_cuts(sys, gen) == want
        assert checked == []

class TestValidateCut:
    def cut(self):
        gen = GeneratorStream(cone="soc", n=3, word_cap=0, roots=((1, 0, 1),))
        return cuts.cg_cuts(soc_system(), gen)[0]

    def test_honest_cut_passes(self):
        assert cuts.validate_cut(soc_system(), self.cut(), [(0,), (1,)])

    def test_corrupted_rhs_is_caught(self):
        bad = CGCut(u=(1,), rhs=0, root=(1, 0, 1), word=())
        assert not cuts.validate_cut(soc_system(), bad, [(0,), (1,)])

    def test_empty_samples_are_vacuously_fine(self):
        bad = CGCut(u=(1,), rhs=-100, root=(1, 0, 1), word=())
        assert cuts.validate_cut(soc_system(), bad, [])

    def test_infeasible_samples_are_ignored(self):
        bad = CGCut(u=(1,), rhs=-100, root=(1, 0, 1), word=())
        assert cuts.validate_cut(soc_system(), bad, [(7,)])

    @pytest.mark.parametrize("sample", [(1.9,), (True,)], ids=["float", "bool"])
    def test_non_integer_samples_raise(self, sample):
        # read as int(), (1.9,) would be checked as (1,) and (True,) pass as (1,)
        with pytest.raises(TypeError):
            cuts.validate_cut(soc_system(), self.cut(), [sample])

    @given(st.integers(min_value=-4, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_every_feasible_point_satisfies_the_cut(self, x1):
        sys = soc_system()
        cut = self.cut()
        if sys.is_feasible((x1,)):
            assert cut.u[0] * x1 <= cut.rhs

    def test_random_systems_never_invalidate_their_own_cuts(self):
        rng = random.Random(11)
        for _ in range(12):
            m = rng.randint(1, 2)
            sys = LCISystem(
                cone="soc",
                n=3,
                c=tuple(rng.randint(-2, 4) for _ in range(3)),
                a=tuple(
                    tuple(rng.randint(-2, 2) for _ in range(3))
                    for _ in range(m)
                ),
            )
            gen = GeneratorStream(cone="soc", n=3, word_cap=2)
            samples = [
                (x,) if m == 1 else (x, y)
                for x in range(-3, 4)
                for y in (range(-3, 4) if m == 2 else (0,))
            ]
            for cut in cuts.cg_cuts(sys, gen):
                assert cuts.validate_cut(sys, cut, samples)


class TestIcrSearch:
    def test_doubled_root_has_rank_one(self):
        # multiplicities are free, so 2*(0,0,1) is a single generator
        gen = GeneratorStream(cone="soc", n=3, word_cap=2)
        got = cuts.icr_search((0, 0, 2), gen, cap=6)
        assert got == IcrResult(status="ok", count=1, terms=((2, (0, 0, 1)),))

    def test_high_multiples_stay_rank_one(self):
        gen = GeneratorStream(cone="soc", n=3, word_cap=2)
        got = cuts.icr_search((-5, 0, 5), gen, cap=4)
        assert got == IcrResult(status="ok", count=1, terms=((5, (-1, 0, 1)),))

    def test_single_root_is_one_term(self):
        gen = GeneratorStream(cone="psd", n=3, word_cap=2)
        got = cuts.icr_search(E11_3, gen, cap=10)
        assert got.status == "ok" and got.count == 1

    def test_identity_needs_a_term_per_diagonal(self):
        gen = GeneratorStream(cone="psd", n=3, word_cap=2)
        got = cuts.icr_search(I3, gen, cap=10)
        assert got.status == "ok" and got.count == 3
        total = I3
        for lam, t in got.terms:
            total = tuple(
                tuple(a - lam * b for a, b in zip(ra, rb))
                for ra, rb in zip(total, t)
            )
        assert all(v == 0 for row in total for v in row)

    def test_zero_element_is_the_empty_sum(self):
        gen = GeneratorStream(cone="soc", n=3, word_cap=1)
        got = cuts.icr_search((0, 0, 0), gen, cap=3)
        assert got.status == "ok" and got.count == 0 and got.terms == ()

    def test_low_cap_reports_exceeded(self):
        gen = GeneratorStream(cone="soc", n=3, word_cap=2)
        got = cuts.icr_search((1, 1, 2), gen, cap=1)
        assert got.status == "exceeded"
        assert got.count is None

    def test_last_term_weight_must_divide(self):
        # (0, 0, 2) lies on the ray of (0, 0, 3) but no multiple of it is
        gen = GeneratorStream(
            cone="soc", n=3, word_cap=0, roots=((0, 0, 2), (3, 4, 5))
        )
        assert cuts.icr_search((0, 0, 3), gen, cap=4).status == "infeasible"
        got = cuts.icr_search((0, 0, 4), gen, cap=4)
        assert got == IcrResult(status="ok", count=1, terms=((2, (0, 0, 2)),))

    def test_starved_candidate_set_is_infeasible(self):
        gen = GeneratorStream(cone="soc", n=3, word_cap=0, roots=((1, 0, 1),))
        got = cuts.icr_search((0, 0, 2), gen, cap=6)
        assert got.status == "infeasible"

    def test_rejects_points_outside_the_cone(self):
        gen = GeneratorStream(cone="soc", n=3, word_cap=1)
        with pytest.raises(ValueError):
            cuts.icr_search((3, 0, 1), gen, cap=3)

    def test_rejects_a_negative_cap(self):
        gen = GeneratorStream(cone="soc", n=3, word_cap=1)
        with pytest.raises(ValueError, match="cap must be nonnegative"):
            cuts.icr_search((0, 0, 2), gen, cap=-1)

    @pytest.mark.parametrize("cap", [True, 10.5, 3.0, "3"])
    def test_rejects_a_non_integer_cap(self, cap):
        # read with linalg.as_int: True is not cap 1, nor 10.5 a cap of 10
        gen = GeneratorStream(cone="soc", n=3, word_cap=1)
        with pytest.raises(TypeError, match="is not an integer"):
            cuts.icr_search((0, 0, 2), gen, cap=cap)

    def test_soc_counts_stay_under_the_ambient_bound(self):
        # 2N-2 = 4 in dimension three
        gen = GeneratorStream(cone="soc", n=3, word_cap=3)
        for a in range(-3, 4):
            for b in range(-3, 4):
                for h in range(4):
                    s = (a, b, h)
                    if not soc.in_cone(s):
                        continue
                    got = cuts.icr_search(s, gen, cap=6)
                    assert got.status == "ok", s
                    assert got.count <= 4, s

    def test_psd_counts_stay_under_the_ambient_bound(self):
        gen = GeneratorStream(cone="psd", n=2, word_cap=3)
        for mat in (
            I2,
            ((2, 1), (1, 1)),
            ((2, 0), (0, 1)),
            ((1, 1), (1, 1)),
            ((2, 1), (1, 2)),
        ):
            got = cuts.icr_search(mat, gen, cap=8)
            assert got.status == "ok", mat
            assert got.count <= 4, mat

    def test_no_candidate_heavier_than_the_residual_is_tested(self, monkeypatch):
        # each level bisects the heaviest-first weights for the residual's
        # weight, so every admission test is of a candidate no heavier than
        # the residual, and no multiplicity it may try leaves a negative
        # weight
        tested = spy_admissions(monkeypatch)
        for cone, n, word_cap, s in (
            ("soc", 3, 3, (3, 3, 5)),
            ("soc", 4, 3, (2, -1, 1, 5)),
            ("psd", 3, 2, I3),
        ):
            tested.clear()
            gen = GeneratorStream(cone=cone, n=n, word_cap=word_cap)
            assert cuts.icr_search(s, gen, cap=8).status == "ok", s
            weight = gen._cone.weight
            left = [
                weight(res) - top * weight(y)
                for res, y, top in tested
            ]
            assert tested and min(top for _, _, top in tested) >= 1, s
            assert min(left) >= 0, (s, left)

    def test_dead_residuals_are_not_searched_again(self, monkeypatch):
        # an infeasible SOC n = 5 element: with each deepening round walking
        # the whole tree of the round before it, its search makes 1,825
        # membership tests; with the dead residuals shared by the rounds, 582:
        # the input's own, 25 bisection steps and 556 admission tests, each
        # of which admits or refuses a candidate and is counted here
        tested = spy_admissions(monkeypatch)
        gen = GeneratorStream(cone="soc", n=5, word_cap=3)
        assert cuts.icr_search((2, 5, 3, 2, 7), gen, cap=8).status == "infeasible"
        assert 0 < len(tested) <= 700

    def test_a_residual_dead_from_a_later_start_is_searched_again(self):
        # (0, 4, 6) is twice (0, 2, 3), the lightest candidate.  The round
        # of depth 3 reaches the residual (3, -3, 16) as s - 2 (0, 2, 3),
        # with no candidate left, and records it dead from there; the round
        # of depth 4 reaches it again as s - (0, 4, 6), with the three
        # candidates left that sum to it
        roots = ((0, 4, 6), (-1, 3, 5), (4, -2, 6), (0, -4, 5), (0, 2, 3))
        gen = GeneratorStream(cone="soc", n=3, word_cap=0, roots=roots)
        got = cuts.icr_search((3, 1, 22), gen, cap=4)
        assert got == IcrResult(
            status="ok",
            count=4,
            terms=((1, (0, 4, 6)), (1, (4, -2, 6)), (1, (-1, 3, 5)), (1, (0, -4, 5))),
        )
        want = uncached_icr_search((3, 1, 22), gen._cone, gen.roots, 0, None, 4)
        assert (got.status, got.count, got.terms) == want

    def test_terms_reconstruct_the_input(self):
        rng = random.Random(23)
        gen = GeneratorStream(cone="soc", n=4, word_cap=3)
        for _ in range(10):
            while True:
                s = tuple(rng.randint(-3, 3) for _ in range(3)) + (
                    rng.randint(0, 4),
                )
                if soc.in_cone(s):
                    break
            got = cuts.icr_search(s, gen, cap=8)
            if got.status != "ok":
                continue
            total = (0, 0, 0, 0)
            for lam, t in got.terms:
                total = tuple(x + lam * y for x, y in zip(total, t))
            assert total == s
            assert len({t for _, t in got.terms}) == len(got.terms)
