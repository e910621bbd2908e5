"""Tests for cut generation and the minimal-decomposition search."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import congruence_walk, gl_letters
from intcone import cuts, linalg, psd, soc
from intcone.cuts import CGCut, GeneratorStream, IcrResult, LCISystem

E11_2 = ((1, 0), (0, 0))
I2 = ((1, 0), (0, 1))
E11_3 = ((1, 0, 0), (0, 0, 0), (0, 0, 0))
I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


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
        assert sys.slack((2, 3)) == (-2, -3, 2)

    def test_slack_psd(self):
        sys = LCISystem(cone="psd", n=2, c=I2, a=(E11_2,))
        assert sys.slack((3,)) == ((-2, 0), (0, 1))

    def test_feasibility(self):
        sys = soc_system()
        assert sys.is_feasible((1,))
        assert sys.is_feasible((-1,))
        assert not sys.is_feasible((2,))

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
            soc_system().slack((1, 2))

    def test_json_roundtrip(self):
        for sys in (soc_system(), LCISystem(cone="psd", n=2, c=I2, a=(E11_2,))):
            blob = sys.to_json()
            assert set(blob) == {"cone", "n", "c", "A"}
            back = LCISystem.from_json(blob)
            assert back.cone == sys.cone and back.c == sys.c and back.a == sys.a


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
        assert list(gen) == list(gen)

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
