import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    adjugate_cofactor,
    det_cofactor,
    mat_mul as mat_mul_oracle,
    psd_by_minors,
    random_unimodular,
    reduce_rank_dense,
)
from intcone import linalg
from intcone.lattice import enumerate_below
from intcone.linalg import (
    SymIntMatrix,
    UnimodularMatrix,
    adjugate,
    det,
    identity,
    inverse_unimodular,
    is_psd_exact,
    mat_mul,
    primitive_kernel_vector,
    rank,
    reduce_rank,
    transpose,
)

M6 = (
    (2, 0, 1, 1, 1, 1),
    (0, 2, 0, 1, 1, 1),
    (1, 0, 2, 1, 1, 1),
    (1, 1, 1, 2, 1, 1),
    (1, 1, 1, 1, 2, 1),
    (1, 1, 1, 1, 1, 2),
)

M6_ADJ = (
    (4, 3, 1, -2, -2, -2),
    (3, 6, 3, -3, -3, -3),
    (1, 3, 4, -2, -2, -2),
    (-2, -3, -2, 4, 1, 1),
    (-2, -3, -2, 1, 4, 1),
    (-2, -3, -2, 1, 1, 4),
)


def random_symmetric(rng, n, lo=-4, hi=4):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            a[i][j] = a[j][i] = rng.randint(lo, hi)
    return tuple(tuple(r) for r in a)


class TestDet:
    def test_identity(self):
        for n in range(5):
            assert det(identity(n)) == 1

    def test_m6(self):
        assert det(M6) == 3

    def test_singular(self):
        assert det(((1, 1), (1, 1))) == 0

    def test_rejects_a_matrix_that_is_not_square(self):
        for m in (((1, 2, 3), (4, 5, 6)), ((1, 2), (3,)), ((1, 0), (0, 1), (0, 0))):
            with pytest.raises(ValueError, match="matrix must be square"):
                det(m)

    def test_matches_cofactor_oracle(self):
        rng = random.Random(7)
        # one row swap (det -1), then a 3-cycle: two swaps (det +1)
        cases = [((0, 1), (1, 0)), ((0, 0, 1), (1, 0, 0), (0, 1, 0))]
        for _ in range(200):
            n = rng.randint(1, 5)
            cases.append(
                tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
            )
        for a in cases:
            assert det(a) == det_cofactor(a)


class TestAdjugate:
    def test_m6(self):
        assert adjugate(M6) == M6_ADJ

    def test_diag(self):
        assert adjugate(((2, 0), (0, 3))) == ((3, 0), (0, 2))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            adjugate(((1, 2), (3, 4)))

    def test_small_and_singular(self):
        assert adjugate(()) == ()
        assert adjugate(((5,),)) == ((1,),)
        for singular in (((0,),), ((1, 1), (1, 1)), ((0,) * 3,) * 3):
            with pytest.raises(ValueError):
                adjugate(singular)

    def test_matches_cofactor_oracle(self):
        rng = random.Random(19)
        seen = set()
        for _ in range(400):
            n = rng.randint(0, 6)
            if rng.random() < 0.5:
                a = random_symmetric(rng, n, -3, 3)
            else:  # a Gram matrix of k vectors: rank <= k, often singular
                k = rng.randint(0, n)
                vs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
                a = tuple(
                    tuple(sum(v[i] * v[j] for v in vs) for j in range(n))
                    for i in range(n)
                )
            r = rank(a)
            seen.add("full" if r == n else "n-1" if r == n - 1 else "<=n-2")
            if r == n:
                assert adjugate(a) == adjugate_cofactor(a), a
            else:
                with pytest.raises(ValueError):
                    adjugate(a)
        assert seen == {"full", "n-1", "<=n-2"}

    @given(st.integers(2, 4), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_fundamental_identity(self, n, seed):
        a = random_symmetric(random.Random(seed), n)
        d = det(a)
        if d == 0:
            with pytest.raises(ValueError):
                adjugate(a)
            return
        prod = mat_mul(a, adjugate(a))
        assert prod == tuple(
            tuple(d if i == j else 0 for j in range(n)) for i in range(n)
        )


class TestIsSymmetric:
    def test_matches_the_entrywise_test(self):
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(0, 5)
            a = [list(row) for row in random_symmetric(rng, n, -2, 2)]
            if n and rng.random() < 0.5:
                i, j = rng.randrange(n), rng.randrange(n)
                a[i][j] += rng.choice((-1, 1))
            want = all(a[i][j] == a[j][i] for i in range(n) for j in range(n))
            assert linalg.is_symmetric(a) == linalg.is_symmetric(tuple(map(tuple, a))) == want

    def test_a_matrix_that_is_not_square_is_not_symmetric(self):
        for rows in (((1, 2),), ((1, 2), (2,)), ((1,), (1, 2)), ((0, 0, 0), (0, 0, 0))):
            assert not linalg.is_symmetric(rows)
        assert linalg.is_symmetric(())


def psd_rank(m):
    """The pivot count of linalg._psd_echelon, None when m is not PSD."""
    elim = linalg._psd_echelon(m)
    return None if elim is None else len(elim[0])


class TestIsPsdExact:
    def test_examples(self):
        assert is_psd_exact(M6)
        assert not is_psd_exact(((1, 0), (0, -1)))
        assert not is_psd_exact(((2, 3), (3, 2)))
        assert is_psd_exact(((0, 0), (0, 0)))
        assert is_psd_exact(())
        for m in (((1, 0), (0, -1)), ((2, 3), (3, 2))):
            assert psd_rank(m) is None
        assert psd_rank(M6) == 6
        assert psd_rank(((0, 0), (0, 0))) == 0
        assert psd_rank(()) == 0

    def test_zero_diag_nonzero_row(self):
        assert not is_psd_exact(((0, 1), (1, 2)))
        assert psd_rank(((0, 1), (1, 2))) is None

    def test_exhaustive_2x2(self):
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(-3, 4):
                    m = ((a, b), (b, c))
                    assert is_psd_exact(m) == psd_by_minors(m), m
                    psd = psd_by_minors(m)
                    assert psd_rank(m) == (rank(m) if psd else None), m

    def test_matches_minor_oracle(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(1, 4)
            m = random_symmetric(rng, n, -3, 3)
            assert is_psd_exact(m) == psd_by_minors(m), m
            psd = psd_by_minors(m)
            assert psd_rank(m) == (rank(m) if psd else None), m

    def test_psd_sums_of_outer_products(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 5)
            total = [[0] * n for _ in range(n)]
            for _ in range(rng.randint(1, n)):
                x = [rng.randint(-5, 5) for _ in range(n)]
                for i in range(n):
                    for j in range(n):
                        total[i][j] += x[i] * x[j]
            assert is_psd_exact(tuple(map(tuple, total)))

    def test_rank_and_determinant_match_the_general_echelon(self):
        # the pivot count is the rank, and at full rank the last pivot is
        # the determinant, on PSD matrices of every rank
        rng = random.Random(19)
        ranks = set()
        for _ in range(300):
            n = rng.randint(0, 6)
            r = rng.randint(0, n)
            g = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
            m = mat_mul(g, transpose(g)) if r else ((0,) * n,) * n
            pivots, a = linalg._psd_echelon(m)
            assert len(pivots) == rank(m), m
            if len(pivots) < n:
                assert det(m) == 0, m
            elif n:
                assert a[pivots[-1]][pivots[-1]] == det(m), m
            ranks.add((n, len(pivots)))
        assert len(ranks) >= 20


class TestRank:
    def test_examples(self):
        assert rank(M6) == 6
        assert rank(((1, 1), (1, 1))) == 1
        assert rank(((0, 0), (0, 0))) == 0
        assert rank(identity(4)) == 4

    @pytest.mark.parametrize("rows", [((1,), (0, 3)), ((1, 2), (3,))])
    def test_rejects_ragged_rows(self, rows):
        with pytest.raises(ValueError, match="equal length"):
            rank(rows)

    def test_rank_one_outer(self):
        x = (2, -3, 5)
        assert rank(tuple(tuple(a * b for b in x) for a in x)) == 1


class TestPrimitiveKernelVector:
    def test_diag(self):
        assert primitive_kernel_vector(((1, 0), (0, 0))) == (0, 1)

    def test_ones(self):
        assert primitive_kernel_vector(((1, 1), (1, 1))) == (1, -1)

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="equal length"):
            primitive_kernel_vector(((0,), (0, 3)))

    def test_full_rank_none(self):
        assert primitive_kernel_vector(M6) is None

    def test_properties(self):
        rng = random.Random(17)
        found = 0
        while found < 60:
            n = rng.randint(2, 5)
            m = random_symmetric(rng, n, -3, 3)
            z = primitive_kernel_vector(m)
            if z is None:
                assert rank(m) == n
                continue
            found += 1
            assert linalg.mat_vec(m, z) == (0,) * n
            assert linalg.vec_gcd(z) == 1
            assert next(v for v in z if v) > 0


def ladder_completion(z):
    """The identity right-multiplied by z's gcd ladder: a unimodular
    matrix whose first column is z."""
    u = [list(row) for row in identity(len(z))]
    linalg._apply_ladder(u, linalg._ladder(z))
    return tuple(map(tuple, u))


class TestExtendToUnimodular:
    """z extended to a unimodular matrix by its gcd ladder, as reduce_rank
    applies it."""

    def test_e1(self):
        assert ladder_completion((1, 0, 0)) == identity(3)

    def test_2_3(self):
        u = ladder_completion((2, 3))
        assert tuple(r[0] for r in u) == (2, 3)
        assert det(u) in (1, -1)

    def test_rejects_non_primitive(self):
        with pytest.raises(ValueError):
            ladder_completion((2, 4))
        with pytest.raises(ValueError):
            ladder_completion((0, 0))
        with pytest.raises(ValueError):
            linalg._ladder((-1, 0))

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    @example([-1])
    @example([-1, 0, 0])
    @settings(max_examples=120, deadline=None)
    def test_random_primitive(self, z):
        g = 0
        for v in z:
            g = linalg.gcd(g, v)
        if g != 1:
            return
        if z[0] == -1 and not any(z[1:]):
            # -e_0: the running gcd ends at -1, and _kernel_vector never
            # gives a z whose first nonzero entry is negative
            with pytest.raises(ValueError):
                linalg._ladder(z)
            return
        u = ladder_completion(tuple(z))
        assert tuple(r[0] for r in u) == tuple(z)
        assert det(u) in (1, -1)

    def test_inverse_roundtrip(self):
        u = ladder_completion((3, -5, 7))
        ui = inverse_unimodular(u)
        assert mat_mul(u, ui) == identity(3)


class TestProducts:
    def test_mat_mul_and_mat_vec_match_the_oracle(self):
        # square and non-square shapes, and empty ones: no rows on the left,
        # or no columns on the right
        rng = random.Random(71)

        def draw(r, c):
            return tuple(tuple(rng.randint(-9, 9) for _ in range(c)) for _ in range(r))

        shapes = [(r, k, c) for r in range(5) for k in range(1, 5) for c in range(5)]
        for r, k, c in shapes * 5 + [(6, 6, 6), (7, 3, 5)] * 20:
            a, b = draw(r, k), draw(k, c)
            assert mat_mul(a, b) == mat_mul_oracle(a, b), (a, b)
            v = tuple(row[0] for row in draw(k, 1))
            column = mat_mul_oracle(a, tuple((x,) for x in v))
            assert linalg.mat_vec(a, v) == tuple(row[0] for row in column)

    def test_mat_vec_truncates_to_the_shorter(self):
        a = ((1, 2, 3), (4, 5, 6))
        assert linalg.mat_vec(a, (1, 1)) == (3, 9)
        assert linalg.mat_vec(a, (1, 1, 1, 1)) == (6, 15)
        assert linalg.mat_vec((), (1, 2)) == ()


def row_letter(g):
    """The letter of a square matrix, from each row's nonzero entries."""
    return linalg.sparse_letter([(j, a) for j, a in enumerate(row) if a] for row in g)


class TestApplyWord:
    def test_folds_the_list_product(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 5)
            rows = {k: random_unimodular(n, 4, rng) for k in "abc"}
            table = {k: row_letter(g) for k, g in rows.items()}
            word = tuple(rng.choice("abc") for _ in range(rng.randint(0, 5)))
            v = tuple(rng.randint(-5, 5) for _ in range(n))
            product = identity(n)
            for label in word:
                product = mat_mul(product, rows[label])
            assert linalg.apply_word(table, word, v) == linalg.mat_vec(product, v)

    def test_empty_word_returns_the_vector_as_a_tuple(self):
        assert linalg.apply_word({}, (), [3, 4, 5]) == (3, 4, 5)
        table = {"a": row_letter(identity(2))}
        assert linalg.apply_word(table, (), [3, 4, 5]) == (3, 4, 5)

    def test_unknown_label(self):
        table = {"a": row_letter(identity(2))}
        with pytest.raises(ValueError, match="unknown generator label 'b'"):
            linalg.apply_word(table, ("a", "b"), (1, 2))

    @pytest.mark.parametrize("v", [(1, 2, 3), (1,), ()])
    def test_a_vector_of_the_wrong_length_raises(self, v):
        # neither truncated (longer v) nor zero-padded (shorter v)
        for g in (identity(2), ((1, 1), (0, 1)), ((0, -1), (1, 0))):
            table = {"a": row_letter(g)}
            with pytest.raises(ValueError, match="acts on length 2"):
                linalg.apply_word(table, ("a",), v)
        table = {"a": row_letter(identity(3)), "b": row_letter(identity(2))}
        with pytest.raises(ValueError, match="letter 'b' acts on length 2, not 3"):
            linalg.apply_word(table, ("a", "b"), (1, 2, 3))


class TestLetter:
    def test_matches_mat_vec(self):
        rng = random.Random(43)
        for _ in range(200):
            n = rng.randint(0, 6)
            density = rng.random()

            def entry():
                return rng.randint(-3, 3) if rng.random() < density else 0

            g = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
            v = tuple(rng.randint(-9, 9) for _ in range(n))
            assert row_letter(g)(v) == linalg.mat_vec(g, v), g
            assert row_letter(g).size == n

    def test_each_kind_of_row(self):
        v = (5, -7, 11)
        # a permutation, a signed permutation, a sparse sum with a zero row
        assert row_letter(((0, 0, 1), (1, 0, 0), (0, 1, 0)))(v) == (11, 5, -7)
        assert row_letter(((0, 0, -1), (2, 0, 0), (0, 1, 0)))(v) == (-11, 10, -7)
        assert row_letter(((1, 1, 0), (0, 0, 0), (0, -3, 1)))(v) == (-2, 0, 32)

    def test_sparse_letter_reads_column_entry_pairs(self):
        g = linalg.sparse_letter([[(1, 2), (0, -1)], [], [(2, 1)]])
        assert g((5, -7, 11)) == (-19, 0, 11) and g.size == 3


class TestInverseUnimodular:
    def test_matches_cofactor_oracle(self):
        rng = random.Random(29)
        for _ in range(150):
            n = rng.randint(1, 6)
            u = random_unimodular(n, rng.randint(0, 12), rng)
            d = det_cofactor(u)
            assert d in (1, -1)
            inv = inverse_unimodular(u)
            assert inv == tuple(
                tuple(d * v for v in row) for row in adjugate_cofactor(u)
            )
            assert mat_mul(u, inv) == identity(n)

    def test_rejects_det_0_and_2(self):
        for m in (
            ((1, 2), (2, 4)),
            ((0, 0), (0, 0)),
            ((2, 0), (0, 1)),
            ((1, 1), (-1, 1)),
        ):
            with pytest.raises(ValueError):
                inverse_unimodular(m)

    def test_rejects_a_matrix_that_is_not_square(self):
        for m in (((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (0, 0)), ((1, 0), (0,))):
            with pytest.raises(ValueError, match="matrix must be square"):
                inverse_unimodular(m)


class TestReduceRank:
    def test_full_rank_passthrough(self):
        u, _, block = reduce_rank(M6)
        assert u == identity(6)
        assert block == M6

    def test_rank_one(self):
        u, _, block = reduce_rank(((1, 1), (1, 1)))
        assert block == ((1,),)
        conj = mat_mul(transpose(u), mat_mul(((1, 1), (1, 1)), u))
        assert conj == ((0, 0), (0, 1))

    def test_zero_matrix(self):
        u, _, block = reduce_rank(((0, 0), (0, 0)))
        assert block == ()
        assert det(u) in (1, -1)

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            reduce_rank(((0, 1), (1, 0)))

    def test_wrong_kernel_vector_raises(self, monkeypatch):
        # (1, 0) is primitive but not in the kernel of [[1, 1], [1, 1]]
        monkeypatch.setattr(linalg, "_kernel_vector", lambda a, pivots: (1, 0))
        with pytest.raises(RuntimeError):
            reduce_rank(((1, 1), (1, 1)))

    def test_corrupted_u_raises(self, monkeypatch):
        # U grows from a sheared start in place of I: still unimodular, and
        # every per-step block check still passes, but U's first column
        # leaves the kernel, which only the closing X U[:, :n-r] = 0 sees
        monkeypatch.setattr(linalg, "identity", lambda n: ((1, 1), (0, 1)))
        with pytest.raises(RuntimeError, match="kernel column"):
            reduce_rank(((1, 1), (1, 1)))

    def test_block_structure_random(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(2, 5)
            k = rng.randint(1, n - 1)  # deficient by construction
            total = [[0] * n for _ in range(n)]
            for _ in range(k):
                x = [rng.randint(-3, 3) for _ in range(n)]
                for i in range(n):
                    for j in range(n):
                        total[i][j] += x[i] * x[j]
            x0 = tuple(map(tuple, total))
            r = rank(x0)
            u, _, block = reduce_rank(x0)
            assert det(u) in (1, -1)
            assert len(block) == r
            if r:
                assert rank(block) == r
            conj = mat_mul(transpose(u), mat_mul(x0, u))
            for i in range(n - r):
                assert conj[i] == (0,) * n
            for i in range(r):
                assert conj[n - r + i][n - r :] == block[i]

    def test_matches_dense_reference(self):
        # G G^T for a random n x r G, redrawn until its rank is r: every n
        # from 1 to 7 and every rank from 0 to n, ten matrices each
        rng = random.Random(31)
        for n in range(1, 8):
            for r in range(n + 1):
                for _ in range(10):
                    while True:
                        g = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
                        x = mat_mul(g, transpose(g)) if r else ((0,) * n,) * n
                        if rank(x) == r:
                            break
                    assert psd_rank(x) == r
                    u, u_inv_t, block = reduce_rank(x)
                    assert (u, block) == reduce_rank_dense(x)
                    assert u_inv_t == transpose(inverse_unimodular(u))
                    # the kernel split also hands back the block's elimination
                    split = linalg._reduce_rank(x, linalg._psd_echelon(x))
                    assert split == (u, u_inv_t, block, linalg._psd_echelon(block))


class TestBorderedAdjugate:
    def test_matches_the_cofactor_adjugate(self):
        # Gram matrices of n + 2 random vectors, redrawn until positive
        # definite: 140 for each n from 0 to 6 and 24 at n = 7, where the
        # cofactor oracle takes about 0.1 s a matrix
        rng = random.Random(59)
        checked = 0
        for n in range(8):
            for _ in range(140 if n < 7 else 24):
                while True:
                    g = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + 2)]
                    b = mat_mul(transpose(g), g) if n else ()
                    elim = linalg._psd_echelon(b)
                    if len(elim[0]) == n:
                        break
                adj, d = linalg._bordered_adjugate(b, elim)
                assert (adj, d) == (adjugate_cofactor(b), det_cofactor(b))
                checked += 1
        assert checked >= 1000

    def test_empty_and_one_by_one(self):
        assert linalg._bordered_adjugate((), linalg._psd_echelon(())) == ((), 1)
        assert linalg._bordered_adjugate(((7,),), linalg._psd_echelon(((7,),))) == (
            ((1,),),
            7,
        )


class TestDataclasses:
    def test_sym_matrix_validation(self):
        with pytest.raises(ValueError):
            SymIntMatrix(((1, 2), (3, 4)))
        m = SymIntMatrix(M6)
        assert m.n == 6

    def test_sym_matrix_json_roundtrip(self):
        m = SymIntMatrix(M6)
        assert SymIntMatrix.from_json(m.to_json()) == m

    def test_shared_record_keeps_names_and_equality(self):
        rows = identity(2)
        assert repr(SymIntMatrix(rows)) == "SymIntMatrix(rows=((1, 0), (0, 1)))"
        assert repr(UnimodularMatrix(rows)) == (
            "UnimodularMatrix(rows=((1, 0), (0, 1)))"
        )
        assert SymIntMatrix(rows) != UnimodularMatrix(rows)
        assert UnimodularMatrix(rows).to_json() == {"n": 2, "rows": [[1, 0], [0, 1]]}
        with pytest.raises(AttributeError):
            SymIntMatrix(rows).rows = ()

    def test_constructors_reject_non_int_entries(self):
        with pytest.raises(TypeError):
            SymIntMatrix(((1.5, 0), (0, True)))
        with pytest.raises(TypeError):
            UnimodularMatrix(((1.0, 0), (0, 1)))
        with pytest.raises(TypeError):
            enumerate_below(((1.9, 0), (0, 1)), 1)
        with pytest.raises(TypeError):
            enumerate_below(identity(2), True)
        with pytest.raises(TypeError):
            linalg._ladder((1.0, 0))

    def test_unimodular_validation(self):
        with pytest.raises(ValueError):
            UnimodularMatrix(((2, 0), (0, 1)))
        u = UnimodularMatrix(((1, 1), (0, 1)))
        assert inverse_unimodular(u.rows) == ((1, -1), (0, 1))
