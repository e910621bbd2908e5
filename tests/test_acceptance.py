"""Acceptance suite: one test per headline guarantee of the package.

Each test prints a `criterion NN:` line with the measured quantities, so a
verbose run doubles as a checklist.  Runtime budgets are asserted where the
guarantee states one.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from _oracles import form_value, points_below_box, primitive_pythagorean_signed

from intcone import cuts, linalg, psd, soc
from intcone.cuts import GeneratorStream, LCISystem

M6 = (
    (2, 0, 1, 1, 1, 1),
    (0, 2, 0, 1, 1, 1),
    (1, 0, 2, 1, 1, 1),
    (1, 1, 1, 2, 1, 1),
    (1, 1, 1, 1, 2, 1),
    (1, 1, 1, 1, 1, 2),
)


def nonincreasing_prefixes(length, cap, budget):
    """All nonneg non-increasing tuples with square sum at most budget."""
    out = []
    cur = [0] * length
    def walk(i, top, left):
        if i == length:
            out.append(tuple(cur))
            return
        top = min(top, isqrt(left))
        for v in range(top, -1, -1):
            cur[i] = v
            walk(i + 1, v, left - v * v)
    walk(0, cap, budget)
    return out


def is_primitive(s):
    g = 0
    for v in s:
        g = gcd(g, v)
    return g == 1


@lru_cache(maxsize=None)
def ball_scan(n, max_height):
    """Classify every normalized primitive point of T_n up to max_height.

    Returns (pythagorean, sporadic, equivalence_violations, checked) where a
    violation is any point breaking `sporadic iff form == -1`.  Points with
    the cheap non-sporadicity witness s - (1,0,...,0,1) skip the full test.
    """
    pyth = []
    spor = []
    violations = []
    checked = 0
    for h in range(1, max_height + 1):
        hh = h * h
        for prefix in nonincreasing_prefixes(n - 1, h, hh):
            s = prefix + (h,)
            if not is_primitive(s):
                continue
            checked += 1
            sq = sum(v * v for v in prefix)
            form = sq - hh
            if form == 0:
                pyth.append(s)
                continue
            d0 = prefix[0] - 1
            if d0 * d0 + sq - prefix[0] * prefix[0] <= (h - 1) * (h - 1):
                # peelable by the lowest Pythagorean tuple, so not sporadic
                if form == -1:
                    violations.append(s)
                continue
            if soc.is_sporadic_soc(s):
                spor.append(s)
                if form != -1:
                    violations.append(s)
            elif form == -1:
                violations.append(s)
    return tuple(pyth), tuple(spor), tuple(violations), checked


@lru_cache(maxsize=None)
def six_dim_classes():
    return tuple(psd.search_sporadic(6, 2))


def test_criterion_01_m6_regression():
    t0 = time.monotonic()
    det = linalg.det(M6)
    adj = linalg.adjugate(M6)
    minimum = min(form_value(adj, x) for x in points_below_box(adj, adj[0][0]))
    at_e1 = adj[0][0]
    sporadic = psd.is_sporadic(M6)
    elapsed = time.monotonic() - t0
    assert det == 3
    assert minimum == 4
    assert at_e1 == 4
    assert sporadic is True
    assert elapsed < 10.0, f"budget blown: {elapsed:.1f}s"
    print(
        f"criterion 01: det={det} min_adj_form={minimum} at_e1={at_e1} "
        f"sporadic={sporadic} ({elapsed:.2f}s < 10s)"
    )


def test_criterion_02_no_sporadics_below_dimension_six():
    t0 = time.monotonic()
    rng = random.Random(1)
    runs = vectors = peels = 0
    for n in (2, 3, 4, 5):
        for _ in range(1000):
            k = rng.randint(1, n)
            x = [[0] * n for _ in range(n)]
            for _ in range(k):
                v = [rng.randint(-5, 5) for _ in range(n)]
                for i in range(n):
                    for j in range(n):
                        x[i][j] += v[i] * v[j]
            rows = tuple(map(tuple, x))
            cert = psd.decompose(rows)
            assert cert.remainder is None, rows
            assert cert.reconstruct() == rows
            runs += 1
            vectors += len(cert.vectors)
            peels += sum(lam for _, lam in cert.vectors)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"budget blown: {elapsed:.1f}s"
    # peels is the total multiplicity, the count perfbench reports as psd.peels
    print(
        f"criterion 02: {runs} decompositions, all remainder-free and exact, "
        f"{vectors} distinct peel vectors, {peels} peels "
        f"({elapsed:.1f}s < 300s)"
    )


def test_criterion_03_dimension_six_catalog():
    t0 = time.monotonic()
    classes = six_dim_classes()
    assert len(classes) == 1
    witness = psd.unimodular_witness(classes[0], M6)
    assert witness is not None
    u = witness.rows
    moved = linalg.mat_mul(u, linalg.mat_mul(classes[0], linalg.transpose(u)))
    assert moved == M6
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0, f"budget blown: {elapsed:.1f}s"
    print(
        f"criterion 03: one class found, witness certifies equivalence "
        f"({elapsed:.1f}s < 1800s)"
    )


def test_criterion_04_determinant_bound():
    found = [(6, M6)]
    found.extend((6, m) for m in six_dim_classes())
    for n in (2, 3, 4, 5):
        hits = psd.search_sporadic(n, 2)
        assert hits == [], n
    for n, rows in found:
        det = Fraction(linalg.det(rows))
        bound = psd.sporadic_det_bound(n)
        assert det < bound, (n, det, bound)
    print(
        f"criterion 04: {len(found)} sporadics checked against the "
        f"determinant bound, zero violations"
    )


def test_criterion_05_root_lists_verbatim():
    golden = {
        3: [(1, 0, 1), (0, 0, 1)],
        4: [(1, 0, 0, 1), (0, 0, 0, 1)],
        5: [(1, 0, 0, 0, 1), (0, 0, 0, 0, 1)],
        6: [(1, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 1)],
        7: [
            (1, 0, 0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0, 0, 1),
            (1, 1, 1, 1, 1, 1, 3),
        ],
        8: [
            (1, 0, 0, 0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0, 0, 0, 1),
            (1, 1, 1, 1, 1, 1, 1, 3),
            (1, 1, 1, 1, 1, 1, 0, 3),
        ],
        9: [
            (1, 0, 0, 0, 0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0, 0, 0, 0, 1),
            (1, 1, 1, 1, 1, 1, 1, 1, 3),
            (1, 1, 1, 1, 1, 1, 1, 0, 3),
            (1, 1, 1, 1, 1, 1, 0, 0, 3),
            (2, 2, 2, 2, 2, 2, 2, 1, 6),
        ],
        10: [
            (1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
            (1, 1, 1, 1, 1, 1, 1, 1, 1, 3),
            (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
            (1, 1, 1, 1, 1, 1, 1, 1, 0, 3),
            (1, 1, 1, 1, 1, 1, 1, 0, 0, 3),
            (1, 1, 1, 1, 1, 1, 0, 0, 0, 3),
            (2, 2, 2, 2, 2, 2, 2, 2, 1, 6),
            (2, 2, 2, 2, 2, 2, 2, 1, 0, 6),
        ],
    }
    for n, expected in golden.items():
        assert list(soc.roots(n)) == expected, n
    print("criterion 05: root lists for n=3..10 match verbatim")


def test_criterion_06_stable_height_catalog():
    # The two height-6 tuples in dimension ten are omitted on purpose: the
    # all-ones tuple of height 3 is Pythagorean there, both lose their
    # sporadicity, and the soc test suite pins the explicit peelings.
    expected = {
        7: {(1, 1, 1, 1, 1, 1, 3)},
        8: {(1, 1, 1, 1, 1, 1, 1, 3), (1, 1, 1, 1, 1, 1, 0, 3)},
        9: {
            (1, 1, 1, 1, 1, 1, 1, 1, 3),
            (1, 1, 1, 1, 1, 1, 1, 0, 3),
            (1, 1, 1, 1, 1, 1, 0, 0, 3),
            (2, 2, 2, 2, 2, 2, 2, 1, 6),
        },
        10: {
            (1, 1, 1, 1, 1, 1, 1, 1, 0, 3),
            (1, 1, 1, 1, 1, 1, 1, 0, 0, 3),
            (1, 1, 1, 1, 1, 1, 0, 0, 0, 3),
        },
    }
    t0 = time.monotonic()
    scanned = 0
    for n in (7, 8, 9, 10):
        found = set()
        for h in range(1, 11):
            hh = h * h
            for s1 in range((h + 2) // 3, h + 1):
                for s2 in range(max(0, -(-(h - s1) // 2)), min(s1, h - s1) + 1):
                    s3 = h - s1 - s2
                    if s3 < 0 or s3 > s2:
                        continue
                    head = s1 * s1 + s2 * s2 + s3 * s3
                    if head > hh:
                        continue
                    for tail in nonincreasing_prefixes(n - 4, s3, hh - head):
                        s = (s1, s2, s3) + tail + (h,)
                        if not is_primitive(s):
                            continue
                        scanned += 1
                        if soc.is_sporadic_soc(s):
                            found.add(s)
        assert found == expected[n], n
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"budget blown: {elapsed:.1f}s"
    print(
        f"criterion 06: stable-height catalog reproduced for n=7..10 "
        f"({scanned} candidates, {elapsed:.1f}s < 600s)"
    )


def test_criterion_07_orbit_completeness():
    got3 = soc.pythagorean_orbit(3, 60)
    want3 = set(primitive_pythagorean_signed(3, 60))
    assert set(got3) == want3
    assert len(got3) == len(want3)
    got4 = soc.pythagorean_orbit(4, 25)
    want4 = set(primitive_pythagorean_signed(4, 25))
    assert set(got4) == want4
    assert len(got4) == len(want4)
    print(
        f"criterion 07: orbit generation complete "
        f"(n=3 h<=60: {len(got3)} points, n=4 h<=25: {len(got4)} points)"
    )


def test_criterion_08_descent_soundness():
    t0 = time.monotonic()
    rng = random.Random(8)
    replayed = 0
    pool = []
    for n in range(3, 8):
        pyth, spor, _, _ = ball_scan(n, 30)
        root_set = set(soc.roots(n))
        for s in pyth + spor:
            root, word = soc.descend(s)
            assert root in root_set, s
            cur = root
            for label in reversed(word):
                nxt = soc.apply_word((label,), cur)
                if label == "AplusInv":
                    assert nxt[-1] > cur[-1], (s, cur)
                cur = nxt
            assert cur == s
            replayed += 1
            pool.append(s)
    # signed and permuted variants reach the same machinery through the
    # normalization pass, spot-checked on a seeded sample
    for _ in range(300):
        s = pool[rng.randrange(len(pool))]
        n = len(s)
        head = [v if rng.random() < 0.5 else -v for v in s[:-1]]
        rng.shuffle(head)
        t = tuple(head) + (s[-1],)
        root, word = soc.descend(t)
        assert root in set(soc.roots(n))
        assert soc.apply_word(word, root) == t
    elapsed = time.monotonic() - t0
    print(
        f"criterion 08: {replayed} exhaustive descents plus 300 sampled "
        f"variants replay exactly ({elapsed:.1f}s)"
    )


def test_criterion_09_sporadic_form_characterization():
    total = 0
    spor_count = 0
    for n in range(3, 7):
        _, spor, violations, checked = ball_scan(n, 30)
        assert violations == (), (n, violations[:5])
        total += checked
        spor_count += len(spor)
    print(
        f"criterion 09: sporadic iff form -1 over {total} primitive points "
        f"(n=3..6, {spor_count} sporadics), zero counterexamples"
    )


def random_cone_point(rng, n, max_height):
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


def test_criterion_10_certificate_reconstruction():
    t0 = time.monotonic()
    rng = random.Random(10)
    for _ in range(1000):
        n = rng.randint(3, 10)
        s = random_cone_point(rng, n, 50)
        cert = soc.decompose_soc(s)
        assert cert.reconstruct() == s
        root_set = set(soc.roots(n))
        for lam, word, root in cert.terms:
            assert lam >= 1
            assert root in root_set
            assert soc.in_cone(soc.apply_word(word, root))
    elapsed = time.monotonic() - t0
    print(
        f"criterion 10: 1000 certificates reconstruct exactly with every "
        f"term in the cone ({elapsed:.1f}s)"
    )


def test_criterion_11_icr_bound():
    t0 = time.monotonic()
    gen3 = GeneratorStream(cone="soc", n=3, word_cap=6, cap=6)
    stream_points = {y for y, _, _ in gen3}
    for p in soc.pythagorean_orbit(3, 6):
        assert p in stream_points, p
    soc_max = 0
    soc_runs = 0
    for h in range(0, 7):
        for a in range(-h, h + 1):
            for b in range(-h, h + 1):
                s = (a, b, h)
                if not soc.in_cone(s):
                    continue
                got = cuts.icr_search(s, gen3, cap=4)
                assert got.status == "ok", s
                soc_max = max(soc_max, got.count)
                soc_runs += 1
    assert soc_max <= 4

    genp = GeneratorStream(cone="psd", n=2, word_cap=3)
    psd_max = 0
    psd_runs = 0
    for a in range(0, 5):
        for c in range(0, 5 - a):
            for b in range(-2, 3):
                if b * b > a * c:
                    continue
                x = ((a, b), (b, c))
                got = cuts.icr_search(x, genp, cap=10)
                assert got.status == "ok", x
                psd_max = max(psd_max, got.count)
                psd_runs += 1
    assert psd_max <= 10
    elapsed = time.monotonic() - t0
    print(
        f"criterion 11: observed maxima {soc_max} <= 4 over {soc_runs} cone "
        f"points and {psd_max} <= 10 over {psd_runs} matrices ({elapsed:.1f}s)"
    )


def test_criterion_12_cut_validity():
    t0 = time.monotonic()
    rng = random.Random(12)
    systems = 0
    checked_cuts = 0
    for trial in range(50):
        m = rng.randint(1, 2)
        if trial % 2 == 0:
            sys_ = LCISystem(
                cone="soc",
                n=3,
                c=tuple(rng.randint(-3, 5) for _ in range(3)),
                a=tuple(
                    tuple(rng.randint(-3, 3) for _ in range(3))
                    for _ in range(m)
                ),
            )
            gen = GeneratorStream(cone="soc", n=3, word_cap=2)
        else:
            def sym():
                d = [[0, 0], [0, 0]]
                d[0][0] = rng.randint(-2, 4)
                d[1][1] = rng.randint(-2, 4)
                d[0][1] = d[1][0] = rng.randint(-2, 2)
                return tuple(map(tuple, d))

            sys_ = LCISystem(
                cone="psd", n=2, c=sym(), a=tuple(sym() for _ in range(m))
            )
            gen = GeneratorStream(cone="psd", n=2, word_cap=2)
        if m == 1:
            samples = [(x,) for x in range(-5, 6)]
        else:
            samples = [
                (x, y) for x in range(-5, 6) for y in range(-5, 6)
            ]
        for cut in cuts.cg_cuts(sys_, gen):
            assert cuts.validate_cut(sys_, cut, samples), (sys_, cut)
            checked_cuts += 1
        systems += 1
    elapsed = time.monotonic() - t0
    print(
        f"criterion 12: {checked_cuts} cuts over {systems} systems validated "
        f"against box samples of radius 5, zero invalid ({elapsed:.1f}s)"
    )
