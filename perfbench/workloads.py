"""The five benchmark workloads.

Each workload is a closed loop: one client in one thread sends its next
request only after the previous one returned.  A workload builds its
requests from the seed alone, calls the program in `call`, and checks each
output in `check` with arithmetic of its own wherever the claim can be
replayed without the program.  `check` returns None for a correct output
and a reason otherwise.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import sys
from contextlib import redirect_stdout
from math import gcd, isqrt

from layers import SEARCHES

# program modules, bound by bind() once the checkout's src/ is importable
linalg = psd = soc = cuts = cli = None


def bind(ic) -> None:
    global linalg, psd, soc, cuts, cli
    linalg, psd, soc, cuts, cli = ic.linalg, ic.psd, ic.soc, ic.cuts, ic.cli


# -- input generators -------------------------------------------------------


def psd_matrix(rng, n, k, entry=5):
    """Criterion-02 input: sum of k outer products of vectors with entries
    in [-entry, entry]."""
    x = [[0] * n for _ in range(n)]
    for _ in range(k):
        v = [rng.randint(-entry, entry) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                x[i][j] += v[i] * v[j]
    return tuple(map(tuple, x))


def cone_point(rng, n, max_height, min_height=0):
    """Criterion-10 input: a random integer point of T_n below a height."""
    h = rng.randint(min_height, max_height)
    budget = h * h
    coords = []
    for _ in range(n - 1):
        r = isqrt(budget)
        v = rng.randint(-r, r)
        coords.append(v)
        budget -= v * v
    rng.shuffle(coords)
    return tuple(coords) + (h,)


def small_psd(rng, n, max_trace):
    """A nonzero PSD matrix: 1..n outer products of {-1,0,1} vectors."""
    while True:
        x = psd_matrix(rng, n, rng.randint(1, n), entry=1)
        if 0 < sum(x[i][i] for i in range(n)) <= max_trace:
            return x


def lci_system(rng, trial):
    """Criterion-12 input: an SOC (even trial) or PSD (odd) system with one
    or two variables, and the integer box of radius 5 it is checked on."""
    m = rng.randint(1, 2)
    if trial % 2 == 0:
        c = tuple(rng.randint(-3, 5) for _ in range(3))
        a = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(m))
        doc = {"cone": "soc", "n": 3, "c": list(c), "A": [list(v) for v in a]}
    else:

        def sym():
            d00, d11 = rng.randint(-2, 4), rng.randint(-2, 4)
            d01 = rng.randint(-2, 2)
            return [[d00, d01], [d01, d11]]

        doc = {"cone": "psd", "n": 2, "c": sym(), "A": [sym() for _ in range(m)]}
    return doc


def box(m):
    return list(itertools.product(range(-5, 6), repeat=m))


def pythagorean_point(rng):
    """A primitive Pythagorean point of T_n, n in 3..6, from Euclid's (n=3)
    or Lebesgue's (n >= 4) parametrisation, with random signs, order and
    zero padding."""
    n = rng.randint(3, 6)
    while True:
        if n == 3:
            a, b = rng.randint(1, 12), rng.randint(0, 11)
            head = [a * a - b * b, 2 * a * b]
            h = a * a + b * b
        else:
            m, k, p, q = (rng.randint(0, 5) for _ in range(4))
            head = [m * m + k * k - p * p - q * q, 2 * (m * q + k * p), 2 * (k * q - m * p)]
            h = m * m + k * k + p * p + q * q
        g = h
        for v in head:
            g = gcd(g, v)
        if h > 0 and g == 1:
            break
    head = [v if rng.random() < 0.5 else -v for v in head]
    head += [0] * (n - 1 - len(head))
    rng.shuffle(head)
    return tuple(head) + (h,)


# -- independent arithmetic for the checks -------------------------------


def _det(rows) -> int:
    """Bareiss determinant, kept apart from the program's own."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _congruent(u, x):
    n = len(x)
    return tuple(
        tuple(
            sum(u[i][p] * x[p][q] * u[j][q] for p in range(n) for q in range(n))
            for j in range(n)
        )
        for i in range(n)
    )


def _in_soc(v) -> bool:
    return v[-1] >= 0 and sum(c * c for c in v[:-1]) <= v[-1] * v[-1]


def _replay_word(word, root, n):
    cur = tuple(root)
    for label in reversed(word):
        g = soc.generator_matrix(label, n).rows
        cur = tuple(sum(a * b for a, b in zip(row, cur)) for row in g)
    return cur


def _flat(e):
    return tuple(v for row in e for v in row) if e and isinstance(e[0], tuple) else tuple(e)


# -- workloads --------------------------------------------------------------


class Workload:
    """Base: requests(), call(), check().  `tracer` is set during traced
    passes only.  With `pass_size` set, the requests are a fixed list of
    that length and a run measures whole passes over it, at least one."""

    name = ""
    pass_size = 0
    trace_size = 0
    warmup = 0
    seed_ignored = False
    tracer = None

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, seed=None):
        return random.Random(f"{self.name}/{self.seed if seed is None else seed}")

    def setup(self) -> None:
        """Build inputs and warm up; may run several times.  The warm-up
        requests come from a fixed seed, so set-up time does not vary with
        the run's seed."""
        for req in itertools.islice(self.requests("warm-up"), self.warmup):
            self.call(req)

    def requests(self, seed=None):
        """The request stream for `seed`, by default the run's."""
        raise NotImplementedError

    def call(self, req):
        raise NotImplementedError

    def check(self, req, out):
        raise NotImplementedError


class PsdPeel(Workload):
    name = "psd-peel"
    trace_size = 400
    warmup = 40

    def requests(self, seed=None):
        # criterion-02 inputs; n and k walk their ranges in a fixed cycle
        # (same proportions as drawing them at random, less seed noise)
        rng = self.rng(seed)
        for i in itertools.count():
            n = 2 + i % 4
            k = 1 + (i // 4) % n
            yield psd_matrix(rng, n, k)

    def call(self, req):
        return psd.decompose(req)

    def check(self, req, cert):
        if cert.remainder is not None or cert.witness is not None:
            return "remainder below dimension six"
        n = len(req)
        total = [[0] * n for _ in range(n)]
        for x, lam in cert.vectors:
            if lam < 1:
                return "nonpositive multiplicity"
            for i in range(n):
                for j in range(n):
                    total[i][j] += lam * x[i] * x[j]
        if tuple(map(tuple, total)) != req:
            return "peels do not sum to the matrix"
        return None


class SporadicSearch(Workload):
    name = "psd-sporadic-search"
    pass_size = len(SEARCHES)
    trace_size = len(SEARCHES)
    seed_ignored = True

    def setup(self):
        psd.search_sporadic(5, 2)

    def requests(self, seed=None):
        return itertools.cycle(SEARCHES.values())

    def call(self, req):
        return psd.search_sporadic(*req)

    def check(self, req, classes):
        if req[0] < 6:
            return None if classes == [] else "sporadic class below dimension six"
        if len(classes) != 1:
            return f"{len(classes)} classes in dimension six, expected one"
        witness = psd.unimodular_witness(classes[0], psd.M6)
        if witness is None:
            return "no witness onto M6"
        u = witness.rows
        if _det(u) not in (1, -1) or _congruent(u, classes[0]) != psd.M6:
            return "witness does not map the class onto M6"
        return None


class SocCertify(Workload):
    name = "soc-certify"
    trace_size = 3000
    warmup = 200
    # the criterion-10 cap.  At 100, about one point in 10^4..10^5 makes
    # the peel walk run for tens of seconds (for instance
    # (8, -1, -3, 3, 2, 4, -3, -2, 92, 93)), longer than a whole run.
    max_height = 50

    def requests(self, seed=None):
        rng = self.rng(seed)
        for i in itertools.count():
            yield cone_point(rng, 3 + i % 8, self.max_height)

    def call(self, req):
        return soc.decompose_soc(req)

    def check(self, req, cert):
        n = len(req)
        roots = set(soc.roots(n))
        total = [0] * n
        for lam, word, root in cert.terms:
            if lam < 1:
                return "nonpositive multiplicity"
            if root not in roots:
                return "unknown root"
            moved = _replay_word(word, root, n)
            if not _in_soc(moved):
                return "moved term outside the cone"
            for i in range(n):
                total[i] += lam * moved[i]
        if tuple(total) != req:
            return "terms do not sum to the point"
        return None


class CutsIcr(Workload):
    name = "cuts-icr"
    trace_size = 600
    warmup = 60
    # (cone, n, word_cap) of the icr_search streams, then one cg_cuts slot
    ICR = (("soc", 3, 6), ("soc", 4, 4), ("soc", 5, 3), ("psd", 2, 3), ("psd", 3, 2))

    def setup(self):
        self.streams = {
            key: cuts.GeneratorStream(cone=key[0], n=key[1], word_cap=key[2])
            for key in self.ICR
        }
        super().setup()

    def requests(self, seed=None):
        rng = self.rng(seed)
        for i in itertools.count():
            slot = i % (len(self.ICR) + 1)
            if slot < len(self.ICR):
                cone, n, _ = key = self.ICR[slot]
                if cone == "soc":
                    element = cone_point(rng, n, 8, min_height=1)
                    cap = 2 * n - 2
                else:
                    element = small_psd(rng, n, 6)
                    cap = n * (n + 1) - 2
                yield ("icr", key, element, cap)
            else:
                doc = lci_system(rng, i // (len(self.ICR) + 1))
                yield ("cg", cuts.LCISystem.from_json(doc))

    def call(self, req):
        if req[0] == "icr":
            _, key, element, cap = req
            return cuts.icr_search(element, self.streams[key], cap=cap)
        system = req[1]
        gen = cuts.GeneratorStream(cone=system.cone, n=system.n, word_cap=2)
        return cuts.cg_cuts(system, gen)

    def check(self, req, out):
        if req[0] == "icr":
            _, _, element, cap = req
            if out.status != "ok":
                return None if out.status in ("infeasible", "exceeded") else "bad status"
            if out.count != len(out.terms) or out.count > cap:
                return "count does not match the terms or exceeds the cap"
            total = [0] * len(_flat(element))
            for lam, y in out.terms:
                if lam < 1:
                    return "nonpositive multiplicity"
                for i, v in enumerate(_flat(y)):
                    total[i] += lam * v
            return None if tuple(total) == _flat(element) else "terms do not sum"
        system = req[1]
        samples = box(system.m)
        for cut in out:
            y = cuts.apply_group_word(system.cone, system.n, cut.word, cut.root)
            u = tuple(cuts.pair(system.cone, y, ai) for ai in system.a)
            if u != cut.u or cuts.pair(system.cone, y, system.c) != cut.rhs:
                return "cut does not replay"
            if not cuts.validate_cut(system, cut, samples):
                return "cut cuts off a feasible integer point"
        return None


class CliRoundtrip(Workload):
    name = "cli-roundtrip"
    trace_size = 400
    warmup = 40
    pool_size = 3000
    COMMANDS = ("psd-decompose", "soc-decompose", "soc-descend", "cg-cuts")

    def setup(self):
        # inputs reach cli.main on stdin, not as files: writing thousands
        # of small files took anywhere from 0.2 s to 1.4 s on the host
        # this was built on, which drowned the rest of the set-up time
        rng = self.rng()
        self.pool = []
        for i in range(self.pool_size):
            cmd = self.COMMANDS[i % len(self.COMMANDS)]
            if cmd == "psd-decompose":
                n = 2 + (i // 4) % 3
                doc = [list(r) for r in psd_matrix(rng, n, rng.randint(1, n))]
            elif cmd == "soc-decompose":
                doc = list(cone_point(rng, rng.randint(3, 10), 50))
            elif cmd == "soc-descend":
                doc = list(pythagorean_point(rng))
            else:
                doc = lci_system(rng, i // 4)
            self.pool.append((cmd, json.dumps(doc).encode()))
        super().setup()

    def requests(self, seed=None):
        # the inputs are built at set-up from the run's seed
        return itertools.cycle(self.pool)

    def _main(self, argv, stdin: bytes = b""):
        buf = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
        try:
            with redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            rc = exc.code
        finally:
            sys.stdin = saved
        return rc, buf.getvalue()

    def call(self, req):
        cmd, doc = req
        rc, out = self._main([cmd, "-"], doc)
        if self.tracer is None:
            vrc, vout = self._main(["verify", "-"], out.encode())
        else:
            with self.tracer.span("cli.verify"):
                vrc, vout = self._main(["verify", "-"], out.encode())
            self.tracer.count("cli.bytes_out", len(out.encode()) + len(vout.encode()))
        return rc, out, vrc, vout

    def check(self, req, out):
        rc, text, vrc, vtext = out
        if rc != 0 or vrc != 0:
            return f"exit codes {rc} and {vrc}"
        envelope = json.loads(text)
        if envelope["status"] != "ok":
            return "envelope status is not ok"
        expected = {"verified": True, "kind": envelope["payload"]["kind"]}
        if json.loads(vtext)["payload"] != expected:
            return "verify did not confirm the payload"
        return None


WORKLOADS = {
    w.name: w for w in (PsdPeel, SporadicSearch, SocCertify, CutsIcr, CliRoundtrip)
}
