"""Growth of the primitive Pythagorean orbit by height.

Counts the primitive Pythagorean tuples reachable from the roots of T_n
below increasing height limits.  In dimension three this recovers the
classical ternary-tree counts; higher dimensions grow much faster because
the root list and the permutation alphabet both widen.
"""

from __future__ import annotations

import argparse
import time
from bisect import bisect_right

from intcone import soc

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--heights", type=int, nargs="+", default=[10, 20, 40, 80])
    args = parser.parse_args(argv)
    heights = sorted(args.heights)

    for n in args.dims:
        if not soc.MIN_DIM <= n <= soc.MAX_DIM:
            parser.error(f"dimension {n} outside {soc.MIN_DIM}..{soc.MAX_DIM}")

    header = " ".join(f"{f'h<={h}':>10}" for h in heights)
    print(f"{'n':>3} {header} {'time':>8}")
    for n in args.dims:
        t0 = time.perf_counter()
        # the orbit below a height is the part of the tallest walk below it
        tops = [p[-1] for p in soc.pythagorean_orbit(n, heights[-1])]
        counts = [bisect_right(tops, h) for h in heights]
        elapsed = time.perf_counter() - t0
        cells = " ".join(f"{c:>10}" for c in counts)
        print(f"{n:>3} {cells} {elapsed:>7.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
