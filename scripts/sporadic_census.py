"""Census of sporadic points on second-order cone shells.

Enumerates every primitive normalized integer point of T_n (coordinates
nonnegative and non-increasing before the height) shell by shell and
classifies it as Pythagorean, sporadic, or peelable interior.  Shells are
printed only when they contain a sporadic point.  The per-dimension
summary breaks sporadic counts down by Lorentz form value: up to
dimension six every sporadic point has form -1, from dimension seven on
other negative forms join in.
"""

from __future__ import annotations

import argparse
import time
from collections import Counter
from math import gcd, isqrt

from intcone import soc

def normalized_prefixes(length: int, cap: int, budget: int):
    """Non-increasing nonnegative tuples of the given length whose squares
    sum to at most the budget, largest coordinate first."""
    if length == 0:
        yield ()
        return
    top = min(cap, isqrt(budget))
    for v in range(top, -1, -1):
        for rest in normalized_prefixes(length - 1, v, budget - v * v):
            yield (v,) + rest


def census_row(n: int, height: int, forms: Counter) -> tuple[int, int, int]:
    pythagorean = sporadic = interior = 0
    for prefix in normalized_prefixes(n - 1, height, height * height):
        s = prefix + (height,)
        if gcd(*s) != 1:
            continue
        if soc.is_pythagorean(s):
            pythagorean += 1
        elif soc.is_sporadic_soc(s):
            sporadic += 1
            forms[soc.lorentz_form(s, s)] += 1
        else:
            interior += 1
    return pythagorean, sporadic, interior


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, nargs="+", default=[3, 4, 5, 6, 7])
    parser.add_argument("--max-height", type=int, default=20)
    args = parser.parse_args(argv)

    for n in args.dims:
        if not soc.MIN_DIM <= n <= soc.MAX_DIM:
            parser.error(f"dimension {n} outside {soc.MIN_DIM}..{soc.MAX_DIM}")

    print(f"{'n':>3} {'h':>4} {'pythagorean':>12} {'sporadic':>9} {'interior':>9}")
    for n in args.dims:
        t0 = time.perf_counter()
        totals = [0, 0, 0]
        forms: Counter = Counter()
        for h in range(1, args.max_height + 1):
            row = census_row(n, h, forms)
            totals = [a + b for a, b in zip(totals, row)]
            if row[1]:
                print(f"{n:>3} {h:>4} {row[0]:>12} {row[1]:>9} {row[2]:>9}")
        breakdown = ", ".join(
            f"form {f}: {c}" for f, c in sorted(forms.items(), reverse=True)
        )
        elapsed = time.perf_counter() - t0
        print(
            f"  n={n} totals: {totals[0]} pythagorean, {totals[1]} sporadic,"
            f" {totals[2]} interior ({elapsed:.1f}s)"
        )
        if breakdown:
            print(f"  n={n} sporadic forms: {breakdown}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
