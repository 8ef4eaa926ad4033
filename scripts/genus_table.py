"""Print a genus table for the supported product families.

For each row the table shows the closed-form value and, when the graph is
small enough to build quickly, the genus certified by an explicit embedding
so the two can be eyeballed side by side.  Exits 1 if any built genus
differs from its closed form, 0 otherwise.

Usage:
    python3 scripts/genus_table.py --max-i 2 --max-r 2 --max-s 3
    python3 scripts/genus_table.py --families cube,cycle --build-limit 2000
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quadgenus.constructions import embed_family
from quadgenus.formulas import (cube_cycle_genus, cube_genus,
                                cube_path_genus)
from quadgenus.graphs import parse_family_expr, product_sizes


def family_rows(kind: str, max_i: int, max_r: int, max_s: int):
    if kind == "cube":
        for i in range(1, max_i + 1):
            for r in range(1, max_r + 1):
                expr = f"Q({i},{2 * r})"
                yield expr, cube_genus(i, 2 * r)
    elif kind == "cycle":
        for i in range(1, max_i + 1):
            for r in range(1, max_r + 1):
                for s in range(2, max_s + 1):
                    expr = f"Q({i},{2 * r}) x C({2 * s})"
                    yield expr, cube_cycle_genus(i, r, s)
    elif kind == "path":
        for i in range(1, max_i + 1):
            for r in range(1, max_r + 1):
                for s in range(1, max_s + 1):
                    expr = f"Q({i},{2 * r}) x P({2 * s})"
                    yield expr, cube_path_genus(i, r, s)
    else:
        raise SystemExit(f"unknown family kind: {kind}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--families", default="cube,cycle,path",
                    help="comma list from cube,cycle,path")
    ap.add_argument("--max-i", type=int, default=2)
    ap.add_argument("--max-r", type=int, default=2)
    ap.add_argument("--max-s", type=int, default=3)
    ap.add_argument("--build-limit", type=int, default=1500,
                    help="skip the constructive check above this vertex count")
    args = ap.parse_args(argv)

    header = f"{'family':<28} {'n':>6} {'m':>7} {'formula':>8} {'built':>8} {'time':>7}"
    print(header)
    print("-" * len(header))
    mismatches = 0
    for kind in args.families.split(","):
        for expr, value in family_rows(
                kind.strip(), args.max_i, args.max_r, args.max_s):
            *_, (n, m) = product_sizes(parse_family_expr(expr))
            if n <= args.build_limit:
                t0 = time.perf_counter()
                result, _ = embed_family(expr, route="removal")
                dt = time.perf_counter() - t0
                built = result.certificate.genus
                mark = "" if built == value else "  <-- MISMATCH"
                mismatches += built != value
                print(f"{expr:<28} {n:>6} {m:>7} {value:>8} "
                      f"{built:>8} {dt:>6.2f}s{mark}")
            else:
                print(f"{expr:<28} {n:>6} {m:>7} {value:>8} "
                      f"{'-':>8} {'-':>7}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
