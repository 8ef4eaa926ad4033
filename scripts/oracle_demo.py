"""Compare oracle search against the quadrilateral lower bound.

Runs the exhaustive oracle on a few small graphs (exact minimum genus by
enumerating rotation systems; K(4,4) has 839,808 systems up to
reflection, under the default cap) and the stochastic search on K(4,4)
again and on C(4) x C(4), whose 6^16/2 systems are out of exhaustive
reach, printing how each result sits relative to the bipartite lower
bound and how many systems each search explored (for the stochastic
runs also how many per second).  Each witness is re-traced, and the
script exits 1 if a re-traced genus differs from the one the search
reported, 0 otherwise.

Usage:
    python3 scripts/oracle_demo.py
    python3 scripts/oracle_demo.py --seed 7
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quadgenus.embeddings import euler_genus, genus_lower_bound
from quadgenus.errors import NotApplicableError
from quadgenus.graphs import build_family
from quadgenus.oracle import (SearchBudget, exhaustive_min_genus,
                              rotation_space_size, stochastic_search)


def bound_text(g) -> str:
    try:
        return str(genus_lower_bound(g))
    except NotApplicableError:
        return "n/a"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cap", type=int, default=10 ** 6,
                    help="exhaustive rotation-space cap")
    args = ap.parse_args(argv)
    mismatches = 0

    exhaustive = [("K(2,2)", build_family("K(2,2)")),
                  ("K(3,3)", build_family("K(3,3)")),
                  ("C(4) x P(2)", build_family("C(4) x P(2)")),
                  ("K(4,4)", build_family("K(4,4)"))]
    for name, g in exhaustive:
        space = rotation_space_size(g)
        t0 = time.perf_counter()
        res = exhaustive_min_genus(
            g, budget=SearchBudget(max_rotation_systems=args.cap))
        dt = time.perf_counter() - t0
        check = euler_genus(res.witness).genus
        mark = "" if check == res.best_genus else "  <-- MISMATCH"
        mismatches += check != res.best_genus
        print(f"{name:<14} exhaustive: genus {res.best_genus} "
              f"(witness re-traced: {check}, bound {bound_text(g)}, "
              f"space {space}, {res.explored} explored, {dt:.2f}s){mark}")

    stochastic = [("K(4,4)", build_family("K(4,4)")),
                  ("C(4) x C(4)", build_family("C(4) x C(4)"))]
    for name, g in stochastic:
        bound = bound_text(g)
        target = int(bound) if bound != "n/a" else None
        t0 = time.perf_counter()
        res = stochastic_search(
            g, budget=SearchBudget(seed=args.seed, target_genus=target))
        dt = time.perf_counter() - t0
        check = euler_genus(res.witness).genus
        mark = "" if check == res.best_genus else "  <-- MISMATCH"
        mismatches += check != res.best_genus
        tag = "== bound" if str(res.best_genus) == bound else ">= bound"
        print(f"{name:<14} stochastic: genus <= {res.best_genus} "
              f"(witness re-traced: {check}, bound {bound}, {tag}, "
              f"{res.explored} explored, {res.explored / dt:,.0f} systems/s, "
              f"{dt:.2f}s){mark}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
