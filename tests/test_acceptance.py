"""The acceptance gate.

One test per criterion, each printing a single PASS/FAIL line so the
grid is legible straight from pytest -v output.  Criteria 1 through 9
delegate to the selftest runners (the same code the CLI exercises);
criterion 10 runs the whole grid twice through the CLI entry point and
byte-compares every artifact except the manifest, whose wall clock is
the one intentionally unstable field.

Pinned tolerances: all genus comparisons are exact integer equality;
timing limits are wall-clock upper bounds (1 s, 5 s, 60 s) with no
slack factor.
"""

import time

from quadgenus.cli import main
from quadgenus.selftest import run_criterion

SEED = 0


def _report(outcome, limit: float | None = None) -> None:
    status = "PASS" if outcome.passed else "FAIL"
    extra = f" [{outcome.elapsed:.2f} s]"
    print(f"CRITERION {outcome.number} {status}: {outcome.name}{extra}")
    if not outcome.passed:
        print(f"  failure: {outcome.details.get('failure')}"
              f" details: {outcome.details}")
    assert outcome.passed, outcome.details
    if limit is not None:
        assert outcome.elapsed < limit, (
            f"criterion {outcome.number} took {outcome.elapsed:.2f} s, "
            f"limit {limit} s")


def test_criterion_01_base_embeddings():
    _report(run_criterion(1, SEED), limit=1.0)


def test_criterion_02_cube():
    _report(run_criterion(2, SEED), limit=5.0)


def test_criterion_03_single_cycle_grid():
    _report(run_criterion(3, SEED))


def test_criterion_04_repeated_cycles():
    _report(run_criterion(4, SEED))


def test_criterion_05_repeated_paths_both_routes():
    _report(run_criterion(5, SEED))


def test_criterion_06_thousand_handles():
    _report(run_criterion(6, SEED))


def test_criterion_07_oracle_agreement():
    # per-case 5 s limits for the exhaustive runs are asserted inside
    _report(run_criterion(7, SEED))


def test_criterion_08_formula_identities():
    _report(run_criterion(8, SEED))


def test_criterion_09_bipartite_products():
    _report(run_criterion(9, SEED))


def test_criterion_10_reproducibility(tmp_path, capsys):
    t0 = time.perf_counter()
    code_a = main(["selftest", "--seed", str(SEED), "--out",
                   str(tmp_path / "a")])
    elapsed = time.perf_counter() - t0
    code_b = main(["selftest", "--seed", str(SEED), "--out",
                   str(tmp_path / "b")])
    out = capsys.readouterr().out
    ok = code_a == 0 and code_b == 0 and elapsed < 60.0

    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    same_names = names_a == names_b
    identical = same_names
    for name in names_a:
        if name == "manifest.json":
            continue  # carries wall-clock by design
        if (tmp_path / "a" / name).read_bytes() \
                != (tmp_path / "b" / name).read_bytes():
            identical = False
            print(f"  artifact differs between reruns: {name}")
    ok = ok and identical and "9/9 passed" in out
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION 10 {status}: end-to-end reproducibility "
          f"[{elapsed:.2f} s, {len(names_a)} artifacts]")
    assert code_a == 0 and code_b == 0
    assert elapsed < 60.0, f"selftest took {elapsed:.2f} s"
    assert same_names and identical
    assert "9/9 passed" in out
