"""The benchmark's three workloads and the checks on every operation.

Each workload generates its inputs from the workload seed alone and hands
the package only those inputs, through its public entry points:
``quadgenus.cli.main`` in-process with stdout captured,
``selftest.run_selftest``, and ``oracle.exhaustive_min_genus`` /
``oracle.stochastic_search``.  Every operation is checked; a failed check
or an exception counts as a failed operation and is never skipped.

Expected values are computed here, not taken from the package: family
vertex and edge counts from the factor list, genera from the Euler count
of an all-quadrilateral embedding, witness genera from an independent
face tracer.  The package's closed forms are compared against them too.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

ARTIFACTS = ("embedding.json", "certificate.json", "handles.json")
SELFTEST_FILES = tuple(f"criterion_{k:02d}.json" for k in range(1, 10)) + (
    "report.json",)
SUBSEEDS = 8  # selftest and targeted-search seeds a run cycles through


class BenchError(Exception):
    """The benchmark cannot run here (for example, no package to load)."""


@dataclass(frozen=True)
class Family:
    """A product family: ``factors`` lists ("K", t) for K(t,t), ("C", k)
    and ("P", k); ``closed_form`` names a function of quadgenus.formulas
    and its arguments, or None where the package has no closed form."""

    expr: str
    factors: tuple
    closed_form: Optional[tuple] = None

    def counts(self) -> tuple[int, int]:
        sizes = {"K": lambda t: (2 * t, t * t), "C": lambda k: (k, k),
                 "P": lambda k: (k, k - 1)}
        parts = [sizes[kind](k) for kind, k in self.factors]
        n = math.prod(p[0] for p in parts)
        m = sum(mi * n // ni for ni, mi in parts)
        return n, m

    def euler_genus(self) -> int:
        """Genus of an all-quadrilateral embedding: 1 + m/4 - n/2."""
        n, m = self.counts()
        value = 1 + Fraction(m, 4) - Fraction(n, 2)
        if value.denominator != 1:
            raise BenchError(f"{self.expr}: no quadrilateral embedding")
        return int(value)

    @property
    def slug(self) -> str:
        return "".join(ch if ch.isalnum() else "_" for ch in self.expr)


K4 = ("K", 4)
LADDER = (
    Family("Q(3,4)", (K4, K4, K4), ("cube_genus", (3, 4))),
    Family("Q(2,6) x C(4)", (("K", 6), ("K", 6), ("C", 4)),
           ("main_cycles_genus", (2, 3, [2]))),
    # Mixed closed and open ring: embed_family checks no closed form here.
    Family("Q(2,4) x C(4) x P(4)", (K4, K4, ("C", 4), ("P", 4))),
)
WARM_UP_FAMILY = Family("K(4,4) x C(4)", (K4, ("C", 4)),
                        ("main_cycles_genus", (1, 2, [2])))


class Run:
    """Operations attempted and failed in one benchmark run, their
    timings and other samples, and the artifact digests the determinism
    check uses."""

    def __init__(self, known_digests: Optional[dict] = None):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = dict(known_digests or {})
        self.times: dict[str, list[float]] = {}  # timed operations
        self.samples: dict[str, list[float]] = {}  # everything else
        self.op_seconds = 0.0
        self.tracer = None
        self.reference: Optional[Callable[[], None]] = None

    def sample(self, label: str, value: float) -> None:
        self.samples.setdefault(label, []).append(value)

    def record(self, label: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.failures.append(f"{label}: {problem}")

    def digest_problem(self, key: str, data: bytes) -> Optional[str]:
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            return f"{key} differs from an earlier pass or run on this seed"
        return None


def attempt(run: Run, op: str, label: str, call: Callable, check: Callable,
            timed: bool = True) -> None:
    """Run one operation and check its result.  A timed operation adds
    its seconds to ``run.times[label]``, so the label must not vary
    between passes, and is preceded by a timing of ``run.reference``
    when one is set.  ``op`` names the kind of operation for the
    tracer."""
    if run.tracer is not None:
        run.tracer.op = op
    gc.collect()
    if timed and run.reference is not None:
        run.reference()
    t0 = time.perf_counter()
    try:
        value = call()
    except Exception as exc:  # a crash in the package is a failed operation
        value, problem = None, f"raised {exc!r}"
    else:
        problem = None
    seconds = time.perf_counter() - t0
    if timed:
        run.times.setdefault(label, []).append(seconds)
        run.op_seconds += seconds
    if problem is None:
        try:
            problem = check(value)
        except Exception as exc:  # e.g. a missing or unparsable artifact
            problem = f"check raised {exc!r}"
    run.record(label, problem)


def run_cli(mods, *argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def independent_genus(rotation) -> int:
    """Genus of a rotation system by direct orbit walking, sharing no code
    with the package."""
    succ = {}
    for v, ring in enumerate(rotation):
        for idx, u in enumerate(ring):
            succ[(u, v)] = (v, ring[(idx + 1) % len(ring)])
    faces, seen = 0, set()
    for start in succ:
        if start in seen:
            continue
        faces += 1
        dart = start
        while dart not in seen:
            seen.add(dart)
            dart = succ[dart]
    n, m = len(rotation), len(succ) // 2
    return (2 - n + m - faces) // 2


# ---------------------------------------------------------------------------
# construct-large
# ---------------------------------------------------------------------------


def check_embed(mods, fam: Family, expected: int, result, out: Path,
                run: Run) -> Optional[str]:
    code, _, err = result
    if code != 0:
        return f"exit {code}: {err.strip()}"
    cert = json.loads((out / "certificate.json").read_text())
    n, m = fam.counts()
    want = {"n": n, "m": m, "genus": expected, "quadrilateral": True,
            "minimal": True}
    wrong = {k: cert.get(k) for k, v in want.items() if cert.get(k) != v}
    if wrong:
        return f"certificate has {wrong}, expected {want}"
    if fam.closed_form is not None:
        name, fargs = fam.closed_form
        closed = int(getattr(mods.formulas, name)(*fargs))
        if closed != expected:
            return f"closed form {name}{fargs} = {closed} != {expected}"
    for name in ARTIFACTS:
        problem = run.digest_problem(f"{fam.expr}/{name}",
                                     (out / name).read_bytes())
        if problem:
            return problem
    return None


def check_verify(result) -> Optional[str]:
    code, out, err = result
    if code != 0:
        return f"exit {code}: {err.strip()}"
    if "certificate-match" not in out:
        return f"no certificate-match in {out.strip()!r}"
    return None


def embed_and_verify(mods, fam: Family, expected: int, work: Path, run: Run,
                     timed: bool) -> None:
    out = work / fam.slug
    shutil.rmtree(out, ignore_errors=True)
    attempt(run, "embed", f"embed {fam.expr}",
            lambda: run_cli(mods, "embed", fam.expr, "--out", str(out)),
            lambda res: check_embed(mods, fam, expected, res, out, run),
            timed)
    attempt(run, "verify", f"verify {fam.expr}",
            lambda: run_cli(mods, "verify", str(out)), check_verify, timed)
    if timed:
        run.sample(f"bytes {fam.expr}",
                   sum(p.stat().st_size for p in out.glob("*")))


class ConstructLarge:
    """`quadgenus embed` then `quadgenus verify` over the ladder; the seed
    permutes the ladder order."""

    name = "construct-large"

    def prepare(self, mods, rng) -> dict:
        ladder = list(LADDER)
        rng.shuffle(ladder)
        return {"ladder": ladder,
                "expected": {f.expr: f.euler_genus() for f in ladder}}

    def warm_up(self, mods, inputs, work: Path, run: Run) -> None:
        fam = WARM_UP_FAMILY
        embed_and_verify(mods, fam, fam.euler_genus(), work, run, False)

    def run_pass(self, mods, inputs, k: int, work: Path, run: Run) -> None:
        for fam in inputs["ladder"]:
            embed_and_verify(mods, fam, inputs["expected"][fam.expr], work,
                             run, True)

    def extras(self, mods, inputs, work: Path, run: Run) -> dict:
        """Summed embed time over summed one-shot certificate time, on the
        artifacts the last untraced pass left behind."""
        embed_s = cert_s = 0.0
        for fam in inputs["ladder"]:
            path = work / fam.slug / "embedding.json"
            emb = mods.embeddings.embedding_from_json_dict(
                json.loads(path.read_text()))
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                mods.embeddings.euler_genus(emb)
                times.append(time.perf_counter() - t0)
            cert_s += statistics.median(times)
            embed_s += statistics.median(run.times[f"embed {fam.expr}"])
        return {"embed_over_cert": embed_s / cert_s}


# ---------------------------------------------------------------------------
# selftest-grid
# ---------------------------------------------------------------------------


def check_selftest(outcomes, out: Path, seed: int,
                   run: Run) -> Optional[str]:
    passed = [oc.number for oc in outcomes if oc.passed]
    if len(outcomes) != 9 or len(passed) != 9:
        return (f"seed {seed}: {len(passed)}/{len(outcomes)} criteria "
                f"passed: {[oc.details for oc in outcomes if not oc.passed]}")
    for oc in outcomes:
        run.sample(f"criterion {oc.number}", oc.elapsed)
    names = sorted(p.name for p in out.iterdir())
    if names != sorted(SELFTEST_FILES):
        return f"artifacts {names}, expected {sorted(SELFTEST_FILES)}"
    for name in SELFTEST_FILES:
        problem = run.digest_problem(f"selftest seed={seed}/{name}",
                                     (out / name).read_bytes())
        if problem:
            return problem
    return None


class SelftestGrid:
    """`run_selftest(seed, out_dir)`; pass k uses the (k mod SUBSEEDS)-th
    selftest seed drawn from the workload seed, so a run averages over
    seeds and each seed's artifacts are compared when it comes round."""

    name = "selftest-grid"

    def prepare(self, mods, rng) -> dict:
        return {"seeds": [rng.randrange(2 ** 31) for _ in range(SUBSEEDS)]}

    def warm_up(self, mods, inputs, work: Path, run: Run) -> None:
        for number in (1, 9):
            attempt(run, "selftest", f"warm-up criterion {number}",
                    lambda: mods.selftest.run_criterion(number,
                                                        inputs["seeds"][0]),
                    lambda oc: None if oc.passed else repr(oc.details),
                    timed=False)

    def run_pass(self, mods, inputs, k: int, work: Path, run: Run) -> None:
        seed = inputs["seeds"][k % SUBSEEDS]
        out = work / "selftest"
        shutil.rmtree(out, ignore_errors=True)
        attempt(run, "selftest", "selftest",
                lambda: mods.selftest.run_selftest(seed, str(out)),
                lambda res: check_selftest(res, out, seed, run))

    def extras(self, mods, inputs, work: Path, run: Run) -> dict:
        return {}


# ---------------------------------------------------------------------------
# oracle-search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    label: str
    graph: object
    exhaustive: bool
    expected: Optional[int] = None  # exact minimum, for exhaustive jobs
    target: Optional[int] = None
    budget: Optional[int] = None
    seed: Optional[int] = None  # None: a per-pass seed is drawn


def quad_lower_bound(graph) -> int:
    """Euler bound for a connected bipartite graph: faces have length at
    least 4, so genus >= 1 + m/4 - n/2."""
    m = sum(len(a) for a in graph.adj) // 2
    return max(0, math.ceil(1 + Fraction(m, 4) - Fraction(graph.n, 2)))


def check_oracle(job: Job, seed: Optional[int], result,
                 run: Run) -> Optional[str]:
    rotation = result.witness.rotation
    if [sorted(r) for r in rotation] != [sorted(a) for a in job.graph.adj]:
        return "witness is not a rotation system of the input graph"
    genus = independent_genus(rotation)
    if genus != result.best_genus:
        return f"witness traces to genus {genus}, reported {result.best_genus}"
    if job.exhaustive:
        if not result.exhaustive or result.best_genus != job.expected:
            return (f"exhaustive={result.exhaustive} genus "
                    f"{result.best_genus}, expected exact {job.expected}")
    else:
        bound = quad_lower_bound(job.graph)
        if result.best_genus < bound:
            return f"genus {result.best_genus} beats lower bound {bound}"
        if job.target is not None and result.best_genus > job.target:
            return f"genus {result.best_genus} misses target {job.target}"
    payload = json.dumps([result.best_genus, result.explored,
                          [list(r) for r in rotation]]).encode()
    return run.digest_problem(f"oracle {job.label} seed={seed}", payload)


def run_job(mods, job: Job, seed: Optional[int], run: Run,
            timed: bool = True) -> None:
    oracle = mods.oracle
    kwargs = {"seed": seed}
    if job.target is not None:
        kwargs["target_genus"] = job.target
    if job.budget is not None:
        kwargs["max_rotation_systems"] = job.budget
    budget = oracle.SearchBudget(**kwargs)
    search = (oracle.exhaustive_min_genus if job.exhaustive
              else oracle.stochastic_search)
    attempt(run, "oracle", job.label, lambda: search(job.graph, budget),
            lambda res: check_oracle(job, seed, res, run), timed)


def complete_graph(graphs, k: int):
    return graphs.from_edges(k, [(u, v) for u in range(k)
                                 for v in range(u + 1, k)])


class OracleSearch:
    """Two exhaustive and two stochastic searches on the construction-free
    route."""

    name = "oracle-search"

    def prepare(self, mods, rng) -> dict:
        g = mods.graphs
        jobs = [
            Job("exhaustive K(3,5)", g.make_complete_bipartite(3, 5), True,
                expected=1, seed=0),
            Job("exhaustive K5", complete_graph(g, 5), True, expected=1,
                seed=0),
            Job("stochastic C(4) x C(4) to genus 1",
                g.build_family("C(4) x C(4)"), False, target=1),
            Job("stochastic K(4,4) x C(4), 20000 systems",
                g.build_family("K(4,4) x C(4)"), False, budget=20_000,
                seed=rng.randrange(2 ** 31)),
        ]
        return {"jobs": jobs,
                "seeds": [rng.randrange(2 ** 31) for _ in range(SUBSEEDS)],
                "warm_up": Job("warm-up exhaustive K4", complete_graph(g, 4),
                               True, expected=0, seed=0)}

    def warm_up(self, mods, inputs, work: Path, run: Run) -> None:
        run_job(mods, inputs["warm_up"], 0, run, timed=False)

    def run_pass(self, mods, inputs, k: int, work: Path, run: Run) -> None:
        for job in inputs["jobs"]:
            seed = job.seed if job.seed is not None else \
                inputs["seeds"][k % SUBSEEDS]
            run_job(mods, job, seed, run)

    def extras(self, mods, inputs, work: Path, run: Run) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (ConstructLarge(), SelftestGrid(),
                                 OracleSearch())}
