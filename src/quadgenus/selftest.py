"""The acceptance grid: nine deterministic checks covering every layer.

Each criterion runs independently and returns whether it passed plus a
machine-readable details dict; run_criterion times it and turns a crash
into a failed outcome, so no criterion aborts the grid.  Details carry
only deterministic values (counts, genera, tables), so artifact files
written for a fixed seed are bit-identical across reruns; wall-clock
times live in the run manifest and nowhere else.

The face tracer used by criterion 1 is a from-scratch reimplementation
kept deliberately separate from the embeddings module, so a bug in the
production tracer cannot certify itself.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import surgery
from .constructions import embed_family
from .embeddings import (Embedding, canonical_json_bytes, euler_genus,
                         face_lengths, genus_lower_bound, trace_faces)
from .errors import LocalProofError, SurgeryError
from .formulas import (_cube_genus_as_printed, corollary_genus,
                       cube_cycle_genus, cube_genus, cube_path_genus,
                       hypercube_genus, main_cycles_genus, main_paths_genus,
                       ringel_genus, white_cycle_genus, white_path_genus)
from .graphs import (Graph, build_family, components, from_edges, from_rows,
                     make_complete_bipartite, make_cycle, make_path,
                     parse_family_expr, product_graph, product_sizes)
from .oracle import (SearchBudget, _below, _positions, exhaustive_min_genus,
                     stochastic_search)


@dataclass
class CriterionOutcome:
    number: int
    name: str
    passed: bool
    details: dict
    elapsed: float


class _Checks:
    """Accumulates labeled pass/fail checks; first failure is kept."""

    def __init__(self):
        self.count = 0
        self.failure: str | None = None

    def add(self, label: str, ok: bool):
        self.count += 1
        if not ok and self.failure is None:
            self.failure = label

    @property
    def passed(self) -> bool:
        return self.failure is None


def _independent_face_lengths(e: Embedding) -> list[int]:
    """Face length multiset by direct orbit walking, sharing no code with
    the production tracer."""
    succ = {}
    for v, ring in enumerate(e.rotation):
        d = len(ring)
        for idx, u in enumerate(ring):
            succ[(u, v)] = (v, ring[(idx + 1) % d])
    lengths = []
    seen = set()
    for start in succ:
        if start in seen:
            continue
        dart = start
        steps = 0
        while True:
            seen.add(dart)
            steps += 1
            dart = succ[dart]
            if dart == start:
                break
        lengths.append(steps)
    return sorted(lengths)


def _complete_graph(k: int) -> Graph:
    return from_edges(k, [(u, v) for u in range(k) for v in range(u + 1, k)])


def _family_expr(i: int, r: int, kind: str, ml: list[int]) -> str:
    """Q(i,2r) times one factor kind(2m) per m in ml, kind "C" or "P"."""
    return " x ".join([f"Q({i},{2 * r})"] + [f"{kind}({2 * m})" for m in ml])


def _cert_tuple(cert):
    return (cert.n, cert.m, cert.f, cert.genus, cert.quadrilateral,
            cert.bipartite, cert.lower_bound, cert.minimal)


def criterion_1(seed: int) -> tuple[bool, dict]:
    """K(2r,2r) for r in {1,2,3}: quadrilateral, genus (r-1)^2, confirmed
    by the independent tracer."""
    checks = _Checks()
    cases = []
    for r in (1, 2, 3):
        res = embed_family(f"K({2 * r},{2 * r})")[0]
        e = res.embedding
        lengths = _independent_face_lengths(e)
        f = len(lengths)
        chi = e.graph.n - e.graph.m + f
        genus2 = 2 - chi
        checks.add(f"r={r} all faces quadrilateral",
                   all(x == 4 for x in lengths))
        checks.add(f"r={r} euler characteristic even", genus2 % 2 == 0)
        genus = genus2 // 2
        checks.add(f"r={r} genus {genus} == (r-1)^2", genus == (r - 1) ** 2)
        checks.add(f"r={r} certificate agrees",
                   res.certificate.genus == genus and res.certificate.f == f)
        cases.append({"r": r, "n": e.graph.n, "m": e.graph.m, "f": f,
                      "genus": genus})
    return checks.passed, {"cases": cases, "failure": checks.failure}


def criterion_2(seed: int) -> tuple[bool, dict]:
    """The twofold K(4,4) product: exact counts and a full reservoir."""
    checks = _Checks()
    res = embed_family("Q(2,4)")[0]
    c = res.certificate
    checks.add("n=64", c.n == 64)
    checks.add("m=256", c.m == 256)
    checks.add("f=128", c.f == 128)
    checks.add("genus=33", c.genus == 33)
    checks.add("quadrilateral", c.quadrilateral)
    checks.add("minimal", c.minimal)
    fams = res.reservoir
    checks.add("4 families", len(fams) == 4)
    for k, fam in enumerate(fams):
        verts = [v for face in fam for v in face]
        checks.add(f"family {k}: 16 faces", len(fam) == 16)
        checks.add(f"family {k}: vertex-disjoint cover of all 64",
                   len(verts) == 64 and set(verts) == set(range(64)))
    return checks.passed, {
        "certificate": {"n": c.n, "m": c.m, "f": c.f, "genus": c.genus},
        "families": [len(f) for f in fams],
        "failure": checks.failure}


def criterion_3(seed: int) -> tuple[bool, dict]:
    """Cube times one even cycle over the (i,r,s) grid: constructed genus
    equals the closed form and the Euler lower bound."""
    checks = _Checks()
    table = []
    for i in (1, 2):
        for r in (1, 2):
            for s in (2, 3):
                res, _ = embed_family(_family_expr(i, r, "C", [s]))
                g = res.certificate.genus
                formula = Fraction(1) + Fraction(2) ** (2 * i - 1) * s \
                    * Fraction(r) ** i * (i * r - 1)
                bound = genus_lower_bound(res.embedding.graph)
                checks.add(f"({i},{r},{s}) genus == formula", g == formula)
                checks.add(f"({i},{r},{s}) genus == module formula",
                           g == cube_cycle_genus(i, r, s))
                checks.add(f"({i},{r},{s}) genus == lower bound", g == bound)
                checks.add(f"({i},{r},{s}) quadrilateral",
                           res.certificate.quadrilateral)
                table.append({"i": i, "r": r, "s": s, "genus": g})
    marquee = next(x for x in table if (x["i"], x["r"], x["s"]) == (1, 2, 3))
    checks.add("K(4,4) x C(6) -> 13", marquee["genus"] == 13)
    return checks.passed, {"grid": table, "failure": checks.failure}


def criterion_4(seed: int) -> tuple[bool, dict]:
    """Repeated cycle factors against the closed form, the single-cube
    specialization where it applies, and the lower bound."""
    checks = _Checks()
    cases = []
    for i, r, ml, want in ((1, 1, [2, 2], 17), (1, 2, [2], 9),
                           (1, 2, [2, 2], 65)):
        res, _ = embed_family(_family_expr(i, r, "C", ml))
        g = res.certificate.genus
        checks.add(f"({i},{r},{ml}) genus == {want}", g == want)
        checks.add(f"({i},{r},{ml}) matches formula",
                   g == main_cycles_genus(i, r, ml))
        if i == 1:
            checks.add(f"({i},{r},{ml}) matches single-cube form",
                       g == corollary_genus(r, ml))
        checks.add(f"({i},{r},{ml}) lower bound",
                   g == genus_lower_bound(res.embedding.graph))
        checks.add(f"({i},{r},{ml}) quadrilateral",
                   res.certificate.quadrilateral)
        cases.append({"i": i, "r": r, "m": ml, "genus": g})
    return checks.passed, {"cases": cases, "failure": checks.failure}


def criterion_5(seed: int) -> tuple[bool, dict]:
    """Repeated path factors, both the direct route and, where every
    factor is long enough, the cycle-opening route, with identical
    certificates."""
    checks = _Checks()
    cases = []
    for i, r, ml, want in ((1, 2, [2], 7), (1, 2, [1], 3), (1, 1, [2], 0),
                           (1, 2, [2, 2], 49)):
        res, _ = embed_family(_family_expr(i, r, "P", ml), route="direct")
        g = res.certificate.genus
        checks.add(f"({i},{r},{ml}) genus == {want}", g == want)
        checks.add(f"({i},{r},{ml}) matches formula",
                   g == main_paths_genus(i, r, ml))
        checks.add(f"({i},{r},{ml}) lower bound",
                   g == genus_lower_bound(res.embedding.graph))
        checks.add(f"({i},{r},{ml}) quadrilateral",
                   res.certificate.quadrilateral)
        entry = {"i": i, "r": r, "m": ml, "genus": g, "removal_route": None}
        if all(m >= 2 for m in ml):
            alt, _ = embed_family(_family_expr(i, r, "P", ml),
                                  route="removal")
            checks.add(f"({i},{r},{ml}) removal route identical",
                       _cert_tuple(alt.certificate) == _cert_tuple(
                           res.certificate))
            entry["removal_route"] = alt.certificate.genus
        cases.append(entry)
    return checks.passed, {"cases": cases, "failure": checks.failure}


def criterion_6(seed: int) -> tuple[bool, dict]:
    """1000 randomized handle additions on valid quadrilateral face pairs:
    the Euler characteristic drops by exactly 2, four edges appear, and
    the quadrilateral face count rises by exactly 2 every single time.

    Each base gets one copy of its rotation as list rows.  Every applied
    handle is checked on a full retrace of the rows, frozen by
    graphs.from_rows, and then removed again, and at the end each copy
    must equal its base's rotation exactly.  Random proposals on three
    small bases repeat handles, so each distinct frozen rotation is
    retraced once per call: its counts are kept, keyed on the whole
    rotation, in a dict that lives only inside the call.  Every
    application still compares its own deltas.  A proposal add refuses
    before its splice (an edge of the handle already present) changes
    nothing and counts as rejected; a failed local proof after the
    splice is a fault and fails the criterion at once."""
    checks = _Checks()
    below = _below(random.Random(seed * 100003 + 6))
    pool = []
    for base in (embed_family(expr)[0]
                 for expr in ("K(4,4)", "K(6,6)", "Q(2,2)")):
        e = base.embedding
        traced = trace_faces(e)
        faces = [tuple(u for u, _ in fc) for fc in traced if len(fc) == 4]
        g = e.graph
        pool.append((e, [list(r) for r in e.rotation], faces,
                     [set(f) for f in faces],
                     g.n - g.m + len(traced), g.m, len(faces)))
    retraced = {}  # frozen rotation -> (chi, m, quadrilaterals)
    applications = 0
    rejected = 0
    while applications < 1000:
        e, rows, faces, vertex_sets, chi0, m0, quads0 = pool[
            below(len(pool))]
        f1, f2 = _positions(below, len(faces))  # rng.sample(range(...), 2)
        pairing = below(4)
        if not vertex_sets[f1].isdisjoint(vertex_sets[f2]):
            rejected += 1
            continue
        try:
            handle = surgery.add(rows, faces[f1], faces[f2], pairing)
        except LocalProofError:
            checks.add(f"application {applications + 1} local proof", False)
            break
        except SurgeryError:
            rejected += 1
            continue
        applications += 1
        rotation = tuple(map(tuple, rows))
        counts = retraced.get(rotation)
        if counts is None:
            g2 = from_rows(e.graph.n, rotation, e.graph.labels)
            # A full retrace, not add's local proof: this is the
            # independent check of the handle deltas.
            lengths = face_lengths(Embedding(g2, rotation))
            counts = retraced[rotation] = (g2.n - g2.m + len(lengths), g2.m,
                                           lengths.count(4))
        chi1, m1, quads1 = counts
        ok = chi1 - chi0 == -2 and m1 - m0 == 4 and quads1 - quads0 == 2
        if not ok:
            checks.add(f"application {applications} deltas", False)
            break
        surgery.remove(rows, handle)
    checks.add("1000 applications completed", applications == 1000)
    for k, (e, rows, *_) in enumerate(pool):
        checks.add(f"base {k} restored",
                   tuple(map(tuple, rows)) == e.rotation)
    return checks.passed, {"applications": applications,
                           "rejected_proposals": rejected,
                           "failure": checks.failure}


def criterion_7(seed: int) -> tuple[bool, dict]:
    """Oracle agreement: exhaustive minima for three tiny graphs, then
    seeded stochastic witnesses meeting the lower bound for K(4,4) and
    the fourfold even cycle product."""
    checks = _Checks()
    details = {"exhaustive": [], "stochastic": []}
    for name, g, want in (("K4", _complete_graph(4), 0),
                          ("K33", make_complete_bipartite(3, 3), 1),
                          ("K5", _complete_graph(5), 1)):
        t0 = time.perf_counter()
        res = exhaustive_min_genus(g, SearchBudget())
        dt = time.perf_counter() - t0
        checks.add(f"{name} exhaustive genus == {want}",
                   res.best_genus == want)
        checks.add(f"{name} flagged exhaustive", res.exhaustive)
        checks.add(f"{name} witness validates",
                   euler_genus(res.witness).genus == want)
        checks.add(f"{name} under 5 s", dt < 5.0)
        details["exhaustive"].append(
            {"graph": name, "genus": res.best_genus,
             "explored": res.explored})
    for name, g in (("K44", make_complete_bipartite(4, 4)),
                    ("C4xC4", build_family("C(4) x C(4)"))):
        res = stochastic_search(g, SearchBudget(seed=seed, target_genus=1))
        bound = genus_lower_bound(g)
        checks.add(f"{name} stochastic genus == 1", res.best_genus == 1)
        checks.add(f"{name} meets lower bound", res.best_genus == bound)
        checks.add(f"{name} witness validates",
                   euler_genus(res.witness).genus == res.best_genus)
        details["stochastic"].append(
            {"graph": name, "genus": res.best_genus,
             "explored": res.explored})
    return checks.passed, {**details, "failure": checks.failure}


def _euler_value(expr: str) -> Fraction:
    """1 + m/4 - n/2 of the family ``expr``, its genus if it has a
    quadrilateral embedding, with n and m from graphs.product_sizes:
    the parameters alone, no graph built."""
    *_, (n, m) = product_sizes(parse_family_expr(expr))
    return Fraction(1) + Fraction(m, 4) - Fraction(n, 2)


def criterion_8(seed: int) -> tuple[bool, dict]:
    """Formula cross-identities over 200 random tuples each, the pinned
    cube values, and the negative control: the uncorrected cube closed
    form contradicts the Euler count at its smallest even case."""
    checks = _Checks()
    rng = random.Random(seed * 100003 + 8)
    for _ in range(200):
        i, r, s = rng.randint(1, 5), rng.randint(1, 5), rng.randint(2, 30)
        checks.add("(a) single cycle specialization",
                   main_cycles_genus(i, r, [s]) == cube_cycle_genus(i, r, s))
    for _ in range(200):
        r = rng.randint(1, 6)
        ml = [rng.randint(2, 10) for _ in range(rng.randint(1, 4))]
        checks.add("(b) single cube specialization",
                   corollary_genus(r, ml) == main_cycles_genus(1, r, ml))
    for _ in range(200):
        i, r, s = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 30)
        checks.add("(c) single path specialization",
                   main_paths_genus(i, r, [s]) == cube_path_genus(i, r, s))
    for _ in range(200):
        j = rng.randint(2, 60)
        checks.add("(d) order-1 cube is the hypercube",
                   cube_genus(j, 1) == hypercube_genus(j))
    for _ in range(200):
        r = rng.randint(1, 60)
        checks.add("(e) single even cube factor",
                   cube_genus(1, 2 * r) == ringel_genus(r))

    def sample_f():
        kind = rng.randrange(10)
        if kind == 0:
            r = rng.randint(1, 3)
            return ringel_genus(r), f"K({2 * r},{2 * r})"
        if kind == 1:
            n = rng.randint(2, 8)
            return hypercube_genus(n), " x ".join(["P(2)"] * n)
        if kind == 2:
            t = rng.choice((1, 2, 3, 4))
            j = rng.randint(2, 3) if t >= 3 else rng.randint(2, 6 - t)
            return cube_genus(j, t), f"Q({j},{t})"
        if kind == 3:
            i, r, s = rng.randint(1, 2), rng.randint(1, 2), rng.randint(2, 4)
            return (cube_cycle_genus(i, r, s),
                    f"Q({i},{2 * r}) x C({2 * s})")
        if kind == 4:
            i, r = rng.randint(1, 2), rng.randint(1, 2)
            ml = [rng.randint(2, 3) for _ in range(rng.randint(1, 2))]
            expr = f"Q({i},{2 * r}) x " + " x ".join(
                f"C({2 * m})" for m in ml)
            return main_cycles_genus(i, r, ml), expr
        if kind == 5:
            r = rng.randint(1, 2)
            ml = [rng.randint(2, 4) for _ in range(rng.randint(1, 2))]
            expr = f"K({2 * r},{2 * r}) x " + " x ".join(
                f"C({2 * m})" for m in ml)
            return corollary_genus(r, ml), expr
        if kind == 6:
            i, r, s = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 4)
            return (cube_path_genus(i, r, s),
                    f"Q({i},{2 * r}) x P({2 * s})")
        if kind == 7:
            i, r = rng.randint(1, 2), rng.randint(1, 2)
            ml = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
            expr = f"Q({i},{2 * r}) x " + " x ".join(
                f"P({2 * m})" for m in ml)
            return main_paths_genus(i, r, ml), expr
        if kind == 8:
            ml = [rng.randint(2, 4) for _ in range(rng.randint(2, 3))]
            return (white_cycle_genus(ml),
                    " x ".join(f"C({2 * m})" for m in ml))
        ml = [rng.choice((2, 4)) for _ in range(3)]
        if rng.random() < 0.5:
            ml.append(rng.randint(2, 5))
        return white_path_genus(ml), " x ".join(f"P({m})" for m in ml)

    for _ in range(200):
        value, expr = sample_f()
        checks.add(f"(f) euler count of {expr}",
                   _euler_value(expr) == value)

    checks.add("pinned cube_genus(2,2) == 1", cube_genus(2, 2) == 1)
    checks.add("pinned cube_genus(2,4) == 33", cube_genus(2, 4) == 33)
    printed = _cube_genus_as_printed(2, 2)
    checks.add("negative control: uncorrected form gives -3 at (2,2)",
               printed == Fraction(-3))
    checks.add("negative control: contradicts euler count",
               printed != _euler_value("Q(2,2)")
               and _euler_value("Q(2,2)") == cube_genus(2, 2))
    checks.add("negative control: also wrong at part size 4",
               _cube_genus_as_printed(2, 4) != _euler_value("Q(2,4)")
               and _euler_value("Q(2,4)") == cube_genus(2, 4))
    return checks.passed, {"checks_run": checks.count,
                           "uncorrected_value_at_2_2": str(printed),
                           "failure": checks.failure}


def criterion_9(seed: int) -> tuple[bool, dict]:
    """Product bipartiteness is the conjunction of factor bipartiteness,
    over 100 random factor pairs."""
    checks = _Checks()
    rng = random.Random(seed * 100003 + 9)

    def factory():
        kind = rng.randrange(4)
        if kind == 0:
            return make_path(rng.randint(2, 9))
        if kind == 1:
            return make_cycle(2 * rng.randint(2, 6))
        if kind == 2:
            n = 2 * rng.randint(1, 5) + 1
            return from_edges(n, [(v, (v + 1) % n) for v in range(n)])
        return make_complete_bipartite(rng.randint(1, 4), rng.randint(1, 4))

    def bipartite(g: Graph) -> bool:
        return all(components(g)[2])

    for idx in range(100):
        a, b = factory(), factory()
        checks.add(f"pair {idx}", bipartite(product_graph([a, b]))
                   == (bipartite(a) and bipartite(b)))
    return checks.passed, {"pairs": 100, "failure": checks.failure}


# Criterion k is CRITERIA[k - 1]: its check function and its name.
CRITERIA = (
    (criterion_1, "complete bipartite base embeddings"),
    (criterion_2, "fourfold complete bipartite cube"),
    (criterion_3, "cube times one even cycle"),
    (criterion_4, "repeated cycle factors"),
    (criterion_5, "repeated path factors, both routes"),
    (criterion_6, "handle surgery deltas"),
    (criterion_7, "oracle agreement"),
    (criterion_8, "formula identity suite"),
    (criterion_9, "bipartite product law"),
)


def run_criterion(number: int, seed: int = 0) -> CriterionOutcome:
    fn, name = CRITERIA[number - 1]
    t0 = time.perf_counter()
    try:
        passed, details = fn(seed)
    except Exception as exc:  # a crash is a failure, not an abort
        passed, details = False, {"error": repr(exc)}
    return CriterionOutcome(number, name, passed, details,
                            time.perf_counter() - t0)


def run_selftest(seed: int = 0,
                 out_dir: str | Path | None = None) -> list[CriterionOutcome]:
    outcomes = [run_criterion(k, seed) for k in range(1, 10)]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for oc in outcomes:
            payload = {"number": oc.number, "name": oc.name,
                       "passed": oc.passed, "details": oc.details,
                       "seed": seed}
            (out / f"criterion_{oc.number:02d}.json").write_bytes(
                canonical_json_bytes(payload))
        report = {"seed": seed,
                  "passed": all(oc.passed for oc in outcomes),
                  "criteria": [{"number": oc.number, "name": oc.name,
                                "passed": oc.passed} for oc in outcomes]}
        (out / "report.json").write_bytes(canonical_json_bytes(report))
    return outcomes
