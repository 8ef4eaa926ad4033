#!/usr/bin/env python3
"""quadgenus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is loaded from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics with tracing
off, scaled to a speed reference timed alongside (see README.md); with
``--trace 1`` it runs untraced passes for half the time, then
wraps each layer's public functions (see tracer.py) and runs traced
passes for the other half, and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller report, with the
environment, every sample summary and the span table, is written to
``perfbench/.work/``.  ``--workload all`` runs every workload both ways,
each in its own process, and prints every metric.

Standard library only, single process, single thread.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, BenchError, Run, independent_genus

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"
SETUP_REPEATS = 5
# The speed reference: REFERENCE_TRACES face traces of a fixed rotation
# system, timed before every timed operation.  End-to-end timings are
# reported at the speed where one reference takes REFERENCE_S.
REFERENCE_TRACES = 10
REFERENCE_S = 0.1
MODULES = ("cli", "constructions", "embeddings", "formulas", "graphs",
           "oracle", "selftest", "surgery")

END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("surgery.handles_added", "count"),
    ("surgery.handles_removed", "count"),
    ("surgery.add_handle_us", "us"),
    ("surgery.self_s", "s"),
    ("surgery.traces_per_handle", "count"),
    ("embeddings.trace_calls", "count"),
    ("embeddings.darts_traced", "count"),
    ("embeddings.traces_per_embed", "count"),
    ("embeddings.trace_darts_per_s", "1/s"),
    ("embeddings.cert_s", "s"),
    ("embeddings.self_s", "s"),
    ("constructions.self_s", "s"),
    ("constructions.embed_over_cert", "ratio"),
    ("graphs.build_family_calls", "count"),
    ("graphs.build_family_s", "s"),
    ("graphs.same_labeled_graph_s", "s"),
    ("cli.write_s", "s"),
    ("cli.read_s", "s"),
    ("cli.artifact_bytes", "bytes"),
    ("oracle.explored", "count"),
    ("oracle.exhaustive_systems_per_s", "1/s"),
    ("oracle.stochastic_systems_per_s", "1/s"),
    ("oracle.explored_to_target", "count"),
) + tuple((f"selftest.criterion_{k}_s", "s") for k in range(1, 10)) + (
    ("bench.embed_s", "s"),
    ("bench.verify_s", "s"),
    ("bench.trace_overhead", "ratio"),
)


def import_package():
    """Import quadgenus afresh from the checkout's src/ and return its
    modules.  Earlier imports are dropped so that each set-up pays for
    the imports again."""
    src = ROOT / "src"
    if not (src / "quadgenus" / "__init__.py").is_file():
        raise BenchError(f"no quadgenus package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules
                 if n == "quadgenus" or n.startswith("quadgenus.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"quadgenus.{name}")
        for name in MODULES})


def code_digest() -> str:
    """Digest of the package source, so stored artifact digests are only
    compared against runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "git_commit": git_commit(),
            "code_digest": code_digest(),
            "seed": seed}


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond
    it (None below eleven samples), and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n >= 11:
        tail = {"percentile": 100 * (n - 10) // n, "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "tail": tail, "n": n,
            "min": ordered[0]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_rotation() -> list[tuple[int, ...]]:
    """A fixed random rotation system of the 60 x 60 torus grid."""
    rng = random.Random(0)
    side = 60
    rotation = []
    for v in range(side * side):
        x, y = divmod(v, side)
        nbrs = [((x + 1) % side) * side + y, ((x - 1) % side) * side + y,
                x * side + (y + 1) % side, x * side + (y - 1) % side]
        rng.shuffle(nbrs)
        rotation.append(tuple(nbrs))
    return rotation


def speed_reference(run: Run):
    """A function timing the speed reference into ``run``: the harness's
    own face tracer, which does the same kind of work as the package
    (tuple, dict and set traffic in the interpreter)."""
    rotation = reference_rotation()

    def reference():
        t0 = time.perf_counter()
        for _ in range(REFERENCE_TRACES):
            independent_genus(rotation)
        run.sample("reference", time.perf_counter() - t0)

    return reference


def measure(workload, mods, inputs, work: Path, run: Run,
            seconds: float) -> list[float]:
    """Whole passes for about ``seconds``, at least one; returns the
    operation seconds of each pass.  A pass is not started when, at the
    length of the last one, it would end past 1.15 x ``seconds``."""
    passes: list[float] = []
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if passes and (elapsed >= seconds or elapsed + last > 1.15 * seconds):
            return passes
        before = run.op_seconds
        workload.run_pass(mods, inputs, len(passes), work, run)
        passes.append(run.op_seconds - before)
        last = time.perf_counter() - start - elapsed


def pass_seconds(times: dict) -> float:
    """Sum over the operations of a pass of each one's median time."""
    return sum(statistics.median(v) for v in times.values())


def layer_metrics(tracer: Tracer, run: Run, untraced: list[float],
                  traced: list[float], untraced_times: dict,
                  untraced_samples: dict, extras: dict) -> dict:
    passes = len(traced)

    def ratio(a, b):
        return a / b if b else 0.0

    def median_of(samples, label):
        values = samples.get(label)
        return statistics.median(values) if values else 0.0

    t = tracer
    handles = t.calls("surgery.add_handle")
    embeds = sum(len(v) for k, v in run.times.items()
                 if k.startswith("embed "))
    trace_calls = t.calls("embeddings.trace_faces")
    darts = t.counter("embeddings.darts")
    values = {
        "surgery.handles_added": handles / passes,
        "surgery.handles_removed": t.calls("surgery.remove_handle") / passes,
        "surgery.add_handle_us":
            ratio(1e6 * t.total_s("surgery.add_handle"), handles),
        "surgery.self_s": t.layer_self_s("surgery") / passes,
        "surgery.traces_per_handle": ratio(
            t.calls("embeddings.trace_faces", parent="surgery.add_handle"),
            handles),
        "embeddings.trace_calls": trace_calls / passes,
        "embeddings.darts_traced": darts / passes,
        "embeddings.traces_per_embed":
            ratio(t.calls("embeddings.trace_faces", op="embed"), embeds),
        "embeddings.trace_darts_per_s":
            ratio(darts, t.total_s("embeddings.trace_faces")),
        "embeddings.cert_s": t.total_s("embeddings.euler_genus") / passes,
        "embeddings.self_s": t.layer_self_s("embeddings") / passes,
        "constructions.self_s": t.layer_self_s("constructions") / passes,
        "constructions.embed_over_cert": extras.get("embed_over_cert", 0.0),
        "graphs.build_family_calls": t.calls("graphs.build_family") / passes,
        "graphs.build_family_s": t.total_s("graphs.build_family") / passes,
        "graphs.same_labeled_graph_s":
            t.total_s("graphs.same_labeled_graph") / passes,
        "cli.write_s": t.total_s("cli._write") / passes,
        "cli.read_s": t.total_s("cli._load_json") / passes,
        "cli.artifact_bytes": sum(sum(v) for k, v in run.samples.items()
                                  if k.startswith("bytes ")) / passes,
        "oracle.explored": t.counter("oracle.explored") / passes,
        "oracle.exhaustive_systems_per_s": ratio(
            t.counter("oracle.explored_exhaustive"),
            t.total_s("oracle.exhaustive_min_genus")),
        "oracle.stochastic_systems_per_s": ratio(
            t.counter("oracle.explored_stochastic"),
            t.total_s("oracle.stochastic_search")),
        "oracle.explored_to_target":
            t.counter("oracle.explored_to_target") / passes,
        "bench.trace_overhead":
            statistics.median(a / b for a, b in zip(traced, untraced)),
    }
    for k in range(1, 10):
        values[f"selftest.criterion_{k}_s"] = median_of(untraced_samples,
                                                        f"criterion {k}")
    for kind in ("embed", "verify"):
        values[f"bench.{kind}_s"] = sum(
            median_of(untraced_times, label) for label in untraced_times
            if label.startswith(kind + " "))
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full report."""
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    store = WORK / f"digests-{name}-{seed}-{code_digest()[:16]}.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    run = Run(known)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            mods = import_package()
            inputs = workload.prepare(mods, random.Random(f"{name}:{seed}"))
            workload.warm_up(mods, inputs, work, run)
            setups.append(time.perf_counter() - t0)
        if not trace:
            run.reference = speed_reference(run)
            passes = measure(workload, mods, inputs, work, run, seconds)
            # The host's speed drifts by tens of percent over minutes, and
            # the reference drifts with it; scaling by it keeps runs made
            # at different times comparable.
            speed = REFERENCE_S / statistics.median(run.samples["reference"])
            metrics = {"pass_s": pass_seconds(run.times) * speed,
                       "setup_s": statistics.median(setups) * speed,
                       "peak_rss_mb": peak_rss_mb()}
            spec = END_TO_END
            report_extra = {"passes": summarize(passes), "speed": speed,
                            "unscaled_pass_s": pass_seconds(run.times),
                            "unscaled_setup_s": statistics.median(setups)}
        else:
            untraced = measure(workload, mods, inputs, work, run,
                               seconds / 2)
            extras = workload.extras(mods, inputs, work, run)
            untraced_times, run.times = run.times, {}
            untraced_samples, run.samples = run.samples, {}
            tracer = Tracer()
            restore = tracer.install()
            run.tracer = tracer
            try:
                # Traced passes repeat the untraced passes' inputs, so the
                # overhead ratio compares like with like.
                traced = measure(workload, mods, inputs, work, run,
                                 seconds / 2)
            finally:
                restore()
                run.tracer = None
            metrics = layer_metrics(tracer, run, untraced, traced,
                                    untraced_times, untraced_samples, extras)
            spec = PER_LAYER
            report_extra = {
                "untraced_passes": summarize(untraced),
                "traced_passes": summarize(traced),
                "untraced_times": {k: summarize(v) for k, v in
                                   sorted(untraced_times.items())},
                "absent": tracer.absent,
                "spans": tracer.summary()[:60]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(run.digests, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return {
        "workload": name, "seconds": seconds, "trace": int(trace),
        "environment": environment(seed),
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / run.attempted if run.attempted else 1.0,
        "failures": run.failures[:20],
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in spec},
        "setup": summarize(setups),
        "times": {k: summarize(v) for k, v in sorted(run.times.items())},
        "samples": {k: summarize(v) for k, v in sorted(run.samples.items())},
        **report_extra,
    }


def print_table(report: dict) -> None:
    print(f"# {report['workload']} trace={report['trace']} "
          f"attempted={report['attempted']} failed={report['failed']} "
          f"fail_ratio={report['fail_ratio']:.4f}")
    for name, m in report["metrics"].items():
        print(f"{name:36s} {m['value']:16.6g} {m['unit']}")
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if report.get("absent"):
        print(f"absent (reported as 0): {report['absent']}", file=sys.stderr)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a child process so
    peak memory is per workload."""
    results = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            path = WORK / f"result-{name}-{seed}-trace{trace}.json"
            report = json.loads(path.read_text())
            print_table(report)
            results.append(report)
    combined = WORK / f"all-{seed}.json"
    combined.write_text(json.dumps(
        {"environment": environment(seed), "seconds": seconds,
         "results": results}, indent=1, sort_keys=True) + "\n")
    print(f"full report: {combined.relative_to(ROOT)}")
    return 0 if all(r["correct"] for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print_table(report)
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
