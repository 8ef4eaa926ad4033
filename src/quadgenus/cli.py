"""Command line front end.

Subcommands: build, embed, verify, faces, genus, oracle, selftest.  Every
file written is canonical JSON (sorted keys, no whitespace, one trailing
newline), and every run that writes files also writes a manifest.json
naming them, so reruns with the same inputs and seed produce
bit-identical artifacts apart from the manifest's wall clock.

Exit codes: 0 success, 2 parse errors, 3 invalid parameters or data,
4 unsupported family shapes, 5 verification failures.

verify, faces and oracle refuse unread, with exit 3, a file past
MAX_FILE_BYTES, 32 bytes per dart at graphs.MAX_DARTS (256 MiB),
whitespace included: a rotation entry takes at most 8 bytes, so every
file embed writes fits (Q(6,4)'s embedding.json is 50.3 MB).  Then
graphs.json_header refuses more than MAX_DARTS // 2 + 1 vertices with
exit 3; embed writes at most 2,097,152 (K(2,2) x P(524288)).  Isolated
vertices take the most RSS per byte of file: verify of 2^22 of them, a
16.8 MB file, peaked at 613 MB (Python 3.11, x86-64), faces at 417 MB.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .constructions import embed_family
from .embeddings import (canonical_json_bytes, certificate_from_json_dict,
                         certificate_to_json_dict, components_certificate,
                         embedding_from_json_dict, embedding_to_json_dict,
                         trace_faces)
from .errors import (BudgetExceededError, ExprSyntaxError,
                     InvalidParameterError, ToolError, VerificationError)
from .formulas import FORMULAS
from .graphs import (MAX_DARTS, build_family, components,
                     graph_from_json_dict, graph_to_json_dict, is_json_int,
                     parse_family_expr)
from .oracle import SearchBudget, exhaustive_min_genus, stochastic_search
from .selftest import run_selftest


@dataclass
class RunManifest:
    command: str
    parameters: dict
    inputs: list
    outputs: list
    seed: int | None
    version: str
    wall_clock_seconds: float


def _out_dir(path: str | None) -> Path | None:
    """The --out directory, refused before any work starts when it or
    its nearest existing ancestor is not a directory.  No --out (or an
    empty one) writes nothing."""
    if not path:
        return None
    out = Path(path)
    for existing in (out, *out.parents):
        if existing.exists():
            if not existing.is_dir():
                raise InvalidParameterError(
                    f"--out {path}: {existing} is not a directory")
            break
    return out


def _write(out_dir: Path, name: str, payload: dict) -> str:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_bytes(canonical_json_bytes(payload))
    return name


def _finish_manifest(out_dir: Path, manifest: RunManifest, t0: float):
    manifest.wall_clock_seconds = time.perf_counter() - t0
    manifest.outputs.append("manifest.json")
    (out_dir / "manifest.json").write_bytes(
        canonical_json_bytes(asdict(manifest)))


MAX_FILE_BYTES = 32 * MAX_DARTS


def _load_json(path: str) -> dict:
    """The parsed JSON file at path, unread if past MAX_FILE_BYTES."""
    try:
        size = Path(path).stat().st_size
        if size > MAX_FILE_BYTES:
            raise InvalidParameterError(
                f"{path} has {size} bytes, past the {MAX_FILE_BYTES}-byte "
                f"input cap; refused before it is read")
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InvalidParameterError(f"no such file: {path}")
    except OSError as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc.strerror}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ExprSyntaxError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise ExprSyntaxError(f"{path} nests too deeply to read")
    except ValueError as exc:  # an integer literal past the digit limit
        raise InvalidParameterError(f"{path}: {exc}")


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args.out)
    graph = build_family(parse_family_expr(args.expr))
    bip = all(components(graph)[2])
    if args.json:
        print(json.dumps({"expr": args.expr, "n": graph.n, "m": graph.m,
                          "bipartite": bip}))
    else:
        print(f"{args.expr}: n={graph.n} m={graph.m} bipartite={bip}")
    if out:
        manifest = RunManifest("build", {"expr": args.expr}, [], [],
                               None, __version__, 0.0)
        manifest.outputs.append(
            _write(out, "graph.json", graph_to_json_dict(graph)))
        _finish_manifest(out, manifest, t0)
    return 0


def cmd_embed(args) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args.out)
    result, shape = embed_family(args.expr)
    cert = result.certificate
    if args.json:
        print(json.dumps(certificate_to_json_dict(cert)))
    else:
        print(f"{args.expr}: genus={cert.genus} n={cert.n} m={cert.m} "
              f"f={cert.f} quadrilateral={cert.quadrilateral} "
              f"minimal={cert.minimal}")
    if out:
        manifest = RunManifest(
            "embed",
            {"expr": args.expr, "normalized": shape.normalized_expr,
             "factor_order": list(shape.factor_order)},
            [], [], None, __version__, 0.0)
        manifest.outputs.append(_write(
            out, "embedding.json", embedding_to_json_dict(result.embedding)))
        manifest.outputs.append(_write(
            out, "certificate.json", certificate_to_json_dict(cert)))
        manifest.outputs.append(_write(
            out, "handles.json", {"steps": list(result.steps)}))
        _finish_manifest(out, manifest, t0)
    return 0


def _locate_verify_inputs(path: str, cert_flag: str | None):
    p = Path(path)
    if p.is_dir():
        emb_path = p / "embedding.json"
        # only the default certificate may be absent; a named one must load
        cert_path = Path(cert_flag) if cert_flag else p / "certificate.json"
        if not (cert_flag or cert_path.exists()):
            cert_path = None
    else:
        emb_path = p
        cert_path = Path(cert_flag) if cert_flag else None
    return emb_path, cert_path


def cmd_verify(args) -> int:
    emb_path, cert_path = _locate_verify_inputs(args.path, args.certificate)
    emb = embedding_from_json_dict(_load_json(str(emb_path)))
    stored = None
    if cert_path is not None:
        stored = certificate_from_json_dict(_load_json(str(cert_path)))
    cert, genus = components_certificate(emb)
    if stored is not None:
        if cert is None:
            raise VerificationError(
                "stored certificate describes a connected embedding but the "
                "file is disconnected")
        cert = replace(cert, construction_tag=stored.construction_tag)
        if cert != stored:  # both typed exactly, so equal as JSON too
            raise VerificationError(
                f"certificate mismatch: stored genus {stored.genus}, "
                f"recomputed {cert.genus}")
    if args.json:
        payload = (certificate_to_json_dict(cert) if cert is not None
                   else {"genus": genus, "connected": False})
        payload["verified"] = stored is not None
        print(json.dumps(payload))
    elif cert is not None:
        extra = " certificate-match" if stored is not None else ""
        print(f"ok: genus={cert.genus} n={cert.n} m={cert.m} f={cert.f} "
              f"quadrilateral={cert.quadrilateral} "
              f"minimal={cert.minimal}{extra}")
    else:
        print(f"ok: disconnected, total genus={genus}")
    return 0


def cmd_faces(args) -> int:
    """The traced faces, then one face per isolated vertex, as the
    certificate counts it: a 0-gon, with no darts."""
    emb = embedding_from_json_dict(_load_json(args.path))
    if emb.graph.n == 0:
        raise InvalidParameterError("empty graph has no faces")
    faces = [[list(d) for d in fc] for fc in trace_faces(emb)]
    faces += [[] for row in emb.graph.adj if not row]
    hist = Counter(map(len, faces))
    if args.json:
        print(json.dumps({
            "count": len(faces),
            "lengths": {str(k): v for k, v in sorted(hist.items())},
            "faces": faces}))
    else:
        shape = " ".join(f"{v}x{k}-gon" for k, v in sorted(hist.items()))
        print(f"{len(faces)} faces: {shape}")
    return 0


def cmd_genus(args) -> int:
    if args.formula not in FORMULAS:
        known = ", ".join(sorted(FORMULAS))
        raise InvalidParameterError(
            f"unknown formula {args.formula!r}; choose from {known}")
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise ExprSyntaxError(f"--params is not valid JSON: {exc}")
    except ValueError as exc:  # an integer literal past the digit limit
        raise InvalidParameterError(f"--params: {exc}")
    if not isinstance(params, dict):
        raise InvalidParameterError("--params must be a JSON object")
    for key, value in params.items():
        if not all(map(is_json_int,
                       value if isinstance(value, list) else [value])):
            raise InvalidParameterError(
                f"--params: {key!r} must be an integer or a list of integers")
    try:
        value = FORMULAS[args.formula](**params)
    except TypeError as exc:
        raise InvalidParameterError(f"bad parameters for "
                                    f"{args.formula}: {exc}")
    try:
        text = json.dumps({"formula": args.formula, "params": params,
                           "genus": value})
    except ValueError as exc:  # the genus is past the int -> str digit limit
        raise InvalidParameterError(
            f"genus of {args.formula} for these parameters is too large to "
            f"print: {exc}")
    print(text)
    return 0


def cmd_oracle(args) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args.out)
    graph = graph_from_json_dict(_load_json(args.path))
    budget = SearchBudget(max_rotation_systems=args.budget, seed=args.seed,
                          target_genus=args.target)
    try:
        result = exhaustive_min_genus(graph, budget)
    except BudgetExceededError:
        result = stochastic_search(graph, budget)
    bound = result.quad_bound
    summary = {"best_genus": result.best_genus,
               "exhaustive": result.exhaustive,
               "explored": result.explored,
               "lower_bound": bound,
               "seed": args.seed}
    if args.json:
        print(json.dumps(summary))
    else:
        method = "exhaustive" if result.exhaustive else "stochastic"
        tail = f" lower_bound={bound}" if bound is not None else ""
        print(f"{method}: best_genus={result.best_genus} "
              f"explored={result.explored}{tail}")
    if out:
        manifest = RunManifest(
            "oracle",
            {"target": args.target, "budget": args.budget},
            [args.path], [], args.seed, __version__, 0.0)
        manifest.outputs.append(_write(
            out, "witness.json", embedding_to_json_dict(result.witness)))
        manifest.outputs.append(_write(
            out, "oracle.json", {**summary, "witness_file": "witness.json"}))
        _finish_manifest(out, manifest, t0)
    return 0


def cmd_selftest(args) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args.out)
    outcomes = run_selftest(seed=args.seed, out_dir=out)
    for oc in outcomes:
        status = "PASS" if oc.passed else "FAIL"
        print(f"criterion {oc.number} {status} {oc.name} "
              f"({oc.elapsed:.2f} s)")
        if not oc.passed:
            print(f"  detail: {oc.details.get('failure') or oc.details}")
    total = time.perf_counter() - t0
    good = sum(1 for oc in outcomes if oc.passed)
    print(f"selftest: {good}/{len(outcomes)} passed in {total:.2f} s")
    if out:
        manifest = RunManifest(
            "selftest", {}, [],
            [f"criterion_{oc.number:02d}.json" for oc in outcomes]
            + ["report.json"],
            args.seed, __version__, 0.0)
        _finish_manifest(out, manifest, t0)
    return 0 if good == len(outcomes) else 1


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; every parse_args
    call fills a fresh namespace, so no parsed state carries over."""
    parser = argparse.ArgumentParser(
        prog="quadgenus",
        description="Minimum-genus quadrilateral embeddings of repeated "
                    "Cartesian products, with machine-checked certificates.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a product graph from an "
                                     "expression like 'K(4,4) x C(6)'")
    p.add_argument("expr")
    p.add_argument("--out", help="directory for graph.json")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("embed", help="construct a certified minimum-genus "
                                     "embedding for a supported family")
    p.add_argument("expr")
    p.add_argument("--out", help="directory for embedding, certificate and "
                                 "per-step handle counts")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("verify", help="re-trace an embedding file and check "
                                      "its stored certificate")
    p.add_argument("path", help="embed output directory or embedding JSON "
                                "file")
    p.add_argument("--certificate", help="certificate file to check against")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("faces", help="trace and summarize the faces of an "
                                     "embedding file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_faces)

    p = sub.add_parser("genus", help="evaluate a closed-form genus formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--params", required=True,
                   help='JSON object, e.g. \'{"i": 1, "r": 2, '
                        '"m_list": [2, 2]}\'; an m_list entry m stands '
                        'for the factor C(2m) or P(2m)')
    p.set_defaults(fn=cmd_genus)

    p = sub.add_parser("oracle", help="search rotation systems of a small "
                                      "graph for its minimum genus")
    p.add_argument("path", help="graph JSON file")
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for oracle.json and the witness")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("selftest", help="run the full acceptance grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for per-criterion artifacts")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
