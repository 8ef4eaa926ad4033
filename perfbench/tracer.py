"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of each quadgenus layer at run time,
wherever a ``quadgenus`` module binds them: ``trace_faces``, for
example, is imported by name into constructions, surgery, oracle, cli and
selftest, and every one of those bindings is replaced.  Nothing under
``src/`` changes.

Spans are aggregated in memory, keyed by (operation, parent span, span),
so a traced pass costs a few dictionary updates per wrapped call however
long it runs.  A span's self time is its duration minus the time covered
by the wrapped calls made directly inside it.

A target whose module or function no longer exists (a later refactor may
rename or delete it) is listed in ``absent`` instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


def _darts(args, kwargs, result) -> dict:
    return {"embeddings.darts": sum(len(face) for face in result.faces)}


def _exhaustive(args, kwargs, result) -> dict:
    return {"oracle.explored": result.explored,
            "oracle.explored_exhaustive": result.explored}


def _stochastic(args, kwargs, result) -> dict:
    budget = args[1] if len(args) > 1 else kwargs.get("budget")
    targeted = budget is not None and budget.target_genus is not None
    return {"oracle.explored": result.explored,
            "oracle.explored_stochastic": result.explored,
            "oracle.explored_to_target": result.explored if targeted else 0}


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``quadgenus.<module>.<name>``, reported as the
    span ``<layer>.<name>``.  ``counts`` maps a call's arguments and
    result to counters added under the current operation."""

    layer: str
    module: str
    name: str
    counts: Optional[Callable] = None

    @property
    def span(self) -> str:
        return f"{self.layer}.{self.name}"


def _targets(layer: str, module: str, names: str) -> tuple:
    return tuple(Target(layer, module, name) for name in names.split())


# Functions called at most once per face or per handle.  Helpers called
# once per dart or per face inside a trace (canonical_face, _face_count)
# are left unwrapped: wrapping them would cost more than they do.
TARGETS: tuple[Target, ...] = (
    _targets("graphs", "graphs",
             "parse_family_expr cartesian_product is_bipartite is_connected "
             "connected_components make_complete_bipartite make_cycle "
             "make_path graph_to_json_dict graph_from_json_dict")
    + (Target("graphs", "graphs", "build_family"),
       Target("graphs", "constructions", "same_labeled_graph"),
       Target("embeddings", "embeddings", "trace_faces", _darts))
    + _targets("embeddings", "embeddings",
               "euler_genus validate_embedding mirror genus_lower_bound "
               "components_certificate subembedding is_quadrilateral "
               "embedding_to_json_dict embedding_from_json_dict "
               "certificate_to_json_dict certificate_from_json_dict "
               "canonical_json_bytes")
    + _targets("surgery", "surgery",
               "add_handle remove_handle link_copies partition_faces_K2r2r "
               "reservoir_from_links check_reservoir quad_faces "
               "handle_record_to_json_dict")
    + _targets("constructions", "constructions",
               "embed_family classify_family embed_K2r2r embed_cube "
               "embed_cube_cycle embed_cube_cycles embed_cube_path "
               "embed_cube_paths")
    + (Target("oracle", "oracle", "exhaustive_min_genus", _exhaustive),
       Target("oracle", "oracle", "stochastic_search", _stochastic))
    + _targets("oracle", "oracle", "rotation_space_size certify_minimum")
    # cli._write and cli._load_json are the only places artifact bytes
    # are written and read, so they are wrapped although private.
    + _targets("cli", "cli", "main _write _load_json")
    + _targets("selftest", "selftest", "run_selftest run_criterion")
)


class Tracer:
    def __init__(self):
        # (op, parent span, span) -> [calls, total seconds, self seconds]
        self.edges: dict = defaultdict(lambda: [0, 0.0, 0.0])
        # (op, counter) -> value
        self.counters: dict = defaultdict(float)
        self.absent: list[str] = []
        self.op = ""
        self._stack: list[list] = []  # [span, seconds spent in children]

    def _wrap(self, span: str, fn: Callable, counts) -> Callable:
        edges, counters, stack = self.edges, self.counters, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = edges[(self.op, parent, span)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if counts is not None:
                try:
                    produced = counts(args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    self.absent.append(f"{span} counters")
                else:
                    for key, value in produced.items():
                        counters[(self.op, key)] += value
            return result

        return wrapper

    def install(self, targets=TARGETS) -> Callable[[], None]:
        """Wrap every binding of each target in the loaded quadgenus
        modules; returns a function that puts the originals back."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "quadgenus" or name.startswith("quadgenus.")]
        patched = []
        for target in targets:
            owner = sys.modules.get(f"quadgenus.{target.module}")
            fn = getattr(owner, target.name, None)
            if not callable(fn):
                self.absent.append(target.span)
                continue
            wrapper = self._wrap(target.span, fn, target.counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, fn))

        def restore():
            for mod, attr, fn in reversed(patched):
                setattr(mod, attr, fn)

        return restore

    # -- queries -----------------------------------------------------------

    def _sum(self, index: int, span: str, op=None, parent=None) -> float:
        return sum(rec[index] for (o, p, s), rec in self.edges.items()
                   if s == span and (op is None or o == op)
                   and (parent is None or p == parent))

    def calls(self, span: str, op=None, parent=None) -> int:
        return int(self._sum(0, span, op, parent))

    def total_s(self, span: str, op=None) -> float:
        return self._sum(1, span, op)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(rec[2] for (_, _, s), rec in self.edges.items()
                   if s.startswith(prefix))

    def counter(self, key: str, op=None) -> float:
        return sum(v for (o, k), v in self.counters.items()
                   if k == key and (op is None or o == op))

    def summary(self) -> list[dict]:
        """Every aggregated span edge, heaviest first."""
        rows = [{"op": o, "parent": p, "span": s, "calls": rec[0],
                 "total_s": rec[1], "self_s": rec[2]}
                for (o, p, s), rec in self.edges.items()]
        return sorted(rows, key=lambda row: -row["total_s"])
