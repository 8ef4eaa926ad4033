"""Independent genus search over rotation systems.

The constructions certify themselves through the quadrilateral lower
bound; this module is the second, construction-free route for small
graphs.  Exhaustive enumeration walks the product of every vertex's
(d-1)! cyclic orders, except that the first vertex's orders are taken up
to reversal: reversing all rotations at once preserves the face
structure, so each orientation class is visited exactly once and the
minimum is still exact.  The stochastic search does seeded random
restarts plus face-count hill climbing with sideways moves, which is
enough to pin down small torus graphs in a few thousand evaluations.

Faces are counted on the flat dart successor list of
:class:`~quadgenus.embeddings.DartIndex`, never on Embedding objects.
Exhaustive enumeration precomputes each cyclic order's successor patch.
The wheels (vertices with more than one cyclic order) are split by a
fixed rule: the block grows from the innermost wheel while its
combinations times its in-darts stay within sixteen times the darts of
the graph.  The outer wheels run on an odometer, each step writing the
patches of the vertices whose order changed (a suffix of the product).
Per outer setting one walk follows the successors from every out-dart o
of a block vertex to the first in-dart of a block vertex, ret(o), and
counts f_avoid, the orbits that meet no block in-dart; no dart it reads
has its successor set by the block, and it visits each dart once.  A
combination of block orders sends each block in-dart a to an out-dart
s(a), and P(a) = ret(s(a)) is a permutation of the block in-darts.  An
orbit through a block in-dart a runs a, s(a), ..., P(a) with no block
in-dart between, so its block in-darts are one cycle of P; every other
orbit is one of the f_avoid.  The system therefore has exactly
f_avoid + cycles(P) faces, counted in one step per block in-dart.
Combinations are scored in itertools.product order and the first best
is kept, so the result is the one a full recount of every system in
product order would give.

A stochastic swap of two neighbours at v changes the successors of at
most four darts entering v, so the face count moves by the number of
distinct orbits through those darts after the swap minus the number
before; a rejected swap writes the old successors back.  Each restart
counts all orbits once.

Both searchers are deterministic for a fixed seed.  Restarts draw their
generators from per-chunk seeds, so chunks could run in any order (or in
parallel) and the merged outcome would not change: the best face count
wins, ties broken by chunk index.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .errors import (BudgetExceededError, InvalidParameterError,
                     NotApplicableError)
from .embeddings import (DartIndex, Embedding, EmbeddingCertificate,
                         count_orbits, euler_genus)
from .graphs import Graph, is_bipartite, is_connected, is_json_int


@dataclass(frozen=True)
class SearchBudget:
    max_rotation_systems: int = 10_000_000
    seed: int = 0
    target_genus: Optional[int] = None
    restart_stall: int = 400  # hill-climb evaluations without improvement

    def __post_init__(self):
        # booleans are ints to Python but never a cap, seed or genus
        for name in ("max_rotation_systems", "restart_stall"):
            value = getattr(self, name)
            if not is_json_int(value) or value < 1:
                raise InvalidParameterError(
                    f"{name} must be a positive integer, got {value!r}")
        if not is_json_int(self.seed):
            raise InvalidParameterError(
                f"seed must be an integer, got {self.seed!r}")
        target = self.target_genus
        if target is not None and (not is_json_int(target) or target < 0):
            raise InvalidParameterError(
                f"target_genus must be a non-negative integer, got "
                f"{target!r}")


@dataclass(frozen=True)
class OracleResult:
    best_genus: int
    witness: Embedding
    exhaustive: bool
    explored: int


def _genus_from_faces(graph: Graph, f: int) -> int:
    return (2 - graph.n + graph.m - f) // 2


def rotation_space_size(graph: Graph) -> int:
    """Rotation systems counted once per orientation class: full (d-1)!
    cyclic orders everywhere except the first vertex, whose orders are
    halved (for degree >= 3) to quotient out global reflection."""
    size = 1
    for v in range(graph.n):
        d = graph.degree(v)
        orders = 1
        for k in range(1, d):
            orders *= k
        if v == 0 and d >= 3:
            orders //= 2
        size *= orders
    return size


def _block_size(wheels: list[tuple[int, int]], darts: int) -> int:
    """How many of the innermost wheels form the block.  ``wheels`` are
    (cyclic orders, degree) pairs, outermost first.  The block grows from
    the innermost wheel while its combinations times its in-darts stay
    within sixteen times the darts of the graph."""
    combos, in_darts, size = 1, 0, 0
    for orders, degree in reversed(wheels):
        combos *= orders
        in_darts += degree
        if combos * in_darts > 16 * darts:
            break
        size += 1
    return size


def exhaustive_min_genus(graph: Graph,
                         budget: SearchBudget = SearchBudget()) -> OracleResult:
    """True minimum genus by enumerating every rotation system.

    Refuses graphs whose quotient rotation space exceeds the budget cap;
    callers wanting an answer anyway should drop to stochastic_search.
    """
    if graph.n == 0 or not is_connected(graph):
        raise InvalidParameterError("need a non-empty connected graph")
    space = rotation_space_size(graph)
    if space > budget.max_rotation_systems:
        raise BudgetExceededError(
            f"rotation space {space} exceeds cap "
            f"{budget.max_rotation_systems}")

    def cyclic_orders(v: int):
        """All (d-1)! cyclic orders at v, anchored at the first neighbour.
        At the root vertex only one of each reversed pair is emitted:
        mirroring a whole rotation system keeps the genus, so the halved
        root set still meets every orientation class."""
        nbrs = graph.adj[v]
        if len(nbrs) <= 2:
            yield tuple(nbrs)
            return
        first = nbrs[0]
        for perm in itertools.permutations(nbrs[1:]):
            if v == 0 and perm[0] > perm[-1]:
                continue
            yield (first,) + perm

    index = DartIndex(graph)
    out = index.out
    # One (rotation, successor patch) entry per cyclic order.  The
    # vertices with more than one order are the wheels; the innermost
    # few form the block, the others run on the odometer, whose steps
    # change exactly a suffix of its positions.
    entries = [[(rot, index.patch(v, rot)) for rot in cyclic_orders(v)]
               for v in range(graph.n)]
    rotation = [orders[0][0] for orders in entries]
    succ = index.successors(rotation)
    wheels = [v for v in range(graph.n) if len(entries[v]) > 1]
    split = len(wheels) - _block_size(
        [(len(entries[v]), graph.degree(v)) for v in wheels], index.size)
    outer, block = wheels[:split], wheels[split:]
    # The block's in-darts get local ids 0, 1, ... grouped by vertex, and
    # ``local[d]`` is the local id of dart d, -1 off the block.  For each
    # order of a block vertex, ``targets`` lists the out-dart its patch
    # sends each of the vertex's in-darts to, in local id order.
    block_in: list[int] = []
    targets = []
    for v in block:
        ins = [out[u][v] for u in graph.adj[v]]
        block_in += ins
        targets.append([list(map(dict(patch).__getitem__, ins))
                        for _, patch in entries[v]])
    local = [-1] * index.size
    for i, dart in enumerate(block_in):
        local[dart] = i
    block_out = [out[v][u] for v in block for u in graph.adj[v]]
    others = [d for d in range(index.size) if local[d] < 0]
    block_ids = range(len(block_in))
    ret = [0] * index.size
    seen = [0] * index.size
    mark = [0] * len(block_in)
    current = tuple(entries[v][0] for v in outer)
    best_f = -1
    best: tuple = ()
    explored = 0
    for combo in itertools.product(*(entries[v] for v in outer)):
        k = len(combo) - 1
        while k >= 0 and combo[k] is not current[k]:
            for dart, nxt in combo[k][1]:
                succ[dart] = nxt
            k -= 1
        current = combo
        # One walk over the darts off the block: ret[o] is the first
        # block in-dart reached from the block out-dart o, and f_avoid
        # counts the orbits that never meet the block.
        stamp = explored + 1
        for start in block_out:
            dart = start
            while local[dart] < 0:
                seen[dart] = stamp
                dart = succ[dart]
            ret[start] = local[dart]
        f_avoid = count_orbits(succ, others, seen, stamp)
        # P of every block combination in itertools.product order, each
        # the concatenation of its vertices' segments
        perms = [()]
        for orders in targets:
            segments = [tuple(map(ret.__getitem__, outs)) for outs in orders]
            perms = [perm + segment for perm in perms for segment in segments]
        cycles = [count_orbits(perm, block_ids, mark, tick)
                  for tick, perm in enumerate(perms, explored + 1)]
        explored += len(cycles)
        most = max(cycles)
        if f_avoid + most > best_f:
            best_f = f_avoid + most
            best = combo + next(itertools.islice(
                itertools.product(*(entries[v] for v in block)),
                cycles.index(most), None))
    for v, (rot, _) in zip(wheels, best):
        rotation[v] = rot
    witness = Embedding(graph, tuple(rotation))
    return OracleResult(
        best_genus=_genus_from_faces(graph, best_f),
        witness=witness,
        exhaustive=True,
        explored=explored,
    )


def _chunk_rng(seed: int, chunk: int) -> random.Random:
    return random.Random((seed * 1_000_003 + chunk) & 0xFFFFFFFF)


def _swap(out: list[dict[int, int]], succ: list[int], seen: list[int],
          stamp: int, v: int, rot: list[int], i: int,
          j: int) -> tuple[int, list[tuple[int, int]]]:
    """Swap positions i and j of ``rot``, v's rotation (changed in place),
    and rewrite the successors this changes in ``succ``.

    Only the darts entering v from the neighbours at positions i-1, i,
    j-1 and j change successor, so the face count changes by the number
    of distinct orbits through them after the swap minus the number
    before.  Returns that change and the (dart, successor) pairs that
    undo the rewrite.  Marks ``seen`` with stamps ``stamp - 1`` and
    ``stamp``.
    """
    positions = (i - 1, i, j - 1, j)
    changed = {out[rot[p]][v] for p in positions}
    undo = [(dart, succ[dart]) for dart in changed]
    before = count_orbits(succ, changed, seen, stamp - 1)
    rot[i], rot[j] = rot[j], rot[i]
    ov, d = out[v], len(rot)
    for p in positions:
        succ[out[rot[p]][v]] = ov[rot[(p + 1) % d]]
    return count_orbits(succ, changed, seen, stamp) - before, undo


def stochastic_search(graph: Graph,
                      budget: SearchBudget = SearchBudget()) -> OracleResult:
    """Seeded random-restart hill climbing on the face count.

    Within a restart: random rotation system, then repeated single-vertex
    perturbations (swap two neighbours in one rotation), accepting any
    move that does not lose faces.  A restart ends after restart_stall
    evaluations without strict improvement.  Deterministic per seed; the
    result never beats the true minimum, so pair it with a lower bound or
    a target to know when it has won.
    """
    if graph.n == 0 or not is_connected(graph):
        raise InvalidParameterError("need a non-empty connected graph")
    target_f: Optional[int] = None
    if budget.target_genus is not None:
        target_f = 2 - 2 * budget.target_genus - graph.n + graph.m
    movable = [v for v in range(graph.n) if graph.degree(v) >= 3]
    index = DartIndex(graph)
    out = index.out
    darts = range(index.size)
    seen = [0] * index.size
    stamp = 0
    best_f = -1
    best_rot: Optional[list[tuple[int, ...]]] = None
    explored = 0
    chunk = 0
    while explored < budget.max_rotation_systems:
        rng = _chunk_rng(budget.seed, chunk)
        chunk += 1
        rotation = []
        for v in range(graph.n):
            nbrs = list(graph.adj[v])
            rng.shuffle(nbrs)
            rotation.append(tuple(nbrs))
        succ = index.successors(rotation)
        stamp += 1
        current_f = count_orbits(succ, darts, seen, stamp)
        explored += 1
        stall = 0
        local_best = current_f
        while (stall < budget.restart_stall
               and explored < budget.max_rotation_systems):
            if not movable:
                break
            v = rng.choice(movable)
            rot = list(rotation[v])
            i, j = rng.sample(range(len(rot)), 2)
            stamp += 2
            delta, undo = _swap(out, succ, seen, stamp, v, rot, i, j)
            f = current_f + delta
            explored += 1
            if f >= current_f:
                rotation[v] = tuple(rot)
                current_f = f
                if f > local_best:
                    local_best = f
                    stall = 0
                else:
                    stall += 1
            else:
                for dart, nxt in undo:
                    succ[dart] = nxt
                stall += 1
            if current_f > best_f:
                best_f = current_f
                best_rot = [r for r in rotation]
                if target_f is not None and best_f >= target_f:
                    break
        if best_rot is None:
            # The budget or the graph allowed no move: the restart's
            # first system is the only one scored.
            best_f, best_rot = current_f, rotation
        if target_f is not None and best_f >= target_f:
            break
        if not movable:
            break
    witness = Embedding(graph, tuple(best_rot))
    return OracleResult(
        best_genus=_genus_from_faces(graph, best_f),
        witness=witness,
        exhaustive=False,
        explored=explored,
    )


def certify_minimum(graph: Graph, e: Embedding) -> EmbeddingCertificate:
    """Certificate for an embedding of a bipartite graph: minimal is True
    exactly when the embedding's genus meets the quadrilateral bound."""
    if is_bipartite(graph) is None:
        raise NotApplicableError(
            "certify_minimum uses the quadrilateral bound; graph must be "
            "bipartite")
    if e.graph.n != graph.n or e.graph.adj != graph.adj:
        raise InvalidParameterError("embedding does not embed this graph")
    return euler_genus(e)
