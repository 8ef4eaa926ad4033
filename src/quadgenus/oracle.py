"""Independent genus search over rotation systems.

The constructions certify themselves through the quadrilateral lower
bound; this module is the second, construction-free route for small
graphs.  Exhaustive enumeration walks the product of every vertex's
(d-1)! cyclic orders, except that the root's orders are taken up to
reversal, the root being the first vertex of degree at least 3 (the
only vertices whose reversed orders differ): reversing all rotations at
once preserves the face structure, so each orientation class is visited
exactly once and the minimum is still exact.  The stochastic search
does seeded random restarts plus face-count hill climbing with sideways
moves, which is enough to pin down small torus graphs in a few thousand
evaluations.

Faces are counted on the flat dart successor list of
:class:`~quadgenus.embeddings.DartIndex`, never on Embedding objects.
Exhaustive enumeration precomputes each cyclic order's successor patch.
The wheels (vertices with more than one cyclic order) run on one
odometer in product order: each step writes the patches of the wheels
whose order changed (a suffix of the product) and counts every orbit of
the system, and the first system with the most faces is kept.

Enumeration stops at the first system that meets the Euler lower bound,
because no system can have more faces.  In a connected simple graph
other than K2 a face of length 1 needs a loop, and one of length 2,
the walk (u, v), (v, u), needs u and v both of degree 1, so every face
has length at least 3; in a bipartite graph every closed walk, so every
face, has even length, at least 4.  The face lengths sum to 2m, so
f <= 2m/4 (bipartite) or f <= 2m/3, and Euler's formula
n - m + f = 2 - 2g turns that into g >= 1 + m/4 - n/2 or
g >= (m - 3n + 6)/6; rounded up and floored at zero that is the bound
lb (trees, K1 and K2 are bipartite and get 0), and no system has more
than f_cap = 2 - n + m - 2 lb faces.  The first system with f_cap faces
is therefore the first best, the one a full enumeration keeps, and the
search reports its position in product order as ``explored``.  Both
searches walk the graph once, by embeddings._connected_quad_bound: one
graphs.components walk refuses a graph that is not one component, and
its bipartite flag says which bound applies.

A stochastic restart holds each rotation as a row of local positions,
k for the k-th neighbour in v's adjacency, and reads the darts into and
out of v at position k from two lists indexed by position; the witness
is mapped back to neighbours once, at the end.  Every random draw is
``random``'s own, replayed on ``getrandbits``: by ``below(n)`` (see
``_below``) in a restart's shuffle and inline in a swap.  A swap of two
neighbours at v changes the successors of the changed darts C, the at
most four darts entering v from the positions i-1, i, j-1 and j, and of
no other dart.  Each restart walks every orbit once
and labels each dart d with its orbit id fid[d] and position fpos[d],
and each orbit with its length.  A swap is then scored with no walk.
An orbit that meets no dart of C keeps all its successors, so it is a
face before the swap and after.  The old and the new successors of C
are the same out-darts of v, none of them in C, so each new successor
t(c) of a dart c in C lies on an old orbit through C, and reach(t),
the dart of C on t's orbit at the least positive offset
(fpos[reach] - fpos[t]) mod length, is reached from t along successors
the swap keeps.  After the swap an orbit through c runs c, t(c), ...,
reach(t(c)) with no dart of C between, so the orbits through C are the
cycles of c -> reach(t(c)); before it they are the distinct fid values
over C, and the face count moves by the difference.  When every dart
of C lies on its own orbit, reach(t(c)) is the dart of C whose old
successor was t(c).  Writing (p) for the dart from neighbour p into v
and p_k for the neighbour at position k before the swap, that map
exchanges (p_{i-1}) with (p_{j-1}) and (p_i) with (p_j), two cycles on
four darts, or is one cycle on three when i and j are adjacent; either
way the swap loses two faces.  The swap only permutes the neighbours at
those positions, so C's fids are read before it is made, and when they
are distinct it is rejected unmade, with no list built.  Any other swap
is made and scored, and undone if it loses faces; an accepted one writes
the new successors and relabels the orbits through C in one walk.

Both searchers are deterministic for a fixed seed.  Each restart of
the stochastic search draws from its own generator, seeded from the
search seed and the restart's index; one ``explored`` counter and one
cap run across the restarts in order, so where the last restart is cut
depends on the restarts before it.  The first system with the most
faces is kept.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from math import factorial, prod
from typing import Callable, Optional

from .errors import BudgetExceededError, InvalidParameterError
from .embeddings import (DartIndex, Embedding, _connected_quad_bound,
                         count_orbits)
from .graphs import Graph, is_json_int


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
    quad_bound: Optional[int]  # None when the graph is not bipartite


def _genus_from_faces(graph: Graph, f: int) -> int:
    return (2 - graph.n + graph.m - f) // 2


def _face_cap(graph: Graph, quad: Optional[int]) -> int:
    """The most faces a rotation system of the connected graph can have:
    Euler's formula at the quadrilateral bound ``quad`` of a bipartite
    graph, or at the triangle bound ceil((m - 3n + 6) / 6) floored at
    zero of any other (see the module docstring)."""
    lb = quad if quad is not None else max(
        0, -((3 * graph.n - 6 - graph.m) // 6))
    return 2 - graph.n + graph.m - 2 * lb


def _root(graph: Graph) -> int:
    """The vertex whose cyclic orders are taken up to reversal: the first
    of degree >= 3 (-1 if there is none, and then every vertex has one
    cyclic order, its own reversal)."""
    return next((v for v in range(graph.n) if graph.degree(v) >= 3), -1)


def rotation_space_size(graph: Graph) -> int:
    """Rotation systems counted once per orientation class: full (d-1)!
    cyclic orders at every vertex except the root, the first vertex of
    degree >= 3, whose (d-1)!/2 reversal pairs quotient out global
    reflection."""
    size = prod(factorial(d - 1) ** count
                for d, count in Counter(map(len, graph.adj)).items() if d)
    return size // 2 if _root(graph) >= 0 else size


def exhaustive_min_genus(graph: Graph,
                         budget: SearchBudget = SearchBudget()) -> OracleResult:
    """True minimum genus by enumerating rotation systems in product
    order until one meets the Euler lower bound, or all of them.

    The first best system is the witness; ``explored`` is its position
    in product order when it meets the bound (no later system can beat
    it, see the module docstring), and the whole quotient space
    otherwise.  The budget's target genus plays no part.  Refuses graphs
    whose quotient rotation space exceeds the budget cap, whether or not
    the bound would stop the search early; callers wanting an answer
    anyway should drop to stochastic_search.  The space is multiplied up
    vertex by vertex only until half of it passes the cap, so a refusal
    costs no more than the vertices read before it, and no graph walk.
    """
    cap, space = budget.max_rotation_systems, 1
    for v in range(graph.n):
        for k in range(2, graph.degree(v)):
            space *= k
        # the quotient halves at the root, which any product above 1 has met
        if space // 2 > cap:
            raise BudgetExceededError(
                f"rotation space exceeds cap {cap} by vertex {v}")
    quad = _connected_quad_bound(graph)
    f_cap = _face_cap(graph, quad)

    root = _root(graph)

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
            if v == root and perm[0] > perm[-1]:
                continue
            yield (first,) + perm

    index = DartIndex(graph)
    # One (rotation, successor patch) entry per cyclic order.  The
    # vertices with more than one order are the wheels; they run on an
    # odometer, whose steps change exactly a suffix of its positions.
    entries = [[(rot, index.patch(v, rot)) for rot in cyclic_orders(v)]
               for v in range(graph.n)]
    rotation = [orders[0][0] for orders in entries]
    succ = index.successors(rotation)
    wheels = [v for v in range(graph.n) if len(entries[v]) > 1]
    darts = range(index.size)
    seen = [0] * index.size
    current = tuple(entries[v][0] for v in wheels)
    best_f = -1
    best: tuple = ()
    explored = 0
    for combo in itertools.product(*(entries[v] for v in wheels)):
        k = len(combo) - 1
        while k >= 0 and combo[k] is not current[k]:
            for dart, nxt in combo[k][1]:
                succ[dart] = nxt
            k -= 1
        current = combo
        explored += 1
        f = count_orbits(succ, darts, seen, explored)
        if f > best_f:
            best_f, best = f, combo
            if f == f_cap:  # no system has more faces
                break
    for v, (rot, _) in zip(wheels, best):
        rotation[v] = rot
    witness = Embedding(graph, tuple(rotation))
    return OracleResult(
        best_genus=_genus_from_faces(graph, best_f),
        witness=witness,
        exhaustive=True,
        explored=explored,
        quad_bound=quad,
    )


def _chunk_rng(seed: int, chunk: int) -> random.Random:
    return random.Random((seed * 1_000_003 + chunk) & 0xFFFFFFFF)


def _below(rng: random.Random) -> Callable[[int], int]:
    """``below(n)``, a draw below n >= 1 exactly as ``rng.randrange(n)``
    draws it.  The CPython 3.10-3.13 code, ``_randbelow_with_getrandbits``,
    takes ``getrandbits(n.bit_length())`` until the value is below n;
    ``choice(seq)`` draws ``seq[below(len(seq))]``, ``shuffle`` swaps
    position k with ``below(k + 1)`` for k from the last down to 1, and
    ``sample`` draws as ``_positions`` shows.  The public ``getrandbits``
    replays them without their wrappers; the swap loop inlines ``below``."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def _positions(below: Callable[[int], int], d: int) -> tuple[int, int]:
    """Two distinct positions below d, drawn through ``below`` (see
    ``_below``) exactly as ``rng.sample(range(d), 2)`` draws them (the
    CPython 3.10-3.13 code: a pool below 22 items, rejection above)
    without building a sample, as the swap loop draws them inline."""
    i = below(d)
    if d <= 21:
        j = below(d - 1)
        return i, (d - 1 if j == i else j)
    j = below(d)
    while j == i:
        j = below(d)
    return i, j


def _walk(succ: list[int], start: int, k: int, fid: list[int],
          fpos: list[int]) -> int:
    """Label the orbit of ``start`` with id k and positions 0, 1, ...
    from ``start``; return its length."""
    fid[start], fpos[start] = k, 0
    pos = 1
    dart = succ[start]
    while dart != start:
        fid[dart], fpos[dart] = k, pos
        pos += 1
        dart = succ[dart]
    return pos


def _orbit_labels(succ: list[int]) -> tuple[list[int], list[int],
                                            list[int]]:
    """Orbit id and position of every dart of ``succ`` and the length of
    every orbit, ids 0 .. faces-1, in one walk."""
    fid, fpos, flen = [-1] * len(succ), [0] * len(succ), []
    for dart in range(len(succ)):
        if fid[dart] < 0:
            flen.append(_walk(succ, dart, len(flen), fid, fpos))
    return fid, fpos, flen


def stochastic_search(graph: Graph,
                      budget: SearchBudget = SearchBudget()) -> OracleResult:
    """Seeded random-restart hill climbing on the face count.

    Within a restart: random rotation system, compared with the best
    before any move (the search stops there if it meets the target),
    then repeated single-vertex perturbations (swap two neighbours in one
    rotation), accepting any move that does not lose faces.  A restart
    ends after restart_stall evaluations without strict improvement.
    Each restart labels every dart with its orbit and position in one
    walk; a swap is scored from those labels (see the module docstring),
    and only an accepted swap walks, along the orbits it changed.
    Deterministic per seed; the result never beats the true minimum, so
    pair it with a lower bound or a target to know when it has won.
    """
    quad = _connected_quad_bound(graph)
    target_f: Optional[int] = None
    if budget.target_genus is not None:
        target_f = 2 - 2 * budget.target_genus - graph.n + graph.m
    cap, restart_stall = budget.max_rotation_systems, budget.restart_stall
    movable = [v for v in range(graph.n) if graph.degree(v) >= 3]
    # bit lengths of the draws below len(movable) and below each degree
    nmov, mbits = len(movable), len(movable).bit_length()
    bits = [k.bit_length() for k in range(max(map(len, graph.adj)) + 1)]
    index = DartIndex(graph)
    out = index.out
    # Rows hold local positions: k stands for the k-th neighbour of v in
    # graph.adj[v], and into[v][k] and outof[v][k] are the darts from it
    # into v and from v out to it.
    into = [[out[u][v] for u in nbrs] for v, nbrs in enumerate(graph.adj)]
    outof = [list(darts.values()) for darts in out]
    best_f = -1
    best_rows: list[list[int]] = []
    explored = 0
    chunk = 0
    while explored < cap:
        rng = _chunk_rng(budget.seed, chunk)
        below, getrandbits = _below(rng), rng.getrandbits
        chunk += 1
        rows = []
        succ = [0] * index.size
        for iv, ov in zip(into, outof):
            row = list(range(len(iv)))
            for k in range(len(row) - 1, 0, -1):  # rng.shuffle(row)
                p = below(k + 1)
                row[k], row[p] = row[p], row[k]
            rows.append(row)
            if row:
                prev = row[-1]
                for k in row:
                    succ[iv[prev]] = ov[k]
                    prev = k
        fid, fpos, flen = _orbit_labels(succ)
        current_f = len(flen)
        explored += 1
        if current_f > best_f:
            best_f, best_rows = current_f, [row[:] for row in rows]
            if target_f is not None and best_f >= target_f:
                break
        if not movable:
            break
        stall = 0
        local_best = current_f
        while stall < restart_stall and explored < cap:
            v = getrandbits(mbits)  # v, i, j as choice and _positions draw
            while v >= nmov:
                v = getrandbits(mbits)
            v = movable[v]
            row = rows[v]
            d = len(row)
            k = bits[d]
            i = getrandbits(k)
            while i >= d:
                i = getrandbits(k)
            n = d - 1 if d <= 21 else d  # sample's pool, or rejection
            k = bits[n]
            j = getrandbits(k)
            while j >= n or j == i and n == d:
                j = getrandbits(k)
            if j == i:
                j = d - 1
            # the changed darts, read before the swap (c1 is c2 when j
            # follows i, c0 is c3 when i follows j; no others coincide)
            iv, a, b = into[v], row[j], row[i]
            c0, c1, c2, c3 = iv[row[i - 1]], iv[b], iv[row[j - 1]], iv[a]
            f0, f1, f2, f3 = fid[c0], fid[c1], fid[c2], fid[c3]
            explored += 1
            if (f0 != f1 and f0 != f2 and f1 != f3 and f2 != f3
                    and (f1 != f2 or c1 == c2) and (f0 != f3 or c0 == c3)):
                stall += 1  # on distinct orbits: loses two faces
                continue
            row[i], row[j] = a, b
            # each changed dart once, with its id and its new successor
            ov = outof[v]
            changed, ids = [c0, c1, c2, c3], [f0, f1, f2, f3]
            targets = [ov[a], ov[row[(j + 1) % d]], ov[b],
                       ov[row[(i + 1) % d]]]
            if c1 == c2:
                del changed[2], ids[2], targets[2]
            elif c0 == c3:
                del changed[0], ids[0], targets[0]
            free = set(ids)
            # link[x]: the changed dart reached first from changed dart
            # x's new successor t, along successors the swap keeps: the
            # one changed dart on t's orbit, or of several the one at the
            # least positive offset
            link = []
            for t in targets:
                k = fid[t]
                if ids.count(k) == 1:
                    link.append(ids.index(k))
                    continue
                base = fpos[t]
                length = near = flen[k]
                for x, c in enumerate(changed):
                    if ids[x] == k:
                        off = (fpos[c] - base) % length
                        if off < near:
                            near, reach = off, x
                link.append(reach)
            # one head per cycle of link, that is per orbit through the
            # changed darts after the swap
            heads = []
            for x in range(len(link)):
                if link[x] >= 0:
                    heads.append(x)
                    while link[x] >= 0:
                        link[x], x = -1, link[x]
            delta = len(heads) - len(free)
            if delta < 0:
                row[i], row[j] = b, a
                stall += 1
                continue
            # accepted: write the new successors and relabel the orbits
            # through the changed darts, reusing the ids of the orbits
            # they replace (never more than the new ones), so the ids
            # stay 0 .. faces-1
            for c, t in zip(changed, targets):
                succ[c] = t
            for x in heads:
                if free:
                    k = free.pop()
                    flen[k] = _walk(succ, changed[x], k, fid, fpos)
                else:
                    flen.append(_walk(succ, changed[x], len(flen), fid,
                                      fpos))
            current_f += delta
            if current_f > local_best:
                local_best = current_f
                stall = 0
            else:
                stall += 1
            if current_f > best_f:
                best_f, best_rows = current_f, [row[:] for row in rows]
                if target_f is not None and best_f >= target_f:
                    break
        if target_f is not None and best_f >= target_f:
            break
    witness = Embedding(graph, tuple(
        tuple(map(nbrs.__getitem__, row))
        for nbrs, row in zip(graph.adj, best_rows)))
    return OracleResult(
        best_genus=_genus_from_faces(graph, best_f),
        witness=witness,
        exhaustive=False,
        explored=explored,
        quad_bound=quad,
    )

