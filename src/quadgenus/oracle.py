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
``_below``) in a restart's shuffle and inline in a swap.  One labeller,
``_label``, numbers orbits: a restart numbers every orbit 0 .. f-1, so
it counts the faces.  A swap of two neighbours at v changes the
successors of the changed darts C, the at most four darts entering v
from the positions i-1, i, j-1 and j, and of no other dart, so the
orbits that miss C are faces before the swap and after, and the face
count moves by the orbits through C after it less those before it.

When every dart of C lies on its own orbit the swap loses two faces.
Write s and t for the successors before and after the swap, (p) for
the dart from neighbour p into v and p_k for the neighbour at position
k before it.  The new successors of C are the old ones, permuted: t(c)
= s(c') for one c' in C, and from s(c') the old orbit of c' runs back
to c' along successors the swap keeps, meeting no other dart of C.  So
after the swap the orbits through C are the cycles of c -> c' on C.
When i and j are not adjacent that map exchanges (p_{i-1}) with
(p_{j-1}) and (p_i) with (p_j): (p_{i-1}) now leads out to p_j, as
(p_{j-1}) did, and (p_i), now at position j, out to p_{j+1}, as (p_j)
did; four orbits become two.  When j = i + 1 it is the one cycle
(p_{i-1}) -> (p_i) -> (p_{i+1}) -> (p_{i-1}) on three darts, and three
orbits become one; the same holds with i and j exchanged.  The swap
only permutes the neighbours at those positions, so C's ids are read
before it is made, and when they are distinct it is rejected unmade.

Any other swap is made: the new successors of C are written and the
orbits through C numbered from the next free id; the count of new ids
less that of distinct old ids on C is the change in faces.  A swap that
loses faces restores the successors and numbers the old orbits through
C afresh.  Ids are only compared, so none is reused.

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


def _label(succ: list[int], fid: list[int], starts, first: int) -> int:
    """Give each orbit of ``succ`` through a dart of ``starts`` whose id
    is below ``first`` a fresh id, ``first`` on; return the next free
    id.  Every other dart keeps its id."""
    k = first
    for start in starts:
        if fid[start] < first:
            fid[start] = k
            dart = succ[start]
            while dart != start:
                fid[dart] = k
                dart = succ[dart]
            k += 1
    return k


def stochastic_search(graph: Graph,
                      budget: SearchBudget = SearchBudget()) -> OracleResult:
    """Seeded random-restart hill climbing on the face count.

    Within a restart: random rotation system, compared with the best
    before any move (the search stops there if it meets the target),
    then repeated single-vertex perturbations (swap two neighbours in one
    rotation), accepting any move that does not lose faces.  A restart
    ends after restart_stall evaluations without strict improvement.
    Each restart numbers every orbit with ``_label``.  A swap whose
    changed darts lie on distinct orbits loses two faces and is rejected
    unmade; any other is made and scored by numbering the orbits through
    its changed darts afresh, and one it rejects is undone and those
    orbits numbered again (see the module docstring).
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
        fid = [-1] * index.size
        current_f = top = _label(succ, fid, range(index.size), 0)
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
            # write the new successors of C (where c1 is c2, or c0 is c3,
            # the later write is the right one), then number the orbits
            # through C afresh from top: the orbits that miss C keep
            # their ids and their successors
            row[i], row[j] = a, b
            ov = outof[v]
            s0, s1, s2, s3 = succ[c0], succ[c1], succ[c2], succ[c3]
            succ[c0], succ[c2] = ov[a], ov[b]
            succ[c1], succ[c3] = ov[row[(j + 1) % d]], ov[row[(i + 1) % d]]
            changed = c0, c1, c2, c3
            new = _label(succ, fid, changed, top)
            delta = new - top - len({f0, f1, f2, f3})
            if delta < 0:
                row[i], row[j] = b, a
                succ[c0], succ[c1], succ[c2], succ[c3] = s0, s1, s2, s3
                top = _label(succ, fid, changed, new)
                stall += 1
                continue
            top = new
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

