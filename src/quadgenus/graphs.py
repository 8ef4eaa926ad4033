"""Simple undirected graphs, standard families, and Cartesian products.

Vertices are integers 0..n-1.  Adjacency is kept sorted per vertex; the
cyclic orderings that define embeddings live in :mod:`quadgenus.embeddings`.
Each vertex optionally carries a label: a tuple of factor coordinates that
survives Cartesian products by concatenation, so a vertex of K(4,4) x C(6)
is labelled e.g. ``("a2", 5)``.  Labels are what make graphs produced by
different vertex numberings comparable.

A product has one numbering, the one the constructions build: the first
factor is the least significant digit, so vertex ``(x_1, ..., x_k)`` of
factors with n_1, ..., n_k vertices is ``x_1 + n_1 * (x_2 + n_2 * (...))``,
and its label concatenates the factor labels from the first factor on.
product_vertices is the only place this is spelled out; build_family
materialises it, and constructions.family_graph reads a construction's
rotation rows against it, one stream per level, and labels them from it.

components is the one graph walk.  A construction step reads from it
the sides of its factor graph's 2-colouring, where it mirrors copies; no
build walks a level's graph, as a product of connected bipartite factors
is connected and bipartite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import ExprSyntaxError, InvalidParameterError

Label = tuple


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with sorted adjacency lists."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    labels: Optional[tuple[Label, ...]] = None

    @cached_property
    def m(self) -> int:
        """The edge count, summed over the adjacency on the first read
        only.  The cached value is not a field: equality, hash and repr
        see n, adj and labels alone."""
        return sum(map(len, self.adj)) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically sorted."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def label_of(self, v: int) -> Label:
        if self.labels is not None:
            return self.labels[v]
        return (v,)


def from_edges(n: int, edges: Iterable[tuple[int, int]],
               labels: Optional[Sequence[Label]] = None) -> Graph:
    """Build a graph from an edge list, validating simplicity.

    This is the permissive door: anything simple goes, including odd cycles
    and asymmetric complete bipartite graphs, which the search oracle needs
    as non-bipartite and irregular controls.
    """
    if n < 0:
        raise InvalidParameterError("vertex count must be non-negative")
    if labels is not None:
        if len(labels) != n:
            raise InvalidParameterError("labels length must equal vertex count")
        labels = tuple(map(tuple, labels))
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameterError(f"edge ({u},{v}) out of range for n={n}")
        rows[u].append(v)
        rows[v].append(u)
    return from_rows(n, rows, labels)


def from_rows(n: int, rows: Sequence[Sequence[int]], labels=None) -> Graph:
    """The graph in which vertex v has the neighbours rows[v], in any
    order, as in a rotation system.  One stream over the sorted rows, with
    no per-vertex set, checks that it is simple and names each edge at
    both ends: darts into w arrive in increasing v, as adj[w] lists them."""
    adj = tuple(map(tuple, map(sorted, rows)))
    at = [0] * n
    try:
        for v, nbrs in enumerate(adj):
            prev = -1
            for w in nbrs:
                if not prev < w != v or adj[w][at[w]] != v:
                    raise _row_refusal(v, w, prev, n)
                at[w] += 1
                prev = w
    except IndexError:  # w >= n, or every dart into w already matched
        raise _row_refusal(v, w, prev, n) from None
    return Graph(n, adj, labels)


def _row_refusal(v: int, w: int, prev: int, n: int) -> InvalidParameterError:
    """Why from_rows stopped at row v's entry w, after prev."""
    why = (f"out of range for n={n}" if not 0 <= w < n else "a loop"
           if w == v else "a repeat" if w == prev else
           f"but the rows naming {w} are not row {w}'s entries")
    return InvalidParameterError(f"row {v} names {w}, {why}")


def make_path(n: int) -> Graph:
    """Path on n >= 2 vertices, edges i - i+1."""
    if n < 2:
        raise InvalidParameterError(f"path needs at least 2 vertices, got {n}")
    return from_edges(n, [(i, i + 1) for i in range(n - 1)],
                      labels=[(i,) for i in range(n)])


def make_cycle(n: int) -> Graph:
    """Cycle on n vertices; n must be even and at least 4.

    Odd cycles are non-bipartite and outside every construction here, so
    this builder rejects them; tests that need one use :func:`from_edges`.
    """
    if n < 4 or n % 2 != 0:
        raise InvalidParameterError(
            f"cycle order must be even and >= 4, got {n}")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)],
                      labels=[(i,) for i in range(n)])


def make_complete_bipartite(s: int, t: int) -> Graph:
    """K(s,t) with part A = vertices 0..s-1, part B = s..s+t-1.

    The part is recorded in the label: "a0".."a{s-1}" and "b0".."b{t-1}".
    """
    if s < 1 or t < 1:
        raise InvalidParameterError("both parts need at least one vertex")
    edges = [(i, s + j) for i in range(s) for j in range(t)]
    labels = [(f"a{i}",) for i in range(s)] + [(f"b{j}",) for j in range(t)]
    return from_edges(s + t, edges, labels=labels)


def product_vertices(factors: Sequence[Graph]
                     ) -> Iterator[tuple[Label, tuple[int, ...]]]:
    """Label and sorted neighbours of each vertex of the Cartesian product
    of `factors`, vertex by vertex in the module's product numbering.

    A neighbour along a factor differs in that digit only, by a multiple
    of the factor's stride, so sorted neighbours are the lower neighbours
    along the factors from last to first, then the upper ones from first
    to last.  No adjacency of the product is held: a caller may stream."""
    if not factors or any(g.n == 0 for g in factors):
        raise InvalidParameterError("product factors must be non-empty")
    # per factor and digit x: x's label, and the offsets to its lower and
    # upper neighbours along the factor
    tables = []
    stride = 1
    for g in factors:
        tables.append([(g.label_of(x),
                        tuple((y - x) * stride for y in g.adj[x] if y < x),
                        tuple((y - x) * stride for y in g.adj[x] if y > x))
                       for x in range(g.n)])
        stride *= g.n
    p = 0
    # the digits of every factor but the first, most significant first;
    # the first factor's digit runs fastest, in the inner loop
    for high in product(*tables[:0:-1]):
        high_label = sum((lab for lab, _, _ in reversed(high)), ())
        high_lower = sum((lower for _, lower, _ in high), ())
        high_upper = sum((upper for _, _, upper in reversed(high)), ())
        for label, lower, upper in tables[0]:
            yield label + high_label, tuple(
                [p + d for d in high_lower + lower + upper + high_upper])
            p += 1


def product_graph(factors: Sequence[Graph]) -> Graph:
    """The Cartesian product of `factors`, numbered and labelled as
    product_vertices gives it."""
    labels, adj = zip(*product_vertices(factors))
    return Graph(len(adj), adj, labels)


def components(g: Graph) -> tuple[list[int], list[int], list[bool]]:
    """One flat walk of g: comp[v] is v's component, numbered in order of
    least vertex; side[v] is v's colour, 0 or 1, grown from that least
    vertex; bipartite[c] is whether no edge of component c joins a colour
    to itself.  No list is built per component, and g is connected when
    bipartite has one entry."""
    comp = [-1] * g.n
    side = [0] * g.n
    bipartite: list[bool] = []
    for start in range(g.n):
        if comp[start] != -1:
            continue
        c = comp[start] = len(bipartite)
        stack, proper = [start], True
        while stack:
            u = stack.pop()
            other = 1 - side[u]
            for v in g.adj[u]:
                if comp[v] == -1:
                    comp[v] = c
                    side[v] = other
                    stack.append(v)
                elif side[v] != other:
                    proper = False
        bipartite.append(proper)
    return comp, side, bipartite


# ---------------------------------------------------------------------------
# Family expressions.
#
# expr := term ('x' term)*
# term := K '(' int ',' int ')' | C '(' int ')' | P '(' int ')'
#       | Q '(' int ',' int ')'
#
# Q(i, t) abbreviates the i-fold product of K(t,t).  Whitespace is free.
# An atom is its letter followed by its integers: ("K", s, t), ("Q", i, t),
# ("C", n) or ("P", n); the levels of constructions.FamilyShape are atoms
# too.  Parameter validation happens in family_factors, not in the parser,
# so that syntax errors and semantic errors stay distinguishable.
# ---------------------------------------------------------------------------


class FamilyExpr(tuple):
    """A parsed expression: its atoms, left to right."""

    def __str__(self) -> str:
        return " x ".join(f"{letter}({','.join(map(str, params))})"
                          for letter, *params in self)


# One term and the whitespace after it.  \s and \d match exactly what
# str.isspace and str.isdecimal accept.
_TERM = re.compile(r"\s*([KQCP])\s*\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)\s*")
# The integers a left-to-right reading of a term reaches before it can
# refuse the rest: one past the digit limit is reported first.
_TERM_HEAD = re.compile(
    r"\s*(?:[KQ]\s*\(\s*(\d+)(?:\s*,\s*(\d+))?|[CP]\s*\(\s*(\d+))")


def _integers(digits: Iterable[Optional[str]]) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in digits if x is not None)
    except ValueError as exc:  # past Python's int <- str digit limit
        raise InvalidParameterError(f"integer too large: {exc}")


def parse_family_expr(text: str) -> FamilyExpr:
    """Parse a family expression such as ``"K(4,4) x C(6)"``: one match of
    the term pattern per term, with 'x' between terms.  K and Q take two
    integers, C and P one; a refused term is reported at its first
    non-space character."""
    atoms = []
    pos = 0
    while True:
        term = _TERM.match(text, pos)
        if term is None or (term[3] is None) != (term[1] in "CP"):
            head = _TERM_HEAD.match(text, pos)
            if head:
                _integers(head.groups())
            raise ExprSyntaxError(
                "expected a term K(s,t), Q(i,t), C(n) or P(n)",
                len(text) - len(text[pos:].lstrip()))
        atoms.append((term[1],) + _integers(term.groups()[1:]))
        pos = term.end()
        if pos == len(text):
            return FamilyExpr(atoms)
        if text[pos] != "x":
            raise ExprSyntaxError("unexpected trailing input", pos)
        pos += 1


def _atom_graph(atom: tuple) -> Graph:
    """The graph of one atom; for Q(i,t), its factor K(t,t)."""
    letter, *params = atom
    if letter == "Q":
        i, t = params
        if i < 1:
            raise InvalidParameterError(
                f"Q needs at least one factor, got i={i}")
        return make_complete_bipartite(t, t)
    if letter == "K":
        return make_complete_bipartite(*params)
    return (make_cycle if letter == "C" else make_path)(*params)


# Largest product, in darts (twice the edges), that family_factors admits:
# Q(6,4) has 6,291,456 darts; Q(3,64) has 402,653,184.
MAX_DARTS = 1 << 23


def _atom_size(atom: tuple) -> tuple[int, int]:
    """Vertex and edge counts of one atom (one fold of a Q)."""
    letter, *params = atom
    if letter == "K":
        s, t = params
        return s + t, s * t
    if letter == "Q":
        t = params[1]
        return 2 * t, t * t
    n = params[0]
    return n, (n if letter == "C" else n - 1)


def product_sizes(atoms: Iterable[tuple]) -> Iterator[tuple[int, int]]:
    """Vertex and edge counts of the product so far, after each factor
    (Q(i,t) is i factors K(t,t)), from the parameters alone: a product
    has n1*n2 vertices and m1*n2 + m2*n1 edges.  Lazy, so a caller may
    stop at any factor."""
    n, m = 1, 0
    for atom in atoms:
        an, am = _atom_size(atom)
        for _ in range(atom[1] if atom[0] == "Q" else 1):
            n, m = n * an, m * an + am * n
            yield n, m


def family_factors(expr: Union[str, FamilyExpr]) -> list[tuple[Graph, int]]:
    """The factors of an expression, left to right, as (graph, repeats).

    ``Q(i, t)`` is K(t,t) repeated i >= 1 times; every other atom appears
    once.  This is where parameters are validated: the atom builders
    reject e.g. ``C(5)``, which parses.  No product is taken, and before
    any atom is built a product of more than MAX_DARTS darts is refused
    (product_sizes stops there, so a huge i costs nothing).
    """
    if isinstance(expr, str):
        expr = parse_family_expr(expr)
    for n, m in product_sizes(expr):
        if 2 * m > MAX_DARTS:
            raise InvalidParameterError(
                f"{expr} has more than {MAX_DARTS} darts (2 x edges); "
                f"refused before building it")
        if n == 0:
            break  # an empty factor, which its builder refuses below
    return [(_atom_graph(atom), atom[1] if atom[0] == "Q" else 1)
            for atom in expr]


def build_family(expr: Union[str, FamilyExpr]) -> Graph:
    """The product of the expression's factors (see family_factors, which
    validates them all first), in the module's product numbering."""
    return product_graph([factor for factor, repeats in family_factors(expr)
                          for _ in range(repeats)])


# ---------------------------------------------------------------------------
# Serialization.  Graph files (`build` writes them, `oracle` reads them):
#   {"n": int, "edges": [[u, v], ...], "labels": [[...], ...]?}
# with edges normalized to u < v and sorted lexicographically.  Embedding
# files have no edge list; json_header reads n and labels for both.
# ---------------------------------------------------------------------------


def graph_to_json_dict(g: Graph) -> dict:
    data: dict = {"n": g.n, "edges": [[u, v] for (u, v) in g.edges()]}
    if g.labels is not None:
        data["labels"] = [list(lab) for lab in g.labels]
    return data


def is_json_int(x) -> bool:
    """An integer as JSON decodes it: JSON true/false decode to bools,
    which Python counts as ints, so they are excluded."""
    return isinstance(x, int) and not isinstance(x, bool)


def json_header(data: dict, darts: int) -> tuple[int, Optional[tuple]]:
    """n and labels of a graph or embedding file, refused before anything
    is built per vertex past MAX_DARTS darts or MAX_DARTS // 2 + 1
    vertices; a connected graph has 2(n - 1) darts or more, so the vertex
    term refuses none the dart term admits.  Exact type tests: JSON
    decodes integers only to int and true/false only to bool."""
    n, labels = data.get("n"), data.get("labels")
    if not is_json_int(n):
        raise InvalidParameterError("'n' must be an integer")
    if n > MAX_DARTS // 2 + 1 or darts > MAX_DARTS:
        raise InvalidParameterError(
            f"graph has n={n} vertices and {darts} darts; more than "
            f"{MAX_DARTS // 2 + 1} vertices or {MAX_DARTS} darts is refused")
    if labels is not None and not (
            isinstance(labels, (list, tuple)) and len(labels) == n
            and set(map(type, labels)) <= {list, tuple}
            and set(map(type, chain.from_iterable(labels))) <= {int, str}):
        raise InvalidParameterError(
            "'labels' must be a list of n lists of strings and integers")
    return n, (None if labels is None else tuple(map(tuple, labels)))


def graph_from_json_dict(data: dict) -> Graph:
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise InvalidParameterError("graph JSON needs 'n' and 'edges'")
    edges = data["edges"]
    if not (isinstance(edges, (list, tuple))
            and set(map(type, edges)) <= {list, tuple}
            and set(map(len, edges)) <= {2}
            and set(map(type, chain.from_iterable(edges))) <= {int}):
        raise InvalidParameterError(
            "'edges' must be a list of [u, v] pairs of integers")
    n, labels = json_header(data, 2 * len(edges))
    return from_edges(n, edges, labels)
