"""Minimum-genus quadrilateral embeddings of the supported families.

Every construction follows one blueprint.  Take an embedded building
block that comes with a face reservoir: several pairwise disjoint
families of vertex-disjoint quadrilateral faces, each family covering
every vertex exactly once.  Lay out copies of the block, half of them
mirrored so that corresponding faces trace opposite ways round.  Join
copy pairs by links: one handle per face of a chosen family, carrying the
four product edges of that face's vertices.  Because a family tiles the
whole copy, a link adds exactly the edges of one product adjacency, and
because every handle face is again a quadrilateral, the result is a
quadrilateral embedding of the product, which meets the bipartite lower
bound and is therefore minimal.  Finally, harvest a fresh reservoir from
the handles of links that form a perfect matching on the copies (their
opposite-face pairs tile everything), which is what makes the process
repeatable.

Every step runs that blueprint through one factor step, _link_step,
which reads its copies and links off the new factor's graph H.  Copy t
of the base, one per vertex t of H, is mirrored where t lies on the far
side of H's 2-colouring from vertex 0, which graphs.components gives.
Each edge (t, u) of H, t < u, is one link, in edge order, by reservoir
family colour(t, u), and each (c, j) harvest entry makes one family of
the faces j and j + 2 of every handle of the colour-c links, in link
order.  The data must meet three conditions: H is bipartite (the step
refuses it otherwise, before it lays any row), colour is a proper edge
colouring of H that needs no more families than the base reservoir has,
and every harvested colour class is a perfect matching on the copies, so
that its handles' opposite-face pairs tile every vertex.  The factors
are data (_factor):

  * K(2r,2r), make_complete_bipartite(2r, 2r): edge (j, 2r + l) uses
    family (l - j) mod 2r; harvest (k, 0) for every k < 2r.
  * C(2m) and P(2m), make_cycle and make_path(2m): edge (t, t + 1) uses
    family t mod 2, the cycle's closing edge (0, 2m - 1) family 1;
    harvest (0, 0) and (0, 1).

The step lays its rotation rows directly, one plain list per vertex, by
a row rule: vertex t * n_base + v gets v's base row shifted by
t * n_base, reversed where copy t is mirrored.  It builds no label, no
sorted adjacency and no Embedding.  A link joins each face of its family
in one copy to the face's own image in the other: v is the face shifted
to the left copy, read as (a, d, c, b) if that copy is mirrored, and w
is v shifted on to the right copy, which is mirrored against it.  The
handle (v, w) inserts wi after v(i-1) at vi and vi after w(i+1) at wi,
in the corners of the consumed faces (see surgery).  The inserts
commute: a family covers each vertex once and a copy meets each family
at most once, so every insert at a vertex has a corner of its own, and
the rows do not depend on the link order.  The step then harvests the
new reservoir, each face from its least vertex as a traced face is.
That start is where the face's images start in the next step, so it
fixes which of that step's handle faces are j and j + 2.  The base block
is K(2r,2r) under one fixed rotation scheme (_scheme_rotation), and its
2r face families come from a rule on the vertex indices alone
(_scheme_reservoir), r = 1 included: no step reads a face.

Paths are also built by the subtractive route: build the cycle, then
remove the handles of its edge (0, 2m - 1), the one edge C(2m) has and
P(2m) lacks, from the cycle step's own rows by surgery.remove, which
lowers the genus by one per handle and reinstates the consumed faces.
Each removal is proved locally; the closed cycle is never certified,
because the level proof certifies what the removals leave.  Both routes
must and do agree on every certificate.

One driver, embed_family(expr, route="direct"), runs every step of
every supported family Q(i,2r) x C(2m)* x P(2m)* in one loop over its
levels.  classify_family gives them as one parsed atom per level:
("K", 2r, 2r) for the base block K(2r,2r) and for each of the i - 1 cube
folds, then the C(2m) and P(2m) atoms in the expression's order; every
level after the base block is one factor step.  route="removal" takes
the subtractive route for every path factor with m >= 2.
embed_cube(i, r) and embed_K2r2r(r) are embed_family on Q(i,2r) and
K(2r,2r), exported for outside callers; nothing in the package calls
them.

The steps only build.  embed_family freezes every level, the base block
included, once, by family_graph(rows, levels up to it): one stream of
graphs.product_vertices, in which each vertex's sorted row must be the
product's neighbours, gives the graph, its adjacency the sorted rows and
its labels the stream's.  A wrong row count or a wrong row is refused
there, before any trace.  A product of connected bipartite factors is
connected and bipartite (criterion 9's law), so no build walks a level's
graph, only its factors; verify, which reads a graph it does not know,
keeps its walk.  Then it proves the level once, in _prove_level, the only
code that certifies a construction.  One trace's face lengths give the
certificate, which must be quadrilateral and minimal, so it has f = m/2
faces and genus 1 + m/4 - n/2 of the graph it traced.  Its n, m and genus
must equal the counts of the levels up to it (graphs.product_sizes, from
the parameters alone), their Euler count and, where those levels are all
cube, cube and cycles, or cube and paths, the closed form.  Last,
check_reservoir proves every reservoir face against the rows.  So
K(2r,2r) has Ringel's genus (r-1)^2, each cube fold meets cube_genus, a
link step adds exactly two faces per handle, and a removal takes out
exactly the closing link's handles: a handle left in place keeps its
four edges in its vertices' rows, and family_graph refuses them.

Each link step leaves one row in the result's steps: its tag, how many
links and handles it laid, and how many handles the removal route took
out again.  The certificate proves the embedding whatever built it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Sequence

from .errors import (ConstructionError, InvalidParameterError,
                     UnsupportedFamilyError)
from .embeddings import (Embedding, EmbeddingCertificate, certify_faces,
                         face_lengths)
from .formulas import cube_genus, main_cycles_genus, main_paths_genus
from .graphs import (FamilyExpr, Graph, components, family_factors,
                     make_complete_bipartite, make_cycle, make_path,
                     parse_family_expr, product_sizes, product_vertices)
from .surgery import (check_reservoir, handle_faces, remove,
                      rotate_to_least, splice)

Face = tuple[int, ...]
Rows = list[list[int]]
Handle = tuple[Face, Face]
Links = dict[tuple[int, int], list[Handle]]
Reservoir = tuple[tuple[Face, ...], ...]


@dataclass(frozen=True)
class ConstructionResult:
    """An embedding, the reservoir that makes it extendable, its
    certificate, and one row per link step that built it:
    {"step": tag, "links": L, "handles": H, "removed": R}, where R is the
    closing link's handle count on the removal route and 0 elsewhere.

    The reservoir is a tuple of face families, each a tuple of
    quadrilateral faces of the embedding.  No face lies in two families,
    and the faces of one family are vertex-disjoint and cover every
    vertex exactly once; the level proof's check_reservoir enforces
    this."""

    embedding: Embedding
    reservoir: Reservoir
    certificate: EmbeddingCertificate
    steps: tuple[dict, ...]


def _scheme_rotation(r: int) -> tuple[tuple[int, ...], ...]:
    """Rotation scheme for K(2r,2r): vertex a_i sees b_0..b_{2r-1} in
    order for even i and reversed for odd i, and symmetrically on the b
    side.  Verified by tracing, never assumed."""
    two_r = 2 * r
    a_side, b_side = tuple(range(two_r)), tuple(range(two_r, 2 * two_r))
    return tuple(row[::-1] if i % 2 else row
                 for row in (b_side, a_side) for i in range(two_r))


def _scheme_reservoir(r: int) -> Reservoir:
    """The 2r face families of _scheme_rotation(r), by rule alone.

    With a_s = vertex s, b_s = vertex 2r+s, indices mod 2r and
    q = (f - p - 1 - p % 2) mod 2r, family f holds one face for each
    p = f (mod 2): (a_p, b_(q+1), a_(p+1), b_q) for even p and
    (a_p, b_q, a_(p+1), b_(q+1)) for odd p, each rotated to its least
    vertex as a traced face starts, and the family sorted.  For r = 1
    that is the two faces of the 4-cycle on the sphere, one per family.
    The level proof checks every face against the rotation."""
    two_r = 2 * r

    def face(p: int, f: int) -> Face:
        q = (f - p - 1 - p % 2) % two_r
        a, a1 = p, (p + 1) % two_r
        b, b1 = two_r + q, two_r + (q + 1) % two_r
        return rotate_to_least((a, b1, a1, b) if p % 2 == 0
                               else (a, b, a1, b1))

    return tuple(tuple(sorted(face(p, f) for p in range(f % 2, two_r, 2)))
                 for f in range(two_r))


def embed_K2r2r(r: int) -> ConstructionResult:
    """Quadrilateral embedding of K(2r,2r) on its genus-(r-1)^2 surface,
    with the full 2r-family face reservoir: embed_family on K(2r,2r)."""
    if r < 1:
        raise InvalidParameterError(f"need r >= 1, got {r}")
    return embed_family(f"K({2 * r},{2 * r})")[0]


def _copies(rotation: tuple[tuple[int, ...], ...], mirrored: list[int]
            ) -> Rows:
    """Rows of one copy of `rotation` per entry of `mirrored`: copy t's
    vertex v is t * n_base + v, and its row is v's shifted, reversed
    where mirrored[t]."""
    nb = len(rotation)
    return [[x + t * nb for x in (rot[::-1] if flip else rot)]
            for t, flip in enumerate(mirrored) for rot in rotation]


def _link_step(base: ConstructionResult, factor: Graph,
               colour: Callable[[int, int], int],
               harvest: list[tuple[int, int]], tag: str
               ) -> tuple[Rows, Reservoir, Links]:
    """The one factor step of the module docstring: the copies, mirrored
    by the factor's 2-colouring, and one link per factor edge, all by the
    row rule, then the harvest.  The link of edge (t, u) joins every face
    of base.reservoir[colour(t, u)] in copy t to its own image in copy u.
    Returns the rows, the harvested reservoir and each edge's handles,
    unproved: embed_family proves the level."""
    nb = base.embedding.graph.n
    _, mirrored, bipartite = components(factor)  # the factor is connected
    if not all(bipartite):
        raise ConstructionError(
            f"{tag}: factor is not bipartite, so no copies are mirrored "
            f"against each other along all its edges")
    schedule = [(t, u, colour(t, u)) for t, u in factor.edges()]
    n_fams = 1 + max(k for _, _, k in schedule)
    if len(base.reservoir) < n_fams:
        raise ConstructionError(
            f"{tag}: step needs {n_fams} families, reservoir has "
            f"{len(base.reservoir)}")
    rows = _copies(base.embedding.rotation, mirrored)

    def join(face: Face, left: int, right: int) -> Handle:
        # a mirrored copy traces the face backwards, (a, d, c, b) from a;
        # the right copy is mirrored against the left, so w, its image
        # walked backwards from a, is v shifted: vi - wi are product edges
        a, b, c, d = (x + left * nb for x in face)
        v = (a, d, c, b) if mirrored[left] else (a, b, c, d)
        w = tuple(x + (right - left) * nb for x in v)
        splice(rows, v, w)
        return v, w

    links = {(t, u): [join(face, t, u) for face in base.reservoir[k]]
             for t, u, k in schedule}
    # a harvested colour class is a perfect matching on the copies, so
    # its handles' opposite-face pairs tile every vertex
    reservoir = tuple(tuple(rotate_to_least(face)
                            for t, u, k in schedule if k == c
                            for handle in links[t, u]
                            for face in handle_faces(*handle)[j::2])
                      for c, j in harvest)
    return rows, reservoir, links


def _factor(letter: str, order: int
            ) -> tuple[Graph, Callable[[int, int], int],
                       list[tuple[int, int]]]:
    """The factor graph of a K(order,order), C(order) or P(order) level,
    its link colouring and its harvest, as the module docstring lists
    them."""
    if letter == "K":
        return (make_complete_bipartite(order, order),
                lambda j, b: (b - j) % order,
                [(k, 0) for k in range(order)])
    return ((make_cycle if letter == "C" else make_path)(order),
            lambda t, u: t % 2 if u == t + 1 else 1, [(0, 0), (0, 1)])


def embed_cube(i: int, r: int) -> ConstructionResult:
    """The i-fold product of K(2r,2r), genus 1 + 2^(2i-2) r^i (ir-2),
    carrying a 2r-family reservoir for further factors: embed_family on
    Q(i,2r)."""
    if i < 1 or r < 1:
        raise InvalidParameterError(f"need i >= 1 and r >= 1, got ({i},{r})")
    return embed_family(f"Q({i},{2 * r})")[0]


def _path_removal_step(base: ConstructionResult, order: int, tag: str
                       ) -> tuple[Rows, Reservoir, Links]:
    """Path factor P(order), order >= 4, the subtractive way: the
    C(order) step, then its edge (0, order - 1) undone handle by handle
    on the step's own rows, each removal proved locally.  Each lowers the
    genus by one and reinstates two quadrilateral faces, landing on the
    path product; the closed cycle is never certified.  The reservoir
    survives: it came from colour 0, and that edge has colour 1.
    Returns what _link_step returns, the closing link included."""
    rows, reservoir, links = _link_step(base, *_factor("C", order), tag)
    for handle in links[0, order - 1]:
        remove(rows, handle)
    return rows, reservoir, links


# ---------------------------------------------------------------------------
# Family dispatch: turn an expression into the construction that embeds it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyShape:
    """A supported expression as the levels embed_family runs, one atom
    per level: ("K", 2r, 2r) for the base block and for each cube fold,
    then the cycle and path atoms in their original order."""

    levels: FamilyExpr
    # the original atom indices in normalized order, the cube atoms first
    factor_order: tuple[int, ...]

    @property
    def normalized_expr(self) -> str:
        i = sum(atom[0] == "K" for atom in self.levels)
        return str(FamilyExpr([("Q", i, self.levels[0][1]),
                               *self.levels[i:]]))


def classify_family(expr: FamilyExpr | str) -> FamilyShape:
    """Decide whether an expression matches Q(i,2r) x C(2m)* x P(2m)*
    (cycles and paths in any interleaving).  Parameter validity is
    checked first, so C(5) fails as an invalid cycle rather than an
    unsupported shape."""
    if isinstance(expr, str):
        expr = parse_family_expr(expr)
    family_factors(expr)  # validates every atom; builds no product
    cubes: list[tuple] = []
    for atom in expr:
        letter, *params = atom
        name = FamilyExpr([atom])
        if letter == "K" and params[0] != params[1]:
            raise UnsupportedFamilyError(
                f"{name}: only balanced complete bipartite factors "
                f"are supported")
        if letter == "P" and params[0] % 2 != 0:
            raise UnsupportedFamilyError(
                f"{name}: only even-order path factors are supported")
        if letter in "KQ":
            folds, t = (1, params[0]) if letter == "K" else params
            if t % 2 != 0 or t < 2:
                raise UnsupportedFamilyError(
                    f"{name}: factor order must be even and >= 2")
            if cubes and cubes[0][1] != t:
                raise UnsupportedFamilyError(
                    "all complete bipartite factors must share one order")
            cubes += [("K", t, t)] * folds
    if not cubes:
        raise UnsupportedFamilyError(
            "expression has no K(2r,2r) factor; nothing to build on")
    rings = [atom for atom in expr if atom[0] in "CP"]
    order = sorted(range(len(expr)), key=lambda pos: expr[pos][0] in "CP")
    return FamilyShape(FamilyExpr(cubes + rings), tuple(order))


def family_graph(rows: Sequence[Sequence[int]],
                 expr: FamilyExpr | str) -> Graph:
    """The graph of the rotation rows `rows`, which must be the product
    of expr's factors in the construction's own numbering, or a refusal.

    A step puts copy t of its base at vertices t * n_base + v, which is
    the product numbering of graphs.product_vertices.  One stream of it
    gives each vertex's label and sorted neighbours, and vertex p's row,
    sorted, must be those neighbours.  The graph's adjacency is the
    sorted rows, which share the rows' ints, and its labels are the
    stream's; no product graph is built."""
    factors = [g for g, repeats in family_factors(expr)
               for _ in range(repeats)]
    n = prod(g.n for g in factors)
    if len(rows) != n:
        raise ConstructionError(
            f"{len(rows)} rotation rows; {expr} has {n} vertices")
    adj, labels = [], []
    for p, (row, (label, nbrs)) in enumerate(
            zip(rows, product_vertices(factors))):
        row = tuple(sorted(row))
        if row != nbrs:
            raise ConstructionError(
                f"rows do not match {expr}: vertex {p} has neighbours "
                f"{row}, expected {nbrs}")
        adj.append(row)
        labels.append(label)
    return Graph(n, tuple(adj), tuple(labels))


def _prove_level(shape: FamilyShape, level: int, size: tuple[int, int],
                 emb: Embedding, reservoir: Reservoir,
                 tag: str) -> EmbeddingCertificate:
    """The one proof of `level` (0 the base block, then each cube fold,
    then each cycle or path factor) of the module docstring, run on what
    its step built as family_graph froze it, with size = (n, m) of the
    levels up to it from the parameters alone: the certificate, which
    takes the graph as connected and bipartite because family_graph found
    it the product of those levels, the counts and the reservoir.
    Returns the certificate."""
    graph = emb.graph
    cert = certify_faces(graph.n, graph.m, face_lengths(emb), True, tag)
    if not cert.quadrilateral:
        raise ConstructionError(f"{tag}: embedding has a non-quad face")
    if not cert.minimal:
        raise ConstructionError(
            f"{tag}: genus {cert.genus} misses lower bound "
            f"{cert.lower_bound}")
    n, m = size
    euler = 1 + Fraction(m, 4) - Fraction(n, 2)
    prefix = FamilyExpr(shape.levels[:level + 1])
    kinds = {atom[0] for atom in prefix}
    i, t = sum(atom[0] == "K" for atom in prefix), prefix[0][1]
    ms = [atom[1] // 2 for atom in prefix[i:]]
    if kinds == {"K"}:
        closed = cube_genus(i, t)
    elif kinds == {"K", "C"}:
        closed = main_cycles_genus(i, t // 2, ms)
    elif kinds == {"K", "P"}:
        closed = main_paths_genus(i, t // 2, ms)
    else:
        closed = None  # mixed cycles and paths: no closed form
    if (cert.n, cert.m, cert.genus) != (n, m, euler) or \
            closed not in (None, euler):
        raise ConstructionError(
            f"{shape.normalized_expr} level {level}: certificate n={cert.n} "
            f"m={cert.m} genus={cert.genus}, expected n={n} m={m} "
            f"genus={euler}, closed form {closed}")
    check_reservoir(emb.rotation, reservoir)
    return cert


def embed_family(expr: FamilyExpr | str,
                 route: str = "direct") -> tuple[ConstructionResult,
                                                 FamilyShape]:
    """Construct a certified minimum-genus embedding for a supported
    expression, one level of shape.levels at a time: the base block
    K(2r,2r), then one factor step per cube fold and per cycle or path
    factor, each level proved once by _prove_level.  The steps only
    build.  Each level's graph is the product of the levels up to it,
    which at the last level is the product of the factors of
    shape.normalized_expr, numbered with the first factor as the least
    significant digit (family_graph proves the neighbours of every
    vertex and gives its label).  shape.factor_order lists the original
    atom indices in normalized order, the cube atoms first.

    route="direct" runs the P(2m) factor step for every path factor;
    route="removal" opens up the cycle for every path factor P(2m) with
    m >= 2 (P(2), a single link, has no cycle to open and is always
    direct).  Both routes give identical certificates."""
    if route not in ("removal", "direct"):
        raise InvalidParameterError(f"unknown route {route!r}")
    shape = classify_family(expr)
    family = shape.normalized_expr
    r = shape.levels[0][1] // 2
    i = sum(atom[0] == "K" for atom in shape.levels)
    steps: tuple[dict, ...] = ()
    for level, (atom, size) in enumerate(zip(shape.levels,
                                             product_sizes(shape.levels))):
        letter, order = atom[0], atom[1]
        if level == 0:
            tag = f"K({2 * r},{2 * r})"
            rows, reservoir = _scheme_rotation(r), _scheme_reservoir(r)
        else:
            tag = (f"cube(i={level + 1},r={r})" if letter == "K" else
                   f"family({family})#step{level + 1 - i}")
            removal = letter == "P" and route == "removal" and order >= 4
            rows, reservoir, links = (
                _path_removal_step(result, order, tag) if removal else
                _link_step(result, *_factor(letter, order), tag))
            steps += ({"step": tag, "links": len(links),
                       "handles": sum(map(len, links.values())),
                       "removed": len(links[0, order - 1]) if removal else 0},)
            del links  # the ledger's only: freed before the trace peaks
        # frozen once, which frees the list rows before the trace
        rows = tuple(map(tuple, rows))
        emb = Embedding(
            family_graph(rows, FamilyExpr(shape.levels[:level + 1])), rows)
        cert = _prove_level(shape, level, size, emb, reservoir, tag)
        result = ConstructionResult(emb, reservoir, cert, steps)
    return result, shape
