"""Rotation systems, face tracing, and genus certificates.

An embedding of a graph into an orientable surface is recorded
combinatorially: for each vertex, a cyclic order of its neighbours (a
rotation system).  Faces are recovered by the standard tracing rule

    the dart after (u, v) is (v, w) where w follows u in the rotation at v

so each directed edge (dart) lies on exactly one face and the face count
plugs into Euler's formula n + f - m = 2 - 2g to give the genus of the
surface the rotation system describes.

Face tracing runs on integer dart ids (DartIndex): dart (v, u) gets the
next id in the order v = 0..n-1, u in graph.adj[v].  Adjacency is sorted,
so id order is sorted dart order.  A rotation becomes a flat successor
list succ[id(u, v)] = id(v, w), w the neighbour after u at v, and faces
are the orbits of that list.  face_successors is the one trace core and
the only code that builds the successor list of an Embedding, and that
build is the one check of a rotation system: DartIndex.successors
refuses a wrong row count or length, a non-neighbour and a repeated
neighbour as it writes the list (EmbeddingError names the first bad
row), so no row is sorted again.  Two readers walk its orbits:

  * face_lengths counts each orbit's length and builds nothing else.
    certify_faces certifies the lengths of a connected graph whose n, m
    and bipartiteness it is given: components_certificate learns them
    with one walk, graphs.components, and the construction's level proof
    knows them from the product it checks.  A disconnected embedding
    gets no certificate: components_certificate sums its genus from each
    component's vertex, dart and face counts, a face counted in the
    component of its least dart's tail.  euler_genus is the connected
    case of components_certificate.
  * trace_faces turns each orbit into a face of (u, v) dart tuples, for
    the readers that need the faces themselves.

Rotations are cyclic: two rotations equal up to rotation (not reflection)
describe the same embedding.  Faces are canonicalized to start at their
lexicographically least dart, and trace_faces emits them sorted by that
dart, so face indices are reproducible for a given Embedding; face_lengths
lists the lengths in the same order.  The search oracle shares DartIndex:
it rewrites only the successor entries a rotation change touches and
counts orbits with count_orbits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain

from .errors import EmbeddingError, InvalidParameterError, NotApplicableError
from .graphs import Graph, components, from_rows, json_header

Dart = tuple[int, int]


@dataclass(frozen=True)
class Embedding:
    graph: Graph
    rotation: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EmbeddingCertificate:
    n: int
    m: int
    f: int
    genus: int
    quadrilateral: bool
    bipartite: bool
    lower_bound: int
    minimal: bool
    construction_tag: str = ""


class DartIndex:
    """Integer ids for the darts of a graph: ``out[v][u]`` is the id of
    (v, u) and ``size`` the number of darts."""

    __slots__ = ("out", "size")

    def __init__(self, graph: Graph):
        out: list[dict[int, int]] = []
        first = 0
        for nbrs in graph.adj:
            out.append(dict(zip(nbrs, range(first, first + len(nbrs)))))
            first += len(nbrs)
        self.out = out
        self.size = first

    def patch(self, v: int, rot) -> list[tuple[int, int]]:
        """(dart, successor) pairs for the darts entering v when v's
        neighbours are in the cyclic order ``rot``."""
        if not rot:
            return []
        out = self.out
        ov = out[v]
        prev = rot[-1]
        pairs = []
        for w in rot:
            pairs.append((out[prev][v], ov[w]))
            prev = w
        return pairs

    def successors(self, rotation) -> list[int]:
        """Flat face-successor list of a rotation system: the entries
        of every vertex's patch, written in place.  This is the one check
        of the system: if every entry is a neighbour, every dart is
        written (no -1 is left) and there are n rows of one entry per
        dart in all, each row is a permutation of its neighbours."""
        out = self.out
        succ = [-1] * self.size
        try:
            for v, rot in enumerate(rotation):
                if rot:
                    ov = out[v]
                    prev = rot[-1]
                    for w in rot:
                        succ[out[prev][v]] = ov[w]
                        prev = w
        except (KeyError, IndexError):  # no neighbour, or a row too many
            raise EmbeddingError(_refusal(rotation, out)) from None
        if (-1 in succ or len(rotation) != len(out)
                or sum(map(len, rotation)) != self.size):
            raise EmbeddingError(_refusal(rotation, out))
        return succ


def _refusal(rotation, out: list[dict[int, int]]) -> str:
    """Why DartIndex.successors refused ``rotation``: the row count, or
    the first row that is not a permutation of its vertex's neighbours."""
    if len(rotation) != len(out):
        return (f"rotation table has {len(rotation)} rows, graph has "
                f"{len(out)} vertices")
    v, rot = next((v, rot) for v, (rot, ov) in enumerate(zip(rotation, out))
                  if sorted(rot) != list(ov))
    why = ("repeated neighbour in rotation" if len(set(rot)) != len(rot)
           else "rotation is not a permutation of its neighbourhood")
    return f"vertex {v}: {why}"


def count_orbits(succ: list[int], starts, seen: list[int], stamp: int) -> int:
    """Number of distinct successor orbits through the darts ``starts``.

    Visited darts are marked ``seen[d] = stamp``; pass a stamp not used
    before on ``seen`` so no reset is needed between calls.  With
    ``starts`` every dart, this is the face count.
    """
    orbits = 0
    for start in starts:
        if seen[start] == stamp:
            continue
        orbits += 1
        dart = start
        while seen[dart] != stamp:
            seen[dart] = stamp
            dart = succ[dart]
    return orbits


def face_successors(e: Embedding) -> list[int]:
    """The face-successor list of a rotation system, on DartIndex ids:
    the one trace core, and the one check (see the module docstring)."""
    return DartIndex(e.graph).successors(e.rotation)


def _orbits(succ: list[int]) -> tuple[list[int], list[int]]:
    """Least id and length of every orbit of ``succ``, by increasing
    least id; refuses a successor list that is not a permutation."""
    seen = [False] * len(succ)
    starts: list[int] = []
    lengths: list[int] = []
    for start in range(len(succ)):
        if seen[start]:
            continue
        length = 0
        dart = start
        while not seen[dart]:
            seen[dart] = True
            length += 1
            dart = succ[dart]
        if dart != start:
            raise EmbeddingError("face tracing did not close; successor map "
                                 "is not a permutation")
        starts.append(start)
        lengths.append(length)
    return starts, lengths


def face_lengths(e: Embedding) -> list[int]:
    """Length of every face, in trace_faces order, from the successor
    orbits alone: no dart tuple and no face is built."""
    return _orbits(face_successors(e))[1]


def trace_faces(e: Embedding) -> tuple[tuple[Dart, ...], ...]:
    """Orbit decomposition of the dart set under the face successor map:
    the faces, each a tuple of darts in trace order."""
    succ = face_successors(e)
    darts = [(v, u) for v, nbrs in enumerate(e.graph.adj) for u in nbrs]
    faces: list[tuple[Dart, ...]] = []
    # Orbits start at their least id (= least dart), so each face already
    # begins at its least dart.
    for dart, length in zip(*_orbits(succ)):
        face: list[Dart] = []
        for _ in range(length):
            face.append(darts[dart])
            dart = succ[dart]
        faces.append(tuple(face))
    return tuple(faces)


def _quad_bound(n: int, m: int) -> int:
    """ceil(1 + m/4 - n/2) floored at zero; a tree (m < n) gets 0."""
    return 0 if m < n else max(0, -((2 * n - m - 4) // 4))


def _connected_quad_bound(g: Graph) -> int | None:
    """The quadrilateral bound of g, or None when g is not bipartite,
    from one components walk; refuses a g that is empty or disconnected."""
    bipartite = components(g)[2]
    if len(bipartite) != 1:
        raise InvalidParameterError("need a non-empty connected graph")
    return _quad_bound(g.n, g.m) if bipartite[0] else None


def genus_lower_bound(g: Graph) -> int:
    """Quadrilateral lower bound ceil(1 + m/4 - n/2) of a connected
    bipartite graph, exact in integers and floored at zero (a forest gets
    0): every face of a simple bipartite graph's embedding has length at
    least 4, so f <= m/2, and Euler's formula turns that into the bound.
    A graph that is not bipartite is refused, as a triangle face beats it."""
    bound = _connected_quad_bound(g)
    if bound is None:
        raise NotApplicableError(
            "quadrilateral lower bound needs a bipartite graph")
    return bound


def _genus(chi: int) -> int:
    """The genus of Euler characteristic chi = 2 - 2g; an odd chi or a
    negative genus means a corrupt rotation system."""
    genus, odd = divmod(2 - chi, 2)
    if odd:
        raise EmbeddingError(
            f"Euler characteristic {chi} is odd; rotation system corrupt")
    if genus < 0:
        raise EmbeddingError(f"negative genus {genus}; rotation system corrupt")
    return genus


def certify_faces(n: int, m: int, lengths: list[int], bipartite: bool,
                  construction_tag: str = "") -> EmbeddingCertificate:
    """Certificate of an embedding of a graph with n >= 1 vertices and m
    edges, known to be connected, and to be bipartite or not as
    `bipartite` says, from its face lengths as face_lengths gave them
    (having validated it), via n + f - m = 2 - 2g.  A lone vertex traces
    no dart but lies on one face, the sphere."""
    f = len(lengths) if m else 1
    genus = _genus(n - m + f)
    lb = _quad_bound(n, m) if bipartite else 0
    return EmbeddingCertificate(
        n=n, m=m, f=f, genus=genus,
        quadrilateral=bool(m) and lengths.count(4) == len(lengths),
        bipartite=bipartite,
        lower_bound=lb,
        minimal=bipartite and genus == lb,
        construction_tag=construction_tag,
    )


def components_certificate(e: Embedding
                           ) -> tuple[EmbeddingCertificate | None, int]:
    """The certificate of a connected embedding, or None for a
    disconnected one, and the total genus, from one components walk and
    one trace.  A disconnected total sums each component's genus: 2 per
    vertex less its darts, plus 2 per face (a lone vertex's, or an orbit
    of its least dart's tail), is twice its n - m + f, refused as
    certify_faces refuses it."""
    g = e.graph
    if g.n == 0:
        raise InvalidParameterError("empty graph has no certificate")
    comp, _, bipartite = components(g)
    starts, lengths = _orbits(face_successors(e))
    if len(bipartite) == 1:
        cert = certify_faces(g.n, g.m, lengths, bipartite[0])
        return cert, cert.genus
    chi2 = [0] * len(bipartite)
    for c, nbrs in zip(comp, g.adj):
        chi2[c] += 2 - len(nbrs) if nbrs else 4
    v, end = -1, 0
    for start in starts:  # increasing, so the tails are read in one pass
        while end <= start:
            v += 1
            end += len(g.adj[v])
        chi2[comp[v]] += 2
    return None, sum(_genus(x // 2) for x in chi2)


def euler_genus(e: Embedding, construction_tag: str = "") -> EmbeddingCertificate:
    """components_certificate's certificate of a connected embedding."""
    cert, _ = components_certificate(e)
    if cert is None:
        raise InvalidParameterError(
            "euler_genus needs a connected graph; use components_certificate")
    return replace(cert, construction_tag=construction_tag)


# ---------------------------------------------------------------------------
# Serialization.  Embedding files are {"graph": {"n", "labels"?}, "rotation"}:
# the rotation rows are the adjacency, so no edge list is stored.  Writers
# emit canonical bytes (sorted keys, no whitespace, one trailing newline)
# so identical runs produce identical files; readers ignore whitespace.
# Certificates are flat JSON objects.
# ---------------------------------------------------------------------------


def embedding_to_json_dict(e: Embedding) -> dict:
    """The JSON form, holding the frozen label and rotation tuples, which
    the encoder writes as lists: no row is copied."""
    graph: dict = {"n": e.graph.n}
    if e.graph.labels is not None:
        graph["labels"] = e.graph.labels
    return {"graph": graph, "rotation": e.rotation}


def embedding_from_json_dict(data: dict) -> Embedding:
    """Embedding of the JSON form, its graph read off the rotation rows
    by from_rows: vertex v's sorted row is its adjacency."""
    if not (isinstance(data, dict) and isinstance(data.get("graph"), dict)
            and "rotation" in data) or "edges" in data["graph"]:
        raise InvalidParameterError(
            "embedding JSON needs 'graph' ('n', 'labels') and 'rotation', "
            "whose rows are the graph; the older format's 'edges' is refused")
    g, rows = data["graph"], data["rotation"]
    if not (isinstance(rows, (list, tuple))
            and set(map(type, rows)) <= {list, tuple}
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        raise InvalidParameterError(
            "'rotation' must be a list of lists of integers")
    n, labels = json_header(g, sum(map(len, rows)))
    if len(rows) != n:
        raise InvalidParameterError(
            f"'rotation' has {len(rows)} rows, graph has n={n} vertices")
    return Embedding(from_rows(n, rows, labels), tuple(map(tuple, rows)))


def certificate_to_json_dict(c: EmbeddingCertificate) -> dict:
    return asdict(c)


_FIELD_TYPES = {"int": int, "bool": bool, "str": str}


def certificate_from_json_dict(data: dict) -> EmbeddingCertificate:
    """Certificate of the JSON form; every field must have its declared
    type exactly (JSON true/false are not integers, 0/1 not booleans)."""
    try:
        cert = EmbeddingCertificate(**data)
    except TypeError as exc:
        raise InvalidParameterError(f"malformed certificate: {exc}") from exc
    for field in fields(cert):
        value = getattr(cert, field.name)
        if type(value) is not _FIELD_TYPES[field.type]:
            raise InvalidParameterError(
                f"malformed certificate: {field.name!r} must be of type "
                f"{field.type}, got {value!r}")
    return cert


# One encoder for every artifact.  The payloads are built by the package
# from lists, dicts and scalars and cannot be cyclic, so the circular
# reference check is skipped.  Without indent it runs the C encoder.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              check_circular=False)


def canonical_json_bytes(data) -> bytes:
    """Sorted keys, no whitespace, one trailing newline."""
    return (_CANONICAL.encode(data) + "\n").encode()
