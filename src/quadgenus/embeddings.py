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
are the orbits of that list.  face_successors is the one trace core: the
one place a rotation system is validated, and the only builder of the
successor list of an Embedding.  Two readers walk its orbits:

  * face_lengths counts each orbit's length and builds nothing else.
    Every certificate reads it: certify_faces takes the lengths (one
    walk of the graph, graphs.components, for connectivity and
    bipartiteness at once, then the quadrilateral bound), and
    euler_genus, components_certificate and every construction step
    certify that way.
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
from dataclasses import asdict, dataclass, fields
from itertools import chain

from .errors import EmbeddingError, InvalidParameterError, NotApplicableError
from .graphs import Graph, components, from_rows, json_header

Dart = tuple[int, int]


@dataclass(frozen=True)
class Embedding:
    graph: Graph
    rotation: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FaceSet:
    """Faces of an embedding, each a tuple of darts in trace order."""

    faces: tuple[tuple[Dart, ...], ...]

    def __len__(self) -> int:
        return len(self.faces)


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


def validate_embedding(e: Embedding) -> list[str]:
    """Return a list of violations; empty means the rotation system is a
    permutation of each vertex's neighbourhood."""
    if len(e.rotation) != e.graph.n:
        return [f"rotation table has {len(e.rotation)} rows, graph has "
                f"{e.graph.n} vertices"]
    # adjacency is sorted and repeat-free, so one sort decides; the
    # reason is looked for only on failure
    return [f"vertex {v}: repeated neighbour in rotation"
            if len(set(rot)) != len(rot) else
            f"vertex {v}: rotation is not a permutation of its neighbourhood"
            for v, (rot, nbrs) in enumerate(zip(e.rotation, e.graph.adj))
            if tuple(sorted(rot)) != nbrs]


def _require_valid(e: Embedding) -> None:
    problems = validate_embedding(e)
    if problems:
        raise EmbeddingError("; ".join(problems))


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
        of every vertex's patch, written in place."""
        out = self.out
        succ = [0] * self.size
        for v, rot in enumerate(rotation):
            if rot:
                ov = out[v]
                prev = rot[-1]
                for w in rot:
                    succ[out[prev][v]] = ov[w]
                    prev = w
        return succ


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
    """The face-successor list of a validated rotation system, on
    DartIndex ids: the one trace core (see the module docstring)."""
    _require_valid(e)
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


def trace_faces(e: Embedding) -> FaceSet:
    """Orbit decomposition of the dart set under the face successor map."""
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
    return FaceSet(tuple(faces))


def _quad_bound(n: int, m: int) -> int:
    """ceil(1 + m/4 - n/2) floored at zero; a tree (m < n) gets 0."""
    return 0 if m < n else max(0, -((2 * n - m - 4) // 4))


def genus_lower_bound(g: Graph) -> int:
    """Quadrilateral lower bound ceil(1 + m/4 - n/2) for connected
    bipartite graphs, exact in integers and floored at zero.

    Any embedding of a simple bipartite graph has every face of length at
    least 4, so f <= m/2, and Euler's formula turns that into the bound.
    Forests return 0.  Non-bipartite graphs are rejected: a triangle face
    would beat the bound, so the inequality just does not apply.
    """
    if g.n == 0:
        raise InvalidParameterError("empty graph has no genus")
    comps = components(g)
    if len(comps) != 1:
        raise InvalidParameterError("lower bound needs a connected graph")
    if not comps[0][1]:
        raise NotApplicableError(
            "quadrilateral lower bound needs a bipartite graph")
    return _quad_bound(g.n, g.m)


def certify_faces(g: Graph, lengths: list[int],
                  construction_tag: str = "") -> EmbeddingCertificate:
    """Certificate of a connected embedding of g from its face lengths as
    face_lengths gave them (having validated it), via n + f - m = 2 - 2g."""
    if g.n == 0:
        raise InvalidParameterError("empty graph has no certificate")
    comps = components(g)
    if len(comps) != 1:
        raise InvalidParameterError(
            "euler_genus needs a connected graph; use components_certificate")
    return _certify_connected(g, lengths, comps[0][1], construction_tag)


def _certify_connected(g: Graph, lengths: list[int], bip: bool,
                       construction_tag: str = "") -> EmbeddingCertificate:
    """certify_faces for a g already known to be connected and non-empty,
    and to be bipartite or not as bip says.  A lone vertex traces no dart
    but lies on one face, the sphere."""
    f = len(lengths) if g.m else 1
    chi = g.n - g.m + f
    if chi % 2 != 0:
        raise EmbeddingError(
            f"Euler characteristic {chi} is odd; rotation system corrupt")
    genus = (2 - chi) // 2
    if genus < 0:
        raise EmbeddingError(f"negative genus {genus}; rotation system corrupt")
    lb = _quad_bound(g.n, g.m) if bip else 0
    return EmbeddingCertificate(
        n=g.n, m=g.m, f=f, genus=genus,
        quadrilateral=bool(g.m) and lengths.count(4) == len(lengths),
        bipartite=bip,
        lower_bound=lb,
        minimal=bip and genus == lb,
        construction_tag=construction_tag,
    )


def euler_genus(e: Embedding, construction_tag: str = "") -> EmbeddingCertificate:
    """Certificate for a connected embedding: face_lengths, then
    certify_faces."""
    return certify_faces(e.graph, face_lengths(e), construction_tag)


def subembedding(e: Embedding, vertices: list[int]) -> Embedding:
    """Restriction to a union of components, vertices renumbered in the
    given (sorted) order.  Rotations must not point outside the set."""
    index = {v: i for i, v in enumerate(vertices)}
    if any(w not in index for v in vertices for w in e.graph.adj[v]):
        raise InvalidParameterError("subembedding must take whole components")
    adj = tuple(tuple(sorted(index[w] for w in e.graph.adj[v]))
                for v in vertices)
    labels = e.graph.labels
    if labels is not None:
        labels = tuple(labels[v] for v in vertices)
    return Embedding(Graph(len(vertices), adj, labels), tuple(
        tuple(index[w] for w in e.rotation[v]) for v in vertices))


def components_certificate(e: Embedding) -> list[EmbeddingCertificate]:
    """Per-component certificates, from one walk of the graph.  The total
    genus of a disconnected embedding is the sum over components; a
    connected one gets the single certificate euler_genus would give."""
    if e.graph.n == 0:
        raise InvalidParameterError("empty graph has no certificate")
    comps = components(e.graph)
    if len(comps) == 1:
        return [_certify_connected(e.graph, face_lengths(e), comps[0][1])]
    _require_valid(e)
    subs = ((subembedding(e, comp), bip) for comp, bip in comps)
    return [_certify_connected(sub.graph, face_lengths(sub), bip)
            for sub, bip in subs]


# ---------------------------------------------------------------------------
# Serialization.  Embedding files are {"graph": {"n", "labels"?}, "rotation"}:
# the rotation rows are the adjacency, so no edge list is stored.  Writers
# emit canonical bytes (sorted keys, no whitespace, one trailing newline)
# so identical runs produce identical files; readers ignore whitespace.
# Certificates are flat JSON objects.
# ---------------------------------------------------------------------------


def embedding_to_json_dict(e: Embedding) -> dict:
    graph: dict = {"n": e.graph.n}
    if e.graph.labels is not None:
        graph["labels"] = [list(lab) for lab in e.graph.labels]
    return {"graph": graph, "rotation": [list(r) for r in e.rotation]}


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
