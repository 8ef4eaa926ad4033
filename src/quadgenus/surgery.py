"""Handle surgery on quadrilateral faces.

The single primitive everything else is built from: pick two
vertex-disjoint quadrilateral faces F1 = (v0,v1,v2,v3) and
F2 = (w0,w1,w2,w3), run a handle between them, and lay four new edges
vk - wk through it.  Done against the face boundaries' orientations, the
two consumed faces reassemble with the new edges into four quadrilaterals

    face k:  (vk, v(k+1), w(k+1), wk)         indices mod 4

so the face count changes by +2, the edge count by +4, and the Euler
characteristic by exactly -2: one handle's worth.  "Opposite faces" of a
handle are indices {0, 2} and {1, 3}; either pair covers all eight
vertices of the consumed faces, which is what makes handle faces usable
as the raw material for the next round of surgery.

The pairing parameter selects which vertex of F2 plays w0: pairing a
means wk = F2.vertices[(a - k) mod 4].  Walking F1 forwards thus pairs it
with F2 walked backwards; this reversal is what the construction's
mirrored copies guarantee can be made consistent with the product edges.

The rotation splice is local: each new edge enters the rotation at its
endpoint between the two boundary darts of the consumed face there.  No
other face's corners are touched, so faces not involved in the surgery
stay traced orbits; callers may keep face handles across many
add_handle calls as long as each face is consumed at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (ConstructionError, InvalidParameterError, LinkError,
                     PartitionError, SurgeryError)
from .embeddings import (Dart, Embedding, FaceSet, canonical_face,
                         trace_faces)
from .graphs import Graph


@dataclass(frozen=True)
class QuadFace:
    """A quadrilateral face, vertices in trace order starting at the least
    dart."""

    vertices: tuple[int, int, int, int]

    def __post_init__(self):
        if len(set(self.vertices)) != 4:
            raise InvalidParameterError(
                f"quadrilateral face needs 4 distinct vertices, got "
                f"{self.vertices}")

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def darts(self) -> tuple[Dart, ...]:
        v = self.vertices
        return tuple((v[k], v[(k + 1) % 4]) for k in range(4))


@dataclass(frozen=True)
class FaceFamily:
    faces: tuple[QuadFace, ...]

    def __len__(self) -> int:
        return len(self.faces)


@dataclass(frozen=True)
class FaceReservoir:
    """Disjoint families of vertex-disjoint quadrilateral faces; each
    family covers every vertex of its host exactly once."""

    families: tuple[FaceFamily, ...]


@dataclass(frozen=True)
class HandleRecord:
    consumed: tuple[QuadFace, QuadFace]
    added_edges: tuple[Dart, Dart, Dart, Dart]
    created: tuple[QuadFace, QuadFace, QuadFace, QuadFace]


def quad_faces(faces: FaceSet) -> list[QuadFace]:
    """All quadrilateral faces of a trace, in trace order."""
    out = []
    for f in faces.faces:
        if len(f) == 4:
            out.append(QuadFace(tuple(u for (u, _) in f)))
    return out


def _face_is_current(e: Embedding, face: QuadFace,
                     pos: list[dict[int, int]]) -> bool:
    """Check the 4 corners of `face` against the successor rule, without a
    full retrace."""
    v = face.vertices
    for k in range(4):
        a, b, c = v[(k - 1) % 4], v[k], v[(k + 1) % 4]
        rot = e.rotation[b]
        if a not in pos[b]:
            return False
        if rot[(pos[b][a] + 1) % len(rot)] != c:
            return False
    return True


def _positions(e: Embedding) -> list[dict[int, int]]:
    return [{u: i for i, u in enumerate(rot)} for rot in e.rotation]


def add_handle(e: Embedding, f1: QuadFace, f2: QuadFace,
               pairing: int) -> tuple[Embedding, HandleRecord]:
    """Join two vertex-disjoint quadrilateral faces by a handle carrying
    four edges.  See the module docstring for the pairing convention and
    the resulting faces.

    Asserts, on every call: edge count +4, face count +2, Euler
    characteristic -2, and that the four created faces are the expected
    quadrilaterals.  If the two faces lie in different components the
    components merge and total genus adds; within one component the genus
    rises by one.
    """
    if pairing not in (0, 1, 2, 3):
        raise InvalidParameterError(f"pairing must be 0..3, got {pairing}")
    if f1.vertex_set & f2.vertex_set:
        raise SurgeryError(
            f"faces share vertices {sorted(f1.vertex_set & f2.vertex_set)}")
    pos = _positions(e)
    for face in (f1, f2):
        if not _face_is_current(e, face, pos):
            raise SurgeryError(f"face {face.vertices} is not a face of the "
                               f"current embedding")
    v = f1.vertices
    w = tuple(f2.vertices[(pairing - k) % 4] for k in range(4))
    for k in range(4):
        if e.graph.has_edge(v[k], w[k]):
            raise SurgeryError(f"edge ({v[k]},{w[k]}) already present")

    rotation = [list(r) for r in e.rotation]
    # New edge vk - wk sits between the consumed faces' boundary darts:
    # after v(k-1) at vk, and after w(k+1) at wk.
    for k in range(4):
        rotation[v[k]].insert(pos[v[k]][v[(k - 1) % 4]] + 1, w[k])
    pos2 = {x: {u: i for i, u in enumerate(rotation[x])} for x in set(w)}
    for k in range(4):
        rotation[w[k]].insert(pos2[w[k]][w[(k + 1) % 4]] + 1, v[k])

    adj = [list(a) for a in e.graph.adj]
    for k in range(4):
        adj[v[k]].append(w[k])
        adj[w[k]].append(v[k])
    graph = Graph(e.graph.n, tuple(tuple(sorted(a)) for a in adj),
                  e.graph.labels)
    result = Embedding(graph, tuple(tuple(r) for r in rotation))

    faces_before = trace_faces(e)
    faces_after = trace_faces(result)
    index_after = faces_after.index_by_cycle()
    if graph.m != e.graph.m + 4:
        raise SurgeryError("edge count did not grow by 4")
    delta_f = len(faces_after) - len(faces_before)
    chi_delta = -4 + delta_f
    if chi_delta != -2 or delta_f != 2:
        raise SurgeryError(
            f"handle changed face count by {delta_f}, expected +2")

    created = []
    for k in range(4):
        expected = canonical_face([
            (v[k], v[(k + 1) % 4]),
            (v[(k + 1) % 4], w[(k + 1) % 4]),
            (w[(k + 1) % 4], w[k]),
            (w[k], v[k]),
        ])
        if expected not in index_after:
            raise SurgeryError(
                f"created face {k} is not the expected quadrilateral")
        created.append(QuadFace(tuple(u for (u, _) in expected)))

    record = HandleRecord(
        consumed=(f1, f2),
        added_edges=tuple((v[k], w[k]) for k in range(4)),
        created=tuple(created),
    )
    return result, record


def remove_handle(e: Embedding, record: HandleRecord) -> Embedding:
    """Inverse of add_handle: delete the handle's four edges and restore
    the two consumed faces.  Only records whose created faces are still
    current can be removed."""
    pos = _positions(e)
    for face in record.created:
        if not _face_is_current(e, face, pos):
            raise SurgeryError(
                f"created face {face.vertices} no longer current; handle "
                f"cannot be removed")
    drop = set()
    for (a, b) in record.added_edges:
        if not e.graph.has_edge(a, b):
            raise SurgeryError(f"edge ({a},{b}) not present")
        drop.add((a, b))
        drop.add((b, a))
    rotation = tuple(
        tuple(u for u in rot if (x, u) not in drop)
        for x, rot in enumerate(e.rotation)
    )
    adj = tuple(
        tuple(sorted(u for u in nbrs if (x, u) not in drop))
        for x, nbrs in enumerate(e.graph.adj)
    )
    result = Embedding(Graph(e.graph.n, adj, e.graph.labels), rotation)

    faces_after = trace_faces(result).index_by_cycle()
    for face in record.consumed:
        if canonical_face(face.darts()) not in faces_after:
            raise SurgeryError(
                f"face {face.vertices} did not reappear after removal")
    if len(faces_after) - len(trace_faces(e)) != -2:
        raise SurgeryError("handle removal did not drop the face count by 2")
    return result


def link_copies(e: Embedding, fam_a: FaceFamily, fam_b: FaceFamily,
                correspondence: Mapping[int, int]
                ) -> tuple[Embedding, list[HandleRecord]]:
    """One link: a handle per face of fam_a, joining it to the fam_b face
    on the corresponding vertices.

    The correspondence maps every vertex covered by fam_a to its partner;
    for faces taken from two copies of one embedding it is the index
    offset between the copies.  The correspondence must send each fam_a
    boundary onto a fam_b boundary traced the opposite way round, which
    holds exactly when one copy is mirrored; otherwise no pairing yields
    the product edges and the link is refused.
    """
    if len(fam_a) != len(fam_b):
        raise LinkError(f"family sizes differ: {len(fam_a)} vs {len(fam_b)}")
    by_vertex_set = {f.vertex_set: f for f in fam_b.faces}
    if len(by_vertex_set) != len(fam_b):
        raise LinkError("fam_b faces are not vertex-disjoint")
    records: list[HandleRecord] = []
    current = e
    for fa in fam_a.faces:
        image = [correspondence[x] for x in fa.vertices]
        fb = by_vertex_set.get(frozenset(image))
        if fb is None:
            raise LinkError(
                f"image {sorted(image)} of face {fa.vertices} is not a "
                f"fam_b face")
        pairing = None
        for a in range(4):
            if all(fb.vertices[(a - k) % 4] == image[k] for k in range(4)):
                pairing = a
                break
        if pairing is None:
            raise LinkError(
                f"face {fa.vertices}: correspondence does not reverse the "
                f"boundary of {fb.vertices}; copies must be mirrored")
        current, rec = add_handle(current, fa, fb, pairing)
        records.append(rec)
    return current, records


def partition_faces_K2r2r(e: Embedding) -> FaceReservoir:
    """Partition the 2r^2 faces of a quadrilateral embedding of K(2r,2r)
    into 2r families of r faces, each family covering all 4r vertices.

    Deterministic backtracking over the canonical face order; the first
    face pins the first family, and a new family may open only when all
    earlier ones are in use.
    """
    faces = trace_faces(e)
    n = e.graph.n
    if n % 4 != 0:
        raise InvalidParameterError("expected |V| = 4r")
    r = n // 4
    if not all(len(f) == 4 for f in faces.faces) or len(faces) != 2 * r * r:
        raise InvalidParameterError(
            f"expected a quadrilateral embedding with {2 * r * r} faces, "
            f"got {len(faces)}")
    quads = quad_faces(faces)
    assignment: list[int] = [-1] * len(quads)
    used: list[set[int]] = [set() for _ in range(2 * r)]
    sizes = [0] * (2 * r)

    def place(idx: int, opened: int) -> bool:
        if idx == len(quads):
            return True
        vset = quads[idx].vertex_set
        limit = min(opened + 1, 2 * r)
        for fam in range(limit):
            if sizes[fam] == r or used[fam] & vset:
                continue
            assignment[idx] = fam
            used[fam] |= vset
            sizes[fam] += 1
            if place(idx + 1, max(opened, fam + 1)):
                return True
            assignment[idx] = -1
            used[fam] -= vset
            sizes[fam] -= 1
        return False

    if not place(0, 0):
        raise PartitionError(
            "no partition of the faces into vertex-covering families")
    families = []
    for fam in range(2 * r):
        members = tuple(q for i, q in enumerate(quads) if assignment[i] == fam)
        families.append(FaceFamily(members))
    reservoir = FaceReservoir(tuple(families))
    check_reservoir(e, reservoir)
    return reservoir


def reservoir_from_links(link_records: Sequence[Sequence[HandleRecord]],
                         e: Embedding, closed: bool) -> FaceReservoir:
    """Two fresh face families from the handles of alternate links.

    Links are taken in ring (or path) order; those with even index form a
    perfect matching on the copies, so collecting each of their handles'
    opposite-face pairs gives two disjoint families that cover every
    vertex: family 1 takes handle faces {0, 2}, family 2 takes {1, 3}.
    """
    if closed and len(link_records) % 2 != 0:
        raise InvalidParameterError(
            "a closed ring of links must have even length")
    chosen = range(0, len(link_records), 2)
    fam1: list[QuadFace] = []
    fam2: list[QuadFace] = []
    for li in chosen:
        for rec in link_records[li]:
            fam1.extend((rec.created[0], rec.created[2]))
            fam2.extend((rec.created[1], rec.created[3]))
    reservoir = FaceReservoir(
        (FaceFamily(tuple(fam1)), FaceFamily(tuple(fam2))))
    check_reservoir(e, reservoir)
    return reservoir


def check_reservoir(e: Embedding, reservoir: FaceReservoir,
                    full_cover: bool = True) -> None:
    """Families must be pairwise face-disjoint; within a family, faces are
    vertex-disjoint and (when full_cover) tile the whole vertex set."""
    seen_faces: set[tuple[int, ...]] = set()
    for fam in reservoir.families:
        covered: set[int] = set()
        for face in fam.faces:
            key = canonical_face(face.darts())
            if key in seen_faces:
                raise ConstructionError(
                    f"face {face.vertices} appears in two families")
            seen_faces.add(key)
            if covered & face.vertex_set:
                raise ConstructionError(
                    f"family faces overlap at "
                    f"{sorted(covered & face.vertex_set)}")
            covered |= face.vertex_set
        if full_cover and covered != set(range(e.graph.n)):
            missing = sorted(set(range(e.graph.n)) - covered)[:8]
            raise ConstructionError(
                f"family covers {len(covered)} of {e.graph.n} vertices "
                f"(first missing: {missing})")


def handle_record_to_json_dict(rec: HandleRecord) -> dict:
    return {
        "consumed": [list(f.vertices) for f in rec.consumed],
        "added_edges": [list(d) for d in rec.added_edges],
        "created": [list(f.vertices) for f in rec.created],
    }
