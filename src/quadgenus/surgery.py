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
endpoint between the two boundary darts of the consumed face there, so
only the sixteen darts of the four created faces change their successor
(the eight consumed darts and the eight new ones).  Surgery is the working
state that exploits this: it edits the rotations of the eight touched
vertices in place and proves each handle locally instead of retracing.
It walks the four created faces, requires each to close as the expected
quadrilateral and all four together to cover exactly the changed darts,
which pins the deltas at m +4, f +2, chi -2; removal proves the two
reinstated faces the same way.  The proof compares sets of integer dart
keys, u * n + v for the dart (u, v), read straight off the faces' vertex
tuples.  Faces not involved stay faces, so callers may keep face handles
across many operations as long as each face is consumed at most once, and
freeze the state into an Embedding only when they need one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (ConstructionError, InvalidParameterError, LinkError,
                     SurgeryError)
from .embeddings import Dart, Embedding, FaceSet, canonical_face
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


def _tiles(faces: Sequence[QuadFace], keys: set[int], n: int) -> bool:
    """The faces are dart-disjoint and their darts, keyed u * n + v, are
    exactly `keys`."""
    listed: list[int] = []
    for face in faces:
        a, b, c, d = face.vertices
        listed += (a * n + b, b * n + c, c * n + d, d * n + a)
    return len(listed) == len(keys) and set(listed) == keys


class Surgery:
    """A mutable embedding for a run of handle operations.

    Holds one rotation list and one neighbour -> position dict per
    vertex, plus the edge count; add and remove change only the rows of
    the eight vertices they touch, and freeze() returns the Embedding.
    add and remove check their preconditions before changing anything,
    so a refused handle leaves the state as it was.  A failed local proof
    raises SurgeryError with the state half changed; discard it then.
    """

    def __init__(self, e: Embedding):
        self.n = e.graph.n
        self.labels = e.graph.labels
        self.rotation = [list(rot) for rot in e.rotation]
        self.pos = [{u: i for i, u in enumerate(rot)} for rot in e.rotation]
        self.m = e.graph.m

    def is_face(self, face: QuadFace) -> bool:
        """Check the 4 corners of `face` against the successor rule."""
        v = face.vertices
        for k in range(4):
            a, b, c = v[k - 1], v[k], v[(k + 1) % 4]
            i = self.pos[b].get(a)
            if i is None:
                return False
            rot = self.rotation[b]
            if rot[(i + 1) % len(rot)] != c:
                return False
        return True

    def _insert(self, x: int, after: int, u: int) -> int:
        """Put u right after `after` in the rotation at x; returns the key
        of the dart into x whose successor this changes."""
        rot, pos = self.rotation[x], self.pos[x]
        i = pos[after] + 1
        rot.insert(i, u)
        for j in range(i, len(rot)):
            pos[rot[j]] = j
        return rot[i - 1] * self.n + x

    def _delete(self, x: int, u: int) -> int:
        """Take u out of the rotation at x; returns the key of the dart
        into x whose successor this changes."""
        rot, pos = self.rotation[x], self.pos[x]
        i = pos.pop(u)
        del rot[i]
        for j in range(i, len(rot)):
            pos[rot[j]] = j
        return rot[i - 1] * self.n + x

    def _prove(self, gone: Sequence[QuadFace], made: Sequence[QuadFace],
               before: set[int], after: set[int]) -> None:
        """Local proof of a splice.  `before` and `after` are the darts
        whose successor the splice changed, with the removed darts added to
        `before` and the new ones to `after`; every other dart keeps its
        face.  The `gone` faces were current before the splice; if their
        darts are exactly `before`, they are the only faces it destroyed.
        If every `made` face is current now and their darts are exactly
        `after`, they are the only faces it created.  The face count then
        changed by len(made) - len(gone).  Darts are keyed u * n + v."""
        if not _tiles(gone, before, self.n):
            raise SurgeryError("splice touched darts outside the faces it "
                               "consumed")
        for face in made:
            if not self.is_face(face):
                raise SurgeryError(
                    f"face {face.vertices} did not close after the splice")
        if not _tiles(made, after, self.n):
            raise SurgeryError("faces closed by the splice do not cover the "
                               "darts it changed")

    def add(self, f1: QuadFace, f2: QuadFace, pairing: int) -> HandleRecord:
        """Join two vertex-disjoint quadrilateral faces by a handle carrying
        four edges.  See the module docstring for the pairing convention
        and the resulting faces.

        Checks, on every call: both faces are current and share no vertex,
        none of the four edges exists, and, after the splice, the local
        proof that the four created faces are the expected quadrilaterals
        and the only faces changed: edge count +4, face count +2, Euler
        characteristic -2.  If the two faces lie in different components
        the components merge and total genus adds; within one component
        the genus rises by one.
        """
        if pairing not in (0, 1, 2, 3):
            raise InvalidParameterError(
                f"pairing must be 0..3, got {pairing}")
        if not set(f1.vertices).isdisjoint(f2.vertices):
            raise SurgeryError(
                f"faces share vertices "
                f"{sorted(f1.vertex_set & f2.vertex_set)}")
        for face in (f1, f2):
            if not self.is_face(face):
                raise SurgeryError(f"face {face.vertices} is not a face of "
                                   f"the current embedding")
        v = f1.vertices
        w = tuple(f2.vertices[(pairing - k) % 4] for k in range(4))
        for k in range(4):
            if w[k] in self.pos[v[k]]:
                raise SurgeryError(f"edge ({v[k]},{w[k]}) already present")

        # New edge vk - wk sits between the consumed faces' boundary darts:
        # after v(k-1) at vk, and after w(k+1) at wk.
        n = self.n
        changed = set()
        for k in range(4):
            changed.add(self._insert(v[k], v[k - 1], w[k]))
            changed.add(self._insert(w[k], w[(k + 1) % 4], v[k]))
        added = {key for k in range(4)
                 for key in (v[k] * n + w[k], w[k] * n + v[k])}
        created = []
        for k in range(4):
            # face k rotated to its least vertex: with four distinct
            # vertices that is its least dart, as canonical_face picks
            quad = (v[k], v[(k + 1) % 4], w[(k + 1) % 4], w[k])
            i = quad.index(min(quad))
            created.append(QuadFace(quad[i:] + quad[:i]))
        self._prove((f1, f2), created, changed, changed | added)
        self.m += 4
        return HandleRecord(
            consumed=(f1, f2),
            added_edges=tuple((v[k], w[k]) for k in range(4)),
            created=tuple(created),
        )

    def remove(self, record: HandleRecord) -> None:
        """Inverse of add: delete the handle's four edges and reinstate the
        two consumed faces, with the same local proof (face count -2).
        Only records whose created faces are still current can be
        removed."""
        for face in record.created:
            if not self.is_face(face):
                raise SurgeryError(
                    f"created face {face.vertices} no longer current; "
                    f"handle cannot be removed")
        n = self.n
        removed: set[int] = set()
        for (a, b) in record.added_edges:
            if b not in self.pos[a] or a * n + b in removed:
                raise SurgeryError(f"edge ({a},{b}) not present")
            removed.update((a * n + b, b * n + a))
        changed = set()
        for (a, b) in record.added_edges:
            changed.add(self._delete(a, b))
            changed.add(self._delete(b, a))
        self._prove(record.created, record.consumed, changed | removed,
                    changed)
        self.m -= len(record.added_edges)

    def link(self, fam_a: tuple[QuadFace, ...], fam_b: tuple[QuadFace, ...],
             offset: int) -> list[HandleRecord]:
        """One link: a handle per face of fam_a, joining it to the fam_b
        face on the vertices `offset` indices further on.

        For faces taken from two copies of one embedding laid out in
        contiguous index blocks, `offset` is the distance between the
        copies' blocks.  The shift must send each fam_a boundary onto a
        fam_b boundary traced the opposite way round, which holds exactly
        when one copy is mirrored; otherwise no pairing yields the product
        edges and the link is refused.
        """
        if len(fam_a) != len(fam_b):
            raise LinkError(
                f"family sizes differ: {len(fam_a)} vs {len(fam_b)}")
        by_vertex_set = {f.vertex_set: f for f in fam_b}
        if len(by_vertex_set) != len(fam_b):
            raise LinkError("fam_b faces are not vertex-disjoint")
        records: list[HandleRecord] = []
        for fa in fam_a:
            image = [x + offset for x in fa.vertices]
            fb = by_vertex_set.get(frozenset(image))
            if fb is None:
                raise LinkError(
                    f"image {sorted(image)} of face {fa.vertices} is not a "
                    f"fam_b face")
            pairing = None
            for a in range(4):
                if all(fb.vertices[(a - k) % 4] == image[k]
                       for k in range(4)):
                    pairing = a
                    break
            if pairing is None:
                raise LinkError(
                    f"face {fa.vertices}: offset {offset} does not reverse "
                    f"the boundary of {fb.vertices}; copies must be mirrored")
            records.append(self.add(fa, fb, pairing))
        return records

    def freeze(self) -> Embedding:
        adj = tuple(tuple(sorted(rot)) for rot in self.rotation)
        return Embedding(Graph(self.n, adj, self.labels),
                         tuple(tuple(rot) for rot in self.rotation))


def check_reservoir(e: Embedding,
                    reservoir: Sequence[tuple[QuadFace, ...]]) -> None:
    """Families must be pairwise face-disjoint; within a family, faces are
    vertex-disjoint and tile the whole vertex set."""
    seen_faces: set[tuple[int, ...]] = set()
    for fam in reservoir:
        covered: set[int] = set()
        for face in fam:
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
        if covered != set(range(e.graph.n)):
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
