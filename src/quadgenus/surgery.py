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

A face is a tuple of its four vertices in trace order, from any start,
and a handle is the aligned pair (v, w) that add returns: handle_faces
gives its four faces, and it consumed v and w reversed.  Pairing a
means wk = F2[(a - k) mod 4], F2 walked backwards: the reversal the
construction's mirrored copies make consistent with the product edges.

The rotation splice is local: each new edge enters the rotation at its
endpoint between the two boundary darts of the consumed face there, so
only the sixteen darts of the four created faces change their successor
(the eight consumed darts and the eight new ones).  A mutable rotation
is one list row per vertex, its neighbours in rotation order; splice
makes the eight inserts, each after an existing neighbour, so a row
keeps the neighbour it starts at.  is_face is the one corner test: at
each corner p, x, q of a cycle, q follows p in x's row, and remove
takes a handle out of the rows again.  The factor step splices its rows
with splice, the removal route takes the closing link's handles out of
those same rows with remove, and check_reservoir proves every reservoir
face with is_face.  add, the checked handle of criterion 6 and the
tests, splices the rows and proves the handle locally instead of
retracing: each of the four created faces must close.  Those faces hold
the sixteen darts the splice changed, so that pins the deltas at m +4,
f +2, chi -2.

remove needs no search and no dart bookkeeping: the handle's eight
vertices are distinct, so each row loses one entry, and its four faces
must be current.  Faces k-1 and k then put wk between v(k-1) and v(k+1)
at vk, and vk between w(k+1) and w(k-1) at wk, so taking wk out of vk's
row and vk out of wk's changes the successor of exactly the darts
(v(k-1), vk) and (w(k+1), wk), the darts of v and w reversed; with the
eight removed darts they are the sixteen of the handle faces.  A row
that loses its front entry starts at the one that followed it.  remove
still proves that v and w reversed close.

Faces not involved stay faces, so callers may keep faces and handles
across many operations on the same rows as long as each face is
consumed at most once.
"""

from __future__ import annotations

from typing import Sequence

from .errors import (ConstructionError, InvalidParameterError,
                     LocalProofError, SurgeryError)


def handle_faces(v: Sequence[int], w: Sequence[int]
                 ) -> tuple[tuple[int, int, int, int], ...]:
    """The four faces of the handle (v, w): face k is
    (vk, v(k+1), w(k+1), wk), indices mod 4, starting at vk."""
    v0, v1, v2, v3 = v
    w0, w1, w2, w3 = w
    return ((v0, v1, w1, w0), (v1, v2, w2, w1), (v2, v3, w3, w2),
            (v3, v0, w0, w3))


def rotate_to_least(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """A vertex cycle rotated to start at its least vertex.  For a face
    with distinct vertices that is its least dart, the start every traced
    face has."""
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]


def splice(rows: Sequence[list[int]], v: tuple[int, ...],
           w: tuple[int, ...]) -> None:
    """Lay the handle's edges vk - wk into the rows, each between the
    consumed faces' boundary darts at its ends: wk after v(k-1) at vk,
    and vk after w(k+1) at wk.  Each insertion changes the successor of
    one dart, the one into the endpoint from the neighbour the new edge
    now follows: a consumed dart."""
    for x, p, u in zip(v + w, v[3:] + v[:3] + w[1:] + w[:1], w + v):
        row = rows[x]
        row.insert(row.index(p) + 1, u)


def is_face(rows: Sequence[Sequence[int]], cycle: Sequence[int]) -> bool:
    """Whether the vertex cycle `cycle`, from any start, is a face of the
    rows: at each corner p, x, q, the wrap-around one included, q
    follows p in x's row."""
    p, x = cycle[-2], cycle[-1]
    for q in cycle:
        row = rows[x]
        try:
            i = row.index(p)
        except ValueError:  # p is no neighbour of x
            return False
        # i + 1 - len(row) is the successor's index, wrapped round to 0
        # at the end of the row without a modulo.
        if row[i + 1 - len(row)] != q:
            return False
        p, x = x, q
    return True


def remove(rows: Sequence[list[int]],
           handle: tuple[Sequence[int], Sequence[int]]) -> None:
    """Inverse of a splice: delete the edges of the handle (v, w), whose
    eight vertices must be distinct and four faces current, and prove
    that the faces it consumed, v and w reversed, close again (face
    count -2).  The module docstring says why this is exact."""
    v, w = tuple(handle[0]), tuple(handle[1])
    if len(v) != 4 or len(w) != 4 or len(set(v + w)) != 8:
        raise SurgeryError(f"handle {v}, {w} is not 8 distinct vertices")
    for face in handle_faces(v, w):
        if not is_face(rows, face):
            raise SurgeryError(f"handle face {face} no longer current")
    for a, b in zip(v + w, w + v):
        rows[a].remove(b)
    for face in (v, w[::-1]):
        if not is_face(rows, face):
            raise LocalProofError(
                f"face {face} did not close after the removal")


def add(rows: Sequence[list[int]], f1: Sequence[int], f2: Sequence[int],
        pairing: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Join two vertex-disjoint quadrilateral faces of the rows by a
    handle carrying four edges vk - wk, and return it as (v, w): v is f1
    and w is f2 aligned by `pairing`, as the module docstring says.

    Checks, on every call and in this order: the pairing is 0..3, each
    face is four distinct vertices, the faces share no vertex, both are
    current, and none of the four edges exists.  After the splice comes
    the local proof: each face of handle_faces(v, w) closes.  The splice
    changes only the successors of the consumed and the added darts,
    which those faces cover, so they are the only faces changed: edge
    count +4, face count +2, Euler characteristic -2.  A failed check
    before the splice leaves the rows as they were; a failed local proof
    raises LocalProofError.  If the two faces lie in different
    components the components merge and total genus adds; within one
    component the genus rises by one.
    """
    if pairing not in (0, 1, 2, 3):
        raise InvalidParameterError(f"pairing must be 0..3, got {pairing}")
    v, x = tuple(f1), tuple(f2)
    for face in (v, x):
        if len(face) != 4 or len(set(face)) != 4:
            raise InvalidParameterError(
                f"quadrilateral face needs 4 distinct vertices: {face}")
    if not set(v).isdisjoint(x):
        raise SurgeryError(f"faces share vertices {sorted(set(v) & set(x))}")
    for face in (v, x):
        if not is_face(rows, face):
            raise SurgeryError(f"face {face} is not a face of the "
                               f"current embedding")
    # wk = f2[(pairing - k) mod 4]: f2 walked backwards
    w = (x[pairing], x[pairing - 1], x[pairing - 2], x[pairing - 3])
    for k in range(4):
        if w[k] in rows[v[k]]:
            raise SurgeryError(f"edge ({v[k]},{w[k]}) already present")

    splice(rows, v, w)
    for quad in handle_faces(v, w):
        if not is_face(rows, quad):
            raise LocalProofError(
                f"face {quad} did not close after the splice")
    return v, w


def check_reservoir(rows: Sequence[Sequence[int]],
                    reservoir: Sequence[tuple[tuple[int, ...], ...]]
                    ) -> None:
    """Families must be pairwise face-disjoint; within a family, faces are
    vertex-disjoint and tile the whole vertex set of the n = len(rows)
    vertices; and every face must be a face of the rows.

    A face is keyed by its vertex tuple rotated to the least vertex, and
    each family marks the vertices it covers in one bytearray; a vertex
    outside 0..n-1 covers nothing and is kept apart, so it is refused as
    a cover that misses the vertex set.  Only a reservoir that passes
    these structural checks has its faces proved, by is_face."""
    n = len(rows)
    seen_faces: set[tuple[int, ...]] = set()
    for fam in reservoir:
        covered = bytearray(n)
        outside: set[int] = set()
        for quad in fam:
            key = rotate_to_least(quad)
            if key in seen_faces:
                raise ConstructionError(
                    f"face {quad} appears in two families")
            seen_faces.add(key)
            a, b, c, d = quad
            if key[0] >= 0 and max(quad) < n and not (
                    covered[a] or covered[b] or covered[c] or covered[d]):
                covered[a] = covered[b] = covered[c] = covered[d] = 1
                continue
            overlap = sorted(x for x in quad if (covered[x] if 0 <= x < n
                                                 else x in outside))
            if overlap:
                raise ConstructionError(f"family faces overlap at {overlap}")
            for x in quad:
                if 0 <= x < n:
                    covered[x] = 1
                else:
                    outside.add(x)
        if outside or 0 in covered:
            missing = [x for x in range(n) if not covered[x]][:8]
            raise ConstructionError(
                f"family covers {covered.count(1) + len(outside)} of {n} "
                f"vertices (first missing: {missing})")
    for fam in reservoir:
        for quad in fam:
            if not is_face(rows, quad):
                raise ConstructionError(
                    f"reservoir face {quad} is not a face")
