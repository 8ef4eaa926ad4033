import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from quadgenus import embeddings, graphs
from quadgenus.embeddings import (Embedding, _orbits, canonical_json_bytes,
                                  certificate_from_json_dict,
                                  certificate_to_json_dict,
                                  components_certificate,
                                  embedding_from_json_dict,
                                  embedding_to_json_dict, euler_genus,
                                  face_lengths, face_successors,
                                  genus_lower_bound, trace_faces)
from quadgenus.errors import (EmbeddingError, InvalidParameterError,
                              NotApplicableError)
from quadgenus.graphs import (from_edges, make_complete_bipartite,
                              make_cycle, make_path)

K22_ROT = ((2, 3), (3, 2), (0, 1), (1, 0))


def k22_embedding() -> Embedding:
    return Embedding(make_complete_bipartite(2, 2), K22_ROT)


def test_k22_faces_hand_traced():
    # worked out by hand: two square faces on the sphere
    fs = trace_faces(k22_embedding())
    assert [tuple(u for u, _ in fc) for fc in fs] == [
        (0, 2, 1, 3), (0, 3, 1, 2)]
    assert [len(f) for f in fs] == [4, 4]


def test_faces_are_canonical_and_indexable():
    fs = trace_faces(k22_embedding())
    for fc in fs:
        assert min(fc) == fc[0]
    idx = {f: i for i, f in enumerate(fs)}
    assert idx[fs[1]] == 1
    assert tuple(u for (u, _) in fs[0]) == (0, 2, 1, 3)


def test_each_dart_used_exactly_once():
    e = k22_embedding()
    fs = trace_faces(e)
    darts = [d for fc in fs for d in fc]
    assert len(darts) == 2 * e.graph.m
    assert len(set(darts)) == len(darts)


def test_validate_catches_rotation_mismatch():
    g = make_complete_bipartite(2, 2)
    bad = Embedding(g, ((2, 3), (3, 2), (0, 1), (1, 1)))
    with pytest.raises(EmbeddingError, match="vertex 3: repeated"):
        face_successors(bad)
    with pytest.raises(EmbeddingError):
        trace_faces(bad)


def test_validate_catches_missing_neighbor():
    g = make_complete_bipartite(2, 2)
    bad = Embedding(g, ((2, 3), (3, 2), (0, 1), (0,)))
    with pytest.raises(EmbeddingError, match="vertex 3: rotation is not"):
        face_successors(bad)


def test_euler_genus_k22_sphere():
    cert = euler_genus(k22_embedding())
    assert (cert.n, cert.m, cert.f, cert.genus) == (4, 4, 2, 0)
    assert cert.quadrilateral and cert.bipartite and cert.minimal


def test_euler_genus_k33_torus():
    # rotation taken from a classic hexagonal torus drawing
    g = make_complete_bipartite(3, 3)
    rot = ((3, 4, 5), (3, 5, 4), (3, 4, 5),
           (0, 1, 2), (0, 2, 1), (0, 1, 2))
    cert = euler_genus(Embedding(g, rot))
    assert cert.genus == 1
    assert cert.bipartite


def test_euler_genus_rejects_disconnected():
    g = from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                       (4, 5), (5, 6), (6, 7), (7, 4)])
    rot = tuple(tuple(sorted(g.adj[v])) for v in range(8))
    with pytest.raises(InvalidParameterError):
        euler_genus(Embedding(g, rot))


def test_components_certificate_sums_genus():
    g = from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                       (4, 5), (5, 6), (6, 7), (7, 4)])
    e = Embedding(g, tuple(tuple(sorted(g.adj[v])) for v in range(8)))
    cert, genus = components_certificate(e)
    assert cert is None
    assert genus == sum(euler_genus(restrict(e, part)).genus
                        for part in ([0, 1, 2, 3], [4, 5, 6, 7])) == 0


def test_lone_vertex_lies_on_one_face():
    cert = euler_genus(Embedding(from_edges(1, []), ((),)))
    assert (cert.n, cert.m, cert.f, cert.genus) == (1, 0, 1, 0)
    assert cert.minimal and not cert.quadrilateral
    # each lone vertex's face is counted: without it, n - m + f = 1
    assert components_certificate(
        Embedding(from_edges(2, []), ((), ()))) == (None, 0)


def test_components_certificate_of_connected_embedding_is_euler_genus():
    e = k22_embedding()
    assert components_certificate(e) == (euler_genus(e), 0)


def restrict(e: Embedding, vertices: list[int]) -> Embedding:
    """The embedding of the component on ``vertices`` (sorted) on its
    own, its vertices renumbered in that order."""
    index = {v: i for i, v in enumerate(vertices)}
    g = from_edges(len(vertices), [(index[v], index[w]) for v in vertices
                                   for w in e.graph.adj[v] if v < w])
    return Embedding(g, tuple(tuple(index[w] for w in e.rotation[v])
                              for v in vertices))


@st.composite
def rotations_with_components(draw):
    """An embedding of 1-4 connected pieces (a lone vertex among them,
    sometimes), their vertices interleaved by a random numbering, and
    the pieces' vertex sets in order of their least vertex."""
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 5))
        # a random spanning tree, then random extra edges
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, k)]
        if k > 1:
            pairs = [(u, v) for v in range(k) for u in range(v)]
            edges += draw(st.lists(st.sampled_from(pairs), max_size=6))
        pieces.append((k, edges))
    n = sum(k for k, _ in pieces)
    number = draw(st.permutations(range(n)))
    edges, parts, first = [], [], 0
    for k, piece in pieces:
        edges += {(min(number[first + u], number[first + v]),
                   max(number[first + u], number[first + v]))
                  for u, v in piece}
        parts.append(sorted(number[first:first + k]))
        first += k
    g = from_edges(n, sorted(set(edges)))
    rot = tuple(tuple(draw(st.permutations(g.adj[v]))) for v in range(n))
    return Embedding(g, rot), sorted(parts)


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rotations_with_components())
def test_components_certificate_is_each_component_on_its_own(drawn):
    e, parts = drawn
    cert, genus = components_certificate(e)
    assert genus == sum(euler_genus(restrict(e, part)).genus
                        for part in parts)
    assert (cert is None) == (len(parts) >= 2)
    if cert is not None:
        assert cert == euler_genus(e)


def reversed_rotations(e: Embedding) -> Embedding:
    """The mirror image: every rotation reversed, as in a mirrored copy."""
    return Embedding(e.graph, tuple(tuple(reversed(r)) for r in e.rotation))


def test_reversed_rotations_reverse_faces():
    # a mirrored copy traces every face of the original backwards
    e = Embedding(make_complete_bipartite(4, 4),
                  tuple(tuple(sorted(adj)) for adj in
                        make_complete_bipartite(4, 4).adj))
    forward = {frozenset(fc) for fc in trace_faces(e)}
    backward = {frozenset((v, u) for (u, v) in fc)
                for fc in trace_faces(reversed_rotations(e))}
    assert forward == backward


def test_genus_lower_bound_values():
    assert genus_lower_bound(make_complete_bipartite(4, 4)) == 1
    assert genus_lower_bound(make_complete_bipartite(6, 6)) == 4
    assert genus_lower_bound(make_cycle(4)) == 0
    assert genus_lower_bound(make_path(5)) == 0  # forest floor


def test_genus_lower_bound_rejects_nonbipartite():
    c5 = from_edges(5, [(v, (v + 1) % 5) for v in range(5)])
    with pytest.raises(NotApplicableError):
        genus_lower_bound(c5)


def test_quadrilateral_predicate():
    assert euler_genus(k22_embedding()).quadrilateral
    g = make_cycle(4)
    ring = Embedding(g, tuple(tuple(sorted(g.adj[v])) for v in range(4)))
    assert [len(f) for f in trace_faces(ring)] == [4, 4]
    assert euler_genus(ring).quadrilateral
    edge = make_path(2)
    single = Embedding(edge, ((1,), (0,)))
    assert [len(f) for f in trace_faces(single)] == [2]
    assert not euler_genus(single).quadrilateral


def test_embedding_json_round_trip():
    e = k22_embedding()
    data = json.loads(canonical_json_bytes(embedding_to_json_dict(e)))
    back = embedding_from_json_dict(data)
    assert back == e


@st.composite
def rotations_of_labelled_graphs(draw):
    """A random simple graph on at most 9 vertices, often disconnected or
    with isolated vertices and sometimes labelled, under a random
    rotation system."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=20)) if pairs else []
    label = st.tuples(st.integers(0, 3) | st.text(max_size=2))
    labels = draw(st.none() | st.lists(label, min_size=n, max_size=n))
    g = from_edges(n, edges, labels)
    rot = tuple(tuple(draw(st.permutations(g.adj[v]))) for v in range(n))
    return Embedding(g, rot)


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rotations_of_labelled_graphs())
def test_embedding_json_round_trips_from_the_rows(e):
    data = json.loads(canonical_json_bytes(embedding_to_json_dict(e)))
    assert "edges" not in data["graph"]
    assert embedding_from_json_dict(data) == e


@pytest.mark.parametrize("n, row", [(50_000, []), (4000, [1, 2])],
                         ids=["n", "darts"])
def test_embedding_past_the_cap_is_refused_before_any_vertex_is_built(
        monkeypatch, n, row):
    # 4000 rows of two entries are 8000 darts; refused, the loader has
    # allocated less than one list of n entries would take
    monkeypatch.setattr(graphs, "MAX_DARTS", 4096)

    def builder(*args):
        raise AssertionError("rows reached the graph builder")

    monkeypatch.setattr(embeddings, "from_rows", builder)
    data = {"graph": {"n": n, "labels": [["v"]] * n}, "rotation": [row] * n}
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match="refused"):
            embedding_from_json_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


def test_certificate_json_round_trip():
    cert = euler_genus(k22_embedding(), construction_tag="K(2,2)")
    back = certificate_from_json_dict(
        json.loads(canonical_json_bytes(certificate_to_json_dict(cert))))
    assert back == cert


def test_canonical_json_is_stable():
    blob = {"b": 1, "a": [1, 2]}
    assert canonical_json_bytes(blob) == canonical_json_bytes(dict(blob))
    assert canonical_json_bytes(blob).endswith(b"\n")


def test_canonical_json_is_compact():
    e = k22_embedding()
    blob = {"embedding": embedding_to_json_dict(e),
            "certificate": certificate_to_json_dict(
                euler_genus(e, construction_tag="K(2,2)"))}
    data = canonical_json_bytes(blob)
    assert b" " not in data and b"\n" not in data[:-1]
    assert data.endswith(b"\n")
    # the dict holds the frozen tuples, which decode as lists
    assert json.loads(data) == json.loads(json.dumps(blob))
    assert json.loads(data)["embedding"]["rotation"] == [
        list(row) for row in e.rotation]


# properties over random rotation systems of fixed small graphs


@st.composite
def rotations_of_k33(draw):
    g = make_complete_bipartite(3, 3)
    rot = []
    for v in range(g.n):
        ring = list(g.adj[v])
        perm = draw(st.permutations(ring))
        rot.append(tuple(perm))
    return Embedding(g, tuple(rot))


@given(rotations_of_k33())
def test_random_rotations_trace_consistently(e):
    fs = trace_faces(e)
    darts = [d for fc in fs for d in fc]
    assert len(darts) == 2 * e.graph.m and len(set(darts)) == len(darts)
    cert = euler_genus(e)
    assert cert.genus >= genus_lower_bound(e.graph)


@given(rotations_of_k33())
def test_mirror_preserves_face_count(e):
    assert len(trace_faces(e)) == len(trace_faces(reversed_rotations(e)))


def tuple_trace(e: Embedding) -> tuple:
    """Reference tracer on (u, v) tuples: scan darts in sorted order and
    walk each unvisited one's orbit under (u, v) -> (v, next of u at v)."""
    pos = [{u: i for i, u in enumerate(rot)} for rot in e.rotation]
    visited = set()
    faces = []
    for start in sorted((u, v) for u in range(e.graph.n)
                        for v in e.rotation[u]):
        if start in visited:
            continue
        face = []
        dart = start
        while dart not in visited:
            visited.add(dart)
            face.append(dart)
            u, v = dart
            rot = e.rotation[v]
            dart = (v, rot[(pos[v][u] + 1) % len(rot)])
        faces.append(tuple(face))
    return tuple(faces)


@st.composite
def rotations_of_small_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = from_edges(n, edges)
    rot = tuple(tuple(draw(st.permutations(g.adj[v]))) for v in range(n))
    return Embedding(g, rot)


@given(rotations_of_small_graphs())
def test_trace_faces_matches_tuple_tracer(e):
    # faces, their order and their start darts all agree
    assert trace_faces(e) == tuple_trace(e)


@settings(derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rotations_of_small_graphs())
def test_face_lengths_are_the_traced_face_lengths(e):
    # the certificates' orbit lengths and trace_faces walk one successor
    # list, in the same order
    assert face_lengths(e) == [len(face) for face in trace_faces(e)]


def reference_refusal(e: Embedding):
    """In-test reference for the check of a rotation system: n rows, and
    every row, sorted, its vertex's adjacency.  None if it holds, else
    the refusal, naming the row count or the first row that fails."""
    n, adj = e.graph.n, e.graph.adj
    if len(e.rotation) != n:
        return (f"rotation table has {len(e.rotation)} rows, graph has "
                f"{n} vertices")
    for v, row in enumerate(e.rotation):
        if sorted(row) != list(adj[v]):
            if len(set(row)) != len(row):
                return f"vertex {v}: repeated neighbour in rotation"
            return (f"vertex {v}: rotation is not a permutation of its "
                    "neighbourhood")
    return None


BREAKS = ("repeat", "insert", "drop", "self", "non-neighbour", "too large",
          "minus one", "extra row", "missing row")


@st.composite
def broken_rotations_of_small_graphs(draw):
    """A rotation system broken one way.  In one row: a neighbour put in
    place of another or inserted again, one left out, or one replaced by
    the vertex itself, by a non-neighbour, by an index >= n, or by -1 at
    a vertex adjacent to n-1 (where indexing a list by -1 would read that
    vertex's darts).  Or a row too many, or one too few."""
    e = draw(rotations_of_small_graphs())
    n, adj = e.graph.n, e.graph.adj
    rotation = list(e.rotation)
    kind = draw(st.sampled_from(BREAKS))
    if kind == "extra row":
        rotation.append(tuple(draw(st.lists(st.integers(0, n - 1),
                                            max_size=3))))
        return Embedding(e.graph, tuple(rotation))
    if kind == "missing row":
        rotation.pop(draw(st.integers(0, n - 1)))
        return Embedding(e.graph, tuple(rotation))
    if kind == "minus one":
        where = [v for v in range(n) if n - 1 in adj[v]]
    elif kind == "non-neighbour":
        where = [v for v in range(n) if 0 < len(adj[v]) < n - 1]
    elif kind == "repeat":
        where = [v for v in range(n) if len(adj[v]) >= 2]
    else:
        where = [v for v in range(n) if adj[v]]
    assume(where)
    v = draw(st.sampled_from(where))
    row = list(rotation[v])
    at = draw(st.integers(0, len(row) - 1))
    if kind == "repeat":
        row[at] = draw(st.sampled_from(row[:at] + row[at + 1:]))
    elif kind == "insert":
        row.insert(draw(st.integers(0, len(row))), row[at])
    elif kind == "drop":
        row.pop(at)
    elif kind == "self":
        row[at] = v
    elif kind == "non-neighbour":
        row[at] = draw(st.sampled_from(
            [u for u in range(n) if u != v and u not in adj[v]]))
    elif kind == "too large":
        row[at] = draw(st.integers(n, n + 3))
    else:
        row[at] = -1
    rotation[v] = tuple(row)
    return Embedding(e.graph, tuple(rotation))


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rotations_of_small_graphs() | broken_rotations_of_small_graphs())
def test_successor_build_refuses_exactly_what_the_reference_refuses(e):
    refusal = reference_refusal(e)
    if refusal is None:
        succ = face_successors(e)
        assert sorted(succ) == list(range(2 * e.graph.m))
    else:
        with pytest.raises(EmbeddingError) as refused:
            face_successors(e)
        # the same decision, and the same vertex named (or the row count)
        assert str(refused.value).split(":")[0] == refusal.split(":")[0]


@settings(derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(broken_rotations_of_small_graphs())
def test_broken_rotation_is_refused_alike_on_both_paths(e):
    with pytest.raises(EmbeddingError) as by_lengths:
        face_lengths(e)
    with pytest.raises(EmbeddingError) as by_faces:
        trace_faces(e)
    assert str(by_lengths.value) == str(by_faces.value)
    assert str(by_lengths.value) == reference_refusal(e)


@pytest.mark.parametrize("succ", [[1, 1], [0, 0, 1], [1, 2, 1]])
def test_orbit_walk_refuses_a_non_permutation(succ):
    # unreachable from a validated rotation system; the walk still checks
    with pytest.raises(EmbeddingError, match="did not close"):
        _orbits(succ)
