import copy
import dataclasses
import json

import pytest

from quadgenus import constructions, embeddings, graphs, surgery
from quadgenus.constructions import (_link_step, _prove_level,
                                     _scheme_reservoir, _scheme_rotation,
                                     classify_family, embed_cube,
                                     embed_family, embed_K2r2r, family_graph)
from quadgenus.embeddings import (Embedding, euler_genus, genus_lower_bound,
                                  trace_faces)
from quadgenus.errors import (ConstructionError, InvalidParameterError,
                              SurgeryError, UnsupportedFamilyError)
from quadgenus.graphs import Graph, build_family, make_complete_bipartite
from quadgenus.surgery import (check_reservoir, handle_faces, is_face,
                               rotate_to_least)


def same_labeled_graph(a: Graph, b: Graph) -> bool:
    """Reference for family_graph: isomorphic by label identity,
    that is, the label sets coincide and matching labels carry the same
    adjacency, whatever the vertex numbering."""
    if a.n != b.n or a.m != b.m:
        return False
    la = {a.label_of(v): v for v in range(a.n)}
    lb = {b.label_of(v): v for v in range(b.n)}
    if len(la) != a.n or len(lb) != b.n or set(la) != set(lb):
        return False
    to_b = {la[lab]: lb[lab] for lab in la}
    edges_a = {(min(to_b[u], to_b[v]), max(to_b[u], to_b[v]))
               for (u, v) in a.edges()}
    return edges_a == set(b.edges())


@pytest.mark.parametrize("r,genus,f", [(1, 0, 2), (2, 1, 8), (3, 4, 18)])
def test_base_block_certificates(r, genus, f):
    res = embed_family(f"K({2 * r},{2 * r})")[0]
    cert = res.certificate
    assert (cert.genus, cert.f) == (genus, f)
    assert cert.quadrilateral and cert.minimal
    # a retrace checks the rotation system and gives the same certificate
    assert euler_genus(res.embedding, cert.construction_tag) == cert


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_base_scheme_is_quadrilateral_up_to_r6(r):
    res = embed_family(f"K({2 * r},{2 * r})")[0]
    faces = trace_faces(res.embedding)
    assert all(len(f) == 4 for f in faces)
    assert len(faces) == 2 * r * r
    assert len(res.reservoir) == 2 * r
    check_reservoir(res.embedding.rotation, res.reservoir)


@pytest.mark.parametrize("r", range(1, 17))
def test_scheme_rotation_is_quadrilateral_up_to_r16(r):
    # the base block has no fallback: the scheme must trace to 2r^2
    # quadrilaterals and the family rule must give a valid reservoir
    res = embed_family(f"K({2 * r},{2 * r})")[0]
    faces = trace_faces(res.embedding)
    assert all(len(f) == 4 for f in faces)
    assert len(faces) == 2 * r * r
    assert len(res.reservoir) == 2 * r
    assert all(len(fam) == r for fam in res.reservoir)
    check_reservoir(res.embedding.rotation, res.reservoir)


def traced_reservoir(e: Embedding) -> tuple:
    """Reference for _scheme_reservoir: the traced faces of the rotation
    scheme, sorted into families by the family of their vertex set.  With
    a_s = vertex s, b_s = vertex 2r+s and indices mod 2r, the face
    {a_p, a_(p+1), b_q, b_(q+1)} joins family (p + q + 1 + p % 2) mod 2r;
    for r = 1 both faces share one vertex set, and each is its own
    family.  Faces join in trace order, each as its vertex tuple from its
    least dart."""
    two_r = e.graph.n // 2
    quads = [tuple(u for u, _ in face) for face in trace_faces(e)]
    if two_r == 2:
        return tuple((face,) for face in quads)
    members = [[] for _ in range(two_r)]
    for face in quads:
        a = [v for v in face if v < two_r]
        b = [v - two_r for v in face if v >= two_r]
        p, q = (x if (x + 1) % two_r == y else y for x, y in (a, b))
        members[(p + q + 1 + p % 2) % two_r].append(face)
    return tuple(tuple(fam) for fam in members)


@pytest.mark.parametrize("r", range(1, 17))
def test_scheme_reservoir_is_the_traced_classifier_up_to_r16(r):
    # the rule builds, tuple for tuple and in order, the families the
    # base block once read off its trace, r = 1 included
    emb = Embedding(make_complete_bipartite(2 * r, 2 * r),
                    _scheme_rotation(r))
    assert _scheme_reservoir(r) == traced_reservoir(emb)
    res = embed_family(f"K({2 * r},{2 * r})")[0]
    assert res.reservoir == _scheme_reservoir(r)


def reference_partition(e: Embedding) -> tuple:
    """Face families of a quadrilateral K(2r,2r) embedding by search:
    deterministic backtracking over the trace order, where the first face
    opens the first family and a new family may open only when all
    earlier ones are in use.  Exponential; a reference for small r."""
    quads = [tuple(u for u, _ in face) for face in trace_faces(e)]
    r = e.graph.n // 4
    assignment = [-1] * len(quads)
    used = [set() for _ in range(2 * r)]
    sizes = [0] * (2 * r)

    def place(idx, opened):
        if idx == len(quads):
            return True
        vset = set(quads[idx])
        for fam in range(min(opened + 1, 2 * r)):
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

    assert place(0, 0)
    return tuple(tuple(q for i, q in enumerate(quads) if assignment[i] == fam)
                 for fam in range(2 * r))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_scheme_reservoir_equals_the_search_for_small_r(r):
    # families and face order as the old backtracking gave them, which
    # keeps the artifacts of every r <= 3 family unchanged
    res = embed_family(f"K({2 * r},{2 * r})")[0]
    assert res.reservoir == reference_partition(res.embedding)


def test_scheme_reservoir_refuses_a_relabelled_scheme():
    # swapping a_0 and a_2 keeps the embedding quadrilateral, but the
    # family rule no longer fits its faces; check_reservoir must say so
    swap = {0: 2, 2: 0}
    rot = [None] * 12
    for v, row in enumerate(_scheme_rotation(3)):
        rot[swap.get(v, v)] = tuple(swap.get(u, u) for u in row)
    emb = Embedding(make_complete_bipartite(6, 6), tuple(rot))
    faces = trace_faces(emb)
    assert all(len(f) == 4 for f in faces)
    with pytest.raises(ConstructionError):
        check_reservoir(emb.rotation, _scheme_reservoir(3))


COPY_BASES = {"K(4,4)": lambda: embed_family("K(4,4)")[0],
              "K(6,6)": lambda: embed_family("K(6,6)")[0],
              "Q(2,2)": lambda: embed_family("Q(2,2)")[0]}

# a K step folds in the base's own K(2r,2r), whose reservoir has 2r
# families; each step is the (letter, order) of its factor
STEPS = {"K": lambda base: ("K", len(base.reservoir)),
         "closed ring": lambda base: ("C", 4),
         "open ring": lambda base: ("P", 6)}


def frozen(rows, expr: str) -> Embedding:
    """The embedding of a step's rows, its graph as family_graph gives
    it for the product expr."""
    rotation = tuple(map(tuple, rows))
    return Embedding(family_graph(rotation, expr), rotation)


def far_side(factor: Graph) -> list[bool]:
    """Reference 2-colouring of a connected factor: whether each vertex
    lies at odd distance from vertex 0, by breadth-first search."""
    dist = {0: 0}
    queue = [0]
    for t in queue:
        for u in factor.adj[t]:
            if u not in dist:
                dist[u] = dist[t] + 1
                queue.append(u)
    return [dist[t] % 2 == 1 for t in range(factor.n)]


@pytest.mark.parametrize("name", sorted(COPY_BASES))
@pytest.mark.parametrize("mirrored,coords", [
    ([False], [0]),
    ([False, True], [0, 1]),
    ([True, False, False, True], [0, 1, 2, 3]),
    ([False, False, True, True], ["a0", "a1", "b0", "b1"]),
    ([True, True, False], ["x", 7, "y"]),
])
def test_copies_lay_out_the_reference_union(name, mirrored, coords,
                                            assemble_copies):
    # the row rule's copies before any link are the rows of the union;
    # the step lays no labels
    base = COPY_BASES[name]().embedding
    rows = constructions._copies(base.rotation, mirrored)
    union = assemble_copies(base, mirrored, coords)
    assert all(type(row) is list for row in rows)
    assert tuple(map(tuple, rows)) == union.rotation


@pytest.mark.parametrize("name", sorted(COPY_BASES))
@pytest.mark.parametrize("step", sorted(STEPS))
def test_link_step_equals_the_surgery_reference(name, step,
                                                assemble_copies):
    # the row rule against the handle-by-handle path it replaces: the
    # copies' rows, one add on them per face of each link; the mirror
    # flags and the link schedule are read off the factor here
    base = COPY_BASES[name]()
    factor, colour, harvest = constructions._factor(*STEPS[step](base))
    rows, reservoir, links = _link_step(base, factor, colour, harvest,
                                        "step")
    mirrored = far_side(factor)
    schedule = [(t, u, colour(t, u)) for t, u in factor.edges()]
    nb = base.embedding.graph.n

    def image(face, t):
        a, b, c, d = (x + t * nb for x in face)
        return (a, d, c, b) if mirrored[t] else (a, b, c, d)

    coords = [lab for (lab,) in factor.labels]
    union = assemble_copies(base.embedding, mirrored, coords)
    work = [list(row) for row in union.rotation]
    handles = {(left, right): [surgery.add(work, image(face, left),
                                           image(face, right), 0)
                               for face in base.reservoir[k]]
               for left, right, k in schedule}
    expected = tuple(tuple(rotate_to_least(face)
                           for left, right, k in schedule if k == c
                           for handle in handles[left, right]
                           for face in handle_faces(*handle)[j::2])
                     for c, j in harvest)
    assert rows == work
    assert reservoir == expected
    assert list(links.items()) == list(handles.items())


def test_link_step_requires_mirroring():
    # one link of two K(4,4) copies by family 0, along the one edge of
    # P(2): copy 1 is mirrored, and a handle per face joins each vertex
    # to its own image in the other copy
    base = embed_family("K(4,4)")[0]
    nb = base.embedding.graph.n
    rows, _, links = _link_step(base, graphs.make_path(2), lambda t, u: 0,
                                [(0, 0)], "link")
    cert = euler_genus(frozen(rows, "K(4,4) x P(2)"))
    assert list(links) == [(0, 1)]
    assert [len(handles) for handles in links.values()] == [2]
    assert cert.quadrilateral and cert.minimal
    assert all(w == v + nb for handles in links.values()
               for handle in handles for v, w in zip(*handle))


def test_a_factor_the_step_cannot_link_is_refused_before_any_row(
        monkeypatch):
    # a triangle has no 2-colouring, so no copies are mirrored against
    # each other along all its edges; and K(6,6) needs six families,
    # which K(4,4)'s reservoir does not have.  Both are refused before
    # the step lays out any row
    def no_rows(*args):
        raise AssertionError("rows laid out for a factor it cannot link")

    monkeypatch.setattr(constructions, "_copies", no_rows)
    base = embed_family("K(4,4)")[0]
    triangle = graphs.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ConstructionError, match="not bipartite"):
        _link_step(base, triangle, lambda t, u: (t + u) % 3, [], "tri")
    with pytest.raises(ConstructionError,
                       match="step needs 6 families, reservoir has 4"):
        _link_step(base, *constructions._factor("K", 6), "k6")


FACTORS = [("K", 2 * r) for r in (1, 2, 3)] + \
    [("C", n) for n in (4, 6, 8, 10)] + [("P", n) for n in (2, 4, 6, 8, 10)]


@pytest.mark.parametrize("letter,order", FACTORS, ids=[
    f"K({n},{n})" if a == "K" else f"{a}({n})" for a, n in FACTORS])
def test_factor_data_meets_the_step_conditions(letter, order):
    # the three conditions of the module docstring, on each factor's data
    factor, colour, harvest = constructions._factor(letter, order)
    base = embed_family(f"K({order},{order})" if letter == "K"
                        else "K(2,2)")[0]
    rows, reservoir, links = _link_step(base, factor, colour, harvest,
                                        "step")
    nb = base.embedding.graph.n
    # the links are exactly the factor's edges, in edge order, and each
    # joins every base vertex of copy t to its image in copy u
    assert list(links) == list(factor.edges())
    for (t, u), handles in links.items():
        ends = sorted((v, w) for v_face, w_face in handles
                      for v, w in zip(v_face, w_face))
        assert ends == [(x + t * nb, x + u * nb) for x in range(nb)]
    # colour is a proper edge colouring within the base's families
    colours = {edge: colour(*edge) for edge in factor.edges()}
    assert set(colours.values()) <= set(range(len(base.reservoir)))
    for t in range(factor.n):
        at_t = [k for edge, k in colours.items() if t in edge]
        assert len(at_t) == len(set(at_t)) == factor.degree(t)
    # every harvested colour class is a perfect matching on the copies
    for c, _ in harvest:
        ends = sorted(t for edge, k in colours.items() if k == c
                      for t in edge)
        assert ends == list(range(factor.n))
    assert len(reservoir) == len(harvest)
    atom = f"K({order},{order})" if letter == "K" else f"{letter}({order})"
    check_reservoir(
        frozen(rows, f"{base.certificate.construction_tag} x {atom}").rotation,
        reservoir)


def test_direct_route_builds_no_surgery_state(monkeypatch):
    # neither route calls add, the checked handle: the direct route
    # splices list rows, and the removal route takes the closing link's
    # handles out of those same rows
    def refuse(*args, **kwargs):
        raise AssertionError("a route called surgery.add")

    monkeypatch.setattr(surgery, "add", refuse)
    for route in ("direct", "removal"):
        res, _ = embed_family("Q(2,4) x C(4) x P(4)", route=route)
        assert res.certificate.minimal
        assert res.steps[-1]["removed"] == (64 if route == "removal" else 0)


def test_a_harvested_cycle_that_is_not_a_face_is_refused(monkeypatch):
    # swapping a face's first two vertices keeps its vertex set, so the
    # structural checks alone would pass the harvest; check_reservoir's
    # face check names the face
    real = constructions.handle_faces

    def swapped(v, w):
        return tuple((b, a, c, d) for a, b, c, d in real(v, w))

    monkeypatch.setattr(constructions, "handle_faces", swapped)
    for expr in ("Q(2,4)", "Q(1,4) x C(4)", "Q(1,4) x P(4)"):
        with pytest.raises(ConstructionError,
                           match=r"reservoir face \(.*\) is not a face"):
            embed_family(expr)


def test_transfer_refuses_a_family_moved_with_the_wrong_flag(
        assemble_copies):
    # a family face placed in a copy the wrong way round, or in the wrong
    # copy, is not a face of the copies; add refuses it before any splice
    base = embed_family("K(4,4)")[0]
    nb = base.embedding.graph.n
    union = assemble_copies(base.embedding, [False, True], [0, 1])
    rows = [list(row) for row in union.rotation]
    before = copy.deepcopy(rows)

    def moved(face, offset, flip):
        a, b, c, d = (x + offset for x in face)
        return (a, d, c, b) if flip else (a, b, c, d)

    for face in base.reservoir[0]:
        assert is_face(rows, moved(face, 0, False))
        assert is_face(rows, moved(face, nb, True))
        # the wrong flag in copy 1, and copy 1's flag in copy 0
        for left, right in ((moved(face, 0, False), moved(face, nb, False)),
                            (moved(face, 0, True), moved(face, nb, True))):
            assert not (is_face(rows, left) and is_face(rows, right))
            with pytest.raises(SurgeryError, match="not a face"):
                surgery.add(rows, left, right, 0)
    assert rows == before


def test_cube_two_levels_frozen():
    res = embed_family("Q(2,4)")[0]
    cert = res.certificate
    assert (cert.n, cert.m, cert.f, cert.genus) == (64, 256, 128, 33)
    assert len(res.reservoir) == 4
    assert all(len(f) == 16 for f in res.reservoir)


def test_cube_matches_hypercube_specialization():
    res = embed_family("Q(3,2)")[0]
    assert res.certificate.genus == 17  # the 6-dimensional hypercube
    assert res.certificate.minimal


def test_cube_labels_match_family():
    res = embed_family("Q(2,4)")[0]
    assert same_labeled_graph(res.embedding.graph, build_family("Q(2,4)"))


@pytest.mark.parametrize("i,r,s,want", [(1, 2, 3, 13), (1, 1, 2, 1),
                                        (2, 1, 2, 17)])
def test_cycle_products_frozen(i, r, s, want):
    res, _ = embed_family(f"Q({i},{2 * r}) x C({2 * s})")
    assert res.certificate.genus == want
    assert res.certificate.quadrilateral and res.certificate.minimal
    assert same_labeled_graph(
        res.embedding.graph, build_family(f"Q({i},{2 * r}) x C({2 * s})"))


def test_cycle_product_rejects_short_cycle():
    with pytest.raises(InvalidParameterError):
        embed_family("K(4,4) x C(2)")


def test_repeated_cycles_frozen():
    assert embed_family("Q(1,2) x C(4) x C(4)")[0].certificate.genus == 17
    assert embed_family("Q(1,4) x C(4) x C(4)")[0].certificate.genus == 65


def test_repeated_paths_frozen():
    res, _ = embed_family("Q(1,4) x P(2)")
    assert (res.certificate.n, res.certificate.m, res.certificate.genus) \
        == (16, 40, 3)
    assert embed_family("Q(1,4) x P(4) x P(4)")[0].certificate.genus == 49
    assert embed_family("Q(1,2) x P(4)")[0].certificate.genus == 0


def test_path_routes_agree():
    for expr, genus in (("Q(1,2) x P(4)", 0), ("Q(1,4) x P(4)", 7),
                        ("Q(1,4) x P(6)", 11),
                        ("Q(1,4) x C(4) x P(4)", 57),
                        ("Q(1,4) x P(4) x C(4)", 57)):
        direct = embed_family(expr, route="direct")[0]
        removal = embed_family(expr, route="removal")[0]
        assert direct.certificate == removal.certificate
        assert direct.embedding == removal.embedding
        assert direct.reservoir == removal.reservoir
        assert direct.certificate.genus == genus


def test_removal_route_multi_level_agrees():
    for expr in ("Q(2,4) x C(4) x P(4)", "Q(1,2) x P(4) x P(4)"):
        direct = embed_family(expr, route="direct")[0]
        removal = embed_family(expr, route="removal")[0]
        assert direct.certificate == removal.certificate
        assert direct.embedding == removal.embedding
        assert direct.reservoir == removal.reservoir
    # both P(4) steps of the last family open a ring of four links by its
    # closing link, one handle per link on K(2,2) and four on
    # K(2,2) x P(4)
    assert [row["removed"] for row in removal.steps] == [1, 4]
    assert [row["removed"] for row in direct.steps] == [0, 0]


def test_removal_route_rejects_single_link():
    res, _ = embed_family("Q(1,4) x P(2)", route="removal")
    # P(2) silently builds directly: there is no cycle to open
    assert res.certificate.genus == 3
    assert [(row["links"], row["removed"]) for row in res.steps] == [(1, 0)]


def test_embed_family_rejects_unknown_route():
    with pytest.raises(InvalidParameterError):
        embed_family("Q(1,4) x P(4)", route="subtractive")


def level_sizes(shape) -> list:
    return list(graphs.product_sizes(
        graphs.parse_family_expr(shape.normalized_expr)))


def test_level_check_covers_mixed_products(monkeypatch):
    shape = classify_family("Q(1,4) x C(4) x P(4)")
    sizes = level_sizes(shape)
    res = embed_family(shape.normalized_expr)[0]
    built = (res.embedding, res.reservoir, res.certificate.construction_tag)
    assert _prove_level(shape, 2, sizes[2], *built) == res.certificate
    with pytest.raises(ConstructionError):
        _prove_level(shape, 1, sizes[1], *built)
    # a certificate whose genus is not the Euler count is refused
    real = constructions.certify_faces

    def off_by_one(*args):
        cert = real(*args)
        return dataclasses.replace(cert, genus=cert.genus + 1)

    monkeypatch.setattr(constructions, "certify_faces", off_by_one)
    with pytest.raises(ConstructionError, match="level 2:"):
        _prove_level(shape, 2, sizes[2], *built)
    monkeypatch.undo()
    # a cube fold is a level too: the Q(2,4) build is level 1 of
    # Q(2,4) x C(4), and neither the base block's level nor the cycle's
    shape = classify_family("Q(2,4) x C(4)")
    sizes = level_sizes(shape)
    res = embed_family("Q(2,4)")[0]
    built = (res.embedding, res.reservoir, "fold")
    _prove_level(shape, 1, sizes[1], *built)
    for level in (0, 2):
        with pytest.raises(ConstructionError, match=f"level {level}:"):
            _prove_level(shape, level, sizes[level], *built)


@pytest.mark.parametrize("route", ["direct", "removal"])
def test_every_level_is_checked_once(route, monkeypatch):
    # Q(3,4) x C(4) x P(4): the base block, two cube folds, the cycle and
    # the path, each proved once with its own product_sizes pair
    shape = classify_family("Q(3,4) x C(4) x P(4)")
    checked = []
    real = constructions._prove_level

    def record(shape, level, size, emb, reservoir, tag):
        checked.append((level, size, (emb.graph.n, emb.graph.m)))
        return real(shape, level, size, emb, reservoir, tag)

    monkeypatch.setattr(constructions, "_prove_level", record)
    embed_family(shape.normalized_expr, route=route)
    sizes = level_sizes(shape)
    assert len(sizes) == 5
    assert checked == [(level, size, size)
                       for level, size in enumerate(sizes)]


@pytest.mark.parametrize("i,r", [(2, 1), (3, 1), (2, 2)])
def test_cube_is_the_family_driver_on_a_cube(i, r):
    assert embed_cube(i, r) == embed_family(f"Q({i},{2 * r})")[0]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_base_block_wrapper_is_the_family_driver(r):
    assert embed_K2r2r(r) == embed_family(f"K({2 * r},{2 * r})")[0]


def test_removal_left_incomplete_is_refused_at_its_level(monkeypatch):
    # a handle of the closing link left in place keeps its four edges in
    # its vertices' rows, and the level's graph, built before its trace,
    # refuses the first of them: vertex 0 keeps its edge to 24 = 0 + 3 * 8
    real = constructions.remove
    skipped = []

    def remove(rows, handle):
        if not skipped:
            skipped.append(handle)
            return
        real(rows, handle)

    monkeypatch.setattr(constructions, "remove", remove)
    traced = []
    real_lengths = constructions.face_lengths
    monkeypatch.setattr(constructions, "face_lengths",
                        lambda emb: traced.append(emb) or real_lengths(emb))
    with pytest.raises(ConstructionError,
                       match=r"rows do not match K\(4,4\) x P\(4\): vertex 0 "
                             r"has neighbours \(4, 5, 6, 7, 8, 24\), "
                             r"expected \(4, 5, 6, 7, 8\)"):
        embed_family("Q(1,4) x P(4)", route="removal")
    assert len(skipped) == 1
    assert len(traced) == 1  # the base block's; level 1 is never traced


def test_fold_that_adds_nothing_is_refused_at_its_level(monkeypatch):
    # a K step that hands back its base's rows leaves level 1 with level
    # 0's eight rows
    monkeypatch.setattr(constructions, "_link_step",
                        lambda base, *args: (
                            [list(row) for row in base.embedding.rotation],
                            base.reservoir, {}))
    with pytest.raises(ConstructionError,
                       match=r"^8 rotation rows; K\(4,4\) x K\(4,4\) has 64 "
                             r"vertices$"):
        embed_family("Q(2,4)")


def test_a_level_with_the_right_counts_but_the_wrong_graph_is_refused_there(
        monkeypatch):
    # the first fold's rows, and its reservoir, with vertices 0 and 1
    # renumbered throughout: an isomorphic embedding, so n, m, faces,
    # genus and reservoir are all right, and only the product comparison
    # sees it; it refuses that level before the cycle step runs
    real_step = constructions._link_step
    stepped, renumbered = [], []
    swap = {0: 1, 1: 0}

    def step(base, *args):
        stepped.append(args[-1])
        rows, reservoir, links = real_step(base, *args)
        rows = [[swap.get(x, x) for x in row] for row in rows]
        rows[0], rows[1] = rows[1], rows[0]
        reservoir = tuple(tuple(tuple(swap.get(x, x) for x in face)
                                for face in fam) for fam in reservoir)
        renumbered.append((tuple(map(tuple, rows)), reservoir))
        return rows, reservoir, links

    monkeypatch.setattr(constructions, "_link_step", step)
    with pytest.raises(ConstructionError,
                       match=r"rows do not match K\(4,4\) x K\(4,4\): "
                             r"vertex 0 has neighbours"):
        embed_family("Q(2,4) x C(4)")
    assert stepped == ["cube(i=2,r=2)"]
    # the level proof itself passes the renumbered level
    shape = classify_family("Q(2,4) x C(4)")
    rotation, reservoir = renumbered[0]
    emb = Embedding(graphs.from_rows(len(rotation), rotation), rotation)
    cert = _prove_level(shape, 1, level_sizes(shape)[1], emb, reservoir,
                        "fold")
    assert cert.minimal and cert.genus == 33


def test_base_block_past_the_dart_cap_is_refused_before_building(
        monkeypatch):
    # K(2050,2050) has 8,405,000 darts, past MAX_DARTS: refused from its
    # parameters, before any graph is built
    def no_build(*args):
        raise AssertionError("K(2r,2r) built past the dart cap")

    monkeypatch.setattr(constructions, "make_complete_bipartite", no_build)
    with pytest.raises(InvalidParameterError, match="darts"):
        embed_family("K(2050,2050)")


def test_reservoirs_survive_every_route():
    for expr, route in (("Q(1,4) x C(4)", "direct"),
                        ("Q(1,4) x P(4)", "removal"),
                        ("Q(1,4) x P(4)", "direct")):
        res, _ = embed_family(expr, route=route)
        check_reservoir(res.embedding.rotation, res.reservoir)
        assert len(res.reservoir) == 2


def test_certificates_certify_via_oracle_helper():
    res = embed_family("K(6,6)")[0]
    cert = euler_genus(res.embedding)
    assert cert.bipartite and cert.minimal and cert.genus == 4


@pytest.mark.parametrize("route", ["direct", "removal"])
def test_step_rows_count_links_and_handles(route):
    # one row per link step: the cube step on K(4,4), then C(4), then P(4)
    res, _ = embed_family("Q(2,4) x C(4) x P(4)", route=route)
    assert json.loads(json.dumps(res.steps)) == list(res.steps)
    base_n = (8, 64, 256)
    for row, n in zip(res.steps, base_n, strict=True):
        # each link lays one handle per face of a family: a quarter of
        # the base vertices
        assert row["handles"] == row["links"] * (n // 4)
    assert res.steps[0]["step"] == "cube(i=2,r=2)"
    links = [(row["links"], row["handles"]) for row in res.steps]
    removed = [row["removed"] for row in res.steps]
    if route == "direct":
        assert links == [(16, 32), (4, 64), (3, 192)]
        assert removed == [0, 0, 0]
    else:
        # the path is the closed ring with its closing link removed
        assert links == [(16, 32), (4, 64), (4, 256)]
        assert removed == [0, 0, 64]


def test_full_traces_per_build_stay_a_few(count_calls):
    # One proof per level: the base block, the cube fold, the cycle and
    # the path; the closed cycle the removal route opens up is never
    # proved.  Each level's rows are frozen against one stream of the
    # product of the levels up to it, which proves the graph connected
    # and bipartite, so no build walks a level's graph: the one walk of
    # a step is of its factor, for the mirrored copies; then its proof
    # builds one successor list in the trace core, which checks the
    # rotation system as it goes.
    counted = {real.__name__: count_calls(real)
               for real in (embeddings.face_successors,
                            graphs.product_vertices)}
    walks = count_calls(graphs.components)
    k44, c4, p4 = (make_complete_bipartite(4, 4), graphs.make_cycle(4),
                   graphs.make_path(4))
    for expr, route, levels, factors in (
            ("Q(2,4) x C(4) x P(4)", "direct", 4, [k44, c4, p4]),
            # the removal route's path step lays the cycle's copies
            ("Q(2,4) x C(4) x P(4)", "removal", 4, [k44, c4, c4]),
            ("Q(3,4)", "direct", 3, [k44, k44])):  # base and two folds
        for calls in [*counted.values(), walks]:
            calls.clear()
        embed_family(expr, route=route)
        assert {name: len(calls) for name, calls in counted.items()} == {
            "face_successors": levels, "product_vertices": levels
        }, (expr, route)
        assert walks == [(factor,) for factor in factors], (expr, route)


def test_base_block_is_traced_once(count_calls):
    # the families come by rule; the one trace is the level proof's
    calls = count_calls(embeddings.face_successors)
    for r in (2, 14):
        calls.clear()
        embed_family(f"K({2 * r},{2 * r})")[0]
        assert len(calls) == 1, (r, len(calls))


def test_embed_family_builds_the_product_once(count_calls):
    # classify_family validates the atoms without building the product,
    # and family_graph streams the expected product vertex by vertex: no
    # product graph is ever built
    calls = count_calls(graphs.build_family)
    products = count_calls(graphs.product_graph)
    for route in ("direct", "removal"):
        calls.clear()
        embed_family("Q(2,4) x C(4) x P(4)", route=route)
        assert (len(calls), len(products)) == (0, 0), route


def test_embed_family_parses_its_expression_once(count_calls):
    # the shape's levels are the parsed atoms from then on: the level
    # sizes and the family check read them, not the normalized text
    calls = count_calls(graphs.parse_family_expr)
    embed_family("Q(2,4) x C(4) x P(4)")
    assert calls == [("Q(2,4) x C(4) x P(4)",)]


def accepts(rows, expr: str) -> bool:
    try:
        family_graph(rows, expr)
    except ConstructionError:
        return False
    return True


@pytest.mark.parametrize("expr", [
    "Q(1,2)", "Q(1,4)", "Q(3,2)", "Q(2,4)", "Q(1,2) x C(4)",
    "Q(1,2) x P(2)", "Q(1,4) x P(4) x C(4)", "Q(1,2) x C(4) x P(2) x C(6)",
    "Q(2,6) x C(4)", "Q(1,6) x P(6)"])
def test_family_check_agrees_with_the_label_reference(expr):
    # r = 1, mixed cycles and paths, and Q(2,6) x C(4); both routes.
    # family_graph of the built rows is build_family's graph itself,
    # labels included
    built = build_family(expr)
    for route in ("direct", "removal"):
        emb = embed_family(expr, route=route)[0].embedding
        graph = family_graph(emb.rotation, expr)
        assert same_labeled_graph(graph, built)
        assert built == graph == emb.graph
        # the adjacency shares the rows' ints
        assert all(x is y for row, nbrs in zip(emb.rotation, graph.adj)
                   for x, y in zip(sorted(row), nbrs))


def _renumbered(rows, to) -> tuple:
    """rows with vertex v renamed to(v), row entries carried along."""
    out = [None] * len(rows)
    for v, row in enumerate(rows):
        out[to(v)] = tuple(to(u) for u in row)
    return tuple(out)


def test_family_check_pins_the_numbering():
    # the built rows are in the product numbering, so family_graph
    # accepts them; renumbered with the first factor most significant,
    # which the label reference takes for the same labelled product, they
    # are refused
    expr = "Q(1,4) x C(4)"
    rows = embed_family(expr)[0].embedding.rotation
    built = build_family(expr)
    assert accepts(rows, expr)
    transposed = _renumbered(rows, lambda v: 4 * (v % 8) + v // 8)
    labels = [None] * built.n
    for v in range(built.n):
        labels[4 * (v % 8) + v // 8] = built.labels[v]
    graph = graphs.from_rows(built.n, transposed, tuple(labels))
    assert same_labeled_graph(graph, built)
    with pytest.raises(ConstructionError, match="vertex 0 has neighbours"):
        family_graph(transposed, expr)
    # reversed, x -> n - 1 - x in every digit at once, which is an
    # automorphism of K(2r,2r), C(2m) and P(2m) and so of their products:
    # the reversed rows embed the product itself and are accepted
    reverse = (lambda n: lambda v: n - 1 - v)(len(rows))
    assert family_graph(_renumbered(rows, reverse), expr) == built
    # K(2,3) reversed swaps a0 with b2, so there the reversal is refused
    rows = build_family("K(2,3) x C(4)").adj
    assert accepts(rows, "K(2,3) x C(4)")
    with pytest.raises(ConstructionError, match="vertex 0 has neighbours"):
        family_graph(_renumbered(rows, lambda v: 19 - v), "K(2,3) x C(4)")
    k44 = embed_family("K(4,4)")[0].embedding.rotation
    assert accepts(k44, "K(4,4)")  # one factor agrees


def _moved_edge(rows: tuple) -> list:
    """rows with the edge (0, v), v the first entry of row 0, moved to
    (0, w), w the least vertex not adjacent to 0: w takes v's place in
    row 0, and 0 leaves row v for the end of row w."""
    rows = [list(row) for row in rows]
    v = rows[0][0]
    w = min(set(range(len(rows))) - set(rows[0]) - {0})
    rows[0][0] = w
    rows[v].remove(0)
    rows[w].append(0)
    return rows


def _vertex_dropped(rows: tuple) -> list:
    last = len(rows) - 1
    return [[u for u in row if u != last] for row in rows[:last]]


def _vertex_added(rows: tuple) -> list:
    # an extra isolated vertex after the product's own
    return [*map(list, rows), []]


@pytest.mark.parametrize("mutate,refusal", [
    (_moved_edge, "has neighbours"), (_vertex_dropped, "vertices"),
    (_vertex_added, "vertices")])
@pytest.mark.parametrize("expr", ["Q(1,4) x C(4) x P(2)", "Q(2,2)"])
def test_family_check_refuses_a_mutated_graph(mutate, refusal, expr):
    # each mutation of the built rows is refused by its own check: the
    # row count, or the sorted row of one vertex
    original = embed_family(expr)[0].embedding.rotation
    rows = mutate(original)
    assert tuple(map(tuple, rows)) != original
    with pytest.raises(ConstructionError, match=refusal):
        family_graph(rows, expr)


def test_classify_family_normalizes_order():
    shape = classify_family("C(4) x K(4,4) x P(2)")
    assert shape.normalized_expr == "Q(1,4) x C(4) x P(2)"
    assert shape.factor_order == (1, 0, 2)
    assert shape.levels == (("K", 4, 4), ("C", 4), ("P", 2))


def test_classify_family_merges_cube_factors():
    shape = classify_family("K(4,4) x Q(2,4)")
    assert shape.levels == (("K", 4, 4),) * 3
    # one normalized position, but both original atoms, the cubes first
    assert shape.normalized_expr == "Q(3,4)"
    assert shape.factor_order == (0, 1)


@pytest.mark.parametrize("expr", ["P(4) x P(4)", "C(4) x C(6)", "K(2,3)",
                                  "K(4,4) x P(3)", "K(4,4) x K(2,2)",
                                  "K(3,3)"])
def test_classify_family_rejects_unsupported(expr):
    with pytest.raises(UnsupportedFamilyError):
        classify_family(expr)


def test_classify_family_flags_invalid_before_shape():
    with pytest.raises(InvalidParameterError):
        classify_family("K(4,4) x C(5)")


@pytest.mark.parametrize("expr", ["K(4,4) x P(1)", "Q(0,4)"])
def test_classify_family_rejects_invalid_parameters(expr):
    with pytest.raises(InvalidParameterError):
        classify_family(expr)


def test_embed_family_mixed_interleaving():
    result, shape = embed_family("K(4,4) x C(4) x P(2)")
    cert = result.certificate
    assert cert.minimal and cert.quadrilateral
    assert cert.genus == genus_lower_bound(result.embedding.graph)
    assert same_labeled_graph(result.embedding.graph,
                              build_family(shape.normalized_expr))


def test_embed_family_path_then_cycle_order_kept():
    _, shape = embed_family("K(2,2) x P(2) x C(4)")
    assert shape.levels[1:] == (("P", 2), ("C", 4))
