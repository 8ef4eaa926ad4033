import hashlib
import itertools
import json

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quadgenus.constructions import embed_family
from quadgenus.embeddings import (DartIndex, Embedding, count_orbits,
                                  euler_genus, genus_lower_bound,
                                  trace_faces)
from quadgenus.errors import BudgetExceededError, InvalidParameterError
from quadgenus.graphs import (Graph, build_family, from_edges,
                              make_complete_bipartite, make_cycle, make_path)
from quadgenus.oracle import (SearchBudget, _below, _chunk_rng, _label,
                              _positions, exhaustive_min_genus,
                              rotation_space_size, stochastic_search)

# frozen: a rotation system of K(4,4) landing on genus 3, found once by
# seeded perturbation of three vertices of the quadrilateral scheme
K44_SCRAMBLED_G3 = ((5, 7, 6, 4), (6, 7, 5, 4), (4, 5, 6, 7), (7, 6, 5, 4),
                    (3, 1, 2, 0), (3, 2, 1, 0), (0, 1, 2, 3), (3, 2, 1, 0))


def complete(k):
    return from_edges(k, [(u, v) for u in range(k) for v in range(u + 1, k)])


# K(3,3) with its edge (0, 3) subdivided by vertex 6, and the same graph
# with the new vertex labelled 0 (every other label one higher): genus 1
# against a triangle bound of 0, so no system meets the bound and the
# search scores the whole quotient space
K33_SUBDIVIDED = from_edges(7, [(0, 4), (0, 5), (0, 6), (1, 3), (1, 4),
                                (1, 5), (2, 3), (2, 4), (2, 5), (3, 6)])
K33_SUBDIVIDED_AT_0 = from_edges(7, [(0, 1), (0, 4), (1, 5), (1, 6), (2, 4),
                                     (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)])


def test_rotation_space_sizes():
    # root vertex contributes (d-1)!/2 orders for d >= 3 (reflection
    # quotient), every other vertex the full (d-1)!
    assert rotation_space_size(complete(4)) == 8
    assert rotation_space_size(make_complete_bipartite(3, 3)) == 32
    assert rotation_space_size(complete(5)) == 3888


# each of these meets its Euler lower bound, so the search stops at the
# first system that does: explored is that system's position in product
# order, well inside the quotient space
@pytest.mark.parametrize("g,want,explored",
                         [(complete(4), 0, 6),
                          (make_complete_bipartite(3, 3), 1, 1),
                          (complete(5), 1, 53)],
                         ids=["K4", "K(3,3)", "K5"])
def test_exhaustive_minimum(g, want, explored):
    res = exhaustive_min_genus(g, SearchBudget())
    assert res.best_genus == want
    assert res.exhaustive
    assert res.explored == explored < rotation_space_size(g)
    assert euler_genus(res.witness).genus == want  # the trace checks it


def test_exhaustive_refuses_oversized_space():
    with pytest.raises(BudgetExceededError):
        exhaustive_min_genus(make_complete_bipartite(4, 4),
                             SearchBudget(max_rotation_systems=100))


@pytest.mark.parametrize("cap,read", [(2519, {0}), (2520, {0, 1}),
                                      (10_000_000, {0, 1})],
                         ids=["2519", "2520", "default"])
def test_exhaustive_refusal_stops_at_the_cap(monkeypatch, cap, read):
    # every vertex of Q(2,4) has 7! = 5040 cyclic orders, halved at the
    # root: the space passes the cap after one vertex when the cap is
    # below 2520, after two when it is below 5040^2 / 2, and the rest of
    # the 64 vertices are never read
    graph = build_family("Q(2,4)")
    seen = set()
    degree = Graph.degree

    def counted(self, v):
        seen.add(v)
        return degree(self, v)

    monkeypatch.setattr(Graph, "degree", counted)
    with pytest.raises(BudgetExceededError):
        exhaustive_min_genus(graph, SearchBudget(max_rotation_systems=cap))
    assert seen == read
    assert rotation_space_size(graph) == 5040 ** 64 // 2


@pytest.mark.parametrize("g", [complete(4), make_complete_bipartite(3, 3),
                               complete(5), K33_SUBDIVIDED],
                         ids=["K4", "K(3,3)", "K5", "K(3,3)-subdivided"])
def test_exhaustive_refuses_exactly_past_the_space(g):
    space = rotation_space_size(g)
    res = exhaustive_min_genus(g, SearchBudget(max_rotation_systems=space))
    assert res.exhaustive
    with pytest.raises(BudgetExceededError):
        exhaustive_min_genus(g, SearchBudget(max_rotation_systems=space - 1))


def test_exhaustive_ignores_target_and_stays_complete():
    # only the Euler lower bound stops the enumeration, never a target:
    # whatever genus the caller aims at, the same systems are scored
    for g in (complete(5), K33_SUBDIVIDED):
        plain = exhaustive_min_genus(g)
        for target in (0, 1, 2, 5):
            res = exhaustive_min_genus(g, SearchBudget(target_genus=target))
            assert res.exhaustive
            assert (res.best_genus, res.explored, res.witness) == (
                plain.best_genus, plain.explored, plain.witness)


def test_exhaustive_trivial_cycle():
    res = exhaustive_min_genus(make_cycle(4), SearchBudget())
    assert res.best_genus == 0 and res.exhaustive and res.explored == 1


def test_exhaustive_is_exact_for_asymmetric_root_rotation():
    # wheel with scrambled rim labels: the unique planar hub rotation is
    # (1,3,2,4), not the sorted adjacency order, so any shortcut that
    # pins the root rotation outright would misreport genus 1 here
    wheel = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4),
                           (1, 3), (3, 2), (2, 4), (4, 1)])
    res = exhaustive_min_genus(wheel, SearchBudget())
    assert res.best_genus == 0
    assert (res.explored, rotation_space_size(wheel)) == (42, 48)


def test_stochastic_finds_torus_witnesses():
    for g in (make_complete_bipartite(4, 4), build_family("C(4) x C(4)")):
        res = stochastic_search(g, SearchBudget(seed=0, target_genus=1))
        assert res.best_genus == 1
        assert not res.exhaustive
        assert euler_genus(res.witness).genus == 1


def test_stochastic_is_deterministic():
    g = make_complete_bipartite(4, 4)
    a = stochastic_search(g, SearchBudget(seed=42, target_genus=1))
    b = stochastic_search(g, SearchBudget(seed=42, target_genus=1))
    assert a.best_genus == b.best_genus
    assert a.explored == b.explored
    assert a.witness == b.witness


def test_stochastic_seeds_differ():
    g = make_complete_bipartite(4, 4)
    a = stochastic_search(g, SearchBudget(seed=1, target_genus=1))
    b = stochastic_search(g, SearchBudget(seed=2, target_genus=1))
    # both reach the target; the paths there almost surely differ
    assert a.best_genus == b.best_genus == 1


def test_stochastic_never_beats_lower_bound():
    for g in (make_complete_bipartite(3, 3), build_family("K(2,2) x P(2)")):
        res = stochastic_search(
            g, SearchBudget(seed=5, max_rotation_systems=20_000))
        assert res.best_genus >= genus_lower_bound(g)


def test_certify_minimum_constructed():
    res = embed_family("K(6,6)")[0]
    cert = euler_genus(res.embedding)
    assert cert.bipartite and cert.minimal and cert.genus == 4


def test_certify_minimum_rejects_nonbipartite():
    # the quadrilateral bound does not apply, and the certificate says so
    g = complete(5)
    rot = tuple(tuple(sorted(g.adj[v])) for v in range(5))
    cert = euler_genus(Embedding(g, rot))
    assert not cert.bipartite and not cert.minimal and cert.lower_bound == 0


def test_certify_minimum_flags_scrambled_witness():
    g = make_complete_bipartite(4, 4)
    e = Embedding(g, K44_SCRAMBLED_G3)
    cert = euler_genus(e)
    assert cert.bipartite and cert.genus == 3 and not cert.minimal


def test_oracle_agrees_with_formula_on_tiny_family():
    g = make_complete_bipartite(2, 2)
    res = exhaustive_min_genus(g, SearchBudget())
    assert res.best_genus == 0  # matches the closed form at r = 1


def test_search_budget_refuses_non_positive_caps():
    for field in ("max_rotation_systems", "restart_stall"):
        for value in (0, -5):
            with pytest.raises(InvalidParameterError):
                SearchBudget(**{field: value})
    with pytest.raises(InvalidParameterError):
        SearchBudget(target_genus=-1)


@pytest.mark.parametrize("field,value", [
    ("max_rotation_systems", True), ("restart_stall", True),
    ("target_genus", False), ("target_genus", True),
    ("seed", True), ("seed", 1.5), ("seed", "0"), ("seed", None)])
def test_search_budget_refuses_booleans_and_non_integer_seeds(field, value):
    # True is no cap of 1 and False no genus 0; a float or string seed
    # must not reach the chunk generators
    with pytest.raises(InvalidParameterError) as info:
        SearchBudget(**{field: value})
    assert info.value.exit_code == 3


def test_stochastic_compares_each_restarts_first_system_with_the_best():
    # the budget runs out right after the last restart's first system,
    # which has 6 faces where every earlier system had at most 4
    res = stochastic_search(build_family("C(4) x C(4)"),
                            SearchBudget(seed=6, max_rotation_systems=35,
                                         restart_stall=5))
    assert (res.best_genus, res.explored) == (6, 35)
    assert euler_genus(res.witness).genus == 6


def test_stochastic_scores_the_first_system_when_no_move_is_possible():
    # a budget of one leaves no room for a move, and a path has no
    # vertex of degree 3 to perturb: the restart's system is the answer
    res = stochastic_search(make_complete_bipartite(3, 3),
                            SearchBudget(max_rotation_systems=1))
    assert res.explored == 1 and res.best_genus in (1, 2)
    assert euler_genus(res.witness).genus == res.best_genus
    res = stochastic_search(make_path(3), SearchBudget(max_rotation_systems=9))
    assert (res.best_genus, res.explored) == (0, 1)


# frozen: (best_genus, explored, sha256 of the witness rotation as JSON)
# for each search, captured from the tuple-based face counter that the
# dart-indexed one replaced; both searchers must reproduce them exactly.
# Every exhaustive case here but TWO_K33 meets its Euler lower bound, so
# its explored is the witness's position in product order, not the whole
# space.
WHEEL = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4),
                       (1, 3), (3, 2), (2, 4), (4, 1)])
# (0,1,2) x (3,4,5) and (0,6,7) x (8,9,10): two K(3,3) sharing vertex 0,
# genus 2 against a quadrilateral bound of 0
TWO_K33 = from_edges(11, [(u, v) for part, other in (((0, 1, 2), (3, 4, 5)),
                                                    ((0, 6, 7), (8, 9, 10)))
                          for u in part for v in other])
PINNED = [
    ("K4", exhaustive_min_genus, complete(4), SearchBudget(), 0, 6,
     "520500ac88248251a51f25ab0631135ee7862da499d9ebb6c4c31ed088527c65"),
    ("K(3,3)", exhaustive_min_genus, make_complete_bipartite(3, 3),
     SearchBudget(), 1, 1,
     "af9f95647803d140def96d475007e395a0c19787355d9faf980df35187b5aafd"),
    ("K5", exhaustive_min_genus, complete(5), SearchBudget(), 1, 53,
     "fbd94b7785761795905aac9c824e50a0034a0c93523949ec338d9e96d85d8faa"),
    ("K(3,4)", exhaustive_min_genus, make_complete_bipartite(3, 4),
     SearchBudget(), 1, 86,
     "40fb836b8345364537e02e3bc7f800c4e5c7ad0f5506279b8cf7e795a70d7c0e"),
    ("wheel", exhaustive_min_genus, WHEEL, SearchBudget(), 0, 42,
     "c4c79ad723e7dc6f60e6b1606daf71abeb6d0a0c6b93496632ba828258629439"),
    # spaces of many wheels, captured from the block-scored enumeration
    # that the plain recount replaced: K(3,5) meets its bound at system
    # 5867, and TWO_K33 misses its bound, so all 61440 are counted
    ("K(3,5)", exhaustive_min_genus, make_complete_bipartite(3, 5),
     SearchBudget(), 1, 5867,
     "abbffc72834f65026e8d80cfdf1475141951780abb17308de97274033e3b8e2a"),
    ("two K(3,3)", exhaustive_min_genus, TWO_K33, SearchBudget(), 2, 61440,
     "6661c411c52ac4208b13a2a79ddde4aa5cbaa7f0b2f730c47c1ec432c92127eb"),
    ("C4xC4 seed 0", stochastic_search, build_family("C(4) x C(4)"),
     SearchBudget(seed=0, target_genus=1), 1, 23391,
     "350b2134af1e0ee09d5ff2ce479dae5b263f485d3d567efa47fe496cab99142b"),
    ("C4xC4 seed 1", stochastic_search, build_family("C(4) x C(4)"),
     SearchBudget(seed=1, target_genus=1), 1, 8703,
     "08a5604fb69c25ae9acfff68d3c287837ea34d66df0e764c91e716a40b9591c4"),
    ("C4xC4 seed 42", stochastic_search, build_family("C(4) x C(4)"),
     SearchBudget(seed=42, target_genus=1), 1, 11742,
     "c2d07c34b3fee0706b436f86fc7c5227181c8bd36b2f5b817a9daba5afcf3bd9"),
    ("K(4,4) seed 0", stochastic_search, make_complete_bipartite(4, 4),
     SearchBudget(seed=0, target_genus=1), 1, 529,
     "ca6afe59a84cd9e8a55450faaab5a11403efd95a0d3a48a8e8df26aa3b1865c1"),
    ("K(4,4) seed 1", stochastic_search, make_complete_bipartite(4, 4),
     SearchBudget(seed=1, target_genus=1), 1, 892,
     "2c7af76aa53fb105454d5ed2159bf765cadb8e9a6c6c0a7351295d775df72723"),
    ("K(4,4) seed 42", stochastic_search, make_complete_bipartite(4, 4),
     SearchBudget(seed=42, target_genus=1), 1, 286,
     "ae6d56f6bfb5391c99ea2f89de207916cdab6deb1919f011fe10e1d76ca2c161"),
    # C(4) first: with the first factor least significant, this has
    # exactly the adjacency the digest was taken on, when build_family
    # made the first factor (then K(4,4)) most significant
    ("K(4,4) x C(4) budget 2000", stochastic_search,
     build_family("C(4) x K(4,4)"),
     SearchBudget(seed=0, max_rotation_systems=2000), 22, 2000,
     "86c8c874a8d94cea7b579d9ace666dd78cfb6418a5147e49b367d635f082f481"),
    # the benchmark's own job graph and budget, over many restarts
    ("K(4,4) x C(4) budget 20000", stochastic_search,
     build_family("K(4,4) x C(4)"),
     SearchBudget(seed=0, max_rotation_systems=20000), 19, 20000,
     "e1371ddaa78d57bed893e6399e15f2ed7e98fd037bd851956b4cac81cbfb1184"),
    # degree 8 and long faces: many scored swaps, far above the bound 33
    ("Q(2,4) budget 5000", stochastic_search, build_family("Q(2,4)"),
     SearchBudget(seed=0, max_rotation_systems=5000), 76, 5000,
     "b15910930700a5be359dc54d1891589573accf57bdd139624ddcaffe5aa8b98c"),
]


@pytest.mark.parametrize("label,search,graph,budget,genus,explored,digest",
                         PINNED, ids=[case[0] for case in PINNED])
def test_search_results_are_pinned(label, search, graph, budget, genus,
                                   explored, digest):
    res = search(graph, budget)
    rotation = json.dumps([list(rot) for rot in res.witness.rotation])
    assert (res.best_genus, res.explored,
            hashlib.sha256(rotation.encode()).hexdigest()) == (
                genus, explored, digest)


@st.composite
def rotations_on_connected_graphs(draw):
    """A random connected graph on 3..9 vertices and a rotation system of
    it."""
    n = draw(st.integers(3, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=12)))
    g = from_edges(n, sorted(edges))
    rotation = [tuple(draw(st.permutations(g.adj[v]))) for v in range(n)]
    return g, rotation


def orbits_of(succ):
    """The orbits of ``succ``, each as a set of darts."""
    orbits, seen = [], set()
    for dart in range(len(succ)):
        if dart not in seen:
            orbit = {dart}
            nxt = succ[dart]
            while nxt != dart:
                orbit.add(nxt)
                nxt = succ[nxt]
            seen |= orbit
            orbits.append(orbit)
    return orbits


def one_id_each(fid, orbits):
    """The sorted ids of ``orbits`` if each has one id, else None."""
    ids = [{fid[d] for d in orbit} for orbit in orbits]
    if all(len(k) == 1 for k in ids):
        return sorted(min(k) for k in ids)
    return None


def full_labels(succ):
    """_label over every dart from scratch: the ids and the face count."""
    fid = [-1] * len(succ)
    return fid, _label(succ, fid, range(len(succ)), 0)


@given(rotations_on_connected_graphs())
def test_orbit_labels_name_every_face(case):
    g, rotation = case
    succ = DartIndex(g).successors(rotation)
    fid, f = full_labels(succ)
    orbits = orbits_of(succ)
    # one id per orbit, ids 0 .. faces-1
    assert one_id_each(fid, orbits) == list(range(f))
    faces = trace_faces(Embedding(g, tuple(rotation)))
    assert f == len(faces)
    assert sorted(map(len, orbits)) == sorted(map(len, faces))


@given(rotations_on_connected_graphs(), st.data())
def test_label_numbers_the_orbits_through_its_starts_afresh(case, data):
    g, rotation = case
    succ = DartIndex(g).successors(rotation)
    fid, f = full_labels(succ)
    old = fid[:]
    first = f + data.draw(st.integers(0, 5))
    starts = data.draw(st.lists(st.integers(0, len(succ) - 1), max_size=8))
    after = _label(succ, fid, starts, first)
    hit = [orbit for orbit in orbits_of(succ) if orbit & set(starts)]
    # each orbit through a start gets one id, and the ids are fresh,
    # first .. after-1, one per such orbit
    assert after == first + len(hit)
    assert one_id_each(fid, hit) == list(range(first, after))
    # every other dart keeps its id
    missed = set(range(len(succ))).difference(*hit)
    assert all(fid[d] == old[d] for d in missed)
    # darts already numbered from first on are not numbered again
    assert _label(succ, fid, starts, first) == first


@given(st.sampled_from([complete(4), complete(5),
                        make_complete_bipartite(3, 3),
                        make_complete_bipartite(4, 4),
                        make_complete_bipartite(3, 5),
                        build_family("C(4) x C(4)")]), st.data())
def test_a_swap_over_distinct_faces_loses_two(g, data):
    # the stochastic search rejects such a swap without scoring it
    rotation = [tuple(data.draw(st.permutations(g.adj[v])))
                for v in range(g.n)]
    index = DartIndex(g)
    fid, f = full_labels(index.successors(rotation))

    def distinct(v, i, j):
        # the darts whose successor the swap of positions i, j at v
        # changes lie on pairwise distinct faces
        row = rotation[v]
        changed = {index.out[row[p]][v] for p in (i - 1, i, j - 1, j)}
        return len({fid[c] for c in changed}) == len(changed)

    swaps = [(v, i, j) for v in range(g.n) for j in range(g.degree(v))
             for i in range(j) if distinct(v, i, j)]
    assume(swaps)
    v, i, j = data.draw(st.sampled_from(swaps))
    row = list(rotation[v])
    row[i], row[j] = row[j], row[i]
    swapped = tuple(tuple(row) if u == v else rot
                    for u, rot in enumerate(rotation))
    assert len(trace_faces(Embedding(g, swapped))) == f - 2


def test_below_draws_what_randrange_choice_and_shuffle_draw():
    # _randbelow_with_getrandbits redraws k = n.bit_length() bits until
    # they fall below n; powers of two are the edge of that rule
    sizes = list(range(1, 70)) + [2 ** 31, 2 ** 31 + 1, 10 ** 12]
    for n in sizes:
        for seed in range(20):
            a, b = _chunk_rng(seed, n), _chunk_rng(seed, n)
            below = _below(a)
            assert below(n) == b.randrange(n)
            assert below(n) == b.choice(range(n))
            assert a.getstate() == b.getstate()
        if n > 40:
            continue
        for seed in range(20):
            a, b = _chunk_rng(seed, n), _chunk_rng(seed, n)
            below = _below(a)
            mine, theirs = list(range(n)), list(range(n))
            for k in range(n - 1, 0, -1):
                p = below(k + 1)
                mine[k], mine[p] = mine[p], mine[k]
            b.shuffle(theirs)
            assert mine == theirs
            assert a.getstate() == b.getstate()


def test_positions_draw_what_sample_draws():
    # below 22 items sample draws from a shrinking pool, above it redraws
    # on a collision; both must be matched draw for draw
    for d in range(2, 41):
        for seed in range(50):
            a, b = _chunk_rng(seed, d), _chunk_rng(seed, d)
            assert _positions(_below(a), d) == tuple(b.sample(range(d), 2))
            assert a.getstate() == b.getstate()


def reference_stochastic(g, budget):
    """(best_genus, explored, witness rotation) of the hill climb the
    stochastic search must reproduce, scoring each swap by walking every
    orbit through its changed darts before and after the swap."""
    target_f = None
    if budget.target_genus is not None:
        target_f = 2 - 2 * budget.target_genus - g.n + g.m
    movable = [v for v in range(g.n) if g.degree(v) >= 3]
    index = DartIndex(g)
    out = index.out
    seen = [0] * index.size
    stamp = 0
    best_f, best_rot, explored, chunk = -1, None, 0, 0
    while explored < budget.max_rotation_systems:
        rng = _chunk_rng(budget.seed, chunk)
        chunk += 1
        rotation = []
        for v in range(g.n):
            nbrs = list(g.adj[v])
            rng.shuffle(nbrs)
            rotation.append(tuple(nbrs))
        succ = index.successors(rotation)
        stamp += 1
        current_f = count_orbits(succ, range(index.size), seen, stamp)
        explored += 1
        if current_f > best_f:
            best_f, best_rot = current_f, list(rotation)
            if target_f is not None and best_f >= target_f:
                break
        stall = 0
        local_best = current_f
        while (stall < budget.restart_stall
               and explored < budget.max_rotation_systems):
            if not movable:
                break
            v = rng.choice(movable)
            rot = list(rotation[v])
            i, j = rng.sample(range(len(rot)), 2)
            positions = (i - 1, i, j - 1, j)
            changed = {out[rot[p]][v] for p in positions}
            undo = [(dart, succ[dart]) for dart in changed]
            stamp += 2
            before = count_orbits(succ, changed, seen, stamp - 1)
            rot[i], rot[j] = rot[j], rot[i]
            for p in positions:
                succ[out[rot[p]][v]] = out[v][rot[(p + 1) % len(rot)]]
            f = current_f + count_orbits(succ, changed, seen, stamp) - before
            explored += 1
            if f >= current_f:
                rotation[v] = tuple(rot)
                current_f = f
                if f > local_best:
                    local_best = f
                    stall = 0
                else:
                    stall += 1
            else:
                for dart, nxt in undo:
                    succ[dart] = nxt
                stall += 1
            if current_f > best_f:
                best_f = current_f
                best_rot = list(rotation)
                if target_f is not None and best_f >= target_f:
                    break
        if target_f is not None and best_f >= target_f:
            break
        if not movable:
            break
    return (2 - g.n + g.m - best_f) // 2, explored, tuple(best_rot)


@st.composite
def stochastic_cases(draw):
    """A small connected graph and a budget: seed, cap, stall limit and
    sometimes a target genus."""
    n = draw(st.integers(3, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=14)))
    g = from_edges(n, sorted(edges))
    budget = SearchBudget(
        seed=draw(st.integers(0, 2 ** 32)),
        max_rotation_systems=draw(st.integers(1, 3000)),
        restart_stall=draw(st.integers(1, 60)),
        target_genus=draw(st.none() | st.integers(0, 3)))
    return g, budget


# a star with 23 leaves, whose hub positions take the rejection path; a
# star is a tree, so every rotation system has one face and no swap draw
# changes the result.  K(23,3) below is the example that binds the
# rejection draws
STAR23 = from_edges(24, [(0, v) for v in range(1, 24)])


@settings(max_examples=60, deadline=None)
@given(stochastic_cases())
@example((STAR23, SearchBudget(seed=3, max_rotation_systems=2000)))
# hubs of degree 21, 22 and 23, either side of sample's switch from a pool
# to rejection; unlike a star's, whose every system has one face, their
# swap draws decide the result
@example((make_complete_bipartite(21, 3),
          SearchBudget(seed=3, max_rotation_systems=2000)))
@example((make_complete_bipartite(22, 3),
          SearchBudget(seed=3, max_rotation_systems=2000)))
@example((make_complete_bipartite(23, 3),
          SearchBudget(seed=7, max_rotation_systems=3000, restart_stall=50)))
# long scored sequences on a graph of degree 8 with long faces
@example((build_family("Q(2,4)"),
          SearchBudget(seed=0, max_rotation_systems=5000)))
def test_stochastic_matches_the_walk_based_loop(case):
    g, budget = case
    res = stochastic_search(g, budget)
    assert (res.best_genus, res.explored, res.witness.rotation) == (
        reference_stochastic(g, budget))


def reference_exhaustive(g):
    """(best_genus, explored, witness rotation) by the enumeration the
    oracle must reproduce: every vertex's cyclic orders in permutation
    order, the root's (the first vertex of degree >= 3) up to reversal,
    systems in itertools.product order, each one's faces counted with a
    dict tracer, first best kept, stopping at the first system with as
    many faces as any can have.  That cap comes from the face lengths of
    a connected simple graph on three or more vertices: at least 4 when
    it is bipartite and 3 otherwise, summing to 2m; a system has at most
    2 - n + m faces (genus 0), and its face count has the parity of
    m - n."""
    root = next((v for v in range(g.n) if g.degree(v) >= 3), None)
    colour = {0: 0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in g.adj[v]:
            if u not in colour:
                colour[u] = 1 - colour[v]
                stack.append(u)
    bipartite = all(colour[u] != colour[v]
                    for v in range(g.n) for u in g.adj[v])
    cap = min(2 - g.n + g.m, 2 * g.m // (4 if bipartite else 3))
    cap -= (cap - g.m + g.n) % 2

    def orders(v):
        nbrs = g.adj[v]
        if len(nbrs) <= 2:
            return [tuple(nbrs)]
        return [(nbrs[0],) + perm
                for perm in itertools.permutations(nbrs[1:])
                if v != root or perm[0] < perm[-1]]

    best_f, best, explored = -1, None, 0
    for rotation in itertools.product(*map(orders, range(g.n))):
        explored += 1
        after = {(v, u): rot[(i + 1) % len(rot)]
                 for v, rot in enumerate(rotation) for i, u in enumerate(rot)}
        unseen = {(u, v) for v, nbrs in enumerate(g.adj) for u in nbrs}
        f = 0
        while unseen:
            f += 1
            u, v = unseen.pop()
            while (v, after[v, u]) in unseen:
                u, v = v, after[v, u]
                unseen.remove((u, v))
        if f > best_f:
            best_f, best = f, rotation
            if f >= cap:
                break
    return (2 - g.n + g.m - best_f) // 2, explored, best


# a hub of degree 6 with all 120 of its orders enumerated, vertex 1 (the
# first of degree 3) being the root
HUB = from_edges(7, [(0, 1), (1, 2)] + [(v, 6) for v in range(6)])
# the same graph with the hub as vertex 0, the root, taken up to reversal
# (and old vertex 0 as 6)
HUB_AT_0 = from_edges(7, [(1, 6), (1, 2)] + [(0, v) for v in range(1, 7)])


@pytest.mark.parametrize("g", [K33_SUBDIVIDED, K33_SUBDIVIDED_AT_0],
                         ids=["degree 2 at 6", "degree 2 at 0"])
def test_reflection_is_quotiented_whatever_the_root_label(g):
    # the root is the first vertex of degree >= 3, so labelling the
    # degree-2 vertex 0 does not double the systems enumerated; the graph
    # misses its bound, so every system of the quotient is scored
    res = exhaustive_min_genus(g)
    assert (res.best_genus, res.explored) == (1, 32)
    assert rotation_space_size(g) == 32


@st.composite
def small_connected_graphs(draw):
    """A random connected graph on 3..7 vertices: a random tree plus
    extra edges, each kept only while the rotation space stays small."""
    n = draw(st.integers(3, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    for edge in draw(st.lists(st.sampled_from(pairs), max_size=10)):
        grown = edges | {edge}
        if rotation_space_size(from_edges(n, sorted(grown))) <= 600:
            edges = grown
    return from_edges(n, sorted(edges))


@st.composite
def trees(draw):
    """A random tree on 3..9 vertices: every system is planar, so the
    first one meets the bound."""
    n = draw(st.integers(3, 9))
    return from_edges(n, sorted({(draw(st.integers(0, v - 1)), v)
                                 for v in range(1, n)}))


@st.composite
def k33_variants(draw):
    """K(3,3), whose genus 1 meets its quadrilateral bound where the
    triangle bound would be 0, or K(3,3) with one edge subdivided (not
    bipartite, triangle bound 0) or a pendant vertex added (bipartite,
    quadrilateral bound 0): genus 1, so no system of these two meets the
    bound and every one is scored.  Vertices are relabelled at random."""
    edges = [(u, v) for u in range(3) for v in range(3, 6)]
    kind = draw(st.sampled_from(["plain", "subdivided", "pendant"]))
    if kind == "subdivided":
        u, v = edges.pop(draw(st.integers(0, 8)))
        edges += [(u, 6), (v, 6)]
    elif kind == "pendant":
        edges.append((draw(st.integers(0, 5)), 6))
    n = 6 if kind == "plain" else 7
    label = draw(st.permutations(range(n)))
    return from_edges(n, sorted(tuple(sorted((label[u], label[v])))
                                for u, v in edges))


@settings(max_examples=90, deadline=None)
@given(st.one_of(small_connected_graphs(), trees(), k33_variants()))
@example(HUB)
@example(HUB_AT_0)
@example(complete(4))
@example(WHEEL)
@example(make_path(3))
@example(make_complete_bipartite(3, 3))
@example(K33_SUBDIVIDED)
@example(K33_SUBDIVIDED_AT_0)
def test_block_scoring_matches_a_full_recount(g):
    res = exhaustive_min_genus(g)
    genus, explored, witness = reference_exhaustive(g)
    assert (res.best_genus, res.explored, res.witness.rotation) == (
        genus, explored, witness)
