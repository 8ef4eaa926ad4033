import json
import re
import sys
from collections import deque
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from quadgenus import graphs
from quadgenus.errors import ExprSyntaxError, InvalidParameterError
from quadgenus.graphs import (MAX_DARTS, build_family, components,
                              family_factors, from_edges,
                              graph_from_json_dict, graph_to_json_dict,
                              json_header, make_complete_bipartite,
                              make_cycle, make_path, parse_family_expr,
                              product_graph, product_sizes)


def test_path_basic():
    g = make_path(4)
    assert g.n == 4 and g.m == 3
    assert 1 in g.adj[0] and 3 in g.adj[2] and 3 not in g.adj[0]
    assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]


def test_path_rejects_singleton():
    with pytest.raises(InvalidParameterError):
        make_path(1)


def test_cycle_basic():
    g = make_cycle(6)
    assert g.n == 6 and g.m == 6
    assert all(g.degree(v) == 2 for v in range(6))
    assert 0 in g.adj[5]


@pytest.mark.parametrize("n", [3, 5, 7, 2])
def test_cycle_rejects_odd_or_short(n):
    with pytest.raises(InvalidParameterError):
        make_cycle(n)


def test_complete_bipartite_counts_and_labels():
    g = make_complete_bipartite(4, 4)
    assert g.n == 8 and g.m == 16
    assert g.label_of(0) == ("a0",) and g.label_of(4) == ("b0",)
    assert 4 in g.adj[0] and 1 not in g.adj[0]


def test_from_edges_permits_unbalanced_and_odd_structures():
    k23 = from_edges(5, [(u, v + 2) for u in range(2) for v in range(3)])
    assert k23.m == 6
    c5 = from_edges(5, [(v, (v + 1) % 5) for v in range(5)])
    comp, _, bipartite = components(c5)
    assert (comp, bipartite) == ([0] * 5, [False])


def test_from_edges_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        from_edges(3, [(0, 0)])
    with pytest.raises(InvalidParameterError):
        from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidParameterError):
        from_edges(3, [(0, 5)])


def test_product_graph_k22_c4():
    g = product_graph([make_complete_bipartite(2, 2), make_cycle(4)])
    assert g.n == 16 and g.m == 32
    # vertex (u, v) maps to u + 4 * v; copies of K22 plus C4 rungs
    assert 2 in g.adj[0] and 4 in g.adj[0] and 12 in g.adj[0]
    assert 1 not in g.adj[0] and 8 not in g.adj[0]


def test_product_labels_concatenate():
    g = product_graph([make_complete_bipartite(2, 2), make_path(2)])
    assert g.label_of(0) == ("a0", 0)
    assert g.label_of(1) == ("a1", 0)
    assert g.label_of(4) == ("a0", 1)


def test_product_graph_refuses_an_empty_factor():
    with pytest.raises(InvalidParameterError, match="non-empty"):
        product_graph([make_cycle(4), from_edges(0, [])])
    with pytest.raises(InvalidParameterError, match="non-empty"):
        product_graph([])


def test_connectivity_helpers():
    # components come in order of their least vertex, each coloured from
    # it
    g = from_edges(5, [(0, 1), (2, 3)])
    assert components(g) == ([0, 0, 1, 1, 2], [0, 1, 0, 1, 0],
                             [True, True, True])
    assert components(make_cycle(4)) == ([0] * 4, [0, 1, 0, 1], [True])
    assert components(from_edges(0, [])) == ([], [], [])


def test_bipartite_coloring_is_proper():
    g = make_complete_bipartite(3, 4)
    assert components(g) == ([0] * 7, [0] * 3 + [1] * 4, [True])


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)
                 if pairs else st.just([]))
    return from_edges(n, edges)


def reference_components(g):
    """Vertex sets by breadth-first search, in order of least vertex."""
    seen, comps = set(), []
    for start in range(g.n):
        if start not in seen:
            seen.add(start)
            queue, comp = deque([start]), [start]
            while queue:
                for v in g.adj[queue.popleft()]:
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
                        comp.append(v)
            comps.append(sorted(comp))
    return comps


def two_colourable(g, vertices):
    """Some 0/1 colouring of `vertices` gives no edge among them one
    colour at both ends: tried over all 2^k colourings."""
    edges = [(u, v) for u, v in g.edges() if u in vertices]
    for bits in product((0, 1), repeat=len(vertices)):
        colour = dict(zip(vertices, bits))
        if all(colour[u] != colour[v] for u, v in edges):
            return True
    return False


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_graphs())
# always tried: no vertex, isolated vertices, C(5) beside C(4)
@example(from_edges(0, []))
@example(from_edges(4, [(1, 2)]))
@example(from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                        (5, 6), (6, 7), (7, 8), (8, 5)]))
def test_components_match_a_search_and_a_brute_force_colouring(g):
    comp, side, bipartite = components(g)
    groups = [[v for v in range(g.n) if comp[v] == c]
              for c in range(len(bipartite))]
    assert groups == reference_components(g)
    assert bipartite == [two_colourable(g, vertices) for vertices in groups]
    # each colouring is grown from its component's least vertex, and is
    # proper on every bipartite component
    assert all(side[vertices[0]] == 0 for vertices in groups)
    assert all(side[u] != side[v] for u, v in g.edges() if bipartite[comp[u]])


# expression parsing


def test_parse_product_expression():
    ast = parse_family_expr("K(4,4) x C(6) x P(4)")
    assert ast == (("K", 4, 4), ("C", 6), ("P", 4))
    assert str(ast) == "K(4,4) x C(6) x P(4)"


def test_parse_cube_shorthand():
    ast = parse_family_expr("Q(2,4)")
    assert ast == (("Q", 2, 4),)
    assert str(ast) == "Q(2,4)"


def test_parse_tolerates_whitespace_but_not_case():
    a = parse_family_expr("K(4,4)xC(6)")
    b = parse_family_expr("  K( 4 , 4 )  x  C( 6 ) ")
    assert a == b
    with pytest.raises(ExprSyntaxError):
        parse_family_expr("k(4,4) x c(6)")


def test_format_round_trips():
    for text in ("K(4,4)", "Q(2,4) x C(6)", "P(2) x P(2) x P(2)"):
        ast = parse_family_expr(text)
        assert str(ast) == text
        assert parse_family_expr(str(ast)) == ast


@pytest.mark.parametrize("bad", ["", "K(4,4) x", "K(4)", "C()", "x C(4)",
                                 "K(4,4) y C(4)", "Q(2,4))", "K(a,4)",
                                 "C(\u00b2)"])
def test_parse_errors(bad):
    with pytest.raises(ExprSyntaxError):
        parse_family_expr(bad)


def test_parse_error_reports_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_family_expr("K(4,4) ! C(4)")
    assert "offset" in str(exc.value)


class ReferenceParser:
    """A character-by-character reader of the family grammar, kept to
    test parse_family_expr against: the same atoms, or the same error
    class.  term_start is the first non-space character of the term
    being read."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.term_start = 0

    def error(self, message: str) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError as exc:  # past Python's int <- str digit limit
            raise InvalidParameterError(f"integer too large: {exc}")

    def term(self) -> tuple:
        self.skip_ws()
        self.term_start = self.pos
        head = self.peek()
        if head not in ("K", "C", "P", "Q"):
            raise self.error("expected one of K, C, P, Q")
        self.pos += 1
        self.expect("(")
        first = self.integer()
        if head in ("K", "Q"):
            self.expect(",")
            second = self.integer()
            self.expect(")")
            return (head, first, second)
        self.expect(")")
        return (head, first)

    def expr(self) -> tuple:
        atoms = [self.term()]
        while True:
            self.skip_ws()
            if self.peek() == "x":
                self.pos += 1
                atoms.append(self.term())
            else:
                break
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        return tuple(atoms)


# Unicode spaces and digits; "\u200b" is not a space and "\u00b2" not a
# decimal digit, for either parser
SPACES = [" ", "\t", "\n", "\x1c", "\x85", "\u00a0", "\u2003", "\u3000",
          "\u200b"]
DIGITS = "\u0660\u0669\u06f4\u0967\uff10\uff19\U0001d7ce\u00b2"


@st.composite
def mutated_expressions(draw):
    """Text drawn from the grammar, then with characters dropped or
    doubled.  An integer may use Unicode digits or be past Python's
    4300-digit limit."""
    space = st.one_of(st.sampled_from(["", "", " "]),
                      st.text(st.sampled_from(SPACES), max_size=2))
    plain = st.integers(0, 99).map(str)
    integer = st.one_of(plain, plain,
                        st.text(st.sampled_from("1" + DIGITS), min_size=1,
                                max_size=3),
                        st.integers(4301, 4400).map(lambda k: "7" * k))
    text = ""
    for t in range(draw(st.integers(1, 3))):
        if t:
            text += draw(space) + draw(st.sampled_from("xxxy"))
        letter = draw(st.sampled_from("KQCPk"))
        count = draw(st.sampled_from([1, 2] + [1 + (letter in "KQ")] * 4))
        params = [draw(space) + draw(integer) + draw(space)
                  for _ in range(count)]
        text += (draw(space) + letter + draw(space) + "(" + ",".join(params)
                 + ")" + draw(space))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        if text:
            at = draw(st.integers(0, len(text) - 1))
            text = text[:at] + text[at] * draw(st.sampled_from([0, 2])) + \
                text[at + 1:]
    return text


@settings(derandomize=True, max_examples=400, deadline=None)
@given(mutated_expressions())
@example("K(4,4) x C(6)")
@example("K(\u0664,\uff14)\u3000x\u00a0C(\u0666)")
@example(" K ( 4 , 4 )x C(6")
@example("C(1" + "0" * 5000 + ",2)")
@example("K(1" + "0" * 5000 + ")")
def test_parser_agrees_with_the_reference_reader(text):
    reference = ReferenceParser(text)
    try:
        expected = reference.expr()
    except (ExprSyntaxError, InvalidParameterError) as exc:
        with pytest.raises((ExprSyntaxError, InvalidParameterError)) as got:
            parse_family_expr(text)
        assert type(got.value) is type(exc)
        if isinstance(exc, ExprSyntaxError):
            # a refused term is reported at its first non-space character
            assert got.value.offset in (exc.offset, reference.term_start)
    else:
        assert parse_family_expr(text) == expected


def test_term_pattern_reads_spaces_and_digits_as_str_does():
    # the reference reader uses str.isspace and str.isdecimal
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", everything) == [
        c for c in everything if c.isspace()]
    assert re.findall(r"\d", everything) == [
        c for c in everything if c.isdecimal()]


def test_build_family_counts():
    g = build_family("K(4,4) x C(6)")
    assert (g.n, g.m) == (48, 144)
    g = build_family("Q(2,4)")
    assert (g.n, g.m) == (64, 256)


def test_product_sizes_are_build_family_counts_on_every_criterion_8_draw(
        monkeypatch):
    # criterion 8 reads its Euler counts off product_sizes, so the last
    # pair must be build_family's (n, m) on every expression its sampler
    # draws: each kind, odd Q(j,1) and Q(j,3) and odd-order P(m) included
    from quadgenus import selftest
    drawn = set()
    real = selftest._euler_value
    monkeypatch.setattr(selftest, "_euler_value",
                        lambda expr: drawn.add(expr) or real(expr))
    for seed in range(3):
        assert selftest.criterion_8(seed)[0]
    for expr in sorted(drawn):
        *_, last = graphs.product_sizes(parse_family_expr(expr))
        g = build_family(expr)
        assert last == (g.n, g.m), expr
    kinds = {re.sub(r"\(\d+(,\d+)?\)", "", expr) for expr in drawn}
    assert {"K", "P x P x P", "Q", "Q x C", "Q x C x C", "K x C", "Q x P",
            "Q x P x P", "C x C", "C x C x C", "P x P x P x P"} <= kinds
    assert any(re.search(r"Q\(\d+,1\)", expr) for expr in drawn)
    assert any(re.search(r"Q\(\d+,3\)", expr) for expr in drawn)
    assert any(re.search(r"P\([35]\)", expr) for expr in drawn)


def test_build_family_rejects_odd_cycle():
    with pytest.raises(InvalidParameterError):
        build_family("C(5)")


def test_build_family_allows_shapes_constructions_refuse():
    # the builder is permissive: unbalanced sides and odd paths are real
    # graphs even though no construction embeds them
    assert build_family("K(2,3)").m == 6
    assert build_family("P(3) x P(3)").n == 9


def test_graph_json_round_trip():
    g = build_family("K(4,4) x P(2)")
    data = json.loads(json.dumps(graph_to_json_dict(g)))
    h = graph_from_json_dict(data)
    assert h.n == g.n and set(h.edges()) == set(g.edges())
    assert h.label_of(3) == g.label_of(3)


# properties


@st.composite
def small_graphs(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return make_path(draw(st.integers(2, 8)))
    if kind == 1:
        return make_cycle(2 * draw(st.integers(2, 5)))
    return make_complete_bipartite(draw(st.integers(1, 4)),
                                   draw(st.integers(1, 4)))


@given(small_graphs(), small_graphs())
def test_product_counts(a, b):
    p = product_graph([a, b])
    assert p.n == a.n * b.n
    assert p.m == a.n * b.m + b.n * a.m


@given(small_graphs(), small_graphs())
def test_edge_count_is_cached_out_of_sight(a, b):
    p = product_graph([a, b])
    assert p.m == len(list(p.edges())) == p.m
    # an equal graph whose m was never read
    fresh = graphs.Graph(p.n, p.adj, p.labels)
    assert "m" in vars(p) and "m" not in vars(fresh)
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)


@given(small_graphs(), small_graphs())
def test_product_degree_sum(a, b):
    p = product_graph([a, b])
    u = 0
    assert p.degree(u) == a.degree(0) + b.degree(0)


@given(small_graphs(), small_graphs())
def test_product_matches_the_definition(a, b):
    # (x, y) is vertex x + a.n * y, labelled label(x) + label(y), and
    # (x, y) ~ (x', y') iff one coordinate is equal and the others adjacent
    p = product_graph([a, b])
    for x in range(a.n):
        for y in range(b.n):
            v = x + a.n * y
            assert p.label_of(v) == a.label_of(x) + b.label_of(y)
            assert p.adj[v] == tuple(sorted(
                [x2 + a.n * y for x2 in a.adj[x]]
                + [x + a.n * y2 for y2 in b.adj[y]]))


@given(st.integers(1, 4), st.integers(1, 4))
def test_bipartite_parts_sizes(s, t):
    assert components(make_complete_bipartite(s, t)) == (
        [0] * (s + t), [0] * s + [1] * t, [True])


def test_vertex_cap_admits_every_connected_graph_the_dart_cap_admits():
    # header dicts only, so nothing is built per vertex.  A tree on the
    # most vertices admitted has exactly MAX_DARTS darts, and one more
    # vertex is refused whatever its darts
    top = MAX_DARTS // 2 + 1
    assert json_header({"n": top}, 2 * (top - 1)) == (top, None)
    assert 2 * (top - 1) == MAX_DARTS
    for darts in (0, MAX_DARTS):
        with pytest.raises(InvalidParameterError,
                           match=f"n={top + 1} vertices.*refused"):
            json_header({"n": top + 1}, darts)
    # the embeddable family with the most vertices under the dart cap,
    # n = 2,097,152, and the next path order past it
    sizes = list(product_sizes(parse_family_expr("K(2,2) x P(524288)")))
    assert sizes[-1] == (2_097_152, 4_194_300) and 2_097_152 < top
    with pytest.raises(InvalidParameterError, match="refused"):
        family_factors("K(2,2) x P(524290)")


def test_size_guard_is_arithmetic_only(monkeypatch):
    # Q(6,4) (6,291,456 darts) passes; K(2048,2048) sits exactly on the
    # cap and one more vertex passes it.  No product is taken, and no
    # atom of a refused expression is built.
    built = []

    def fake_k(s, t):
        built.append((s, t))
        return (s, t)

    def fail(*args):
        raise AssertionError("no product may be taken")

    monkeypatch.setattr(graphs, "make_complete_bipartite", fake_k)
    monkeypatch.setattr(graphs, "product_graph", fail)
    monkeypatch.setattr(graphs, "product_vertices", fail)
    assert family_factors("Q(6,4)") == [((4, 4), 6)]
    assert family_factors("K(2048,2048)") == [((2048, 2048), 1)]
    assert 2 * 2048 * 2048 == MAX_DARTS
    built.clear()
    with pytest.raises(InvalidParameterError):
        family_factors("K(2048,2048) x P(2)")
    with pytest.raises(InvalidParameterError):
        family_factors("K(2048,2049)")
    assert built == []


def test_empty_factor_with_huge_repeat_is_refused_at_once():
    # the size fold stops at the empty factor instead of folding it 10^9
    # times; the K(0,0) builder then refuses it
    with pytest.raises(InvalidParameterError, match="at least one vertex"):
        family_factors("Q(1000000000,0)")
