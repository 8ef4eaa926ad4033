"""Fuzz of the input boundary: family expressions, the JSON loaders and
the command line.

Whatever the input, a library entry point raises nothing but ToolError,
and ``cli.main`` returns (or argparse exits with) a documented code,
0 or 2-5, with no traceback.  ``graphs.MAX_DARTS`` is lowered for every
test here, so no admitted graph is large and every example is fast; the
loaders read the cap at call time, so it bounds them too.  Runs are
derandomized so the suite gives the same verdict every time.
"""

import inspect
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadgenus import graphs
from quadgenus.cli import main
from quadgenus.embeddings import (EmbeddingCertificate,
                                  certificate_from_json_dict,
                                  embedding_from_json_dict)
from quadgenus.errors import ToolError
from quadgenus.formulas import FORMULAS
from quadgenus.graphs import family_factors, graph_from_json_dict

EXIT_CODES = {0, 2, 3, 4, 5}

FUZZ = settings(max_examples=60, deadline=5000, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


@pytest.fixture(autouse=True)
def small_cap(monkeypatch):
    monkeypatch.setattr(graphs, "MAX_DARTS", 4096)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

params = st.one_of(st.integers(-3, 12), st.integers(-10**40, 10**40))
atoms = st.one_of(
    st.builds("K({},{})".format, params, params),
    st.builds("Q({},{})".format, params, params),
    st.builds("C({})".format, params),
    st.builds("P({})".format, params))
small_atoms = st.one_of(
    st.builds("K({0},{0})".format, st.sampled_from([2, 4])),
    st.builds("Q({},{})".format, st.integers(1, 2), st.sampled_from([2, 4])),
    st.builds("C({})".format, st.sampled_from([4, 6])),
    st.builds("P({})".format, st.integers(2, 4)))
expressions = st.one_of(
    st.lists(small_atoms, min_size=1, max_size=3).map(" x ".join),
    st.lists(atoms, min_size=1, max_size=4).map(" x ".join),
    st.lists(st.sampled_from(list("KCPQx(),0123456789 -%")),
             max_size=30).map("".join),
    st.text(max_size=30))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.integers()
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=25)

vertex = st.integers(-2, 9)


@st.composite
def graph_dicts(draw):
    """Graph JSON, mostly well formed: n may be far past the cap and
    edges may repeat, loop or leave range."""
    n = draw(st.one_of(st.integers(-2, 9), st.integers(4000, 10**12),
                       json_values))
    edges = draw(st.one_of(st.lists(st.tuples(vertex, vertex).map(list),
                                    max_size=14),
                           json_values))
    data = {"n": n, "edges": edges}
    if draw(st.booleans()):
        data["labels"] = draw(st.one_of(
            st.lists(st.lists(st.integers(0, 3) | st.text(max_size=2),
                              max_size=2), max_size=10),
            json_values))
    return data


@st.composite
def valid_embeddings(draw):
    """A random simple graph on 2 to 7 vertices under a random rotation
    system, in the embedding file's form: these reach the certificate.  A
    spanning tree keeps most of them connected."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=10)))
    if draw(st.integers(0, 3)):
        edges |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    adj = [[] for _ in range(n)]
    for u, v in sorted(edges):
        adj[u].append(v)
        adj[v].append(u)
    rotation = [draw(st.permutations(nbrs)) for nbrs in adj]
    return {"graph": {"n": n}, "rotation": [list(r) for r in rotation]}


def graph_of(embedding: dict) -> dict:
    """The graph file of an embedding file: its edges read off the rows."""
    return {"n": embedding["graph"]["n"],
            "edges": [[u, v] for u, row in enumerate(embedding["rotation"])
                      for v in sorted(row) if u < v]}


@st.composite
def broken_rows(draw):
    """The rows of a valid embedding with one fault laid in: an entry out
    of range, a loop, a repeated neighbour, or an edge named at one end
    only (added to one row, or dropped from one)."""
    data = draw(valid_embeddings())
    rows = data["rotation"]
    n = len(rows)
    v = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["range", "loop", "repeat", "one-sided"]))
    at = draw(st.integers(0, len(rows[v])))
    if kind == "range":
        rows[v].insert(at, draw(st.sampled_from([-1, n, n + 3])))
    elif kind == "loop":
        rows[v].insert(at, v)
    elif kind == "repeat" and rows[v]:
        rows[v].insert(at, draw(st.sampled_from(rows[v])))
    elif rows[v] and draw(st.booleans()):
        rows[v].pop(at - 1)
    else:
        rows[v].insert(at, draw(st.sampled_from(
            [w for w in range(n) if w != v and w not in rows[v]] or [v])))
    return data


@st.composite
def embedding_dicts(draw):
    return draw(st.one_of(
        valid_embeddings(),
        broken_rows(),
        valid_embeddings().map(lambda e: {**e, "graph": graph_of(e)}),
        st.builds(lambda g, rot: {"graph": g, "rotation": rot},
                  st.one_of(graph_dicts().map(
                      lambda g: {k: v for k, v in g.items() if k != "edges"}),
                      json_values),
                  st.one_of(st.lists(st.lists(vertex, max_size=4),
                                     max_size=9), json_values)),
        json_values))


certificate_fields = list(EmbeddingCertificate.__dataclass_fields__)
certificate_dicts = st.one_of(
    st.dictionaries(st.sampled_from(certificate_fields + ["extra"]),
                    json_values),
    json_values)


def file_contents(documents):
    """JSON text of a document, or text or bytes that are not JSON."""
    return st.one_of(documents.map(json.dumps), st.text(max_size=20),
                     st.binary(max_size=20))


# ---------------------------------------------------------------------------
# Library entry points
# ---------------------------------------------------------------------------


@FUZZ
@given(text=expressions)
def test_expressions_fail_only_with_tool_errors(text):
    try:
        family_factors(text)
    except ToolError:
        pass


@FUZZ
@given(data=st.one_of(graph_dicts(), json_values))
def test_graph_loader_fails_only_with_tool_errors(data):
    try:
        graph = graph_from_json_dict(data)
    except ToolError:
        return
    assert graph.n <= graphs.MAX_DARTS and 2 * graph.m <= graphs.MAX_DARTS


@FUZZ
@given(data=embedding_dicts())
def test_embedding_loader_fails_only_with_tool_errors(data):
    try:
        e = embedding_from_json_dict(data)
    except ToolError:
        return
    # what loads is a simple graph named at both ends, its rows sorted
    adj = e.graph.adj
    assert len(adj) == e.graph.n <= graphs.MAX_DARTS
    for v, nbrs in enumerate(adj):
        assert list(nbrs) == sorted(set(nbrs)) == sorted(e.rotation[v])
        assert v not in nbrs and all(0 <= w < e.graph.n for w in nbrs)
        assert all(v in adj[w] for w in nbrs)


@FUZZ
@given(data=broken_rows())
def test_embedding_loader_refuses_every_broken_row(data):
    with pytest.raises(ToolError):
        embedding_from_json_dict(data)


@FUZZ
@given(data=certificate_dicts)
def test_certificate_loader_fails_only_with_tool_errors(data):
    try:
        certificate_from_json_dict(data)
    except ToolError:
        pass


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


def write(path: Path, content) -> str:
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


flags = st.lists(st.sampled_from(["--json", "--out"]), unique=True,
                 max_size=2)


@FUZZ
@given(command=st.sampled_from(["build", "embed"]), expr=expressions,
       extra=flags)
def test_cli_build_and_embed(command, expr, extra):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, expr]
        for flag in extra:
            argv += [flag] + ([str(Path(tmp) / "out")] if flag == "--out"
                              else [])
        run_cli(argv)


@FUZZ
@given(command=st.sampled_from(["verify", "faces", "verify-dir"]),
       embedding=st.one_of(valid_embeddings().map(json.dumps),
                           file_contents(embedding_dicts())),
       certificate=st.none() | file_contents(certificate_dicts),
       as_json=st.booleans())
def test_cli_verify_and_faces(command, embedding, certificate, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "embedding.json", embedding)
        if command == "verify-dir":
            command, path = "verify", tmp
        argv = [command, path] + (["--json"] if as_json else [])
        if certificate is not None:
            cert = write(Path(tmp) / "certificate.json", certificate)
            if command == "verify" and path != tmp:
                argv += ["--certificate", cert]
        run_cli(argv)


@FUZZ
@given(graph=file_contents(st.one_of(
           graph_dicts(), valid_embeddings().map(graph_of))),
       budget=st.integers(-1, 60), target=st.none() | st.integers(-1, 3),
       seed=st.integers(0, 3), out=st.booleans())
def test_cli_oracle(graph, budget, target, seed, out):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["oracle", write(Path(tmp) / "graph.json", graph),
                "--budget", str(budget), "--seed", str(seed)]
        if target is not None:
            argv += ["--target", str(target)]
        if out:
            argv += ["--out", str(Path(tmp) / "o")]
        run_cli(argv)


param_values = st.one_of(
    st.integers(-3, 40), st.integers(-10**12, 10**12),
    st.sampled_from([10**11, 2.5, float("nan"), float("inf"), True]),
    st.lists(st.integers(-2, 10**6), max_size=6), json_values)


@settings(FUZZ, max_examples=300)  # each example takes about a millisecond
@given(data=st.data(), formula=st.sampled_from(sorted(FORMULAS) + ["nope"]))
def test_cli_genus(data, formula):
    names = (inspect.signature(FORMULAS[formula]).parameters
             if formula in FORMULAS else ["r"])
    params = data.draw(st.one_of(
        st.fixed_dictionaries({name: param_values for name in names}),
        st.dictionaries(st.sampled_from(["i", "j", "r", "m_list", "z"]),
                        param_values, max_size=3)).map(json.dumps)
        | st.text(max_size=20))
    run_cli(["genus", "--formula", formula, "--params", params])
