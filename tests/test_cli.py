import argparse
import hashlib
import json
import time

import pytest

from quadgenus import cli, constructions, embeddings, formulas, graphs
from quadgenus.cli import main
from quadgenus.errors import EmbeddingError, InvalidParameterError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_prints_summary(capsys):
    code, out, _ = run(capsys, "build", "K(4,4) x C(6)")
    assert code == 0
    assert "n=48" in out and "m=144" in out and "bipartite=True" in out


def test_build_writes_graph_and_manifest(capsys, tmp_path):
    out_dir = tmp_path / "g"
    code, _, _ = run(capsys, "build", "Q(2,4)", "--out", str(out_dir))
    assert code == 0
    data = json.loads((out_dir / "graph.json").read_text())
    assert data["n"] == 64 and len(data["edges"]) == 256
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "graph.json" in manifest["outputs"]
    assert manifest["command"] == "build"


def test_build_invalid_parameter_exit_code(capsys):
    code, _, err = run(capsys, "build", "C(5)")
    assert code == 3 and "error" in err


def test_build_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "build", "K(4,4) %% C(6)")
    assert code == 2 and "offset" in err


def refuse_to_build(monkeypatch):
    """Make every graph builder fail, so a size guard that lets an
    expression through fails the test instead of allocating it."""
    def fail(*args, **kwargs):
        raise AssertionError("a graph was built past the size guard")

    for name in ("make_complete_bipartite", "make_cycle", "make_path",
                 "product_graph", "product_vertices"):
        monkeypatch.setattr(graphs, name, fail)
    monkeypatch.setattr(constructions, "make_complete_bipartite", fail)


@pytest.mark.parametrize("command", ["embed", "build"])
@pytest.mark.parametrize("expr", ["Q(3,64)", "K(10000000,10000000)",
                                  "Q(1000000000,4)",
                                  "C(4) x Q(3,64) x P(0)"])
def test_over_cap_expression_is_refused_before_building(capsys, monkeypatch,
                                                        command, expr):
    refuse_to_build(monkeypatch)
    code, out, err = run(capsys, command, expr)
    assert code == 3 and out == ""
    assert "darts" in err and "Traceback" not in err


def test_integer_past_digit_limit_is_refused(capsys):
    code, _, err = run(capsys, "build", "K(1" + "0" * 5000 + ",2)")
    assert code == 3 and "too large" in err


@pytest.mark.parametrize("command", ["embed", "build"])
def test_long_product_chain_is_refused_without_recursion(capsys, command):
    # the parsed chain nests once per factor, past the recursion limit
    code, _, err = run(capsys, command, " x ".join(["C(4)"] * 3000))
    assert code == 3 and "darts" in err and "Traceback" not in err


def test_embed_k28_28(capsys, tmp_path):
    # the base block alone; its face families come from the scheme's rule
    out_dir = tmp_path / "e"
    code, _, _ = run(capsys, "embed", "K(28,28)", "--out", str(out_dir))
    assert code == 0
    cert = json.loads((out_dir / "certificate.json").read_text())
    assert cert["genus"] == 169 == (14 - 1) ** 2
    assert cert["minimal"] is True


def test_embed_writes_verifiable_artifacts(capsys, tmp_path):
    out_dir = tmp_path / "e"
    code, out, _ = run(capsys, "embed", "K(4,4) x C(6)", "--out",
                       str(out_dir))
    assert code == 0 and "genus=13" in out and "minimal=True" in out
    for name in ("embedding.json", "certificate.json", "handles.json",
                 "manifest.json"):
        assert (out_dir / name).exists()
    cert = json.loads((out_dir / "certificate.json").read_text())
    assert cert["genus"] == 13 and cert["quadrilateral"]
    steps = json.loads((out_dir / "handles.json").read_text())["steps"]
    # one C(6) step: six links, two handles each
    assert [(row["links"], row["handles"]) for row in steps] == [(6, 12)]

    code, out, _ = run(capsys, "verify", str(out_dir))
    assert code == 0 and "certificate-match" in out


def test_main_calls_share_one_parser_and_no_parsed_state(capsys, tmp_path,
                                                          monkeypatch):
    out_dir = tmp_path / "e"
    assert run(capsys, "embed", "K(2,2) x C(4)", "--out", str(out_dir))[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "quadgenus":
            built.append(kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    code, out, _ = run(capsys, "verify", "--json", str(out_dir))
    assert code == 0 and json.loads(out)["verified"] is True
    code, out, _ = run(capsys, "verify", str(out_dir))
    assert code == 0 and out.startswith("ok: ") and "certificate-match" in out
    code, out, _ = run(capsys, "embed", "K(2,2) x C(4)")
    assert code == 0 and out.startswith("K(2,2) x C(4): genus=")
    code, out, _ = run(capsys, "embed", "--json", "K(2,2) x C(4)")
    assert code == 0 and json.loads(out)["genus"] == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e"]
    assert len(built) <= 1


def test_embed_records_factor_permutation(capsys, tmp_path):
    out_dir = tmp_path / "e"
    code, _, _ = run(capsys, "embed", "C(4) x K(4,4)", "--out", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["parameters"]["normalized"] == "Q(1,4) x C(4)"
    assert manifest["parameters"]["factor_order"] == [1, 0]


def test_embed_unsupported_family_exit_code(capsys):
    code, _, err = run(capsys, "embed", "P(4)xP(4)")
    assert code == 4 and "error" in err


@pytest.mark.parametrize("expr,message", [
    ("K(0,0)", "both parts need at least one vertex"),
    ("Q(0,4)", "Q needs at least one factor, got i=0")])
def test_empty_base_is_refused_by_the_classifier(capsys, tmp_path, expr,
                                                 message):
    # embed refuses an empty base through classify_family, before any
    # file is written
    with pytest.raises(InvalidParameterError, match=message):
        constructions.classify_family(expr)
    code, out, err = run(capsys, "embed", expr, "--out", str(tmp_path))
    assert (code, out) == (3, "") and message in err
    assert "Traceback" not in err and not any(tmp_path.iterdir())


def test_verify_detects_tampering(capsys, tmp_path):
    out_dir = tmp_path / "e"
    run(capsys, "embed", "K(2,2) x C(4)", "--out", str(out_dir))
    emb = json.loads((out_dir / "embedding.json").read_text())
    # transpose one rotation: still a valid rotation system, new genus
    rot = emb["rotation"][0]
    rot[0], rot[1] = rot[1], rot[0]
    (out_dir / "embedding.json").write_text(json.dumps(emb))
    code, _, err = run(capsys, "verify", str(out_dir))
    assert code == 5 and "mismatch" in err


def test_verify_traces_and_colours_once(capsys, tmp_path, count_calls):
    out_dir = tmp_path / "e"
    run(capsys, "embed", "K(4,4) x C(6)", "--out", str(out_dir))
    traces = count_calls(embeddings.face_successors)
    walks = count_calls(graphs.components)
    code, out, _ = run(capsys, "verify", str(out_dir))
    assert code == 0 and "certificate-match" in out
    # the successor build is the one check of the rotation system; the
    # loader checks types and simplicity only
    assert (len(traces), len(walks)) == (1, 1)


def two_k22_file(capsys, tmp_path) -> str:
    """An embedding file of two copies of K(2,2) as embed writes it."""
    out_dir = tmp_path / "e"
    run(capsys, "embed", "K(2,2)", "--out", str(out_dir))
    rows = json.loads((out_dir / "embedding.json").read_text())["rotation"]
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"graph": {"n": 8}, "rotation": rows + [
        [w + 4 for w in row] for row in rows]}))
    return str(path)


def test_verify_of_two_components_traces_and_walks_once(capsys, tmp_path,
                                                       count_calls):
    path = two_k22_file(capsys, tmp_path)
    traces = count_calls(embeddings.face_successors)
    walks = count_calls(graphs.components)
    certified = count_calls(embeddings.certify_faces)
    code, out, _ = run(capsys, "verify", path)
    assert code == 0 and "disconnected, total genus=0" in out
    # one trace of the whole embedding, its faces counted by component;
    # no component is certified on its own
    assert (len(traces), len(walks), len(certified)) == (1, 1, 0)


@pytest.mark.parametrize("corrupt, why", [
    pytest.param(lambda faces: faces[1:], "Euler characteristic 1 is odd",
                 id="odd"),
    pytest.param(lambda faces: [f for f in faces for _ in "ab"],
                 "negative genus -1", id="negative"),
])
def test_verify_refuses_a_component_whose_face_count_is_corrupt(
        capsys, tmp_path, monkeypatch, corrupt, why):
    # the trace loses the first component's first face, or lists every
    # face twice: that component's n - m + f is 1, or 4, which the
    # disconnected count refuses as certify_faces would
    path = two_k22_file(capsys, tmp_path)
    real = embeddings._orbits

    def corrupted(succ):
        faces = corrupt(list(zip(*real(succ))))  # (start, length) pairs
        return [start for start, _ in faces], [n for _, n in faces]

    monkeypatch.setattr(embeddings, "_orbits", corrupted)
    with open(path) as fh:
        e = embeddings.embedding_from_json_dict(json.load(fh))
    with pytest.raises(EmbeddingError, match=why):
        embeddings.components_certificate(e)
    code, out, err = run(capsys, "verify", path)
    assert code == 3 and out == "" and why in err and "Traceback" not in err


def test_oracle_checks_the_graph_once(capsys, tmp_path, count_calls):
    gdir = tmp_path / "g"
    run(capsys, "build", "K(3,3)", "--out", str(gdir))
    walks = count_calls(graphs.components)
    code, _, _ = run(capsys, "oracle", str(gdir / "graph.json"))
    assert code == 0
    # one walk, the exhaustive search's: it refuses a disconnected graph
    # and gives the bipartite flag of the bound the search stops at and
    # reports
    assert len(walks) == 1


def test_oracle_past_the_budget_checks_the_graph_once(capsys, tmp_path,
                                                      count_calls):
    gdir = tmp_path / "g"
    run(capsys, "build", "K(4,4)", "--out", str(gdir))
    walks = count_calls(graphs.components)
    code, out, _ = run(capsys, "oracle", str(gdir / "graph.json"),
                       "--budget", "20000", "--target", "1")
    assert code == 0 and out.startswith("stochastic:")
    # the exhaustive search refuses the space before it walks, so the
    # only walk is the stochastic search's
    assert len(walks) == 1


# sha256 of embedding.json, certificate.json and handles.json from
# `embed EXPR --out DIR`.  A change to the face order, a rotation row that
# starts at another neighbour or a handle laid in another order changes
# the first two, a change to a step's link or handle count the third; the
# canonical artifact form is meant to change only on purpose.  The
# embedding.json column was last re-pinned when the file dropped its edge
# list (the rotation rows are the adjacency); the other two did not move.
# The two five-level families guard where a harvested face starts: the
# start decides which handle faces the next step harvests, and that
# reaches an embedding only from the fifth level on.  Q(3,2) x P(4)
# folds and extends the r = 1 base, whose two one-face families the
# base rule gives like any other r.
EMBED_DIGESTS = {
    "Q(3,4)": (
        "196a2d08b5216cb772c78b9dd1cf67e708261c9ea9c44d324a40d70a70e505f7",
        "90d2ba02399357df833a93b907a7f1ab5963ca489ea22eb24d5f252553f1700c",
        "67e44f0d5b0a58579d7a238c2ad2dbb76699a89d75ffc05c88af8e72cf7c74e1"),
    "Q(2,6) x C(4)": (
        "cc2d8ee14db0019f647887ff4fab03ead9fb642e9d45f2156e82b7c603428bf8",
        "c727de16e8cb7377cdfa6be2743792dc44c8be62a990e5849c3117ff2fbdff11",
        "ad1039a14d82639681154401acd121ae0ac49eaba07a7de0efeb6c72e482a6c1"),
    "Q(2,4) x C(4) x P(4)": (
        "c7a86f34c68d7c51005aa23c128777179357bef9b5f5d8a8b9de164eff7ef624",
        "5560aeb739a49f994a074d100b57f61f5f15ab684485959d08384e56c9d482b8",
        "dc79f75d512ca784a1d5d4a08e1dc042d2b31bb1e4dcbf83633470cbe3079a26"),
    "K(4,4) x C(6)": (
        "7639f884abf3fc2bb00630d53fb165335dfad791c1e14b4ab79cfd4594213186",
        "d23265262941713ed093c5ded9c3b0a04c91b867a74a87dfc2602cdc82bdc536",
        "7e5f1a6ff82a4b794a29f140fb244a5804ea587945c5b04975d8c1033717f6d9"),
    "Q(2,8)": (
        "d3cf9be6a156f2a4d8684f28fc12b87de7035282808414cf54b650a8901be4c3",
        "2e1c20789d1dd50baf50c05170edac26fd9165d454bb5cdb5110e828d100c93e",
        "101d0255433f1ddf30b281009791e61c5d61e6bf772292a88c78a94530fac199"),
    "K(2,2) x P(2) x C(4)": (
        "8dd0fa0c1c93e2a65ceb044576a3442063910db2e0c157148c40263554728f3b",
        "8d7aa89a0f7a9c85fe77b27b1f30fcda80038cd59fe4a2fa626bdf7d17ee52a8",
        "e0b0c2d379ab81163573bacaaa5af82acfe451af4f48cc01800788f32a9911cf"),
    "Q(5,2)": (
        "579f647e1020de4fc702fbfa811f279df5c5388699e7a46066b2ab6d0dcf1639",
        "9b4a94f304a61791f133953f356a889c079ec27098e7844edeb7c41fd1924321",
        "3b69a1b51b57280b36d3fbf7e2cac658cb7f77b025561dd6068359685e7c7a37"),
    "Q(3,2) x P(4)": (
        "618fa81938bec152fc0db7fd03ba5a47cf592972eeed64462efda81d3e2f8d71",
        "b9cfd26ba00424fde28e57a3b8147077f456e34c2b7b3d2c340a20ebbc48e288",
        "bdeeb2e641dacfcfbcc45f3c5fdfcb8de5bbfbf7a65be3f14a042a5de3a4651a"),
    "Q(1,2) x C(4) x C(4) x C(4) x C(4)": (
        "87fdd5e19bb844bc9dccf4b6671bfcfdb1a04cf33e3a51b23ab4de40936bb98a",
        "66b4b30ffc24049bd13dfae382cef147fd69ae3a18e464992b83e36d3ffa7425",
        "9ac38f3c17717fd62c70b5c57921c533bf9227ecf4f539c379f8eaa12253bd3a"),
}

# sha256 of criterion_01.json .. criterion_09.json from
# `selftest --seed 0 --out DIR`; criterion 6 records 4897 rejected
# proposals, so the handle preconditions refuse the same draws, and
# criterion 7 each exhaustive search's explored count, the position of
# the first system that meets the Euler lower bound.
SELFTEST_DIGESTS = (
    "fe6a8f4375dcda0557a544fcd843d546e66dab1cdbc97a82e8e8fdbf209f0051",
    "df6736b3dd3be20366f089596d07a4d7d4af6e4794a82a4d09f38dd0f33792e3",
    "48e91c560d2d270ba1bd27f731a4b2e1c22a2c68ca302b9672344bb01a1ed694",
    "95c4a4e63c146393abfec4f92e50250d08042123a2ee5160556181fd14b6f469",
    "f385657aaef7acb515a71ac785c6fbd8bc64a24281c154ecd33d30e8bfe598b0",
    "2ab52f30b5f9df28adf44d0bab77b16dd097b13124099c32dd7e5b224650d979",
    "e1460ee3df2cd43d62b1d9a14ba61dcd43a345a5d7b40b260d48181c05804e76",
    "940827be98c67b2306ff90519cfba9071c2938b676a37bcc5aaa22c5966fc79a",
    "535c666f3003400f8dd3315b65d88bdcc3bce8cc397e2beca524f714905fbcec",
)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("expr", sorted(EMBED_DIGESTS))
def test_embed_artifacts_match_pinned_digests(capsys, tmp_path, expr):
    code, _, _ = run(capsys, "embed", expr, "--out", str(tmp_path))
    assert code == 0
    assert tuple(_sha256(tmp_path / name) for name in (
        "embedding.json", "certificate.json", "handles.json")) == \
        EMBED_DIGESTS[expr]


@pytest.mark.parametrize("expr", sorted(EMBED_DIGESTS))
def test_build_graph_is_the_embedded_graph(capsys, tmp_path, expr):
    # one product numbering: build and embed give the same graph, labels
    # included, in process and in their artifacts, where the embedding's
    # edges are read off its sorted rotation rows
    assert graphs.build_family(expr) == \
        constructions.embed_family(expr)[0].embedding.graph
    for command in ("build", "embed"):
        code, _, _ = run(capsys, command, expr, "--out",
                         str(tmp_path / command))
        assert code == 0
    built = json.loads((tmp_path / "build" / "graph.json").read_text())
    embedded = json.loads((tmp_path / "embed" / "embedding.json").read_text())
    assert sorted(embedded["graph"]) == ["labels", "n"]
    assert built["edges"] == [[u, v] for u, row in enumerate(
        embedded["rotation"]) for v in sorted(row) if u < v]
    assert (built["n"], built["labels"]) == (embedded["graph"]["n"],
                                             embedded["graph"]["labels"])


def test_selftest_artifacts_match_pinned_digests(capsys, tmp_path):
    code, _, _ = run(capsys, "selftest", "--seed", "0", "--out",
                     str(tmp_path))
    assert code == 0
    assert json.loads((tmp_path / "criterion_06.json").read_text())[
        "details"]["rejected_proposals"] == 4897
    assert tuple(_sha256(tmp_path / f"criterion_{k:02d}.json")
                 for k in range(1, 10)) == SELFTEST_DIGESTS


# criterion_06.json, criterion_07.json and criterion_08.json for two more
# seeds: the handle surgery, oracle and formula criteria draw everything
# from the seed, so their artifacts are pinned beyond seed 0
SEEDED_DIGESTS = {
    1: ("b88f8de0b64f77ef218127498ade9600d9db13c8ca53c6efaa8dee205a129b22",
        "9a096cec4d5cea3a48f6930522b19d9b889be910eec059633f8e83cb7b1af442",
        "35238f96fe44c2d7dc0ea73c42401ea4681708b9486a150cfc30ba2ffae27ac0"),
    7: ("345d62602f0ee8f1a98a2fb5b633ecc3af3198b969932bc82848eeba79170df6",
        "495c4f4792da9451e46d60477981c0ea3750baf2783656a8649d5ee948abe52a",
        "fc0a8df6933921823f287a17e25e36e148682dd65dd6e625b3bc411551ebb11a"),
}


@pytest.mark.parametrize("seed", sorted(SEEDED_DIGESTS))
def test_selftest_criteria_6_to_8_match_pinned_digests(capsys, tmp_path,
                                                       seed):
    code, _, _ = run(capsys, "selftest", "--seed", str(seed), "--out",
                     str(tmp_path))
    assert code == 0
    assert tuple(_sha256(tmp_path / f"criterion_{k:02d}.json")
                 for k in (6, 7, 8)) == SEEDED_DIGESTS[seed]


def test_embed_artifacts_are_byte_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        code, _, _ = run(capsys, "embed", "Q(2,4) x C(4)", "--out",
                         str(out_dir))
        assert code == 0
    for name in ("embedding.json", "certificate.json", "handles.json"):
        data = (a / name).read_bytes()
        assert data == (b / name).read_bytes()
        assert data == embeddings.canonical_json_bytes(json.loads(data))


def test_indented_artifacts_still_verify(capsys, tmp_path):
    out_dir = tmp_path / "e"
    run(capsys, "embed", "K(4,4) x C(4)", "--out", str(out_dir))
    for name in ("embedding.json", "certificate.json", "handles.json"):
        path = out_dir / name
        path.write_text(json.dumps(json.loads(path.read_text()),
                                   sort_keys=True, indent=2) + "\n")
    code, out, _ = run(capsys, "verify", str(out_dir))
    assert code == 0 and "certificate-match" in out


@pytest.mark.parametrize("rotation", [[[]], [[], []]],
                         ids=["one-vertex", "two-vertices"])
def test_verify_edgeless_graph_has_genus_zero(capsys, tmp_path, rotation):
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"graph": {"n": len(rotation)},
                                "rotation": rotation}))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "genus=0" in out


@pytest.mark.parametrize("field, value", [
    ("construction_tag", [1, 2]), ("genus", "zero"), ("n", True),
    ("lower_bound", 1.0), ("minimal", 1), ("quadrilateral", None)])
def test_verify_refuses_mistyped_certificate_field(capsys, tmp_path, field,
                                                   value):
    out_dir = tmp_path / "e"
    run(capsys, "embed", "K(2,2)", "--out", str(out_dir))
    path = out_dir / "certificate.json"
    cert = json.loads(path.read_text())
    cert[field] = value
    path.write_text(json.dumps(cert))
    code, _, err = run(capsys, "verify", str(out_dir))
    assert code == 3 and repr(field) in err


def test_verify_refuses_a_missing_named_certificate(capsys, tmp_path):
    # only the default DIR/certificate.json may be absent; a certificate
    # named on the command line must exist, for a directory and a file
    out_dir = tmp_path / "e"
    run(capsys, "embed", "K(2,2) x C(4)", "--out", str(out_dir))
    missing = str(tmp_path / "missing.json")
    for path in (out_dir, out_dir / "embedding.json"):
        code, out, err = run(capsys, "verify", str(path),
                             "--certificate", missing)
        assert (code, out) == (3, ""), path
        assert "no such file" in err
    (out_dir / "certificate.json").unlink()
    code, out, _ = run(capsys, "verify", str(out_dir))
    assert code == 0 and "ok:" in out and "certificate-match" not in out


@pytest.mark.parametrize("argv", [("build", "K(2,2)"), ("embed", "K(2,2)"),
                                  ("oracle", "GRAPH"), ("selftest",)])
def test_out_path_that_is_a_file_exits_3(capsys, tmp_path, argv):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    taken = tmp_path / "taken"
    taken.write_text("x")
    argv = [str(graph) if a == "GRAPH" else a for a in argv]
    for out in (taken, taken / "sub"):
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (3, ""), (argv, out)  # refused before work
        assert "not a directory" in err
    assert taken.read_text() == "x"


def test_verify_standalone_embedding_file(capsys, tmp_path):
    # hand-written square on the sphere
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({
        "graph": {"n": 4}, "rotation": [[1, 3], [0, 2], [1, 3], [0, 2]]}))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "genus=0" in out


def test_verify_rejects_broken_rotation(capsys, tmp_path):
    # row 0 repeats 1 and leaves out 3, which row 3 names
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "graph": {"n": 4}, "rotation": [[1, 1], [0, 2], [1, 3], [0, 2]]}))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3 and "Traceback" not in err


def _tampered_k22_embedding(capsys, tmp_path, tamper):
    out_dir = tmp_path / "e"
    run(capsys, "embed", "K(2,2)", "--out", str(out_dir))
    path = out_dir / "embedding.json"
    data = json.loads(path.read_text())
    tamper(data)
    path.write_text(json.dumps(data))
    return path


def test_verify_rejects_non_list_rotation_row(capsys, tmp_path):
    path = _tampered_k22_embedding(
        capsys, tmp_path, lambda d: d["rotation"].__setitem__(0, 1))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3 and "'rotation'" in err


def test_verify_rejects_non_list_label(capsys, tmp_path):
    path = _tampered_k22_embedding(
        capsys, tmp_path, lambda d: d["graph"]["labels"].__setitem__(0, 1))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3 and "'labels'" in err


@pytest.mark.parametrize("entry", [[True, 1], [1.5, 2]],
                         ids=["bool", "float"])
def test_verify_rejects_non_integer_edge_entry(capsys, tmp_path, entry):
    # a rotation row lists the edges at its vertex
    path = _tampered_k22_embedding(
        capsys, tmp_path, lambda d: d["rotation"].__setitem__(0, entry))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3 and "'rotation'" in err


def test_verify_rejects_boolean_in_rotation_row(capsys, tmp_path):
    path = _tampered_k22_embedding(
        capsys, tmp_path, lambda d: d["rotation"][0].__setitem__(0, True))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3 and "'rotation'" in err


def square_file():
    """The 4-cycle on the sphere, as embedding.json stores it."""
    return {"graph": {"n": 4, "labels": [[0], [1], [2], [3]]},
            "rotation": [[1, 3], [0, 2], [1, 3], [0, 2]]}


def _set(*path_and_value):
    *path, key, value = path_and_value

    def tamper(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return tamper


@pytest.mark.parametrize("tamper, reason", [
    pytest.param(_set("rotation", 0, 0, 1.5), "'rotation'", id="float"),
    pytest.param(_set("rotation", 0, 0, True), "'rotation'", id="bool"),
    pytest.param(_set("rotation", 0, 5), "'rotation'", id="row-not-a-list"),
    pytest.param(_set("rotation", "rows"), "'rotation'", id="not-a-list"),
    pytest.param(_set("graph", "n", 4.0), "'n' must be an integer",
                 id="n-float"),
    pytest.param(_set("graph", "n", True), "'n' must be an integer",
                 id="n-bool"),
    pytest.param(lambda d: d["graph"].pop("n"), "'n' must be an integer",
                 id="n-missing"),
    pytest.param(lambda d: d["rotation"].append([]), "has 5 rows",
                 id="row-count"),
    pytest.param(_set("rotation", 0, [1, 3, 4]), "out of range",
                 id="out-of-range"),
    pytest.param(_set("rotation", 0, [-1, 1, 3]), "out of range",
                 id="negative"),
    pytest.param(_set("rotation", 0, [1, 0, 3]), "a loop", id="loop"),
    pytest.param(_set("rotation", [[1, 3, 1], [0, 2, 0], [1, 3], [0, 2]]),
                 "a repeat", id="repeat"),
    pytest.param(_set("rotation", 0, [1, 2, 3]),
                 "row 0 names 2, but the rows naming 2 are not row 2's",
                 id="one-sided"),
    pytest.param(_set("rotation", 2, [1, 3, 0]),
                 "row 1 names 2, but the rows naming 2 are not row 2's",
                 id="one-sided-later-row"),
    pytest.param(_set("graph", "labels", 0, 1), "'labels'", id="label"),
    pytest.param(_set("graph", "labels", 0, [True]), "'labels'",
                 id="label-bool"),
    pytest.param(lambda d: d["graph"]["labels"].pop(), "'labels'",
                 id="label-count"),
    pytest.param(_set("graph", "edges", [[0, 1], [1, 2], [2, 3], [0, 3]]),
                 "older format's 'edges' is refused", id="edge-list"),
    pytest.param(_set("graph", [4]), "needs 'graph'", id="graph-not-a-dict"),
    pytest.param(_set("graph", "n", 2 ** 23 + 1), "refused", id="over-cap"),
])
def test_verify_refuses_a_malformed_embedding_file(capsys, tmp_path, tamper,
                                                   reason):
    path = tmp_path / "embedding.json"
    path.write_text(json.dumps(square_file()))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "genus=0" in out
    doc = square_file()
    tamper(doc)
    path.write_text(json.dumps(doc))
    for command in ("verify", "faces"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (3, ""), command
        assert reason in err and "Traceback" not in err


def test_oracle_rejects_boolean_vertex_count(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n": True, "edges": []}))
    code, _, err = run(capsys, "oracle", str(path))
    assert code == 3 and "'n' must be an integer" in err


def graph_file(tmp_path, command, graph):
    """A graph as the command reads it: a graph file for oracle, an
    embedding file for verify and faces, whose rotation rows list each
    vertex's neighbours.  A vertex count past the cap gets no rows: the
    cap refuses it before the rows are counted."""
    path = tmp_path / "input.json"
    doc = graph
    if command != "oracle":
        n = graph["n"]
        rows = [[] for _ in range(n if n <= graphs.MAX_DARTS else 0)]
        for u, v in graph["edges"]:
            rows[u].append(v)
            rows[v].append(u)
        doc = {"graph": {"n": n}, "rotation": rows}
    path.write_text(json.dumps(doc))
    return str(path)


def fake_from_edges(monkeypatch):
    """Replace the graph builders the JSON loaders call, from_edges for a
    graph file and from_rows for an embedding file; the record lists the
    vertex count of each call that got past the size guard."""
    calls = []

    def fake(n, edges, labels=None):
        calls.append(n)
        raise InvalidParameterError("faked builder")

    monkeypatch.setattr(graphs, "from_edges", fake)
    monkeypatch.setattr(embeddings, "from_rows", fake)
    return calls


@pytest.mark.parametrize("command", ["oracle", "verify", "faces"])
@pytest.mark.parametrize("cap, graph", [
    pytest.param(None, {"n": 10_000_000_000, "edges": []}, id="n"),
    # one vertex past 64 // 2 + 1, the vertex term at a cap of 64 darts
    pytest.param(64, {"n": 34, "edges": []}, id="vertices"),
    pytest.param(8, {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3],
                                       [0, 2]]}, id="edges"),
])
def test_over_cap_graph_file_is_refused_before_building(
        capsys, tmp_path, monkeypatch, command, cap, graph):
    if cap is not None:
        monkeypatch.setattr(graphs, "MAX_DARTS", cap)
    built = fake_from_edges(monkeypatch)
    code, out, err = run(capsys, command, graph_file(tmp_path, command,
                                                     graph))
    assert code == 3 and out == "" and built == []
    assert "refused" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["oracle", "verify", "faces"])
@pytest.mark.parametrize("cap, graph", [
    # n at the vertex term of a lowered cap, 64 // 2 + 1: an embedding
    # file at the real cap would hold 2^22 + 1 empty rows
    pytest.param(64, {"n": 33, "edges": []}, id="n"),
    pytest.param(8, {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
                 id="edges"),
])
def test_graph_file_at_the_cap_passes_the_guard(capsys, tmp_path, monkeypatch,
                                                command, cap, graph):
    if cap is not None:
        monkeypatch.setattr(graphs, "MAX_DARTS", cap)
    built = fake_from_edges(monkeypatch)
    code, _, err = run(capsys, command, graph_file(tmp_path, command, graph))
    assert code == 3 and "faked builder" in err
    assert built == [graph["n"]]


@pytest.mark.parametrize("command", ["oracle", "verify", "faces"])
@pytest.mark.parametrize("content, want", [
    pytest.param(b"\xff\xfe garbage", 2, id="not-utf8"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, 2, id="deep"),
    pytest.param(b'{"n": 1' + b"0" * 5000 + b', "edges": []}', 3,
                 id="past-digit-limit"),
])
def test_unreadable_json_file_is_refused(capsys, tmp_path, command, content,
                                         want):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, command, str(path))
    assert code == want and out == "" and "Traceback" not in err


@pytest.mark.parametrize("command", ["oracle", "verify", "faces"])
@pytest.mark.parametrize("extra", [1, 0], ids=["past-cap", "at-cap"])
def test_file_past_the_byte_cap_is_refused_before_reading(
        capsys, tmp_path, monkeypatch, command, extra):
    # a sparse file (truncate) of the cap's size, or one byte more, takes
    # no room on disk, and json.load is replaced so that a file that gets
    # past the guard is not parsed either: it exits 2 as unreadable JSON
    parsed = []

    def load(fh):
        parsed.append(fh.name)
        raise json.JSONDecodeError("faked parser", "", 0)

    monkeypatch.setattr(json, "load", load)
    path = tmp_path / "input.json"
    with open(path, "wb") as fh:
        fh.truncate(cli.MAX_FILE_BYTES + extra)
    assert cli.MAX_FILE_BYTES == 32 * graphs.MAX_DARTS == 256 << 20
    code, out, err = run(capsys, command, str(path))
    assert out == "" and "Traceback" not in err
    if extra:
        assert (code, parsed) == (3, [])
        assert "refused before it is read" in err
    else:
        assert (code, parsed) == (2, [str(path)])


def test_faces_summary_and_json(capsys, tmp_path):
    out_dir = tmp_path / "e"
    run(capsys, "embed", "K(4,4)", "--out", str(out_dir))
    code, out, _ = run(capsys, "faces", str(out_dir / "embedding.json"))
    assert code == 0 and "8 faces" in out and "4-gon" in out
    code, out, _ = run(capsys, "faces", str(out_dir / "embedding.json"),
                       "--json")
    payload = json.loads(out)
    assert payload["count"] == 8 and payload["lengths"] == {"4": 8}


def test_faces_refuses_the_empty_graph_as_verify_does(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"graph": {"n": 0}, "rotation": []}')
    for command in ("faces", "verify"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (3, ""), command
        assert "empty graph" in err and "Traceback" not in err


def test_faces_counts_an_isolated_vertex_as_one_face(capsys, tmp_path):
    # as the certificate does: a lone vertex lies on one face, the sphere
    path = tmp_path / "lone.json"
    path.write_text('{"graph": {"n": 1}, "rotation": [[]]}')
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and " f=1 " in out
    assert run(capsys, "faces", str(path)) == (0, "1 faces: 1x0-gon\n", "")
    code, out, _ = run(capsys, "faces", str(path), "--json")
    assert json.loads(out) == {"count": 1, "lengths": {"0": 1},
                               "faces": [[]]}
    # beside a 4-cycle, which the plane splits into two faces
    path.write_text('{"graph": {"n": 5}, "rotation": '
                    '[[1, 3], [0, 2], [1, 3], [0, 2], []]}')
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "total genus=0" in out
    code, out, _ = run(capsys, "faces", str(path), "--json")
    payload = json.loads(out)
    assert payload["count"] == 3 and payload["lengths"] == {"0": 1, "4": 2}
    assert payload["faces"][2] == []


def test_genus_command(capsys):
    code, out, _ = run(capsys, "genus", "--formula", "main_cycles",
                       "--params", '{"i": 1, "r": 2, "m_list": [2, 2]}')
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 65


def test_genus_unknown_formula(capsys):
    code, _, err = run(capsys, "genus", "--formula", "nope", "--params",
                       "{}")
    assert code == 3 and "unknown formula" in err


def test_genus_bad_params_json(capsys):
    code, _, _ = run(capsys, "genus", "--formula", "ringel", "--params",
                     "{r: 2}")
    assert code == 2


def test_genus_wrong_arity(capsys):
    code, _, _ = run(capsys, "genus", "--formula", "ringel", "--params",
                     '{"z": 2}')
    assert code == 3


@pytest.mark.parametrize("formula,params", [
    ("hypercube", '{"n":1000000}'),
    ("cube", '{"j":100000,"t":2}'),
])
def test_genus_past_digit_limit_is_refused(capsys, formula, params):
    # the genus has more decimal digits than int -> str allows
    code, out, err = run(capsys, "genus", "--formula", formula, "--params",
                         params)
    assert code == 3 and out == "" and "too large" in err


@pytest.mark.parametrize("formula,params", [
    ("hypercube", '{"n": 20000}'),
    ("ringel", '{"r": 1' + "0" * 4000 + "}"),
])
def test_genus_past_digit_limit_within_the_power_budget(capsys, formula,
                                                        params):
    # every power is within MAX_POWER_BITS, so the genus is computed and
    # the print limit refuses it
    code, out, err = run(capsys, "genus", "--formula", formula, "--params",
                         params)
    assert code == 3 and out == "" and "too large to print" in err


@pytest.mark.parametrize("formula,params", [
    ("hypercube", {"n": 10**11}),
    ("cube", {"j": 10**11, "t": 2}),
    ("cube", {"j": 10**11, "t": 1}),
    ("cube_cycle", {"i": 10**11, "r": 1, "s": 2}),
    ("cube_path", {"i": 10**11, "r": 1, "s": 1}),
    ("main_cycles", {"i": 10**11, "r": 1, "m_list": [2]}),
    ("main_paths", {"i": 10**11, "r": 1, "m_list": [1]}),
])
def test_genus_huge_exponent_is_refused_before_the_power(capsys, formula,
                                                         params):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "genus", "--formula", formula, "--params",
                         json.dumps(params))
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == "" and "bits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("formula,params", [
    ("ringel", {"r": 10**11}),
    ("corollary", {"r": 1, "m_list": [2] * 12}),
    ("white_cycle", {"m_list": [2] * 12}),
])
def test_genus_power_budget_bounds_every_formula(capsys, monkeypatch,
                                                 formula, params):
    # these exponents are 2 or a list length, far from any real budget,
    # so a small budget shows the same guard covers them
    monkeypatch.setattr(formulas, "MAX_POWER_BITS", 8)
    code, out, err = run(capsys, "genus", "--formula", formula, "--params",
                         json.dumps(params))
    assert code == 3 and out == "" and "bits" in err


@pytest.mark.parametrize("params", ['{"r": 2.5}', '{"r": NaN}',
                                    '{"r": Infinity}', '{"r": true}',
                                    '{"r": [2, "x"]}'])
def test_genus_refuses_non_integer_parameters(capsys, params):
    code, out, err = run(capsys, "genus", "--formula", "ringel", "--params",
                         params)
    assert code == 3 and out == "" and "integer" in err


def test_genus_params_past_digit_limit_is_refused(capsys):
    code, _, err = run(capsys, "genus", "--formula", "hypercube", "--params",
                       '{"n": 1' + "0" * 5000 + "}")
    assert code == 3 and "--params" in err


def test_oracle_exhaustive_and_artifacts(capsys, tmp_path):
    gdir = tmp_path / "g"
    run(capsys, "build", "K(3,3)", "--out", str(gdir))
    odir = tmp_path / "o"
    code, out, _ = run(capsys, "oracle", str(gdir / "graph.json"),
                       "--out", str(odir))
    assert code == 0 and "best_genus=1" in out and "exhaustive" in out
    payload = json.loads((odir / "oracle.json").read_text())
    assert payload["best_genus"] == 1 and payload["exhaustive"]
    assert (odir / "witness.json").exists()
    code, out, _ = run(capsys, "verify", str(odir / "witness.json"))
    assert code == 0 and "genus=1" in out


def test_oracle_budget_fallback_is_stochastic(capsys, tmp_path):
    gdir = tmp_path / "g"
    run(capsys, "build", "K(4,4)", "--out", str(gdir))
    # the cap is far below the 839808-system rotation space, forcing the
    # stochastic fallback, yet roomy enough to reach the torus witness
    code, out, _ = run(capsys, "oracle", str(gdir / "graph.json"),
                       "--budget", "20000", "--target", "1", "--seed", "3")
    assert code == 0 and "stochastic" in out and "best_genus=1" in out


@pytest.mark.parametrize("flag, value, field", [
    pytest.param("--budget", "0", "max_rotation_systems", id="0"),
    pytest.param("--budget", "-5", "max_rotation_systems", id="-5"),
    pytest.param("--target", "-1", "target_genus", id="target-1"),
])
def test_oracle_refuses_non_positive_budget(capsys, tmp_path, flag, value,
                                            field):
    gdir = tmp_path / "g"
    run(capsys, "build", "K(3,3)", "--out", str(gdir))
    code, _, err = run(capsys, "oracle", str(gdir / "graph.json"),
                       flag, value)
    assert code == 3 and field in err
    assert "Traceback" not in err


def test_oracle_budget_of_one_scores_one_system(capsys, tmp_path):
    gdir = tmp_path / "g"
    run(capsys, "build", "K(3,3)", "--out", str(gdir))
    code, out, _ = run(capsys, "oracle", str(gdir / "graph.json"),
                       "--budget", "1", "--json")
    assert code == 0
    summary = json.loads(out)
    assert summary["explored"] == 1 and not summary["exhaustive"]


def test_oracle_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, "oracle", str(tmp_path / "absent.json"))
    assert code == 3


def test_faces_rejects_directory_path(capsys, tmp_path):
    # the faces command wants the embedding file itself, not the output
    # directory that holds it
    code, _, err = run(capsys, "faces", str(tmp_path))
    assert code == 3 and "cannot read" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
