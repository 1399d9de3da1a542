import json

import pytest
from hypothesis import given, settings, strategies as st

from artinkit import PresentationGraph, decomposition, parse_graph
from artinkit.cli import run
from artinkit.dualtree import tree_ball
from conftest import FIXTURES

TRIFORCE = str(FIXTURES / "triforce.graph")
HEXSTAR = str(FIXTURES / "hexstar.diagram")


def test_analyze_triforce_contents():
    code, text = run(["analyze", TRIFORCE])
    assert code == 0
    assert "chunks: 4" in text
    assert "twist family: 8" in text
    assert "out-finite: infinite" in text
    assert "co-hopfian: co-hopfian" in text
    assert "separating edges: (a,b) (a,c) (b,c)" in text


def test_reports_are_byte_identical():
    a = run(["analyze", TRIFORCE])
    b = run(["analyze", TRIFORCE])
    assert a == b
    c = run(["--json", "analyze", TRIFORCE])
    d = run(["--json", "analyze", TRIFORCE])
    assert c == d


def test_reports_stable_across_hash_seeds():
    import os
    import subprocess
    import sys

    outs = []
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        res = subprocess.run(
            [sys.executable, "-m", "artinkit.cli", "analyze", TRIFORCE],
            capture_output=True, text=True, env=env, check=True,
        )
        res2 = subprocess.run(
            [sys.executable, "-m", "artinkit.cli", "aut-gens", TRIFORCE],
            capture_output=True, text=True, env=env, check=True,
        )
        outs.append(res.stdout + res2.stdout)
    assert outs[0] == outs[1]


def test_lines_machine_parseable():
    _, text = run(["analyze", TRIFORCE])
    for line in text.strip().splitlines():
        if line.startswith("CHECK "):
            parts = line.split()
            assert parts[2] in ("PASS", "FAIL")
        else:
            assert ": " in line


def test_equal_command():
    code, text = run(["equal", "-m", "3", "s t s", "t s t"])
    assert code == 0 and "result: EQUAL" in text
    code, text = run(["equal", "-m", "3", "s t", "t s"])
    assert code == 0 and "result: NOT-EQUAL" in text


def test_nf_command():
    code, text = run(["nf", "-m", "3", "s t s"])
    assert code == 0
    assert "nf: [] Δ^1" in text


def test_lemma_alt_command():
    code, text = run(["lemma-alt", "-m", "3", "1", "1", "6"])
    assert code == 0
    assert "CHECK lemma_agreement PASS" in text
    # s t^2 s t^2 = (s t)^3 is central at m=3: equal with exponents 1 and 2
    code, text = run(["lemma-alt", "-m", "3", "1", "2", "4"])
    assert code == 0
    assert "closed-form: EQUAL" in text
    assert "CHECK lemma_agreement PASS" in text


def test_curvature_command():
    code, text = run(["curvature", HEXSTAR])
    assert code == 0
    assert "CHECK gauss_bonnet PASS total=12" in text
    assert "units: pi/6" in text


def test_tree_and_classify_pair():
    code, text = run(["tree", "-m", "3", "-r", "2"])
    assert code == 0 and "simplices: 10" in text
    code, text = run(["classify-pair", "-m", "3", "s t|s", "s t|t"])
    assert code == 0 and "classification: full_dihedral" in text
    assert "witness: t^-1 s^-1" in text


def test_tree_neighbour_lines_match_edge_scan():
    for m, r in [(3, 4), (5, 2), (8, 1)]:
        code, text = run(["tree", "-m", str(m), "-r", str(r)])
        assert code == 0
        ball = tree_ball(m, r)
        want = []
        for i, node in enumerate(ball.vertices):
            nbrs = sorted(b if a == i else a for a, b in ball.edges if i in (a, b))
            want.append(f"node{i}: [{node.tag}] depth={node.depth} -> {' '.join(map(str, nbrs))}")
        assert [line for line in text.splitlines() if line.startswith("node")] == want


def test_tree_over_the_cap_is_domain_error(capsys):
    code, text = run(["tree", "-m", "40", "-r", "3"])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err.startswith("error: ball exceeds 20000 simplices")


def test_twists_aut_gens_hom_shapes_embed():
    code, text = run(["twists", TRIFORCE])
    assert code == 0 and "twist family: 8" in text
    code, text = run(["aut-gens", TRIFORCE])
    assert code == 0 and "generators: 11" in text
    code, text = run(["self-embed", TRIFORCE, "a"])
    assert code == 1  # not a cut-vertex: domain error


def test_hom_shapes_and_embed_commands(tmp_path):
    g1 = tmp_path / "g1.graph"
    g1.write_text("edge p q 6\nedge q r 6\nedge p r 6\n")
    g2 = tmp_path / "g2.graph"
    g2.write_text("edge x y 3\nedge y z 3\nedge x z 5\n")
    code, text = run(["hom-shapes", str(g1), str(g2)])
    assert code == 0 and text.startswith("shapes: ")
    code, text = run(["embed", str(g2), str(g2)])
    assert code == 0 and "embeddings: 2" in text  # swap of the two 3-edges
    # hypothesis violation is a domain error
    code, _ = run(["hom-shapes", TRIFORCE, str(g2)])
    assert code == 1


def test_json_mirror():
    code, text = run(["--json", "analyze", TRIFORCE])
    assert code == 0
    doc = json.loads(text)
    assert doc["schema"] == "artinkit-report/1"
    values = dict((k, v) for k, v in doc["values"])
    assert values["chunks"] == 4
    assert values["twist family"] == 8
    assert any(c["name"] == "chunk_tree_is_tree" and c["passed"] for c in doc["checks"])


def test_exit_codes():
    code, _ = run(["analyze", "/nonexistent/file.graph"])
    assert code == 1
    code, _ = run(["no-such-command"])
    assert code == 2
    code, _ = run(["analyze", TRIFORCE, "--bogus-flag"])
    assert code == 2
    code, _ = run(["equal", "-m", "3", "s t"])  # missing argument
    assert code == 2


def test_malformed_diagram_is_domain_error(tmp_path, capsys):
    bad = json.loads((FIXTURES / "hexstar.diagram").read_text())
    bad["types"] = [1, 2]
    path = tmp_path / "bad.diagram"
    path.write_text(json.dumps(bad))
    code, text = run(["curvature", str(path)])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err.startswith("error: bad diagram schema")


def test_non_string_vertex_name_is_domain_error(tmp_path, capsys):
    bad = json.loads((FIXTURES / "hexstar.diagram").read_text())
    bad["boundary"][0] = None
    path = tmp_path / "bad.diagram"
    path.write_text(json.dumps(bad))
    code, text = run(["curvature", str(path)])
    assert (code, text) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: bad diagram schema")
    assert "Traceback" not in err


def test_bad_word_is_domain_error():
    code, _ = run(["equal", "-m", "3", "s^2", "t"])
    assert code == 1
    code, _ = run(["nf", "-m", "3", "s r"])  # r is not a dihedral generator
    assert code == 1


@settings(max_examples=150, deadline=None)
@given(st.text())
def test_arbitrary_word_text_ends_in_a_verdict_or_a_domain_error(text):
    # "--" makes argparse hand the text to the word parser even when it starts with "-"
    for argv in (["equal", "-m", "3", "--", text, "s"], ["nf", "-m", "4", "--", text]):
        code, _ = run(argv)
        assert code in (0, 1)


def test_analyze_splits_the_graph_into_chunks_once(monkeypatch):
    induced = PresentationGraph.induced
    calls = []

    def counting(self, keep):
        calls.append(1)
        return induced(self, keep)

    monkeypatch.setattr(PresentationGraph, "induced", counting)
    decomposition.chunks(parse_graph((FIXTURES / "triforce.graph").read_text()))
    one_split = len(calls)
    assert one_split > 0
    calls.clear()
    assert run(["analyze", TRIFORCE])[0] == 0
    assert len(calls) == one_split
