"""Tests of the benchmark itself: run with `python3 -m pytest bench -q` from the root.

They check that the generators are deterministic per seed, that every
independent check rejects a deliberately wrong answer, that the truths agree
with hand-computed cases, that the traced run restores every binding, and
that calibration scales as documented.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import gen  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from artinkit import cli, dihedral, dualtree, words  # noqa: E402


@pytest.mark.parametrize("make", [gen.nf_cycle, gen.dt_cycle, gen.disc_cycle, gen.graph_cycle])
def test_generators_are_deterministic_per_seed(make):
    assert make(7, 3) == make(7, 3)
    assert make(7, 3) != make(8, 3)
    assert make(7, 3) != make(7, 4)


def test_cycles_keep_their_strata_across_seeds():
    shape = lambda cases: [(c.m, c.letters, c.p_inverse) for c in cases]  # noqa: E731
    assert shape(gen.nf_cycle(1, 0)) == shape(gen.nf_cycle(2, 5))
    sizes = lambda plans: [(p.shape, p.polygons) for p in plans]  # noqa: E731
    assert sizes(gen.disc_cycle(1, 0)) == sizes(gen.disc_cycle(2, 5))
    families = lambda gs: [g.family for g in gs]  # noqa: E731
    assert families(gen.graph_cycle(1, 0)) == families(gen.graph_cycle(2, 2))


def test_nf_pairs_are_equal_or_not_by_construction():
    for case in gen.nf_cycle(3, 0):
        keys = [gen.quotient_key(case.m, words.parse_word(w).letters) for w in (case.w1, case.w2)]
        assert (keys[0] == keys[1]) == case.equal


def test_quotient_key_agrees_with_the_library_oracle():
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randint(3, 9)
        a = gen.random_word(rng, rng.randint(0, 12), 0.5)
        b = gen.free_reduce(a + gen.relator(m)) if rng.random() < 0.5 else gen.random_word(rng, 6, 0.5)
        ours = gen.quotient_key(m, a) == gen.quotient_key(m, b)
        assert ours == dihedral.oracle_equal(m, words.Word(a), words.Word(b))


def test_ball_size_closed_form():
    assert [gen.ball_size(3, r) for r in (1, 2, 3)] == [4, 10, 22]
    assert gen.ball_size(9, 3) == 658


def test_bitmask_truths_on_small_graphs():
    c4c4 = gen._graph("glued", 6, [(0, 1, 7), (1, 2, 7), (2, 3, 7), (3, 0, 7),
                                  (0, 4, 7), (4, 5, 7), (5, 1, 7)])
    truth = gen.graph_truth(c4c4)
    assert truth.cut_vertices == ()
    assert truth.separating_edges == (("v0", "v1"),)
    assert truth.chunks == (("v0", "v1", "v2", "v3"), ("v0", "v1", "v4", "v5"))
    assert truth.automorphisms == 4
    pendant = gen._graph("cut-vertex", 4, [(0, 1, 7), (1, 2, 7), (2, 0, 7), (2, 3, 7)])
    assert gen.graph_truth(pendant).cut_vertices == ("v2",)
    assert gen.automorphism_count(gen.complete(5, 7)) == 120
    cycle = gen._graph("random", 5, [(i, (i + 1) % 5, 6) for i in range(5)])
    assert gen.automorphism_count(cycle) == 10


# ---------------------------------------------------------------------------
# Every check accepts the library's answer and rejects a wrong one.

def test_check_equal_rejects_wrong_verdicts():
    equal = next(c for c in gen.nf_cycle(1, 0) if c.equal and c.letters == 200)
    unequal = next(c for c in gen.nf_cycle(1, 0) if not c.equal and c.letters == 200)
    for case in (equal, unequal):
        out = cli.run(["equal", "-m", str(case.m), case.w1, case.w2])
        assert wl.check_equal(case, out) is None
        flipped = "NOT-EQUAL" if case.equal else "EQUAL"
        assert wl.check_equal(case, (0, f"result: {flipped}\n"))
        assert wl.check_equal(case, (1, ""))
    # a construction the oracle contradicts is caught as well
    lie = dataclasses.replace(equal, w2=equal.w2 + " s")
    assert wl.check_equal(lie, (0, "result: EQUAL\n"))


def test_check_ball_rejects_wrong_sizes():
    case = gen.BallCase(4, 2)
    out = cli.run(["tree", "-m", "4", "-r", "2"])
    assert wl.check_ball(case, out) is None
    text = out[1]
    assert wl.check_ball(case, (0, text.replace("simplices: 17", "simplices: 16")))
    assert wl.check_ball(case, (0, text.replace("edges: 16", "edges: 17")))


def test_check_pair_rejects_wrong_kinds_and_witnesses():
    rng = random.Random(2)
    cyclic = gen.axis_pair(rng, 5, "cyclic", 3)
    shared = gen.axis_pair(rng, 5, "shared", 3)
    for case in (cyclic, shared):
        out = cli.run(["classify-pair", "-m", "5", case.x.text(), case.y.text()])
        assert wl.check_pair(case, out) is None
    assert wl.check_pair(cyclic, (0, "classification: free\n"))
    assert wl.check_pair(shared, (0, "classification: free\n"))
    assert wl.check_pair(shared, (0, "classification: cyclic\n"))
    assert wl.check_pair(shared, (0, "classification: full_dihedral\nwitness: s t s\n"))


def test_check_disc_rejects_wrong_audits():
    for plan in gen.disc_cycle(4, 0)[:6]:
        out = wl.build_and_audit(plan)
        assert wl.check_disc(plan, out) is None
        rep = out.report
        kappa = dict(rep.polygon_kappa, P0=rep.polygon_kappa["P0"] - 4)
        wrong = [
            dataclasses.replace(out, report=dataclasses.replace(rep, total=10)),
            dataclasses.replace(out, report=dataclasses.replace(rep, polygon_kappa=kappa)),
        ]
        if out.corner:
            classes = dict(rep.transition_class, **{out.corner: "violation(n=2)"})
            wrong.append(dataclasses.replace(
                out, report=dataclasses.replace(rep, transition_class=classes)))
            red = dataclasses.replace(out.redistributed, total=16)
            wrong.append(dataclasses.replace(out, redistributed=red))
            wrong.append(dataclasses.replace(out, redistributed=None))
        for bad in wrong:
            assert wl.check_disc(plan, bad)


def _graph_out(tmp_path, case, command):
    path = tmp_path / "g.graph"
    path.write_text(case.text())
    return cli.run([command, str(path)])


def test_check_analyze_rejects_wrong_structure(tmp_path):
    glued = next(g for g in gen.graph_cycle(1, 0) if g.family == "glued")
    truth = gen.graph_truth(glued)
    assert truth.separating_edges
    code, text = _graph_out(tmp_path, glued, "analyze")
    assert wl.check_analyze(truth, (code, text)) is None
    vals = wl.report_values(text)
    wrong = [
        text.replace("cut-vertices: none", "cut-vertices: v0"),
        text.replace(f"separating edges: {vals['separating edges']}", "separating edges: none"),
        text.replace(f"chunks: {vals['chunks']}", f"chunks: {int(vals['chunks']) + 1}"),
        text.replace(f"chunk0: {vals['chunk0']}", "chunk0: v0,v1,v2"),
        text.replace(f"chunk tree nodes: {vals['chunk tree nodes']}", "chunk tree nodes: 1"),
    ]
    for bad in wrong:
        assert bad != text
        assert wl.check_analyze(truth, (0, bad))
    cut = next(g for g in gen.graph_cycle(1, 0) if g.family == "cut-vertex")
    cut_truth = gen.graph_truth(cut)
    code, text = _graph_out(tmp_path, cut, "analyze")
    assert wl.check_analyze(cut_truth, (code, text)) is None
    assert wl.check_analyze(cut_truth, (0, text.replace("cut-vertices:", "cut-vertices: v9")))


def test_check_aut_gens_rejects_wrong_counts(tmp_path):
    k5 = gen.complete(5, 6)
    truth = gen.graph_truth(k5)
    out = _graph_out(tmp_path, k5, "aut-gens")
    assert wl.check_aut_gens(k5, truth, out) is None
    assert wl.check_aut_gens(k5, truth, (0, "generators: 125\n"))
    assert wl.check_aut_gens(k5, truth, (1, ""))


# ---------------------------------------------------------------------------
# Tracing.

def _bindings():
    mods = [m for n, m in sorted(sys.modules.items()) if n == "artinkit" or n.startswith("artinkit.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("Word", k): v for k, v in vars(words.Word).items()})
    from artinkit.presentation import PresentationGraph
    snap.update({("PresentationGraph", k): v for k, v in vars(PresentationGraph).items()})
    return snap


def test_traced_run_wraps_every_binding_and_restores_them():
    before = _bindings()
    original = dihedral.garside_nf
    tr = tracing.Tracer()
    tr.install()
    try:
        for mod in (dihedral, dualtree, cli):
            assert mod.garside_nf is not original
            assert mod.garside_nf.__wrapped__ is original
        code, _ = cli.run(["tree", "-m", "3", "-r", "2"])
        assert code == 0
    finally:
        tr.restore()
    assert _bindings() == before
    assert tr.absent == []
    assert tr.calls("cli.run") == 1
    assert tr.calls("dualtree.tree_ball") == 1
    assert tr.calls("dihedral.garside_nf") == tr.calls("dualtree.coset_key") > 0
    # self times partition the traced wall time
    (run_span,) = [s for s in tr.spans if s[0] == "cli.run"]
    total_self = sum(stat[1] for stat in tr.stats.values())
    assert total_self == pytest.approx(run_span[2] - run_span[1], rel=1e-6)
    ball = next(s for s in tr.spans if s[0] == "dualtree.tree_ball")
    assert tr.spans[ball[3]][0] == "cli.run"


def test_absent_names_are_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("dihedral.gone", "dihedral", "gone"), ("words.Word.gone", "words", "Word.gone")))
    tr = tracing.Tracer()
    tr.install()
    tr.restore()
    assert tr.absent == ["dihedral.gone", "words.Word.gone"]
    assert tr.metrics(0, 0, 100)["dihedral.garside_nf.calls"] == 0


def test_metric_names_match_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["map"]
    per_layer = [m["name"] for m in spec["per_layer"]]
    produced = set(tracing.Tracer().metrics(1, 1, 1)) | {"trace.overhead_ratio"}
    assert set(per_layer) == produced == set(layers)
    names = {m["name"] for m in spec["end_to_end"]} | set(per_layer)
    for moves in layers.values():
        for move in moves:
            assert move["metric"] in names
            assert set(move["workloads"]) <= {w["name"] for w in spec["workloads"]}
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "nf-long", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibration_scales_to_the_reference_machine():
    assert calibrate.scale(0.5, calibrate.NOMINAL) == pytest.approx(0.5)
    assert calibrate.scale(0.5, calibrate.NOMINAL / 2, calibrate.NOMINAL / 2) == pytest.approx(1.0)
    assert gc.isenabled()
    assert calibrate.loop_seconds() > 0
    assert gc.isenabled()
