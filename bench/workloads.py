"""The four workloads: ops that call the library, and checks against gen's truths.

An op is one closed-loop request: ``run`` makes the call that is timed,
``check`` compares its output with the truth fixed when the input was
generated and returns a reason on mismatch, and ``report`` renders the output
as the text whose digest shows that reports stay byte-identical.  Library
modules are reached through their module objects, so the traced run sees
every call at the binding it wraps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

import gen
from artinkit import cli
from artinkit import curvature as cv
from artinkit import dihedral
from artinkit import words


@dataclass
class Op:
    kind: str
    size: int
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    report: Callable[[Any], str] = lambda out: out[1]


def report_values(text: str) -> dict[str, str]:
    """`key: value` lines of a CLI report (first occurrence wins)."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def _cli(kind: str, size: int, argv: list[str], check) -> Op:
    return Op(kind, size, lambda: cli.run(argv), check)


def _exit_ok(out) -> str | None:
    code, _ = out
    return None if code == 0 else f"exit code {code}"


# ---------------------------------------------------------------------------
# nf-long

def check_equal(case: gen.NfCase, out) -> str | None:
    if reason := _exit_ok(out):
        return reason
    got = report_values(out[1]).get("result")
    if got != ("EQUAL" if case.equal else "NOT-EQUAL"):
        return f"verdict {got} but the pair was built {'equal' if case.equal else 'unequal'}"
    w1, w2 = words.parse_word(case.w1), words.parse_word(case.w2)
    if dihedral.oracle_equal(case.m, w1, w2) != case.equal:
        return "the centre-quotient oracle disagrees with the construction"
    return None


class NfLong:
    name = "nf-long"
    trace_cycles = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def cycle(self, c: int) -> list[Op]:
        return [
            _cli("equal", case.letters, ["equal", "-m", str(case.m), case.w1, case.w2],
                 lambda out, case=case: check_equal(case, out))
            for case in gen.nf_cycle(self.seed, c)
        ]


# ---------------------------------------------------------------------------
# dual-tree

def check_ball(case: gen.BallCase, out) -> str | None:
    if reason := _exit_ok(out):
        return reason
    vals = report_values(out[1])
    want = gen.ball_size(case.m, case.r)
    if vals.get("simplices") != str(want):
        return f"ball m={case.m} r={case.r}: {vals.get('simplices')} simplices, closed form {want}"
    if vals.get("edges") != str(want - 1):
        return f"ball m={case.m} r={case.r}: {vals.get('edges')} edges, a tree needs {want - 1}"
    return None


_STANDARD = [words.generator(n, e) for n in "st" for e in (1, -1)]


def check_pair(case: gen.PairCase, out) -> str | None:
    if reason := _exit_ok(out):
        return reason
    vals = report_values(out[1])
    kind = vals.get("classification")
    if (kind == "cyclic") != case.cyclic:
        return f"{kind} for a pair that is {'' if case.cyclic else 'not '}equal up to inversion"
    if case.kind == "shared" and kind != "full_dihedral":
        return f"{kind} for two bases on one conjugator"
    if kind == "full_dihedral":
        text = vals.get("witness", "")
        w = words.Word() if text == "1" else words.parse_word(text)
        for axis in (case.x, case.y):
            img = w * words.Word(axis.element()) * w.inverse()
            if not any(dihedral.oracle_equal(case.m, img, g) for g in _STANDARD):
                return f"witness {text!r} does not conjugate {axis.text()} to a generator"
    elif kind not in ("cyclic", "free"):
        return f"unknown classification {kind!r}"
    return None


class DualTree:
    name = "dual-tree"
    trace_cycles = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for case in gen.dt_cycle(self.seed, c):
            m = str(case.m)
            if isinstance(case, gen.BallCase):
                ops.append(_cli("tree", gen.ball_size(case.m, case.r),
                                ["tree", "-m", m, "-r", str(case.r)],
                                lambda out, case=case: check_ball(case, out)))
            else:
                ops.append(_cli("classify-pair", len(case.x.conj),
                                ["classify-pair", "-m", m, case.x.text(), case.y.text()],
                                lambda out, case=case: check_pair(case, out)))
        return ops


# ---------------------------------------------------------------------------
# disc-audit

@dataclass(frozen=True)
class DiscOutput:
    text: str
    report: Any
    redistributed: Any
    corner: str | None
    pivot: str | None


def build_and_audit(plan: gen.DiscPlan) -> DiscOutput:
    """Write path (glue the planned stars, mark, dump) then read path (load,
    curvatures, redistribution when the plan has a corner)."""
    d = cv.star_diagram(plan.ks[0])
    last = len(plan.ks) - (0 if plan.shape == "glue" else 1)
    pivot = None
    if plan.shape == "fan":
        pivot = next(v for v in d.boundary if d.types[v] == 2)
    for i in range(1, last):
        bnd = d.boundary
        j = bnd.index(pivot) if i < plan.fan else int(plan.picks[i] * len(bnd))
        d = cv.attach_star(d, bnd[j], bnd[(j + 1) % len(bnd)], plan.ks[i])
    corner = None
    if plan.shape != "glue":
        bnd, n = d.boundary, len(d.boundary)
        starts = [
            i for i in range(n)
            if d.types[bnd[(i + 1) % n]] == 1
            and pivot not in (bnd[i], bnd[(i + 1) % n], bnd[(i + 2) % n])
        ]
        i = starts[int(plan.picks[-2] * len(starts))]
        before = set(d.types)
        d = cv.attach_star_two(d, bnd[i], bnd[(i + 1) % n], bnd[(i + 2) % n], plan.ks[-1])
        fresh = sorted(x for x in set(d.types) - before if d.types[x] == 2)
        corner = fresh[int(plan.picks[-1] * len(fresh))]
        d = cv.with_markings(d, {corner} | ({pivot} if pivot else set()), None)
    text = cv.dump_diagram(d)
    loaded = cv.load_diagram(text)
    report = cv.curvatures(loaded)
    red = cv.redistribute(loaded) if corner else None
    return DiscOutput(text, report, red, corner, pivot)


def disc_report(out: DiscOutput) -> str:
    rep, red = out.report, out.redistributed
    lines = [out.text, f"total {rep.total}"]
    lines += [f"kappa[{c}] {k}" for c, k in sorted(rep.polygon_kappa.items())]
    lines += [f"kappa[{v}] {k}" for v, k in sorted(rep.vertex_kappa.items())]
    lines += [f"transition[{v}] {c}" for v, c in sorted(rep.transition_class.items())]
    lines += [f"CHECK {c.name} {c.passed} {c.detail}" for c in rep.checks]
    if red is not None:
        lines.append(f"kappa2 total {red.total} flagged {red.flagged}")
        lines += [f"CHECK {c.name} {c.passed} {c.detail}" for c in red.checks]
    return "\n".join(lines) + "\n"


def check_disc(plan: gen.DiscPlan, out: DiscOutput) -> str | None:
    rep, red = out.report, out.redistributed
    if rep.total != 12:
        return f"kappa total {rep.total}, Gauss-Bonnet needs 12"
    if rep.polygon_kappa != plan.kappa():
        return "polygon curvatures differ from 12 - 4k of the plan"
    want = {}
    if out.corner:
        want[out.corner] = "corner"
    if out.pivot:
        want[out.pivot] = "almost-corner"
    if rep.transition_class != want:
        return f"marked vertices classify as {rep.transition_class}, planned {want}"
    if (red is None) != (plan.shape == "glue"):
        return "redistribution ran on a plan without a corner, or not on one with"
    if red is not None and red.total != 12:
        return f"kappa' total {red.total}, conservation needs 12"
    return None


class DiscAudit:
    name = "disc-audit"
    trace_cycles = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def cycle(self, c: int) -> list[Op]:
        return [
            Op("disc", plan.polygons, lambda plan=plan: build_and_audit(plan),
               lambda out, plan=plan: check_disc(plan, out), disc_report)
            for plan in gen.disc_cycle(self.seed, c)
        ]


# ---------------------------------------------------------------------------
# graph-rigidity

def _names(value: str | None) -> tuple[str, ...]:
    return () if value in (None, "none") else tuple(value.split())


def check_analyze(truth: gen.GraphTruth, out) -> str | None:
    if reason := _exit_ok(out):
        return reason
    vals = report_values(out[1])
    if _names(vals.get("cut-vertices")) != truth.cut_vertices:
        return f"cut-vertices {vals.get('cut-vertices')!r}, oracle {truth.cut_vertices}"
    if truth.cut_vertices:
        if not vals.get("chunks", "").startswith("error"):
            return "chunks reported for a graph with a cut-vertex"
        return None
    seps = tuple(f"({a},{b})" for a, b in truth.separating_edges)
    if _names(vals.get("separating edges")) != seps:
        return f"separating edges {vals.get('separating edges')!r}, oracle {seps}"
    if vals.get("chunks") != str(len(truth.chunks)):
        return f"{vals.get('chunks')} chunks, oracle {len(truth.chunks)}"
    got = sorted(tuple(vals.get(f"chunk{i}", "").split(",")) for i in range(len(truth.chunks)))
    if got != list(truth.chunks):
        return f"chunks {got}, oracle {list(truth.chunks)}"
    if vals.get("chunk tree nodes") != str(len(truth.chunks) + len(seps)):
        return f"chunk tree has {vals.get('chunk tree nodes')} nodes, want chunks + separating edges"
    return None


def check_aut_gens(case: gen.GraphCase, truth: gen.GraphTruth, out) -> str | None:
    if reason := _exit_ok(out):
        return reason
    got = report_values(out[1]).get("generators", "")
    floor = len(case.vertices) + truth.automorphisms + 1
    if not got.isdigit():
        return f"generator count {got!r}"
    if truth.separating_edges and int(got) < floor:
        return f"{got} generators, fewer than |V| + |Aut| + 1 = {floor}"
    if not truth.separating_edges and int(got) != floor:
        return f"{got} generators, |V| + |Aut| + 1 = {floor}"
    return None


class GraphRigidity:
    """Graph files for `pool` cycles are written, with their truths, at set-up."""

    name = "graph-rigidity"
    trace_cycles = 1
    pool = 16

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.files: list[list[tuple[gen.GraphCase, gen.GraphTruth, str]]] = []
        os.makedirs(workdir, exist_ok=True)
        for c in range(self.pool):
            batch = []
            for i, case in enumerate(gen.graph_cycle(seed, c)):
                path = os.path.join(workdir, f"c{c}-g{i}-{case.family}.graph")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(case.text())
                batch.append((case, gen.graph_truth(case), path))
            self.files.append(batch)

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for case, truth, path in self.files[c % self.pool]:
            n = len(case.vertices)
            ops.append(_cli("analyze", n, ["analyze", path],
                            lambda out, t=truth: check_analyze(t, out)))
            if truth.aut_gens:
                ops.append(_cli("aut-gens", n, ["aut-gens", path],
                                lambda out, c=case, t=truth: check_aut_gens(c, t, out)))
        return ops


WORKLOADS = {w.name: w for w in (NfLong, DualTree, DiscAudit, GraphRigidity)}
