"""Batch command-line front end.

Every analysis is exposed as a subcommand with stable, line-oriented text
output: each line is either `key: value` or `CHECK name PASS|FAIL detail`.
The --json flag mirrors the same report as a structured document.  Exit
codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import automorphisms as am
from . import curvature as cv
from . import decomposition as dc
from . import dualtree as dt
from . import presentation as pg
from .dihedral import (
    alternating_equality,
    alternating_equality_closed_form,
    garside_nf,
    parse_dihedral_word,
    words_equal,
)
from .errors import ArtinKitError
from .words import Word, parse_word

SCHEMA = "artinkit-report/1"


class Report:
    def __init__(self, command: str):
        self.command = command
        self.items: list[tuple] = []

    def kv(self, key: str, value) -> None:
        self.items.append(("kv", key, value))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append(("check", name, ok, detail))

    def text(self) -> str:
        lines = []
        for item in self.items:
            if item[0] == "kv":
                lines.append(f"{item[1]}: {item[2]}")
            else:
                _, name, ok, detail = item
                lines.append(f"CHECK {name} {'PASS' if ok else 'FAIL'} {detail}".rstrip())
        return "\n".join(lines) + "\n"

    def json(self) -> str:
        doc = {
            "schema": SCHEMA,
            "command": self.command,
            "values": [[i[1], i[2]] for i in self.items if i[0] == "kv"],
            "checks": [
                {"name": i[1], "passed": i[2], "detail": i[3]}
                for i in self.items
                if i[0] == "check"
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> pg.PresentationGraph:
    return pg.parse_graph(_read(path))


def _edge_str(e) -> str:
    return f"({e[0]},{e[1]})"


def _cmd_analyze(args, rep: Report) -> None:
    g = _load_graph(args.graph)
    flags = pg.classify(g)
    rep.kv("vertices", " ".join(g.vertices))
    rep.kv("edges", " ".join(f"{u}-{v}:{m}" for u, v, m in g.edges()))
    for name in ("large", "xxxl", "hyperbolic_type", "free_of_infinity", "is_even_edge"):
        rep.kv(name, str(getattr(flags, name)).lower())
    rep.kv("rank", flags.rank)

    def section(key, fn):
        try:
            fn()
        except ArtinKitError as exc:
            rep.kv(key, f"error ({exc})")

    section("cut-vertices", lambda: rep.kv(
        "cut-vertices", " ".join(dc.cut_vertices(g)) or "none"))
    section("separating edges", lambda: rep.kv(
        "separating edges", " ".join(_edge_str(e) for e in dc.separating_edges(g)) or "none"))

    def do_chunks():
        t = dc.chunk_tree(g)
        rep.kv("chunks", len(t.chunk_nodes))
        for i, c in enumerate(t.chunk_nodes):
            rep.kv(f"chunk{i}", ",".join(c.vertices))
        rep.kv("chunk tree nodes", t.node_count())
        rep.kv("chunk tree incidences", len(t.incidence))
        rep.check("chunk_tree_is_tree", t.is_tree())
    section("chunks", do_chunks)

    def do_cycles():
        cg = dc.cycle_graph(g)
        rep.kv("induced cycles", len(cg.cycles))
        rep.kv("cycle graph components", max(len(cg.components), 0))
        rep.kv("cycle graph connected", str(cg.is_connected()).lower())
    section("induced cycles", do_cycles)

    out = am.decide_out_finite(g)
    rep.kv("out-finite", "finite" if out.value else "infinite")
    rep.kv("out-finite reason", out.reason)
    coh = am.decide_cohopfian(g)
    rep.kv("co-hopfian", "co-hopfian" if coh.value else "not co-hopfian")
    rep.kv("co-hopfian reason", coh.reason)
    rep.kv("hypothesis class", out.hypothesis_class)

    section("twist family", lambda: rep.kv("twist family", am.twist_family(g).size()))


def _cmd_nf(args, rep: Report) -> None:
    w = parse_dihedral_word(args.word)
    rep.kv("word", str(w) or "1")
    rep.kv("nf", str(garside_nf(args.m, w)))


def _cmd_equal(args, rep: Report) -> None:
    w1 = parse_dihedral_word(args.w1)
    w2 = parse_dihedral_word(args.w2)
    rep.kv("result", "EQUAL" if words_equal(args.m, w1, w2) else "NOT-EQUAL")


def _cmd_lemma_alt(args, rep: Report) -> None:
    got = alternating_equality(args.m, args.p, args.q, args.k)
    closed = alternating_equality_closed_form(args.m, args.p, args.q, args.k)
    rep.kv("word-level", "EQUAL" if got else "NOT-EQUAL")
    rep.kv("closed-form", "EQUAL" if closed else "NOT-EQUAL")
    rep.check("lemma_agreement", got == closed, f"word={got} closed={closed}")


def _cmd_tree(args, rep: Report) -> None:
    ball = dt.tree_ball(args.m, args.r)
    rep.kv("m", ball.m)
    rep.kv("radius", ball.radius)
    rep.kv("simplices", len(ball.vertices))
    rep.kv("edges", len(ball.edges))
    for i, node in enumerate(ball.vertices):
        nbrs = " ".join(map(str, ball.neighbors[i]))
        rep.kv(f"node{i}", f"[{node.tag}] depth={node.depth} -> {nbrs}")


def _parse_axis(text: str) -> dt.AxisDescription:
    parts = text.split("|")
    if len(parts) not in (2, 3):
        raise ArtinKitError(
            f"axis description {text!r} must be 'conj|base' or 'conj|base|sign'"
        )
    conj = Word() if parts[0].strip() in ("", "1") else parse_word(parts[0])
    sign = 1
    if len(parts) == 3 and parts[2].strip():
        if parts[2].strip() not in ("+1", "1", "-1"):
            raise ArtinKitError("axis sign must be +1 or -1")
        sign = -1 if parts[2].strip() == "-1" else 1
    return dt.AxisDescription(conj, parts[1].strip(), sign)


def _cmd_classify_pair(args, rep: Report) -> None:
    x = _parse_axis(args.x)
    y = _parse_axis(args.y)
    res = dt.classify_pair(args.m, x, y)
    rep.kv("classification", res.kind)
    rep.kv("common axis vertices", res.common_axis_vertices)
    if res.witness is not None:
        rep.kv("witness", str(res.witness) or "1")


def _cmd_curvature(args, rep: Report) -> None:
    d = cv.load_diagram(_read(args.diagram))
    rep.kv("units", "pi/6")
    report = cv.curvatures(d)
    rep.kv("polygons", len(report.polygon_kappa))
    rep.kv("vertices", len(report.vertex_kappa))
    for c, k in sorted(report.polygon_kappa.items()):
        rep.kv(f"kappa[{c}]", k)
    for v, k in sorted(report.vertex_kappa.items()):
        rep.kv(f"kappa[{v}]", k)
    for v, cls in sorted(report.transition_class.items()):
        rep.kv(f"transition[{v}]", f"{cls} n={report.n_polygons[v]}")
    if report.basepoint_class:
        rep.kv("basepoint", report.basepoint_class)
    for c in report.checks:
        rep.check(c.name, c.passed, c.detail)
    try:
        red = cv.redistribute(d)
    except ArtinKitError as exc:
        rep.kv("redistribution", f"not applicable ({exc})")
        return
    for cell in red.corner_cells:
        rep.kv(
            f"corner-cell[{cell.center}]",
            f"corners={','.join(cell.corners)} specials={','.join(cell.specials)}",
        )
    rep.kv("kappa2 total", red.total)
    for c in red.checks:
        if c not in report.checks:
            rep.check(c.name, c.passed, c.detail)
    rep.kv("flagged", str(red.flagged).lower())


def _cmd_twists(args, rep: Report) -> None:
    g = _load_graph(args.graph)
    fam = am.twist_family(g, sides=("all" if args.all_sides else "rooted"))
    rep.kv("twist family", fam.size())
    for i, member in enumerate(fam.graphs):
        rep.kv(f"member{i}", " ".join(f"{u}-{v}:{m}" for u, v, m in member.edges()))
        rep.kv(f"member{i}.hash", am.graph_hash(member))
    for k, te in enumerate(fam.twist_edges):
        rep.kv(
            f"twist{k}",
            f"{te.src}->{te.dst} edge={_edge_str(te.edge)} side={{{','.join(te.side)}}}",
        )


def _cmd_aut_gens(args, rep: Report) -> None:
    g = _load_graph(args.graph)
    gens = am.aut_generators(g, assume_cstp=args.assume_cstp)
    rep.kv("generators", len(gens))
    by_tag: dict[str, int] = {}
    for m in gens:
        by_tag[m.tag] = by_tag.get(m.tag, 0) + 1
    for tag in sorted(by_tag):
        rep.kv(f"count[{tag}]", by_tag[tag])
    for i, m in enumerate(gens):
        desc = "; ".join(f"{v}->{m.assignment[v]}" for v in m.source.vertices)
        rep.kv(f"gen{i}", f"{m.tag}{' ' + m.note if m.note else ''}: {desc}")


def _cmd_hom_shapes(args, rep: Report) -> None:
    g = _load_graph(args.source)
    h = _load_graph(args.target)
    shapes = am.hom_shapes(g, h)
    rep.kv("shapes", len(shapes))
    for i, s in enumerate(shapes):
        iota = " ".join(f"{u}->{v}" for u, v in s.iota)
        div = " ".join(f"m({u},{v})={ms}|{mt}" for (u, v), ms, mt in s.divisibility)
        rep.kv(f"shape{i}", f"{iota}" + (f" [{div}]" if div else ""))


def _cmd_embed(args, rep: Report) -> None:
    g = _load_graph(args.source)
    h = _load_graph(args.target)
    embeds = am.labelled_embeddings(g, h)
    rep.kv("embeddings", len(embeds))
    for i, e in enumerate(embeds):
        rep.kv(f"embedding{i}", " ".join(f"{v}->{e[v]}" for v in g.vertices))


def _cmd_self_embed(args, rep: Report) -> None:
    g = _load_graph(args.graph)
    mp = am.proper_self_embedding(g, args.vertex)
    rep.kv("cut-vertex", args.vertex)
    rep.kv("tag", mp.tag)
    for v in g.vertices:
        rep.kv(v, str(mp.assignment[v]))


# Built on the first `run`, not at import, and reused by every later call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="artinkit", description=__doc__)
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="full structural report for a graph file")
    sp.add_argument("graph")
    sp.set_defaults(fn=_cmd_analyze)

    sp = sub.add_parser("nf", help="canonical dihedral normal form of a word")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("word")
    sp.set_defaults(fn=_cmd_nf)

    sp = sub.add_parser("equal", help="word problem in the two-generator group")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("w1")
    sp.add_argument("w2")
    sp.set_defaults(fn=_cmd_equal)

    sp = sub.add_parser("lemma-alt", help="alternating-product equality test")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("k", type=int)
    sp.set_defaults(fn=_cmd_lemma_alt)

    sp = sub.add_parser("tree", help="ball of the dual tree")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("-r", type=int, required=True)
    sp.set_defaults(fn=_cmd_tree)

    sp = sub.add_parser("classify-pair", help="Z / F2 / full classification of two conjugates")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("x", help="axis description conj|base|sign, e.g. 's t|s|+1'")
    sp.add_argument("y")
    sp.set_defaults(fn=_cmd_classify_pair)

    sp = sub.add_parser("curvature", help="Gauss-Bonnet audit of a diagram file")
    sp.add_argument("diagram")
    sp.set_defaults(fn=_cmd_curvature)

    sp = sub.add_parser("twists", help="twist family of a graph")
    sp.add_argument("graph")
    sp.add_argument("--all-sides", action="store_true",
                    help="literal closure over all sides instead of the rooted one")
    sp.set_defaults(fn=_cmd_twists)

    sp = sub.add_parser("aut-gens", help="generating set of the automorphism group")
    sp.add_argument("graph")
    sp.add_argument("--assume-cstp", action="store_true",
                    help="assert the cycle-of-standard-trees property instead of XXXL")
    sp.set_defaults(fn=_cmd_aut_gens)

    sp = sub.add_parser("hom-shapes", help="shape data of homomorphisms between complete graphs")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.set_defaults(fn=_cmd_hom_shapes)

    sp = sub.add_parser("embed", help="label-preserving embeddings of one graph in another")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.set_defaults(fn=_cmd_embed)

    sp = sub.add_parser("self-embed", help="proper self-embedding at a cut-vertex")
    sp.add_argument("graph")
    sp.add_argument("vertex")
    sp.set_defaults(fn=_cmd_self_embed)
    return p


def run(argv: list[str]) -> tuple[int, str]:
    """Dispatch one invocation; returns (exit code, report text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (int(exc.code or 0), "")
    rep = Report(args.command)
    try:
        args.fn(args, rep)
    except (ArtinKitError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return (1, "")
    return (0, rep.json() if args.json else rep.text())


def main() -> int:
    code, text = run(sys.argv[1:])
    if text:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
