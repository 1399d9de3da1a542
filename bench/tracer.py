"""Traced run: wrap the library's public functions and measure each layer.

Every traced function is replaced at every module binding it has (so
``garside_nf`` is wrapped in ``dihedral``, ``dualtree`` and ``cli`` alike)
and methods are replaced on their class.  Each call pushes a frame; on exit
its self time is its duration minus the time of the traced calls nested in
it.  Calls are aggregated per name (count and self time); calls of names
outside HOT also become spans (name, start, end, parent span) kept in memory
and written out by ``write_spans``.  A name the library no longer has is
reported as absent.  ``restore`` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time

# (metric prefix, module, attribute path); "Word.__init__" counts Word objects.
TARGETS = (
    ("cli.run", "cli", "run"),
    ("words.Word", "words", "Word.__init__"),
    ("words.parse_word", "words", "parse_word"),
    ("dihedral.garside_nf", "dihedral", "garside_nf"),
    ("dihedral.words_equal", "dihedral", "words_equal"),
    ("dualtree.tree_ball", "dualtree", "tree_ball"),
    ("dualtree.classify_pair", "dualtree", "classify_pair"),
    ("dualtree.neighbor_across", "dualtree", "neighbor_across"),
    ("dualtree.axis_vertex", "dualtree", "axis_vertex"),
    ("dualtree.coset_key", "dualtree", "coset_key"),
    ("dualtree.simplices_at", "dualtree", "simplices_at"),
    ("presentation.PresentationGraph.neighbors", "presentation", "PresentationGraph.neighbors"),
    ("presentation.PresentationGraph.components", "presentation", "PresentationGraph.components"),
    ("presentation.labelled_isomorphisms", "presentation", "labelled_isomorphisms"),
    ("presentation.parse_graph", "presentation", "parse_graph"),
    ("decomposition.cut_vertices", "decomposition", "cut_vertices"),
    ("decomposition.separating_edges", "decomposition", "separating_edges"),
    ("decomposition.chunks", "decomposition", "chunks"),
    ("decomposition.induced_cycles", "decomposition", "induced_cycles"),
    ("decomposition.cycle_graph", "decomposition", "cycle_graph"),
    ("automorphisms.aut_generators", "automorphisms", "aut_generators"),
    ("automorphisms.twist_family", "automorphisms", "twist_family"),
    ("automorphisms.compose", "automorphisms", "compose"),
    ("automorphisms.verify_standard_form", "automorphisms", "verify_standard_form"),
    ("curvature.validate", "curvature", "validate"),
    ("curvature.load_diagram", "curvature", "load_diagram"),
    ("curvature.curvatures", "curvature", "curvatures"),
    ("curvature.redistribute", "curvature", "redistribute"),
    ("curvature.polygonalize", "curvature", "polygonalize"),
    ("curvature.attach_star", "curvature", "attach_star"),
    ("curvature.attach_star_two", "curvature", "attach_star_two"),
    ("curvature.dump_diagram", "curvature", "dump_diagram"),
)

# Leaves called thousands of times per op: aggregated only, no spans.
HOT = frozenset({
    "words.Word",
    "dihedral.garside_nf",
    "dualtree.neighbor_across",
    "dualtree.axis_vertex",
    "dualtree.coset_key",
    "dualtree.simplices_at",
    "presentation.PresentationGraph.neighbors",
    "presentation.PresentationGraph.components",
    "automorphisms.compose",
    "automorphisms.verify_standard_form",
})


def _log2_bucket(x: int) -> int:
    return max(x, 1).bit_length() - 1


class SizeFit:
    """Calls bucketed by log2 of an input size, for a log-log growth fit."""

    def __init__(self):
        self.buckets: dict[int, list] = {}  # bucket -> [calls, sum size, sum seconds]

    def add(self, size: int, seconds: float) -> None:
        b = self.buckets.setdefault(_log2_bucket(size), [0, 0, 0.0])
        b[0] += 1
        b[1] += size
        b[2] += seconds

    def points(self) -> list[tuple[float, float, int]]:
        """(mean size, mean seconds per call, calls) of buckets with >= 2 calls."""
        return [
            (b[1] / b[0], b[2] / b[0], b[0])
            for _, b in sorted(self.buckets.items())
            if b[0] >= 2 and b[1] > 0 and b[2] > 0
        ]

    def slope(self) -> float:
        """Least-squares slope of log time against log size over the buckets;
        0 when fewer than three buckets spanning a factor of four exist."""
        pts = self.points()
        if len(pts) < 3 or pts[-1][0] < 4 * pts[0][0]:
            return 0.0
        xs = [math.log(p[0]) for p in pts]
        ys = [math.log(p[1]) for p in pts]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        sxx = sum((x - mx) ** 2 for x in xs)
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx

    def describe(self) -> str:
        return ", ".join(f"{s:.0f}:{c}" for s, _, c in self.points()) or "no buckets"


class Tracer:
    def __init__(self):
        self.root = [0.0, None]  # frame: [time of traced children, enclosing span id]
        self.stack = [self.root]
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.spans: list = []
        self.absent: list[str] = []
        self._saved: list[tuple] = []  # (owner, attribute, original or None if inherited)
        # per-call observations behind the derived per-layer metrics
        self.nf_fit = {0: SizeFit(), 1: SizeFit()}  # by parity of m
        self.nf_letters = 0
        self.nf_distinct: set = set()
        self.validate_fit = SizeFit()
        self.cycles_max = 0
        self.accepts = 0
        self._observers = {
            "dihedral.garside_nf": self._observe_nf,
            "curvature.validate": self._observe_validate,
            "decomposition.induced_cycles": self._observe_cycles,
            "automorphisms.verify_standard_form": self._observe_verify,
        }

    # -- observers -----------------------------------------------------------

    def _observe_nf(self, args, result, own):
        if len(args) != 2:  # observations assume the (m, word) call form
            return
        m, w = args
        self.nf_fit[m % 2].add(len(w), own)
        self.nf_letters += len(w)
        self.nf_distinct.add((m, w.letters))

    def _observe_validate(self, args, result, own):
        self.validate_fit.add(len(args[0].triangles), own)

    def _observe_cycles(self, args, result, own):
        self.cycles_max = max(self.cycles_max, len(result))

    def _observe_verify(self, args, result, own):
        self.accepts += result.status == "ACCEPT"

    # -- installation ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0])
        record = name not in HOT
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if record:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent[0] += t1 - t0
                own = t1 - t0 - frame[0]
                stat[0] += 1
                stat[1] += own
                if record:
                    spans[frame[1]] = (name, t0, t1, parent[1])
            if observe is not None:
                observe(args, result, own)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "artinkit" or n.startswith("artinkit."))]
        for name, module, path in TARGETS:
            try:
                owner = importlib.import_module(f"artinkit.{module}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, binding, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is None:  # a span still open when the run ended
                    continue
                name, start, end, parent = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    # -- per-layer metrics --------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def metrics(self, graph_ops: int, diagram_ops: int, cycle_cap: int | None) -> dict:
        """Every per-layer metric by name; counts of absent names read 0."""
        c, s = self.calls, self.self_s
        nf_calls = c("dihedral.garside_nf")
        out = {
            "cli.run.calls": c("cli.run"),
            "cli.run.self_s": s("cli.run"),
            "words.Word.calls": c("words.Word"),
            "words.Word.self_s": s("words.Word"),
            "words.parse_word.self_s": s("words.parse_word"),
            "dihedral.garside_nf.calls": nf_calls,
            "dihedral.garside_nf.self_s": s("dihedral.garside_nf"),
            "dihedral.garside_nf.us_per_letter":
                1e6 * s("dihedral.garside_nf") / self.nf_letters if self.nf_letters else 0.0,
            "dihedral.garside_nf.growth_exp_odd_m": self.nf_fit[1].slope(),
            "dihedral.garside_nf.growth_exp_even_m": self.nf_fit[0].slope(),
            "dihedral.garside_nf.distinct_ratio":
                len(self.nf_distinct) / nf_calls if nf_calls else 0.0,
            "dihedral.words_equal.self_s": s("dihedral.words_equal"),
        }
        for name in ("tree_ball", "classify_pair", "simplices_at"):
            out[f"dualtree.{name}.self_s"] = s(f"dualtree.{name}")
        for name in ("classify_pair", "neighbor_across", "axis_vertex", "coset_key"):
            out[f"dualtree.{name}.calls"] = c(f"dualtree.{name}")
        for name in ("PresentationGraph.neighbors", "PresentationGraph.components",
                     "labelled_isomorphisms"):
            out[f"presentation.{name}.calls"] = c(f"presentation.{name}")
            out[f"presentation.{name}.self_s"] = s(f"presentation.{name}")
        out["presentation.parse_graph.self_s"] = s("presentation.parse_graph")
        for name in ("cut_vertices", "separating_edges"):
            out[f"decomposition.{name}.calls_per_graph"] = (
                c(f"decomposition.{name}") / graph_ops if graph_ops else 0.0)
        for name in ("cut_vertices", "separating_edges", "chunks", "induced_cycles",
                     "cycle_graph"):
            out[f"decomposition.{name}.self_s"] = s(f"decomposition.{name}")
        out["decomposition.induced_cycles.cap_headroom"] = (
            self.cycles_max / cycle_cap if cycle_cap else 0.0)
        for name in ("aut_generators", "twist_family"):
            out[f"automorphisms.{name}.self_s"] = s(f"automorphisms.{name}")
        out["automorphisms.compose.calls"] = c("automorphisms.compose")
        verifies = c("automorphisms.verify_standard_form")
        out["automorphisms.verify_standard_form.calls"] = verifies
        out["automorphisms.verify_standard_form.accept_ratio"] = (
            self.accepts / verifies if verifies else 0.0)
        out["curvature.validate.calls_per_diagram"] = (
            c("curvature.validate") / diagram_ops if diagram_ops else 0.0)
        out["curvature.validate.growth_exp"] = self.validate_fit.slope()
        for name in ("validate", "load_diagram", "curvatures", "redistribute", "polygonalize",
                     "dump_diagram"):
            out[f"curvature.{name}.self_s"] = s(f"curvature.{name}")
        out["curvature.attach_star.self_s"] = s("curvature.attach_star") + s(
            "curvature.attach_star_two")
        return out

    def fits(self) -> list[str]:
        return [
            f"fit dihedral.garside_nf odd m: slope {self.nf_fit[1].slope():.3f} over "
            f"buckets (mean letters:calls) {self.nf_fit[1].describe()}",
            f"fit dihedral.garside_nf even m: slope {self.nf_fit[0].slope():.3f} over "
            f"buckets (mean letters:calls) {self.nf_fit[0].describe()}",
            f"fit curvature.validate: slope {self.validate_fit.slope():.3f} over "
            f"buckets (mean triangles:calls) {self.validate_fit.describe()}",
        ]
