"""Labelled presentation graphs.

A presentation graph is a finite simplicial graph whose edges carry integer
labels m >= 2; the vertices are the standard generators of the associated
group.  Missing edges mean "no relation" and are represented only by absence.
All enumerations are ordered by vertex-name lexicographic order so output is
deterministic.

Graph file grammar (UTF-8, line based):

    # comment
    vertex a b c
    edge a b 3

`vertex` lines are optional.  When at least one is present, the declared set
is authoritative and edge endpoints must be declared; otherwise vertices are
inferred from edges.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import GraphError, PreconditionError
from .words import _NAME_RE

Edge = tuple[str, str]


def _norm_edge(u: str, v: str) -> Edge:
    return (u, v) if u <= v else (v, u)


def connected_components(nodes, neighbors) -> tuple[tuple, ...]:
    """The connected components of the graph on `nodes` whose edges join each
    node to the nodes of `neighbors(node)`; each component sorted, and the
    components in sorted order."""
    seen = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        comp, stack = [start], [start]
        while stack:
            for n in neighbors(stack.pop()):
                if n not in seen:
                    seen.add(n)
                    comp.append(n)
                    stack.append(n)
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


class PresentationGraph:
    """Immutable labelled simplicial graph; `_facts` keeps each structural fact
    and the hash once computed, and equality and serialisation never read it."""

    __slots__ = ("vertices", "_labels", "_adjacency", "_facts")

    def __init__(self, vertices, edges):
        """vertices: iterable of names; edges: iterable of (u, v, label)."""
        vs = sorted(set(vertices))
        for v in vs:
            if not _NAME_RE.match(v):
                raise GraphError(f"bad vertex name {v!r}")
        labels: dict[Edge, int] = {}
        vset = set(vs)
        for u, v, m in edges:
            if u not in vset or v not in vset:
                missing = u if u not in vset else v
                raise GraphError(f"unknown vertex {missing!r} in an edge")
            if u == v:
                raise GraphError(f"loop edge at {u!r}")
            if not isinstance(m, int) or m < 2:
                raise GraphError(f"label {m!r} on edge ({u},{v}) must be an integer >= 2")
            key = _norm_edge(u, v)
            if key in labels:
                raise GraphError(f"duplicate edge ({key[0]},{key[1]})")
            labels[key] = m
        adjacency: dict[str, list[str]] = {v: [] for v in vs}
        for u, v in labels:
            adjacency[u].append(v)
            adjacency[v].append(u)
        object.__setattr__(self, "vertices", tuple(vs))
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(
            self, "_adjacency", {v: tuple(sorted(ns)) for v, ns in adjacency.items()}
        )
        object.__setattr__(self, "_facts", {})

    def __setattr__(self, *_):
        raise AttributeError("PresentationGraph is immutable")

    # -- basic queries ------------------------------------------------------

    def edges(self) -> tuple[tuple[str, str, int], ...]:
        return tuple((u, v, self._labels[(u, v)]) for u, v in sorted(self._labels))

    def edge_pairs(self) -> tuple[Edge, ...]:
        return tuple(sorted(self._labels))

    def has_edge(self, u: str, v: str) -> bool:
        return _norm_edge(u, v) in self._labels

    def label(self, u: str, v: str) -> int:
        try:
            return self._labels[_norm_edge(u, v)]
        except KeyError:
            raise GraphError(f"no edge between {u!r} and {v!r}") from None

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._adjacency.get(v, ())

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def rank(self) -> int:
        return len(self.vertices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PresentationGraph)
            and self.vertices == other.vertices
            and self._labels == other._labels
        )

    def __hash__(self) -> int:
        return self._fact("hash", lambda g: hash((g.vertices, tuple(sorted(g._labels.items())))))

    def __repr__(self) -> str:
        return f"PresentationGraph({len(self.vertices)} vertices, {len(self._labels)} edges)"

    # -- derived graphs ------------------------------------------------------

    def induced(self, keep) -> "PresentationGraph":
        keep = set(keep)
        unknown = keep - set(self.vertices)
        if unknown:
            raise GraphError(f"unknown vertices {sorted(unknown)}")
        edges = [(u, v, m) for (u, v), m in self._labels.items() if u in keep and v in keep]
        return PresentationGraph(keep, edges)

    def without(self, drop) -> "PresentationGraph":
        drop = set(drop)
        return self.induced(set(self.vertices) - drop)

    def _fact(self, key: str, compute):
        """The fact `key` of this graph: compute(self) on first use, then kept."""
        if key not in self._facts:
            self._facts[key] = compute(self)
        return self._facts[key]

    def components(self) -> tuple[tuple[str, ...], ...]:
        return self._fact(
            "components", lambda g: connected_components(g.vertices, g._adjacency.__getitem__)
        )

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def is_complete(self) -> bool:
        n = len(self.vertices)
        return len(self._labels) == n * (n - 1) // 2

    # -- serialization -------------------------------------------------------

    def serialize(self) -> str:
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {u} {v} {m}" for u, v, m in self.edges()]
        return "\n".join(lines) + "\n"


def parse_graph(text: str) -> PresentationGraph:
    """Parse the line-based graph grammar; serialization then parsing is the identity."""
    declared: list[str] = []
    saw_vertex_line = False
    edges: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) < 2:
                raise GraphError(f"line {lineno}: vertex line needs at least one name")
            saw_vertex_line = True
            declared.extend(parts[1:])
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise GraphError(f"line {lineno}: edge line needs 'edge u v m'")
            u, v, ms = parts[1], parts[2], parts[3]
            if not re.fullmatch(r"\d+", ms):
                raise GraphError(f"line {lineno}: label {ms!r} is not a decimal integer")
            edges.append((u, v, int(ms)))
        else:
            raise GraphError(f"line {lineno}: unknown directive {parts[0]!r}")
    if saw_vertex_line:
        vertices = declared
    else:
        vertices = [x for u, v, _ in edges for x in (u, v)]
    return PresentationGraph(vertices, edges)


@dataclass(frozen=True)
class TypeFlags:
    large: bool
    xxxl: bool
    hyperbolic_type: bool
    free_of_infinity: bool
    is_even_edge: bool
    rank: int


def classify(g: PresentationGraph) -> TypeFlags:
    """Compute the type flags exactly from labels and adjacency."""
    labels = [m for _, _, m in g.edges()]
    large = all(m >= 3 for m in labels)
    xxxl = all(m >= 6 for m in labels)
    hyperbolic = True
    for a, b, c in itertools.combinations(g.vertices, 3):
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            if (g.label(a, b), g.label(b, c), g.label(a, c)) == (3, 3, 3):
                hyperbolic = False
                break
    is_even_edge = g.rank() == 2 and len(labels) == 1 and labels[0] % 2 == 0
    return TypeFlags(
        large=large,
        xxxl=xxxl,
        hyperbolic_type=hyperbolic,
        free_of_infinity=g.is_complete(),
        is_even_edge=is_even_edge,
        rank=g.rank(),
    )


def _label_multiset(g: PresentationGraph, v: str) -> tuple[int, ...]:
    return tuple(sorted(g.label(v, n) for n in g.neighbors(v)))


def _mappings(g: PresentationGraph, h: PresentationGraph, injective_only: bool):
    """Backtracking search for label-preserving vertex maps g -> h.

    With injective_only the image need not be all of h (embeddings onto
    subgraphs); otherwise a bijection preserving adjacency, non-adjacency and
    labels (a labelled isomorphism) is required.
    """
    gs = list(g.vertices)
    results: list[dict[str, str]] = []

    def compatible(v: str, w: str, partial: dict[str, str]) -> bool:
        if injective_only:
            if g.degree(v) > h.degree(w):
                return False
        else:
            if g.degree(v) != h.degree(w) or _label_multiset(g, v) != _label_multiset(h, w):
                return False
        for u, x in partial.items():
            if g.has_edge(u, v):
                if not h.has_edge(x, w) or h.label(x, w) != g.label(u, v):
                    return False
            elif not injective_only and h.has_edge(x, w):
                return False
        return True

    def extend(i: int, partial: dict[str, str], used: set[str]) -> None:
        if i == len(gs):
            results.append(dict(partial))
            return
        v = gs[i]
        for w in h.vertices:
            if w in used:
                continue
            if compatible(v, w, partial):
                partial[v] = w
                used.add(w)
                extend(i + 1, partial, used)
                used.remove(w)
                del partial[v]

    if not injective_only and (
        g.rank() != h.rank()
        or len(g.edge_pairs()) != len(h.edge_pairs())
        or sorted(m for _, _, m in g.edges()) != sorted(m for _, _, m in h.edges())
    ):
        return results
    if injective_only and g.rank() > h.rank():
        return results
    extend(0, {}, set())
    return results


def labelled_isomorphisms(g: PresentationGraph, h: PresentationGraph) -> list[dict[str, str]]:
    """All label- and adjacency-preserving bijections g -> h, lexicographic order.

    With g = h this is the automorphism group of the graph.
    """
    return _mappings(g, h, injective_only=False)


def labelled_embeddings(g: PresentationGraph, h: PresentationGraph) -> list[dict[str, str]]:
    """All label-preserving embeddings of g onto a subgraph of h (not necessarily induced)."""
    return _mappings(g, h, injective_only=True)


@dataclass(frozen=True)
class FundamentalDomain:
    """The finite complex spanned by the identity cosets of spherical parabolics.

    Vertices carry a coset tag and a type: the empty subgroup (type 0), one
    generator (type 1), one edge (type 2).  Maximal simplices are chains
    ordered by type.
    """

    vertices: tuple[tuple[str, int], ...]
    simplices: tuple[tuple[str, ...], ...]


def type1_tag(v: str) -> str:
    return v


def type2_tag(u: str, v: str) -> str:
    a, b = _norm_edge(u, v)
    return f"{a}|{b}"


def fundamental_domain(g: PresentationGraph) -> FundamentalDomain:
    """Vertices: 1 + |V| + |E|; maximal simplices: one chain per (vertex, incident edge)."""
    if not classify(g).large:
        raise PreconditionError("fundamental_domain needs a large-type graph (all labels >= 3)")
    verts: list[tuple[str, int]] = [("1", 0)]
    verts += [(type1_tag(v), 1) for v in g.vertices]
    verts += [(type2_tag(u, v), 2) for u, v in g.edge_pairs()]
    simplices: list[tuple[str, ...]] = []
    for u, v in g.edge_pairs():
        simplices.append(("1", type1_tag(u), type2_tag(u, v)))
        simplices.append(("1", type1_tag(v), type2_tag(u, v)))
    covered = {x for u, v in g.edge_pairs() for x in (u, v)}
    for v in g.vertices:
        if v not in covered:
            simplices.append(("1", type1_tag(v)))
    return FundamentalDomain(tuple(verts), tuple(sorted(simplices)))
