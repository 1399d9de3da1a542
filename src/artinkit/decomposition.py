"""Structural analysis of presentation graphs.

Cut-vertices, separating edges, chunks and the chunk tree, chordless cycle
enumeration and the graph of induced cycles.  Components, cut-vertices,
separating edges and chunks are computed once per graph instance and kept on it.

Separating edges follow the convention used for Artin-group decompositions: an
edge e = {a, b} of a connected graph without cut-vertex is separating iff
removing both endpoints disconnects the graph.  This is equivalent, under
those hypotheses, to the existence of a proper decomposition into two induced
connected subgraphs meeting exactly in e.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import CapExceeded, PreconditionError, SearchExhausted
from .presentation import Edge, PresentationGraph, connected_components

DEFAULT_CYCLE_CAP = 100_000


def _require_connected(g: PresentationGraph, op: str) -> None:
    if not g.is_connected():
        raise PreconditionError(f"{op} needs a connected graph")


def _components_without(g: PresentationGraph, drop) -> tuple[tuple[str, ...], ...]:
    """The components of g minus the vertex set `drop`, without building that graph."""
    return connected_components(
        [v for v in g.vertices if v not in drop],
        lambda v: [n for n in g._adjacency[v] if n not in drop],
    )


def cut_vertices(g: PresentationGraph) -> tuple[str, ...]:
    """Vertices whose removal disconnects the graph."""
    _require_connected(g, "cut_vertices")
    return g._fact(
        "cut_vertices",
        lambda g: tuple(v for v in g.vertices if len(_components_without(g, {v})) >= 2),
    )


def separating_edges(g: PresentationGraph) -> tuple[Edge, ...]:
    """Edges {a, b} such that removing both a and b disconnects the graph."""
    _require_connected(g, "separating_edges")
    if cut_vertices(g):
        raise PreconditionError("separating_edges needs a graph without cut-vertex")
    return g._fact(
        "separating_edges",
        lambda g: tuple(e for e in g.edge_pairs() if len(_components_without(g, e)) >= 2),
    )


def chunks(g: PresentationGraph) -> tuple[PresentationGraph, ...]:
    """Maximal induced connected subgraphs with no cut-vertex and no separating edge.

    Computed by recursive splitting: pick a separating edge {a, b}, split into
    one piece per component of the graph minus {a, b} (each together with a
    and b), recurse.  Splitting preserves connectivity and the no-cut-vertex
    property of the pieces, which `separating_edges` re-checks on each piece.
    """
    _require_connected(g, "chunks")
    if cut_vertices(g):
        raise PreconditionError("chunks needs a graph without cut-vertex")
    if g.rank() < 3:
        raise PreconditionError("chunks needs at least 3 vertices")

    def split(piece: PresentationGraph) -> list[PresentationGraph]:
        seps = separating_edges(piece)
        if not seps:
            return [piece]
        a, b = seps[0]
        out: list[PresentationGraph] = []
        for comp in _components_without(piece, (a, b)):
            out.extend(split(piece.induced(set(comp) | {a, b})))
        return out

    return g._fact("chunks", lambda g: tuple(sorted(split(g), key=lambda c: c.vertices)))


@dataclass(frozen=True)
class ChunkTree:
    """Bipartite incidence tree between chunks and separating edges."""

    chunk_nodes: tuple[PresentationGraph, ...]
    edge_nodes: tuple[Edge, ...]
    incidence: tuple[tuple[int, int], ...]  # (edge index, chunk index)

    def node_count(self) -> int:
        return len(self.chunk_nodes) + len(self.edge_nodes)

    def is_tree(self) -> bool:
        """n - 1 incidences joining the n nodes into one component."""
        n = self.node_count()
        if len(self.incidence) != n - 1:
            return False
        adj: dict[tuple[str, int], list] = {}
        for e, c in self.incidence:
            adj.setdefault(("e", e), []).append(("c", c))
            adj.setdefault(("c", c), []).append(("e", e))
        nodes = [("c", i) for i in range(len(self.chunk_nodes))]
        nodes += [("e", i) for i in range(len(self.edge_nodes))]
        return len(connected_components(nodes, lambda x: adj.get(x, ()))) == 1


def chunk_tree(g: PresentationGraph) -> ChunkTree:
    cs = chunks(g)
    seps = separating_edges(g)
    incidence = []
    for ei, (a, b) in enumerate(seps):
        for ci, c in enumerate(cs):
            if a in c.vertices and b in c.vertices and c.has_edge(a, b):
                incidence.append((ei, ci))
    tree = ChunkTree(cs, seps, tuple(sorted(incidence)))
    if not tree.is_tree():
        raise AssertionError("chunk incidence graph is not a tree")
    return tree


def chunk_tree_text(t: ChunkTree) -> str:
    """Chunk tree in the graph grammar, node kinds annotated in comments."""
    lines = []
    for i, c in enumerate(t.chunk_nodes):
        lines.append(f"# node c{i} = chunk {{{','.join(c.vertices)}}}")
    for i, (a, b) in enumerate(t.edge_nodes):
        lines.append(f"# node e{i} = separating edge {{{a},{b}}}")
    names = [f"c{i}" for i in range(len(t.chunk_nodes))]
    names += [f"e{i}" for i in range(len(t.edge_nodes))]
    for n in names:
        lines.append(f"vertex {n}")
    for e, c in t.incidence:
        lines.append(f"edge c{c} e{e} 2")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Induced (chordless) cycles.

def _canonical_cycle(cycle: list[str]) -> tuple[str, ...]:
    """Rotate to the least vertex, orient so the second vertex beats the last."""
    i = cycle.index(min(cycle))
    rot = cycle[i:] + cycle[:i]
    if rot[1] > rot[-1]:
        rot = [rot[0]] + rot[:0:-1]
    return tuple(rot)


def induced_cycles(
    g: PresentationGraph, cap: int | None = None
) -> tuple[tuple[str, ...], ...]:
    """All chordless simple cycles, canonically rotated, no duplicates.

    Enumeration grows paths from the least vertex of the eventual cycle, so
    each cycle is produced exactly once; `cap` (default 10^5, overridable via
    ARTIN_MAX_CYCLES) aborts with CapExceeded rather than degrading.
    """
    if cap is None:
        cap = int(os.environ.get("ARTIN_MAX_CYCLES", DEFAULT_CYCLE_CAP))
    out: list[tuple[str, ...]] = []

    def grow(path: list[str]) -> None:
        # Invariant: path is an induced path, path[0] is its least vertex,
        # and no internal vertex is adjacent to path[0].
        v0, last = path[0], path[-1]
        for w in g.neighbors(last):
            if w <= v0 or w in path:
                continue
            if len(path) == 1:
                grow([v0, w])
                continue
            if any(g.has_edge(u, w) for u in path[1:-1]):
                continue
            if g.has_edge(w, v0):
                # w can only close a cycle; emit one orientation per cycle.
                if path[1] < w:
                    out.append(_canonical_cycle(path + [w]))
                    if len(out) > cap:
                        raise CapExceeded(f"more than {cap} induced cycles; raise the cap")
            else:
                grow(path + [w])

    for v in g.vertices:
        grow([v])
    return tuple(sorted(out, key=lambda c: (len(c), c)))


@dataclass(frozen=True)
class InducedCycleGraph:
    """Vertices: chordless cycles; edges: pairs of cycles sharing a graph edge."""

    cycles: tuple[tuple[str, ...], ...]
    adjacency: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]

    def is_connected(self) -> bool:
        return len(self.components) <= 1


def _cycle_edges(cycle: tuple[str, ...]) -> frozenset[Edge]:
    n = len(cycle)
    return frozenset(
        (cycle[i], cycle[(i + 1) % n]) if cycle[i] <= cycle[(i + 1) % n]
        else (cycle[(i + 1) % n], cycle[i])
        for i in range(n)
    )


def cycle_graph(g: PresentationGraph, cap: int | None = None) -> InducedCycleGraph:
    cycles = induced_cycles(g, cap=cap)
    edge_sets = [_cycle_edges(c) for c in cycles]
    adjacency = []
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            if edge_sets[i] & edge_sets[j]:
                adjacency.append((i, j))
    adj: list[list[int]] = [[] for _ in cycles]
    for i, j in adjacency:
        adj[i].append(j)
        adj[j].append(i)
    comps = connected_components(range(len(cycles)), adj.__getitem__)
    return InducedCycleGraph(cycles, tuple(adjacency), comps)


# ---------------------------------------------------------------------------
# Chains of induced cycles pivoting around one vertex.

def _shared_edges(c1: tuple[str, ...], c2: tuple[str, ...]) -> frozenset[Edge]:
    return _cycle_edges(c1) & _cycle_edges(c2)


def validate_cycle_chain(
    g: PresentationGraph,
    c1: tuple[str, ...],
    c2: tuple[str, ...],
    v: str,
    chain: tuple[tuple[str, ...], ...],
) -> bool:
    """Check the witness contract: a non-backtracking loop through v-edges of g."""
    if not chain or chain[0] != c1 or chain[-1] != c2:
        return False
    if not all(g.has_edge(*e) for c in chain for e in _cycle_edges(c)):
        return False
    if c1 == c2:
        return len(chain) == 1
    n = len(chain)
    if n < 3:
        return False
    for i in range(n):
        a, b = chain[i], chain[(i + 1) % n]
        if a == b:
            return False
        if not any(v in e for e in _shared_edges(a, b)):
            return False
    for i in range(n):
        if chain[i] == chain[(i + 2) % n]:
            return False
    return True


def cycle_chain_witness(
    g: PresentationGraph, c1: tuple[str, ...], c2: tuple[str, ...]
) -> tuple[str, tuple[tuple[str, ...], ...]]:
    """A vertex v and cycles c1 = g_1, ..., g_n = c2, consecutive ones sharing
    an edge through v, closing into a non-backtracking loop.

    Exhaustive breadth-first search over chains, shortest first; every
    returned witness is re-validated before being returned.
    """
    all_cycles = set(induced_cycles(g))
    if c1 not in all_cycles or c2 not in all_cycles:
        raise PreconditionError("c1 and c2 must be induced cycles of the graph")
    if not g.is_connected() or cut_vertices(g) or separating_edges(g):
        raise PreconditionError("cycle_chain_witness needs a graph without separating edge")
    shared = _shared_edges(c1, c2)
    if c1 == c2:
        v = min(c1)
        witness = (v, (c1,))
        return witness
    if not shared:
        raise PreconditionError("c1 and c2 must share at least one edge")

    cycles = sorted(all_cycles)
    pivots = sorted({x for e in shared for x in e})
    for v in pivots:
        # cycles usable at this pivot and their shared-edge-at-v adjacency
        at_v = [c for c in cycles if any(v in e for e in _cycle_edges(c))]
        nbrs: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for a in at_v:
            nbrs[a] = [
                b
                for b in at_v
                if b != a and any(v in e for e in _shared_edges(a, b))
            ]
        if c1 not in nbrs or c2 not in nbrs:
            continue
        # BFS over simple chains from c1, shortest first.
        frontier: list[tuple[tuple[str, ...], ...]] = [(c1,)]
        while frontier:
            nxt: list[tuple[tuple[str, ...], ...]] = []
            for chain in frontier:
                for b in nbrs[chain[-1]]:
                    if b in chain:
                        continue
                    cand = chain + (b,)
                    if b == c2 and len(cand) >= 3:
                        if validate_cycle_chain(g, c1, c2, v, cand):
                            return v, cand
                    elif b != c2 and len(cand) < len(at_v):
                        nxt.append(cand)
            frontier = nxt
    raise SearchExhausted(
        "no pivoted chain of induced cycles joins the two cycles within the search bound"
    )
