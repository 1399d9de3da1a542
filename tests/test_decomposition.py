import itertools
import random

import pytest

from artinkit import (
    ChunkTree,
    PreconditionError,
    PresentationGraph,
    SearchExhausted,
    chunk_tree,
    chunk_tree_text,
    chunks,
    cut_vertices,
    cycle_chain_witness,
    cycle_graph,
    induced_cycles,
    parse_graph,
    separating_edges,
)
from artinkit import decomposition, presentation
from artinkit.decomposition import _canonical_cycle, validate_cycle_chain
from artinkit.presentation import connected_components
from conftest import complete_graph, cycle_pg, random_biconnected, random_connected, triforce_graph


# -- brute-force oracles --------------------------------------------------------

def separating_edges_by_decomposition(g: PresentationGraph):
    """The definition: proper decompositions into two induced connected parts
    meeting exactly in the edge."""
    out = []
    vs = set(g.vertices)
    for a, b in g.edge_pairs():
        found = False
        rest = sorted(vs - {a, b})
        for r in range(0, len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                s1 = set(extra) | {a, b}
                s2 = (vs - set(extra)) | {a, b}
                if s1 == vs or s2 == vs:
                    continue  # properness: both parts need an outside vertex
                g1, g2 = g.induced(s1), g.induced(s2)
                if not (g1.is_connected() and g2.is_connected()):
                    continue
                # union of the induced parts must recover every edge
                covered = set(g1.edge_pairs()) | set(g2.edge_pairs())
                if covered == set(g.edge_pairs()):
                    found = True
                    break
            if found:
                break
        if found:
            out.append((a, b))
    return tuple(out)


def chunks_by_maximality(g: PresentationGraph):
    cands = []
    for r in range(3, g.rank() + 1):
        for sub in itertools.combinations(g.vertices, r):
            p = g.induced(sub)
            if not p.is_connected():
                continue
            if any(len(p.without([v]).components()) >= 2 for v in p.vertices):
                continue
            if any(
                len(p.without([u, v]).components()) >= 2 for u, v in p.edge_pairs()
            ):
                continue
            cands.append(frozenset(sub))
    maximal = [s for s in cands if not any(s < t for t in cands)]
    return sorted(tuple(sorted(s)) for s in maximal)


def chordless_cycles_by_subsets(g: PresentationGraph):
    res = set()
    for r in range(3, g.rank() + 1):
        for sub in itertools.combinations(g.vertices, r):
            p = g.induced(sub)
            if not p.is_connected() or any(p.degree(v) != 2 for v in sub):
                continue
            start = min(sub)
            order, prev = [start], None
            while len(order) < r:
                nxt = [x for x in p.neighbors(order[-1]) if x != prev]
                prev = order[-1]
                order.append(nxt[0])
            res.add(_canonical_cycle(order))
    return tuple(sorted(res, key=lambda c: (len(c), c)))


# -- cut vertices ----------------------------------------------------------------

def test_cut_vertices_examples():
    two_tri = PresentationGraph(
        "abcde", [("a", "b", 3), ("a", "c", 3), ("b", "c", 3), ("c", "d", 3), ("c", "e", 3), ("d", "e", 3)]
    )
    assert cut_vertices(two_tri) == ("c",)
    assert cut_vertices(triforce_graph()) == ()
    assert cut_vertices(complete_graph("abc")) == ()


def test_cut_vertices_match_networkx():
    import networkx as nx

    rng = random.Random(17)
    for _ in range(60):
        g = random_connected(rng, rng.randint(2, 8))
        G = nx.Graph([(u, v) for u, v, _ in g.edges()])
        G.add_nodes_from(g.vertices)
        assert set(cut_vertices(g)) == set(nx.articulation_points(G))


def test_cut_vertices_requires_connected():
    with pytest.raises(PreconditionError):
        cut_vertices(PresentationGraph("ab", []))


# -- separating edges -------------------------------------------------------------

def test_separating_edges_examples():
    assert separating_edges(triforce_graph()) == (("a", "b"), ("a", "c"), ("b", "c"))
    assert separating_edges(complete_graph("abc")) == ()
    assert separating_edges(complete_graph("abcd")) == ()


def test_separating_edge_conventions_agree():
    # operational (remove both endpoints) == proper-decomposition definition,
    # under connected + no cut-vertex
    rng = random.Random(29)
    graphs = [triforce_graph(), complete_graph("abcd"), cycle_pg("abcde")]
    while len(graphs) < 18:
        graphs.append(random_biconnected(rng, rng.randint(3, 7)))
    for g in graphs:
        assert separating_edges(g) == separating_edges_by_decomposition(g)


def test_separating_edges_precondition():
    two_tri = PresentationGraph(
        "abcde", [("a", "b", 3), ("a", "c", 3), ("b", "c", 3), ("c", "d", 3), ("c", "e", 3), ("d", "e", 3)]
    )
    with pytest.raises(PreconditionError):
        separating_edges(two_tri)


# -- facts kept per graph ---------------------------------------------------------

def test_graph_facts_are_walked_once_per_instance(monkeypatch):
    walks = []

    def counting(nodes, neighbors):
        walks.append(1)
        return connected_components(nodes, neighbors)

    monkeypatch.setattr(presentation, "connected_components", counting)
    monkeypatch.setattr(decomposition, "connected_components", counting)
    g = triforce_graph()
    facts = (g.components(), cut_vertices(g), separating_edges(g))
    # one walk for the components, one per vertex and one per edge
    assert len(walks) == 1 + g.rank() + len(g.edge_pairs())
    walks.clear()
    assert (g.components(), cut_vertices(g), separating_edges(g)) == facts
    assert walks == []


def test_graph_with_kept_facts_equals_a_fresh_parse(triforce):
    text = triforce.serialize()
    assert separating_edges(triforce)
    fresh = parse_graph(text)
    assert triforce == fresh and hash(triforce) == hash(fresh)
    assert triforce.serialize() == fresh.serialize() == text


# -- chunks ------------------------------------------------------------------------

def test_chunks_examples():
    cs = chunks(triforce_graph())
    assert [c.vertices for c in cs] == [
        ("a", "b", "c"), ("a", "b", "z"), ("a", "c", "y"), ("b", "c", "x")
    ]
    assert [c.vertices for c in chunks(cycle_pg("abcde"))] == [tuple("abcde")]
    two_k4 = PresentationGraph(
        "abcdef",
        [(u, v, 3) for u, v in itertools.combinations("abcd", 2)]
        + [(u, v, 3) for u, v in itertools.combinations("abef", 2) if {u, v} != {"a", "b"}],
    )
    assert [c.vertices for c in chunks(two_k4)] == [tuple("abcd"), tuple("abef")]
    assert chunks_by_maximality(two_k4) == [tuple("abcd"), tuple("abef")]


def test_chunks_match_brute_force_random():
    rng = random.Random(101)
    for _ in range(40):
        g = random_biconnected(rng, rng.randint(3, 7))
        assert [c.vertices for c in chunks(g)] == chunks_by_maximality(g)


def test_chunk_edge_membership():
    g = triforce_graph()
    cs = chunks(g)
    seps = set(separating_edges(g))
    for e in g.edge_pairs():
        containing = [c for c in cs if e[0] in c.vertices and e[1] in c.vertices and c.has_edge(*e)]
        if e in seps:
            assert len(containing) >= 2
        else:
            assert len(containing) == 1
    # pairwise chunk intersections: a separating edge, a single vertex, or
    # empty (the triforce corners meet in single vertices)
    for c1, c2 in itertools.combinations(cs, 2):
        inter = set(c1.vertices) & set(c2.vertices)
        assert len(inter) <= 2
        if len(inter) == 2:
            assert tuple(sorted(inter)) in seps


def test_chunk_union_covers_graph():
    rng = random.Random(7)
    for _ in range(25):
        g = random_biconnected(rng, rng.randint(3, 7))
        cs = chunks(g)
        covered = {e for c in cs for e in c.edge_pairs()}
        assert covered == set(g.edge_pairs())
        for c in cs:
            assert c.rank() >= 3


# -- chunk tree ----------------------------------------------------------------------

def test_chunk_tree_triforce():
    t = chunk_tree(triforce_graph())
    assert t.node_count() == 7
    assert len(t.incidence) == 6
    assert t.is_tree()


def test_chunk_tree_single_chunk():
    t = chunk_tree(cycle_pg("abcde"))
    assert t.node_count() == 1
    assert t.incidence == ()


def test_chunk_tree_chain_of_three():
    g = PresentationGraph(
        "abcde",
        [("a", "b", 3), ("a", "c", 3), ("b", "c", 3),
         ("b", "d", 3), ("c", "d", 3),
         ("c", "e", 3), ("d", "e", 3)],
    )
    t = chunk_tree(g)
    assert t.node_count() == 5
    assert t.is_tree()
    degrees = {}
    for e, c in t.incidence:
        degrees[("e", e)] = degrees.get(("e", e), 0) + 1
        degrees[("c", c)] = degrees.get(("c", c), 0) + 1
    # a path: two leaves (chunks) and the rest of degree 2
    assert sorted(degrees.values()) == [1, 1, 2, 2, 2][: len(degrees)]


def test_chunk_tree_text_roundtrips_through_grammar():
    text = chunk_tree_text(chunk_tree(triforce_graph()))
    g = parse_graph(text)
    assert g.rank() == 7
    assert len(g.edge_pairs()) == 6


def test_chunk_tree_is_tree_needs_one_component():
    cs = (complete_graph("abc"), complete_graph("bcd"))
    # three nodes and two incidences, but the second chunk is never reached
    duplicated = ChunkTree(cs, (("b", "c"),), ((0, 0), (0, 0)))
    assert not duplicated.is_tree()
    assert ChunkTree(cs, (("b", "c"),), ((0, 0), (0, 1))).is_tree()
    assert not ChunkTree(cs, (("b", "c"),), ((0, 0),)).is_tree()


# -- induced cycles --------------------------------------------------------------------

def test_induced_cycles_examples():
    k4 = complete_graph("abcd", 3)
    assert induced_cycles(k4) == (
        ("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")
    )
    assert induced_cycles(cycle_pg("abcde")) == (("a", "b", "c", "d", "e"),)
    tree = PresentationGraph("abcd", [("a", "b", 3), ("b", "c", 3), ("b", "d", 3)])
    assert induced_cycles(tree) == ()


def test_induced_cycles_match_brute_force():
    rng = random.Random(41)
    for _ in range(50):
        g = random_connected(rng, rng.randint(3, 8))
        assert induced_cycles(g) == chordless_cycles_by_subsets(g)


def test_induced_cycle_cap(monkeypatch):
    from artinkit.errors import CapExceeded

    k6 = complete_graph("abcdef", 3)
    with pytest.raises(CapExceeded):
        induced_cycles(k6, cap=3)
    monkeypatch.setenv("ARTIN_MAX_CYCLES", "2")
    with pytest.raises(CapExceeded):
        induced_cycles(k6)
    monkeypatch.delenv("ARTIN_MAX_CYCLES")
    assert len(induced_cycles(k6)) == 20  # the C(6,3) triangles


def test_cycle_canonical_rotation():
    for c in induced_cycles(complete_graph("abcd", 3)):
        assert c[0] == min(c)
        assert c[1] < c[-1]


def test_cycle_graph_examples():
    k4 = complete_graph("abcd", 3)
    cg = cycle_graph(k4)
    assert len(cg.cycles) == 4
    assert len(cg.adjacency) == 6  # pairwise adjacent
    assert cg.is_connected()
    two_tri = PresentationGraph(
        "abcdef",
        [("a", "b", 3), ("b", "c", 3), ("a", "c", 3),
         ("d", "e", 3), ("e", "f", 3), ("d", "f", 3)],
    )
    assert len(cycle_graph(two_tri).components) == 2
    assert cycle_graph(triforce_graph()).is_connected()


def test_cycle_graph_connected_without_cut_vertex():
    rng = random.Random(59)
    for _ in range(60):
        g = random_biconnected(rng, rng.randint(3, 8))
        assert cycle_graph(g).is_connected()


def test_cycle_graph_components_match_networkx():
    import networkx as nx

    rng = random.Random(67)
    two_tri = PresentationGraph(
        "abcdef",
        [("a", "b", 3), ("b", "c", 3), ("a", "c", 3),
         ("d", "e", 3), ("e", "f", 3), ("d", "f", 3)],
    )
    graphs = [two_tri, triforce_graph(), cycle_pg("abcde")]
    graphs += [random_connected(rng, rng.randint(3, 8)) for _ in range(40)]
    for g in graphs:
        cg = cycle_graph(g)
        G = nx.Graph(list(cg.adjacency))
        G.add_nodes_from(range(len(cg.cycles)))
        assert cg.components == tuple(
            sorted(tuple(sorted(c)) for c in nx.connected_components(G))
        )


# -- chain witness ----------------------------------------------------------------------

def test_chain_witness_k4():
    k4 = complete_graph("abcd", 3)
    v, chain = cycle_chain_witness(k4, ("a", "b", "c"), ("a", "b", "d"))
    assert v in ("a", "b")
    assert len(chain) >= 3
    assert validate_cycle_chain(k4, ("a", "b", "c"), ("a", "b", "d"), v, chain)
    # every chain of three or more triangles of K4 uses the edge c-d
    no_cd = PresentationGraph("abcd", [e for e in k4.edges() if e[:2] != ("c", "d")])
    assert not validate_cycle_chain(no_cd, ("a", "b", "c"), ("a", "b", "d"), v, chain)


def test_chain_witness_octahedron():
    octa = PresentationGraph(
        "abcdef",
        [
            (u, v, 3)
            for u, v in itertools.combinations("abcdef", 2)
            if {u, v} not in ({"a", "b"}, {"c", "d"}, {"e", "f"})
        ],
    )
    cyc = [c for c in induced_cycles(octa) if len(c) == 3]
    pairs = [
        (c1, c2)
        for c1, c2 in itertools.combinations(cyc, 2)
        if set(c1) & set(c2) and len(set(c1) & set(c2)) == 2
    ]
    for c1, c2 in pairs[:6]:
        v, chain = cycle_chain_witness(octa, c1, c2)
        assert validate_cycle_chain(octa, c1, c2, v, chain)


def test_chain_witness_exists_on_random_graphs():
    # on connected graphs with neither cut-vertex nor separating edge, every
    # adjacent pair of induced cycles admits a validated pivoted chain
    rng = random.Random(271828)
    tried = 0
    while tried < 25:
        g = random_biconnected(rng, rng.randint(4, 7))
        if separating_edges(g):
            continue
        tried += 1
        cg = cycle_graph(g)
        for i, j in cg.adjacency[:8]:
            c1, c2 = cg.cycles[i], cg.cycles[j]
            v, chain = cycle_chain_witness(g, c1, c2)
            assert validate_cycle_chain(g, c1, c2, v, chain), (g.serialize(), c1, c2)


def test_chain_witness_trivial_and_errors():
    k4 = complete_graph("abcd", 3)
    c = ("a", "b", "c")
    assert cycle_chain_witness(k4, c, c) == ("a", (c,))
    with pytest.raises(PreconditionError):
        cycle_chain_witness(k4, c, ("x", "y", "z"))
    with pytest.raises(PreconditionError):
        # sharing no edge violates the precondition
        octa_like = cycle_pg("abcdef")
        cycle_chain_witness(octa_like, ("a", "b", "c"), ("d", "e", "f"))
    # a cut-vertex also implies a separating edge here, so the message names that
    bowtie = PresentationGraph("abcde", [(u, v, 3) for u, v in ("ab", "bc", "ac", "cd", "de", "ce")])
    for c2 in (("a", "b", "c"), ("c", "d", "e")):
        with pytest.raises(PreconditionError, match="needs a graph without separating edge$"):
            cycle_chain_witness(bowtie, ("a", "b", "c"), c2)
