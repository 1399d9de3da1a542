import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from artinkit import (
    GraphError,
    PreconditionError,
    PresentationGraph,
    classify,
    fundamental_domain,
    labelled_embeddings,
    labelled_isomorphisms,
    parse_graph,
)
from artinkit.decomposition import _components_without
from conftest import complete_graph, random_connected, triforce_graph


def triangle(la, lb, lc):
    return PresentationGraph("pqr", [("p", "q", la), ("q", "r", lb), ("p", "r", lc)])


# -- parsing -------------------------------------------------------------------

def test_parse_single_edge():
    g = parse_graph("edge a b 3\n")
    assert g.vertices == ("a", "b")
    assert g.label("a", "b") == 3


def test_parse_triforce_fixture(fixtures_dir):
    text = (fixtures_dir / "triforce.graph").read_text()
    g = parse_graph(text)
    assert g.rank() == 6
    assert len(g.edge_pairs()) == 9
    assert sum(1 for _, _, m in g.edges() if m == 7) == 3
    assert g == triforce_graph()


def test_parse_errors():
    with pytest.raises(GraphError, match="loop"):
        parse_graph("edge a a 3")
    with pytest.raises(GraphError, match="duplicate"):
        parse_graph("edge a b 3\nedge b a 4")
    with pytest.raises(GraphError, match=">= 2"):
        parse_graph("edge a b 1")
    with pytest.raises(GraphError, match="unknown vertex"):
        parse_graph("vertex a b\nedge a c 3")
    with pytest.raises(GraphError, match="decimal"):
        parse_graph("edge a b x")
    with pytest.raises(GraphError):
        parse_graph("wat a b 3")


def test_comments_and_vertex_lines():
    g = parse_graph("# hello\nvertex a b\nvertex c\nedge a b 5\n")
    assert g.vertices == ("a", "b", "c")
    assert g.neighbors("c") == ()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3000))
def test_roundtrip_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    g = random_connected(rng, n) if n >= 2 else PresentationGraph(["v0"], [])
    assert parse_graph(g.serialize()) == g
    assert parse_graph(g.serialize()).serialize() == g.serialize()


# -- adjacency and connectivity ---------------------------------------------------

def _assert_matches_networkx(g: PresentationGraph) -> None:
    import networkx as nx

    G = nx.Graph([(u, v) for u, v, _ in g.edges()])
    G.add_nodes_from(g.vertices)
    for v in g.vertices:
        assert g.neighbors(v) == tuple(sorted(G.neighbors(v)))
        assert g.degree(v) == G.degree(v)
    assert g.components() == tuple(
        sorted(tuple(sorted(c)) for c in nx.connected_components(G))
    )
    assert g.is_connected() == (len(g.vertices) <= 1 or nx.is_connected(G))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10),
    st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20),
    st.sets(st.integers(0, 9)),
)
def test_adjacency_and_components_match_networkx(n, pairs, drop):
    # sparse random edge sets leave isolated vertices and several components
    names = [f"v{i}" for i in range(n)]
    edges = {(names[min(a, b)], names[max(a, b)]) for a, b in pairs if a != b and max(a, b) < n}
    g = PresentationGraph(names, [(u, v, 3) for u, v in sorted(edges)])
    _assert_matches_networkx(g)
    dropped = [names[i] for i in sorted(drop) if i < n]
    _assert_matches_networkx(g.without(dropped))
    _assert_matches_networkx(g.induced(dropped))
    assert _components_without(g, dropped) == g.without(dropped).components()
    assert g.neighbors("absent") == ()
    assert g.degree("absent") == 0


# -- classification -------------------------------------------------------------

def test_classify_flag_examples():
    f = classify(triangle(3, 3, 3))
    assert f.large and not f.hyperbolic_type
    f = classify(triangle(7, 7, 7))
    assert f.xxxl and f.free_of_infinity
    f = classify(PresentationGraph("ab", [("a", "b", 4)]))
    assert f.is_even_edge
    f = classify(PresentationGraph("ab", [("a", "b", 5)]))
    assert not f.is_even_edge


def test_classify_implications():
    rng = random.Random(5)
    for _ in range(50):
        g = random_connected(rng, rng.randint(2, 7))
        f = classify(g)
        assert not f.xxxl or f.large
        # hyperbolic_type false only in presence of a (3,3,3) triangle
        if not f.hyperbolic_type:
            found = any(
                g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
                and {g.label(a, b), g.label(b, c), g.label(a, c)} == {3}
                for a, b, c in itertools.combinations(g.vertices, 3)
            )
            assert found


def test_classify_monotone_under_label_raise():
    rng = random.Random(11)
    for _ in range(40):
        g = random_connected(rng, rng.randint(2, 6), labels=(3, 8))
        f = classify(g)
        bumped = PresentationGraph(
            g.vertices, [(u, v, m + rng.randint(0, 4)) for u, v, m in g.edges()]
        )
        fb = classify(bumped)
        if f.large:
            assert fb.large
        if f.xxxl:
            assert fb.xxxl


# -- isomorphisms ----------------------------------------------------------------

def test_isomorphisms_rigid_triangle():
    g = triangle(3, 4, 5)
    assert labelled_isomorphisms(g, g) == [{"p": "p", "q": "q", "r": "r"}]


def test_isomorphisms_symmetric_triangle_brute_force():
    g = triangle(7, 7, 7)
    autos = labelled_isomorphisms(g, g)
    # oracle: all 3! bijections preserve everything for equal labels
    expected = [dict(zip("pqr", perm)) for perm in itertools.permutations("pqr")]
    assert sorted(autos, key=lambda d: tuple(sorted(d.items()))) == sorted(
        expected, key=lambda d: tuple(sorted(d.items()))
    )
    assert len(autos) == 6


def test_isomorphisms_label_mismatch():
    g = PresentationGraph("ab", [("a", "b", 3)])
    h = PresentationGraph("cd", [("c", "d", 4)])
    assert labelled_isomorphisms(g, h) == []


def test_isomorphisms_symmetry_and_inverse_closure():
    rng = random.Random(23)
    for _ in range(25):
        g = random_connected(rng, rng.randint(2, 6), labels=(3, 5))
        h = random_connected(rng, rng.randint(2, 6), labels=(3, 5))
        gh = labelled_isomorphisms(g, h)
        hg = labelled_isomorphisms(h, g)
        assert bool(gh) == bool(hg)
        inverted = [
            dict(sorted((w, v) for v, w in m.items())) for m in gh
        ]
        assert sorted(map(sorted, (m.items() for m in inverted))) == sorted(
            map(sorted, (m.items() for m in hg))
        )


def test_isomorphisms_deterministic_order():
    g = triangle(7, 7, 7)
    autos = labelled_isomorphisms(g, g)
    images = [tuple(m[v] for v in g.vertices) for m in autos]
    assert images == sorted(images)


def test_embedding_examples():
    g = triangle(6, 7, 8)
    h = PresentationGraph(
        "wxyz",
        [("w", "x", 6), ("x", "y", 7), ("w", "y", 8), ("w", "z", 2), ("x", "z", 2), ("y", "z", 2)],
    )
    assert len(labelled_embeddings(g, h)) >= 1
    e = PresentationGraph("ab", [("a", "b", 5)])
    assert labelled_embeddings(e, triangle(6, 7, 8)) == []
    g777 = triangle(7, 7, 7)
    assert len(labelled_embeddings(g777, g777)) == len(labelled_isomorphisms(g777, g777))


# -- fundamental domain -----------------------------------------------------------

def test_fundamental_domain_single_edge():
    g = PresentationGraph("ab", [("a", "b", 3)])
    fd = fundamental_domain(g)
    assert len(fd.vertices) == 4
    assert len(fd.simplices) == 2
    # oracle: the two chains, enumerated by hand
    assert set(fd.simplices) == {("1", "a", "a|b"), ("1", "b", "a|b")}


def test_fundamental_domain_triangle():
    g = triangle(3, 3, 3)
    fd = fundamental_domain(g)
    assert len(fd.vertices) == 1 + 3 + 3
    assert len(fd.simplices) == 6
    for chain in fd.simplices:
        assert len(chain) == 3 and chain[0] == "1"


def test_fundamental_domain_single_vertex():
    fd = fundamental_domain(PresentationGraph(["a"], []))
    assert len(fd.vertices) == 2
    assert fd.simplices == (("1", "a"),)


def test_fundamental_domain_counts_random():
    rng = random.Random(3)
    for _ in range(30):
        g = random_connected(rng, rng.randint(2, 7), labels=(3, 9))
        fd = fundamental_domain(g)
        assert len(fd.vertices) == 1 + g.rank() + len(g.edge_pairs())
        assert len(fd.simplices) == 2 * len(g.edge_pairs())


def test_fundamental_domain_rejects_small_labels():
    with pytest.raises(PreconditionError):
        fundamental_domain(PresentationGraph("ab", [("a", "b", 2)]))
