import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from artinkit import (
    AxisDescription,
    CapExceeded,
    PreconditionError,
    Word,
    axis_segment,
    classify_pair,
    generator,
    parse_word,
    tree_ball,
    words_equal,
)
from artinkit.dualtree import (
    _axis_walk,
    axis_vertex,
    base_simplex,
    coset_key,
    neighbor_across,
    simplex_tag,
    simplices_at,
)

P = parse_word


def test_ball_examples():
    b = tree_ball(3, 1)
    assert len(b.vertices) == 4
    assert b.degree(0) == 3
    assert len(tree_ball(3, 2).vertices) == 10  # 1 + 3 + 3*2
    assert tree_ball(4, 1).degree(0) == 4


def test_ball_is_tree_and_regular():
    for m, r in [(3, 4), (4, 3), (5, 2), (7, 2)]:
        b = tree_ball(m, r)
        assert len(b.edges) == len(b.vertices) - 1
        for i, node in enumerate(b.vertices):
            if node.depth < r:
                assert b.degree(i) == m
    # vertex count of the regular tree: 1 + m * ((m-1)^r - 1) / (m - 2)
    b = tree_ball(5, 3)
    assert len(b.vertices) == 1 + 5 * (4**3 - 1) // 3


def test_ball_cap():
    with pytest.raises(CapExceeded):
        tree_ball(7, 8, max_simplices=500)


def test_ball_cap_is_checked_before_building():
    started = time.perf_counter()
    with pytest.raises(CapExceeded):
        tree_ball(40, 3)  # 62 446 simplices
    with pytest.raises(CapExceeded):
        tree_ball(3, 10**9)
    assert time.perf_counter() - started < 1.0
    size = 1 + 5 * (4**2 - 1) // 3
    assert len(tree_ball(5, 2, max_simplices=size).vertices) == size
    with pytest.raises(CapExceeded):
        tree_ball(5, 2, max_simplices=size - 1)


def test_neighbour_view_matches_edge_scan():
    for m, r in [(3, 3), (4, 2), (7, 1)]:
        b = tree_ball(m, r)
        lines = [f"# dual tree ball, m={m}, radius={r}"]
        for i, node in enumerate(b.vertices):
            nbrs = sorted(y if x == i else x for x, y in b.edges if i in (x, y))
            assert b.degree(i) == len(nbrs)
            lines.append(f"{i} [{node.tag}] -> {' '.join(str(j) for j in nbrs)}")
        assert b.adjacency_text() == "\n".join(lines) + "\n"


def _reference_simplices(m, rep):
    """rep * (base s-simplex) and rep * (base t-simplex), one normal form per prefix."""
    out = []
    for first, other in (("s", "t"), ("t", "s")):
        prefixes = [
            Word(((first, other)[i % 2], 1) for i in range(length)) for length in range(m)
        ]
        out.append(frozenset(coset_key(m, rep * p) for p in prefixes))
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 9), st.integers(0, 2**32 - 1))
def test_simplices_at_matches_renormalised_prefixes(m, seed):
    rng = random.Random(seed)
    keys = set()
    simplex = base_simplex(m)
    for _ in range(rng.randint(0, 12)):  # a random walk in the dual tree
        key = rng.choice(sorted(simplex))
        keys.add(key)
        simplex = neighbor_across(m, simplex, key)
    keys |= simplex
    for _ in range(4):  # cosets of random words
        letters = [(rng.choice("st"), rng.choice([1, -1])) for _ in range(rng.randint(0, 30))]
        keys.add(coset_key(m, Word(letters)))
    for key in keys:
        assert simplices_at(m, key) == _reference_simplices(m, _key_to_word(key))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 9),
    st.lists(st.tuples(st.sampled_from("st"), st.sampled_from([1, -1])), max_size=8),
    st.sampled_from("st"),
    st.sampled_from([1, -1]),
    st.integers(-10, 10),
    st.integers(0, 10),
)
def test_axis_walk_matches_renormalised_prefixes(m, conj, base, sign, lo, steps):
    a = AxisDescription(Word(conj), base, sign)

    def reference(k):
        return _reference_simplices(m, a.conjugator * generator(base) ** k)[0]

    walk = _axis_walk(m, a, lo, lo + steps)
    assert walk == [reference(k) for k in range(lo, lo + steps + 1)]
    assert axis_vertex(m, a, lo) == reference(lo)
    assert base_simplex(m) == _reference_simplices(m, Word())[0]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 9),
    st.lists(st.tuples(st.sampled_from("st"), st.sampled_from([1, -1])), max_size=8),
    st.sampled_from("st"),
    st.sampled_from([1, -1]),
    st.integers(0, 10),
)
def test_axis_walk_matches_axis_vertex(m, conj, base, sign, span):
    # One walk over the window agrees with a separate walk started at each k.
    a = AxisDescription(Word(conj), base, sign)
    assert _axis_walk(m, a, -span, span) == [axis_vertex(m, a, k) for k in range(-span, span + 1)]


def test_each_coset_in_two_simplices():
    key = ()
    s1, s2 = simplices_at(3, key)
    assert s1 != s2 and key in s1 and key in s2


def test_adjacency_text_deterministic():
    a = tree_ball(3, 2).adjacency_text()
    b = tree_ball(3, 2).adjacency_text()
    assert a == b and a.startswith("#")


# -- axes ---------------------------------------------------------------------

def test_axis_intersection_single_edge():
    for m in range(3, 8):
        ax = {simplex_tag(axis_vertex(m, AxisDescription(Word(), "s"), k)) for k in range(-6, 7)}
        at = {simplex_tag(axis_vertex(m, AxisDescription(Word(), "t"), k)) for k in range(-6, 7)}
        common = ax & at
        assert len(common) == 2  # exactly one edge


def test_axis_consecutive_vertices_adjacent():
    for m in (3, 5):
        for k in range(-3, 3):
            a = axis_vertex(m, AxisDescription(Word(), "s"), k)
            b = axis_vertex(m, AxisDescription(Word(), "s"), k + 1)
            assert a != b and len(a & b) == 1


def test_axis_segment_base_and_translate():
    seg = axis_segment(3, AxisDescription(Word(), "s"), 1)
    assert len(seg) == 3
    assert simplex_tag(base_simplex(3)) in seg
    # equivariance: the t-conjugated description yields the t-translate
    seg_t = axis_segment(3, AxisDescription(P("t"), "s"), 1)
    expected = [simplex_tag(axis_vertex(3, AxisDescription(P("t"), "s"), k)) for k in (-1, 0, 1)]
    assert seg_t == expected


def test_axis_segment_projection_cap():
    a = AxisDescription(P("s s t t s"), "s")
    with pytest.raises(CapExceeded) as err:
        axis_segment(4, a, 1, max_simplices=16)
    assert str(err.value) == "projection search exceeded the simplex cap"
    assert len(axis_segment(4, a, 1, max_simplices=17)) == 3


def test_axis_segment_is_a_path():
    # consecutive returned simplices share exactly one coset (tree adjacency)
    for desc in (AxisDescription(Word(), "s"), AxisDescription(P("t s"), "t")):
        span = len(desc.conjugator) + 2 + 2
        k0, _ = __import__(
            "artinkit.dualtree", fromlist=["_project_to_axis"]
        )._project_to_axis(3, desc, span, 10_000)
        simplices = [axis_vertex(3, desc, k) for k in range(k0 - 2, k0 + 3)]
        tags = axis_segment(3, desc, 2)
        assert tags == [simplex_tag(s) for s in simplices]
        for a, b in zip(simplices, simplices[1:]):
            assert len(a & b) == 1


def test_axis_inverse_same_vertices():
    for k in range(-2, 3):
        assert axis_vertex(3, AxisDescription(Word(), "s", -1), k) == axis_vertex(
            3, AxisDescription(Word(), "s"), k
        )


def test_axis_equivariance_under_left_translation():
    rng = random.Random(13)
    for _ in range(20):
        letters = [("s", rng.choice([1, -1])) if rng.random() < 0.5 else ("t", rng.choice([1, -1]))
                   for _ in range(rng.randint(0, 4))]
        g = Word(letters)
        h = Word([("t", 1), ("s", 1)][: rng.randint(0, 2)])
        u = rng.choice(["s", "t"])
        for k in (-1, 0, 2):
            translated = axis_vertex(3, AxisDescription(h * g, u), k)
            base = axis_vertex(3, AxisDescription(g, u), k)
            # translating the description by h translates every axis vertex:
            # recompute base under h on the left
            hkeys = frozenset(
                tuple(
                    __import__("artinkit.dihedral", fromlist=["garside_nf"]).garside_nf(
                        3, h * _key_to_word(c)
                    ).simples
                )
                for c in base
            )
            assert translated == hkeys


def _key_to_word(key):
    return Word((c, 1) for u in key for c in u)


# -- classification --------------------------------------------------------------

def test_classify_cyclic():
    x = AxisDescription(Word(), "s")
    assert classify_pair(3, x, x).kind == "cyclic"
    y = AxisDescription(Word(), "s", -1)
    assert classify_pair(3, x, y).kind == "cyclic"


def test_classify_conjugated_standard_pair():
    g = P("s t")
    res = classify_pair(3, AxisDescription(g, "s"), AxisDescription(g, "t"))
    assert res.kind == "full_dihedral"
    # a conjugated standard pair: the witness is the inverse conjugator
    assert res.witness == g.inverse()


def test_classify_central_conjugator_is_full_dihedral():
    # (s t^2 s) t (s t^2 s)^-1 equals t: s t^2 s t^2 is the square of the
    # distinguished element, hence central; the axis computation agrees.
    g = P("s t t s")
    y = AxisDescription(g, "t")
    assert words_equal(3, y.element(), generator("t"))
    res = classify_pair(3, AxisDescription(Word(), "s"), y)
    assert res.kind == "full_dihedral"
    w = res.witness
    for desc in (AxisDescription(Word(), "s"), y):
        img = w * desc.element() * w.inverse()
        assert any(
            words_equal(3, img, generator(n, e)) for n in "st" for e in (1, -1)
        )


def test_classify_free_pair():
    # axes meeting in at most one vertex certify a free pair (ping-pong)
    x = AxisDescription(Word(), "s")
    y = AxisDescription(P("t s^-1 t"), "t")
    res = classify_pair(3, x, y)
    res2 = classify_pair(3, x, y, _window_pad=2)  # radius stability
    assert res.kind == res2.kind
    if res.kind == "free":
        assert res.common_axis_vertices <= 1


def test_classify_symmetric_and_conjugation_invariant():
    rng = random.Random(7)
    descs = []
    for _ in range(10):
        letters = [
            (rng.choice("st"), rng.choice([1, -1])) for _ in range(rng.randint(0, 3))
        ]
        descs.append(AxisDescription(Word(letters), rng.choice("st"), rng.choice([1, -1])))
    for i in range(0, 8, 2):
        x, y = descs[i], descs[i + 1]
        assert classify_pair(3, x, y).kind == classify_pair(3, y, x).kind
        h = P("s t")
        xh = AxisDescription(h * x.conjugator, x.base, x.sign)
        yh = AxisDescription(h * y.conjugator, y.base, y.sign)
        assert classify_pair(3, x, y).kind == classify_pair(3, xh, yh).kind


def test_classify_stable_under_window_padding():
    rng = random.Random(4242)
    for _ in range(30):
        m = rng.choice([3, 4, 5])
        wx = Word([(rng.choice("st"), rng.choice([1, -1])) for _ in range(rng.randint(0, 4))])
        wy = Word([(rng.choice("st"), rng.choice([1, -1])) for _ in range(rng.randint(0, 4))])
        x = AxisDescription(wx, rng.choice("st"), rng.choice([1, -1]))
        y = AxisDescription(wy, rng.choice("st"), rng.choice([1, -1]))
        a = classify_pair(m, x, y)
        b = classify_pair(m, x, y, _window_pad=4)
        assert a.kind == b.kind, (m, str(wx), str(wy))


def test_classify_requires_m3():
    with pytest.raises(PreconditionError):
        classify_pair(2, AxisDescription(Word(), "s"), AxisDescription(Word(), "t"))
