import dataclasses
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from artinkit import (
    DiagramError,
    DiscDiagram,
    PreconditionError,
    attach_star,
    curvatures,
    dump_diagram,
    load_diagram,
    polygonalize,
    redistribute,
    star_diagram,
    validate,
    with_markings,
)
from artinkit import curvature
from artinkit.curvature import FULL_TURN, _find_on_boundary, attach_star_two
from conftest import diagram_with_good_corner, pivot_fan_diagram, random_glued_diagram


def hexstar():
    return star_diagram(3)


# -- loading and validation -----------------------------------------------------

def test_load_hexstar_fixture(fixtures_dir):
    d = load_diagram((fixtures_dir / "hexstar.diagram").read_text())
    assert len(d.triangles) == 6
    assert len(d.boundary) == 6


def test_dump_load_roundtrip():
    d = with_markings(attach_star(hexstar(), "v0", "v1", 4), {"v3"}, "v5")
    d2 = load_diagram(dump_diagram(d))
    assert d2 == d


def test_reject_fan_with_type0_on_boundary():
    d = hexstar()
    removed = DiscDiagram(d.triangles[:-1], d.types, d.boundary)
    with pytest.raises(DiagramError, match="type-0|boundary"):
        # dropping one triangle leaves the type-0 vertex on the boundary
        validate(removed)


def test_reject_two_discs_sharing_a_vertex():
    a = hexstar()
    # second star sharing only the vertex v0
    types = dict(a.types)
    tris = list(a.triangles)
    rim = ["v0"] + [f"w{i}" for i in range(5)]
    types["Q0"] = 0
    for i, x in enumerate(rim):
        types.setdefault(x, 1 if i % 2 == 0 else 2)
    for i in range(6):
        tris.append(("Q0", rim[i], rim[(i + 1) % 6]))
    bad = DiscDiagram(tuple(tris), types, a.boundary)
    with pytest.raises(DiagramError, match="not a disc"):
        validate(bad)


def test_reject_disc_plus_disjoint_torus():
    # A 3x3 grid torus has chi 0 and cycle links, so beside a disc the total
    # chi is 1 and every link passes: only the connectivity check catches it.
    d = hexstar()
    types = dict(d.types)
    tris = list(d.triangles)
    name = {(i, j): f"t{i}{j}" for i in range(3) for j in range(3)}
    for (i, j), x in name.items():
        types[x] = (i + j) % 3
        right, up, diag = name[(i + 1) % 3, j], name[i, (j + 1) % 3], name[(i + 1) % 3, (j + 1) % 3]
        tris += [(x, right, diag), (x, up, diag)]
    with pytest.raises(DiagramError, match="complex is disconnected"):
        validate(DiscDiagram(tuple(tris), types, d.boundary))


def test_reject_bad_typing():
    d = hexstar()
    types = dict(d.types)
    types["v1"] = 1  # triangle now has two type-1 vertices
    with pytest.raises(DiagramError, match="one vertex of each type"):
        validate(DiscDiagram(d.triangles, types, d.boundary))


def test_reject_marking_off_boundary():
    d = hexstar()
    with pytest.raises(DiagramError, match="off the boundary|no type"):
        validate(DiscDiagram(d.triangles, d.types, d.boundary, frozenset({"P0"})))
    with pytest.raises(DiagramError, match="not a type-2"):
        validate(DiscDiagram(d.triangles, d.types, d.boundary, frozenset({"v0"})))


def test_reject_euler_violation():
    d = hexstar()
    e = attach_star(d, "v0", "v1", 3)
    # drop the declared boundary edge consistency by lying about the boundary
    with pytest.raises(DiagramError):
        validate(DiscDiagram(e.triangles, e.types, d.boundary))


def test_load_error_messages_are_json_first():
    with pytest.raises(DiagramError, match="bad JSON"):
        load_diagram("{not json")
    with pytest.raises(DiagramError, match="schema"):
        load_diagram(json.dumps({"triangles": []}))


def _hexstar_with(**fields):
    data = json.loads(dump_diagram(hexstar()))
    data.update(fields)
    return json.dumps(data)


def _hexstar_types_with(vertex, value):
    types = json.loads(dump_diagram(hexstar()))["types"]
    assert types[vertex] == 1
    types[vertex] = value
    return _hexstar_with(types=types)


MALFORMED_SCHEMAS = {
    "top-level-list": "[]",
    "types-list": _hexstar_with(types=[1, 2]),
    "types-bool": _hexstar_with(types=True),
    "type-str": _hexstar_with(types={"P0": "x"}),
    "type-float": _hexstar_types_with("v0", 1.7),  # int() would truncate it to 1
    "type-bool": _hexstar_types_with("v0", True),
    "triangles-str": _hexstar_with(triangles="P0v0v1"),
    "triangle-str": _hexstar_with(triangles=["P0v", "P0w"]),
    "triangle-short": _hexstar_with(triangles=[["P0", "v0"]]),
    "boundary-str": _hexstar_with(boundary="v0v1"),
    "transitions-str": _hexstar_with(transitions="v0"),
    # vertex names are JSON strings: null, numbers and lists are not names
    # with the type keyed "None", str(None) would have made this a valid disc
    "triangle-null-name": _hexstar_with(
        triangles=[[None if v == "P0" else v for v in t] for t in hexstar().triangles],
        types={("None" if v == "P0" else v): ty for v, ty in hexstar().types.items()},
    ),
    "triangle-int-name": _hexstar_with(triangles=[[0, "v0", "v1"]]),
    "boundary-list-name": _hexstar_with(boundary=[["v0"]] + list(hexstar().boundary[1:])),
    "boundary-int-name": _hexstar_with(boundary=[0, 1, 2]),
    "transitions-int-name": _hexstar_with(transitions=[1]),
    "basepoint-int": _hexstar_with(basepoint=1),
    "basepoint-list": _hexstar_with(basepoint=["v1"]),
}


@pytest.mark.parametrize("text", MALFORMED_SCHEMAS.values(), ids=MALFORMED_SCHEMAS.keys())
def test_load_rejects_malformed_schema(text):
    with pytest.raises(DiagramError, match="schema|three vertices"):
        load_diagram(text)


# -- polygonalization --------------------------------------------------------------

def test_polygonalize_hexstar():
    p = polygonalize(hexstar())
    assert len(p.polygons) == 1
    cyc = p.polygons[0].cycle
    assert len(cyc) == 6
    types = [1 if i % 2 == 0 else 2 for i in range(6)]
    assert [p.types[v] for v in cyc] == types


def test_polygonalize_two_adjacent_stars():
    d = attach_star(hexstar(), "v0", "v1", 3)
    p = polygonalize(d)
    assert len(p.polygons) == 2
    shared = set(p.polygons[0].cycle) & set(p.polygons[1].cycle)
    assert shared == {"v0", "v1"}


def test_polygonalize_rejects_boundary_type0():
    tri = DiscDiagram(
        (("c", "p", "q"),), {"c": 0, "p": 1, "q": 2}, ("c", "p", "q")
    )
    with pytest.raises(DiagramError, match="polygonaliz"):
        polygonalize(tri)


# -- curvature ----------------------------------------------------------------------

def test_hexstar_curvatures():
    rep = curvatures(hexstar())
    assert rep.polygon_kappa == {"P0": 0}
    assert [rep.vertex_kappa[f"v{i}"] for i in range(6)] == [0, 4, 0, 4, 0, 4]
    assert rep.total == FULL_TURN


def test_twelve_gon_curvatures():
    rep = curvatures(star_diagram(6))
    assert rep.polygon_kappa["P0"] == -12
    assert sum(k for v, k in rep.vertex_kappa.items()) == 24
    assert rep.total == FULL_TURN


def test_marked_corner_classification():
    d = with_markings(hexstar(), {"v1"}, None)
    rep = curvatures(d)
    assert rep.transition_class["v1"] == "corner"
    assert rep.vertex_kappa["v1"] == 4
    assert rep.corners == ("v1",)


def test_dichotomy_violation_reported_not_raised():
    d = attach_star(hexstar(), "v0", "v1", 3)
    # v1 now lies in 2 polygons: marking it violates the n_v dichotomy
    rep = curvatures(with_markings(d, {"v1"}, None))
    assert rep.transition_class["v1"] == "violation(n=2)"
    assert any(c.name == "transition_dichotomy" and not c.passed for c in rep.checks)
    assert rep.flagged


def test_gauss_bonnet_on_random_diagrams():
    rng = random.Random(2024)
    for _ in range(60):
        d = random_glued_diagram(rng, max_polygons=12)
        rep = curvatures(d)
        assert rep.total == FULL_TURN
        assert all(k <= 0 for k in rep.polygon_kappa.values())


def test_interior_type1_vertices_nonpositive():
    rng = random.Random(77)
    for _ in range(20):
        d = diagram_with_good_corner(rng, max_polygons=8)
        rep = curvatures(d)
        for v, k in rep.vertex_kappa.items():
            if d.types[v] == 1 and v not in d.boundary:
                assert k <= 0


# -- redistribution --------------------------------------------------------------------

def test_redistribute_preconditions():
    with pytest.raises(PreconditionError, match="one polygon"):
        redistribute(with_markings(hexstar(), {"v1"}, None))
    d = attach_star(hexstar(), "v0", "v1", 3)
    with pytest.raises(PreconditionError, match="corner"):
        redistribute(with_markings(d, set(), None))


def test_two_polygon_corner_cell():
    d = attach_star(hexstar(), "v0", "v1", 3)
    rep = curvatures(d)
    corner = next(
        v for v in d.boundary if d.types[v] == 2 and rep.n_polygons[v] == 1
    )
    red = redistribute(with_markings(d, {corner}, None))
    assert len(red.corner_cells) == 1
    cell = red.corner_cells[0]
    assert corner in cell.corners
    base = curvatures(with_markings(d, {corner}, None))
    assert red.polygon_kappa2[cell.center] == base.polygon_kappa[cell.center] - 4


def test_good_corner_conserves_kappa2():
    rng = random.Random(303)
    for _ in range(25):
        d = diagram_with_good_corner(rng, max_polygons=10)
        red = redistribute(d)
        assert red.total == FULL_TURN
        assert all(
            c.passed for c in red.checks if c.name == "inner_path_two_type2"
        )
        for cell in red.corner_cells:
            assert len(set(cell.specials)) == 2


def test_degenerate_corner_cell_reported():
    d = attach_star(hexstar(), "v0", "v1", 3)
    rep = curvatures(d)
    corner = next(v for v in d.boundary if d.types[v] == 2 and rep.n_polygons[v] == 1)
    red = redistribute(with_markings(d, {corner}, None))
    assert any(c.name == "inner_path_two_type2" and not c.passed for c in red.checks)
    assert red.total == FULL_TURN - 2  # one degenerate cell loses two units
    assert red.flagged


def test_special_vertex_multiplicity_bounded():
    rng = random.Random(404)
    for _ in range(20):
        d = diagram_with_good_corner(rng, max_polygons=10)
        red = redistribute(d)
        assert all(n <= 2 for n in red.special_counts.values())


def test_corner_cell_group_inequality():
    rng = random.Random(505)
    for _ in range(20):
        d = diagram_with_good_corner(rng, max_polygons=10)
        red = redistribute(d)
        for cell in red.corner_cells:
            group = red.polygon_kappa2[cell.center] + sum(
                red.vertex_kappa2[v] for v in cell.corners
            )
            assert group <= 0


def test_pivot_fan_satisfies_side_conditions_and_is_flagged():
    rng = random.Random(606)
    d = pivot_fan_diagram(rng)
    rep = curvatures(d)
    # all marked non-corner transitions are almost-corners; one corner present
    assert rep.corners
    for v in d.transitions:
        if v not in rep.corners:
            assert rep.n_polygons[v] >= 5
    # no interior type-2 vertices in this family (vacuous Appel-Schupp bound)
    assert all(v in d.boundary for v in rep.vertex_kappa if d.types[v] == 2)
    red = redistribute(d)
    assert red.flagged


def test_attach_star_accepts_both_edge_orientations():
    d = hexstar()
    u, v = d.boundary[0], d.boundary[1]
    fwd = attach_star(d, u, v, 3)
    rev = attach_star(d, v, u, 3)
    for out in (fwd, rev):
        validate(out)
        assert curvatures(out).total == FULL_TURN
    assert set(fwd.types) == set(rev.types)


def test_no_diagram_passes_every_redistribution_check():
    # With a corner present and more than one polygon, the inequality suite
    # and exact conservation cannot all hold at once: their conjunction would
    # cap the total at 6 units against the forced 12.  Every generated
    # diagram must therefore be flagged.
    rng = random.Random(808)
    for i in range(40):
        d = (
            diagram_with_good_corner(rng, max_polygons=12)
            if i % 2
            else pivot_fan_diagram(rng)
        )
        red = redistribute(d)
        assert red.flagged
        assert any(not c.passed for c in red.checks)


def test_star_builders_splice_the_boundary():
    d = hexstar()  # boundary v0 .. v5
    # gluing along one edge inserts the fresh rim between its endpoints,
    # keeping the boundary's start
    assert attach_star(d, "v0", "v1", 3).boundary == (
        "v0", "v9", "v8", "v7", "v6", "v1", "v2", "v3", "v4", "v5")
    assert attach_star(d, "v1", "v0", 3).boundary == (
        "v0", "v6", "v7", "v8", "v9", "v1", "v2", "v3", "v4", "v5")
    assert attach_star(d, "v5", "v0", 3).boundary == (
        "v0", "v1", "v2", "v3", "v4", "v5", "v9", "v8", "v7", "v6")
    # gluing along two edges drops the pivot and starts at the glued path
    assert attach_star_two(d, "v2", "v3", "v4", 3).boundary == (
        "v2", "v8", "v7", "v6", "v4", "v5", "v0", "v1")
    assert attach_star_two(d, "v4", "v3", "v2", 4).boundary == (
        "v2", "v6", "v7", "v8", "v9", "v10", "v4", "v5", "v0", "v1")
    e = attach_star_two(d, "v5", "v0", "v1", 3)
    assert e.boundary == ("v5", "v8", "v7", "v6", "v1", "v2", "v3", "v4")
    assert [e.types[v] for v in ("P1", "v6", "v7", "v8")] == [0, 1, 2, 1]
    assert e.triangles[-6:] == (
        ("P1", "v5", "v0"), ("P1", "v0", "v1"), ("P1", "v1", "v6"),
        ("P1", "v6", "v7"), ("P1", "v7", "v8"), ("P1", "v8", "v5"))


def test_attach_star_two_makes_pivot_interior():
    d = hexstar()
    u, w, v = d.boundary[0], d.boundary[1], d.boundary[2]
    assert d.types[w] == 2 or d.types[w] == 1
    d2 = attach_star_two(d, u, w, v, 3)
    validate(d2)
    assert w not in d2.boundary
    assert curvatures(d2).total == FULL_TURN


# -- immutability, single validation and the carried fresh-name counter ---------

def _rescan_index(d, prefix):
    """One past the largest index of the names prefix<i>: the full regex rescan
    that gluing a star once did for every star."""
    best = -1
    pat = re.compile(re.escape(prefix) + r"(\d+)\Z")
    for v in list(d.types):
        mm = pat.match(v)
        if mm:
            best = max(best, int(mm.group(1)))
    return best + 1


def _scan_boundary(bnd, path):
    """(position, forward) of the first boundary window reading `path` either
    way, by a scan over every position; None if there is none."""
    n = len(bnd)
    for i in range(n):
        window = tuple(bnd[(i + j) % n] for j in range(len(path)))
        if window == path:
            return i, True
        if window == path[::-1]:
            return i, False
    return None


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(curvature, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(curvature, name, counted)
    return calls


def test_long_chain_scans_names_at_most_twice(monkeypatch):
    scans = _count_calls(monkeypatch, "_fresh_indices")
    rng = random.Random(11)
    d = star_diagram(4)
    for i in range(200):
        bnd, n = d.boundary, len(d.boundary)
        j = rng.randrange(n)
        if i % 4 == 3:
            d = attach_star_two(d, bnd[j], bnd[(j + 1) % n], bnd[(j + 2) % n], 3 + i % 4)
        else:
            d = attach_star(d, bnd[(j + 1) % n], bnd[j], 3 + i % 4)
    assert len(scans) <= 2
    assert "P200" in d.types and "P201" not in d.types
    assert d._next_indices == (_rescan_index(d, "P"), _rescan_index(d, "v"))


def test_loaded_diagram_is_validated_once(monkeypatch):
    text = dump_diagram(diagram_with_good_corner(random.Random(5), max_polygons=8))
    calls = _count_calls(monkeypatch, "validate")
    d = load_diagram(text)
    curvatures(d)
    redistribute(d)
    assert len(calls) == 1


def test_direct_validate_always_runs_the_checks(monkeypatch):
    d = load_diagram(dump_diagram(attach_star(hexstar(), "v0", "v1", 4)))
    walks = _count_calls(monkeypatch, "connected_components")
    validate(d)
    first = len(walks)
    validate(d)
    assert first > 0 and len(walks) == 2 * first


def test_types_are_read_only_and_owned():
    given = {"c": 0, "p": 1, "q": 2}
    d = DiscDiagram((("c", "p", "q"),), given, ("p", "q", "c"))
    with pytest.raises(TypeError):
        d.types["c"] = 1
    given["c"] = 1
    given["r"] = 2
    assert dict(d.types) == {"c": 0, "p": 1, "q": 2}
    assert d == DiscDiagram(d.triangles, {"c": 0, "p": 1, "q": 2}, d.boundary)


@pytest.mark.parametrize("remark", ["with_markings", "replace"])
def test_remarked_validated_diagram_is_revalidated(remark):
    d = attach_star(hexstar(), "v0", "v1", 3)
    curvatures(d)  # validated and recorded
    for transitions, message in ((["P0"], "off the boundary"), (["v0"], "not a type-2")):
        if remark == "with_markings":
            e = with_markings(d, transitions, None)
        else:
            e = dataclasses.replace(d, transitions=frozenset(transitions))
        assert e is not d
        with pytest.raises(DiagramError, match=message):
            curvatures(e)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6), st.lists(
    st.tuples(st.booleans(), st.booleans(), st.floats(0, 1, exclude_max=True), st.integers(3, 6)),
    max_size=25,
))
def test_gluing_matches_rescan_and_boundary_scan(k0, steps):
    # each step: two edges or one, either orientation, a boundary position, k
    d = star_diagram(k0)
    for two, reverse, pick, k in steps:
        bnd, n = d.boundary, len(d.boundary)
        i = int(pick * n)
        path = tuple(bnd[(i + j) % n] for j in range(3 if two else 2))
        if reverse:
            path = path[::-1]
        pos, forward = _scan_boundary(bnd, path)
        assert _find_on_boundary(bnd, path) == (pos, forward)
        c, base = f"P{_rescan_index(d, 'P')}", _rescan_index(d, "v")
        fresh = tuple(f"v{base + j}" for j in range(2 * k - len(path)))
        insert = fresh[::-1] if forward else fresh
        if two:
            rot = bnd[pos:] + bnd[:pos]
            want = rot[:1] + insert + rot[2:]
            e = attach_star_two(d, *path, k)
        else:
            want = bnd[: pos + 1] + insert + bnd[pos + 1 :]
            e = attach_star(d, *path, k)
        assert e.boundary == want
        assert set(e.types) == set(d.types) | {c} | set(fresh)
        assert e.triangles[-2 * k][0] == c
        d = e
    validate(d)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from("abcd"), max_size=8).map(tuple),
    st.lists(st.sampled_from("abcd"), min_size=2, max_size=3).map(tuple),
)
def test_boundary_lookup_matches_scan_with_repeats(bnd, path):
    # repeated names and short cycles: the first window still wins, and a
    # window reading the path both ways counts as forward
    assert _find_on_boundary(bnd, path) == _scan_boundary(bnd, path)


def test_bad_gluing_raises_as_before():
    d = hexstar()
    with pytest.raises(PreconditionError, match=r"\(v0,v2\) is not a boundary edge"):
        attach_star(d, "v0", "v2", 3)
    with pytest.raises(PreconditionError, match=r"\(v0,v1,v3\) is not a boundary path"):
        attach_star_two(d, "v0", "v1", "v3", 3)
    with pytest.raises(PreconditionError, match="k >= 3"):
        attach_star(d, "v1", "v0", 2)
