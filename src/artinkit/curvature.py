"""Exact combinatorial Gauss-Bonnet audits of triangulated disc diagrams.

Diagrams are simplicial discs whose triangles each carry one vertex of type 0,
1 and 2.  All angles and curvatures are integers in units of pi/6: the angle
scheme gives 2 units at a type-0 corner of a triangle, 3 at type 1, 1 at
type 2, so triangles are flat and curvature concentrates on vertices:

    kappa(v) = 12 - 6 * chi(link) - sum of angles at v     (units of pi/6)

with chi(link) = 0 for interior vertices and 1 on the boundary, and the total
over all vertices and polygons of a valid diagram is exactly 12 (one full
turn, 2*pi).  Erasing each type-0 vertex turns its star into a polygon whose
curvature is the erased vertex's kappa; the boundary of every polygon
alternates type-1 and type-2 vertices.

Marked boundary type-2 vertices ("transitions", plus one optional basepoint)
are classified by the number n_v of polygons containing them: a corner when
n_v = 1, an almost-corner when n_v >= 5, and an audit violation for
n_v in {2, 3, 4}.  The redistributed curvature kappa' moves 2 units from each
polygon containing a corner onto the first and last type-2 vertices of its
inner path; a battery of exact checks then reproduces, on any input claiming
to satisfy the side conditions, the impossibility of totalling 12 units.
Violations are report entries, never exceptions.

A `DiscDiagram` is immutable: `triangles` and `boundary` are tuples and
`types` is a read-only view of a dict the diagram owns, so a diagram cannot
change after it is checked.  Each instance is therefore validated once:
`validate` records a pass on the instance, and `curvatures` and
`redistribute` validate only an instance that has not passed (a direct
`validate(d)` call always runs every check).  Gluing a star carries the next
fresh `P`/`v` index to the diagram it returns, so building a diagram by
repeated gluing is linear in its size.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .errors import DiagramError, PreconditionError
from .presentation import connected_components

FULL_TURN = 12  # 2*pi in units of pi/6
ANGLE_UNITS = {0: 2, 1: 3, 2: 1}

Triangle = tuple[str, str, str]
Edge = tuple[str, str]


def _edge(u: str, v: str) -> Edge:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class DiscDiagram:
    triangles: tuple[Triangle, ...]
    types: Mapping[str, int]
    boundary: tuple[str, ...]
    transitions: frozenset[str] = frozenset()
    basepoint: str | None = None

    def __post_init__(self):
        # only immutable values and a private copy of `types`, so no caller
        # can change a diagram after it has been validated
        object.__setattr__(self, "triangles", tuple(self.triangles))
        object.__setattr__(self, "types", MappingProxyType(dict(self.types)))
        object.__setattr__(self, "boundary", tuple(self.boundary))
        object.__setattr__(self, "transitions", frozenset(self.transitions))

    def vertex_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.vertex_triangles))

    @cached_property
    def vertex_triangles(self) -> dict[str, tuple[Triangle, ...]]:
        """Each vertex's triangles in diagram order; cached, as `triangles` is immutable."""
        out: dict[str, list[Triangle]] = {}
        for t in self.triangles:
            for v in t:
                out.setdefault(v, []).append(t)
        return {v: tuple(ts) for v, ts in out.items()}

    @cached_property
    def _next_indices(self) -> tuple[int, int]:
        """The next fresh (P, v) indices: one past the largest in use."""
        return _fresh_indices(self)

    def edge_triangles(self) -> dict[Edge, list[Triangle]]:
        out: dict[Edge, list[Triangle]] = {}
        for t in self.triangles:
            for i in range(3):
                out.setdefault(_edge(t[i], t[(i + 1) % 3]), []).append(t)
        return out

    def boundary_edges(self) -> frozenset[Edge]:
        n = len(self.boundary)
        return frozenset(_edge(self.boundary[i], self.boundary[(i + 1) % n]) for i in range(n))


def validate(d: DiscDiagram) -> None:
    """Check every diagram invariant; the first violated one is reported."""
    if not d.triangles:
        raise DiagramError("empty diagram")
    for t in d.triangles:
        if len(set(t)) != 3:
            raise DiagramError(f"triangle {t} has repeated vertices")
    incident = d.vertex_triangles
    names = set(incident)
    for v in names:
        if v not in d.types:
            raise DiagramError(f"vertex {v!r} has no type")
    for v, ty in d.types.items():
        if ty not in (0, 1, 2):
            raise DiagramError(f"vertex {v!r} has bad type {ty!r}")
        if v not in names:
            raise DiagramError(f"typed vertex {v!r} appears in no triangle")
    for t in d.triangles:
        if sorted(d.types[v] for v in t) != [0, 1, 2]:
            raise DiagramError(f"triangle {t} does not have one vertex of each type")
    if len({frozenset(t) for t in d.triangles}) != len(d.triangles):
        raise DiagramError("duplicate triangle")

    et = d.edge_triangles()
    for e in sorted(et):
        if len(et[e]) > 2:
            raise DiagramError(f"not a disc: edge {e} lies in {len(et[e])} triangles")

    if len(connected_components(names, lambda v: (x for t in incident[v] for x in t))) != 1:
        raise DiagramError("not a disc: complex is disconnected")

    v_count, e_count, t_count = len(names), len(et), len(d.triangles)
    if v_count - e_count + t_count != 1:
        raise DiagramError(
            f"not a disc: Euler characteristic {v_count - e_count + t_count} != 1"
        )

    # per-vertex links must be a single path (boundary) or cycle (interior)
    boundary_set = set(d.boundary)
    for v in sorted(names):
        link: dict[str, set[str]] = {}
        for t in incident[v]:
            a, b = (x for x in t if x != v)
            link.setdefault(a, set()).add(b)
            link.setdefault(b, set()).add(a)
        degs = [len(ns) for ns in link.values()]
        if any(deg > 2 for deg in degs):
            raise DiagramError(f"not a disc: link of {v!r} branches")
        if len(connected_components(link, link.__getitem__)) != 1:
            raise DiagramError(f"not a disc: link of {v!r} is disconnected")
        ends = sum(1 for deg in degs if deg == 1)
        if ends not in (0, 2):
            raise DiagramError(f"not a disc: link of {v!r} is neither a path nor a cycle")
        on_boundary = v in boundary_set
        if (ends == 2) != on_boundary:
            where = "declared on" if on_boundary else "missing from"
            raise DiagramError(f"vertex {v!r} {where} the boundary contradicts its link")

    # boundary edges (in exactly one triangle) must match the declared cycle
    bedges = {e for e, ts in et.items() if len(ts) == 1}
    if len(d.boundary) < 3 or len(set(d.boundary)) != len(d.boundary):
        raise DiagramError("declared boundary is not a simple cycle")
    declared = d.boundary_edges()
    if declared != bedges:
        raise DiagramError("declared boundary does not match the edges lying in one triangle")

    for v in d.boundary:
        if d.types[v] == 0:
            raise DiagramError(
                f"boundary visits type-0 vertex {v!r}; diagram is not polygonalizable"
            )

    for v in sorted(d.transitions):
        if v not in boundary_set:
            raise DiagramError(f"transition marking {v!r} is off the boundary")
        if d.types[v] != 2:
            raise DiagramError(f"transition marking {v!r} is not a type-2 vertex")
    if d.basepoint is not None:
        if d.basepoint not in boundary_set:
            raise DiagramError(f"basepoint {d.basepoint!r} is off the boundary")
        if d.types[d.basepoint] != 2:
            raise DiagramError(f"basepoint {d.basepoint!r} is not a type-2 vertex")
    d.__dict__["_validated"] = True


def load_diagram(text: str) -> DiscDiagram:
    """Parse and fully validate the JSON diagram schema."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"bad JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DiagramError("bad diagram schema: the top level must be an object")
    try:
        raw = {key: data[key] for key in ("triangles", "types", "boundary")}
    except KeyError as exc:
        raise DiagramError(f"bad diagram schema: missing key {exc}") from None
    raw["transitions"] = data.get("transitions", [])
    for key in ("triangles", "boundary", "transitions"):
        if not isinstance(raw[key], list):
            raise DiagramError(f"bad diagram schema: {key!r} must be a list")
    types = raw["types"]
    # bool is a subclass of int, so the exact type is tested
    if not isinstance(types, dict) or any(type(ty) is not int for ty in types.values()):
        raise DiagramError("bad diagram schema: 'types' must map vertex names to integers")
    for t in raw["triangles"]:
        if not isinstance(t, list) or len(t) != 3:
            raise DiagramError(f"triangle {t} is not a list of three vertices")
    bp = data.get("basepoint")
    names = [v for t in raw["triangles"] for v in t] + raw["boundary"] + raw["transitions"]
    for v in names + ([] if bp is None else [bp]):
        if not isinstance(v, str):
            raise DiagramError(f"bad diagram schema: vertex name {json.dumps(v)} is not a string")
    triangles = tuple(tuple(t) for t in raw["triangles"])
    d = DiscDiagram(triangles, types, tuple(raw["boundary"]), frozenset(raw["transitions"]), bp)
    validate(d)
    return d


def dump_diagram(d: DiscDiagram) -> str:
    return json.dumps(
        {
            "triangles": [list(t) for t in d.triangles],
            "types": {v: d.types[v] for v in sorted(d.types)},
            "boundary": list(d.boundary),
            "transitions": sorted(d.transitions),
            "basepoint": d.basepoint,
        },
        indent=2,
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# Polygonal structure.

@dataclass(frozen=True)
class Polygon:
    center: str
    cycle: tuple[str, ...]  # alternating type-1 / type-2 vertices


@dataclass(frozen=True)
class PolygonalDiagram:
    polygons: tuple[Polygon, ...]
    types: dict[str, int]
    boundary: tuple[str, ...]


def polygonalize(d: DiscDiagram) -> PolygonalDiagram:
    """Erase each type-0 vertex and replace its star with a polygon on its link."""
    for v in d.boundary:
        if d.types[v] == 0:
            raise DiagramError(f"type-0 vertex {v!r} on the boundary; cannot polygonalize")
    polygons = []
    for c in sorted(v for v in d.vertex_names() if d.types[v] == 0):
        link: dict[str, list[str]] = {}
        for t in d.vertex_triangles[c]:
            a, b = (x for x in t if x != c)
            link.setdefault(a, []).append(b)
            link.setdefault(b, []).append(a)
        start = min(link)
        prev, cur = None, start
        cycle = []
        while True:
            cycle.append(cur)
            nxts = sorted(x for x in link[cur] if x != prev)
            if not nxts:
                raise DiagramError(f"link of interior type-0 vertex {c!r} is not a cycle")
            prev, cur = cur, nxts[0]
            if cur == start:
                break
        polygons.append(Polygon(c, tuple(cycle)))
    types = {v: t for v, t in d.types.items() if t != 0}
    return PolygonalDiagram(tuple(polygons), types, d.boundary)


# ---------------------------------------------------------------------------
# Curvature.

@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CurvatureReport:
    vertex_kappa: dict[str, int]
    polygon_kappa: dict[str, int]
    n_polygons: dict[str, int]
    transition_class: dict[str, str]
    basepoint_class: str | None
    corners: tuple[str, ...]
    total: int
    checks: tuple[Check, ...]

    @property
    def flagged(self) -> bool:
        return any(not c.passed for c in self.checks)


def _classify_marked(n: int) -> str:
    if n == 1:
        return "corner"
    if n >= 5:
        return "almost-corner"
    return f"violation(n={n})"


def curvatures(d: DiscDiagram) -> CurvatureReport:
    """Exact per-vertex and per-polygon curvature with the n_v dichotomy audit."""
    if "_validated" not in d.__dict__:
        validate(d)
    boundary_set = set(d.boundary)
    incident = d.vertex_triangles
    names = d.vertex_names()

    vertex_kappa: dict[str, int] = {}
    n_polygons: dict[str, int] = {}
    for v in names:
        ty = d.types[v]
        if ty == 0:
            continue
        base = 6 if v in boundary_set else FULL_TURN
        vertex_kappa[v] = base - ANGLE_UNITS[ty] * len(incident[v])
        n_polygons[v] = len({c for t in incident[v] for c in t if d.types[c] == 0})

    polygon_kappa = {
        c: FULL_TURN - ANGLE_UNITS[0] * len(incident[c]) for c in names if d.types[c] == 0
    }

    transition_class = {v: _classify_marked(n_polygons[v]) for v in sorted(d.transitions)}
    basepoint_class = None
    if d.basepoint is not None:
        basepoint_class = f"basepoint(n={n_polygons[d.basepoint]})"

    corners = tuple(
        sorted(
            {v for v in d.transitions if n_polygons[v] == 1}
            | ({d.basepoint} if d.basepoint is not None and n_polygons[d.basepoint] == 1 else set())
        )
    )

    total = sum(vertex_kappa.values()) + sum(polygon_kappa.values())
    checks = [Check("gauss_bonnet", total == FULL_TURN, f"total={total}")]
    bad = [v for v, cls in transition_class.items() if cls.startswith("violation")]
    checks.append(
        Check(
            "transition_dichotomy",
            not bad,
            "all marked transitions have n=1 or n>=5" if not bad else f"violators={bad}",
        )
    )
    return CurvatureReport(
        vertex_kappa,
        polygon_kappa,
        n_polygons,
        transition_class,
        basepoint_class,
        corners,
        total,
        tuple(checks),
    )


# ---------------------------------------------------------------------------
# Redistribution.

@dataclass(frozen=True)
class CornerCell:
    center: str
    outer_path: tuple[str, ...]
    inner_path: tuple[str, ...]
    end_vertices: tuple[str, str]
    corners: tuple[str, ...]
    specials: tuple[str, ...]


@dataclass(frozen=True)
class RedistributedReport:
    corner_cells: tuple[CornerCell, ...]
    special_counts: dict[str, int]
    vertex_kappa2: dict[str, int]
    polygon_kappa2: dict[str, int]
    total: int
    checks: tuple[Check, ...]
    flagged: bool = field(default=False)


def _arc_split(polygon: Polygon, boundary_edges: frozenset[Edge]):
    """Split the polygon cycle into its boundary arc and the complementary arc.

    Returns (outer, inner, connected) where outer and inner are vertex paths
    sharing their endpoints; `connected` records whether the polygon meets the
    diagram boundary in a single arc with no stray boundary vertices.
    """
    cyc = polygon.cycle
    n = len(cyc)
    on_bd = [
        _edge(cyc[i], cyc[(i + 1) % n]) in boundary_edges for i in range(n)
    ]
    outer_idx = [i for i, b in enumerate(on_bd) if b]
    if not outer_idx or all(on_bd):
        return None
    # locate maximal cyclic runs of boundary edges
    runs: list[list[int]] = []
    for i in range(n):
        if on_bd[i] and not on_bd[(i - 1) % n]:
            j = i
            run = []
            while on_bd[j % n]:
                run.append(j % n)
                j += 1
            runs.append(run)
    runs.sort(key=len, reverse=True)
    run = runs[0]
    outer = [cyc[run[0]]] + [cyc[(i + 1) % n] for i in run]
    start = run[-1] + 1
    inner = [cyc[(start + k) % n] for k in range(n - len(run) + 1)]
    connected = len(runs) == 1
    return outer, inner, connected


def redistribute(d: DiscDiagram) -> RedistributedReport:
    """Corner-cell detection, kappa' assignment, and the inequality audit."""
    base = curvatures(d)
    poly = polygonalize(d)
    if len(poly.polygons) <= 1:
        raise PreconditionError("redistribution needs more than one polygon")
    if not base.corners:
        raise PreconditionError("redistribution needs at least one corner")

    boundary_edges = d.boundary_edges()
    boundary_set = set(d.boundary)
    corner_set = set(base.corners)

    checks: list[Check] = list(base.checks)
    corner_cells: list[CornerCell] = []
    special_counts: dict[str, int] = {}
    for p in poly.polygons:
        cell_corners = tuple(sorted(set(p.cycle) & corner_set))
        if not cell_corners:
            continue
        split = _arc_split(p, boundary_edges)
        if split is None:
            checks.append(
                Check(
                    "corner_cell_boundary_connected",
                    False,
                    f"cell {p.center}: boundary intersection empty or everything",
                )
            )
            continue
        outer, inner, connected = split
        stray = (set(p.cycle) & boundary_set) - set(outer)
        if not connected or stray:
            checks.append(
                Check(
                    "corner_cell_boundary_connected",
                    False,
                    f"cell {p.center}: intersection with the boundary is not one arc",
                )
            )
        else:
            checks.append(
                Check("corner_cell_boundary_connected", True, f"cell {p.center}")
            )
        inner_type2 = [v for v in inner if d.types[v] == 2]
        checks.append(
            Check(
                "inner_path_two_type2",
                len(inner_type2) >= 2,
                f"cell {p.center}: {len(inner_type2)} type-2 vertices on the inner path",
            )
        )
        specials = tuple(dict.fromkeys([inner_type2[0], inner_type2[-1]])) if inner_type2 else ()
        for v in specials:
            special_counts[v] = special_counts.get(v, 0) + 1
        corner_cells.append(
            CornerCell(
                center=p.center,
                outer_path=tuple(outer),
                inner_path=tuple(inner),
                end_vertices=(outer[0], outer[-1]),
                corners=cell_corners,
                specials=specials,
            )
        )

    for v, cnt in sorted(special_counts.items()):
        checks.append(
            Check(
                "special_multiplicity",
                cnt <= 2,
                f"{v}: special vertex of {cnt} corner-cells",
            )
        )

    corner_centers = {c.center for c in corner_cells}
    vertex_kappa2 = {
        v: k + 2 * special_counts.get(v, 0) for v, k in base.vertex_kappa.items()
    }
    polygon_kappa2 = {
        c: k - 4 if c in corner_centers else k for c, k in base.polygon_kappa.items()
    }
    total = sum(vertex_kappa2.values()) + sum(polygon_kappa2.values())

    checks.append(Check("kappa2_conservation", total == FULL_TURN, f"total={total}"))
    for v in base.corners:
        checks.append(
            Check("corner_kappa2", vertex_kappa2[v] == 4, f"{v}: kappa'={vertex_kappa2[v]}")
        )
    if d.basepoint is not None and d.basepoint not in corner_set:
        checks.append(
            Check(
                "basepoint_bound",
                vertex_kappa2[d.basepoint] <= 6,
                f"{d.basepoint}: kappa'={vertex_kappa2[d.basepoint]}",
            )
        )
    offenders = [
        v
        for v, k in sorted(vertex_kappa2.items())
        if k > 0 and v not in corner_set and v != d.basepoint
    ]
    checks.append(
        Check(
            "other_vertices_nonpositive",
            not offenders,
            "ok" if not offenders else f"positive kappa' at {offenders}",
        )
    )
    cell_offenders = [
        c for c, k in sorted(polygon_kappa2.items()) if k > 0 and c not in corner_centers
    ]
    checks.append(
        Check(
            "noncorner_cells_nonpositive",
            not cell_offenders,
            "ok" if not cell_offenders else f"positive kappa' at cells {cell_offenders}",
        )
    )
    for cell in corner_cells:
        group = polygon_kappa2[cell.center] + sum(vertex_kappa2[v] for v in cell.corners)
        checks.append(
            Check(
                "corner_cell_group",
                group <= 0,
                f"cell {cell.center}: kappa'(P)+sum corners = {group}",
            )
        )

    flagged = any(not c.passed for c in checks)
    return RedistributedReport(
        tuple(corner_cells),
        special_counts,
        vertex_kappa2,
        polygon_kappa2,
        total,
        tuple(checks),
        flagged,
    )


# ---------------------------------------------------------------------------
# Builders for star-shaped diagrams (used by demos and test generators).

def star_diagram(k: int, transitions=(), basepoint: str | None = None) -> DiscDiagram:
    """A single 2k-gon: 2k triangles around one interior type-0 vertex."""
    if k < 3:
        raise PreconditionError("a polygon needs at least 3 type-2 vertices (k >= 3)")
    rim = [f"v{i}" for i in range(2 * k)]
    types = {"P0": 0}
    for i, v in enumerate(rim):
        types[v] = 1 if i % 2 == 0 else 2
    triangles = tuple(("P0", rim[i], rim[(i + 1) % (2 * k)]) for i in range(2 * k)
                      )
    return DiscDiagram(triangles, types, tuple(rim), frozenset(transitions), basepoint)


_FRESH_RE = re.compile(r"([Pv])(\d+)\Z")


def _fresh_indices(d: DiscDiagram) -> tuple[int, int]:
    """One scan of the names: one past the largest index of P<i> and of v<i>."""
    best = {"P": -1, "v": -1}
    for v in d.types:
        mm = _FRESH_RE.match(v)
        if mm:
            prefix, index = mm.groups()
            best[prefix] = max(best[prefix], int(index))
    return best["P"] + 1, best["v"] + 1


def _find_on_boundary(bnd: tuple[str, ...], path: tuple[str, ...]) -> tuple[int, bool] | None:
    """(position, forward) of the first cyclic window of the boundary `bnd`
    that reads `path` forwards or backwards, as a scan over every position
    finds it (a window reading it both ways counts as forward), or None."""
    n = len(bnd)
    hits = []
    for backward, seq in ((False, path), (True, path[::-1])):
        i = -1
        while True:
            try:
                i = bnd.index(seq[0], i + 1)
            except ValueError:
                break
            if all(bnd[(i + j) % n] == x for j, x in enumerate(seq)):
                hits.append((i, backward))
                break
    if not hits:
        return None
    pos, backward = min(hits)
    return pos, not backward


def _star(d: DiscDiagram, path: tuple[str, ...], k: int, forward: bool,
          head: tuple[str, ...], tail: tuple[str, ...]) -> DiscDiagram:
    """`d` with a fresh 2k-gon glued along the boundary path `path`, which the
    boundary reads forwards or backwards; the new boundary is `head`, the
    fresh rim, then `tail`.  The polygon's cycle is `path` then the fresh rim;
    a fresh vertex at cycle position p takes the type of the path's vertex p % 2."""
    if k < 3:
        raise PreconditionError("a polygon needs at least 3 type-2 vertices (k >= 3)")
    p, v = d._next_indices
    c = f"P{p}"
    fresh = tuple(f"v{v + i}" for i in range(2 * k - len(path)))
    cycle = path + fresh
    types = d.types.copy()
    types[c] = 0
    for q in range(len(path), 2 * k):
        types[cycle[q]] = d.types[cycle[q % 2]]
    triangles = d.triangles + tuple((c, cycle[i], cycle[(i + 1) % (2 * k)]) for i in range(2 * k))
    insert = fresh[::-1] if forward else fresh
    out = DiscDiagram(triangles, types, head + insert + tail, d.transitions, d.basepoint)
    out.__dict__["_next_indices"] = (p + 1, v + len(fresh))
    return out


def attach_star(d: DiscDiagram, u: str, v: str, k: int) -> DiscDiagram:
    """Glue a fresh 2k-gon along the boundary edge (u, v).

    The result is again a disc; all previously marked data is preserved.
    """
    found = _find_on_boundary(d.boundary, (u, v))
    if found is None:
        raise PreconditionError(f"({u},{v}) is not a boundary edge")
    if {d.types[u], d.types[v]} != {1, 2}:
        raise PreconditionError("can only glue along a type-1/type-2 edge")
    pos, forward = found
    # boundary ... u v ... becomes u fresh[-1] ... fresh[0] v;
    # boundary ... v u ... becomes v fresh[0] ... fresh[-1] u
    return _star(d, (u, v), k, forward, d.boundary[: pos + 1], d.boundary[pos + 1 :])


def attach_star_two(d: DiscDiagram, u: str, w: str, v: str, k: int) -> DiscDiagram:
    """Glue a fresh 2k-gon along the two consecutive boundary edges (u,w),(w,v).

    The pivot w becomes interior when these were its last boundary edges.
    Gluing across a type-1 pivot leaves the new polygon with an inner path
    whose first and last type-2 vertices are distinct (u and v)."""
    found = _find_on_boundary(d.boundary, (u, w, v))
    if found is None:
        raise PreconditionError(f"({u},{w},{v}) is not a boundary path")
    pos, forward = found
    # the boundary, rotated to start at the glued path, with the pivot w
    # replaced by the new rim between the two outer vertices
    rot = d.boundary[pos:] + d.boundary[:pos]
    return _star(d, (u, w, v), k, forward, rot[:1], rot[2:])


def with_markings(d: DiscDiagram, transitions, basepoint: str | None) -> DiscDiagram:
    return DiscDiagram(d.triangles, d.types, d.boundary, frozenset(transitions), basepoint)
