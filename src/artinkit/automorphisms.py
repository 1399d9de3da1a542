"""Generator maps, edge-twists, automorphism generating sets, and deciders.

A GeneratorMap sends each standard generator of a source graph to a word over
the target graph's generators.  Equality of maps is syntactic on freely
reduced words; no normal form exists in rank >= 3, so recorded factorizations
are the only composition evidence kept.

Edge-twists reglue one side of a separating edge e = {a, b} through
conjugation by the distinguished element of the dihedral subgroup on e; the
twisted graph equals the original when the label of e is even and swaps the
attachments of a and b on the chosen side when it is odd.  The twist family
explores the closure breadth-first with edges and sides ordered
lexicographically, so the canonical isomorphisms back to the base graph are
reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .decomposition import _components_without, chunks, cut_vertices, separating_edges
from .dihedral import words_equal
from .errors import HypothesisError, PreconditionError, WordError
from .presentation import (
    Edge,
    PresentationGraph,
    TypeFlags,
    classify,
    labelled_embeddings,
    labelled_isomorphisms,
)
from .words import Word, alt_product, generator

__all__ = [
    "GeneratorMap",
    "Verdict",
    "TwistFamily",
    "TwistEdge",
    "HomShape",
    "VerifyResult",
    "identity_map",
    "conjugation_map",
    "graph_auto_map",
    "inversion_map",
    "compose",
    "graph_hash",
    "edge_twist",
    "twist_family",
    "aut_generators",
    "decide_out_finite",
    "decide_cohopfian",
    "proper_self_embedding",
    "hom_shapes",
    "labelled_embeddings",
    "verify_standard_form",
]


def graph_hash(g: PresentationGraph) -> str:
    return hashlib.sha256(g.serialize().encode()).hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class GeneratorMap:
    """`tag` and `note` only label reports.  `evidence` records how the library
    built the map, and `verify_standard_form` routes on nothing else:
    ("identity",) from `identity_map`, ("iso",) from `graph_auto_map`,
    ("twist", a, b, side, direction) from `edge_twist`, ("composite", *factors)
    from `compose`, and () for every other map, the constructor's included.
    `assignment` is a read-only view of the map's own copy."""
    source: PresentationGraph
    target: PresentationGraph
    assignment: Mapping[str, Word]
    tag: str
    note: str = ""
    evidence: tuple = field(default=(), init=False)

    def __post_init__(self):
        if set(self.assignment) != set(self.source.vertices):
            raise PreconditionError("assignment must cover exactly the source generators")
        tgt = set(self.target.vertices)
        for v, w in self.assignment.items():
            extra = w.generator_names() - tgt
            if extra:
                raise PreconditionError(
                    f"image of {v!r} uses non-target generators {sorted(extra)}"
                )
        object.__setattr__(self, "assignment", MappingProxyType(dict(self.assignment)))

    def _with_evidence(self, *evidence) -> GeneratorMap:
        """Attach how the library built this map; called only where it is built."""
        object.__setattr__(self, "evidence", evidence)
        return self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GeneratorMap)
            and self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    def __hash__(self):
        return hash(
            (self.source, self.target, tuple(sorted((v, w.letters) for v, w in self.assignment.items())))
        )

    def apply(self, w: Word) -> Word:
        return w.substitute(self.assignment)

    def serialize(self) -> str:
        lines = [
            f"# map tag={self.tag}" + (f" note={self.note}" if self.note else ""),
            f"source {graph_hash(self.source)}",
            f"target {graph_hash(self.target)}",
        ]
        lines += [f"{v} -> {self.assignment[v]}" for v in self.source.vertices]
        return "\n".join(lines) + "\n"


def identity_map(g: PresentationGraph) -> GeneratorMap:
    mp = GeneratorMap(g, g, {v: generator(v) for v in g.vertices}, "identity")
    return mp._with_evidence("identity")


def conjugation_map(g: PresentationGraph, h: Word) -> GeneratorMap:
    return GeneratorMap(
        g,
        g,
        {v: h * generator(v) * h.inverse() for v in g.vertices},
        "conjugation",
        note=f"by {h}",
    )


def graph_auto_map(
    g: PresentationGraph, perm: dict[str, str], target: PresentationGraph | None = None
) -> GeneratorMap:
    tgt = g if target is None else target
    tag = "graph-auto" if target is None or target == g else "graph-iso"
    assignment = {v: generator(perm[v]) for v in g.vertices if v in perm}
    return GeneratorMap(g, tgt, assignment, tag)._with_evidence("iso")


def inversion_map(g: PresentationGraph) -> GeneratorMap:
    return GeneratorMap(g, g, {v: generator(v, -1) for v in g.vertices}, "inversion")


def _parts(m: GeneratorMap) -> tuple[GeneratorMap, ...]:
    match m.evidence:
        case ("identity",):
            return ()
        case ("composite", *factors):
            return tuple(factors)
    return (m,)


def compose(outer: GeneratorMap, inner: GeneratorMap) -> GeneratorMap:
    """outer after inner; the factor list keeps application order."""
    if inner.target != outer.source:
        raise PreconditionError("compose: inner target and outer source differ")
    assignment = {v: outer.apply(w) for v, w in inner.assignment.items()}
    factors = _parts(inner) + _parts(outer)
    if not factors:
        return identity_map(inner.source)
    if len(factors) == 1 and assignment == factors[0].assignment:
        return factors[0]
    mp = GeneratorMap(inner.source, outer.target, assignment, "composite")
    return mp._with_evidence("composite", *factors)


# ---------------------------------------------------------------------------
# Edge twists and the twist family.

def _delta(a: str, b: str, m: int) -> Word:
    x, y = (a, b) if a <= b else (b, a)
    return alt_product(generator(x), generator(y), m)


def _twist_sides(
    g: PresentationGraph, e: Edge, root: frozenset[str] | None = None
) -> list[frozenset[str]]:
    """Valid regluing sides for a separating edge: e plus a nonempty proper
    union of components of the graph minus its endpoints.

    With `root` given, only components disjoint from the root vertex set are
    eligible (sides hanging away from the anchor chunk)."""
    a, b = e
    comps = _components_without(g, e)
    if root is not None:
        usable = [c for c in comps if not (set(c) & (root - {a, b}))]
        top = len(usable)
    else:
        usable = comps
        top = len(comps) - 1
    sides = []
    for r in range(1, top + 1):
        for chosen in itertools.combinations(usable, r):
            if len(chosen) == len(comps):
                continue
            sides.append(frozenset({a, b}.union(*chosen)))
    return sorted(sides, key=lambda s: tuple(sorted(s)))


def edge_twist(
    g: PresentationGraph, e: Edge, side, direction: int = 1
) -> tuple[PresentationGraph, GeneratorMap]:
    """Twist along a separating edge, regluing the induced subgraph on `side`.

    Returns the twisted graph (on the same vertex set) and the isomorphism
    sending generators of the side minus {a, b} to their conjugates by the
    distinguished element of the edge.
    """
    a, b = min(e), max(e)
    if not g.has_edge(a, b):
        raise PreconditionError(f"({a},{b}) is not an edge")
    side = frozenset(side)
    if not {a, b} <= side:
        raise PreconditionError("side must contain both endpoints of the edge")
    inner = side - {a, b}
    outer = set(g.vertices) - side
    if not inner or not outer:
        raise PreconditionError("both parts must contain a vertex outside the other")
    comps = {frozenset(c) for c in _components_without(g, (a, b))}
    if len(comps) < 2:
        raise PreconditionError(f"({a},{b}) is not a separating edge")
    chosen = {c for c in comps if c <= inner}
    covered = set().union(*chosen) if chosen else set()
    if covered != inner:
        raise PreconditionError("side is not a union of components of the graph minus the edge")
    if direction not in (1, -1):
        raise PreconditionError("direction must be +1 or -1")

    m = g.label(a, b)
    swap = {a: b, b: a} if m % 2 == 1 else {}
    new_edges: dict[Edge, int] = {}
    for u, v, lab in g.edges():
        if u in side and v in side:
            u2, v2 = swap.get(u, u), swap.get(v, v)
        else:
            u2, v2 = u, v
        key = (u2, v2) if u2 <= v2 else (v2, u2)
        new_edges[key] = lab
    twisted = PresentationGraph(g.vertices, [(u, v, lab) for (u, v), lab in new_edges.items()])

    delta = _delta(a, b, m) ** direction
    assignment = {}
    for v in g.vertices:
        if v in inner:
            assignment[v] = delta * generator(v) * delta.inverse()
        else:
            assignment[v] = generator(v)
    mp = GeneratorMap(
        g,
        twisted,
        assignment,
        "twist",
        note=f"edge=({a},{b}) side={{{','.join(sorted(side))}}} dir={direction:+d}",
    )
    return twisted, mp._with_evidence("twist", a, b, side, direction)


def _inverse_twist(mp: GeneratorMap) -> GeneratorMap:
    _, a, b, side, direction = mp.evidence
    _, inv = edge_twist(mp.target, (a, b), side, direction=-direction)
    if inv.target != mp.source:
        raise AssertionError("twist inversion did not return to the source graph")
    return inv


@dataclass(frozen=True)
class TwistEdge:
    src: int
    dst: int
    edge: Edge
    side: tuple[str, ...]
    map: GeneratorMap


@dataclass(frozen=True)
class TwistFamily:
    graphs: tuple[PresentationGraph, ...]
    base_index: int
    canonical_iso: tuple[GeneratorMap, ...]      # member -> base
    canonical_iso_inv: tuple[GeneratorMap, ...]  # base -> member
    twist_edges: tuple[TwistEdge, ...]

    def size(self) -> int:
        return len(self.graphs)


def twist_family(g: PresentationGraph, sides: str = "rooted") -> TwistFamily:
    """Closure of g under edge-twists, breadth-first, deduplicated by
    labelled-graph equality on the fixed vertex set.

    With sides="rooted" (default) the exploration anchors at the
    lexicographically least chunk and only twists sides hanging away from it,
    which is the construction the chunk-tree induction performs; twisting the
    anchor side instead produces a graph differing only by renaming the two
    edge endpoints, so the rooted family carries one representative per
    genuine regluing.  sides="all" performs the unanchored literal closure,
    which also contains those renamed variants.
    """
    if not g.is_connected():
        raise PreconditionError("twist_family needs a connected graph")
    if cut_vertices(g):
        raise PreconditionError("twist_family needs a graph without cut-vertex")
    if sides not in ("rooted", "all"):
        raise PreconditionError("sides must be 'rooted' or 'all'")
    root: frozenset[str] | None = None
    if sides == "rooted" and g.rank() >= 3 and separating_edges(g):
        root = frozenset(chunks(g)[0].vertices)

    members = [g]
    index = {g: 0}
    iso = [identity_map(g)]
    iso_inv = [identity_map(g)]
    edges_out: list[TwistEdge] = []
    # members grows as new graphs are found, so walking it is the breadth-first queue
    for i, cur in enumerate(members):
        for e in separating_edges(cur):
            for side in _twist_sides(cur, e, root):
                twisted, mp = edge_twist(cur, e, side)
                j = index.get(twisted)
                if j is None:
                    j = index[twisted] = len(members)
                    members.append(twisted)
                    iso.append(compose(iso[i], _inverse_twist(mp)))
                    iso_inv.append(compose(mp, iso_inv[i]))
                edges_out.append(TwistEdge(i, j, e, tuple(sorted(side)), mp))
    return TwistFamily(tuple(members), 0, tuple(iso), tuple(iso_inv), tuple(edges_out))


# ---------------------------------------------------------------------------
# Automorphism generating set.

def _require(cond: bool, flag: str) -> None:
    if not cond:
        raise HypothesisError(f"hypothesis violated: {flag}")


def aut_generators(g: PresentationGraph, assume_cstp: bool = False) -> list[GeneratorMap]:
    """The finite generating set: conjugations by standard generators, graph
    automorphisms, the global inversion, and the twist-family composites.

    Proven for graphs where every label is at least 6 (assume_cstp asserts
    the cycle-of-standard-trees hypothesis instead); the graph must be
    connected, not a single edge, and have no cut-vertex.
    """
    flags = classify(g)
    _require(g.is_connected(), "connected")
    _require(not (flags.rank == 2 and len(g.edge_pairs()) == 1), "not-an-edge")
    _require(not cut_vertices(g), "no-cut-vertex")
    if not assume_cstp:
        _require(flags.xxxl, "xxxl (pass assume_cstp=True to assert the cycle property instead)")

    out: list[GeneratorMap] = []
    for v in g.vertices:
        out.append(conjugation_map(g, generator(v)))
    for perm in labelled_isomorphisms(g, g):
        out.append(graph_auto_map(g, perm))
    out.append(inversion_map(g))

    fam = twist_family(g)
    for te in fam.twist_edges:
        out.append(compose(fam.canonical_iso[te.dst], compose(te.map, fam.canonical_iso_inv[te.src])))
    for i in range(fam.size()):
        for j in range(fam.size()):
            if i == j:
                continue
            for perm in labelled_isomorphisms(fam.graphs[i], fam.graphs[j]):
                psi = graph_auto_map(fam.graphs[i], perm, target=fam.graphs[j])
                out.append(compose(fam.canonical_iso[j], compose(psi, fam.canonical_iso_inv[i])))

    # every map runs g -> g, so GeneratorMap equality is equality of assignments
    unique = list(dict.fromkeys(out))

    for mp in unique:
        res = verify_standard_form(mp)
        if res.status != "ACCEPT":
            raise AssertionError(f"emitted map failed verification: {mp.tag} {mp.note} -> {res.status}")
    return unique


# ---------------------------------------------------------------------------
# Deciders.

@dataclass(frozen=True)
class Verdict:
    value: bool
    reason: str
    hypothesis_class: str
    checked_flags: tuple[str, ...]
    witness: GeneratorMap | None = None


def _hypothesis_line(g: PresentationGraph, flags: TypeFlags) -> tuple[str, tuple[str, ...]]:
    checked = (
        f"xxxl={flags.xxxl}",
        f"large={flags.large}",
        f"connected={g.is_connected()}",
        f"rank={flags.rank}",
    )
    cls = "theorem class: XXXL-type (all labels >= 6); more generally Cycle of Standard Trees"
    if not flags.xxxl:
        cls += " [hypotheses NOT satisfied by this input]"
    if flags.rank <= 2:
        cls += " [rank <= 2 lies outside the theorem's regime]"
    return cls, checked


def decide_out_finite(g: PresentationGraph) -> Verdict:
    """Finite outer automorphism group iff connected, not an even edge, and
    without cut-vertex or separating edge."""
    flags = classify(g)
    cls, checked = _hypothesis_line(g, flags)
    if not g.is_connected():
        return Verdict(False, "graph is disconnected", cls, checked)
    if flags.is_even_edge:
        return Verdict(False, "graph is a single even-labelled edge", cls, checked)
    cut = cut_vertices(g)
    if cut:
        return Verdict(False, f"cut-vertex {cut[0]}", cls, checked)
    sep = separating_edges(g)
    if sep:
        return Verdict(False, f"separating edge ({sep[0][0]},{sep[0][1]})", cls, checked)
    return Verdict(
        True, "connected, not an even edge, no cut-vertex, no separating edge", cls, checked
    )


def decide_cohopfian(g: PresentationGraph) -> Verdict:
    """Co-hopfian iff connected, not an edge, and without cut-vertex; the
    cut-vertex case carries a constructive proper self-embedding witness."""
    flags = classify(g)
    cls, checked = _hypothesis_line(g, flags)
    if not g.is_connected():
        return Verdict(False, "graph is disconnected", cls, checked)
    if flags.rank == 2 and len(g.edge_pairs()) == 1:
        return Verdict(False, "graph is a single edge (dihedral groups are not co-hopfian)", cls, checked)
    cut = cut_vertices(g)
    if cut:
        witness = proper_self_embedding(g, cut[0])
        return Verdict(False, f"cut-vertex {cut[0]}", cls, checked, witness=witness)
    return Verdict(True, "connected, not an edge, no cut-vertex", cls, checked)


def _center_word(c: str, a: str, m: int) -> Word:
    delta = alt_product(generator(c), generator(a), m)
    return delta if m % 2 == 0 else delta * delta


def _equal_in_dihedral(m: int, w1: Word, w2: Word, x: str, y: str) -> bool:
    rename = {x: "s", y: "t"}
    def conv(w: Word) -> Word:
        return Word._of(tuple((rename[n], e) for n, e in w))
    return words_equal(m, conv(w1), conv(w2))


def proper_self_embedding(g: PresentationGraph, c: str) -> GeneratorMap:
    """The injective, non-surjective endomorphism attached to a cut-vertex:
    conjugate each side of the split by a centralising element of the other
    side's edge group at c."""
    if c not in g.vertices:
        raise PreconditionError(f"unknown vertex {c!r}")
    if c not in cut_vertices(g):
        raise PreconditionError(f"{c!r} is not a cut-vertex")
    comps = _components_without(g, {c})
    side1 = set(comps[0]) | {c}
    side2 = (set(g.vertices) - set(comps[0]))

    def centraliser(side: set[str]) -> tuple[Word, str, int]:
        a = min(n for n in g.neighbors(c) if n in side)
        m = g.label(c, a)
        if m == 2:
            return generator(a), a, m
        return _center_word(c, a, m), a, m

    h1, a1, m1 = centraliser(side1)
    h2, a2, m2 = centraliser(side2)
    for h, a, m in ((h1, a1, m1), (h2, a2, m2)):
        if not _equal_in_dihedral(m, h * generator(c) * h.inverse(), generator(c), c, a):
            raise AssertionError("centralising element does not centralise the cut-vertex")

    assignment = {}
    for v in g.vertices:
        if v in side1:
            assignment[v] = h2 * generator(v) * h2.inverse()
        else:
            assignment[v] = h1 * generator(v) * h1.inverse()
    return GeneratorMap(
        g,
        g,
        assignment,
        "self-embedding",
        note=f"cut-vertex {c}; sides conjugated by {h2} / {h1}",
    )


# ---------------------------------------------------------------------------
# Hom shapes and standard-form verification.

@dataclass(frozen=True)
class HomShape:
    source_vertices: tuple[str, ...]
    target_vertices: tuple[str, ...]
    iota: tuple[tuple[str, str], ...]
    divisibility: tuple[tuple[Edge, int, int], ...]


def hom_shapes(g: PresentationGraph, h: PresentationGraph) -> list[HomShape]:
    """All finite shape data (S, S', iota) with every source label a multiple
    of the corresponding target label.

    The conjugator and global sign of an actual homomorphism are free
    parameters and are not enumerated.
    """
    for name, gr in (("source", g), ("target", h)):
        flags = classify(gr)
        _require(flags.free_of_infinity, f"{name} complete (free-of-infinity)")
        _require(flags.large, f"{name} large-type")
        _require(flags.hyperbolic_type, f"{name} hyperbolic-type (no (3,3,3) triangle)")
        _require(flags.rank >= 3, f"{name} rank >= 3")

    shapes: list[HomShape] = []
    for size in range(1, g.rank() + 1):
        for sub in itertools.combinations(g.vertices, size):
            for sub2 in itertools.combinations(h.vertices, size):
                for image in itertools.permutations(sub2):
                    iota = dict(zip(sub, image))
                    table = []
                    ok = True
                    for u, v in itertools.combinations(sub, 2):
                        ms = g.label(u, v)
                        mt = h.label(iota[u], iota[v])
                        if ms % mt != 0:
                            ok = False
                            break
                        table.append(((u, v), ms, mt))
                    if ok:
                        shapes.append(
                            HomShape(sub, sub2, tuple(sorted(iota.items())), tuple(table))
                        )
    return shapes


@dataclass(frozen=True)
class VerifyResult:
    status: str  # ACCEPT | UNVERIFIABLE | REJECT
    details: tuple[str, ...]


def _parse_conjugated_generator(w: Word) -> tuple[Word, str, int]:
    """Split a reduced word as arm * x^e * arm^-1; raises WordError otherwise."""
    n = len(w.letters)
    if n % 2 == 0:
        raise WordError(f"{w} is not a conjugated generator power")
    half = n // 2
    arm = Word._of(w.letters[:half])
    mid_name, mid_sign = w.letters[half]
    if (arm * Word._of(w.letters[half:half + 1]) * arm.inverse()).letters != w.letters:
        raise WordError(f"{w} is not a conjugated generator power")
    return arm, mid_name, mid_sign


def verify_standard_form(mp: GeneratorMap) -> VerifyResult:
    """ACCEPT when the map is certifiably of the conjugated-embedding shape.

    The route follows the map's evidence, never its tag.  Composites are
    accepted when every factor verifies (twists are checked structurally
    against their separating-edge data).  For direct maps, each assignment
    must parse as arm * x^e * arm^-1 with a uniform sign; every defining
    relation of the source is then either recycled syntactically or decided
    inside a dihedral standard parabolic of the target.  A relation that
    cannot be placed in such a parabolic makes the verdict UNVERIFIABLE; a
    relation decided false makes it REJECT.
    """
    match mp.evidence:
        case ("twist", *_):
            return _verify_twist(mp)
        case ("iso",):
            perm = {}
            for v, w in mp.assignment.items():
                if len(w.letters) != 1 or w.letters[0][1] != 1:
                    return VerifyResult("UNVERIFIABLE", (f"{v} image is not a generator",))
                perm[v] = w.letters[0][0]
            good = (
                len(set(perm.values())) == mp.source.rank() == mp.target.rank()
                and all(
                    mp.target.has_edge(perm[u], perm[v])
                    and mp.target.label(perm[u], perm[v]) == m
                    for u, v, m in mp.source.edges()
                )
                and len(mp.source.edge_pairs()) == len(mp.target.edge_pairs())
            )
            return VerifyResult(
                "ACCEPT" if good else "REJECT",
                ("labelled isomorphism" if good else "not a labelled isomorphism",),
            )
        case ("identity",):
            return VerifyResult("ACCEPT", ())
        case ("composite", *factors):
            details: list[str] = []
            for k, f in enumerate(factors):
                sub = verify_standard_form(f)
                details.append(f"factor {k} ({f.tag}): {sub.status}")
                if sub.status != "ACCEPT":
                    return VerifyResult(sub.status, tuple(details + list(sub.details)))
            return VerifyResult("ACCEPT", tuple(details))
    return _verify_direct(mp)


def _verify_twist(f: GeneratorMap) -> VerifyResult:
    _, a, b, side, direction = f.evidence
    try:
        expected_graph, expected = edge_twist(f.source, (a, b), side, direction)
    except PreconditionError as exc:
        return VerifyResult("REJECT", (f"twist data invalid: {exc}",))
    if expected_graph != f.target or expected.assignment != f.assignment:
        return VerifyResult("REJECT", ("twist does not match its separating-edge data",))
    return VerifyResult("ACCEPT", (f"edge-twist at ({a},{b})",))


def _verify_direct(mp: GeneratorMap) -> VerifyResult:
    arms: dict[str, Word] = {}
    heads: dict[str, str] = {}
    signs: dict[str, int] = {}
    for v in mp.source.vertices:
        try:
            arm, name, sign = _parse_conjugated_generator(mp.assignment[v])
        except WordError as exc:
            raise PreconditionError(f"malformed map: {exc}") from None
        arms[v], heads[v], signs[v] = arm, name, sign

    details: list[str] = []
    if len(set(signs.values())) > 1:
        return VerifyResult("UNVERIFIABLE", ("mixed exponent signs across generators",))

    status = "ACCEPT"
    for u, v in mp.source.edge_pairs():
        m_src = mp.source.label(u, v)
        verdict = None
        for hcand in (arms[u], arms[v]):
            qu = hcand.inverse() * mp.assignment[u] * hcand
            qv = hcand.inverse() * mp.assignment[v] * hcand
            names = qu.generator_names() | qv.generator_names()
            if len(names) > 2:
                continue
            if len(names) == 1:
                # both images are powers of one generator; the relation lives
                # in Z and holds iff the two sides have equal exponent sums
                e1, e2 = qu.exponent_sum(), qv.exponent_sum()
                holds = m_src % 2 == 0 or e1 == e2
                verdict = (
                    ("UNVERIFIABLE", f"({u},{v}): images coincide on one generator")
                    if holds
                    else ("REJECT", f"({u},{v}): relation fails on exponent sums")
                )
                break
            x, y = sorted(names)
            if not mp.target.has_edge(x, y):
                verdict = (
                    "UNVERIFIABLE",
                    f"({u},{v}): lands on the non-edge ({x},{y}) of the target",
                )
                break
            m_t = mp.target.label(x, y)
            if (
                m_t == m_src
                and qu.letters in (((x, 1),), ((y, 1),))
                and qv.letters in (((x, 1),), ((y, 1),))
                and qu != qv
            ):
                # the image is literally a defining relation of the target
                verdict = ("ACCEPT", f"({u},{v}): defining relation of ({x},{y})")
                break
            lhs = alt_product(qu, qv, m_src)
            rhs = alt_product(qv, qu, m_src)
            if _equal_in_dihedral(m_t, lhs, rhs, x, y):
                verdict = ("ACCEPT", f"({u},{v}): checked in the dihedral parabolic ({x},{y})")
            else:
                verdict = ("REJECT", f"({u},{v}): relation fails in the dihedral parabolic ({x},{y})")
            break
        if verdict is None:
            verdict = (
                "UNVERIFIABLE",
                f"({u},{v}): no conjugation places the relation in a dihedral parabolic "
                "(rank >= 3 word problem required)",
            )
        details.append(verdict[1])
        if verdict[0] == "REJECT":
            return VerifyResult("REJECT", tuple(details))
        if verdict[0] == "UNVERIFIABLE":
            status = "UNVERIFIABLE"
    return VerifyResult(status, tuple(details))
