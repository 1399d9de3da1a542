"""Seeded input generators and independent truths for the four workloads.

Standard library only: nothing here imports artinkit, so every expected answer
(construction-time verdicts, closed-form ball sizes, planned polygon
curvatures, the bitmask chunk oracle, brute-force automorphism counts) is
computed without the library under test.

Every generator takes a ``random.Random`` or a (seed, cycle) pair and is a
pure function of it.  A cycle is one pass over a workload's fixed strata; the
strata are the same in every cycle and every seed, only the random content
inside them changes, so two seeds load the program with the same mix.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

Letter = tuple[str, int]
OTHER = {"s": "t", "t": "s"}


def cycle_rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{cycle}")


# ---------------------------------------------------------------------------
# Words.

def free_reduce(letters) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for name, sign in letters:
        if stack and stack[-1] == (name, -sign):
            stack.pop()
        else:
            stack.append((name, sign))
    return tuple(stack)


def inverse(letters) -> tuple[Letter, ...]:
    return tuple((name, -sign) for name, sign in reversed(letters))


def word_text(letters) -> str:
    return " ".join(n if e == 1 else f"{n}^-1" for n, e in letters)


def random_word(rng: random.Random, length: int, p_inverse: float) -> tuple[Letter, ...]:
    """A freely reduced word of exactly `length` letters over s, t."""
    out: list[Letter] = []
    while len(out) < length:
        letter = (rng.choice("st"), -1 if rng.random() < p_inverse else 1)
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return tuple(out)


def alternating(first: str, k: int) -> tuple[Letter, ...]:
    return tuple((first if i % 2 == 0 else OTHER[first], 1) for i in range(k))


def relator(m: int) -> tuple[Letter, ...]:
    """Pi(s,t;m) Pi(t,s;m)^-1, the identity of the group."""
    return alternating("s", m) + inverse(alternating("t", m))


def quotient_key(m: int, letters) -> tuple:
    """Exponent sum and the image in the quotient by the centre (m >= 3).

    For odd m the quotient is C2 * Cm on x = Pi(s,t;m), y = st, with
    s = y^-(m-1)/2 x and t = x^-1 y^(m+1)/2; for even m it is Z * C_{m/2} on
    x = s, y = st, with t = x^-1 y.  Together with the exponent sum this
    determines the element, so equal keys mean equal elements.
    """
    if m % 2:
        images = {"s": (("y", -(m - 1) // 2), ("x", 1)), "t": (("x", -1), ("y", (m + 1) // 2))}
        order = {"x": 2, "y": m}
    else:
        images = {"s": (("x", 1),), "t": (("x", -1), ("y", 1))}
        order = {"x": 0, "y": m // 2}
    syllables: list[list] = []
    for name, sign in letters:
        seq = images[name] if sign == 1 else tuple((g, -e) for g, e in reversed(images[name]))
        for g, e in seq:
            if syllables and syllables[-1][0] == g:
                e += syllables.pop()[1]
            if order[g]:
                e %= order[g]
            if e:
                syllables.append([g, e])
    return sum(sign for _, sign in letters), tuple(map(tuple, syllables))


# ---------------------------------------------------------------------------
# nf-long: pairs of long words, equal or unequal by construction.

NF_MS = (3, 4, 5, 7, 9)
NF_INVERSE_SHARE = (0.0, 0.125, 0.25, 0.375, 0.5)
NF_LETTERS = (200, 360, 650, 1170, 2100)


@dataclass(frozen=True)
class NfCase:
    m: int
    letters: int
    p_inverse: float
    equal: bool
    w1: str
    w2: str


def nf_pair(rng: random.Random, m: int, length: int, p_inverse: float, equal: bool):
    """(w1, w2): w2 is w1 with a conjugated relator inserted, and for an
    unequal pair also one letter inverted, which moves the exponent sum by 2."""
    w1 = random_word(rng, length, p_inverse)
    conj = random_word(rng, rng.randint(0, 3), 0.5)
    at = rng.randrange(len(w1) + 1)
    w2 = list(w1[:at] + conj + relator(m) + inverse(conj) + w1[at:])
    if not equal:
        i = rng.randrange(len(w2))
        w2[i] = (w2[i][0], -w2[i][1])
    return w1, free_reduce(w2)


def nf_cycle(seed: int, cycle: int) -> list[NfCase]:
    """25 pairs: every m against every inverse share once, the length set by a
    Latin square so each length also meets every m and every share once."""
    rng = cycle_rng("nf-long", seed, cycle)
    out = []
    for i, m in enumerate(NF_MS):
        for j, p in enumerate(NF_INVERSE_SHARE):
            length = NF_LETTERS[(i + j) % len(NF_LETTERS)]
            equal = (i * len(NF_INVERSE_SHARE) + j + cycle) % 2 == 0
            w1, w2 = nf_pair(rng, m, length, p, equal)
            out.append(NfCase(m, length, p, equal, word_text(w1), word_text(w2)))
    return out


# ---------------------------------------------------------------------------
# dual-tree: axis pairs and tree balls.

DT_RADIUS = {3: 6, 4: 4, 5: 3, 6: 3, 7: 3, 8: 3, 9: 3}  # ball radius per m
DT_KINDS = ("cyclic", "shared", "independent", "independent")


def ball_size(m: int, r: int) -> int:
    """Simplices in the radius-r ball of the regular m-valent dual tree."""
    return 1 + m * ((m - 1) ** r - 1) // (m - 2)


@dataclass(frozen=True)
class Axis:
    conj: tuple[Letter, ...]
    base: str
    sign: int

    def text(self) -> str:
        return f"{word_text(self.conj) or '1'}|{self.base}|{self.sign:+d}"

    def element(self) -> tuple[Letter, ...]:
        return free_reduce(self.conj + ((self.base, self.sign),) + inverse(self.conj))


@dataclass(frozen=True)
class PairCase:
    m: int
    kind: str  # how the pair was built: cyclic | shared | independent
    x: Axis
    y: Axis
    cyclic: bool  # equal up to inversion, decided by quotient_key


@dataclass(frozen=True)
class BallCase:
    m: int
    r: int


def _axis(rng: random.Random, conj, base=None) -> Axis:
    return Axis(free_reduce(conj), base or rng.choice("st"), rng.choice((1, -1)))


def axis_pair(rng: random.Random, m: int, kind: str, conj_len: int) -> PairCase:
    """Cyclic pairs share the element up to inversion (the second conjugator
    absorbs a power of the base); shared pairs put both bases on one
    conjugator; independent pairs draw two conjugators."""
    c = random_word(rng, conj_len, 0.5)
    x = _axis(rng, c)
    if kind == "cyclic":
        shift = ((x.base, rng.choice((1, -1))),) * rng.randint(0, 1)
        y = _axis(rng, c + shift, x.base)
    elif kind == "shared":
        y = _axis(rng, c, OTHER[x.base])
    else:
        y = _axis(rng, random_word(rng, conj_len, 0.5))
    ex, ey = x.element(), y.element()
    cyclic = quotient_key(m, ex) in (quotient_key(m, ey), quotient_key(m, inverse(ey)))
    return PairCase(m, kind, x, y, cyclic)


def dt_cycle(seed: int, cycle: int) -> list:
    """Seven balls of 106-658 simplices and 28 axis pairs (each m with each
    construction, independent ones twice, conjugators of 0-6 letters).

    35 ops, so the median and the 90th percentile fall inside a class of
    ops rather than between two classes."""
    rng = cycle_rng("dual-tree", seed, cycle)
    out: list = []
    for i, (m, r) in enumerate(DT_RADIUS.items()):
        out.append(BallCase(m, r))
        for k, kind in enumerate(DT_KINDS):
            out.append(axis_pair(rng, m, kind, (i + 2 * k) % 7))
    return out


# ---------------------------------------------------------------------------
# disc-audit: gluing plans with planned curvature and markings.

DISC_SHAPES = ("glue", "corner", "fan")
DISC_POLYGONS = (5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 51, 64, 81, 102, 160)


@dataclass(frozen=True)
class DiscPlan:
    """A star of ks[0] followed by one glued star per later entry of ks.

    shape "glue": every later star is glued along one boundary edge chosen
    by picks.  "corner": the last star is glued along two edges pivoted at a
    type-1 vertex and one of its fresh type-2 rim vertices is marked, a
    corner.  "fan": as "corner", but the first fan-1 glues all go through
    one type-2 pivot, which is marked too and lies in >= 5 polygons.
    """

    shape: str
    ks: tuple[int, ...]
    picks: tuple[float, ...]
    fan: int = 0

    @property
    def polygons(self) -> int:
        return len(self.ks)

    def kappa(self) -> dict[str, int]:
        """Polygon P<i> is the i-th star glued and has curvature 12 - 4k."""
        return {f"P{i}": 12 - 4 * k for i, k in enumerate(self.ks)}


def disc_plan(rng: random.Random, shape: str, polygons: int) -> DiscPlan:
    ks = tuple(rng.randint(3, 6) for _ in range(polygons))
    picks = tuple(rng.random() for _ in range(polygons + 1))
    fan = rng.randint(5, 7) if shape == "fan" else 0
    return DiscPlan(shape, ks, picks, fan)


def disc_cycle(seed: int, cycle: int) -> list[DiscPlan]:
    """Fifteen plans of 5-160 polygons, the shapes taking the sizes in turn.

    An odd count of ops keeps the median and the 90th percentile inside a
    size class rather than between two."""
    rng = cycle_rng("disc-audit", seed, cycle)
    return [
        disc_plan(rng, DISC_SHAPES[i % len(DISC_SHAPES)], n)
        for i, n in enumerate(DISC_POLYGONS)
    ]


# ---------------------------------------------------------------------------
# graph-rigidity: labelled graphs and their bitmask truths.

@dataclass(frozen=True)
class GraphCase:
    family: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]

    def text(self) -> str:
        lines = ["vertex " + " ".join(self.vertices)]
        lines += [f"edge {u} {v} {m}" for u, v, m in self.edges]
        return "\n".join(lines) + "\n"


def _graph(family: str, n: int, edges) -> GraphCase:
    names = tuple(f"v{i}" for i in range(n))
    return GraphCase(family, names, tuple((names[u], names[v], m) for u, v, m in sorted(edges)))


class Bitmask:
    """Vertex sets as integers; connectivity by frontier expansion."""

    def __init__(self, g: GraphCase):
        self.names = g.vertices
        idx = {v: i for i, v in enumerate(g.vertices)}
        self.n = len(idx)
        self.full = (1 << self.n) - 1
        self.adj = [0] * self.n
        self.pairs = []
        for u, v, _ in g.edges:
            a, b = idx[u], idx[v]
            self.adj[a] |= 1 << b
            self.adj[b] |= 1 << a
            self.pairs.append((min(a, b), max(a, b)))
        self._components: dict[int, int] = {}

    def components(self, mask: int) -> int:
        if mask not in self._components:
            count, rest = 0, mask
            while rest:
                seen = frontier = rest & -rest
                while frontier:
                    nxt = 0
                    while frontier:
                        bit = frontier & -frontier
                        frontier ^= bit
                        nxt |= self.adj[bit.bit_length() - 1]
                    frontier = nxt & mask & ~seen
                    seen |= frontier
                rest &= ~seen
                count += 1
            self._components[mask] = count
        return self._components[mask]

    def cut_vertices(self, mask: int | None = None) -> list[int]:
        mask = self.full if mask is None else mask
        return [i for i in range(self.n) if mask >> i & 1 and self.components(mask & ~(1 << i)) >= 2]

    def separating_pairs(self, mask: int | None = None) -> list[tuple[int, int]]:
        mask = self.full if mask is None else mask
        return [
            (a, b)
            for a, b in self.pairs
            if mask >> a & 1 and mask >> b & 1 and self.components(mask & ~(1 << a | 1 << b)) >= 2
        ]

    def chunks(self) -> list[tuple[str, ...]]:
        """Maximal vertex sets of >= 3 vertices inducing a connected graph
        with no cut-vertex and no separating edge."""
        cands = [
            mask
            for mask in range(1, self.full + 1)
            if bin(mask).count("1") >= 3
            and self.components(mask) == 1
            and not self.cut_vertices(mask)
            and not self.separating_pairs(mask)
        ]
        maximal = [m for m in cands if not any(m != o and m & o == m for o in cands)]
        return sorted(tuple(sorted(self.names[i] for i in range(self.n) if m >> i & 1))
                      for m in maximal)


def automorphism_count(g: GraphCase) -> int:
    """Label- and adjacency-preserving vertex permutations, by backtracking."""
    label = {}
    for u, v, m in g.edges:
        label[(u, v)] = label[(v, u)] = m
    nbrs = {v: sorted(w for w in g.vertices if (v, w) in label) for v in g.vertices}
    sig = {v: sorted(label[(v, w)] for w in nbrs[v]) for v in g.vertices}
    order = sorted(g.vertices, key=lambda v: -len(nbrs[v]))
    image: dict[str, str] = {}

    def extend(i: int) -> int:
        if i == len(order):
            return 1
        v, total = order[i], 0
        for w in g.vertices:
            if w in image.values() or sig[w] != sig[v]:
                continue
            if all(label.get((u, v)) == label.get((x, w)) for u, x in image.items()):
                image[v] = w
                total += extend(i + 1)
                del image[v]
        return total

    return extend(0)


@dataclass(frozen=True)
class GraphTruth:
    cut_vertices: tuple[str, ...]
    separating_edges: tuple[tuple[str, str], ...]
    chunks: tuple[tuple[str, ...], ...]
    automorphisms: int
    aut_gens: bool  # meets aut-gens' hypotheses: no cut-vertex, all labels >= 6


def graph_truth(g: GraphCase) -> GraphTruth:
    bm = Bitmask(g)
    cuts = tuple(sorted(g.vertices[i] for i in bm.cut_vertices()))
    seps: tuple = ()
    chunks: tuple = ()
    if not cuts:
        seps = tuple(sorted(tuple(sorted((g.vertices[a], g.vertices[b])))
                            for a, b in bm.separating_pairs()))
        chunks = tuple(bm.chunks())
    xxxl = all(m >= 6 for _, _, m in g.edges)
    return GraphTruth(cuts, seps, chunks, automorphism_count(g), not cuts and xxxl)


def random_biconnected(rng: random.Random, n: int, p: float = 0.5) -> GraphCase:
    """Edges drawn with probability p until the graph is connected without cut-vertex."""
    while True:
        edges = [(u, v, rng.randint(6, 13)) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < p]
        g = _graph("random", n, edges)
        bm = Bitmask(g)
        if bm.components(bm.full) == 1 and not bm.cut_vertices():
            return g


def glued_pieces(rng: random.Random, pieces: int) -> GraphCase:
    """Cycles C4-C6 and cliques K3-K4 glued one by one along an existing
    edge, which becomes a separating edge."""
    edges: dict[tuple[int, int], int] = {}
    n = 0
    for p in range(pieces):
        if rng.random() < 0.6:
            size = rng.randint(4, 6)
            piece = [(i, (i + 1) % size) for i in range(size)]
        else:
            size = rng.randint(3, 4)
            piece = list(itertools.combinations(range(size), 2))
        if p == 0:
            ids = list(range(size))
        else:
            a, b = rng.choice(sorted(edges))
            ids = [a, b] + list(range(n, n + size - 2))
        n = max(n, max(ids) + 1)
        for i, j in piece:
            key = (min(ids[i], ids[j]), max(ids[i], ids[j]))
            edges.setdefault(key, rng.randint(6, 13))
    return _graph("glued", n, [(u, v, m) for (u, v), m in edges.items()])


def complete(n: int, m: int) -> GraphCase:
    return _graph("complete", n, [(u, v, m) for u, v in itertools.combinations(range(n), 2)])


def with_cut_vertex(rng: random.Random) -> GraphCase:
    """Two biconnected blocks sharing one vertex."""
    a = random_biconnected(rng, rng.randint(3, 5))
    b = random_biconnected(rng, rng.randint(3, 5))
    na = len(a.vertices)
    idx = {v: i for i, v in enumerate(a.vertices)}
    edges = [(idx[u], idx[v], m) for u, v, m in a.edges]
    shift = {v: (0 if i == 0 else na + i - 1) for i, v in enumerate(b.vertices)}
    edges += [(min(shift[u], shift[v]), max(shift[u], shift[v]), m) for u, v, m in b.edges]
    return _graph("cut-vertex", na + len(b.vertices) - 1, edges)


def graph_cycle(seed: int, cycle: int) -> list[GraphCase]:
    """Fourteen graphs: six random biconnected (n = 6..12, edge density 1/2,
    labels 6-13), three glued cycle/clique chains, K5 and K6 with one label,
    three with a cut-vertex; with aut-gens on the eleven that meet its
    hypotheses, 25 ops.  The density is fixed so that the costliest ops,
    which set the 90th percentile, vary little from seed to seed."""
    rng = cycle_rng("graph-rigidity", seed, cycle)
    out = [random_biconnected(rng, n) for n in (6, 7, 8, 9, 10, 12)]
    out += [glued_pieces(rng, k) for k in (2, 3, 3)]
    out += [complete(n, rng.choice((6, 7))) for n in (5, 6)]
    out += [with_cut_vertex(rng) for _ in range(3)]
    return out

