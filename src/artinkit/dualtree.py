"""The tree of simplices of a two-generator group and its dual tree.

The Cayley graph on the simple factors, taken modulo right multiplication by
the distinguished element D, is a tree of simplices: its vertices are cosets
g<D>, and the maximal simplices are the translates of the two base simplices
spanned by the prefixes of the two full alternating words.  Every coset lies
in exactly two maximal simplices, so the dual graph (a vertex per maximal
simplex, an edge whenever two simplices share a coset) is a regular m-tree on
which the generators translate by 1.

Cosets are keyed by the simple-factor sequence of the canonical form with the
D power dropped.  A word enters the tree through one normal form per walk
(the base simplex takes one per prefix, through `coset_key`); from there the
tree is navigated by right multiplication.  The two simplices
through the coset with representative h are h*(base s-simplex) and
h*(base t-simplex): starting from the key's own factors, each is walked one
letter of the base prefix at a time, and each positive letter changes only
the top factor of the normal form (and the D parity), so every key is one
step from the last.  An axis is walked the same way, one base letter per
simplex, from the normal form of its first vertex.  One breadth-first
generator, `_levels`, serves both the ball and the projection onto an axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .dihedral import _OTHER, _alt_string, _extend, _positive_word, garside_nf, words_equal
from .errors import CapExceeded, PreconditionError
from .words import Word, generator

CosetKey = tuple[str, ...]
Simplex = frozenset[CosetKey]

DEFAULT_MAX_SIMPLICES = 20_000


def coset_key(m: int, w: Word) -> CosetKey:
    return garside_nf(m, w).simples


def coset_str(key: CosetKey) -> str:
    return ".".join(key) if key else "1"


def _step(
    m: int, key: CosetKey, stack: list[tuple[str, int]], power: int, letter: str
) -> tuple[CosetKey, int]:
    """Right-multiply the state (key, stack, power) by one positive letter.

    `stack` holds the factors of `key` as (first letter, length) and is
    updated in place; returns the new key and D power.  A positive letter
    changes at most the top factor, so the rest of the key is reused.
    """
    kept = len(stack) - 1 if stack else 0
    power = _extend(m, stack, power, ((letter, 1),))
    return key[:kept] + tuple([_alt_string(f, k) for f, k in stack[kept:]]), power


def _simplex_walk(
    m: int, key: CosetKey, stack: list[tuple[str, int]], power: int, first: str
) -> Simplex:
    """rep * (base simplex through `first`), rep in the state (key, stack, power)."""
    stack = list(stack)
    keys = [key]
    letter = first
    for _ in range(m - 1):
        key, power = _step(m, key, stack, power, letter)
        keys.append(key)
        letter = _OTHER[letter]
    return frozenset(keys)


def base_simplex(m: int) -> Simplex:
    """The cosets of the m prefixes of s t s ..., one normal form each."""
    return frozenset(coset_key(m, _positive_word([_alt_string("s", k)])) for k in range(m))


def simplices_at(m: int, key: CosetKey) -> tuple[Simplex, Simplex]:
    """The two maximal simplices containing the given coset."""
    stack = [(u[0], len(u)) for u in key]
    return _simplex_walk(m, key, stack, 0, "s"), _simplex_walk(m, key, stack, 0, "t")


def neighbor_across(m: int, simplex: Simplex, key: CosetKey) -> Simplex:
    """The unique other maximal simplex through one coset of a simplex."""
    a, b = simplices_at(m, key)
    if a == simplex:
        return b
    if b == simplex:
        return a
    raise AssertionError("coset does not lie on the given simplex")


def simplex_tag(s: Simplex) -> str:
    return ";".join(sorted(coset_str(k) for k in s))


@dataclass(frozen=True)
class SimplexNode:
    tag: str
    cosets: tuple[str, ...]
    representative: str
    depth: int


@dataclass(frozen=True)
class TreeBall:
    m: int
    radius: int
    vertices: tuple[SimplexNode, ...]
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """The sorted neighbour indices of every simplex, built from `edges` once."""
        nbrs: list[list[int]] = [[] for _ in self.vertices]
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return tuple(tuple(sorted(n)) for n in nbrs)

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])

    def adjacency_text(self) -> str:
        lines = [f"# dual tree ball, m={self.m}, radius={self.radius}"]
        for i, node in enumerate(self.vertices):
            lines.append(f"{i} [{node.tag}] -> {' '.join(map(str, self.neighbors[i]))}")
        return "\n".join(lines) + "\n"


def _levels(m: int, start: Simplex, radius: int):
    """Breadth-first levels of the dual tree around `start`.

    Yields (depth, [(parent, simplex), ...]) for depth 1..radius, listing the
    simplices first reached at that depth: parents in `simplex_tag` order and
    each parent's cosets in sorted order.
    """
    seen = {start}
    frontier = [start]
    for depth in range(1, radius + 1):
        level: list[tuple[Simplex, Simplex]] = []
        for s in sorted(frontier, key=simplex_tag):
            for key in sorted(s):
                n = neighbor_across(m, s, key)
                if n not in seen:
                    seen.add(n)
                    level.append((s, n))
        yield depth, level
        frontier = [n for _, n in level]


def tree_ball(m: int, r: int, max_simplices: int = DEFAULT_MAX_SIMPLICES) -> TreeBall:
    """Exact ball of radius r around the base simplex in the dual tree."""
    if m < 3:
        raise PreconditionError("tree_ball needs m >= 3")
    if r < 1:
        raise PreconditionError("tree_ball needs radius >= 1")
    # The ball has 1 + m((m-1)^r - 1)/(m-2) simplices; sum it level by level
    # and stop at the cap, so a huge r builds neither the ball nor the number.
    size, level = 1, m
    for _ in range(r):
        size += level
        if size > max_simplices:
            raise CapExceeded(f"ball exceeds {max_simplices} simplices; lower r or raise the cap")
        level *= m - 1
    start = base_simplex(m)
    index: dict[Simplex, int] = {start: 0}
    info: list[tuple[Simplex, int]] = [(start, 0)]
    edges: list[tuple[int, int]] = []
    for depth, pairs in _levels(m, start, r):
        for parent, s in pairs:
            index[s] = len(info)
            info.append((s, depth))
            edges.append((index[parent], index[s]))
    nodes = tuple(
        SimplexNode(
            tag=simplex_tag(s),
            cosets=tuple(sorted(coset_str(k) for k in s)),
            representative=min(coset_str(k) for k in s),
            depth=d,
        )
        for s, d in info
    )
    return TreeBall(m, r, nodes, tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# Axes of conjugates of standard generators.

@dataclass(frozen=True)
class AxisDescription:
    """The element conjugator * base^sign * conjugator^-1; its axis is the
    conjugator-translate of the base generator's axis."""

    conjugator: Word
    base: str
    sign: int = 1

    def __post_init__(self):
        if self.base not in ("s", "t"):
            raise PreconditionError("axis base must be s or t")
        if self.sign not in (1, -1):
            raise PreconditionError("axis sign must be +1 or -1")

    def element(self) -> Word:
        return self.conjugator * generator(self.base, self.sign) * self.conjugator.inverse()


def _axis_walk(m: int, a: AxisDescription, lo: int, hi: int) -> list[Simplex]:
    """The axis simplices k = lo..hi, conjugator * base^k * (base simplex),
    walked one base letter per step from a single normal form."""
    nf = garside_nf(m, a.conjugator * generator(a.base) ** lo)
    key, power = nf.simples, nf.delta_power
    stack = [(u[0], len(u)) for u in key]
    out = [_simplex_walk(m, key, stack, power, "s")]
    for _ in range(hi - lo):
        key, power = _step(m, key, stack, power, a.base)
        out.append(_simplex_walk(m, key, stack, power, "s"))
    return out


def axis_vertex(m: int, a: AxisDescription, k: int) -> Simplex:
    """The k-th simplex on the axis: conjugator * base^k * (base simplex)."""
    return _axis_walk(m, a, k, k)[0]


def _project_to_axis(
    m: int, a: AxisDescription, span: int, cap: int
) -> tuple[int, int]:
    """(k*, distance) of the projection of the base simplex onto the axis."""
    targets = {}
    for k, s in enumerate(_axis_walk(m, a, -span, span), -span):
        targets.setdefault(s, k)
    start = base_simplex(m)
    if start in targets:
        return targets[start], 0
    seen = 1
    for depth, level in _levels(m, start, len(a.conjugator) + 2):
        seen += len(level)
        if seen > cap:
            raise CapExceeded("projection search exceeded the simplex cap")
        hits = [targets[s] for _, s in level if s in targets]
        if hits:
            return min(hits), depth
    raise CapExceeded("projection of the base simplex onto the axis not found in range")


def axis_segment(
    m: int,
    a: AxisDescription,
    window: int,
    max_simplices: int = DEFAULT_MAX_SIMPLICES,
) -> list[str]:
    """The 2*window+1 consecutive axis simplices centered at the projection of
    the base simplex, as canonical tags."""
    if window < 1:
        raise PreconditionError("axis_segment needs window >= 1")
    span = len(a.conjugator) + window + 2
    k0, _ = _project_to_axis(m, a, span, max_simplices)
    return [simplex_tag(s) for s in _axis_walk(m, a, k0 - window, k0 + window)]


# ---------------------------------------------------------------------------
# Classification of pairs of conjugates of standard generators.

@dataclass(frozen=True)
class PairClassification:
    kind: str  # "cyclic" | "free" | "full_dihedral"
    witness: Word | None = None
    common_axis_vertices: int = 0


_GENERATOR_WORDS = [generator(n, e) for n in ("s", "t") for e in (1, -1)]


def classify_pair(
    m: int,
    x: AxisDescription,
    y: AxisDescription,
    max_simplices: int = DEFAULT_MAX_SIMPLICES,
    _window_pad: int = 0,
) -> PairClassification:
    """Z / F2 / full-group trichotomy for two conjugates of standard generators.

    Cyclic iff the elements agree up to inversion.  Otherwise the axes decide:
    sharing an edge forces the pair to be simultaneously conjugate into the
    standard generators (witness returned and verified); meeting in at most
    one vertex certifies a free pair.
    """
    if m < 3:
        raise PreconditionError("classify_pair needs m >= 3")
    wx, wy = x.element(), y.element()
    if words_equal(m, wx, wy) or words_equal(m, wx, wy.inverse()):
        return PairClassification("cyclic")

    span = 2 * (len(x.conjugator) + len(y.conjugator)) + 4 + _window_pad
    for _attempt in range(4):
        ax: dict[Simplex, int] = {}
        ay: dict[Simplex, int] = {}
        for k, s in enumerate(_axis_walk(m, x, -span, span), -span):
            ax.setdefault(s, k)
        for k, s in enumerate(_axis_walk(m, y, -span, span), -span):
            ay.setdefault(s, k)
        common = set(ax) & set(ay)
        boundary = any(abs(ax[s]) >= span or abs(ay[s]) >= span for s in common)
        if not boundary:
            break
        span *= 2
        if (2 * span + 1) * 2 > max_simplices:
            raise CapExceeded("classify_pair: axis window exceeded the resource cap")
    else:
        raise CapExceeded("classify_pair: axis intersection did not stabilise")

    if len(common) <= 1:
        return PairClassification("free", common_axis_vertices=len(common))

    # Find a shared edge: two common simplices sharing a coset.
    ordered = sorted(common, key=lambda s: (abs(ax[s]), simplex_tag(s)))
    for s1 in ordered:
        for s2 in ordered:
            if s1 is s2:
                continue
            shared = s1 & s2
            if shared:
                rep = _positive_word(min(shared))
                w = rep.inverse()
                for v, name in ((wx, "x"), (wy, "y")):
                    conj = w * v * w.inverse()
                    if not any(words_equal(m, conj, gw) for gw in _GENERATOR_WORDS):
                        raise AssertionError(
                            f"witness verification failed for {name}; edge data inconsistent"
                        )
                return PairClassification(
                    "full_dihedral", witness=w, common_axis_vertices=len(common)
                )
    raise AssertionError("axes share >= 2 vertices but no edge; tree invariant violated")
