"""Exact computation in two-generator Artin groups.

The group with coefficient m >= 2 on generators s, t is presented by the
single relation  Pi(s,t;m) = Pi(t,s;m),  where Pi(x,y;k) is the alternating
product xyxy... with k factors.  Writing D for the image of the full
alternating word (the distinguished element of length m), every element has a
unique canonical form

    u_1 u_2 ... u_k * D^N        (k >= 0, N an integer)

where each u_i is a nonempty strictly alternating positive word of length at
most m-1 (a *simple* factor) and the last letter of u_i equals the first
letter of u_{i+1}.  Uniqueness pins the semantics: two input words represent
the same group element iff they produce identical (simples, N) data.

The algorithm is greedy factorisation on the left, in one pass over the word
and in time linear in its length.  Simple factors form a lattice between the
identity and D in which positive words of length < m are rigid, so a pair
(x, y) of simple factors is reduced iff the junction letters agree; otherwise
x+y concatenates into a longer alternating word, spilling a full D whenever
the length reaches m.  D moved across a factor conjugates it (tau), which
swaps the two letters when m is odd and fixes them when m is even.  Every D,
spilled or from an inverse letter, is moved to the right end at once: only
its parity is kept, and it conjugates each factor as that factor is read, so
no factor already reduced is ever rewritten.

An independent equality oracle is provided for cross-checking: an element is
determined by its exponent sum together with its image in the quotient by the
centre, which is the free product C2 * Cm (m odd, via x = image of the full
alternating word, y = image of st) or Z * C_{m/2} (m even, via x = s,
y = st).  Equality in those free products is decided by syllable reduction.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache

from .errors import PreconditionError, WordError
from .words import Letter, Word, alt_product, generator, parse_word

__all__ = [
    "GarsideNormalForm",
    "Distinguished",
    "alt_product",
    "garside_nf",
    "words_equal",
    "oracle_equal",
    "oracle_key",
    "distinguished",
    "delta_word",
    "alternating_equality",
    "alternating_equality_closed_form",
]

_OTHER = {"s": "t", "t": "s"}


def _check_alphabet(w: Word) -> None:
    bad = w.generator_names() - {"s", "t"}
    if bad:
        raise WordError(f"dihedral words use generators s, t only; got {sorted(bad)}")


def _alt_string(first: str, k: int) -> str:
    return ((first + _OTHER[first]) * (k // 2 + 1))[:k]


def _positive_word(factors: Iterable[str]) -> Word:
    """The positive word on the letters of `factors`, each over s, t: it cannot cancel."""
    return Word._of(tuple((c, 1) for u in factors for c in u))


def delta_word(m: int) -> Word:
    """The full alternating word Pi(s,t;m) as a Word."""
    return _positive_word([_alt_string("s", m)])


@dataclass(frozen=True)
class GarsideNormalForm:
    """Canonical form: matching simple factors, then a power of D on the right."""

    m: int
    simples: tuple[str, ...]
    delta_power: int

    def __post_init__(self):
        for i, u in enumerate(self.simples):
            if not (1 <= len(u) <= self.m - 1):
                raise ValueError(f"simple factor {u!r} has bad length for m={self.m}")
            if any(u[j] == u[j + 1] for j in range(len(u) - 1)):
                raise ValueError(f"simple factor {u!r} is not alternating")
            if i > 0 and self.simples[i - 1][-1] != u[0]:
                raise ValueError("consecutive simple factors fail the matching condition")
            if not set(u) <= {"s", "t"}:
                raise ValueError(f"simple factor {u!r} is not over s, t")

    @classmethod
    def _built(cls, m: int, simples: tuple[str, ...], delta_power: int) -> GarsideNormalForm:
        """A normal form built by `_extend`, whose factors have the right
        length, alternate and match by construction: nothing is re-checked."""
        nf = cls.__new__(cls)
        nf.__dict__.update(m=m, simples=simples, delta_power=delta_power)
        return nf

    def word(self) -> Word:
        return _positive_word(self.simples) * delta_word(self.m) ** self.delta_power

    def __str__(self) -> str:
        return f"[{'|'.join(self.simples)}] Δ^{self.delta_power}"


def _extend(m: int, stack: list[tuple[str, int]], power: int, letters: Iterable[Letter]) -> int:
    """Right-multiply f_1..f_k * D^power by letters; return the new power.

    The factors f_1..f_k are in normal form, each stored in `stack` as
    (first letter, length); `stack` is updated in place.  D^power moved right
    past the next factor conjugates it by tau^power.
    """
    odd = m % 2 == 1
    for name, sign in letters:
        if sign == 1:
            first, length = name, 1
        else:
            # g^-1 == D^-1 * U with U the alternating word of length m-1
            # ending in the other letter.
            power -= 1
            first, length = (name if odd else _OTHER[name]), m - 1
        if odd and power % 2:
            first = _OTHER[first]
        # Merge into the top factor while the junction letters differ.  A merged
        # word of length >= m is D * rest, and D moved right conjugates rest,
        # which then starts with the same letter as the merged word.
        while stack:
            top_first, top_length = stack[-1]
            if (top_first if top_length % 2 else _OTHER[top_first]) == first:
                break
            stack.pop()
            first, length = top_first, top_length + length
            if length < m:
                break
            power += 1
            length -= m
            if not length:
                break
        if length:
            stack.append((first, length))
    return power


def garside_nf(m: int, w: Word) -> GarsideNormalForm:
    """The unique canonical form of the element represented by w (m >= 3)."""
    if m < 3:
        raise PreconditionError("garside_nf needs m >= 3")
    _check_alphabet(w)
    stack: list[tuple[str, int]] = []
    power = _extend(m, stack, 0, w)
    return GarsideNormalForm._built(m, tuple(_alt_string(f, k) for f, k in stack), power)


def words_equal(m: int, w1: Word, w2: Word) -> bool:
    """Exact word problem for the two-generator group with coefficient m >= 2."""
    if m < 2:
        raise PreconditionError("words_equal needs m >= 2")
    if m == 2:
        _check_alphabet(w1)
        _check_alphabet(w2)
        # Free abelian on s, t.
        def exps(w: Word) -> tuple[int, int]:
            es = sum(sign for name, sign in w if name == "s")
            et = sum(sign for name, sign in w if name == "t")
            return es, et

        return exps(w1) == exps(w2)
    nf1, nf2 = garside_nf(m, w1), garside_nf(m, w2)
    return (nf1.simples, nf1.delta_power) == (nf2.simples, nf2.delta_power)


# ---------------------------------------------------------------------------
# Independent oracle: exponent sum + image in the quotient by the centre.

@cache
def _quotient_images(m: int) -> tuple[dict[Letter, tuple[tuple[str, int], ...]], dict[str, int]]:
    """The image of each signed letter as syllables, and the order of each symbol."""
    if m % 2 == 1:
        # A_m is <x, y | x^2 = y^m> with x = Pi(s,t;m) and y = st; the centre
        # is <x^2> and the quotient is C2 * Cm.
        positive = {
            "s": (("y", -(m - 1) // 2), ("x", 1)),
            "t": (("x", -1), ("y", (m + 1) // 2)),
        }
        orders = {"x": 2, "y": m}
    else:
        # A_m is <x, y | [x, y^{m/2}] = 1> with x = s and y = st; the centre
        # is <y^{m/2}> and the quotient is Z * C_{m/2}.
        positive = {"s": (("x", 1),), "t": (("x", -1), ("y", 1))}
        orders = {"x": 0, "y": m // 2}
    images = {}
    for name, image in positive.items():
        images[name, 1] = image
        images[name, -1] = tuple((sym, -exp) for sym, exp in reversed(image))
    return images, orders


def _syllables(m: int, w: Word) -> tuple[tuple[str, int], ...]:
    images, orders = _quotient_images(m)
    stack: list[tuple[str, int]] = []
    for letter in w:
        for sym, exp in images[letter]:
            if stack and stack[-1][0] == sym:
                exp += stack.pop()[1]
            order = orders[sym]
            if order:
                exp %= order
            if exp:
                stack.append((sym, exp))
    return tuple(stack)


def oracle_key(m: int, w: Word) -> tuple[int, tuple[tuple[str, int], ...]]:
    """Complete invariant (exponent sum, central-quotient syllables) of pi(w)."""
    if m < 3:
        raise PreconditionError("oracle needs m >= 3")
    _check_alphabet(w)
    return (w.exponent_sum(), _syllables(m, w))


def oracle_equal(m: int, w1: Word, w2: Word) -> bool:
    """Decide equality by the two exact homomorphisms, independently of the normal form."""
    return oracle_key(m, w1) == oracle_key(m, w2)


# ---------------------------------------------------------------------------
# Distinguished elements.

@dataclass(frozen=True)
class Distinguished:
    delta: Word
    center: Word
    complement_s: Word
    complement_t: Word


def distinguished(m: int) -> Distinguished:
    """D, the generator of the centre, and the complements of s and t.

    The complements satisfy s * comp_s = D and t * comp_t = D; both identities
    are verified before returning.
    """
    if m < 2:
        raise PreconditionError("distinguished needs m >= 2")
    s, t = generator("s"), generator("t")
    delta = alt_product(s, t, m)
    center = delta if m % 2 == 0 else delta * delta
    comp_s = alt_product(t, s, m - 1)
    comp_t = alt_product(s, t, m - 1)
    if not words_equal(m, s * comp_s, delta) or not words_equal(m, t * comp_t, delta):
        raise AssertionError(f"complement identity failed for m={m}")
    return Distinguished(delta, center, comp_s, comp_t)


# ---------------------------------------------------------------------------
# Alternating-product equality.

def _check_alternating_args(m_st: int, m: int, ell: int, k: int) -> None:
    if m_st < 3:
        raise PreconditionError("alternating_equality needs m_st >= 3")
    if m == 0 or ell == 0:
        raise PreconditionError("m and ell must be nonzero")
    if k <= 1:
        raise PreconditionError("k must exceed 1")


def alternating_equality(m_st: int, m: int, ell: int, k: int) -> bool:
    """Whether Pi(s^m, t^ell; k) equals Pi(t^ell, s^m; k), decided at word level."""
    _check_alternating_args(m_st, m, ell, k)
    x = generator("s") ** m
    y = generator("t") ** ell
    return words_equal(m_st, alt_product(x, y, k), alt_product(y, x, k))


# At m_st = 3, the k with Pi(s^m, t^ell; k) == Pi(t^ell, s^m; k) are the
# multiples of this period, keyed by m*ell; no k works for any other product.
_M3_PERIOD = {1: 3, 2: 4, 3: 6}


def alternating_equality_closed_form(m_st: int, m: int, ell: int, k: int) -> bool:
    """Closed-form answer to Pi(s^m, t^ell; k) == Pi(t^ell, s^m; k).

    Same preconditions as `alternating_equality`: m_st >= 3, m and ell
    nonzero, k > 1.

    m_st = 3 (proven).  s -> [[1,1],[0,1]], t -> [[1,0],[-1,1]] identifies
    the group modulo its centre with PSL(2,Z), and x = s^m, y = t^ell map to
    matrices whose product xy has trace 2 - m*ell.
      * Odd k: the two sides have different exponent sums unless m = ell,
        and <s^j, t^j> is free for |j| >= 2 (Sanov), so equality needs
        m = ell = +-1; then it holds iff 3 | k.
      * Even k = 2n: the sides are (xy)^n and x^-1 (xy)^n x, equal iff
        (xy)^n commutes with x, hence with y; an element commuting with s^m
        and t^ell is central.  So equality holds iff xy is elliptic, i.e.
        m*ell in {1, 2, 3}, and n is a multiple of its order in PSL(2,Z),
        which is 3, 2, 3 respectively.
    Together: equal iff m*ell = 1 and 3 | k, or m*ell = 2 and 4 | k, or
    m*ell = 3 and 6 | k.  For instance s t^2 s t^2 = (s t)^3 is central.

    m_st >= 4 (checked, not proven): equal iff m = ell = +-1 and m_st | k.
    This clause agrees with `alternating_equality` and `oracle_equal` over
    the ranges in the tests, but the repository holds no proof of it.
    PAPER.md holds only the abstract of the source paper, so the repository
    does not settle whether the paper's lemma assumes m_st >= 4 (the XL-type
    hypothesis), under which its clause would be this one.
    """
    _check_alternating_args(m_st, m, ell, k)
    if m_st == 3:
        period = _M3_PERIOD.get(m * ell)
        return period is not None and k % period == 0
    return m == ell and abs(m) == 1 and k % m_st == 0


def parse_dihedral_word(text: str) -> Word:
    w = parse_word(text)
    _check_alphabet(w)
    return w
