import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from artinkit import (
    GarsideNormalForm,
    PreconditionError,
    Word,
    WordError,
    alt_product,
    alternating_equality,
    alternating_equality_closed_form,
    delta_word,
    distinguished,
    garside_nf,
    generator,
    oracle_equal,
    oracle_key,
    parse_word,
    words_equal,
)
from artinkit.dihedral import _alt_string, _extend, _syllables

P = parse_word
S, T = generator("s"), generator("t")


def all_words(max_len: int):
    alphabet = [("s", 1), ("s", -1), ("t", 1), ("t", -1)]
    for n in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield Word(tup)


# -- normal form -------------------------------------------------------------

def test_nf_worked_examples():
    nf = garside_nf(3, P("s t s"))
    assert (nf.simples, nf.delta_power) == ((), 1)
    nf = garside_nf(3, P("s"))
    assert (nf.simples, nf.delta_power) == (("s",), 0)
    nf = garside_nf(3, P("s^-1"))
    assert (nf.simples, nf.delta_power) == (("ts",), -1)
    # the matching condition forbids the split [s][t]
    nf = garside_nf(3, P("s t"))
    assert (nf.simples, nf.delta_power) == (("st",), 0)


def test_nf_negative_delta_against_oracle():
    # ts * delta^-1 = s^-1, checked by the independent oracle
    expansion = P("t s") * delta_word(3) ** -1
    assert oracle_equal(3, expansion, P("s^-1"))


def test_nf_matching_condition_holds():
    for w in all_words(6):
        nf = garside_nf(4, w)
        for a, b in zip(nf.simples, nf.simples[1:]):
            assert a[-1] == b[0]


def test_nf_requires_m_at_least_3():
    with pytest.raises(PreconditionError):
        garside_nf(2, P("s"))


def test_public_constructor_checks_its_factors():
    with pytest.raises(ValueError, match="'stst' has bad length for m=4"):
        GarsideNormalForm(4, ("stst",), 0)
    with pytest.raises(ValueError, match="'' has bad length"):
        GarsideNormalForm(4, ("",), 0)
    with pytest.raises(ValueError, match="'sst' is not alternating"):
        GarsideNormalForm(4, ("sst",), 0)
    with pytest.raises(ValueError, match="fail the matching condition"):
        GarsideNormalForm(4, ("st", "s"), 1)
    # .word() trusts the factors' letters, so a name outside s, t stops here
    with pytest.raises(ValueError, match="'a-' is not over s, t"):
        GarsideNormalForm(4, ("a-",), 0)
    assert GarsideNormalForm(4, ("st", "ts"), 1) == garside_nf(4, P("s t t s") * delta_word(4))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 9),
    st.lists(st.tuples(st.sampled_from("st"), st.sampled_from([1, -1])), max_size=60),
)
def test_garside_nf_output_passes_the_public_constructor(m, letters):
    nf = garside_nf(m, Word(letters))
    assert GarsideNormalForm(nf.m, nf.simples, nf.delta_power) == nf
    w = nf.word()
    assert w == Word(w.letters) and delta_word(m) == Word(delta_word(m).letters)


def test_nf_format():
    assert str(garside_nf(3, P("s t"))) == "[st] Δ^0"
    assert str(garside_nf(3, P("s t s"))) == "[] Δ^1"


# -- word problem ------------------------------------------------------------

def test_words_equal_examples():
    assert words_equal(3, P("s t s"), P("t s t"))
    assert not words_equal(3, P("s t"), P("t s"))
    assert not oracle_equal(3, P("s t"), P("t s"))
    assert words_equal(4, P("s t s t"), P("t s t s"))


def test_words_equal_m2_abelian():
    assert words_equal(2, P("s t"), P("t s"))
    assert not words_equal(2, P("s"), P("t"))


def test_words_equal_rejects_other_generators():
    # m = 2 checks the alphabet itself; m >= 3 leaves it to garside_nf
    for m in (2, 3):
        with pytest.raises(WordError):
            words_equal(m, P("s r"), P("s"))
        with pytest.raises(WordError):
            words_equal(m, P("s"), P("r"))


def test_oracle_examples():
    d = delta_word(3)
    assert oracle_equal(3, d * d, (S * T) ** 3)
    assert not oracle_equal(3, S, T)
    d4 = delta_word(4)
    assert oracle_equal(4, S * d4 * S.inverse(), d4)


def test_oracle_relator_maps_to_identity():
    # part of the oracle's own contract: both defining relators die
    for m in range(3, 11):
        rel = alt_product(S, T, m) * alt_product(T, S, m).inverse()
        assert oracle_key(m, rel) == (0, ())


def test_oracle_delta_image_consistency():
    # delta's image pins the kernel direction by exponent sum 2m (odd) / m (even)
    for m in range(3, 11):
        d = delta_word(m)
        z = d * d if m % 2 else d
        exp, syl = oracle_key(m, z)
        assert syl == ()
        assert exp == (2 * m if m % 2 else m)
        if m % 2:
            assert _syllables(m, d) == (("x", 1),)


def test_nf_oracle_partition_small():
    # words of length <= 5, m in {3, 4}: the two equivalence relations agree
    for m in (3, 4):
        nf_to_oracle = {}
        oracle_seen = {}
        for w in all_words(5):
            nf = garside_nf(m, w)
            k1 = (nf.simples, nf.delta_power)
            k2 = oracle_key(m, w)
            if k1 in nf_to_oracle:
                assert nf_to_oracle[k1] == k2
            else:
                nf_to_oracle[k1] = k2
                assert k2 not in oracle_seen, "oracle key collision across NF classes"
                oracle_seen[k2] = k1


def test_nf_idempotence_small():
    for m in (3, 4, 5):
        for w in all_words(4):
            nf = garside_nf(m, w)
            again = garside_nf(m, nf.word())
            assert (again.simples, again.delta_power) == (nf.simples, nf.delta_power)


# -- distinguished elements ---------------------------------------------------

def test_distinguished_examples():
    d = distinguished(3)
    assert d.delta == P("s t s")
    assert d.center == P("s t s s t s")
    assert d.complement_s == P("t s")
    d = distinguished(4)
    assert d.delta == P("s t s t")
    assert d.center == d.delta
    d = distinguished(2)
    assert d.delta == P("s t")
    assert d.center == P("s t")


def test_complement_identity_up_to_10():
    for m in range(3, 11):
        d = distinguished(m)
        assert words_equal(m, S * d.complement_s, d.delta)
        assert words_equal(m, T * d.complement_t, d.delta)


def test_delta_conjugation_swaps_iff_odd():
    for m in range(3, 8):
        d = delta_word(m)
        conj_s = d * S * d.inverse()
        if m % 2 == 0:
            assert words_equal(m, conj_s, S)
        else:
            assert words_equal(m, conj_s, T)
            assert not words_equal(m, conj_s, S)


def test_center_commutes():
    for m in range(3, 8):
        z = distinguished(m).center
        for u in (S, T):
            assert words_equal(m, z * u, u * z)


# -- alternating-product equality ---------------------------------------------

def test_alternating_equality_examples():
    assert alternating_equality(3, 1, 1, 3)
    assert alternating_equality(3, 1, 1, 6)
    assert not alternating_equality(3, 1, 1, 4)
    assert not alternating_equality(3, 2, 1, 3)


def _quoted_clause(m_st, mm, ll, k):
    # The closed form as first quoted: m = ell = +-1 and m_st divides k.
    return mm == ll and abs(mm) == 1 and k % m_st == 0


def _exponents(bound):
    return [e for e in range(-bound, bound + 1) if e]


# The quoted clause is wrong at exactly these points of the acceptance sweep:
# powers of s*t^j (j = 2, 3) are central in the m=3 group (s t^2 s t^2 =
# (s t)^3), so the two alternating products coincide there although the
# exponents are not +-1.  The closed form covers them by exponent product.
KNOWN_CLOSED_FORM_EXCEPTIONS = {
    (3, 1, 2, 4), (3, 2, 1, 4), (3, -1, -2, 4), (3, -2, -1, 4),
    (3, 1, 3, 6), (3, 3, 1, 6), (3, -1, -3, 6), (3, -3, -1, 6),
}

# Wider than the acceptance sweep (m_st 3..7, exponents +-1..3, k <= 2m_st+1):
# (m_st, exponent bound, largest k).
WIDE_RANGE = [(3, 5, 25)] + [(m_st, 4, 2 * m_st + 2) for m_st in range(4, 10)]


def _check_alternating_point(m_st, mm, ll, k):
    got = alternating_equality(m_st, mm, ll, k)
    x, y = S**mm, T**ll
    assert got == oracle_equal(m_st, alt_product(x, y, k), alt_product(y, x, k))
    assert got == alternating_equality_closed_form(m_st, mm, ll, k), (m_st, mm, ll, k)


def test_alternating_equality_true_characterisation():
    exceptions = set()
    for m_st in range(3, 8):
        for mm in _exponents(3):
            for ll in _exponents(3):
                for k in range(2, 2 * m_st + 2):
                    _check_alternating_point(m_st, mm, ll, k)
                    if _quoted_clause(m_st, mm, ll, k) != (
                        alternating_equality_closed_form(m_st, mm, ll, k)
                    ):
                        exceptions.add((m_st, mm, ll, k))
    assert exceptions == KNOWN_CLOSED_FORM_EXCEPTIONS


def test_alternating_equality_closed_form_wide_range():
    for m_st, bound, k_max in WIDE_RANGE:
        for mm in _exponents(bound):
            for ll in _exponents(bound):
                for k in range(2, k_max + 1):
                    _check_alternating_point(m_st, mm, ll, k)


def test_alternating_equality_preconditions():
    for fn in (alternating_equality, alternating_equality_closed_form):
        with pytest.raises(PreconditionError):
            fn(2, 1, 1, 2)
        with pytest.raises(PreconditionError):
            fn(3, 0, 1, 3)
        with pytest.raises(PreconditionError):
            fn(3, 1, 0, 3)
        with pytest.raises(PreconditionError):
            fn(3, 1, 1, 1)


# -- third route: a faithful matrix representation for m = 3 -------------------
#
# The reduced Burau matrices below are exact 2x2 matrices over integer Laurent
# polynomials and give a faithful representation of the m=3 group, entirely
# independent of both the normal form and the quotient oracle.

class _Laurent(dict):
    def __missing__(self, k):
        return 0


def _lmul(a, b):
    out = _Laurent()
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] += x * y
    return _Laurent({k: v for k, v in out.items() if v})


def _ladd(a, b):
    out = _Laurent(a)
    for k, v in b.items():
        out[k] += v
    return _Laurent({k: v for k, v in out.items() if v})


def _mmul(A, B):
    return tuple(
        tuple(
            _ladd(_lmul(A[i][0], B[0][j]), _lmul(A[i][1], B[1][j])) for j in range(2)
        )
        for i in range(2)
    )


def _mkey(A):
    return tuple(tuple(tuple(sorted(e.items())) for e in row) for row in A)


_ONE, _ZERO = _Laurent({0: 1}), _Laurent()
_BURAU = {
    ("s", 1): ((_Laurent({1: -1}), _ONE), (_ZERO, _ONE)),
    ("t", 1): ((_ONE, _ZERO), (_Laurent({1: 1}), _Laurent({1: -1}))),
    ("s", -1): ((_Laurent({-1: -1}), _Laurent({-1: 1})), (_ZERO, _ONE)),
    ("t", -1): ((_ONE, _ZERO), (_Laurent({0: 1}), _Laurent({-1: -1}))),
}


def _burau(w: Word):
    A = ((_ONE, _ZERO), (_ZERO, _ONE))
    for letter in w:
        A = _mmul(A, _BURAU[letter])
    return A


def test_burau_inverses_and_relation():
    s, t = Word([("s", 1)]), Word([("t", 1)])
    assert _mkey(_burau(s * s.inverse())) == _mkey(_burau(Word()))
    assert _mkey(_burau(t * t.inverse())) == _mkey(_burau(Word()))
    assert _mkey(_burau(P("s t s"))) == _mkey(_burau(P("t s t")))
    assert _mkey(_burau(P("s t"))) != _mkey(_burau(P("t s")))


def test_nf_partition_matches_burau_m3():
    # all words of length <= 6: the NF classes and the faithful-matrix classes
    # are the same partition
    nf_to_burau = {}
    burau_seen = {}
    for w in all_words(6):
        nf = garside_nf(3, w)
        k1 = (nf.simples, nf.delta_power)
        k2 = _mkey(_burau(w))
        if k1 in nf_to_burau:
            assert nf_to_burau[k1] == k2, w
        else:
            nf_to_burau[k1] = k2
            assert k2 not in burau_seen, w
            burau_seen[k2] = k1


def test_alternating_closed_form_matches_burau_m3():
    # the m_st = 3 clause, by the faithful matrices instead of the normal form
    for mm in _exponents(3):
        for ll in _exponents(3):
            for k in range(2, 14):
                x, y = S**mm, T**ll
                equal = _mkey(_burau(alt_product(x, y, k))) == _mkey(
                    _burau(alt_product(y, x, k))
                )
                assert equal == alternating_equality_closed_form(3, mm, ll, k), (mm, ll, k)


# -- long words: the normal form against the oracle and the Burau matrices -------

def _random_word(rng, length, p_inverse):
    """A freely reduced word of exactly `length` letters."""
    letters = []
    while len(letters) < length:
        letter = (rng.choice("st"), -1 if rng.random() < p_inverse else 1)
        if not letters or letters[-1] != (letter[0], -letter[1]):
            letters.append(letter)
    return Word(letters)


def _nf_pair(rng, m, w1):
    """w1 with a conjugated relator inserted (equal to w1), and that word with
    one letter inverted, which moves the exponent sum by 2 (not equal to w1)."""
    conj = _random_word(rng, rng.randint(0, 3), 0.5)
    relator = alt_product(S, T, m) * alt_product(T, S, m).inverse()
    at = rng.randrange(len(w1) + 1)
    equal = Word(w1.letters[:at]) * relator.conjugate_by(conj) * Word(w1.letters[at:])
    letters = list(equal.letters)
    i = rng.randrange(len(letters))
    letters[i] = (letters[i][0], -letters[i][1])
    return equal, Word(letters)


def _nf_key(m, w):
    nf = garside_nf(m, w)
    return nf.simples, nf.delta_power


@settings(max_examples=12, deadline=None)
@given(
    st.integers(3, 9),
    st.integers(1000, 10000),
    st.floats(0.0, 0.5),
    st.integers(0, 2**32 - 1),
)
def test_nf_long_words_against_oracle(m, length, p_inverse, seed):
    rng = random.Random(seed)
    w1 = _random_word(rng, length, p_inverse)
    equal, unequal = _nf_pair(rng, m, w1)
    nf = garside_nf(m, w1)
    for w2, expected in ((equal, True), (unequal, False)):
        same_nf = (nf.simples, nf.delta_power) == _nf_key(m, w2)
        assert same_nf == (oracle_key(m, w1) == oracle_key(m, w2)) == expected
    assert garside_nf(m, nf.word()) == nf


def test_nf_long_words_match_burau_m3():
    rng = random.Random(3)
    for p_inverse in (0.0, 0.25, 0.5):
        w1 = _random_word(rng, 300, p_inverse)
        equal, unequal = _nf_pair(rng, 3, w1)
        b1 = _mkey(_burau(w1))
        assert _mkey(_burau(garside_nf(3, w1).word())) == b1
        for w2 in (equal, unequal):
            assert (_nf_key(3, w1) == _nf_key(3, w2)) == (_mkey(_burau(w2)) == b1)


def _runs(runs):
    """Concatenated alternating runs (first letter, sign, length)."""
    letters = []
    for first, sign, length in runs:
        pair = (first, "t" if first == "s" else "s")
        letters.extend((pair[i % 2], sign) for i in range(length))
    return letters


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 9),
    st.lists(
        st.tuples(st.sampled_from("st"), st.sampled_from([1, -1]), st.integers(1, 11)),
        max_size=10,
    ),
)
def test_extend_letter_by_letter_matches_garside_nf(m, runs):
    # Alternating runs of up to 11 letters make every Delta spill, inverse
    # letter and odd-power conjugation common for odd and even m alike.
    letters = _runs(runs)
    stack, power = [], 0
    for i, letter in enumerate(letters):
        power = _extend(m, stack, power, [letter])
        prefix = Word(letters[: i + 1])
        nf = garside_nf(m, prefix)
        state = tuple(_alt_string(f, k) for f, k in stack)
        assert (state, power) == (nf.simples, nf.delta_power)
        # and the state represents the prefix, by the independent oracle
        assert oracle_key(m, GarsideNormalForm(m, state, power).word()) == oracle_key(m, prefix)
