import pytest
from hypothesis import given, strategies as st

from artinkit import Word, WordError, generator, parse_word, words
from artinkit.dihedral import parse_dihedral_word
from artinkit.words import alt_product

letters = st.lists(
    st.tuples(st.sampled_from(["s", "t", "u"]), st.sampled_from([1, -1])), max_size=30
)


def test_parse_and_format():
    w = parse_word("s t^-1 s")
    assert w.letters == (("s", 1), ("t", -1), ("s", 1))
    assert str(w) == "s t^-1 s"
    assert parse_word("") == Word()


def test_free_reduction():
    assert parse_word("s s^-1") == Word()
    assert parse_word("s t t^-1 s^-1") == Word()
    assert parse_word("s t t^-1 u") == parse_word("s u")


def test_bad_tokens():
    with pytest.raises(WordError):
        parse_word("s^2")
    with pytest.raises(WordError):
        parse_word("s^")
    with pytest.raises(WordError):
        parse_word("-x")


@given(letters)
def test_inverse_cancels(ls):
    w = Word(ls)
    assert w * w.inverse() == Word()
    assert w.inverse().inverse() == w


@given(letters, letters)
def test_product_associates_with_reduction(a, b):
    wa, wb = Word(a), Word(b)
    assert (wa * wb).exponent_sum() == wa.exponent_sum() + wb.exponent_sum()


def test_pow_and_conjugate():
    s, t = generator("s"), generator("t")
    assert s**3 == Word([("s", 1)] * 3)
    assert s**-2 == Word([("s", -1)] * 2)
    assert s.conjugate_by(t) == parse_word("t s t^-1")


def test_substitute_inverts_images():
    w = parse_word("a b^-1")
    images = {"a": parse_word("s t"), "b": parse_word("t")}
    assert w.substitute(images) == parse_word("s t t^-1") == parse_word("s")


def test_alt_product_examples():
    s, t = generator("s"), generator("t")
    assert alt_product(s, t, 3) == parse_word("s t s")
    assert alt_product(s, t, 0) == Word()
    assert alt_product(generator("s", -1), t, 2) == parse_word("s^-1 t")


# -- the boundary: letters are checked where they enter, and only there ----------

def test_boundary_messages():
    with pytest.raises(WordError, match=r"^letter exponent must be \+1 or -1, got 2$"):
        Word([("s", 2)])
    with pytest.raises(WordError, match=r"^bad generator name 's-t'$"):
        Word([("s-t", 1)])
    with pytest.raises(WordError, match=r"^letter exponent must be \+1 or -1, got 0$"):
        generator("s", 0)
    with pytest.raises(WordError, match=r"^bad generator name 'a b'$"):
        generator("a b")


@given(letters, letters, st.integers(-3, 3), st.integers(0, 5))
def test_operations_build_checked_reduced_words(a, b, n, k):
    wa, wb = Word(a), Word(b)
    images = {"s": wb, "t": wa.inverse(), "u": Word()}
    results = [
        wa * wb,
        wa**n,
        wa.inverse(),
        wa.substitute(images),
        alt_product(wa, wb, k),
        parse_word(str(wa) + " " + str(wb)),
    ]
    for r in results:
        assert type(r) is Word
        assert r == Word(r.letters)


class _CountingPattern:
    def __init__(self, pattern):
        self.pattern = pattern
        self.matches = 0

    def match(self, *args):
        self.matches += 1
        return self.pattern.match(*args)


def test_operations_run_no_name_check(monkeypatch):
    a, b = parse_word("s t^-1 u"), parse_word("u^-1 t s s")
    counting = _CountingPattern(words._NAME_RE)
    monkeypatch.setattr(words, "_NAME_RE", counting)
    a * b, a**3, a**-2, a.inverse(), a.conjugate_by(b)
    a.substitute({"s": b, "t": a, "u": Word()})
    alt_product(a, b, 5)
    assert counting.matches == 0
    parse_word("s t^-1 u t s^-1")
    assert counting.matches == 5  # one check per token
    generator("s", -1)
    assert counting.matches == 6


@given(st.text())
def test_parsers_raise_only_word_errors(text):
    for parse in (parse_word, parse_dihedral_word):
        try:
            w = parse(text)
        except WordError:
            continue
        assert w == Word(w.letters)
