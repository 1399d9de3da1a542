"""Freely reduced words over named generators.

A word is a sequence of letters (name, sign) with sign +1 or -1.  Words are
kept freely reduced at all times: adjacent mutually inverse letters cancel on
construction, so two Word objects are equal as free-group elements iff their
letter tuples are equal.

Letters are checked once, where they enter (`Word(letters)`, `generator`,
`parse_word`); operations on words already held build through `Word._of`.

Text grammar: whitespace-separated tokens, each either ``g`` or ``g^-1``
where ``g`` is a generator name over [A-Za-z0-9_].
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

from .errors import WordError

Letter = tuple[str, int]

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for name, sign in letters:
        if stack and stack[-1][0] == name and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((name, sign))
    return tuple(stack)


def _check_letter(name: str, sign: int) -> None:
    if sign not in (1, -1):
        raise WordError(f"letter exponent must be +1 or -1, got {sign}")
    if not _NAME_RE.match(name):
        raise WordError(f"bad generator name {name!r}")


class Word:
    """An immutable freely reduced word."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        reduced = _reduce(letters)
        for name, sign in reduced:
            _check_letter(name, sign)
        object.__setattr__(self, "letters", reduced)

    @classmethod
    def _of(cls, letters: tuple[Letter, ...]) -> Word:
        """The word on `letters`, already checked and freely reduced: nothing is re-checked."""
        w = cls.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __setattr__(self, *_):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word._of(_reduce(self.letters + other.letters))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return Word._of(_reduce(base.letters * abs(n)))

    def inverse(self) -> "Word":
        return Word._of(tuple((name, -sign) for name, sign in reversed(self.letters)))

    def conjugate_by(self, h: "Word") -> "Word":
        """h * self * h^-1."""
        return h * self * h.inverse()

    def exponent_sum(self) -> int:
        return sum(sign for _, sign in self.letters)

    def generator_names(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.letters)

    def substitute(self, images: Mapping[str, "Word"]) -> "Word":
        """Apply a generator-to-word map; letters with sign -1 use the inverse image."""
        out: list[Letter] = []
        for name, sign in self.letters:
            if name not in images:
                raise WordError(f"no image for generator {name!r}")
            image = images[name] if sign == 1 else images[name].inverse()
            out.extend(image.letters)
        return Word._of(_reduce(out))

    def __str__(self) -> str:
        return " ".join(n if s == 1 else f"{n}^-1" for n, s in self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def generator(name: str, sign: int = 1) -> Word:
    _check_letter(name, sign)
    return Word._of(((name, sign),))


def parse_word(text: str) -> Word:
    """Parse the whitespace-separated token grammar; empty text is the identity."""
    letters: list[Letter] = []
    for token in text.split():
        if token.endswith("^-1"):
            name, sign = token[:-3], -1
        else:
            name, sign = token, 1
        if not _NAME_RE.match(name):
            raise WordError(f"bad token {token!r} in word {text!r}")
        letters.append((name, sign))
    return Word._of(_reduce(letters))


def alt_product(x: Word, y: Word, k: int) -> Word:
    """Alternating product x y x y ... with k factors, freely reduced."""
    if k < 0:
        raise WordError("alternating product needs k >= 0")
    letters: list[Letter] = []
    for i in range(k):
        letters.extend((x if i % 2 == 0 else y).letters)
    return Word._of(_reduce(letters))
