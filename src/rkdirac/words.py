"""Finite binary words: indexing for cylinders and Haar basis elements.

Words are packed MSB-first, so the first symbol of the word sits in the most
significant bit.  With this convention the two one-symbol extensions of the
cylinder with index ``i`` at depth ``d`` are the contiguous pair ``2i`` and
``2i + 1`` at depth ``d + 1``, which keeps all shift-operator kernels
stride-friendly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Union

#: Hard cap on word length / function depth.  Depth-d spaces have dimension
#: 2**d; anything near this cap is unusable at desk scale anyway, and the cap
#: turns silent overflow into a typed error.
MAX_LEN = 24


@dataclass(frozen=True, order=True)
class Word:
    """A finite word over {0, 1} with explicit length and MSB-first bits."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= MAX_LEN:
            raise ValueError(f"word length {self.length} outside [0, {MAX_LEN}]")
        if not 0 <= self.bits < (1 << self.length):
            raise ValueError(f"bits {self.bits} do not fit in {self.length} symbols")

    @classmethod
    def from_string(cls, text: str) -> "Word":
        """Parse a word from a {0,1}-string; '' and 'eps' both mean the empty word."""
        if text in ("", "eps"):
            return EPSILON
        if any(ch not in "01" for ch in text):
            raise ValueError(f"invalid word string {text!r}")
        return cls(len(text), int(text, 2))

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b") if self.length else ""

    def __repr__(self) -> str:
        return f"Word({str(self) or 'eps'!r})" if self.length else "Word('eps')"

    def symbol(self, i: int) -> int:
        """The symbol w_{i+1} (0-based position, first symbol is i = 0)."""
        if not 0 <= i < self.length:
            raise IndexError(f"symbol index {i} out of range for length {self.length}")
        return (self.bits >> (self.length - 1 - i)) & 1


EPSILON = Word(0, 0)


class EpsKind(enum.Enum):
    """The two depth-one Haar indices that are not indexed by a word."""

    EPS0 = "eps0"
    EPS1 = "eps1"


EPS0 = EpsKind.EPS0
EPS1 = EpsKind.EPS1

#: Index of a Haar basis element: one of the two eps elements, or a nonempty word.
HaarIndex = Union[Word, EpsKind]


def shift(w: Word) -> Word:
    """Drop the first symbol: w1 w2 ... wl -> w2 ... wl."""
    if w.length == 0:
        raise ValueError("cannot shift the empty word")
    return Word(w.length - 1, w.bits & ((1 << (w.length - 1)) - 1))


def prepend(symbol: int, w: Word) -> Word:
    """Concatenate one symbol on the left: (a, w) -> aw."""
    if symbol not in (0, 1):
        raise ValueError(f"symbol must be 0 or 1, got {symbol!r}")
    if w.length >= MAX_LEN:
        raise ValueError(f"length cap {MAX_LEN} exceeded")
    return Word(w.length + 1, (symbol << w.length) | w.bits)


def is_prefix(u: Word, v: Word) -> bool:
    """True iff u is an initial segment of v; the empty word prefixes everything."""
    if u.length > v.length:
        return False
    return (v.bits >> (v.length - u.length)) == u.bits


def word_index(w: Word) -> int:
    """Bijection between length-d words and {0, ..., 2**d - 1} (MSB-first)."""
    return w.bits


def index_word(depth: int, index: int) -> Word:
    """Inverse of :func:`word_index` at a given depth."""
    if not 0 <= index < (1 << depth):
        raise ValueError(f"index {index} out of range for depth {depth}")
    return Word(depth, index)


def all_words(length: int) -> Iterator[Word]:
    """All words of exactly the given length, in index order."""
    for bits in range(1 << length):
        yield Word(length, bits)


def words_up_to(max_length: int) -> Iterator[Word]:
    """All nonempty words of length at most max_length, shortest first."""
    for n in range(1, max_length + 1):
        yield from all_words(n)
