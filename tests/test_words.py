import pytest
from hypothesis import given
from hypothesis import strategies as st

from rkdirac.words import (
    EPSILON,
    MAX_LEN,
    Word,
    all_words,
    index_word,
    is_prefix,
    prepend,
    shift,
    word_index,
    words_up_to,
)


def w(text):
    return Word.from_string(text)


def concat(u, v):
    """The word uv."""
    return Word(u.length + v.length, (u.bits << v.length) | v.bits)


class TestShift:
    def test_drops_first_symbol(self):
        assert shift(w("011")) == w("11")
        assert shift(w("1010")) == w("010")

    def test_single_symbol_gives_empty(self):
        assert shift(w("0")) == EPSILON

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="empty word"):
            shift(EPSILON)


class TestPrepend:
    def test_examples(self):
        assert prepend(0, w("11")) == w("011")
        assert prepend(1, EPSILON) == w("1")
        assert prepend(1, w("0")) == w("10")

    def test_length_cap(self):
        full = Word(MAX_LEN, 0)
        with pytest.raises(ValueError, match="cap"):
            prepend(0, full)

    def test_a_symbol_other_than_0_or_1_is_refused(self):
        with pytest.raises(ValueError, match="symbol must be 0 or 1"):
            prepend(2, w("01"))

    @given(st.integers(0, MAX_LEN - 1), st.integers(0, 2**63), st.integers(0, 1))
    def test_shift_inverts_prepend(self, length, bits, symbol):
        word = Word(length, bits % (1 << length))
        assert shift(prepend(symbol, word)) == word


class TestPrefix:
    def test_examples(self):
        assert is_prefix(w("01"), w("011"))
        assert not is_prefix(w("10"), w("011"))
        assert is_prefix(EPSILON, w("0"))

    def test_partial_order_exhaustive(self):
        words = [EPSILON] + list(words_up_to(6))
        prefix_pairs = set()
        for u in words:
            for v in words:
                if is_prefix(u, v):
                    prefix_pairs.add((u, v))
                    # antisymmetry
                    if u != v:
                        assert not is_prefix(v, u)
            assert is_prefix(u, u)  # reflexivity
        # transitivity over the realized prefix pairs
        by_first = {}
        for u, v in prefix_pairs:
            by_first.setdefault(u, []).append(v)
        for u, v in prefix_pairs:
            for t in by_first.get(v, []):
                assert (u, t) in prefix_pairs


class TestIndexing:
    def test_declared_examples(self):
        assert word_index(w("10")) == 2
        assert word_index(w("00")) == 0
        assert index_word(3, 5) == w("101")

    def test_bijection_exhaustive(self):
        for depth in range(13):
            for i in range(1 << depth):
                assert word_index(index_word(depth, i)) == i

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            index_word(2, 4)
        for i in (-1, 2):
            with pytest.raises(IndexError, match="out of range for length 2"):
                w("01").symbol(i)

    def test_children_are_contiguous(self):
        for word in all_words(3):
            i = word_index(word)
            assert word_index(concat(word, w("0"))) == 2 * i
            assert word_index(concat(word, w("1"))) == 2 * i + 1


class TestSerialization:
    @given(st.integers(0, 12), st.integers(0, 2**63))
    def test_string_roundtrip(self, length, bits):
        word = Word(length, bits % (1 << length))
        assert Word.from_string(str(word)) == word

    def test_eps_spellings(self):
        assert Word.from_string("") == EPSILON
        assert Word.from_string("eps") == EPSILON
        assert str(EPSILON) == ""

    def test_invalid_symbols_rejected(self):
        with pytest.raises(ValueError):
            Word.from_string("012")

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Word(2, 4)
        with pytest.raises(ValueError):
            Word(-1, 0)
        with pytest.raises(ValueError):
            Word(MAX_LEN + 1, 0)
