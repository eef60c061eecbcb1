"""Word arithmetic, letters kept as written, and the text round trip."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import polycert.words as words_mod
from polycert import (
    CapacityError,
    InvalidGeneratorError,
    InvalidWordError,
    Presentation,
    Word,
    commutator,
    generator,
    pair,
    power,
    presentation_from_text,
    word_from_text,
    word_to_text,
)

words = st.lists(st.integers(min_value=0, max_value=7), max_size=64).map(Word)


def test_words_keep_letters_as_written():
    # no letters cancel: r1 r1 is the identity only in a group that says so
    w = Word([0, 1, 1, 0])
    assert w.letters == (0, 1, 1, 0)
    assert type(w.letters) is tuple and all(type(g) is int for g in w.letters)
    assert w * w.inverse() == Word([0, 1, 1, 0] * 2)
    assert Word(iter([3, 3])).letters == (3, 3)


def test_word_basics():
    a, b = generator(0), generator(1)
    assert len(a * b) == 2
    assert (a * b).letters == (0, 1)
    assert pair(0, 1) == a * b
    assert (a * b).inverse() == Word([1, 0])
    assert (a * b).max_generator() == 1
    assert Word().max_generator() == -1
    assert not Word()
    assert a
    assert a[0] == 0


def test_word_rejects_garbage():
    for letter in (-1, True, 1.0, "0", (0, 1), None):
        with pytest.raises(InvalidWordError, match="must be a nonnegative int"):
            Word([0, letter])
    with pytest.raises(AttributeError):
        generator(0).letters = ()


def test_power_and_commutator_shapes(monkeypatch):
    ab = pair(0, 1)
    assert power(ab, 3).letters == (0, 1) * 3
    assert power(ab, 0) == Word()
    with pytest.raises(InvalidWordError):
        power(ab, -1)
    monkeypatch.setattr(words_mod, "MAX_WORD_LETTERS", 6)
    assert len(power(ab, 3)) == 6
    with pytest.raises(CapacityError, match="6-letter cap"):
        power(ab, 4)
    with pytest.raises(CapacityError):
        power(ab, 1 << 20000)  # an exponent with too many digits to print
    c = commutator(generator(0), generator(1))
    assert c.letters == (0, 1, 0, 1)
    assert commutator(pair(0, 1), generator(2)).letters == (1, 0, 2, 0, 1, 2)


def test_text_round_trip_examples():
    assert word_to_text(Word()) == "1"
    assert word_from_text("1") == Word()
    assert word_from_text("") == Word()
    w = word_from_text("r0 r1 r10")
    assert w.letters == (0, 1, 10)
    assert word_to_text(w) == "r0 r1 r10"
    for bad in ("r0 x1", "r-1", "r0^-1", "r1 r1^-1", "r2^1", "r"):
        with pytest.raises(InvalidWordError, match="bad word token"):
            word_from_text(bad)


@given(words)
def test_inverse_cancels(w):
    # w w^-1 is the identity wherever each generator acts as an involution:
    # here the 8 generators are transpositions of 5 points, so that w w,
    # unlike w w^-1, is mostly not the identity
    points = np.arange(5)
    act = []
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (0, 4), (2, 4)):
        swap = points.copy()
        swap[[i, j]] = j, i
        act.append(swap)
    image = points
    for g in (w * w.inverse()).letters:
        image = act[g][image]
    assert np.array_equal(image, points)
    assert w.inverse().inverse() == w
    assert w.inverse().letters == w.letters[::-1]


@given(words, words, st.integers(min_value=0, max_value=8))
def test_word_algebra_equals_checked_construction(a, b, e):
    # the algebra skips the letter checks; its words equal checked ones
    assert a * b == Word(list(a.letters) + list(b.letters))
    assert Word(a.letters) == a
    assert a.inverse() == Word(reversed(a.letters))
    assert power(a, e) == Word(list(a.letters) * e)
    assert commutator(a, b) == Word([*reversed(a.letters), *reversed(b.letters),
                                     *a.letters, *b.letters])


@given(words)
def test_text_round_trip(w):
    assert word_from_text(word_to_text(w)) == w


def test_presentation_validation():
    p = Presentation(2, (power(generator(0), 2), power(generator(1), 2)))
    assert p.generator_count == 2
    assert p.involutory_generators() == frozenset({0, 1})
    with pytest.raises(InvalidGeneratorError):
        Presentation(0, ())
    with pytest.raises(InvalidGeneratorError):
        Presentation(1, (generator(3),))
    with pytest.raises(InvalidWordError):
        Presentation(1, ("r0 r0",))


def test_involutory_generators_ignores_other_shapes():
    p = Presentation(4, (
        power(generator(0), 2),
        pair(1, 2),                       # not a square
        Word([3, 3, 3]),                  # a cube
        Word([2, 2]),
    ))
    assert p.involutory_generators() == frozenset({0, 2})


def test_presentation_text_needs_a_gens_line():
    with pytest.raises(InvalidWordError, match="missing a 'gens <n>' line"):
        presentation_from_text("rel r0 r0\n")


def test_presentation_text_round_trip():
    p = Presentation(3, (
        power(generator(0), 2),
        power(pair(0, 1), 4),
        commutator(pair(0, 1), generator(2)),
    ))
    q = presentation_from_text(p.to_text())
    assert q == p
    # comments and blank lines are tolerated
    r = presentation_from_text("# header\n\ngens 2\nrel r0 r0\n")
    assert r.generator_count == 2
    with pytest.raises(InvalidWordError):
        presentation_from_text("gens two\n")
    with pytest.raises(InvalidWordError):
        presentation_from_text("nonsense r0\n")
