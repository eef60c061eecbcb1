"""Words as tuples of generator indices, kept as written; the one check of a
word where it enters the library; and the text round trip."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import polycert.words as words_mod
from polycert.coset import enumerate_cosets
from polycert.errors import CapacityError, InvalidGeneratorError, InvalidWordError, ParameterError
from polycert.families import family_g, tight_quotient_presentation
from polycert.realize import RealizedGroup
from polycert.words import (Presentation, check_word, commutator, generator, pair, power,
                            presentation_from_text, word_from_text, word_to_text)

words = st.lists(st.integers(min_value=0, max_value=7), max_size=64).map(tuple)


def test_words_keep_letters_as_written():
    # no letters cancel: r1 r1 is the identity only in a group that says so
    w = word_from_text("r0 r1 r1 r0")
    assert w == (0, 1, 1, 0)
    assert type(w) is tuple and all(type(g) is int for g in w)
    assert w + w[::-1] == (0, 1, 1, 0) * 2


def test_word_basics():
    a, b = generator(0), generator(1)
    assert a == (0,) and b == (1,)
    assert pair(0, 1) == a + b == (0, 1)
    assert pair(0, 1)[::-1] == (1, 0)
    words_built = (a, pair(0, 1), power(a, 3), commutator(a, b), word_from_text("1"))
    assert all(type(w) is tuple for w in words_built)


# each garbage letter, and the error it gets at every entry point: a letter
# that is no int is no word, an int outside 0..2 no generator of a rank-3 group
GARBAGE = ((-1, InvalidGeneratorError), (3, InvalidGeneratorError),
           (True, InvalidWordError), (1.0, InvalidWordError),
           ("0", InvalidWordError), (None, InvalidWordError))


def test_every_entry_point_refuses_garbage_letters():
    base = tight_quotient_presentation((4, 4))
    rg = RealizedGroup(base)
    for letter, error in GARBAGE:
        w = (0, letter)
        entry_points = {
            "Presentation": lambda: Presentation(3, base.relators + (w,)),
            "enumerate_cosets": lambda: enumerate_cosets(base, [w]),
            "element_of": lambda: rg.element_of(w),
            "element_order": lambda: rg.element_order(w),
            "parabolic_order": lambda: rg.parabolic_order([letter]),
            "intersection_order": lambda: rg.intersection_order([0], [1, letter]),
        }
        for name, call in entry_points.items():
            with pytest.raises(error) as exc:
                call()
            assert type(exc.value) is error, (letter, name)
    # a word is a tuple: a list or a text form is refused where it enters
    for bad in ([0, 1], "r0 r1"):
        for call in (lambda: Presentation(3, (bad,)), lambda: enumerate_cosets(base, [bad]),
                     lambda: rg.element_of(bad)):
            with pytest.raises(InvalidWordError, match="is not a tuple"):
                call()
    with pytest.raises(InvalidWordError, match="generator index True must be a nonnegative int"):
        rg.element_of((1, True))
    with pytest.raises(InvalidGeneratorError,
                       match="word 'r0 r-1' uses generator r-1 but the presentation has 3"):
        rg.element_of((0, -1))
    assert rg.element_of(()) == 0 and rg.parabolic_order(range(3)) == rg.order == 32
    # a subset or subgroup-generator list is any iterable, and nothing else
    for call in (lambda: rg.parabolic_order(5), lambda: rg.cosets(None),
                 lambda: rg.intersection_order([0], 5), lambda: enumerate_cosets(base, 5)):
        with pytest.raises(InvalidWordError, match="is not iterable"):
            call()
    assert rg.parabolic_order([0, 1]) == rg.parabolic_order(j for j in (0, 1)) == 8
    assert (enumerate_cosets(base, (w for w in [(0,), (1,)])).live_count
            == enumerate_cosets(base, [(0,), (1,)]).live_count == 4)


def test_power_and_commutator_shapes(monkeypatch):
    ab = pair(0, 1)
    assert power(ab, 3) == (0, 1) * 3
    assert power(ab, 0) == ()
    with pytest.raises(InvalidWordError):
        power(ab, -1)
    monkeypatch.setattr(words_mod, "MAX_WORD_LETTERS", 6)
    assert len(power(ab, 3)) == 6
    with pytest.raises(CapacityError, match="6-letter cap"):
        power(ab, 4)
    with pytest.raises(CapacityError):
        power(ab, 1 << 20000)  # an exponent with too many digits to print
    c = commutator(generator(0), generator(1))
    assert c == (0, 1, 0, 1)
    assert commutator(pair(0, 1), generator(2)) == (1, 0, 2, 0, 1, 2)


def test_text_round_trip_examples():
    assert word_to_text(()) == "1"
    assert word_from_text("1") == ()
    assert word_from_text("") == ()
    w = word_from_text("r0 r1 r10")
    assert w == (0, 1, 10)
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
    for g in w + w[::-1]:
        image = act[g][image]
    assert np.array_equal(image, points)


@given(words, words, st.integers(min_value=0, max_value=8))
def test_word_builders_are_tuple_operations(a, b, e):
    # each builder returns the tuple of its letters; check_word hands a word
    # over the 8 generators back as it is
    assert power(a, e) == tuple(list(a) * e)
    assert commutator(a, b) == (*reversed(a), *reversed(b), *a, *b)
    for w in (a, power(a, e), commutator(a, b)):
        assert check_word(w, 8, "word") is w


@given(words)
def test_text_round_trip(w):
    assert word_from_text(word_to_text(w)) == w


def test_presentation_validation():
    p = Presentation(2, (power(generator(0), 2), power(generator(1), 2)))
    assert p.generator_count == 2
    for build in (lambda: Presentation(2, ()), lambda: presentation_from_text("gens 2\n")):
        with pytest.raises(ParameterError) as info:
            build()
        assert str(info.value) == ("generators [0, 1] have no square relator; a string "
                                   "group candidate declares every generator an involution")
    with pytest.raises(InvalidGeneratorError):
        Presentation(0, ())
    # each relator's letters are checked before the squares are
    with pytest.raises(InvalidGeneratorError):
        Presentation(1, (generator(3),))
    with pytest.raises(InvalidWordError):
        Presentation(1, ("r0 r0",))


def test_presentation_repr_counts_relators():
    # a dataclass repr would print every letter: this group has a
    # 1,024-letter relator, and a relator may have 2^22
    p = family_g(3, 12, (9, 2))
    assert max(map(len, p.relators)) == 1024
    assert repr(p) == "Presentation(generators=3, relators=9)"


def test_only_a_square_relator_declares_an_involution():
    # r1 has only a pair, r3 only a cube, r4 nothing
    relators = (power(generator(0), 2), pair(1, 2), (3, 3, 3), (2, 2))
    text = "gens 5\nrel r0 r0\nrel r1 r2\nrel r3 r3 r3\nrel r2 r2\n"
    for build in (lambda: Presentation(5, relators), lambda: presentation_from_text(text)):
        with pytest.raises(ParameterError) as info:
            build()
        assert str(info.value) == ("generators [1, 3, 4] have no square relator; a string "
                                   "group candidate declares every generator an involution")


def test_presentation_text_needs_a_gens_line():
    with pytest.raises(InvalidWordError, match="missing a 'gens <n>' line"):
        presentation_from_text("rel r0 r0\n")


def test_presentation_text_round_trip():
    p = Presentation(3, (
        power(generator(0), 2),
        power(generator(1), 2),
        power(generator(2), 2),
        power(pair(0, 1), 4),
        commutator(pair(0, 1), generator(2)),
    ))
    q = presentation_from_text(p.to_text())
    assert q == p
    # comments and blank lines are tolerated
    r = presentation_from_text("# header\n\ngens 2\nrel r0 r0\n\nrel r1 r1\n")
    assert r.generator_count == 2
    with pytest.raises(InvalidWordError):
        presentation_from_text("gens two\n")
    with pytest.raises(InvalidWordError):
        presentation_from_text("nonsense r0\n")
