"""Word arithmetic, free reduction and the text round trip."""

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

letters = st.tuples(st.integers(min_value=0, max_value=7),
                    st.sampled_from((1, -1)))
words = st.lists(letters, max_size=64).map(Word)


def test_free_reduction_on_construction():
    w = Word([(0, 1), (1, 1), (1, -1), (0, 1)])
    assert w.letters == ((0, 1), (0, 1))
    assert Word([(3, 1), (3, -1)]) == Word()
    # cascading cancellation
    assert Word([(0, 1), (1, 1), (1, -1), (0, -1)]) == Word()


def test_word_basics():
    a, b = generator(0), generator(1)
    assert len(a * b) == 2
    assert (a * b).letters == ((0, 1), (1, 1))
    assert pair(0, 1) == a * b
    assert (a * b).inverse() == Word([(1, -1), (0, -1)])
    assert ~(a * b) == (a * b).inverse()
    assert (a * b).max_generator() == 1
    assert Word().max_generator() == -1
    assert not Word()
    assert a
    assert a[0] == (0, 1)


def test_word_rejects_garbage():
    with pytest.raises(InvalidWordError):
        Word([(0, 2)])
    with pytest.raises(InvalidWordError):
        Word([(-1, 1)])
    with pytest.raises(InvalidWordError):
        Word([(True, 1)])
    with pytest.raises(InvalidWordError):
        Word([7])
    for sign in (True, 1.0, -1.0):
        with pytest.raises(InvalidWordError, match="must be \\+1 or -1"):
            Word([(0, sign)])
    with pytest.raises(AttributeError):
        generator(0).letters = ()


def test_power_and_commutator_shapes(monkeypatch):
    ab = pair(0, 1)
    assert power(ab, 3).letters == ((0, 1), (1, 1)) * 3
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
    assert c.letters == ((0, -1), (1, -1), (0, 1), (1, 1))


def test_text_round_trip_examples():
    assert word_to_text(Word()) == "1"
    assert word_from_text("1") == Word()
    assert word_from_text("") == Word()
    w = word_from_text("r0 r1^-1 r10")
    assert w.letters == ((0, 1), (1, -1), (10, 1))
    assert word_to_text(w) == "r0 r1^-1 r10"
    with pytest.raises(InvalidWordError):
        word_from_text("r0 x1")
    with pytest.raises(InvalidWordError):
        word_from_text("r-1")


@given(words)
def test_reduce_is_idempotent(w):
    # a word is freely reduced on construction, so rebuilding it is a fixpoint
    assert Word(w.letters) == w
    assert Word(Word(w.letters).letters).letters == w.letters
    assert all(a[0] != b[0] or a[1] != -b[1] for a, b in zip(w.letters, w.letters[1:]))


@given(words, words)
def test_concatenation_reduces(u, v):
    prod = u * v
    assert Word(prod.letters) == prod
    assert prod == Word(u.letters + v.letters)


@given(words)
def test_inverse_cancels(w):
    assert w * w.inverse() == Word()
    assert w.inverse().inverse() == w


@given(words, words, st.integers(min_value=0, max_value=8))
def test_word_algebra_equals_checked_construction(a, b, e):
    # the algebra skips the letter checks; its words equal checked ones
    def inverse_letters(w):
        return [(g, -s) for g, s in reversed(w.letters)]

    assert a * b == Word(list(a.letters) + list(b.letters))
    assert ~a == Word(inverse_letters(a))
    assert power(a, e) == Word(list(a.letters) * e)
    assert commutator(a, b) == Word(inverse_letters(a) + inverse_letters(b)
                                    + list(a.letters) + list(b.letters))


def test_letters_are_shared():
    # one tuple per distinct letter, however the word was built
    w = generator(0) * pair(1, 0) * ~pair(2, 1)
    built = [w, word_from_text(word_to_text(w)), Word([tuple(x) for x in w.letters]),
             commutator(w, pair(3, 0)), power(w, 3)]
    letters = [x for u in built for x in u.letters]
    assert len({id(x) for x in letters}) == len(set(letters)) == 8


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
    p = Presentation(3, (
        power(generator(0), 2),
        pair(1, 2),                       # not a square
        Word([(2, -1), (2, -1)]),         # an inverse square still pins r2
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
