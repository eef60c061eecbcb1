"""Words over indexed generators, and finite presentations built from them.

A word is a tuple of letters, each a generator index, kept exactly as
written. polycert presents string C-groups, which are generated by
involutions (McMullen and Schulte, *Abstract Regular Polytopes*, 2B), and
a :class:`Presentation` refuses a generator without its square relator
r_i r_i, before any work. So r_i^-1 is r_i, a letter needs no sign, and the
inverse of a word ``w`` is ``w[::-1]``. No letters cancel: ``r0 r0`` stays
as written, so presentations are kept faithful to how their relators were
written. A word is checked once, by :func:`check_word`, where it enters the
library.

Text form
---------

The text form writes each letter as ``r<i>``, separated by single spaces,
e.g. ``"r0 r1 r0"``. There is no ``^-1`` suffix: reading ``r0^-1`` as ``r0``
would make ``rel r0 r0^-1``, which is trivial, the square relator that
declares r0 an involution, so such a token is refused. The empty word is
written ``"1"``. Presentations serialize one relator per line::

    gens 3
    rel r0 r0
    rel r0 r1 r0 r1

Both forms round-trip through :func:`word_from_text` /
:func:`presentation_from_text`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import CapacityError, InvalidGeneratorError, InvalidWordError, ParameterError

# The most letters ``power`` builds, the default coset limit. Each letter
# costs an 8-byte pointer in the word and again in each temporary list or
# tuple that builds it, so this keeps a relator near 100 MB at the peak; an
# exponent read from the command line is otherwise unbounded, and a K
# exponent of 30 would ask for 2^31 letters before any enumeration limit.
MAX_WORD_LETTERS = 1 << 22

# A word: its letters, the generator indices, in order.
Word = tuple[int, ...]


def check_word(w: Word, generator_count: int, what: str) -> Word:
    """``w`` itself, once it is a word over ``generator_count`` generators.

    The one check of a word or generator subset from outside the library:
    ``InvalidWordError`` unless ``w`` is a tuple of ints (a bool is no
    letter), then ``InvalidGeneratorError`` unless each lies in
    0..generator_count-1. Each pass over the letters runs in C: the set of
    their types, then the set of the letters themselves, whose few members
    give the range.
    """
    if not isinstance(w, tuple):
        raise InvalidWordError(f"{what} {w!r} is not a tuple of generator indices")
    if not set(map(type, w)) <= {int}:
        bad = next(g for g in w if type(g) is not int)
        raise InvalidWordError(f"{what}: generator index {bad!r} must be a nonnegative int")
    used = set(w)
    if used and (min(used) < 0 or max(used) >= generator_count):
        bad = min(used) if min(used) < 0 else max(used)
        raise InvalidGeneratorError(
            f"{what} {word_to_text(w)!r} uses generator r{bad} "
            f"but the presentation has {generator_count} generators")
    return w


def tuple_of(items: Iterable, what: str) -> tuple:
    """The tuple of ``items``; ``InvalidWordError`` when they are not iterable."""
    try:
        it = iter(items)
    except TypeError:
        raise InvalidWordError(f"{what} {items!r} is not iterable") from None
    return tuple(it)


def generator(i: int) -> Word:
    """The one-letter word ``r<i>``."""
    return (i,)


def pair(i: int, j: int) -> Word:
    """The two-letter word ``r<i> r<j>``."""
    return (i, j)


def power(w: Word, e: int) -> Word:
    """``w`` concatenated ``e`` times (``e >= 0``); raises
    ``CapacityError`` beyond ``MAX_WORD_LETTERS`` letters."""
    if e < 0:
        raise InvalidWordError("power exponent must be nonnegative")
    if len(w) * e > MAX_WORD_LETTERS:
        # the exponent is left out: it may have too many digits to print
        raise CapacityError(f"a power of a {len(w)}-letter word exceeds "
                            f"the {MAX_WORD_LETTERS}-letter cap")
    return w * e


def two_power(e: int) -> int:
    """2^e for an exponent ``e >= 0`` of a relator power; raises
    ``CapacityError`` when 2^e alone exceeds ``MAX_WORD_LETTERS``, before the
    shift builds an e-bit int (12 GB for an exponent of 10^11)."""
    if e >= MAX_WORD_LETTERS.bit_length():
        raise CapacityError(f"a power 2^e with e above {MAX_WORD_LETTERS.bit_length() - 1} "
                            f"exceeds the {MAX_WORD_LETTERS}-letter cap")
    return 1 << e


def commutator(a: Word, b: Word) -> Word:
    """``a^-1 b^-1 a b``, each inverse the word reversed."""
    return a[::-1] + b[::-1] + a + b


_TOKEN_RE = re.compile(r"^r(\d+)$")


def word_to_text(w: Word) -> str:
    if not w:
        return "1"
    return " ".join(f"r{gen}" for gen in w)


def word_from_text(text: str) -> Word:
    text = text.strip()
    if text == "1" or text == "":
        return ()
    letters = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if m is None:
            raise InvalidWordError(f"bad word token {token!r}")
        letters.append(int(m.group(1)))
    return tuple(letters)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: ``generator_count`` generators and relator words,
    among them the square r_i r_i of every generator (``ParameterError``
    otherwise)."""

    generator_count: int
    relators: tuple[Word, ...]

    def __init__(self, generator_count: int, relators: Iterable[Word]):
        if generator_count < 1:
            raise InvalidGeneratorError("a presentation needs at least one generator")
        rels = tuple(relators)
        for r in rels:
            check_word(r, generator_count, "relator")
        squares = {r[0] for r in rels if len(r) == 2 and r[0] == r[1]}
        missing = [i for i in range(generator_count) if i not in squares]
        if missing:
            raise ParameterError(
                f"generators {missing} have no square relator; "
                f"a string group candidate declares every generator an involution")
        object.__setattr__(self, "generator_count", generator_count)
        object.__setattr__(self, "relators", rels)

    def to_text(self) -> str:
        lines = [f"gens {self.generator_count}"]
        lines.extend(f"rel {word_to_text(r)}" for r in self.relators)
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (f"Presentation(generators={self.generator_count}, "
                f"relators={len(self.relators)})")


def presentation_from_text(text: str) -> Presentation:
    gen_count = None
    relators = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        if head == "gens":
            try:
                gen_count = int(rest)
            except ValueError:
                raise InvalidWordError(f"bad generator count line {line!r}")
        elif head == "rel":
            relators.append(word_from_text(rest))
        else:
            raise InvalidWordError(f"unrecognized presentation line {line!r}")
    if gen_count is None:
        raise InvalidWordError("presentation text missing a 'gens <n>' line")
    return Presentation(gen_count, relators)
