"""Words over indexed generators, and finite presentations built from them.

A word is an immutable sequence of letters, each a nonnegative generator
index, kept exactly as written. polycert presents string C-groups, which are
generated by involutions (McMullen and Schulte, *Abstract Regular Polytopes*,
2B), and every enumeration requires a square relator r_i r_i for each
generator. So r_i^-1 is r_i, a letter needs no sign, and the inverse of a
word is the word reversed. No letters cancel: ``r0 r0`` stays as written, so
presentations are kept faithful to how their relators were written.

``Word(...)`` checks every letter it is given; the word algebra (``*``,
``inverse``, :func:`power`, :func:`commutator`) only recombines letters of
words already checked, so it does not check them again.

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


class Word:
    """An immutable word: a tuple of nonnegative generator indices."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        letters = tuple(letters)
        for gen in letters:
            if not isinstance(gen, int) or isinstance(gen, bool) or gen < 0:
                raise InvalidWordError(f"generator index {gen!r} must be a nonnegative int")
        object.__setattr__(self, "letters", tuple(map(int, letters)))

    @classmethod
    def _of_checked(cls, letters: tuple[int, ...]) -> "Word":
        """The word of letters taken from words already checked."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word._of_checked(self.letters + other.letters)

    def inverse(self) -> "Word":
        """The word reversed: every generator is an involution."""
        return Word._of_checked(self.letters[::-1])

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max(self.letters, default=-1)

    def __repr__(self) -> str:
        return f"Word({word_to_text(self)!r})"


def generator(i: int) -> Word:
    """The one-letter word ``r<i>``."""
    return Word((i,))


def pair(i: int, j: int) -> Word:
    """The two-letter word ``r<i> r<j>``."""
    return Word((i, j))


def power(w: Word, e: int) -> Word:
    """``w`` concatenated ``e`` times (``e >= 0``); raises
    ``CapacityError`` beyond ``MAX_WORD_LETTERS`` letters."""
    if e < 0:
        raise InvalidWordError("power exponent must be nonnegative")
    if len(w) * e > MAX_WORD_LETTERS:
        # the exponent is left out: it may have too many digits to print
        raise CapacityError(f"a power of a {len(w)}-letter word exceeds "
                            f"the {MAX_WORD_LETTERS}-letter cap")
    return Word._of_checked(w.letters * e)


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
    return Word._of_checked(a.letters[::-1] + b.letters[::-1] + a.letters + b.letters)


_TOKEN_RE = re.compile(r"^r(\d+)$")


def word_to_text(w: Word) -> str:
    if not w.letters:
        return "1"
    return " ".join(f"r{gen}" for gen in w.letters)


def word_from_text(text: str) -> Word:
    text = text.strip()
    if text == "1" or text == "":
        return Word()
    letters = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if m is None:
            raise InvalidWordError(f"bad word token {token!r}")
        letters.append(int(m.group(1)))
    return Word(letters)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: ``generator_count`` generators and relator words."""

    generator_count: int
    relators: tuple[Word, ...]

    def __init__(self, generator_count: int, relators: Iterable[Word]):
        if generator_count < 1:
            raise InvalidGeneratorError("a presentation needs at least one generator")
        rels = tuple(relators)
        for r in rels:
            if not isinstance(r, Word):
                raise InvalidWordError(f"relator {r!r} is not a Word")
            if r.max_generator() >= generator_count:
                raise InvalidGeneratorError(
                    f"relator {word_to_text(r)!r} uses generator r{r.max_generator()} "
                    f"but the presentation has {generator_count} generators")
        object.__setattr__(self, "generator_count", generator_count)
        object.__setattr__(self, "relators", rels)

    def involutory_generators(self) -> frozenset[int]:
        """Generators ``i`` with an explicit square relator ``r_i r_i``."""
        return frozenset(r[0] for r in self.relators if len(r) == 2 and r[0] == r[1])

    def require_involutions(self) -> None:
        """Raise ``ParameterError`` unless every generator has a square
        relator: the one precondition of every enumeration and of every
        string group candidate, checked before any work."""
        involutory = self.involutory_generators()
        missing = [i for i in range(self.generator_count) if i not in involutory]
        if missing:
            raise ParameterError(
                f"generators {missing} have no square relator; "
                f"a string group candidate declares every generator an involution")

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
