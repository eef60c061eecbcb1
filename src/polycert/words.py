"""Words over indexed generators, and finite presentations built from them.

A word is an immutable sequence of letters ``(generator_index, sign)`` with
``sign`` one of ``+1``/``-1``. Words are freely reduced on construction
(adjacent ``x x^-1`` pairs cancel) and no further: ``r0 r0`` stays as written
even when r0 is an involution, so presentations are kept faithful to how
their relators were written.

Letters are shared: every word holds the one tuple kept for each distinct
``(gen, sign)``, so a long relator costs a pointer per letter, not a tuple.
``Word(...)`` checks every letter it is given; the word algebra (``*``,
``inverse``, :func:`power`, :func:`commutator`) only recombines letters of
words already checked, so it free-reduces them without checking them again.

Text form
---------

The compact text form writes letters as ``r<i>`` with an optional ``^-1``
suffix, separated by single spaces, e.g. ``"r0 r1 r0^-1"``. The empty word is
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
from typing import Iterable, Iterator

from .errors import CapacityError, InvalidGeneratorError, InvalidWordError, ParameterError

Letter = tuple[int, int]

# The most letters ``power`` builds, the default coset limit. Each letter
# costs an 8-byte pointer in the word and again in each temporary list or
# tuple that builds it, so this keeps a relator near 100 MB at the peak; an
# exponent read from the command line is otherwise unbounded, and a K
# exponent of 30 would ask for 2^31 letters before any enumeration limit.
MAX_WORD_LETTERS = 1 << 22

# The one tuple kept for each letter: at most two per generator ever used.
# Tuples are immutable and equal keys are equal letters, so sharing them
# changes no result, only the memory a word takes.
_LETTERS: dict[Letter, Letter] = {}


def _letter(gen: int, sign: int) -> Letter:
    key = (gen, sign)
    return _LETTERS.setdefault(key, key)


def _free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for letter in letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


class Word:
    """An immutable, freely reduced word over nonnegative generator indices."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        checked = []
        for letter in letters:
            try:
                gen, sign = letter
            except (TypeError, ValueError):
                raise InvalidWordError(f"letter {letter!r} is not a (gen, sign) pair")
            if not isinstance(gen, int) or isinstance(gen, bool) or gen < 0:
                raise InvalidWordError(f"generator index {gen!r} must be a nonnegative int")
            if type(sign) is not int or sign not in (1, -1):
                raise InvalidWordError(f"sign {sign!r} must be +1 or -1")
            checked.append(_letter(int(gen), sign))
        object.__setattr__(self, "letters", _free_reduce(checked))

    @classmethod
    def _of_checked(cls, letters: Iterable[Letter]) -> "Word":
        """The word of shared letters taken from words already checked."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", _free_reduce(letters))
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

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

    def __invert__(self) -> "Word":
        return self.inverse()

    def inverse(self) -> "Word":
        return Word._of_checked([_letter(g, -s) for g, s in reversed(self.letters)])

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max((g for g, _ in self.letters), default=-1)

    def __repr__(self) -> str:
        return f"Word({word_to_text(self)!r})"


def generator(i: int) -> Word:
    """The one-letter word ``r<i>``."""
    return Word([(i, 1)])


def pair(i: int, j: int) -> Word:
    """The two-letter word ``r<i> r<j>``."""
    return Word([(i, 1), (j, 1)])


def power(w: Word, e: int) -> Word:
    """``w`` concatenated ``e`` times (``e >= 0``), freely reduced; raises
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
    """``a^-1 b^-1 a b``, freely reduced."""
    return Word._of_checked(a.inverse().letters + b.inverse().letters
                            + a.letters + b.letters)


_TOKEN_RE = re.compile(r"^r(\d+)(\^-1)?$")


def word_to_text(w: Word) -> str:
    if not w.letters:
        return "1"
    parts = []
    for gen, sign in w.letters:
        parts.append(f"r{gen}" if sign > 0 else f"r{gen}^-1")
    return " ".join(parts)


def word_from_text(text: str) -> Word:
    text = text.strip()
    if text == "1" or text == "":
        return Word()
    letters = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if m is None:
            raise InvalidWordError(f"bad word token {token!r}")
        letters.append((int(m.group(1)), -1 if m.group(2) else 1))
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
        out = set()
        for r in self.relators:
            if len(r) == 2:
                (g1, s1), (g2, s2) = r.letters
                if g1 == g2 and s1 == s2:
                    out.add(g1)
        return frozenset(out)

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
