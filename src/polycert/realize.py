"""Concrete realizations of finitely presented groups via their regular action.

A ``RealizedGroup`` runs one coset enumeration over the trivial subgroup, so
group elements are coset ids (0 is the identity) and each generator is a
right-multiplication array over the elements: the read-only image array of
its permutation from ``CosetTable.to_permutations``. Everything else is
derived from that single table without further enumerations.

For a generator subset S, the orbits of right multiplication by S are the
left cosets w<S>, and the orbit of the identity is <S> itself. The library's
one orbit routine, ``perms.orbit_labels``, computes that partition. The
element set of <S> is kept as a boolean mask over the element ids, the one
cache per subset. The order of a parabolic subgroup is the size of its mask,
and the order of an intersection of two parabolics is the size of the
conjunction of their masks, exact for any presentation. ``quotient`` turns the same partition
into a coset map for the face lattice, built afresh on each call.

``stats`` counts the table-building passes: one enumeration, plus
``quotient_actions`` for every partition built.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable

import numpy as np

from .coset import EnumerationLimits, enumerate_cosets
from .errors import InvalidGeneratorError
from .perms import orbit_labels
from .words import Presentation, Word


class Quotient:
    """The set of left cosets w<S>, as a partition of the element ids.

    Built from each element's smallest coset-mate, as ``orbit_labels`` gives
    it. ``phi`` maps each element id to its coset id; coset ids are assigned
    in order of their smallest element.
    """

    __slots__ = ("phi", "size")

    def __init__(self, labels: np.ndarray):
        ids = np.cumsum(labels == np.arange(len(labels)), dtype=np.int32) - 1
        phi = ids[labels]
        phi.setflags(write=False)
        self.phi = phi
        self.size = int(ids[-1]) + 1


class RealizedGroup:
    """A finitely presented group realized on its own elements."""

    def __init__(self, presentation: Presentation,
                 limits: EnumerationLimits | None = None,
                 strategy: str = "hlt"):
        self.presentation = presentation
        self.table = enumerate_cosets(presentation, (), limits, strategy)
        self.order = self.table.live_count
        self.right = [perm.images for perm in self.table.to_permutations()]
        self.stats: Counter = Counter(enumerations=1)
        self._masks: dict[frozenset[int], np.ndarray] = {}
        self._element_orders: dict[Word, int] = {}

    @property
    def rank(self) -> int:
        return self.presentation.generator_count

    def _check_subset(self, subset: Iterable[int]) -> frozenset[int]:
        fs = frozenset(subset)
        for i in fs:
            if not 0 <= i < self.rank:
                raise InvalidGeneratorError(
                    f"generator index {i} out of range for rank {self.rank}")
        return fs

    # -- elements -------------------------------------------------------------

    def element_of(self, w: Word) -> int:
        """Element id of a word (the image of the identity under its trace)."""
        return self.table.trace(0, w)

    def element_order(self, w: Word) -> int:
        """Multiplicative order of the element a word represents."""
        cached = self._element_orders.get(w)
        if cached is not None:
            return cached
        cur = self.table.trace(0, w)
        n = 1
        while cur != 0:
            cur = self.table.trace(cur, w)
            n += 1
        self._element_orders[w] = n
        return n

    # -- parabolic subgroups -----------------------------------------------------

    def _orbit_labels(self, fs: frozenset[int]) -> np.ndarray:
        """The smallest element of each left coset w<fs>: the orbits of right
        multiplication by the generators in ``fs``."""
        self.stats["quotient_actions"] += 1
        return orbit_labels([self.right[g] for g in sorted(fs)], self.order)

    def _mask(self, fs: frozenset[int]) -> np.ndarray:
        """The elements of <fs>: the orbit of the identity, whose label is 0."""
        mask = self._masks.get(fs)
        if mask is None:
            mask = self._orbit_labels(fs) == 0
            mask.setflags(write=False)
            self._masks[fs] = mask
        return mask

    def quotient(self, subset: Iterable[int]) -> Quotient:
        return Quotient(self._orbit_labels(self._check_subset(subset)))

    def parabolic_order(self, subset: Iterable[int]) -> int:
        """Order of the subgroup spanned by a subset of the generators."""
        return int(np.count_nonzero(self._mask(self._check_subset(subset))))

    def intersection_order(self, left: Iterable[int], right: Iterable[int]) -> int:
        """Order of the intersection of two parabolic subgroups."""
        both = self._mask(self._check_subset(left)) & self._mask(self._check_subset(right))
        return int(np.count_nonzero(both))


@lru_cache(maxsize=32)
def _realize_cached(presentation: Presentation, limits: EnumerationLimits,
                    strategy: str) -> RealizedGroup:
    return RealizedGroup(presentation, limits, strategy)


def realize(presentation: Presentation,
            limits: EnumerationLimits | None = None,
            strategy: str = "hlt") -> RealizedGroup:
    """Shared-realization cache; same presentation, same object.

    Arguments are normalized first, so the default limits spelled as None
    and spelled out explicitly share one cache entry.
    """
    if limits is None:
        limits = EnumerationLimits()
    return _realize_cached(presentation, limits, strategy)

