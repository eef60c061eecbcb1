"""Concrete realizations of finitely presented groups via their regular action.

A ``RealizedGroup`` holds the regular coset table of its group, so group
elements are coset ids (0 is the identity) and each generator is a
right-multiplication array over the elements: row g of ``right``, which is
the table's ``to_permutations()``, the same read-only image arrays that a
stabilizer chain is built from. Everything else is derived from that single
table without further enumerations.

Every generator is a declared involution, as ``coset.enumerate_cosets``
requires. The table is built as the orbit of one point when the
presentation allows it: the rank d is at least 3, every relator has even
length, and some relator in r0 and r1 alone is a rotation. Let
H = <r0, r1> and G_0 = <r1, ..., r_{d-1}>. Each relator in r0 and r1 alone
reduces in the infinite dihedral group <r0, r1 | r0^2, r1^2> to
a reflection or to a rotation (r0 r1)^(+-j); if m is the gcd of the rotation
exponents, H is a quotient of the dihedral group of order 2m. Every relator
has even length exactly when r_i -> -1 is a character G -> C2; its kernel K
is then the rotation subgroup G+ of the products of an even number of
generators, which has index 2 and does not contain r1 (McMullen and
Schulte, *Abstract Regular Polytopes*, 2B). An odd relator means that G+ is
all of G: the group of a non-orientable polytope is one such. Two
enumerations, in this order, give N = [G:H] with a transversal (the first
entry of each coset in row-major order of the standardized table over H)
and the coset action of G on G_0; every generator swaps the two cosets of
K. A completed enumeration proves an index (Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, ch. 5), so |G| = N |H| <= B = 2mN.
The orbit O of the point (H, G_0, K) in the product of the three coset
actions is the H-orbit of that point carried along the transversal: N
disjoint blocks, one per coset of H. The first block is the H-orbit of
(G_0, K) in the product of the two small actions, labelled by
``perms.orbit_labels``; the others follow with one numpy gather per level
of the transversal tree. |O| = [G : H n G_0 n K] <= |G|, so |O| = B proves
that G acts regularly on O. The points are numbered with one sort, the image
columns read with ``searchsorted``, and the action handed to
``coset.closed_table``, which standardizes and validates it as it does every
enumerated table; standardization is canonical, so it is the enumerated
table byte for byte. The validated table is an action of G, transitive on
B >= |G| points, so it is regular: were the swap of the cosets of K no
action of G, the table could only raise or fall back. A bound above |G| can
only fall back; a bound below |G| is the one error that would give a wrong
table, and the 2m above is a proof that it cannot happen. In a string
C-group H n G_0 = <r1> (McMullen and Schulte, 2E), and <r1> n K = 1, so
|O| < B means that the group is not a string C-group or that H is smaller
than 2m. Then, and whenever the route does not apply, the table comes from
one enumeration over the trivial subgroup. The limits and the strategy
apply to every enumeration, and the first one to hit a limit raises. The
coset limit also bounds B, the rows of the regular table, as it bounds the
rows that plain enumeration defines. The table's ``stats`` sum the counts
of the two enumerations, and a limit on B reports their total.

For a generator subset S, the orbits of right multiplication by S are the
left cosets w<S>, and the orbit of the identity is <S> itself. The library's
one orbit routine, ``perms.orbit_labels``, labels each element with the
smallest element of its coset. The group keeps those labels, read-only, from
the first time S is read: the one cache per subset. <S> is label 0, so a
parabolic order counts label 0 and an intersection order counts the elements
labelled 0 for both subsets, exact for any presentation. ``cosets`` hands
out the labels themselves: the face lattice reads its faces from them.

``stats`` counts the table-building passes: ``enumerations`` (2 on the
orbit route, 3 when it falls back, 1 when it does not apply), plus
``quotient_actions``, the subsets partitioned.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd
from typing import Iterable

import numpy as np

from .coset import (CosetTable, EnumerationLimits, EnumerationStats, closed_table,
                    enumerate_cosets)
from .errors import InvalidGeneratorError, LimitExceededError, TableNotClosedError
from .perms import orbit_labels
from .words import Presentation, Word, generator


def _rotation_bound(p: Presentation) -> int:
    """2m, where m is the gcd of the exponents j of the relators in r0 and r1
    alone that reduce to a rotation (r0 r1)^(+-j) of the infinite dihedral
    group <r0, r1 | r0^2, r1^2>; 0 when no relator does. <r0, r1 | those
    relators> is then a quotient of the dihedral group of order 2m."""
    m = 0
    for r in p.relators:
        if r.max_generator() > 1:
            continue
        stack: list[int] = []  # the reduced form: its letters alternate
        for g in r.letters:
            if stack and stack[-1] == g:
                stack.pop()
            else:
                stack.append(g)
        if len(stack) % 2 == 0:  # odd reduced forms are reflections
            m = gcd(m, len(stack) // 2)
    return 2 * m


def _orbit_table(p: Presentation, bound_h: int, limits: EnumerationLimits,
                 strategy: str, stats: Counter) -> CosetTable | None:
    """The regular table as the orbit of one point, or None when |O| < B.

    ``bound_h`` bounds |<r0, r1>|. The module docstring states the
    construction and why it is a proof.
    """
    d = p.generator_count
    parts = [enumerate_cosets(p, subgroup, limits, strategy)
             for subgroup in ([generator(0), generator(1)], [generator(i) for i in range(1, d)])]
    stats["enumerations"] += len(parts)
    counts = EnumerationStats(strategy, **{
        name: sum(getattr(t.stats, name) for t in parts)
        for name in ("cosets_created", "compactions", "lookaheads", "deductions")})
    th, t0 = (t.matrix for t in parts)
    bound = len(th) * bound_h
    n, n0 = len(th), len(t0)
    # Block 0 is the <r0, r1>-orbit of the point (0, 0) in the product of
    # the actions on G_0 and on the two cosets of K, which every generator
    # swaps: point (a, b) is numbered 2a + b. The order of the points in a
    # block is irrelevant: they are numbered by one sort.
    swap = np.array([1, 0], dtype=np.intc)
    labels = orbit_labels([(t0[:, g, None] * 2 + swap).ravel() for g in (0, 1)], n0 * 2)
    block = np.flatnonzero(labels == 0)
    if n * len(block) != bound:
        return None
    if bound > limits.max_cosets:
        raise LimitExceededError(
            f"coset limit {limits.max_cosets} exceeded (the regular table has {bound} "
            f"cosets; {counts.cosets_created} cosets created in {len(parts)} enumerations)",
            cosets_created=counts.cosets_created)
    # Coset beta of H is first entered, in row-major order of the
    # standardized table, from a smaller coset parent[beta - 1] by generator
    # gen[beta - 1]; parents never decrease, so each level of that tree is
    # one range of cosets, and block beta is block parent moved by gen.
    parent, gen = np.divmod(np.unique(th, return_index=True)[1][1:], d)
    a = np.empty((n, len(block)), dtype=np.intc)
    b = np.empty_like(a)
    a[0], b[0] = np.divmod(block, 2)
    lo = 1
    while lo < n:
        hi = 1 + int(np.searchsorted(parent, lo))
        par, g = parent[lo - 1:hi - 1], gen[lo - 1:hi - 1, None]
        a[lo:hi] = t0[a[par], g]
        b[lo:hi] = b[par] ^ 1
        lo = hi
    beta = np.repeat(np.arange(n, dtype=np.int64), len(block))
    keys = (beta * n0 + a.ravel()) * 2 + b.ravel()
    order = np.argsort(keys)
    keys, beta, a, b = keys[order], beta[order], a.ravel()[order], b.ravel()[order]
    images = np.empty((len(keys), d), dtype=np.intc)
    for g in range(d):
        image = (th[beta, g].astype(np.int64) * n0 + t0[a, g]) * 2 + (b ^ 1)
        pos = np.minimum(np.searchsorted(keys, image), len(keys) - 1)
        if not np.array_equal(keys[pos], image):
            raise TableNotClosedError(f"the orbit of the base point is not closed under r{g}")
        images[:, g] = pos
    return closed_table(p, (), images, counts)


def _regular_table(p: Presentation, limits: EnumerationLimits, strategy: str,
                   stats: Counter) -> CosetTable:
    """The orbit route's table where it applies and closes, else one enumeration."""
    d = p.generator_count
    table = None
    if d >= 3 and all(len(r) % 2 == 0 for r in p.relators):
        bound_h = _rotation_bound(p)
        if bound_h:
            table = _orbit_table(p, bound_h, limits, strategy, stats)
    if table is None:
        stats["enumerations"] += 1
        table = enumerate_cosets(p, (), limits, strategy)
    return table


class RealizedGroup:
    """A finitely presented group realized on its own elements."""

    def __init__(self, presentation: Presentation,
                 limits: EnumerationLimits | None = None,
                 strategy: str = "hlt"):
        self.presentation = presentation
        self.stats: Counter = Counter()
        self.table = _regular_table(presentation, limits or EnumerationLimits(), strategy,
                                    self.stats)
        self.order = self.table.live_count
        self.right = self.table.to_permutations()
        self._partitions: dict[frozenset[int], np.ndarray] = {}

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
        cur = self.table.trace(0, w)
        n = 1
        while cur != 0:
            cur = self.table.trace(cur, w)
            n += 1
        return n

    # -- parabolic subgroups -----------------------------------------------------

    def cosets(self, subset: Iterable[int]) -> np.ndarray:
        """The left cosets w<subset>, as each element's smallest coset-mate,
        read-only: the orbits of right multiplication by the generators in
        ``subset``, whose label 0 marks <subset> itself. Computed once per
        subset."""
        fs = self._check_subset(subset)
        labels = self._partitions.get(fs)
        if labels is None:
            self.stats["quotient_actions"] += 1
            labels = orbit_labels([self.right[g] for g in sorted(fs)], self.order)
            labels.setflags(write=False)
            self._partitions[fs] = labels
        return labels

    def parabolic_order(self, subset: Iterable[int]) -> int:
        """Order of the subgroup spanned by a subset of the generators."""
        return int(np.count_nonzero(self.cosets(subset) == 0))

    def intersection_order(self, left: Iterable[int], right: Iterable[int]) -> int:
        """Order of the intersection of two parabolic subgroups."""
        both = (self.cosets(left) == 0) & (self.cosets(right) == 0)
        return int(np.count_nonzero(both))


@lru_cache(maxsize=2)
def _realize_cached(presentation: Presentation, limits: EnumerationLimits,
                    strategy: str) -> RealizedGroup:
    return RealizedGroup(presentation, limits, strategy)


def realize(presentation: Presentation,
            limits: EnumerationLimits | None = None,
            strategy: str = "hlt") -> RealizedGroup:
    """Shared-realization cache; same presentation, same object.

    Arguments are normalized first, so the default limits spelled as None
    and spelled out explicitly share one cache entry. The memo keeps the two
    latest realizations: the calls that share one (``certify`` in both
    intersection modes, then the polytope checks) follow each other, and an
    older entry would only hold its table and partitions in memory.
    """
    if limits is None:
        limits = EnumerationLimits()
    return _realize_cached(presentation, limits, strategy)

