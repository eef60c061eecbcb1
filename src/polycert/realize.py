"""Concrete realizations of finitely presented groups via their regular action.

A ``RealizedGroup`` holds the regular coset table of its group, so group
elements are coset ids (0 is the identity) and each generator is a
right-multiplication array over the elements: row g of the table's one
array ``perms``, the same read-only image arrays that a stabilizer chain is
built from and that the flag graph is. Everything else is derived from that
single table without further enumerations. The table and the kept coset
labels are stored int32; the orbit route converts the two small tables to
intp once per call, gathers with ``take`` on intp indices, and stores the
image arrays it hands to ``closed_table`` as int32.

Every generator is a declared involution, as in every ``Presentation``.
The table is built as the orbit of one point when the presentation allows
it: the rank d is at least 3, every relator has even length, and some
adjacent pair (r_i, r_{i+1}) has a relator in those two generators alone
that is a rotation. Each such relator reduces in the
infinite dihedral group <r_i, r_{i+1} | r_i^2, r_{i+1}^2> to a reflection
or to a rotation (r_i r_{i+1})^(+-j); if m is the gcd of the rotation
exponents, H = <r_i, r_{i+1}> is a quotient of the dihedral group of order
2m. Let G' be generated by every generator but r_x, one of the pair, and
r_y the other. Every relator has even length exactly when sending every
generator to -1 is a character G -> C2; its kernel K is then the rotation
subgroup G+ of the products of an even number of generators, which has
index 2 and contains no generator (McMullen and Schulte, *Abstract Regular
Polytopes*, 2B). An
odd relator means that G+ is all of G: the group of a non-orientable
polytope is one such. Two enumerations, in this order, give N = [G:H] with
a transversal (the first entry of each coset, reading the standardized
table over H coset by coset) and the coset action of G on G'; every
generator swaps the two cosets of K. A completed enumeration proves an
index (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
ch. 5), so |G| = N |H| <= B = 2mN. The orbit O of the point (H, G', K) in
the product of the three coset actions is the H-orbit of that point carried
along the transversal: N disjoint blocks, one per coset of H. The first
block is the H-orbit of (G', K) in the product of the two small actions,
labelled by ``perms.orbit_labels`` under generators i and i+1; the others
follow with one numpy gather per level of the transversal tree.
|O| = [G : H n G' n K] <= |G|, so |O| = B proves that G acts regularly on
O. The points are numbered with one sort, the image arrays read with
``searchsorted``, and the action handed to ``coset.closed_table``, which
standardizes and validates it as it does every enumerated table;
standardization is canonical, so it is the enumerated table byte for byte.
The validated table is an action of G, transitive on B >= |G| points, so
it is regular: were the swap of the cosets of K no action of G, the table
could only raise or fall back. A bound above |G| can only fall back; a
bound below |G| is the one error that would give a wrong table, and the 2m
above is a proof that it cannot happen. In a string C-group H n G' = <r_y>
(McMullen and Schulte, 2E), and <r_y> n K = 1, so |O| < B means that the
group is not a string C-group or that H is smaller than 2m. Then, and
whenever the route does not apply, the table comes from one enumeration
over the trivial subgroup.

The proof holds for every adjacent pair, so the route picks the pair and
r_x by a rule that reads only the relators and keeps the two enumerations
small. H is the pair with the largest bound 2m, the first such pair on a
tie: a larger 2m means a smaller index N = |G|/|H| to enumerate. G' leaves
out r_i when the bound of the pair (i-1, i) is at most that of (i+1, i+2),
and r_{i+1} otherwise, counting a pair that does not exist as 0: G' then
keeps the neighbouring pair with the larger bound, and a larger G' has
fewer cosets. A presentation whose first pair has the largest bound takes
<r0, r1> and G_0 = <r1, ..., r_{d-1}>.

The limits and the strategy apply to every enumeration, and the first one
to hit a limit raises. The coset limit also bounds B, the cosets of the
regular table, as it bounds the cosets that plain enumeration defines. The
table's ``stats`` sum the counts of the two enumerations, and a limit on B
reports their total.

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
from .errors import LimitExceededError, TableNotClosedError
from .perms import orbit_labels
from .words import Presentation, Word, check_word, generator, tuple_of


def _rotation_bound(p: Presentation, pair: tuple[int, int]) -> int:
    """2m, where m is the gcd of the exponents j of the relators in the two
    generators r_a, r_b of ``pair`` alone that reduce to a rotation
    (r_a r_b)^(+-j) of the infinite dihedral group <r_a, r_b | r_a^2, r_b^2>;
    0 when no relator does. <r_a, r_b | those relators> is then a quotient
    of the dihedral group of order 2m."""
    m = 0
    for r in p.relators:
        if not set(r) <= set(pair):
            continue
        stack: list[int] = []  # the reduced form: its letters alternate
        for g in r:
            if stack and stack[-1] == g:
                stack.pop()
            else:
                stack.append(g)
        if len(stack) % 2 == 0:  # odd reduced forms are reflections
            m = gcd(m, len(stack) // 2)
    return 2 * m


def _orbit_table(p: Presentation, i: int, hidden: int, bound_h: int,
                 limits: EnumerationLimits, strategy: str, stats: Counter) -> CosetTable | None:
    """The regular table as the orbit of one point, or None when |O| < B.

    H = <r_i, r_{i+1}>, ``bound_h`` bounds |H|, and G' is generated by every
    generator but r_hidden, one of that pair. The module docstring states
    the construction and why it is a proof.
    """
    d = p.generator_count
    parts = [enumerate_cosets(p, subgroup, limits, strategy)
             for subgroup in ([generator(i), generator(i + 1)],
                              [generator(g) for g in range(d) if g != hidden])]
    stats["enumerations"] += len(parts)
    counts = EnumerationStats(strategy, **{
        name: sum(getattr(t.stats, name) for t in parts)
        for name in ("cosets_created", "compactions", "lookaheads", "deductions")})
    # the int32 tables as intp, once: every gather below takes intp indices
    th, tg = (t.perms.astype(np.intp) for t in parts)
    n, ng = th.shape[1], tg.shape[1]
    bound = n * bound_h
    # Block 0 is the H-orbit of the point (0, 0) in the product of the
    # actions on G' and on the two cosets of K, which every generator swaps:
    # point (a, b) is numbered 2a + b. The order of the points in a block is
    # irrelevant: they are numbered by one sort.
    swap = np.array([1, 0])
    labels = orbit_labels([(tg[g, :, None] * 2 + swap).ravel() for g in (i, i + 1)], ng * 2)
    block = np.flatnonzero(labels == 0)
    if n * len(block) != bound:
        return None
    if bound > limits.max_cosets:
        raise LimitExceededError(
            f"coset limit {limits.max_cosets} exceeded (the regular table has {bound} "
            f"cosets; {counts.cosets_created} cosets created in {len(parts)} enumerations)",
            cosets_created=counts.cosets_created)
    # Coset beta of H is first entered, reading the standardized table coset
    # by coset (``th.T`` in row-major order), from a smaller coset
    # parent[beta - 1] by generator gen[beta - 1]; parents never decrease, so
    # each level of that tree is one range of cosets, and block beta is block
    # parent moved by gen.
    parent, gen = np.divmod(np.unique(th.T, return_index=True)[1][1:], d)
    a = np.empty((n, len(block)), dtype=np.intp)
    b = np.empty_like(a)
    a[0], b[0] = np.divmod(block, 2)
    lo = 1
    while lo < n:
        hi = 1 + int(np.searchsorted(parent, lo))
        par, g = parent[lo - 1:hi - 1], gen[lo - 1:hi - 1, None]
        a[lo:hi] = tg[g, a[par]]
        b[lo:hi] = b[par] ^ 1
        lo = hi
    beta = np.repeat(np.arange(n, dtype=np.int64), len(block))
    keys = (beta * ng + a.ravel()) * 2 + b.ravel()
    order = np.argsort(keys)
    keys, beta, a, b = keys[order], beta[order], a.ravel()[order], b.ravel()[order]
    images = np.empty((d, len(keys)), dtype=np.intc)
    for g in range(d):
        image = th[g].take(beta).astype(np.int64, copy=False) * ng + tg[g].take(a)
        image = image * 2 + (b ^ 1)
        pos = np.minimum(np.searchsorted(keys, image), len(keys) - 1)
        if not np.array_equal(keys[pos], image):
            raise TableNotClosedError(f"the orbit of the base point is not closed under r{g}")
        images[g] = pos
    return closed_table(p, (), images, counts)


def _regular_table(p: Presentation, limits: EnumerationLimits, strategy: str,
                   stats: Counter) -> CosetTable:
    """The orbit route's table where it applies and closes, else one enumeration."""
    d = p.generator_count
    table = None
    if d >= 3 and all(len(r) % 2 == 0 for r in p.relators):
        # the bound of each adjacent pair; the one 0 appended stands for the
        # pairs (-1, 0) and (d-1, d), which do not exist
        bounds = [_rotation_bound(p, (i, i + 1)) for i in range(d - 1)] + [0]
        i = bounds.index(max(bounds))
        if bounds[i]:
            hidden = i if bounds[i - 1] <= bounds[i + 1] else i + 1
            table = _orbit_table(p, i, hidden, bounds[i], limits, strategy, stats)
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
        self._partitions: dict[frozenset[int], np.ndarray] = {}

    @property
    def rank(self) -> int:
        return self.presentation.generator_count

    def _check_subset(self, subset: Iterable[int]) -> frozenset[int]:
        # checked before the set is made: frozenset({1, True}) is {1}
        return frozenset(check_word(tuple_of(subset, "generator subset"), self.rank,
                                    "generator subset"))

    # -- elements -------------------------------------------------------------

    def element_of(self, w: Word) -> int:
        """Element id of a word (the image of the identity under its trace)."""
        return self.table.trace(0, check_word(w, self.rank, "word"))

    def element_order(self, w: Word) -> int:
        """Multiplicative order of the element a word represents."""
        cur = self.element_of(w)
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
            labels = orbit_labels([self.table.perms[g] for g in sorted(fs)], self.order)
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

