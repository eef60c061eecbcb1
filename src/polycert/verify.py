"""Certification of string-group structure for finitely presented groups.

The checks here decide, computationally and from scratch, whether a
presented group with involution generators is a string C-group: generators
really are involutions, non-adjacent generators commute, and standard
subgroups intersect exactly as their generator sets do. The intersection
check comes in two modes that must agree: ``full`` compares every pair of
generator subsets, ``recursive`` walks intervals of the generator string and
checks one boundary intersection per interval, which is equivalent for
groups that pass the involution and commutation checks and far cheaper.
The modes differ only in the subset pairs they give ``_check_pairs``, the
one routine that evaluates the identity and writes its evidence rows.

``certify`` bundles the checks into a ``SggiCertificate``; downstream
consumers (face lattices, the atlas) refuse uncertified input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod
from typing import NamedTuple

import numpy as np

from .coset import EnumerationLimits
from .errors import ParameterError
from .realize import RealizedGroup, realize
from .words import Presentation, commutator, generator, pair


@dataclass(frozen=True)
class SggiSpec:
    """A presentation put forward as a string group, with its declared type.

    Its presentation has a square relator for every generator, as every
    ``Presentation`` does. The declared type entries are the intended orders
    of the adjacent products; the certificate warns when the group disagrees.
    """

    presentation: Presentation
    declared_type: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.declared_type is not None:
            declared = tuple(self.declared_type)
            if len(declared) != self.presentation.generator_count - 1:
                raise ParameterError(
                    f"declared type needs {self.presentation.generator_count - 1} "
                    f"entries, got {len(declared)}")
            object.__setattr__(self, "declared_type", declared)


class IntersectionEvidence(NamedTuple):
    """One checked identity |<left> n <right>| == expected; the certificate
    document stores the row as it is, a plain 4-tuple once loaded."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    got: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.got == self.expected


def check_involutions(realized: RealizedGroup) -> tuple[int, ...]:
    """Element orders of the generators (1 marks a collapsed generator).

    Every generator has its square relator, so its order is 1 exactly when
    its row of the table is the identity, and 2 otherwise."""
    fixed = (realized.table.perms == np.arange(realized.order)).all(axis=1)
    return tuple(1 if f else 2 for f in fixed.tolist())


def check_string_property(realized: RealizedGroup) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """Do all non-adjacent generator pairs commute? Returns (ok, offending pairs)."""
    bad = []
    for i in range(realized.rank):
        for j in range(i + 2, realized.rank):
            if realized.element_of(commutator(generator(i), generator(j))) != 0:
                bad.append((i, j))
    return (not bad, tuple(bad))


def schlafli_type(realized: RealizedGroup) -> tuple[int, ...]:
    """Orders of the adjacent products r_i r_{i+1}, left to right."""
    return tuple(realized.element_order(pair(i, i + 1))
                 for i in range(realized.rank - 1))


def _check_pairs(realized: RealizedGroup,
                 pairs) -> tuple[bool, tuple[IntersectionEvidence, ...]]:
    """The one evaluation of the identity |G_a n G_b| == |G_{a n b}|: one
    row per subset pair (a, b), in the order given, and whether all hold."""
    rows = tuple(IntersectionEvidence(a, b, realized.intersection_order(a, b),
                                      realized.parabolic_order(set(a).intersection(b)))
                 for a, b in pairs)
    return all(row.ok for row in rows), rows


def check_intersection_property_full(
        realized: RealizedGroup) -> tuple[bool, tuple[IntersectionEvidence, ...]]:
    """Check |G_I n G_J| == |G_{I n J}| over the incomparable subset pairs.

    Comparable pairs are skipped: when I is contained in J the identity
    holds by definition, so only incomparable pairs carry information.
    Evidence is ordered by |I| + |J|, then I, then J.
    """
    subsets = {s: set(s) for r in range(realized.rank + 1)
               for s in itertools.combinations(range(realized.rank), r)}
    pairs = sorted(((a, b) for a, b in itertools.combinations(subsets, 2)
                    if not subsets[a] <= subsets[b] and not subsets[b] <= subsets[a]),
                   key=lambda ab: (len(ab[0]) + len(ab[1]), ab))
    return _check_pairs(realized, pairs)


def check_intersection_property_recursive(
        realized: RealizedGroup) -> tuple[bool, tuple[IntersectionEvidence, ...]]:
    """Interval recursion: an interval [i, j] of the generator string passes
    when both its end-trimmed subintervals pass and the boundary identity
    |G_[i, j-1] n G_[i+1, j]| == |G_[i+1, j-1]| holds.

    For groups with involution generators and the commutation pattern of a
    string group, the verdict agrees with the full subset sweep; evidence is
    emitted shortest interval first, left to right.
    """
    rank = realized.rank
    return _check_pairs(realized, [
        (tuple(range(i, i + length - 1)), tuple(range(i + 1, i + length)))
        for length in range(2, rank + 1) for i in range(rank - length + 1)])


def derive_fields(primary) -> dict:
    """The one derivation of every field that a certificate's primary fields
    determine, by ``DerivedFields``' name. ``primary`` is any record of
    those fields: ``rank``, ``order``, ``schlafli_type``,
    ``involution_orders``, ``string_ok``, ``intersection_ok`` and
    ``parabolic_orders``, the corank-1 parabolic orders.

    ``passed`` means a verified string C-group: every generator an
    involution, the string commutation and the intersection property.
    ``log2_order`` is the exact log2 of the order, or None when the order is
    no power of two (tight groups of non-2-power type exist). ``tight`` is
    an order of exactly twice the product of the type, the least a polytope
    of that type can have (Cunningham 2014); ``degenerate`` a type entry
    below 3; ``minimal`` every corank-1 parabolic a proper subgroup, so that
    faces of every rank exist. A passing group's ``f_vector`` is read off
    its corank-1 parabolic orders: the i-faces are the cosets of the i-th
    one (McMullen and Schulte, 2E); a failing group has none.
    """
    order, stype, parabolics = primary.order, primary.schlafli_type, primary.parabolic_orders
    involutions_ok = all(o == 2 for o in primary.involution_orders)
    passed = involutions_ok and primary.string_ok and primary.intersection_ok
    return {
        "involutions_ok": involutions_ok,
        "passed": passed,
        # the guard: a loaded document may hold any integer
        "log2_order": None if order < 1 or order & (order - 1) else order.bit_length() - 1,
        "degenerate": any(t < 3 for t in stype),
        "tight": primary.rank >= 2 and order == 2 * prod(stype),
        "minimal": all(o < order for _, o in parabolics),
        "f_vector": tuple(order // o for _, o in parabolics) if passed else None,
    }


@dataclass(frozen=True)
class DerivedFields:
    """The fields that ``derive_fields`` computes, shared by a certificate
    and its document. None can be passed in: ``__post_init__`` sets them all
    from the record's primary fields, so no record holds a value that they
    contradict, ``dataclasses.replace`` included."""

    involutions_ok: bool = field(init=False)
    passed: bool = field(init=False)
    log2_order: int | None = field(init=False)
    degenerate: bool = field(init=False)
    tight: bool = field(init=False)
    minimal: bool = field(init=False)
    f_vector: tuple[int, ...] | None = field(init=False)

    def __post_init__(self):
        for name, value in derive_fields(self).items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SggiCertificate(DerivedFields):
    """The outcome of certifying one presentation; its ``DerivedFields``
    are read off the primary fields below."""

    presentation: Presentation
    order: int
    schlafli_type: tuple[int, ...]
    declared_type: tuple[int, ...] | None
    involution_orders: tuple[int, ...]
    string_ok: bool
    string_failures: tuple[tuple[int, int], ...]
    intersection_ok: bool
    intersection_mode: str
    intersection_evidence: tuple[IntersectionEvidence, ...]
    parabolic_orders: tuple[tuple[tuple[int, ...], int], ...]
    warnings: tuple[str, ...]

    @property
    def rank(self) -> int:
        return self.presentation.generator_count


def certify(spec: SggiSpec | Presentation,
            mode: str = "recursive",
            limits: EnumerationLimits | None = None,
            strategy: str = "hlt") -> SggiCertificate:
    """Certify one presentation; see ``SggiCertificate`` for what is checked."""
    if isinstance(spec, Presentation):
        spec = SggiSpec(spec)
    if mode not in ("recursive", "full"):
        raise ParameterError(f"unknown intersection mode {mode!r}")
    p = spec.presentation
    rank = p.generator_count
    rg = realize(p, limits, strategy)
    inv_orders = check_involutions(rg)
    string_ok, string_bad = check_string_property(rg)
    stype = schlafli_type(rg)
    warnings: list[str] = []
    for i, o in enumerate(inv_orders):
        if o == 1:
            warnings.append(f"generator r{i} collapsed to the identity")
    if spec.declared_type is not None:
        for i, (want, got) in enumerate(zip(spec.declared_type, stype)):
            if want != got:
                warnings.append(
                    f"adjacent product r{i} r{i + 1} has order {got}, "
                    f"declared {want}")
    if mode == "recursive":
        inter_ok, evidence = check_intersection_property_recursive(rg)
    else:
        inter_ok, evidence = check_intersection_property_full(rg)
    maximal = []
    for i in range(rank):
        subset = tuple(x for x in range(rank) if x != i)
        maximal.append((subset, rg.parabolic_order(subset)))
    return SggiCertificate(
        presentation=p,
        order=rg.order,
        schlafli_type=stype,
        declared_type=spec.declared_type,
        involution_orders=inv_orders,
        string_ok=string_ok,
        string_failures=string_bad,
        intersection_ok=inter_ok,
        intersection_mode=mode,
        intersection_evidence=evidence,
        parabolic_orders=tuple(maximal),
        warnings=tuple(warnings),
    )

