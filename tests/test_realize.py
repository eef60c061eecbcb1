"""Tests for the regular-realization layer.

Parabolic orders and intersection orders are cross-checked against a direct
walk of the subgroup's element set, a Python stack search that shares no code
with the numpy partition under test.
"""

import itertools
import types
from collections import Counter

import numpy as np
import pytest

import polycert.realize as realize_mod
from polycert.coset import EnumerationLimits, enumerate_cosets
from polycert.errors import InvalidGeneratorError, LimitExceededError, TableNotClosedError
from polycert.families import (
    coxeter_string_presentation,
    family_a,
    family_g,
    family_k,
    tight_quotient_presentation,
)
from polycert.perms import PermutationGroup, orbit_labels
from polycert.realize import RealizedGroup, _orbit_table, _rotation_bound, realize
from polycert.words import (
    Presentation,
    commutator,
    generator,
    pair,
    power,
    presentation_from_text,
)

ORACLE_PRESENTATIONS = [
    tight_quotient_presentation((4, 4)),
    family_a(3, 1, (2, 2)),
    family_k(4, (2, 2, 2)),
    # r0 collapses to the identity
    Presentation(2, (power(generator(0), 2), power(generator(1), 2), generator(0))),
    # r0 = r1, so the pair spans a group of order 2
    Presentation(3, (power(generator(0), 2), power(generator(1), 2), power(generator(2), 2),
                     pair(0, 1), power(pair(1, 2), 4), power(pair(0, 2), 2))),
    # dihedral of order 8 with r2 = (r0 r1)^2, where <r0, r1> swallows <r2>
    Presentation(3, (power(generator(0), 2), power(generator(1), 2), power(generator(2), 2),
                     power(pair(0, 1), 4), generator(2) + power(pair(0, 1), 2),
                     power(pair(0, 2), 2), power(pair(1, 2), 2))),
]

# Enumerations behind each oracle table: 2 on the orbit route, 1 where it
# does not apply (rank 2, or the odd relator r2 (r0 r1)^2 of the hidden
# centre). Where r0 = r1, the route takes <r1, r2>, whose bound 8 is the
# largest, but r0 = r1 and (r0 r2)^2 make (r1 r2)^2 trivial: |<r1, r2>| = 4,
# the orbit has fewer than B points, and the route falls back, at the cost
# of a third enumeration. That group is not a string C-group.
ORACLE_ENUMERATIONS = [2, 2, 2, 1, 3, 1]

# Order 8, with r2 = (r0 r1)^2 central: <r0, r1> n <r1, r2> n <r0, r2> has
# order 2, so the group fails the intersection property.
HIDDEN_CENTRE = ORACLE_PRESENTATIONS[5]


def even(p):
    """Does every relator have even length, so that the orbit route may
    take the rotation subgroup as K?"""
    return all(len(r) % 2 == 0 for r in p.relators)


def span_elements(rg, subset):
    """Element ids of the subgroup spanned by a generator subset.

    Walks the orbit of the identity under right multiplication, so it is
    independent of the quotient partitions used by ``parabolic_order``.
    """
    rights = [rg.table.perms[g] for g in subset]
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for arr in rights:
            v = int(arr[u])
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def all_subsets(rank):
    gens = range(rank)
    return [s for r in range(rank + 1) for s in itertools.combinations(gens, r)]


def test_parabolic_orders_tight44(tight44):
    _, rg, _ = tight44
    assert rg.order == 32
    assert rg.parabolic_order(()) == 1
    assert rg.parabolic_order((0,)) == 2
    assert rg.parabolic_order((1,)) == 2
    assert rg.parabolic_order((2,)) == 2
    assert rg.parabolic_order((0, 1)) == 8
    assert rg.parabolic_order((1, 2)) == 8
    assert rg.parabolic_order((0, 2)) == 4
    assert rg.parabolic_order((0, 1, 2)) == 32


def test_intersection_orders_tight44(tight44):
    _, rg, _ = tight44
    assert rg.intersection_order((0, 1), (1, 2)) == 2
    assert rg.intersection_order((1, 2), (0, 1)) == 2
    # nested subsets short-circuit to the smaller parabolic
    assert rg.intersection_order((0,), (0, 1)) == 2
    assert rg.intersection_order((0, 1, 2), (0, 2)) == 4
    assert rg.intersection_order((0,), (2,)) == 1
    assert rg.intersection_order((), (0, 1)) == 1


def test_parabolic_orders_match_direct_span():
    for p, enumerations in zip(ORACLE_PRESENTATIONS, ORACLE_ENUMERATIONS):
        rg = RealizedGroup(p)
        for subset in all_subsets(rg.rank):
            assert rg.parabolic_order(subset) == len(span_elements(rg, subset))
        assert rg.stats["enumerations"] == enumerations


def test_intersection_orders_match_element_sets():
    for p, enumerations in zip(ORACLE_PRESENTATIONS, ORACLE_ENUMERATIONS):
        rg = RealizedGroup(p)
        subsets = all_subsets(rg.rank)
        spans = {s: span_elements(rg, s) for s in subsets}
        for sa in subsets:
            for sb in subsets:
                expected = len(spans[sa] & spans[sb])
                assert rg.intersection_order(sa, sb) == expected
        assert rg.stats["enumerations"] == enumerations


def test_quotient_partition_consistency():
    rg = RealizedGroup(family_k(4, (2, 2, 2)))
    for subset in [(), (0,), (0, 1), (1, 2, 3), (0, 2), (0, 1, 2, 3)]:
        labels = rg.cosets(subset)
        assert not labels.flags.writeable
        assert rg.cosets(subset) is labels
        block = rg.parabolic_order(subset)
        # each coset is labelled by its smallest element, which labels itself
        reps, first, sizes = np.unique(labels, return_index=True, return_counts=True)
        assert np.array_equal(reps, first)
        assert len(reps) * block == rg.order and set(sizes.tolist()) == {block}
        # right multiplication by a generator of the subset stays in the coset
        for g in subset:
            assert np.array_equal(labels[rg.table.perms[g]], labels)


@pytest.mark.parametrize("p, enumerations", [
    (family_g(4, 10, (2, 2, 3)), 2),
    (ORACLE_PRESENTATIONS[4], 3),
    (ORACLE_PRESENTATIONS[5], 1),
], ids=["orbit-route", "fallback", "plain"])
def test_stored_arrays_stay_read_only_int32(p, enumerations):
    """The tables and the kept labels are int32 at rest, whichever route
    built them; only the gathers inside a call run on intp."""
    rg = RealizedGroup(p)
    assert rg.stats["enumerations"] == enumerations
    stored = [rg.table.perms, enumerate_cosets(p, [generator(0)]).perms,
              *(rg.cosets(s) for s in [(), (0,), (0, 1), tuple(range(rg.rank))])]
    for arr in stored:
        assert arr.dtype == np.int32
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[..., 0] = 0


def test_realize_returns_shared_instances():
    p = tight_quotient_presentation((4, 8))
    a = realize(p)
    assert realize(p) is a
    assert realize(p, EnumerationLimits(), "hlt") is a
    f = realize(p, strategy="felsch")
    assert f is not a
    felsch = enumerate_cosets(p, (), None, "felsch")
    assert np.array_equal(felsch.perms, a.table.perms)
    assert np.array_equal(felsch.perms, f.table.perms)


def test_element_of_and_element_order(tight44):
    _, rg, _ = tight44
    assert rg.element_of(()) == 0
    assert rg.element_order(()) == 1
    assert rg.element_order(generator(0)) == 2
    assert rg.element_order(pair(0, 1)) == 4
    assert rg.element_order(pair(1, 2)) == 4
    assert rg.element_order(pair(0, 2)) == 2
    assert rg.element_order(power(pair(0, 1), 2)) == 2
    assert rg.element_order(commutator(generator(0), generator(2))) == 1


def test_strategies_realize_identically():
    p = family_k(4, (3, 2, 2))
    h = RealizedGroup(p, strategy="hlt")
    f = RealizedGroup(p, strategy="felsch")
    assert h.order == f.order == 256
    felsch = enumerate_cosets(p, (), None, "felsch")
    assert np.array_equal(felsch.perms, h.table.perms)
    assert np.array_equal(felsch.perms, f.table.perms)


def test_regular_permutation_group():
    rg = RealizedGroup(family_a(3, 1, (2, 2)))
    g = PermutationGroup(rg.table.to_permutations(), degree=rg.order)
    assert g.order() == rg.order == 32
    assert not orbit_labels(rg.table.perms, rg.order).any()  # one orbit: the action is transitive


def test_the_realize_module_keeps_its_name():
    # the package exports no function under the submodule's name
    assert isinstance(realize_mod, types.ModuleType) and realize_mod.orbit_labels is orbit_labels


def test_bad_generator_subsets(tight44):
    _, rg, _ = tight44
    with pytest.raises(InvalidGeneratorError):
        rg.parabolic_order((0, 5))
    with pytest.raises(InvalidGeneratorError):
        rg.intersection_order((0,), (-1,))
    with pytest.raises(InvalidGeneratorError):
        rg.cosets((7,))


@pytest.mark.parametrize("p", [
    tight_quotient_presentation((4, 4, 4)),
    tight_quotient_presentation((8, 8, 8)),
    family_g(3, 12, (2, 9)),
    # 2m = 1024 and 512 cosets of G_0: the largest orbit block on the sweep
    # grid; G3 above is its mirror image, whose route takes <r1, r2> and
    # G' = <r0, r1>
    family_g(3, 12, (9, 2)),
    family_g(4, 12, (3, 3, 3)),
    family_g(5, 12, (2, 2, 2, 3)),
    # (r0 r1)^3 and (r1 r2)^3 have an odd count of each letter, but an even
    # length, so the sign is a character
    coxeter_string_presentation((3, 3)),
], ids=["tight444", "tight888", "G3", "G3-wide-block", "G4", "G5", "coxeter33"])
def test_orbit_route_gives_the_enumerated_table(p):
    assert even(p)
    rg = RealizedGroup(p)
    plain = enumerate_cosets(p)
    assert rg.stats["enumerations"] == 2
    assert np.array_equal(rg.table.perms, plain.perms)
    assert rg.table.stats.live_count == rg.order == plain.live_count
    assert 0 < rg.table.stats.cosets_created < plain.stats.cosets_created


@pytest.mark.parametrize("p, h, hidden", [
    # bounds 8, 64, 8 and 8, 8, 32, 8: H is the pair with the largest bound,
    # and as the pairs beside it tie, G' leaves out r_i
    (family_g(4, 12, (2, 5, 2)), (1, 2), 1),
    (family_g(5, 12, (2, 2, 4, 2)), (2, 3), 2),
    # bounds 16, 64, 8: G' leaves out r2 and keeps the larger pair (0, 1)
    (family_g(4, 12, (3, 5, 2)), (1, 2), 2),
    # every pair ties at 16, so the first pair and G_0, as for every
    # presentation whose first pair has the largest bound
    (tight_quotient_presentation((8, 8, 8)), (0, 1), 0),
], ids=["G4-middle", "G5-third", "G4-keeps-r1", "tight888"])
def test_the_route_takes_the_pair_with_the_largest_bound(p, h, hidden):
    # the table's counts are the sums of those of the two enumerations
    # that the rule names: H = <r_i, r_{i+1}> and G' without r_hidden
    d = p.generator_count
    subgroups = ([generator(g) for g in h], [generator(g) for g in range(d) if g != hidden])
    rg = RealizedGroup(p)
    assert rg.stats["enumerations"] == 2
    assert rg.table.stats.cosets_created == sum(
        enumerate_cosets(p, subgroup).stats.cosets_created for subgroup in subgroups)
    assert np.array_equal(rg.table.perms, enumerate_cosets(p).perms)


def test_a_wrong_character_is_caught_by_validate():
    # With an odd relator the swap of the cosets of K is no action of G. The
    # route, entered past its even-length test, must then fall back or raise.
    # The hemicube {4,3}_3 (order 24) is non-orientable: the orbit has
    # B = 24 points and closes, but (r0 r1 r2)^3 moves it, so validate() raises.
    hemicube = presentation_from_text(
        "gens 3\nrel r0 r0\nrel r1 r1\nrel r2 r2\nrel r0 r1 r0 r1 r0 r1 r0 r1\n"
        "rel r1 r2 r1 r2 r1 r2\nrel r0 r2 r0 r2\nrel r0 r1 r2 r0 r1 r2 r0 r1 r2\n")
    for p in (hemicube, HIDDEN_CENTRE):
        assert not even(p)
    # both take H = <r0, r1>, whose bound is the largest, and G' = G_0
    with pytest.raises(TableNotClosedError, match="does not close"):
        _orbit_table(hemicube, 0, 0, _rotation_bound(hemicube, (0, 1)), EnumerationLimits(),
                     "hlt", Counter())
    # the hidden centre's orbit has fewer than B = 8 points
    assert _orbit_table(HIDDEN_CENTRE, 0, 0, _rotation_bound(HIDDEN_CENTRE, (0, 1)),
                        EnumerationLimits(), "hlt", Counter()) is None
    rg = RealizedGroup(hemicube)
    assert rg.stats["enumerations"] == 1 and rg.order == 24


def test_an_orbit_block_that_is_not_closed_is_refused(monkeypatch):
    # block 0 keeps its size B = 8 but trades its last point for one of the
    # other 248, so the points it spans are no orbit, and some generator
    # leaves them
    p = family_g(3, 10, (2, 2))
    labels_of = realize_mod.orbit_labels

    def corrupt(gens, n):
        labels = labels_of(gens, n).copy()
        inside, outside = np.flatnonzero(labels == 0), np.flatnonzero(labels != 0)
        labels[[inside[-1], outside[0]]] = labels[outside[0]], 0
        return labels

    monkeypatch.setattr(realize_mod, "orbit_labels", corrupt)
    with pytest.raises(TableNotClosedError, match="the orbit of the base point is not closed"):
        RealizedGroup(p)


def test_failing_intersection_property_falls_back():
    # (r0 r1)^2 = (r1 r2)^2, so <r0, r1> n <r1, r2> has order 4, not 2:
    # |O| = 8 < B = 16, and the route must not accept the orbit as the group
    p = Presentation(3, (power(generator(0), 2), power(generator(1), 2), power(generator(2), 2),
                         power(pair(0, 1), 4), power(pair(1, 2), 4), power(pair(0, 2), 2),
                         power(pair(0, 1), 2) + power(pair(2, 1), 2)))
    assert even(p)
    rg = RealizedGroup(p)
    plain = enumerate_cosets(p)
    assert rg.stats["enumerations"] == 3
    assert rg.order == plain.live_count == 16
    assert rg.intersection_order((0, 1), (1, 2)) == 4
    assert np.array_equal(rg.table.perms, plain.perms)


@pytest.mark.parametrize("text, bound, order", [
    # the dihedral group of order 8 on r0 and r2, with r1 = (r0 r2)^2 its
    # centre: that relator has odd length, so the sign is no character
    ("rel r0 r2 r0 r2 r0 r2 r0 r2\nrel r1 r0 r2 r0 r2\nrel r0 r1 r0 r1\n", 4, 8),
    # (r0 r1)^2 r0 reduces to a reflection, which bounds no rotation: r0 = 1
    # and <r1, r2> is S3. Its odd length keeps the route off before the bound
    ("rel r0 r1 r0 r1 r0\nrel r1 r2 r1 r2 r1 r2\nrel r0 r2 r0 r2\n", 0, 6),
], ids=["no-character", "reflections"])
def test_no_character_or_no_rotation_takes_the_plain_path(text, bound, order):
    p = presentation_from_text("gens 3\nrel r0 r0\nrel r1 r1\nrel r2 r2\n" + text)
    assert not even(p)
    assert _rotation_bound(p, (0, 1)) == bound
    rg = RealizedGroup(p)
    assert rg.stats["enumerations"] == 1
    assert rg.order == order
    assert np.array_equal(rg.table.perms, enumerate_cosets(p).perms)


def test_no_bounding_relator_takes_the_plain_path():
    # S3 with r2 = r0: (r0 r1)^3 holds, but it is written r0 r1 r2 r1 r0 r1,
    # so no relator in an adjacent pair alone bounds a rotation, both
    # <r0, r1 | r0^2, r1^2> and <r1, r2 | r1^2, r2^2> are infinite, and the
    # route must not start
    p = presentation_from_text(
        "gens 3\nrel r0 r0\nrel r1 r1\nrel r2 r2\nrel r0 r2\nrel r0 r1 r2 r1 r0 r1\n")
    assert even(p) and _rotation_bound(p, (0, 1)) == _rotation_bound(p, (1, 2)) == 0
    rg = RealizedGroup(p, EnumerationLimits(max_cosets=50))
    assert rg.order == 6
    assert rg.stats["enumerations"] == 1


def test_orbit_route_limits_report_progress(monkeypatch):
    # the infinite Coxeter group {4,4,4}: every pair ties, so the route takes
    # <r0, r1>, and the enumeration over it never closes; no table shows the
    # choice, so the subgroups asked for are recorded
    asked = []
    enumerate_in_realize = realize_mod.enumerate_cosets

    def record(p, subgroup, *args):
        asked.append(subgroup)
        return enumerate_in_realize(p, subgroup, *args)

    monkeypatch.setattr(realize_mod, "enumerate_cosets", record)
    with pytest.raises(LimitExceededError) as info:
        RealizedGroup(coxeter_string_presentation((4, 4, 4)), EnumerationLimits(20_000))
    assert asked == [[generator(0), generator(1)]]
    assert info.value.cosets_created == 20_000
    assert 0 < info.value.live_cosets <= 20_000
    assert info.value.table_bytes > 0
    assert "coset limit 20000 exceeded" in str(info.value)
    # every enumeration fits in 10 cosets, but the regular table has 32 rows
    with pytest.raises(LimitExceededError) as info:
        RealizedGroup(tight_quotient_presentation((4, 4)), EnumerationLimits(10))
    assert "the regular table has 32 cosets" in str(info.value)
