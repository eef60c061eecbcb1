"""Tests for string C-group certification.

The counterexample used throughout is the order-8 dihedral group with the
central rotation square adjoined as a third generator: every generator is an
involution and non-adjacent generators commute, yet the standard subgroups
overlap more than their generator sets say, so only the intersection check
can reject it.
"""

import dataclasses
import itertools
import types

import pytest

from polycert.errors import ParameterError
from polycert.families import family_a, family_g, family_h, tight_quotient_presentation
from polycert.realize import RealizedGroup, _realize_cached, realize
from polycert.verify import (
    IntersectionEvidence,
    SggiSpec,
    certify,
    check_intersection_property_full,
    check_intersection_property_recursive,
    check_involutions,
    check_string_property,
    derive_fields,
    schlafli_type,
)
from polycert.words import Presentation, generator, pair, power, presentation_from_text


def hidden_center_presentation():
    """Dihedral of order 8 with r2 identified with the central (r0 r1)^2."""
    return Presentation(3, (
        power(generator(0), 2),
        power(generator(1), 2),
        power(generator(2), 2),
        power(pair(0, 1), 4),
        generator(2) + power(pair(0, 1), 2),
        power(pair(0, 2), 2),
        power(pair(1, 2), 2),
    ))


def noncommuting_ends_presentation():
    """Order 12, with the outer generator pair of order 3 instead of 2."""
    return Presentation(3, (
        power(generator(0), 2),
        power(generator(1), 2),
        power(generator(2), 2),
        power(pair(0, 1), 2),
        power(pair(1, 2), 2),
        power(pair(0, 2), 3),
    ))


def test_certificate_fields_tight44(tight44):
    _, _, cert = tight44
    assert cert.passed
    assert cert.order == 32
    assert cert.rank == 3
    assert cert.schlafli_type == (4, 4)
    assert cert.declared_type == (4, 4)
    assert cert.involution_orders == (2, 2, 2)
    assert cert.involutions_ok and cert.string_ok and cert.intersection_ok
    assert cert.string_failures == ()
    assert cert.intersection_mode == "recursive"
    assert cert.tight
    assert not cert.degenerate
    assert cert.minimal
    assert cert.warnings == ()
    assert dict(cert.parabolic_orders) == {(1, 2): 8, (0, 2): 4, (0, 1): 8}


def test_hidden_center_fails_intersection_only():
    cert = certify(hidden_center_presentation())
    assert cert.order == 8
    assert cert.schlafli_type == (4, 2)
    assert cert.involutions_ok
    assert cert.string_ok
    assert not cert.intersection_ok
    assert not cert.passed
    bad = [e for e in cert.intersection_evidence if not e.ok]
    assert bad == [IntersectionEvidence((0, 1), (1, 2), 4, 2)]


def test_hidden_center_full_mode_evidence():
    cert = certify(hidden_center_presentation(), mode="full")
    assert cert.intersection_mode == "full"
    assert not cert.intersection_ok
    bad = [(e.left, e.right, e.got, e.expected)
           for e in cert.intersection_evidence if not e.ok]
    assert bad == [
        ((2,), (0, 1), 2, 1),
        ((0, 1), (0, 2), 4, 2),
        ((0, 1), (1, 2), 4, 2),
    ]


def test_modes_agree_on_verdict(tight44):
    p_good, _, _ = tight44
    samples = [
        p_good,
        family_h(10, 2, 2),
        family_a(3, 1, (2, 2)),
        hidden_center_presentation(),
    ]
    for p in samples:
        rec = certify(p, mode="recursive")
        full = certify(p, mode="full")
        assert rec.intersection_ok == full.intersection_ok


def exhaustive_intersection_rows(rg):
    """Every subset pair's row |G_I n G_J| against |G_{I n J}|, comparable
    pairs included: the reference the pruned sweep is checked against."""
    subsets = [s for r in range(rg.rank + 1) for s in itertools.combinations(range(rg.rank), r)]
    return [IntersectionEvidence(a, b, rg.intersection_order(a, b),
                                 rg.parabolic_order(set(a) & set(b)))
            for a, b in itertools.combinations(subsets, 2)]


def test_pruned_and_exhaustive_sweeps_agree(tight44):
    _, rg, _ = tight44
    ok_pruned, ev_pruned = check_intersection_property_full(rg)
    ev_full = exhaustive_intersection_rows(rg)
    assert ok_pruned and all(row.ok for row in ev_full)
    assert len(ev_full) > len(ev_pruned)
    assert set(ev_pruned) <= set(ev_full)
    bad = RealizedGroup(hidden_center_presentation())
    assert check_intersection_property_full(bad)[0] is False
    assert not all(row.ok for row in exhaustive_intersection_rows(bad))


def test_recursive_evidence_layout(tight44):
    _, rg, _ = tight44
    ok, evidence = check_intersection_property_recursive(rg)
    assert ok
    assert [(e.left, e.right) for e in evidence] == [
        ((0,), (1,)),
        ((1,), (2,)),
        ((0, 1), (1, 2)),
    ]


@pytest.mark.parametrize("ks", [(4, 4), (4, 6, 4), (4, 4, 4, 4)])
def test_each_mode_checks_its_pair_list(ks):
    """The full mode's rows are the incomparable subset pairs, ordered by
    |a| + |b|, then a, then b; the recursive mode's are the d(d-1)/2 interval
    boundaries, shortest first, left to right; every row is measured against
    the parabolic order of a n b."""
    rg = RealizedGroup(tight_quotient_presentation(ks))
    d = rg.rank
    subsets = [s for r in range(d + 1) for s in itertools.combinations(range(d), r)]
    # each pair (a, b) with a listed before b: smaller first, then lexicographic
    incomparable = [(a, b) for a, b in itertools.combinations(subsets, 2)
                    if set(a) - set(b) and set(b) - set(a)]
    incomparable.sort(key=lambda ab: (len(ab[0]) + len(ab[1]), ab[0], ab[1]))
    # the interval [i, j] has boundary pair ([i, j-1], [i+1, j])
    boundaries = sorted(((tuple(range(i, j)), tuple(range(i + 1, j + 1)))
                         for i, j in itertools.combinations(range(d), 2)),
                        key=lambda ab: (len(ab[0]), ab[0]))
    assert len(boundaries) == d * (d - 1) // 2
    for check, pairs in ((check_intersection_property_full, incomparable),
                         (check_intersection_property_recursive, boundaries)):
        ok, rows = check(rg)
        assert ok
        assert [(row.left, row.right) for row in rows] == pairs
        for a, b, got, expected in rows:
            assert got == rg.intersection_order(a, b)
            assert expected == rg.parabolic_order(set(a) & set(b))


def test_basic_checks(tight44):
    _, rg, _ = tight44
    assert check_involutions(rg) == (2, 2, 2)
    assert check_string_property(rg) == (True, ())
    assert schlafli_type(rg) == (4, 4)


def test_string_property_failure_detected():
    cert = certify(noncommuting_ends_presentation())
    assert cert.order == 12
    assert cert.involutions_ok
    assert not cert.string_ok
    assert cert.string_failures == ((0, 2),)
    assert not cert.passed
    assert cert.degenerate  # both adjacent products have order 2


def test_declared_type_mismatch_warns(tight44):
    p, _, _ = tight44
    cert = certify(SggiSpec(p, (4, 8)))
    assert cert.passed  # a wrong declaration does not fail the certificate
    assert any("declared 8" in w for w in cert.warnings)
    assert certify(SggiSpec(p, (4, 4))).warnings == ()


def test_collapsed_generator_warns():
    p = Presentation(2, (
        power(generator(0), 2),
        power(generator(1), 2),
        generator(0),
    ))
    cert = certify(p)
    assert cert.involution_orders == (1, 2)
    assert not cert.involutions_ok
    assert not cert.passed
    assert any("r0 collapsed" in w for w in cert.warnings)


def test_spec_validation():
    # a spec cannot hold a generator without its square: its presentation
    # refuses it first
    message = ("generators [1] have no square relator; "
               "a string group candidate declares every generator an involution")
    for build in (lambda: Presentation(2, (power(generator(0), 2),)),
                  lambda: presentation_from_text("gens 2\nrel r0 r0\n")):
        with pytest.raises(ParameterError) as info:
            build()
        assert str(info.value) == message
    good = family_h(10, 2, 2)
    with pytest.raises(ParameterError):
        SggiSpec(good, declared_type=(4,))
    with pytest.raises(ParameterError, match="unknown intersection mode 'sideways'"):
        certify(good, mode="sideways")


def test_certification_enumeration_budget():
    """A fresh certification builds one regular table, from the two
    enumerations of the orbit route; everything else is partitions of that
    table, at most one per generator subset that ``certify`` reads."""
    cases = [
        family_h(11, 4, 4),
        family_g(4, 10, (2, 2, 2)),
        family_g(5, 12, (2, 2, 2, 2)),
    ]
    for p in cases:
        d = p.generator_count
        # the recursive check reads intervals of length 0 (the middle of
        # every length-2 interval) to d - 1; the corank-1 subsets follow
        read = {frozenset(range(i, i + length))
                for length in range(d) for i in range(d - length + 1)}
        read |= {frozenset(range(d)) - {i} for i in range(d)}
        _realize_cached.cache_clear()
        cert = certify(p)
        rg = realize(p)
        assert cert.passed
        assert rg.stats["enumerations"] == 2
        assert rg.stats["quotient_actions"] <= len(read)


# the primary fields of the tight {4,4} group, order 32, for hand-built cases
TIGHT44_PRIMARY = dict(rank=3, order=32, schlafli_type=(4, 4), involution_orders=(2, 2, 2),
                       string_ok=True, intersection_ok=True,
                       parabolic_orders=(((1, 2), 8), ((0, 2), 4), ((0, 1), 8)))


def derived(**change):
    return derive_fields(types.SimpleNamespace(**{**TIGHT44_PRIMARY, **change}))


def test_derived_fields_of_the_tight_square_group(tight44):
    _, _, cert = tight44
    assert derived() == {"involutions_ok": True, "passed": True, "log2_order": 5,
                         "degenerate": False, "tight": True, "minimal": True,
                         "f_vector": (4, 8, 4)}
    assert {name: getattr(cert, name) for name in derived()} == derived()


def test_minimal_fails_when_a_corank_1_parabolic_is_the_whole_group():
    whole = (((1, 2), 32), ((0, 2), 4), ((0, 1), 8))
    assert derived(parabolic_orders=whole)["minimal"] is False
    assert derived()["minimal"] is True


def test_tight_holds_at_exactly_twice_the_type_product():
    assert derived(order=32)["tight"] is True
    assert derived(order=64)["tight"] is False
    assert derived(order=16)["tight"] is False


def test_a_rank_1_group_is_never_tight():
    # 2 * prod(()) == 2 == its order: only the rank rules it out
    fields = derived(rank=1, order=2, schlafli_type=(), involution_orders=(2,),
                     parabolic_orders=(((), 1),))
    assert fields["passed"] and fields["tight"] is False


def test_degenerate_marks_a_type_entry_of_2():
    assert derived(schlafli_type=(4, 2))["degenerate"] is True
    assert derived(schlafli_type=(4, 3))["degenerate"] is False


@pytest.mark.parametrize("change", [
    {"intersection_ok": False},
    {"string_ok": False},
    {"involution_orders": (1, 2, 2)},
])
def test_a_failing_group_has_no_f_vector(change):
    fields = derived(**change)
    assert fields["passed"] is False
    assert fields["f_vector"] is None


def test_derived_log2_order():
    for order, log2 in ((1, 0), (2, 1), (1024, 10), (0, None), (3, None), (6, None)):
        assert derived(order=order)["log2_order"] == log2


def test_replace_re_derives_the_dependent_fields(tight44):
    _, _, cert = tight44
    failed = dataclasses.replace(cert, intersection_ok=False)
    assert failed.passed is False
    assert failed.f_vector is None
    assert cert.passed and cert.f_vector == (4, 8, 4)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(cert, passed=False)
