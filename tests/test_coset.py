"""Coset enumeration: orders, indices, dual strategies and failure modes.

The brute-force oracle below closes the group by left-multiplying reduced
words, entirely independent of the table-based engine it checks.
"""

import tracemalloc

import pytest

import polycert.coset as coset_mod
from polycert import (
    EnumerationLimits,
    InvalidGeneratorError,
    LimitExceededError,
    Presentation,
    TableNotClosedError,
    commutator,
    coxeter_string_presentation,
    enumerate_cosets,
    family_a,
    family_g,
    family_k,
    generator,
    group_order,
    pair,
    power,
    subgroup_index,
    tight_quotient_presentation,
)


def dihedral(m):
    return Presentation(2, (
        power(generator(0), 2),
        power(generator(1), 2),
        power(pair(0, 1), m),
    ))


def closure_order(perms, cap=1 << 13):
    """Size of the group the permutations generate, by plain BFS closure.

    Knows nothing about coset tables: it just multiplies permutations and
    hashes images, so it independently re-derives any order the enumeration
    engine claims (for groups small enough to hold in memory).
    """
    gens = list(perms)
    identity = gens[0].identity_like()
    seen = {identity.key(): identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = g * s
                k = h.key()
                if k not in seen:
                    if len(seen) >= cap:
                        raise AssertionError("closure exceeded the test cap")
                    seen[k] = h
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def test_trivial_group():
    p = Presentation(1, (generator(0),))
    assert group_order(p) == 1


def test_cyclic_groups():
    for m in (1, 2, 3, 8, 31):
        p = Presentation(1, (power(generator(0), m),))
        assert group_order(p) == m


def test_dihedral_order_and_index():
    p = dihedral(3)
    assert group_order(p) == 6
    assert subgroup_index(p, [0]) == 3
    assert subgroup_index(p, [1]) == 3
    assert subgroup_index(p, [0, 1]) == 1
    assert subgroup_index(p, []) == 6


def test_table_shape_and_permutations():
    p = dihedral(4)
    t = enumerate_cosets(p)
    assert t.closed
    assert t.live_count == 8
    perms = t.to_permutations()
    assert len(perms) == 2
    a, b = perms
    assert (a * a).is_identity
    assert (b * b).is_identity
    assert (a * b).order() == 4


def test_subgroup_enumeration():
    p = dihedral(4)
    t = enumerate_cosets(p, subgroup_generators=[generator(0)])
    assert t.live_count == 4
    # words, not bare generators, are accepted
    t2 = enumerate_cosets(p, subgroup_generators=[pair(0, 1)])
    assert t2.live_count == 2


def test_strategies_agree_byte_for_byte():
    cases = [
        dihedral(3),
        dihedral(6),
        tight_quotient_presentation((4, 4)),
        tight_quotient_presentation((4, 8)),
        family_a(3, 1, (2, 2)),
        family_k(4, (2, 2, 2)),
    ]
    for p in cases:
        th = enumerate_cosets(p, strategy="hlt")
        tf = enumerate_cosets(p, strategy="felsch")
        assert th.table == tf.table, "standardized tables must not depend on strategy"
        assert th.stats.strategy == "hlt"
        assert tf.stats.strategy == "felsch"
        assert tf.stats.deductions > 0


def test_enumeration_is_deterministic():
    p = family_k(4, (2, 2, 2))
    t1 = enumerate_cosets(p)
    t2 = enumerate_cosets(p)
    assert t1.table == t2.table
    assert t1.stats.cosets_created == t2.stats.cosets_created


def test_limit_exceeded_on_infinite_group():
    # the euclidean plane tiling group: no finite coset table exists
    p = coxeter_string_presentation((4, 4))
    limits = EnumerationLimits(max_cosets=500)
    for strategy in coset_mod.STRATEGIES:
        with pytest.raises(LimitExceededError) as info:
            enumerate_cosets(p, limits=limits, strategy=strategy)
        err = info.value
        assert err.cosets_created == 500
        # no two cosets of the tiling group coincide
        assert err.live_cosets == 500
        # three involution columns of 4-byte entries, for at least every
        # defined coset and at most twice as many slots
        assert 3 * 4 * 500 <= err.table_bytes <= 2 * 3 * 4 * 500
        assert err.table_bytes % (3 * 4) == 0
        assert "500 live" in str(err)
        assert f"{err.table_bytes} table bytes" in str(err)


def test_limit_run_memory_per_coset():
    # int32 columns take 4 bytes per column and coset slot; a table of
    # Python lists, one per coset, would take over 130 bytes per coset here
    p = coxeter_string_presentation((4, 4, 4))
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceededError) as info:
            enumerate_cosets(p, limits=EnumerationLimits(max_cosets=20_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.cosets_created == 20_000
    assert peak / info.value.cosets_created <= 64


# live, created, compactions, lookaheads, deductions; the table layout must
# not change which cosets either strategy defines, or in which order
PINNED_COUNTERS = [
    (family_g(5, 12, (2, 2, 2, 3)), {"hlt": (4096, 10343, 1, 0, 0),
                                     "felsch": (4096, 4096, 1, 0, 10240)}),
    (family_g(3, 12, (2, 9)), {"hlt": (4096, 5122, 1, 0, 0),
                               "felsch": (4096, 4096, 1, 0, 6144)}),
    (tight_quotient_presentation((8, 8, 8)), {"hlt": (1024, 2010, 1, 0, 0),
                                              "felsch": (1024, 1024, 1, 0, 2048)}),
    (family_k(4, (2, 2, 2)), {"hlt": (128, 187, 1, 0, 0),
                              "felsch": (128, 128, 1, 0, 256)}),
]


def test_enumeration_counters_are_pinned():
    for p, expected in PINNED_COUNTERS:
        for strategy, counts in expected.items():
            s = enumerate_cosets(p, strategy=strategy).stats
            got = (s.live_count, s.cosets_created, s.compactions, s.lookaheads,
                   s.deductions)
            assert got == counts, (p, strategy)


def test_limits_validation():
    with pytest.raises(ValueError):
        EnumerationLimits(max_cosets=0)
    with pytest.raises(ValueError):
        EnumerationLimits(max_deductions=-1)


def test_lagrange_divisibility():
    p = family_k(4, (2, 3, 2))
    order = group_order(p)
    for subset in ([], [0], [1], [0, 1], [1, 2], [0, 3], [0, 1, 2], [1, 2, 3]):
        index = subgroup_index(p, subset)
        assert order % index == 0


def test_bad_inputs():
    p = dihedral(3)
    with pytest.raises(ValueError):
        enumerate_cosets(p, strategy="both")
    with pytest.raises(InvalidGeneratorError):
        enumerate_cosets(p, subgroup_generators=[generator(5)])
    with pytest.raises(InvalidGeneratorError):
        enumerate_cosets(p, subgroup_generators=["r0"])
    with pytest.raises(InvalidGeneratorError):
        subgroup_index(p, [0, 9])


def test_unclosed_table_refuses_lookup():
    p = dihedral(4)
    t = enumerate_cosets(p)
    t.closed = False
    with pytest.raises(TableNotClosedError):
        t.to_permutations()
    t.table[1][0] = -1
    with pytest.raises(TableNotClosedError):
        t.trace(0, pair(0, 0))


def test_validate_catches_corruption():
    enumerate_cosets(dihedral(4)).validate()

    def wrong_arrow(t):
        t.table[2][0] ^= 1

    def undefined_entry(t):
        t.table[0][1] = -1

    def out_of_range_entry(t):
        t.table[0][1] = len(t.table)

    def short_row(t):
        t.table[5].pop()

    def open_relator(t):
        # (r0 r1)^2 is the central rotation of the dihedral group of order 8,
        # so it fails at every coset while every back link stays consistent
        extra = power(pair(0, 1), 2)
        t.presentation = Presentation(2, t.presentation.relators + (extra,))

    def moving_subgroup_generator(t):
        t.subgroup_generators = (generator(0),)

    cases = [
        (wrong_arrow, r"entry \(2, col 0\) lacks a consistent back link"),
        (undefined_entry, r"entry \(0, col 1\) = -1 undefined"),
        (out_of_range_entry, r"entry \(0, col 1\) = 8 undefined or out of range"),
        (short_row, "row 5 has wrong width"),
        (open_relator, "does not close at coset 0"),
        (moving_subgroup_generator, "moves coset 0"),
    ]
    for corrupt, message in cases:
        t = enumerate_cosets(dihedral(4))
        corrupt(t)
        with pytest.raises(TableNotClosedError, match=message):
            t.validate()


def test_lookahead_is_exercised(monkeypatch):
    monkeypatch.setattr(coset_mod, "FIRST_LOOKAHEAD", 64)
    p = family_k(4, (2, 2, 2))  # needs 128 cosets, so the threshold trips
    t = enumerate_cosets(p)
    assert t.live_count == 128
    assert t.stats.lookaheads >= 1


def test_aggressive_compaction_changes_nothing(monkeypatch):
    cases = [
        (family_a(3, 2, (2, 2)), "hlt"),
        (tight_quotient_presentation((8, 8, 8)), "hlt"),
        (tight_quotient_presentation((8, 8, 8)), "felsch"),
        (family_g(3, 10, (3, 3)), "felsch"),
    ]
    baselines = [enumerate_cosets(p, strategy=s).table for p, s in cases]
    monkeypatch.setattr(coset_mod, "COMPACTION_DEAD_LIVE_RATIO", 0)
    for (p, strategy), baseline in zip(cases, baselines):
        t = enumerate_cosets(p, strategy=strategy)
        assert t.table == baseline, (p, strategy)
        if t.stats.cosets_created > t.stats.live_count:
            # cosets died, so the columns were compacted mid-run, after growing
            assert t.stats.compactions > 1, (p, strategy)


def test_deduction_stack_overflow_falls_back(monkeypatch):
    p = family_k(4, (2, 2, 2))
    baseline = enumerate_cosets(p, strategy="felsch").table
    monkeypatch.setattr(coset_mod, "MAX_DEDUCTION_STACK", 0)
    t = enumerate_cosets(p, strategy="felsch")
    assert t.live_count == 128
    assert t.stats.lookaheads >= 1
    assert t.table == baseline


def test_dump_text_is_one_based():
    t = enumerate_cosets(dihedral(3))
    text = t.dump_text()
    assert text.splitlines()[0].startswith("coset")
    assert " 1 " in " " + text.splitlines()[1] + " "
    assert "0" not in text.splitlines()[1].split()[1:]  # no zero coset ids


def test_orders_against_closure_and_known_values():
    # (presentation, order known in advance): dihedral groups have order 2m,
    # the tight groups order 2*prod(k), the direct product C4 x C4 order 16
    cases = [
        (dihedral(3), 6),
        (dihedral(7), 14),
        (tight_quotient_presentation((4, 4)), 32),
        (tight_quotient_presentation((8, 4)), 64),
        (family_a(3, 1, (2, 2)), 32),  # 2**(1+2+2)
        (Presentation(2, (power(generator(0), 4), power(generator(1), 4),
                          commutator(generator(0), generator(1)))), 16),
    ]
    for p, known in cases:
        t = enumerate_cosets(p)
        assert t.live_count == known
        assert closure_order(t.to_permutations()) == known


def test_commutator_relator_enumeration():
    # a non-involutory presentation exercises the inverse columns
    p = Presentation(2, (
        power(generator(0), 4),
        power(generator(1), 4),
        commutator(generator(0), generator(1)),
    ))
    assert group_order(p) == 16
    assert group_order(p, strategy="felsch") == 16
