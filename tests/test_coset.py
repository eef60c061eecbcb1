"""Coset enumeration: orders, indices, dual strategies and failure modes.

The brute-force oracle below closes the group by left-multiplying reduced
words, entirely independent of the table-based engine it checks.
"""

import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import polycert.coset as coset_mod
from polycert.coset import EnumerationLimits, enumerate_cosets
from polycert.errors import (InvalidGeneratorError, InvalidWordError, LimitExceededError,
                             ParameterError, TableNotClosedError)
from polycert.families import (coxeter_string_presentation, family_a, family_g, family_k,
                               tight_quotient_presentation)
from polycert.perms import PermutationGroup
from polycert.realize import RealizedGroup
from polycert.words import (Presentation, commutator, generator, pair, power,
                            presentation_from_text, word_to_text)


def dihedral(m):
    return Presentation(2, (
        power(generator(0), 2),
        power(generator(1), 2),
        power(pair(0, 1), m),
    ))


# <r_i | r_i^2, (r0 r1)^3, (r1 r2)^3, (r0 r2)^2, (r0 r1 r2)^4>, of order 24:
# the reversal of (r0 r1 r2)^4 is none of its rotations
REVERSAL_NOT_A_ROTATION = Presentation(3, (
    power(generator(0), 2), power(generator(1), 2), power(generator(2), 2),
    power(pair(0, 1), 3), power(pair(1, 2), 3), power(pair(0, 2), 2),
    power((0, 1, 2), 4),
))


def closure_order(perms, cap=1 << 13):
    """Size of the group the permutations generate, by plain BFS closure.

    Knows nothing about coset tables: it just multiplies permutations and
    hashes images, so it independently re-derives any order the enumeration
    engine claims (for groups small enough to hold in memory).
    """
    identity = np.arange(perms.shape[1], dtype=perms.dtype)
    seen = {identity.tobytes()}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in perms:
                h = s[g]  # g, then s
                k = h.tobytes()
                if k not in seen:
                    if len(seen) >= cap:
                        raise AssertionError("closure exceeded the test cap")
                    seen.add(k)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def test_trivial_group():
    p = Presentation(1, (power(generator(0), 2), generator(0)))
    assert enumerate_cosets(p).live_count == 1


def test_dihedral_groups():
    for m in (1, 2, 3, 8, 31):
        for strategy in coset_mod.STRATEGIES:
            assert enumerate_cosets(dihedral(m), strategy=strategy).live_count == 2 * m


def test_an_empty_relator_changes_no_table():
    # ``rel 1`` is the empty word, which the engine skips: the tables,
    # enumerated and realized, and their counts are what they are without it
    p = tight_quotient_presentation((4, 4))
    gens, *rels = p.to_text().splitlines()
    q = presentation_from_text("\n".join([gens, "rel 1", *rels, "rel 1"]) + "\n")
    assert [len(r) for r in q.relators].count(0) == 2
    for strategy in coset_mod.STRATEGIES:
        for build in (lambda x: enumerate_cosets(x, (), None, strategy),
                      lambda x: RealizedGroup(x, strategy=strategy).table):
            with_empty, without = build(q), build(p)
            assert with_empty.perms.tobytes() == without.perms.tobytes()
            assert with_empty.stats == without.stats


def test_a_generator_that_is_no_declared_involution_is_refused():
    # the table's one column per generator is its own inverse, so C4 x C2
    # is refused when its presentation is built, before any enumeration
    c4_x_c2 = (power(generator(0), 4), power(generator(1), 2),
               commutator(generator(0), generator(1)))
    text = "".join(["gens 2\n", *(f"rel {word_to_text(r)}\n" for r in c4_x_c2)])
    for build in (lambda: Presentation(2, c4_x_c2), lambda: presentation_from_text(text)):
        with pytest.raises(ParameterError) as info:
            build()
        assert str(info.value) == ("generators [0] have no square relator; a string "
                                   "group candidate declares every generator an involution")


def test_dihedral_order_and_index():
    p = dihedral(3)
    for subset, index in (([], 6), ([0], 3), ([1], 3), ([0, 1], 1)):
        for strategy in coset_mod.STRATEGIES:
            t = enumerate_cosets(p, [generator(i) for i in subset], strategy=strategy)
            assert t.live_count == index, (subset, strategy)


def test_table_shape_and_permutations():
    p = dihedral(4)
    t = enumerate_cosets(p)
    assert t.live_count == 8
    # the table is one array, a row per generator, handed out as it is
    perms = t.to_permutations()
    assert perms is t.perms
    assert perms.shape == (2, 8) and perms.dtype == np.int32
    assert perms.flags.c_contiguous and not perms.flags.writeable
    assert t.table == perms.T.tolist()
    a, b = perms
    assert np.array_equal(a[a], np.arange(8))
    assert np.array_equal(b[b], np.arange(8))
    assert PermutationGroup([b[a]]).order() == 4


def test_subgroup_enumeration():
    p = dihedral(4)
    t = enumerate_cosets(p, subgroup_generators=[generator(0)])
    assert t.live_count == 4
    # words, not bare generators, are accepted
    t2 = enumerate_cosets(p, subgroup_generators=[pair(0, 1)])
    assert t2.live_count == 2


def test_strategies_agree_byte_for_byte():
    g4 = family_g(4, 12, (3, 3, 3))
    k4 = family_k(4, (2, 2, 2))
    cases = [
        (dihedral(3), ()),
        (dihedral(6), ()),
        (tight_quotient_presentation((4, 4)), ()),
        (tight_quotient_presentation((4, 8)), ()),
        (family_a(3, 1, (2, 2)), ()),
        (k4, ()),
        # Felsch defines 4,108 cosets here for 4,096 live ones
        (g4, ()),
        # parabolic subgroups
        (g4, (generator(0), generator(3))),
        (g4, (generator(1), generator(2))),
        (k4, (generator(0),)),
        (k4, (generator(0), generator(1), generator(2))),
    ]
    coincidences = False
    for p, subgens in cases:
        th = enumerate_cosets(p, subgens, strategy="hlt")
        tf = enumerate_cosets(p, subgens, strategy="felsch")
        assert th.table == tf.table, "standardized tables must not depend on strategy"
        assert th.stats.strategy == "hlt"
        assert tf.stats.strategy == "felsch"
        assert tf.stats.deductions > 0
        coincidences |= tf.stats.cosets_created > tf.stats.live_count
    assert coincidences


def test_felsch_groups_read_each_cycle_from_both_ends():
    # the lemma of _Engine._process_deductions: a word c u of groups[c],
    # read backwards from the other end of its c edge, is c u reversed past
    # its first letter, and that word is in groups[c] too, so no deduction
    # needs a second scan; each relator of the first three presentations
    # reads backwards as one of its own rotations, so only the last needs
    # the reversed words
    cases = [
        family_g(5, 12, (2, 2, 2, 3)),
        tight_quotient_presentation((8, 8, 8)),
        coxeter_string_presentation((4, 4, 4)),
        REVERSAL_NOT_A_ROTATION,
    ]
    for p in cases:
        engine = coset_mod._Engine(p, (), EnumerationLimits(), "felsch")
        groups = [{seq for seq, _ in g} for g in engine._felsch_groups()]
        for c, words in enumerate(groups):
            assert words, (p, c)
            for w in words:
                assert w[0] == c
                assert (c,) + w[:0:-1] in groups[c], (p, c, w)
    for strategy in coset_mod.STRATEGIES:
        assert enumerate_cosets(REVERSAL_NOT_A_ROTATION, strategy=strategy).live_count == 24


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


def test_deduction_limit_reports_progress(monkeypatch):
    # Felsch on an infinite group stops at the deduction limit long before
    # the coset limit, and says how far it got, as the coset limit does
    p = coxeter_string_presentation((4, 4, 4))
    monkeypatch.setattr(coset_mod, "MAX_DEDUCTIONS", 1000)
    limits = EnumerationLimits(max_cosets=10**6)
    with pytest.raises(LimitExceededError) as info:
        enumerate_cosets(p, limits=limits, strategy="felsch")
    err = info.value
    assert err.deductions == 1001
    assert 0 < err.live_cosets <= err.cosets_created < 10**6
    # four involution columns of 4-byte entries, at most twice the cosets
    assert 4 * 4 * err.cosets_created <= err.table_bytes <= 2 * 4 * 4 * err.cosets_created
    assert f"{err.cosets_created} cosets created, {err.live_cosets} live" in str(err)


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


def test_hlt_skips_the_cycles_it_has_closed(monkeypatch):
    counts = Counter()  # _Engine._scan calls by the length of the word scanned
    scan = coset_mod._Engine._scan

    def counting(self, alpha, rel, fill):
        counts[len(rel[0])] += 1
        return scan(self, alpha, rel, fill)

    monkeypatch.setattr(coset_mod._Engine, "_scan", counting)
    # (r0 r1)^512 over <r1, r2>: one scan closes the one cycle through all
    # 512 cosets and marks every coset on it, since (r0 r1)^512 reads as
    # itself from each of them, forwards or backwards (it was scanned from
    # all 512 before the marks)
    t = enumerate_cosets(family_g(3, 12, (9, 2)), (generator(1), generator(2)))
    assert t.live_count == 512
    assert counts[1024] == 1
    # an infinite group at the coset limit, with one lookahead on the way:
    # the marks and the lookahead's start at the HLT pointer skip more than
    # half the scans, and how far the run got reads exactly as without them
    counts.clear()
    lookaheads = []
    lookahead = coset_mod._Engine._lookahead
    monkeypatch.setattr(coset_mod._Engine, "_lookahead",
                        lambda self, start: lookaheads.append(start) or lookahead(self, start))
    with pytest.raises(LimitExceededError) as info:
        enumerate_cosets(coxeter_string_presentation((4, 4, 4)),
                         (generator(0), generator(1)), EnumerationLimits(max_cosets=40_000))
    err = info.value
    assert len(lookaheads) == 1 and lookaheads[0] > 0
    assert sum(counts.values()) < 261_536 // 2  # 261,536 before the marks
    assert str(err) == ("coset limit 40000 exceeded (40000 cosets created, 40000 live, "
                        "1048576 table bytes; the table is not closed)")
    assert (err.cosets_created, err.live_cosets, err.table_bytes) == (40_000, 40_000, 1_048_576)


def test_marks_stay_true_through_coincidences_and_compaction(monkeypatch):
    # compaction after every coincidence: every mark left on a live coset
    # still names a relator that closes there, and no freed slot keeps one
    monkeypatch.setattr(coset_mod, "COMPACTION_DEAD_LIVE_RATIO", 0)
    for p in (tight_quotient_presentation((8, 8, 8)), family_a(3, 2, (2, 2))):
        engine = coset_mod._Engine(p, (), EnumerationLimits(), "hlt")
        engine.run_hlt()
        stats = engine.finalize(()).stats
        assert stats.cosets_created > stats.live_count and stats.compactions > 1
        n = engine.n
        marks = np.frombuffer(engine.marks, dtype=engine.marks.typecode)
        assert not marks[n:].any()
        marked = 0
        for _, (_, cols), bit, _ in engine.steps:
            for alpha in np.flatnonzero(marks[:n] & bit).tolist():
                f = alpha
                for col in cols:
                    f = col[f]
                assert f == alpha, (p, bit, alpha)
                marked += 1
        assert marked > n


def test_a_wrong_mark_can_only_raise(monkeypatch):
    # r1 r0 r1 reads as itself only from offset 0 of its cycles; a helper
    # that claims every offset makes HLT skip scans that would not close,
    # and the post-hoc check refuses the table it leaves
    p = Presentation(2, (power(generator(0), 2), power(generator(1), 2),
                         (1, 0, 1)))
    assert enumerate_cosets(p).live_count == 2
    assert coset_mod._closed_offsets((1, 0, 1)) == (0,)
    monkeypatch.setattr(coset_mod, "_closed_offsets",
                        lambda seq: tuple(range(len(seq))))
    with pytest.raises(TableNotClosedError, match="'r1 r0 r1' does not close"):
        enumerate_cosets(p)


def test_closed_offsets():
    # (r0 r1)^3 reads as itself forwards from even offsets, backwards from odd
    assert coset_mod._closed_offsets((0, 1) * 3) == tuple(range(6))
    # r0 r1 r2 r1 reads as itself forwards from 0 and backwards from 1
    assert coset_mod._closed_offsets((0, 1, 2, 1)) == (0, 1)
    # (r0 r1 r2)^4 has root length 3 and no backward symmetry
    assert coset_mod._closed_offsets((0, 1, 2) * 4) == (0, 3, 6, 9)
    # (r0 r1 r0 r2)^2 has root length 4 and reads backwards as itself from 3
    # and from 7
    assert coset_mod._closed_offsets((0, 1, 0, 2) * 2) == (0, 3, 4, 7)
    assert coset_mod._root_length((0, 1) * 512) == 2
    assert coset_mod._root_length((0, 1, 2)) == 3


def test_limits_validation():
    with pytest.raises(ParameterError, match="max_cosets must be positive"):
        EnumerationLimits(max_cosets=0)


def test_lagrange_divisibility():
    p = family_k(4, (2, 3, 2))
    order = enumerate_cosets(p).live_count
    for subset in ([], [0], [1], [0, 1], [1, 2], [0, 3], [0, 1, 2], [1, 2, 3]):
        for strategy in coset_mod.STRATEGIES:
            index = enumerate_cosets(
                p, [generator(i) for i in subset], strategy=strategy).live_count
            assert order % index == 0, (subset, strategy)


def test_bad_inputs():
    p = dihedral(3)
    with pytest.raises(ParameterError, match="unknown strategy 'both'"):
        enumerate_cosets(p, strategy="both")
    with pytest.raises(InvalidGeneratorError):
        enumerate_cosets(p, subgroup_generators=[generator(5)])
    with pytest.raises(InvalidWordError):
        enumerate_cosets(p, subgroup_generators=["r0"])


def test_validate_catches_corruption():
    # a table is frozen once validated, so each corrupt copy is a new table
    enumerate_cosets(dihedral(4)).validate()

    def set_entry(t, i, c, value):
        """The table with the image of coset i under generator c set to value."""
        corrupt = t.perms.copy()
        corrupt[c, i] = value
        return dataclasses.replace(t, perms=corrupt)

    def wrong_arrow(t):
        return set_entry(t, 2, 0, t.perms[0, 2] ^ 1)

    def undefined_entry(t):
        return set_entry(t, 0, 1, -1)

    def out_of_range_entry(t):
        return set_entry(t, 0, 1, t.live_count)

    def two_undefined_entries(t):
        # read coset by coset, the first bad entry is (1, col 1); read
        # generator by generator it would be (3, col 0), whose back link
        # through the undefined (5, col 0) breaks
        return set_entry(set_entry(t, 5, 0, -1), 1, 1, -1)

    def missing_generator(t):
        return dataclasses.replace(t, perms=t.perms[:-1].copy())

    def open_relator(t):
        # (r0 r1)^2 is the central rotation of the dihedral group of order 8,
        # so it fails at every coset while every back link stays consistent
        extra = power(pair(0, 1), 2)
        return dataclasses.replace(
            t, presentation=Presentation(2, t.presentation.relators + (extra,)))

    def moving_subgroup_generator(t):
        return dataclasses.replace(t, subgroup_generators=(generator(0),))

    cases = [
        (wrong_arrow, r"entry \(2, col 0\) lacks a consistent back link"),
        (undefined_entry, r"entry \(0, col 1\) = -1 undefined"),
        (out_of_range_entry, r"entry \(0, col 1\) = 8 undefined or out of range"),
        (two_undefined_entries, r"entry \(1, col 1\) = -1 undefined"),
        (missing_generator, r"table has shape \(1, 8\), expected \(2, 8\)"),
        (open_relator, "does not close at coset 0"),
        (moving_subgroup_generator, "moves coset 0"),
    ]
    for corrupt, message in cases:
        t = corrupt(enumerate_cosets(dihedral(4)))
        with pytest.raises(TableNotClosedError, match=message):
            t.validate()

    # (r0 r1)^4 is checked as the 4th power of the map of r0 r1; on a
    # square (where r0 r1 is a 4-cycle) beside a triangle (a 3-cycle),
    # relabelled so that the triangle is not at the start, the first open
    # coset must be the one a letter-by-letter trace finds
    square_and_triangle = [[1, 0], [0, 2], [3, 1], [2, 3], [5, 4], [4, 6], [6, 5]]
    relabel = np.array([0, 3, 1, 5, 2, 6, 4])
    perms = np.empty((2, 7), dtype=np.intc)
    perms[:, relabel] = relabel[square_and_triangle].T
    t = dataclasses.replace(enumerate_cosets(dihedral(4)), perms=perms)
    relator = power(pair(0, 1), 4)
    first_open = next(x for x in range(7) if t.trace(x, relator) != x)
    assert first_open == 2
    with pytest.raises(TableNotClosedError, match=f"does not close at coset {first_open}$"):
        t.validate()


def test_a_disconnected_coset_graph_is_refused():
    # <r0 | r0^2> on two disjoint 2-cycles: every entry is back-linked and
    # every relator closes, but only two of the four cosets are reachable
    p = Presentation(1, (power(generator(0), 2),))
    perms = np.array([[1, 0, 3, 2]], dtype=np.intc)
    with pytest.raises(TableNotClosedError,
                       match="^coset graph is not connected; table corrupt$"):
        coset_mod.closed_table(p, (), perms, coset_mod.EnumerationStats())


def test_tables_are_frozen():
    # every table is built and validated by closed_table, then frozen
    for t in (enumerate_cosets(dihedral(4)), RealizedGroup(family_k(3, (2, 2))).table):
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.perms = t.perms.copy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.subgroup_generators = (generator(0),)


def test_lookahead_is_exercised(monkeypatch):
    # with the threshold at 2, HLT's lookaheads on this group of order 1,024
    # find coincidences, and some kill the coset the lookahead scans from;
    # the table they leave is the one of the default threshold, which has
    # no lookahead
    p = family_g(3, 10, (2, 2))
    baseline = enumerate_cosets(p)
    assert baseline.stats.lookaheads == 0
    killed = []
    scan = coset_mod._Engine._scan

    def recording(self, alpha, rel, fill):
        merged = scan(self, alpha, rel, fill)
        if not fill and self.p[alpha] != alpha:
            killed.append(alpha)
        return merged

    monkeypatch.setattr(coset_mod._Engine, "_scan", recording)
    monkeypatch.setattr(coset_mod, "FIRST_LOOKAHEAD", 2)
    t = enumerate_cosets(p)
    assert t.stats.lookaheads >= 1 and killed
    assert t.perms.tobytes() == baseline.perms.tobytes()
    assert t.stats.cosets_created > t.live_count == 1024


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


def test_orders_against_closure_and_known_values():
    # (presentation, order known in advance): dihedral groups have order 2m,
    # the tight groups order 2*prod(k)
    cases = [
        (dihedral(3), 6),
        (dihedral(7), 14),
        (tight_quotient_presentation((4, 4)), 32),
        (tight_quotient_presentation((8, 4)), 64),
        (family_a(3, 1, (2, 2)), 32),  # 2**(1+2+2)
        (REVERSAL_NOT_A_ROTATION, 24),
    ]
    for p, known in cases:
        t = enumerate_cosets(p)
        assert t.live_count == known
        assert closure_order(t.to_permutations()) == known


@st.composite
def small_presentations(draw):
    """2-4 generators, each a declared involution; a few short relators; and
    up to three subgroup generators. Many of these groups are infinite."""
    n = draw(st.integers(2, 4))
    letters = st.integers(0, n - 1)
    relators = [power(generator(g), 2) for g in range(n)]
    for _ in range(draw(st.integers(1, 4))):
        w = tuple(draw(st.lists(letters, min_size=1, max_size=3)))
        relators.append(power(w, draw(st.integers(1, 4))))
    subgroup = [tuple(draw(st.lists(letters, min_size=1, max_size=3)))
                for _ in range(draw(st.integers(0, 3)))]
    return Presentation(n, relators), subgroup


def sympy_order(p):
    """Order of the presented group by sympy's own HLT enumeration.

    ``FpGroup.order()`` is not used: before it enumerates, it splits off a
    finite-index subgroup and asks for that subgroup's order, which on some
    groups of order 1 to 24 hit the recursion limit or did not return in 40 s.
    """
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    free, *gens = free_group([f"r{g}" for g in range(p.generator_count)])
    relators = []
    for r in p.relators:
        w = free.identity
        for g in r:
            w = w * gens[g]
        relators.append(w)
    return len(FpGroup(free, relators).coset_enumeration([]).table)


@settings(max_examples=150, deadline=None)
@given(small_presentations())
def test_random_presentations_agree_across_enumerators(case):
    p, subgroup = case
    try:
        th = enumerate_cosets(p, subgroup, EnumerationLimits(max_cosets=1000))
    except LimitExceededError:
        assume(False)
    tf = enumerate_cosets(p, subgroup, EnumerationLimits(max_cosets=1 << 16),
                          strategy="felsch")
    assert tf.table == th.table
    if not subgroup:
        n = th.live_count
        assert PermutationGroup(th.to_permutations()).order() == n
        assert sympy_order(p) == n


@st.composite
def involutory_presentations(draw):
    """Rank 3-4 with every generator a declared involution, a short rotation
    power (r_i r_{i+1})^e for every adjacent pair, commuting non-adjacent
    pairs, and a few other short powers. Some of these groups are infinite;
    the finite ones reach orders in the hundreds, and the orbit route takes
    every adjacent pair, falls back from it or does not apply."""
    n = draw(st.integers(3, 4))
    relators = [power(generator(g), 2) for g in range(n)]
    relators += [power(pair(i, i + 1), draw(st.integers(2, 6))) for i in range(n - 1)]
    relators += [power(pair(i, j), 2) for i in range(n) for j in range(i + 2, n)]
    for _ in range(draw(st.integers(0, 2))):
        w = tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4)))
        relators.append(power(w, draw(st.integers(1, 6))))
    return Presentation(n, relators)


@settings(max_examples=200, deadline=None)
@given(involutory_presentations())
def test_random_realized_tables_equal_plain_enumeration(p):
    try:
        plain = enumerate_cosets(p, (), EnumerationLimits(max_cosets=2000))
    except LimitExceededError:
        assume(False)
    rg = RealizedGroup(p, EnumerationLimits(max_cosets=1 << 16))
    assert np.array_equal(rg.table.perms, plain.perms)


@st.composite
def rewritten_presentations(draw, cases):
    """A presentation with subgroup generators, drawn from ``cases``, and a
    rewrite of both: the same generators, the same normal closure of the
    relators and the same subgroup. One to four steps, each reordering the
    relators, rotating one, replacing one by its inverse (its reversal),
    appending the product of two of them or reordering the subgroup
    generators."""
    p, subgroup = draw(cases)
    rels, sub = list(p.relators), list(subgroup)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(rels) - 1))
        step = draw(st.sampled_from(("reorder", "rotate", "invert", "product", "subgroup")))
        if step == "reorder":
            rels = draw(st.permutations(rels))
        elif step == "rotate":
            k = draw(st.integers(0, len(rels[i]) - 1))
            rels[i] = rels[i][k:] + rels[i][:k]
        elif step == "invert":
            rels[i] = rels[i][::-1]
        elif step == "product":
            rels.append(rels[i] + rels[draw(st.integers(0, len(rels) - 1))])
        else:
            sub = draw(st.permutations(sub))
    return (p, subgroup), (Presentation(p.generator_count, rels), sub)


# The orbit route reads its bounds off the relators in each adjacent pair
# alone, which none of the other rewrites can move. A consequence can: in the
# tight {4,4} group of order 32, with (r0 r1)^4 stated only as its conjugate
# by r2 and (r1 r2)^4 only as its conjugate by r0, no relator bounds a
# rotation and the route is off; with (r0 r1)^4 appended, it is on.
TIGHT44 = tight_quotient_presentation((4, 4)).relators
ROUTE_OFF = Presentation(3, TIGHT44[:3] + (generator(2) + TIGHT44[3] + generator(2),
                                           generator(0) + TIGHT44[4] + generator(0))
                         + TIGHT44[5:])
ROUTE_ON = Presentation(3, ROUTE_OFF.relators + (TIGHT44[3],))


def test_an_added_consequence_switches_the_orbit_route_on():
    assert [RealizedGroup(p).stats["enumerations"] for p in (ROUTE_OFF, ROUTE_ON)] == [1, 2]


@settings(max_examples=200, deadline=None)
@given(st.one_of(rewritten_presentations(involutory_presentations().map(lambda p: (p, []))),
                 rewritten_presentations(small_presentations())))
@example(((ROUTE_OFF, []), (ROUTE_ON, [])))
def test_rewritten_presentations_give_the_same_tables(case):
    # a standardized table depends only on the action and the base coset
    # (Holt, Eick and O'Brien, ch. 5), not on how the relators or the
    # subgroup generators are written; without subgroup generators the
    # regular table is also built by RealizedGroup
    limits = EnumerationLimits(max_cosets=10 ** 4)
    try:
        tables = [[enumerate_cosets(p, subgroup, limits, s).perms for s in ("hlt", "felsch")]
                  + ([] if subgroup else [RealizedGroup(p, limits).table.perms])
                  for p, subgroup in case]
    except LimitExceededError:
        assume(False)
    assert len({m.tobytes() for ms in tables for m in ms}) == 1
