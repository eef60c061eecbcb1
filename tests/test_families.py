"""Tests for the presentation builders.

The relator lists are part of the package contract: enumerations, atlas rows
and certificates are only reproducible if a builder emits exactly the same
words in the same order every time. The expected lists here are written out
by hand from the documented scheme.
"""

import itertools
import tracemalloc
import warnings

import pytest

from polycert.errors import CapacityError, ParameterError
from polycert.families import (
    SAFE_MIN_EXPONENT_SUM_TOTAL,
    a_parameter_tuples,
    coxeter_string_presentation,
    family_a,
    family_g,
    family_h,
    family_k,
    family_l,
    family_m,
    tight_quotient_presentation,
)
from polycert.realize import RealizedGroup
from polycert.verify import certify
from polycert.words import (
    MAX_WORD_LETTERS,
    commutator,
    generator,
    pair,
    power,
    two_power,
    word_to_text,
)


def test_tight_square_relators_frozen():
    p = tight_quotient_presentation((4, 4))
    assert p.generator_count == 3
    assert [word_to_text(r) for r in p.relators] == [
        "r0 r0",
        "r1 r1",
        "r2 r2",
        "r0 r1 r0 r1 r0 r1 r0 r1",
        "r1 r2 r1 r2 r1 r2 r1 r2",
        "r0 r2 r0 r2",
        "r0 r2 r1 r2 r1 r0 r1 r2 r1 r2",
        "r1 r0 r1 r0 r2 r0 r1 r0 r1 r2",
    ]


def test_rank3_scheme_relators():
    # slack 10 - (2 + 2) = 6 is even, so the tail is the commutator of the
    # two adjacent-product squares raised to 2**((6 - 2) / 2)
    p = family_h(10, 2, 2)
    expected = [
        power(generator(0), 2),
        power(generator(1), 2),
        power(generator(2), 2),
        power(pair(0, 1), 4),
        power(pair(1, 2), 4),
        power(pair(0, 2), 2),
        commutator(generator(0), power(pair(1, 2), 4)),
        commutator(power(pair(0, 1), 4), generator(2)),
        power(commutator(power(pair(0, 1), 2), power(pair(1, 2), 2)), 4),
    ]
    assert list(p.relators) == expected


def test_rank4_scheme_relators():
    # slack 10 - 6 = 4: even tail again, one mixing commutator at rank 4
    p = family_g(4, 10, (2, 2, 2))
    expected = [
        power(generator(0), 2),
        power(generator(1), 2),
        power(generator(2), 2),
        power(generator(3), 2),
        power(pair(0, 1), 4),
        power(pair(1, 2), 4),
        power(pair(2, 3), 4),
        power(pair(0, 2), 2),
        power(pair(0, 3), 2),
        power(pair(1, 3), 2),
        commutator(power(pair(0, 1), 2), generator(2)),
        commutator(generator(1), power(pair(2, 3), 4)),
        commutator(power(pair(1, 2), 4), generator(3)),
        power(commutator(power(pair(1, 2), 2), power(pair(2, 3), 2)), 2),
    ]
    assert list(p.relators) == expected


def test_odd_slack_tail_is_commutator_power():
    # slack 11 - 8 = 3: tail is [(r1 r2)^2, r3] squared
    p = family_g(4, 11, (3, 3, 2))
    tail = p.relators[-1]
    assert tail == power(commutator(power(pair(1, 2), 2), generator(3)), 2)


def test_unit_slack_reduces_to_facet_quotient_relators():
    g = family_g(4, 10, (3, 3, 3))
    k = family_k(4, (3, 3, 3))
    fourth_powers = {
        commutator(generator(1), power(pair(2, 3), 4)),
        commutator(power(pair(1, 2), 4), generator(3)),
    }
    assert set(k.relators) < set(g.relators)
    assert set(g.relators) - set(k.relators) == fourth_powers


def test_rank3_scheme_is_shared():
    assert family_g(3, 10, (2, 2)) == family_h(10, 2, 2)


def test_vertex_collapse_appends_one_relator():
    g = family_g(4, 10, (2, 2, 2))
    m = family_m(4, 10, (2, 2, 2))
    assert m.relators == g.relators + (power(pair(0, 1), 2),)
    assert m.generator_count == g.generator_count


def test_section_drops_last_generator():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rank3 = family_k(3, (2, 3))
    assert family_l(4, (2, 3, 2)) == rank3
    assert family_l(5, (2, 2, 2, 2)) == family_k(4, (2, 2, 2))


def test_rank3_facet_quotient_and_its_section_raise_no_warning():
    # every rank-3 facet-side quotient over small exponents certifies as a
    # tight, non-degenerate string C-group; the certificate, not a warning,
    # is what reports a degenerate type
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        family_l(4, (2, 3, 2))
        for k in [(2, 2), (2, 5), (5, 3)]:
            cert = certify(family_k(3, k))
            assert cert.passed and cert.tight and not cert.degenerate


def test_coxeter_presentation_has_no_extra_relators():
    p = coxeter_string_presentation((4, 3, 4))
    assert p.generator_count == 4
    assert list(p.relators) == [
        power(generator(0), 2),
        power(generator(1), 2),
        power(generator(2), 2),
        power(generator(3), 2),
        power(pair(0, 1), 4),
        power(pair(1, 2), 3),
        power(pair(2, 3), 4),
        power(pair(0, 2), 2),
        power(pair(0, 3), 2),
        power(pair(1, 3), 2),
    ]


def test_family_orders_match_documented_formulas():
    assert RealizedGroup(family_h(10, 2, 2)).order == 1 << 10
    assert RealizedGroup(family_k(4, (2, 2, 2))).order == 1 << 7
    assert RealizedGroup(family_l(4, (2, 2, 2))).order == 1 << 5
    assert RealizedGroup(family_m(4, 10, (2, 2, 2))).order == 1 << 9
    assert RealizedGroup(family_a(3, 1, (2, 2))).order == 1 << 5
    assert RealizedGroup(tight_quotient_presentation((4, 8))).order == 2 * 4 * 8


def test_exponent_validation():
    with pytest.raises(ParameterError):
        family_h(10, 1, 2)
    with pytest.raises(ParameterError):
        family_g(4, 10, (2, 2))
    with pytest.raises(ParameterError):
        family_g(4, 10, (2, 2, 2, 2))
    with pytest.raises(ParameterError):
        family_k(4, (2, True, 2))
    with pytest.raises(ParameterError):
        family_a(3, 1, (2, 2.0))
    with pytest.raises(ParameterError):
        coxeter_string_presentation(())


def test_total_validation():
    with pytest.raises(ParameterError):
        family_g(4, 6, (2, 2, 2))  # no slack left
    with pytest.raises(ParameterError):
        family_g(4, 6, (2, 2, 2), unsafe=True)  # unsafe does not buy slack
    with pytest.raises(ParameterError):
        family_h(8, 2, 2)
    with pytest.raises(ParameterError):
        family_h(True, 2, 2)
    with pytest.raises(ParameterError):
        family_g(2, 10, (2,))
    assert SAFE_MIN_EXPONENT_SUM_TOTAL == 10


def test_below_range_total_needs_explicit_opt_in():
    p = family_h(8, 2, 2, unsafe=True)
    assert p.generator_count == 3
    assert RealizedGroup(p).order == 1 << 8


def test_section_and_slack_validation():
    with pytest.raises(ParameterError):
        family_l(3, (2, 2))
    with pytest.raises(ParameterError):
        family_a(3, 0, (2, 2))
    with pytest.raises(ParameterError):
        family_a(3, True, (2, 2))
    with pytest.raises(ParameterError):
        family_a(2, 1, (2,))


def test_tight_type_validation():
    with pytest.raises(ParameterError):
        tight_quotient_presentation((4, 3))
    with pytest.raises(ParameterError):
        tight_quotient_presentation((2, 4))
    with pytest.raises(ParameterError):
        tight_quotient_presentation((4, 1))


def test_vertex_figure_parameter_tuples():
    assert a_parameter_tuples(3, 5) == [(1, 2, 2)]
    assert a_parameter_tuples(3, 6) == [(1, 2, 3), (1, 3, 2), (2, 2, 2)]
    assert [len(a_parameter_tuples(3, t)) for t in range(5, 10)] == [1, 3, 6, 10, 15]
    assert [len(a_parameter_tuples(4, t)) for t in range(7, 10)] == [1, 4, 10]
    assert a_parameter_tuples(5, 9) == [(1, 2, 2, 2, 2)]
    assert a_parameter_tuples(3, 4) == []
    assert a_parameter_tuples(5, 8) == []
    for rank, total in [(3, 9), (4, 9)]:
        tuples = a_parameter_tuples(rank, total)
        assert tuples == sorted(tuples)
        assert all(sum(t) == total for t in tuples)
        assert all(t[0] >= 1 and min(t[1:]) >= 2 for t in tuples)
    with pytest.raises(ParameterError):
        a_parameter_tuples(True, 5)
    with pytest.raises(ParameterError):
        a_parameter_tuples(3, None)


def test_default_grid_letters_are_shared():
    # the 251 default sweep presentations hold one int per distinct letter,
    # a generator index that Python keeps as one shared small int
    presentations = [family_g(d, n, ks)
                     for d in (3, 4, 5) for n in (10, 11, 12)
                     for ks in itertools.product(range(2, n), repeat=d - 1)
                     if sum(ks) <= n - 1]
    assert len(presentations) == 251
    letters = [x for p in presentations for r in p.relators for x in r]
    assert len(letters) == 46560
    assert all(type(x) is int for x in letters)
    assert len({id(x) for x in letters}) == len(set(letters)) == 5


def test_exponents_are_bounded_before_the_shift():
    assert two_power(22) == MAX_WORD_LETTERS
    with pytest.raises(CapacityError, match="e above 22 exceeds the 4194304-letter cap"):
        two_power(23)
    # 2^(10^8) alone would be a 12.5 MB int: each builder refuses its
    # exponent (a k entry, or the slack of the tail relator) before the shift
    builders = [lambda: family_k(3, (10**8, 2)), lambda: family_g(3, 10**8, (2, 2)),
                lambda: family_g(4, 10**8 + 1, (2, 2, 2)), lambda: family_a(3, 10**8, (3, 2))]
    for build in builders:
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="letter cap"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
