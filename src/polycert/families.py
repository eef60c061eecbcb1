"""Presentation builders for the string groups this package certifies.

All constructors emit generators r0..r(d-1) that are declared involutions,
commuting when non-adjacent, with prescribed 2-power orders for the adjacent
products -- plus family-specific commutator relators that pin the group order
down exactly. Relators are always listed in a fixed order (involutions,
adjacent-product powers, non-adjacent squares, then the family extras), so a
presentation built twice is equal and enumerations are reproducible.

The main scheme (``family_g`` and its rank-3 form ``family_h``) produces a
group of order exactly 2**n whose adjacent products have orders
2**k[0], ..., 2**k[d-2]; the slack l = n - sum(k) >= 1 is absorbed by one
trailing relator whose shape depends on the parity of l. ``family_k``,
``family_l``, ``family_m`` and ``family_a`` are the quotients and subgroups
of that scheme whose orders the certification pipeline cross-checks, and
``tight_quotient_presentation`` gives the minimal-order groups for a given
even type (order twice the product of the type entries).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import ParameterError
from .words import Presentation, Word, commutator, generator, pair, power, two_power

SAFE_MIN_EXPONENT_SUM_TOTAL = 10


def _check_exponents(k: Sequence[int], what: str = "k") -> tuple[int, ...]:
    ks = tuple(k)
    if not ks:
        raise ParameterError(f"{what} must be a non-empty sequence of integers")
    for v in ks:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParameterError(f"{what} entries must be integers, got {v!r}")
        if v < 2:
            raise ParameterError(f"{what} entries must be at least 2, got {v}")
    return ks


def _coxeter_relators(rank: int, orders: Sequence[int]) -> list[Word]:
    """The string Coxeter relators, in this order: the involutions r_i^2, the
    adjacent powers (r_i r_{i+1})^orders[i], and the commuting non-neighbours
    (r_i r_j)^2 for j >= i + 2."""
    return ([power(generator(i), 2) for i in range(rank)]
            + [power(pair(i, i + 1), orders[i]) for i in range(rank - 1)]
            + [power(pair(i, j), 2) for i in range(rank) for j in range(i + 2, rank)])


def _mixing_commutators(rank: int) -> list[Word]:
    """[(r_i r_{i+1})^2, r_{i+2}] for i up to rank-4: middle products commute past."""
    return [commutator(power(pair(i, i + 1), 2), generator(i + 2))
            for i in range(rank - 3)]


def _last_section_commutator(rank: int) -> Word:
    """[(r_{d-3} r_{d-2})^2, r_{d-1}]: the relator that collapses the tail."""
    return commutator(power(pair(rank - 3, rank - 2), 2), generator(rank - 1))


def _fourth_power_commutators(rank: int) -> list[Word]:
    """The two relators centralizing fourth powers across the last three generators."""
    return [
        commutator(generator(rank - 3), power(pair(rank - 2, rank - 1), 4)),
        commutator(power(pair(rank - 3, rank - 2), 4), generator(rank - 1)),
    ]


def _tail_relator(rank: int, slack: int) -> Word:
    """The slack-absorbing relator, a power 2^((slack - 1) // 2) of a base
    whose shape depends on the parity of the slack."""
    if slack % 2 == 1:
        base = _last_section_commutator(rank)
    else:
        base = commutator(power(pair(rank - 3, rank - 2), 2),
                          power(pair(rank - 2, rank - 1), 2))
    return power(base, two_power((slack - 1) // 2))


def _scheme(rank: int, k: Sequence[int], slack: int) -> Presentation:
    """The main 2-power scheme: order 2**(sum(k) + slack)."""
    rels = _coxeter_relators(rank, [two_power(e) for e in k]) + _mixing_commutators(rank)
    rels.extend(_fourth_power_commutators(rank))
    rels.append(_tail_relator(rank, slack))
    return Presentation(rank, tuple(rels))


def coxeter_string_presentation(k: Sequence[int]) -> Presentation:
    """The string Coxeter group with adjacent-product orders ``k`` (infinite
    for most parameters; enumerate with care)."""
    ks = _check_exponents(k)
    return Presentation(len(ks) + 1, tuple(_coxeter_relators(len(ks) + 1, ks)))


def tight_quotient_presentation(k: Sequence[int]) -> Presentation:
    """The minimal-order quotient for an even type: order 2 * product(k).

    Each type entry must be even and larger than 2. On top of the Coxeter
    relators, every generator commutes with the squares of both neighboring
    adjacent products.
    """
    ks = _check_exponents(k)
    for v in ks:
        if v % 2 != 0 or v <= 2:
            raise ParameterError(
                f"tight quotients need even type entries larger than 2, got {v}")
    rank = len(ks) + 1
    rels = _coxeter_relators(rank, ks)
    for i in range(rank - 2):
        rels.append(commutator(generator(i), power(pair(i + 1, i + 2), 2)))
        rels.append(commutator(power(pair(i, i + 1), 2), generator(i + 2)))
    return Presentation(rank, tuple(rels))


def _check_rank(d: int, k: Sequence[int], name: str = "rank d",
                minimum: int = 3) -> tuple[int, ...]:
    """A rank of at least ``minimum`` and its d - 1 exponents."""
    if not isinstance(d, int) or isinstance(d, bool) or d < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {d!r}")
    ks = _check_exponents(k)
    if len(ks) != d - 1:
        raise ParameterError(f"rank {d} needs {d - 1} exponents, got {len(ks)}")
    return ks


def _check_total(n: int, k: tuple[int, ...], unsafe: bool) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParameterError(f"n must be an integer, got {n!r}")
    slack = n - sum(k)
    if slack < 1:
        raise ParameterError(
            f"n = {n} leaves no slack over sum(k) = {sum(k)}; need n >= sum(k) + 1")
    if n < SAFE_MIN_EXPONENT_SUM_TOTAL and not unsafe:
        raise ParameterError(
            f"n = {n} is below the known-good range (n >= {SAFE_MIN_EXPONENT_SUM_TOTAL}); "
            f"pass unsafe params explicitly to build anyway")
    return slack


def family_h(n: int, s: int, t: int, unsafe: bool = False) -> Presentation:
    """Rank-3 member: order 2**n, adjacent-product orders 2**s and 2**t."""
    ks = _check_exponents((s, t), what="(s, t)")
    slack = _check_total(n, ks, unsafe)
    return _scheme(3, ks, slack)


def family_g(d: int, n: int, k: Sequence[int], unsafe: bool = False) -> Presentation:
    """Rank-d member: order 2**n, adjacent-product orders 2**k[i]."""
    ks = _check_rank(d, k)
    slack = _check_total(n, ks, unsafe)
    return _scheme(d, ks, slack)


def family_k(d: int, k: Sequence[int]) -> Presentation:
    """The facet-side quotient: order 2**(1 + sum(k)).

    Same scheme as ``family_g`` but with the last section collapsed outright
    by [(r_{d-3} r_{d-2})^2, r_{d-1}] instead of a slack-dependent tail.
    """
    ks = _check_rank(d, k)
    rels = _coxeter_relators(d, [two_power(e) for e in ks]) + _mixing_commutators(d)
    rels.append(_last_section_commutator(d))
    return Presentation(d, tuple(rels))


def family_l(d: int, k: Sequence[int]) -> Presentation:
    """The rank-(d-1) section of the facet-side quotient: drop the last
    generator and exponent; order 2**(1 + sum(k[:-1]))."""
    ks = _check_rank(d, k, minimum=4)
    return family_k(d - 1, ks[:-1])


def family_m(d: int, n: int, k: Sequence[int], unsafe: bool = False) -> Presentation:
    """The vertex-collapsing quotient: the main scheme plus (r0 r1)^2 = 1,
    so the first adjacent product drops to order 2; order 2**(n - k[0] + 1)."""
    base = family_g(d, n, k, unsafe)
    return Presentation(base.generator_count,
                        base.relators + (power(pair(0, 1), 2),))


def family_a(rank: int, slack: int, k: Sequence[int]) -> Presentation:
    """The vertex-figure scheme: the main scheme at the given rank and slack.

    No minimum-total guard: these arise as sections of larger safe groups.
    Order 2**(slack + sum(k)).
    """
    ks = _check_rank(rank, k, name="rank")
    if not isinstance(slack, int) or isinstance(slack, bool) or slack < 1:
        raise ParameterError(f"slack must be an integer >= 1, got {slack!r}")
    return _scheme(rank, ks, slack)


def a_parameter_tuples(rank: int, total: int) -> list[tuple[int, ...]]:
    """All (slack, k_2, ..., k_rank) with slack >= 1, k_i >= 2, summing to
    ``total``, in lexicographic order."""
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 3:
        raise ParameterError(f"rank must be an integer >= 3, got {rank!r}")
    if not isinstance(total, int) or isinstance(total, bool):
        raise ParameterError(f"total must be an integer, got {total!r}")
    out = []
    for slack in range(1, total + 1):
        for ks in _compositions(total - slack, rank - 1, 2):
            out.append((slack, *ks))
    out.sort()
    return out


def _compositions(total: int, parts: int, minimum: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first, *rest)
