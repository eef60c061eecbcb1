"""Acceptance gate for the whole package.

Each test covers one deliverable property end to end and prints a single
PASS/FAIL line (visible with ``pytest -s`` or in the captured output of a
failing run). The groups constructed by the early criteria are pooled into a
registry that the cross-cutting criteria (order agreement, certificate
bounds, commutator identities, polytope structure) sweep in full.
"""

import hashlib
import itertools
import json
import time
from collections import namedtuple
from dataclasses import dataclass
from math import prod
from pathlib import Path

import numpy as np
import pytest

from polycert import cli
from polycert.cli import main as cli_main
from polycert.coset import enumerate_cosets
from polycert.errors import InvalidGeneratorError, InvalidWordError, ParameterError
from polycert.families import (
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
from polycert.perms import PermutationGroup, orbit_labels
from polycert.polytope import (
    build_lattice,
    check_diamond,
    check_flag_connectivity,
    check_flag_matchings,
    check_section_connectivity,
    flag_graph,
)
from polycert.realize import RealizedGroup, realize
from polycert.verify import SggiSpec, certify
from polycert.words import (Presentation, Word, check_word, commutator, generator, pair, power,
                            word_to_text)

SWEEP_RANKS = (3, 4, 5)
SWEEP_TOTALS = (10, 11, 12)
TIGHT_ENTRIES = (4, 8)
RANK3_CASES = ((10, 2, 2), (10, 3, 3), (10, 2, 5), (11, 4, 4), (12, 2, 2))
PROOF_CASES = ((4, 10, (2, 2, 2)), (4, 11, (3, 2, 2)), (5, 12, (2, 2, 2, 2)))
SWEEP_BUDGET_SECONDS = 900.0
TABLES_BUDGET_SECONDS = 120.0
REGISTRY_ORDER_CAP = 1 << 12
POLYTOPE_ORDER_CAP = 1 << 10


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")


SweepRow = namedtuple("SweepRow", "d n ks presentation recursive full realized")


def sweep_exponents(d: int, n: int):
    """Every exponent tuple with entries >= 2 summing to at most n - 1,
    generated here from scratch so the sweep does not trust the package's
    own parameter enumeration."""
    return sorted(ks for ks in itertools.product(range(2, n), repeat=d - 1)
                  if sum(ks) <= n - 1)


@pytest.fixture(scope="module")
def sweep_results():
    started = time.perf_counter()
    rows = []
    for d in SWEEP_RANKS:
        for n in SWEEP_TOTALS:
            for ks in sweep_exponents(d, n):
                p = family_g(d, n, ks)
                spec = SggiSpec(p, tuple(1 << e for e in ks))
                rec = certify(spec, mode="recursive")
                full = certify(spec, mode="full")
                # the table both modes certified; the registry reuses it
                rows.append(SweepRow(d, n, ks, p, rec, full, realize(p)))
    return rows, time.perf_counter() - started


@pytest.fixture(scope="module")
def tight_results():
    out = []
    for rank in (3, 4):
        for ks in itertools.product(TIGHT_ENTRIES, repeat=rank - 1):
            p = tight_quotient_presentation(ks)
            out.append((ks, p, certify(SggiSpec(p, ks))))
    return out


@pytest.fixture(scope="module")
def rank3_results():
    out = []
    for n, s, t in RANK3_CASES:
        p = family_h(n, s, t)
        out.append(((n, s, t), p, certify(SggiSpec(p, (1 << s, 1 << t)))))
    return out


@dataclass
class ProofCase:
    d: int
    n: int
    ks: tuple[int, ...]
    main: RealizedGroup
    facet_quotient: RealizedGroup
    facet_section: RealizedGroup
    vertex_quotient: RealizedGroup
    vertex_figure: RealizedGroup
    certs: dict


@pytest.fixture(scope="module")
def proof_cases():
    cases = []
    for d, n, ks in PROOF_CASES:
        slack = n - sum(ks)
        p_main = family_g(d, n, ks)
        p_k = family_k(d, ks)
        p_l = family_l(d, ks)
        p_m = family_m(d, n, ks)
        p_a = family_a(d - 1, slack, ks[1:])
        certs = {
            "G": certify(p_main),
            "K": certify(p_k),
            "M": certify(p_m),
            "A": certify(p_a),
        }
        cases.append(ProofCase(
            d=d, n=n, ks=tuple(ks),
            main=RealizedGroup(p_main),
            facet_quotient=RealizedGroup(p_k),
            facet_section=RealizedGroup(p_l),
            vertex_quotient=RealizedGroup(p_m),
            vertex_figure=RealizedGroup(p_a),
            certs=certs,
        ))
    return cases


@pytest.fixture(scope="module")
def tables_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tables") / "tables.txt"
    started = time.perf_counter()
    code = cli_main(["paper-tables", "--out", str(out)])
    elapsed = time.perf_counter() - started
    return code, out.read_text(), elapsed


@dataclass
class RegistryEntry:
    key: tuple
    presentation: object
    realized: RealizedGroup
    cert: object  # SggiCertificate or None


@pytest.fixture(scope="module")
def registry(sweep_results, tight_results, rank3_results, proof_cases):
    """Every group the suite constructs, deduplicated by presentation."""
    entries: dict = {}

    def add(key, presentation, cert=None, realized=None):
        if presentation in entries:
            if cert is not None and entries[presentation].cert is None:
                entries[presentation].cert = cert
            return
        entries[presentation] = RegistryEntry(
            key=key,
            presentation=presentation,
            realized=realized if realized is not None else RealizedGroup(presentation),
            cert=cert,
        )

    rows, _ = sweep_results
    for row in rows:
        add(("G", row.d, row.n, row.ks), row.presentation, row.recursive, row.realized)
    for ks, p, cert in tight_results:
        add(("tight", ks), p, cert)
    for (n, s, t), p, cert in rank3_results:
        add(("H", n, s, t), p, cert)
    for case in proof_cases:
        tag = (case.d, case.n, case.ks)
        add(("proof-G", tag), case.main.presentation, case.certs["G"], case.main)
        add(("proof-K", tag), case.facet_quotient.presentation,
            case.certs["K"], case.facet_quotient)
        add(("proof-L", tag), case.facet_section.presentation,
            realized=case.facet_section)
        add(("proof-M", tag), case.vertex_quotient.presentation,
            case.certs["M"], case.vertex_quotient)
        add(("proof-A", tag), case.vertex_figure.presentation,
            case.certs["A"], case.vertex_figure)
    for rank in (3, 4, 5):
        for total in range(1 + 2 * (rank - 1), 10):
            for slack, *ks in a_parameter_tuples(rank, total):
                add(("A", rank, slack, tuple(ks)), family_a(rank, slack, ks))
    return list(entries.values())


def test_criterion_1_parameter_sweep(sweep_results):
    rows, elapsed = sweep_results
    problems = []
    counts = {d: 0 for d in SWEEP_RANKS}
    for row in rows:
        counts[row.d] += 1
        want_type = tuple(1 << e for e in row.ks)
        for cert in (row.recursive, row.full):
            if cert.order != 1 << row.n:
                problems.append(f"{row.d},{row.n},{row.ks}: order {cert.order}")
            if cert.schlafli_type != want_type:
                problems.append(f"{row.d},{row.n},{row.ks}: type {cert.schlafli_type}")
            if not cert.passed:
                problems.append(f"{row.d},{row.n},{row.ks}: certification failed")
            if cert.warnings:
                problems.append(f"{row.d},{row.n},{row.ks}: {cert.warnings}")
        if row.recursive.intersection_ok != row.full.intersection_ok:
            problems.append(f"{row.d},{row.n},{row.ks}: modes disagree")
    if counts != {3: 85, 4: 111, 5: 55}:
        problems.append(f"tuple counts {counts}")
    if elapsed >= SWEEP_BUDGET_SECONDS:
        problems.append(f"sweep took {elapsed:.1f}s")
    ok = not problems
    report(1, "rank 3-5 parameter sweep", ok,
           f"{len(rows)} tuples, both intersection modes, "
           f"{elapsed:.1f}s of {SWEEP_BUDGET_SECONDS:.0f}s")
    assert ok, "; ".join(problems[:5])


def test_criterion_2_small_parameter_tables(tables_run):
    code, text, elapsed = tables_run
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    counts = {}
    tight_lines = 0
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("(") and "tuples" in line:
            head, rest = line.split(":", 1)
            rank, total = (int(v) for v in head.strip("()").split(","))
            counts[(rank, total)] = int(rest.strip().split(" ")[0])
            if "MISMATCH" in line:
                problems.append(f"mismatch at {head}")
        elif line.startswith("k="):
            tight_lines += 1
    expected = {
        (3, 5): 1, (3, 6): 3, (3, 7): 6, (3, 8): 10, (3, 9): 15,
        (4, 7): 1, (4, 8): 4, (4, 9): 10,
        (5, 9): 1,
    }
    if counts != expected:
        problems.append(f"table counts {counts}")
    rank_sums = {r: sum(v for (rr, _), v in counts.items() if rr == r)
                 for r in (3, 4, 5)}
    if rank_sums != {3: 35, 4: 15, 5: 1}:
        problems.append(f"rank sums {rank_sums}")
    if tight_lines != 12:
        problems.append(f"{tight_lines} tight-order lines")
    if "all verified" not in text:
        problems.append("verification line missing")
    if elapsed >= TABLES_BUDGET_SECONDS:
        problems.append(f"took {elapsed:.1f}s")
    ok = not problems
    report(2, "small-parameter tables", ok,
           f"35+15+1 section tuples and 12 tight orders, "
           f"{elapsed:.1f}s of {TABLES_BUDGET_SECONDS:.0f}s")
    assert ok, "; ".join(problems[:5])


def test_criterion_3_tight_orders(tight_results):
    problems = []
    for ks, _, cert in tight_results:
        if cert.order != 2 * prod(ks):
            problems.append(f"k={ks}: order {cert.order}")
        if cert.schlafli_type != ks:
            problems.append(f"k={ks}: type {cert.schlafli_type}")
        if not (cert.passed and cert.tight):
            problems.append(f"k={ks}: not certified tight")
    ok = not problems and len(tight_results) == 12
    report(3, "tight quotient orders", ok,
           f"{len(tight_results)} types over entries {TIGHT_ENTRIES}, "
           f"ranks 3 and 4")
    assert ok, "; ".join(problems[:5])


def test_criterion_4_rank3_members(rank3_results):
    problems = []
    for (n, s, t), _, cert in rank3_results:
        if cert.order != 1 << n:
            problems.append(f"({n},{s},{t}): order {cert.order}")
        if cert.schlafli_type != (1 << s, 1 << t):
            problems.append(f"({n},{s},{t}): type {cert.schlafli_type}")
        if not cert.passed:
            problems.append(f"({n},{s},{t}): certification failed")
        if cert.tight:
            problems.append(f"({n},{s},{t}): unexpectedly tight")
    ok = not problems
    report(4, "rank-3 family members", ok,
           f"{len(rank3_results)} cases, orders and types exact, none tight")
    assert ok, "; ".join(problems[:5])


def cyclic_ids(rg: RealizedGroup, w: Word) -> set[int]:
    ids = {0}
    cur = rg.element_of(w)
    while cur != 0:
        ids.add(cur)
        cur = rg.table.trace(cur, w)
    return ids


def conjugate(w: Word, by: Word) -> Word:
    """``by^-1 w by``."""
    return by[::-1] + w + by


class NotAHomomorphism(AssertionError):
    """A generator mapping that does not extend to a homomorphism; carries
    the first source relator that does not vanish."""

    def __init__(self, relator: Word):
        super().__init__(f"relator {word_to_text(relator)!r} does not vanish "
                         f"under the generator mapping")
        self.relator = relator


def check_homomorphism(source: Presentation, target: Presentation, images) -> None:
    """Confirm that r_i -> images[i] extends to a homomorphism source -> target.

    Every source relator, rewritten through the images, must evaluate to the
    identity of the target; the first that does not raises
    ``NotAHomomorphism``.
    """
    if len(images) != source.generator_count:
        raise ParameterError(f"need {source.generator_count} images, got {len(images)}")
    for im in images:
        check_word(im, target.generator_count, "image")
    rt = realize(target)
    for rel in source.relators:
        substituted = tuple(g for letter in rel for g in images[letter])
        if rt.element_of(substituted) != 0:
            raise NotAHomomorphism(rel)


def test_criterion_5_subgroup_and_quotient_identities(proof_cases):
    problems = []
    for case in proof_cases:
        d, n, ks = case.d, case.n, case.ks
        tag = f"({d},{n},{ks})"
        k1, k_last = ks[0], ks[-1]
        total = sum(ks)
        expected_orders = [
            (case.main, 1 << n, "main"),
            (case.facet_quotient, 1 << (1 + total), "facet quotient"),
            (case.facet_section, 1 << (1 + total - k_last), "facet section"),
            (case.vertex_quotient, 1 << (n - k1 + 1), "vertex quotient"),
            (case.vertex_figure, 1 << (n - k1), "vertex figure"),
        ]
        for rg, want, label in expected_orders:
            if rg.order != want:
                problems.append(f"{tag} {label}: order {rg.order} != {want}")

        # the cyclic subgroup on the squared first adjacent product is normal
        w_n = power(pair(0, 1), 2)
        members = cyclic_ids(case.main, w_n)
        if len(members) != 1 << (k1 - 1):
            problems.append(f"{tag}: normal subgroup size {len(members)}")
        for g in range(d):
            if case.main.element_of(conjugate(w_n, generator(g))) not in members:
                problems.append(f"{tag}: conjugate by r{g} escapes")

        # inside the vertex-collapsed group, <r0> meets the vertex stabilizer
        # trivially, and the stabilizer has index 2
        m = case.vertex_quotient
        stab = tuple(range(1, d))
        if m.intersection_order((0,), stab) != 1:
            problems.append(f"{tag}: <r0> meets the vertex stabilizer")
        if m.parabolic_order(stab) != m.order // 2:
            problems.append(f"{tag}: vertex stabilizer index is not 2")

        # generator-to-generator onto the facet quotient
        try:
            check_homomorphism(case.main.presentation,
                               case.facet_quotient.presentation,
                               [generator(i) for i in range(d)])
        except Exception as exc:
            problems.append(f"{tag}: facet mapping fails ({exc})")
        # kill r0, shift the rest down, onto the vertex figure
        try:
            check_homomorphism(case.vertex_quotient.presentation,
                               case.vertex_figure.presentation,
                               [()] + [generator(i) for i in range(d - 1)])
        except Exception as exc:
            problems.append(f"{tag}: vertex mapping fails ({exc})")

        for label, cert in case.certs.items():
            if not cert.passed:
                problems.append(f"{tag}: {label} certification failed")
    ok = not problems
    report(5, "subgroup and quotient identities", ok,
           f"{len(proof_cases)} cases: five orders each, normality, "
           f"trivial meet, two generator mappings")
    assert ok, "; ".join(problems[:5])


def test_homomorphism_onto_facet_quotient():
    g = family_g(4, 10, (2, 2, 2))
    k = family_k(4, (2, 2, 2))
    identity = [generator(i) for i in range(4)]
    check_homomorphism(g, k, identity)
    with pytest.raises(NotAHomomorphism) as exc:
        check_homomorphism(k, g, identity)
    assert exc.value.relator in k.relators


def test_homomorphism_image_validation():
    g = family_h(10, 2, 2)
    with pytest.raises(ParameterError):
        check_homomorphism(g, g, [generator(0), generator(1)])
    with pytest.raises(InvalidWordError):
        check_homomorphism(g, g, [generator(0), generator(1), "r2"])
    with pytest.raises(InvalidGeneratorError):
        check_homomorphism(g, g, [generator(0), generator(1), generator(7)])


def test_vertex_collapse_mapping():
    m = family_m(4, 10, (2, 2, 2))
    a = family_a(3, 1, (2, 2))
    # r0 -> identity, r_i -> r_(i-1): the vertex-collapsed group maps onto
    # the rank-3 vertex-figure scheme
    images = [(), generator(0), generator(1), generator(2)]
    check_homomorphism(m, a, images)


def test_quotient_criterion_facet_side():
    """The quotient criterion (McMullen and Schulte, 2E) runs from the image
    to the cover: a group mapping onto a string C-group, one-to-one on the
    facet subgroup, is itself one. certify agrees on G(4,10,(2,2,2)) over
    K(4,(2,2,2)). The converse fails: Coxeter {4,2} maps onto the
    hidden-centre group (dihedral of order 8 with r2 identified with the
    central (r0 r1)^2), one-to-one on the facet subgroup, and that image is
    not a string C-group."""
    hidden_centre = Presentation(3, (
        power(generator(0), 2), power(generator(1), 2), power(generator(2), 2),
        power(pair(0, 1), 4), generator(2) + power(pair(0, 1), 2),
        power(pair(0, 2), 2), power(pair(1, 2), 2)))
    pairs = [(family_g(4, 10, (2, 2, 2)), family_k(4, (2, 2, 2)), True),
             (coxeter_string_presentation((4, 2)), hidden_centre, False)]
    for cover, image, image_passes in pairs:
        d = cover.generator_count
        check_homomorphism(cover, image, [generator(i) for i in range(d)])
        facet = tuple(range(d - 1))
        assert realize(cover).parabolic_order(facet) == realize(image).parabolic_order(facet)
        assert certify(cover).passed
        assert certify(image).passed == image_passes


def regular_by_centralizer(arrays) -> bool:
    """Whether the permutations ``arrays`` of range(n) generate a transitive
    group G acting regularly, so that |G| = n; checked in O(d^2 n).

    The check: a breadth-first tree from point 0 must reach every point (G is
    transitive). For each generator g, build L_g along the tree, with
    L_g(0) = 0^g and L_g(y^h) = L_g(y)^h on the tree edges, and require
    L_g R_h = R_h L_g on all points, for every generator h. Then the group
    that the L_g generate must be transitive: ``orbit_labels`` all 0.

    Why this is the same verdict as "G is regular" (Dixon and Mortimer,
    *Permutation Groups*, section 4.2: a transitive group is regular exactly
    when its centralizer is transitive):

    - If the check passes, each L_g commutes with G. Its image is closed
      under G and G is transitive, so L_g is onto, hence a permutation in
      the centralizer C of G; and C, holding the L_g, is transitive. Let
      x in G fix 0. Any point is 0^c for some c in C, and
      (0^c)^x = 0^(xc) = (0^x)^c = 0^c, so x = 1. G is transitive with
      trivial point stabilizers: regular, |G| = n. (The L_g are handed to
      ``orbit_labels`` only after this, when each is known to be a
      permutation.)
    - If G is regular, each point y is 0^(x_y) for exactly one x_y in G.
      Put l_g(y) = 0^(g x_y), left multiplication by g. Since
      x_(y^h) = x_y h, l_g(y^h) = l_g(y)^h, and l_g(0) = 0^g, so l_g meets
      the tree's recursion, which determines L_g: L_g = l_g commutes with
      every R_h. Products of the l_g multiply on the left, so 0 reaches
      0^w for every word w in the generators: all of G's orbit, every
      point. The check passes.
    """
    n = len(arrays[0])
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    edges = []  # (h, tree parents, their children y^h), in breadth-first order
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        reached = []
        for h, arr in enumerate(arrays):
            images = arr[frontier]
            fresh = ~seen[images]
            children, first = np.unique(images[fresh], return_index=True)
            seen[children] = True
            edges.append((h, frontier[fresh][first], children))
            reached.append(children)
        frontier = np.concatenate(reached)
    if not seen.all():
        return False
    lefts = []
    for g in range(len(arrays)):
        left = np.empty(n, dtype=np.int64)
        left[0] = arrays[g][0]
        for h, parents, children in edges:
            left[children] = arrays[h][left[parents]]
        if not all(np.array_equal(left[arr], arr[left]) for arr in arrays):
            return False
        lefts.append(left)
    return bool((orbit_labels(lefts, n) == 0).all())


def test_regular_by_centralizer_rejects_mutants():
    rg = RealizedGroup(tight_quotient_presentation((4, 4)))
    arrays = rg.table.to_permutations()
    assert regular_by_centralizer(arrays)
    # two entries of one column swapped: still permutations, no longer the group
    swapped = arrays.copy()
    swapped[1][[0, 5]] = swapped[1][[5, 0]]
    assert not regular_by_centralizer(swapped)
    # the transitive action on the cosets of <r0>, handed in as a regular table
    cosets = enumerate_cosets(rg.presentation, [generator(0)])
    action = cosets.to_permutations()
    assert len(action[0]) == rg.order // 2
    assert not regular_by_centralizer(action)


def test_criterion_6_three_way_order_agreement(registry):
    problems = []
    checked = 0
    for entry in registry:
        rg = entry.realized
        if rg.order > REGISTRY_ORDER_CAP:
            problems.append(f"{entry.key}: order {rg.order} above the cap")
            continue
        checked += 1
        perms = rg.table.to_permutations()
        # the O(d^2 n) check first: a wrong table may generate a huge group,
        # which Schreier-Sims would take minutes to order
        if not regular_by_centralizer(perms):
            problems.append(f"{entry.key}: centralizer not transitive")
            continue
        chain = PermutationGroup(perms, degree=rg.order)
        if chain.order() != rg.order:
            problems.append(f"{entry.key}: chain order {chain.order()}")
        # a different algorithm: Felsch over the trivial subgroup, not the orbit route
        felsch = enumerate_cosets(entry.presentation, (), None, "felsch")
        if not np.array_equal(felsch.perms, rg.table.perms):
            problems.append(f"{entry.key}: plain Felsch disagrees")
    ok = not problems
    report(6, "three-way order agreement", ok,
           f"{checked} groups: stabilizer chain == table index, regular by centralizer, "
           f"plain Felsch byte-identical")
    assert ok, "; ".join(problems[:5])


def test_criterion_7_order_lower_bound(sweep_results, tight_results,
                                       rank3_results, proof_cases):
    pool = {}
    rows, _ = sweep_results
    for row in rows:
        pool[("G", row.d, row.n, row.ks)] = row.recursive
    for ks, _, cert in tight_results:
        pool[("tight", ks)] = cert
    for (n, s, t), _, cert in rank3_results:
        pool[("H", n, s, t)] = cert
    for case in proof_cases:
        tag = (case.d, case.n, case.ks)
        for label, cert in case.certs.items():
            pool[(f"proof-{label}", tag)] = cert

    problems = []
    for key, cert in pool.items():
        if not cert.passed:
            problems.append(f"{key}: not certified")
        if cert.order < 2 * prod(cert.schlafli_type):
            problems.append(f"{key}: order below the bound")
        if cert.tight != (cert.order == 2 * prod(cert.schlafli_type)):
            problems.append(f"{key}: tight flag inconsistent")

    actual_equal = {key for key, cert in pool.items()
                    if cert.order == 2 * prod(cert.schlafli_type)}
    expected_equal = {("tight", ks) for ks, _, _ in tight_results}
    expected_equal |= {("G", row.d, row.n, row.ks) for row in rows
                       if sum(row.ks) == row.n - 1}
    # the facet quotient meets the bound by construction
    expected_equal |= {("proof-K", (c.d, c.n, c.ks)) for c in proof_cases}
    if actual_equal != expected_equal:
        problems.append(
            f"equality cases differ: extra {sorted(actual_equal - expected_equal)[:3]}, "
            f"missing {sorted(expected_equal - actual_equal)[:3]}")
    ok = not problems
    report(7, "order lower bound", ok,
           f"{len(pool)} certificates: order >= twice the type product, "
           f"equality exactly on the {len(expected_equal)} tight constructions")
    assert ok, "; ".join(problems[:5])


def mul(*perms: np.ndarray) -> np.ndarray:
    """The product of image arrays, applied left to right."""
    out = perms[0]
    for p in perms[1:]:
        out = p[out]
    return out


def comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return mul(np.argsort(x), np.argsort(y), x, y)


def conj(x: np.ndarray, by: np.ndarray) -> np.ndarray:
    return mul(np.argsort(by), x, by)


def test_criterion_8_commutator_identities(registry):
    problems = []

    rng = np.random.default_rng(20260818)
    trials = 10_000
    for _ in range(trials):
        degree = int(rng.integers(1, 17))
        a, b, c = (rng.permutation(degree) for _ in range(3))
        if not np.array_equal(comm(mul(a, b), c), mul(conj(comm(a, c), b), comm(b, c))):
            problems.append("product-in-left identity fails")
            break
        if not np.array_equal(comm(a, mul(b, c)), mul(comm(a, c), conj(comm(a, b), c))):
            problems.append("product-in-right identity fails")
            break

    triples = 0
    for entry in registry:
        rg = entry.realized
        for i in range(rg.rank - 2):
            a, b, c = i, i + 1, i + 2
            hypotheses = (
                all(rg.element_order(generator(g)) == 2 for g in (a, b, c))
                and rg.element_of(power(pair(a, c), 2)) == 0
                and rg.element_of(commutator(power(pair(a, b), 2),
                                             generator(c))) == 0
            )
            if not hypotheses:
                continue
            triples += 1
            conclusions = [
                commutator(generator(a), power(pair(b, c), 2)),
                commutator(generator(a), power(pair(b, c), 4)),
                commutator(power(pair(a, b), 4), generator(c)),
            ]
            for w in conclusions:
                if rg.element_of(w) != 0:
                    problems.append(f"{entry.key} triple {i}: conclusion fails")
            for w in (power(pair(a, b), 2), power(pair(b, c), 2)):
                members = cyclic_ids(rg, w)
                for g in (a, b, c):
                    if rg.element_of(conjugate(w, generator(g))) not in members:
                        problems.append(f"{entry.key} triple {i}: not normal")
    ok = not problems
    report(8, "commutator identities", ok,
           f"{trials} random permutation triples on up to 16 points; "
           f"{triples} generator triples satisfied the hypotheses")
    assert ok, "; ".join(problems[:5])


def test_criterion_9_polytope_structure(registry):
    problems = []
    built = 0
    square_types_seen = 0
    for entry in registry:
        cert = entry.cert
        if cert is None or not cert.passed or entry.realized.order > POLYTOPE_ORDER_CAP:
            continue
        built += 1
        rg = entry.realized
        graph = flag_graph(rg, cert)
        if graph.shape != (rg.rank, cert.order):
            problems.append(f"{entry.key}: flag graph shape {graph.shape}")
        ok_match, bad = check_flag_matchings(graph)
        if not ok_match:
            problems.append(f"{entry.key}: adjacency not a matching at {bad}")
        if not check_flag_connectivity(graph):
            problems.append(f"{entry.key}: flag graph not connected")
        ok_diamond, failures = check_diamond(rg, cert, max_order=POLYTOPE_ORDER_CAP)
        if not ok_diamond:
            problems.append(f"{entry.key}: diamond fails {failures[:2]}")
        if not check_section_connectivity(rg, cert, max_order=POLYTOPE_ORDER_CAP):
            problems.append(f"{entry.key}: a section is not flag-connected")
        if entry.key == ("tight", (4, 4)):
            square_types_seen += 1
            lat = build_lattice(rg, cert)
            if lat.f_vector != (4, 8, 4):
                problems.append(f"square-type torus f-vector {lat.f_vector}")
    if square_types_seen != 1:
        problems.append("tight square-type group missing from the registry")
    ok = not problems
    report(9, "polytope structure", ok,
           f"{built} certified groups up to order {POLYTOPE_ORDER_CAP}: "
           f"flag matchings, flag connectivity, diamond condition, "
           f"section connectivity, flag count; "
           f"square-type f-vector (4, 8, 4)")
    assert ok, "; ".join(problems[:5])


GOLDEN = Path(__file__).with_name("golden.json")
GOLDEN_RUNS = {
    "verify tight 4,4": ("verify", "--family", "tight", "--k", "4,4"),
    "verify tight 8,8,8": ("verify", "--family", "tight", "--k", "8,8,8"),
    "verify G 4,10,2,2,3 full-ip": ("verify", "--family", "G", "--d", "4", "--n", "10",
                                    "--k", "2,2,3", "--full-ip"),
    "hasse tight 4,4,4 edges": ("hasse", "--family", "tight", "--k", "4,4,4",
                                "--format", "edges"),
    "hasse tight 4,4,4 dot": ("hasse", "--family", "tight", "--k", "4,4,4", "--format", "dot"),
    "hasse G 3,10,4,4 edges": ("hasse", "--family", "G", "--d", "3", "--n", "10",
                               "--k", "4,4", "--format", "edges"),
    "hasse G 3,10,4,4 dot": ("hasse", "--family", "G", "--d", "3", "--n", "10",
                             "--k", "4,4", "--format", "dot"),
}


def digest(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def sweep_atlas(rows, out: Path, monkeypatch) -> str:
    """The atlas ``polycert sweep`` writes for the default grid, certified
    by the sweep fixture's certificates, with every ``seconds`` cell
    written as ``-``."""
    by_presentation = {row.presentation: row for row in rows}

    def fixture_certificate(spec, mode, limits, strategy):
        return getattr(by_presentation[spec.presentation], mode)

    with monkeypatch.context() as m:
        m.setattr(cli, "certify", fixture_certificate)
        m.setattr(cli.time, "perf_counter", lambda: 0.0)
        assert cli_main(["sweep", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("\t0.000\n") == len(rows)
    return text.replace("\t0.000\n", "\t-\n")


def test_outputs_match_golden_digests(registry, sweep_results, tables_run, tmp_path,
                                      capsys, monkeypatch, request):
    """Every deterministic output, hashed: each registry group's standardized
    table, the default-grid atlas, ``paper-tables``, and the ``verify`` and
    ``hasse`` runs of ``GOLDEN_RUNS``. A change to any of them names the
    keys that moved. Rewrite the file, after an intended change, with
    ``python -m pytest tests/test_acceptance.py -k golden --write-golden``.
    """
    # the coset-major bytes, one coset's images after another
    found = {f"table {entry.key}": digest(entry.realized.table.perms.T.tobytes())
             for entry in registry}
    assert len(found) == len(registry) == 322
    found["atlas default grid"] = digest(sweep_atlas(sweep_results[0], tmp_path / "atlas.tsv",
                                                      monkeypatch))
    found["paper-tables"] = digest(tables_run[1])
    capsys.readouterr()
    for name, argv in GOLDEN_RUNS.items():
        out = tmp_path / "out"
        if argv[0] == "verify":
            argv = (*argv, "--out", str(out))
        code = cli_main(list(argv))
        found[f"{name} exit"] = str(code)
        found[f"{name} stdout"] = digest(capsys.readouterr().out)
        if out.exists():
            found[f"{name} --out"] = digest(out.read_bytes())
            out.unlink()
    if request.config.getoption("--write-golden"):
        GOLDEN.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN.read_text())
    changed = sorted(k for k in golden.keys() & found.keys() if golden[k] != found[k])
    missing = sorted(golden.keys() - found.keys())
    extra = sorted(found.keys() - golden.keys())
    assert not (changed or missing or extra), (
        f"changed {changed}; missing {missing}; new {extra}")
