"""Tests for face lattices and flag graphs.

The classical polyhedra pin the combinatorics to values known from outside
this package: the square has 4 vertices and 4 edges, the cube 8/12/6, the
tetrahedron 4/6/4, and the smallest self-dual torus map of square type has
f-vector (4, 8, 4).
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from polycert import polytope
from polycert.errors import FormatError, LimitExceededError, UncertifiedInputError
from polycert.families import coxeter_string_presentation, tight_quotient_presentation
from polycert.polytope import (
    build_lattice,
    check_diamond,
    check_flag_connectivity,
    check_flag_matchings,
    check_section_connectivity,
    export_hasse,
    flag_graph,
)
from polycert.perms import orbit_labels
from polycert.realize import RealizedGroup, _realize_cached, realize
from polycert.verify import certify
from polycert.words import Presentation, generator, pair, power


def realized_with_lattice(p):
    cert = certify(p)
    assert cert.passed
    rg = realize(p)
    return rg, cert, build_lattice(rg, cert)


def failing_presentation():
    """Order 8 with a hidden central generator; fails the intersection check."""
    return Presentation(3, (
        power(generator(0), 2),
        power(generator(1), 2),
        power(generator(2), 2),
        power(pair(0, 1), 4),
        generator(2) + power(pair(0, 1), 2),
        power(pair(0, 2), 2),
        power(pair(1, 2), 2),
    ))


def test_square():
    rg, cert, lat = realized_with_lattice(coxeter_string_presentation((4,)))
    assert rg.order == 8
    assert cert.tight
    assert lat.rank == 2
    assert lat.f_vector == (4, 4)
    assert lat.node_count == 10
    assert len(lat.covers) == 16
    assert lat.group_order == 8


def test_cube_and_tetrahedron():
    rg, _, lat = realized_with_lattice(coxeter_string_presentation((4, 3)))
    assert rg.order == 48
    assert lat.f_vector == (8, 12, 6)
    v, e, f = lat.f_vector
    assert v - e + f == 2

    rg, _, lat = realized_with_lattice(coxeter_string_presentation((3, 3)))
    assert rg.order == 24
    assert lat.f_vector == (4, 6, 4)


def node_id(lat, face_rank, index):
    """The id of the ``index``-th face of rank ``face_rank``: rank r >= 0
    starts at 1, for the least face, plus the f-vector entries of the ranks
    below it."""
    return sum((1, *lat.f_vector)[:face_rank + 1]) + index


def test_tight44_lattice(tight44):
    p, rg, cert = tight44
    lat = build_lattice(rg, cert)
    assert lat.f_vector == (4, 8, 4)
    assert lat.node_count == 18
    assert len(lat.covers) == 40
    # every edge joins 2 vertices and lies on 2 squares; every vertex and
    # every square touches 4 edges
    below = Counter(b for _, b in lat.covers)
    above = Counter(a for a, _ in lat.covers)
    for idx in range(8):
        edge = node_id(lat, 1, idx)
        assert below[edge] == 2
        assert above[edge] == 2
    for idx in range(4):
        assert above[node_id(lat, 0, idx)] == 4
        assert below[node_id(lat, 0, idx)] == 1  # only the least face sits under a vertex
        assert below[node_id(lat, 2, idx)] == 4


def test_cover_ranks_are_adjacent(tight44):
    _, rg, cert = tight44
    lat = build_lattice(rg, cert)
    def rank_of(node):
        return int(lat.node_label(node).split(":")[0])
    for a, b in lat.covers:
        assert rank_of(b) - rank_of(a) == 1


def test_node_addressing(tight44):
    _, rg, cert = tight44
    lat = build_lattice(rg, cert)
    assert node_id(lat, -1, 0) == 0
    assert node_id(lat, 3, 0) == lat.node_count - 1
    for r, count in enumerate(lat.f_vector):
        for i in range(count):
            assert lat.node_label(node_id(lat, r, i)) == f"{r}:{i}"
    assert lat.node_label(0) == "-1:0"
    assert lat.node_label(lat.node_count - 1) == "3:0"
    with pytest.raises(IndexError):
        lat.node_label(lat.node_count)


def test_flag_graph_structure(tight44):
    _, rg, cert = tight44
    g = flag_graph(rg, cert)
    assert g is rg.table.to_permutations() is rg.table.perms
    assert not hasattr(rg, "right")
    assert g.shape == (3, 32)
    assert g.flags.c_contiguous and not g.flags.writeable
    ok, bad = check_flag_matchings(g)
    assert ok and bad == ()
    assert check_flag_connectivity(g)
    for i in range(3):
        assert g[i][g[i][7]] == 7


def test_certify_and_polytope_checks_build_no_permutation():
    # the realization's generators are the table's own image arrays, and
    # certifying and every polytope check read them as they are
    _realize_cached.cache_clear()
    p = tight_quotient_presentation((4, 4))
    cert = certify(p)
    rg = realize(p)
    graph = flag_graph(rg, cert)
    assert graph is rg.table.perms
    assert cert.passed and check_flag_matchings(graph)[0] and check_flag_connectivity(graph)
    assert check_diamond(rg, cert, max_order=rg.order)[0]
    assert check_section_connectivity(rg, cert, max_order=rg.order)
    assert build_lattice(rg, cert).f_vector == (4, 8, 4)


def test_flag_matchings_report_the_failing_ranks():
    # row 0 is an involution with two fixed points, row 2 a 4-cycle
    moves = np.array([[0, 2, 1, 3], [1, 0, 3, 2], [1, 2, 3, 0]], dtype=np.int32)
    assert check_flag_matchings(moves[:2]) == (False, (0,))
    assert check_flag_matchings(moves) == (False, (0, 2))
    assert check_flag_matchings(moves[1:2]) == (True, ())


def test_section_connectivity_and_diamond(tight44):
    _, rg, cert = tight44
    assert check_section_connectivity(rg, cert, max_order=rg.order)
    ok, failures = check_diamond(rg, cert, max_order=rg.order)
    assert ok and failures == ()


def test_section_pair_count_catches_hidden_centre(monkeypatch):
    # The hidden centre fails the intersection property, so the flags through
    # an incident (0-face, 2-face) pair are two orbits of <r1>, not one.
    p = failing_presentation()
    rg, cert = realize(p), certify(p)
    assert not cert.passed
    monkeypatch.setattr(polytope, "_require_certificate", lambda *args: None)
    assert check_section_connectivity(rg, cert, max_order=rg.order) is False
    # the same centre leaves one 1-face under each incident (1-face, 2-face)
    # pair, where a diamond needs two
    assert check_diamond(rg, cert, max_order=rg.order) == (False, ((2, 0, 0, 1), (2, 1, 0, 1)))


def test_each_subset_is_partitioned_once(monkeypatch):
    # certify in both modes and the three polytope calls read one partition
    # per generator subset, computed the first time it is read
    p = tight_quotient_presentation((4, 4, 4))
    read = set()
    check_subset = RealizedGroup._check_subset

    def recording(self, subset):
        fs = check_subset(self, subset)
        read.add(fs)
        return fs

    monkeypatch.setattr(RealizedGroup, "_check_subset", recording)
    _realize_cached.cache_clear()
    rec, full = certify(p), certify(p, mode="full")
    assert rec.passed and full.passed
    rg = realize(p)
    counts = []
    for _ in range(2):
        build_lattice(rg, rec)
        check_diamond(rg, rec, max_order=rg.order)
        check_section_connectivity(rg, rec, max_order=rg.order)
        counts.append(rg.stats["quotient_actions"])
    assert counts == [len(read)] * 2
    for s in read:
        fresh = orbit_labels([rg.table.perms[g] for g in sorted(s)], rg.order)
        assert np.array_equal(rg.cosets(s), fresh)
    assert rg.stats["quotient_actions"] == len(read)


def test_flag_connectivity_detects_two_components():
    # one rank, flags {0, 1} and {2, 3} swapped in pairs: two components
    graph = np.array([[1, 0, 3, 2]], dtype=np.int32)
    assert check_flag_matchings(graph) == (True, ())
    assert check_flag_connectivity(graph) is False
    joined = np.array([[1, 0, 3, 2], [3, 2, 1, 0]], dtype=np.int32)
    assert check_flag_connectivity(joined) is True


def test_polyhedra_pass_flag_checks():
    for k in [(4,), (3, 3), (4, 3)]:
        rg, cert, _ = realized_with_lattice(coxeter_string_presentation(k))
        g = flag_graph(rg, cert)
        assert check_flag_matchings(g)[0]
        assert check_flag_connectivity(g)
        assert check_section_connectivity(rg, cert, max_order=rg.order)
        assert check_diamond(rg, cert, max_order=rg.order)[0]


def test_refuses_uncertified_input(tight44):
    p_good, rg_good, cert_good = tight44
    p_bad = failing_presentation()
    cert_bad = certify(p_bad)
    rg_bad = realize(p_bad)
    assert not cert_bad.passed
    with pytest.raises(UncertifiedInputError):
        build_lattice(rg_bad, cert_bad)
    with pytest.raises(UncertifiedInputError):
        flag_graph(rg_bad, cert_bad)
    with pytest.raises(UncertifiedInputError):
        build_lattice(rg_good, cert_bad)
    with pytest.raises(UncertifiedInputError):
        check_diamond(rg_bad, cert_bad, max_order=rg_bad.order)
    with pytest.raises(UncertifiedInputError):
        check_section_connectivity(rg_good, cert_bad, max_order=rg_good.order)


def test_exhaustive_check_guards(tight44):
    _, rg, cert = tight44
    with pytest.raises(LimitExceededError):
        check_diamond(rg, cert, max_order=16)
    with pytest.raises(LimitExceededError):
        check_section_connectivity(rg, cert, max_order=16)


def test_export_edges():
    _, _, lat = realized_with_lattice(coxeter_string_presentation((4,)))
    text = export_hasse(lat, fmt="edges")
    assert text.endswith("\n")
    lines = text.strip().split("\n")
    assert len(lines) == 16
    label_to_node = {lat.node_label(n): n for n in range(lat.node_count)}
    parsed = []
    for line in lines:
        lo, hi = line.split(" ")
        parsed.append((label_to_node[lo], label_to_node[hi]))
    assert tuple(parsed) == lat.covers


def test_export_dot():
    _, _, lat = realized_with_lattice(coxeter_string_presentation((4,)))
    text = export_hasse(lat, fmt="dot")
    assert text.startswith("digraph hasse {")
    assert "rankdir=BT;" in text
    assert text.count("->") == len(lat.covers)
    assert text.count("label=") == lat.node_count
    assert text.rstrip().endswith("}")


def test_export_is_pinned_for_tight_444():
    _, _, lat = realized_with_lattice(tight_quotient_presentation((4, 4, 4)))
    digests = {fmt: hashlib.sha256(export_hasse(lat, fmt).encode()).hexdigest()
               for fmt in ("edges", "dot")}
    assert digests == {
        "edges": "a7c29963cd09722fbb1dc56d383608fffc4cc578d43ea9dba91c914e3c87a504",
        "dot": "db5fda6230cd1aa589594249b4b61b0dcc5754da2edf6f76e46ba57487165aa0",
    }


def test_export_bad_format(tight44):
    _, rg, cert = tight44
    lat = build_lattice(rg, cert)
    with pytest.raises(FormatError):
        export_hasse(lat, fmt="json")
