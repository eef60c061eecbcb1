"""Permutations and deterministic stabilizer chains."""

import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import polycert.perms as perms_mod
from polycert.coset import enumerate_cosets
from polycert.errors import CapacityError, CheckFailedError
from polycert.families import family_g, tight_quotient_presentation
from polycert.perms import PermutationGroup, orbit_labels
from polycert.realize import RealizedGroup
from polycert.words import generator

def _orbit(gens, point):
    """The orbit of ``point`` under the group that ``gens`` generate,
    ascending, read off ``orbit_labels``."""
    labels = orbit_labels(gens, len(gens[0]))
    return tuple(np.flatnonzero(labels == labels[point]).tolist())


def test_validation():
    # each generator is checked once, as the group takes it in; the chain is
    # built next, and without the check an unchecked map would reach it:
    # [-1, 0] would give a group of order 2, while [0, 0, 1] would keep
    # adding levels without end, so the inputs that fail fast come first
    for bad in ([-1, 0], [1, 2, 3], [0, 0, 1], [], [[0, 1], [1, 0]]):
        with pytest.raises(ValueError):
            PermutationGroup([bad])


def test_input_is_copied():
    src = np.array([1, 0, 2], dtype=np.int32)
    g = PermutationGroup([src])
    src[0] = 2
    (gen,) = g.strong_generators()
    assert gen.tolist() == [1, 0, 2] and gen.dtype == np.int32
    with pytest.raises(ValueError):
        gen[0] = 0  # frozen array
    assert g.order() == 2


def test_symmetric_group_order():
    a = [1, 0, 2, 3]
    b = [1, 2, 3, 0]
    g = PermutationGroup([a, b])
    assert g.order() == 24
    assert orbit_labels([a, b], 4).tolist() == [0, 0, 0, 0]


def test_alternating_group_membership():
    # x lies in a group G exactly when adjoining x to G's generators keeps |G|
    a = np.array([1, 2, 0, 3])
    b = np.array([0, 2, 3, 1])
    assert PermutationGroup([a, b]).order() == 12
    assert PermutationGroup([a, b, b[a]]).order() == 12  # a, then b
    assert PermutationGroup([a, b, [1, 0, 2, 3]]).order() == 24  # an odd permutation


def test_dihedral_on_polygon():
    n = 7
    rot = [(i + 1) % n for i in range(n)]
    ref = [(n - i) % n for i in range(n)]
    g = PermutationGroup([rot, ref])
    assert g.order() == 2 * n


def test_intransitive_orbits():
    a = [1, 0, 2, 3, 4]
    b = [0, 1, 3, 4, 2]
    g = PermutationGroup([a, b])
    assert orbit_labels([a, b], 5).tolist() == [0, 0, 2, 2, 2]
    assert g.order() == 6
    assert g.base() == (2, 0)  # the largest orbit's smallest point comes first


def test_trivial_and_empty_groups():
    g = PermutationGroup([], degree=4)
    assert g.order() == 1
    assert g.base() == () and g.strong_generators() == ()
    assert orbit_labels([], 4).tolist() == [0, 1, 2, 3]
    assert PermutationGroup([[0, 1, 2, 3]]).order() == 1
    assert PermutationGroup([[0, 1, 2, 3], [1, 0, 2, 3]]).order() == 2
    with pytest.raises(ValueError):
        PermutationGroup([])


def test_group_input_validation():
    assert PermutationGroup([[1, 0]]).order() == 2  # a list of images is a generator
    # the rows of a 2-D array are the generators
    rows = np.array([[1, 0, 2, 3], [1, 2, 3, 0]], dtype=np.int64)
    assert PermutationGroup(rows).order() == 24
    with pytest.raises(ValueError):
        PermutationGroup([[1, 0], [1, 0, 2]])
    with pytest.raises(ValueError):
        PermutationGroup([[1, 0]], degree=3)


def test_base_and_strong_generators():
    g = PermutationGroup([[1, 0, 2, 3], [1, 2, 3, 0]])
    base = g.base()
    assert len(base) >= 1
    sgs = g.strong_generators()
    assert all(s.dtype == np.int32 and s.shape == (4,) for s in sgs)
    # strong generators generate the same group
    assert PermutationGroup(sgs).order() == 24


def test_stabilizer_on_disjoint_face_actions(tight44):
    # the order-32 group acting on its 4 vertices, 8 edges and 4 squares at
    # once: a faithful degree-16 action where the stabilizer of a face is
    # its parabolic subgroup, so orbit times parabolic order is the order
    p, rg, _ = tight44
    blocks = [(1, 2), (0, 2), (0, 1)]
    actions = [enumerate_cosets(p, [generator(i) for i in s]).to_permutations()
               for s in blocks]
    assert [a.shape for a in actions] == [(3, 4), (3, 8), (3, 4)]
    offsets = [0, 4, 12]
    gens = np.concatenate([a + off for a, off in zip(actions, offsets)], axis=1)
    g = PermutationGroup(gens)
    assert g.order() == 32  # the union action is faithful
    for s, off, size in zip(blocks, offsets, (4, 8, 4)):
        assert _orbit(gens, off) == tuple(range(off, off + size))
        assert g.order() == size * rg.parabolic_order(s)


def test_verify_chain_full_and_random():
    # the full re-check is the only mode; a sound chain passes it
    g = PermutationGroup([[1, 2, 3, 0, 4, 5], [0, 1, 2, 4, 3, 5]])
    g.verify_chain()
    assert g.order() == 120
    g.verify_chain()


def test_verify_chain_catches_corruption():
    g = PermutationGroup([[1, 0, 2, 3], [1, 2, 3, 0]])
    g.verify_chain()  # the sound chain passes
    intruder = np.array([0, 2, 1, 3], dtype=np.int32)
    g._levels[-1].gens.append(intruder)
    with pytest.raises(CheckFailedError):
        g.verify_chain()


def _set(level, field, at, value):
    """A corruption: entry ``at`` of chain level ``level``'s ``field`` := ``value``."""
    def corrupt(g):
        getattr(g._levels[level], field)[at] = value
    return corrupt


def _add_generator(level, images):
    """A corruption: one more generator, and its inverse, on chain level ``level``."""
    def corrupt(g):
        gen = np.array(images, dtype=np.int32)
        g._levels[level].gens.append(gen)
        g._levels[level].inverses.append(perms_mod._inverse(gen))
    return corrupt


def _cycle_off_the_base(g):
    # 1 and 2 reached from each other by (1 2), and neither from the base
    level = g._levels[0]
    level.pred[1], level.label[1] = 2, 1


def _drop_the_deepest_level(g):
    g._levels.pop()


def _foreign_generator(g):
    g._generators = (np.array([0, 1, 3, 2], dtype=np.int32),)


def _too_slow(signum, frame):
    raise TimeoutError("verify_chain did not return")


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(_set(0, "label", 0, 0),
                 "level 0: the base is not the root of its Schreier vector", id="base-root"),
    pytest.param(_set(0, "orbit", 2, 3),
                 "level 0: orbit list and Schreier vector disagree", id="orbit-list"),
    pytest.param(_add_generator(1, [1, 0, 2, 3]),
                 "level 1: generator moves an earlier base", id="earlier-base"),
    pytest.param(_add_generator(1, [0, 1, 3, 2]),
                 "level 1: generator missing from the level above", id="level-above"),
    pytest.param(_set(0, "inverses", 0, np.arange(4, dtype=np.int32)),
                 "level 0: stored inverses do not match the generators", id="inverses"),
    pytest.param(_set(0, "label", 2, 2),
                 "level 0: Schreier vector names an unknown generator", id="label-range"),
    pytest.param(_set(0, "label", 2, 0),
                 "level 0: Schreier vector edge is not a generator step", id="tree-edge"),
    pytest.param(_cycle_off_the_base,
                 "level 0: Schreier vector does not lead back to the base", id="tree-root"),
    pytest.param(_add_generator(0, [3, 1, 2, 0]),
                 "level 0: orbit is not closed at point 0", id="orbit-closed"),
    pytest.param(_drop_the_deepest_level,
                 "level 0: Schreier element at point 0 does not sift", id="schreier-sift"),
    pytest.param(_foreign_generator,
                 "an original generator does not sift through the chain", id="generator-sift"),
])
def test_verify_chain_reaches_every_check(corrupt, message):
    # S3 = <(0 1), (1 2)> on four points has two levels: base 0 with orbit
    # {0, 1, 2} and tree 0 -(0 1)-> 1 -(1 2)-> 2, and base 1 with orbit
    # {1, 2} under (1 2). Each corruption is seen first by its own check.
    g = PermutationGroup([[1, 0, 2, 3], [0, 2, 1, 3]])
    assert g.base() == (0, 1) and g.order() == 6
    g.verify_chain()
    corrupt(g)
    # past a missing check, a Schreier vector with a cycle sends the
    # transversal trace round it for ever: a time bound turns that into a
    # failure
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(5)
    try:
        with pytest.raises(CheckFailedError, match=f"^{message}$"):
            g.verify_chain()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_capacity_guard(monkeypatch):
    monkeypatch.setattr(perms_mod, "MAX_DEGREE", 1 << 10)
    with pytest.raises(CapacityError):
        PermutationGroup([np.arange((1 << 10) + 4)])
    with pytest.raises(CapacityError):
        PermutationGroup([], degree=(1 << 10) + 4)


def closure_order(gens: list[list[int]], n: int) -> int:
    """Size of the group the image lists generate, by brute-force closure:
    every element is one row, keyed by its images read as base-n digits."""
    images = np.array(gens, dtype=np.int64).reshape(-1, n)
    weights = n ** np.arange(n, dtype=np.int64)
    frontier = np.arange(n, dtype=np.int64)[None, :]
    seen = frontier @ weights
    while frontier.size:
        products = np.concatenate([g[frontier] for g in images])
        keys, first = np.unique(products @ weights, return_index=True)
        new = ~np.isin(keys, seen)
        seen = np.concatenate([seen, keys[new]])
        frontier = products[first[new]]
    return int(seen.size)


@st.composite
def small_groups(draw):
    """1-3 generators on at most 8 points; each permutes a drawn subset of
    the points, so the group may be intransitive."""
    n = draw(st.integers(2, 8))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
        shuffled = draw(st.permutations(support))
        img = list(range(n))
        for a, b in zip(support, shuffled):
            img[a] = b
        gens.append(img)
    return n, gens


@settings(max_examples=150, deadline=None)
@given(small_groups())
@example((4, [[1, 0, 2, 3], [1, 2, 3, 0]]))  # S4: three nontrivial stabilizers
@example((6, [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]]))  # C3 x C3, intransitive
@example((8, [[1, 2, 3, 4, 5, 6, 7, 0], [1, 0, 2, 3, 4, 5, 6, 7]]))  # S8
@example((7, [[0, 1, 2, 3, 4, 5, 6]]))  # the identity only
def test_chain_order_matches_brute_force_and_sympy(case):
    from sympy.combinatorics import Permutation as SympyPermutation
    from sympy.combinatorics import PermutationGroup as SympyGroup

    n, gens = case
    g = PermutationGroup(gens)
    expected = closure_order(gens, n)
    assert g.order() == expected
    assert SympyGroup([SympyPermutation(x) for x in gens]).order() == expected
    g.verify_chain()
    word = np.array(gens[0])
    for x in gens[1:] + gens[:1]:
        word = np.array(x)[word]
    assert PermutationGroup([*gens, word]).order() == expected  # the product lies in g
    base = g.base()
    if base and expected > len(_orbit(gens, base[0])):
        # a nontrivial stabilizer: the deeper levels came from sifting
        assert len(base) > 1


def _union_find_labels(images, n):
    """Each point's smallest orbit-mate by a plain-Python union-find: a
    merge keeps the smaller root, so every root is its set's smallest point."""
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for img in images:
        for x, y in enumerate(img):
            a, b = root(x), root(y)
            parent[max(a, b)] = min(a, b)
    return [root(x) for x in range(n)]


@st.composite
def permutation_sets(draw):
    """0-4 permutations of at most 40 points, each moving a drawn subset,
    so the orbits are of every size."""
    n = draw(st.integers(1, 40))
    images = []
    for _ in range(draw(st.integers(0, 4))):
        support = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
        img = list(range(n))
        for a, b in zip(support, draw(st.permutations(support))):
            img[a] = b
        images.append(img)
    return n, images


@settings(max_examples=200, deadline=None)
@given(permutation_sets())
def test_orbit_labels_match_a_union_find(case):
    n, images = case
    labels = orbit_labels([np.array(img, dtype=np.int32) for img in images], n)
    assert labels.dtype == np.int32
    assert labels.tolist() == _union_find_labels(images, n)


def test_regular_chain_is_one_level_and_verifies_in_full():
    rg = RealizedGroup(tight_quotient_presentation((8, 8, 8)))
    g = PermutationGroup(rg.table.to_permutations(), degree=rg.order)
    assert rg.order == 1024
    assert g.order() == 1024
    assert g.base() == (0,)
    g.verify_chain()


def test_chain_memory_is_linear_in_the_degree():
    rg = RealizedGroup(family_g(5, 12, (2, 2, 2, 3)))
    gens = rg.table.to_permutations()
    tracemalloc.start()
    try:
        g = PermutationGroup(gens, degree=rg.order)
        assert g.order() == 4096
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one stored transversal entry per point would be 4096 * 16 KB = 64 MB
    assert peak < 8 * 2**20
