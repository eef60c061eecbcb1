"""Permutation groups with verified stabilizer chains.

A permutation of {0, ..., n-1} is its image array: a read-only int32 array
whose entry x is the image of x, the form in which a coset table keeps its
generators (row g of ``CosetTable.perms`` is generator g). Products are
numpy gathers: ``b[a]`` applies ``a`` first, then ``b``. Arrays are stored
int32; ``orbit_labels``, which gathers repeatedly, converts its arrays to
intp once per call and gathers with ``take`` on intp indices, since a
gather through an int32 index array casts the index to intp every time.

``PermutationGroup`` keeps a base and strong generating set built by a
deterministic Schreier-Sims pass (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, ch. 4), so the group order, the base and the
chain itself are reproducible across runs. The constructor builds the
chain, and the queries read it.

Level i of the chain has a base point b, its generators S (every strong
generator that fixes the earlier base points, in the order they joined) and
the orbit D = b^<S>, stored as a Schreier vector (Handbook §4.1): two int32
arrays of the group's degree, ``label`` (the index in S of the generator that
first reached each point) and ``pred`` (the point it was reached from; -1 off
the orbit, the base maps to itself). The transversal element u_x, which
carries b to x, is traced up that tree on demand, so a level costs O(degree)
memory rather than one stored permutation per orbit point. Orbits are closed
breadth first, one numpy gather per frontier and generator. Every other
orbit question goes to ``orbit_labels``, which labels each point with the
smallest point of its orbit. A new level's base point is the smallest point
of a largest orbit: of all generators for the first level, of the new strong
generator for the levels after it.

The chain is complete once, from the deepest level up, every Schreier
generator u_x s u_{x^s}^-1 of a level sifts through the levels below it. At
the deepest level that means every Schreier generator is the identity, and
one batch proves it for all of them at once, by this lemma. Let
X = {b^s : s in S} together with every point outside D.

  *If every Schreier generator of the level fixes every point of X, the
  stabilizer H of b in <S> is trivial.* The Schreier generators generate H
  (Schreier's lemma), so H fixes X. The points of D fixed by H form a block
  of <S> on D that contains b. Each b^s lies in that block and in its image
  under s, so the block is S-invariant and equals D. H also fixes everything
  outside D, and a permutation that fixes every point is the identity.

The batch C holds one row per orbit point: row x is u_x applied to X, filled
down the Schreier tree one breadth-first layer per gather. A Schreier
generator fixes X exactly when ``s[C[x]] == C[x^s]``, so each generator
costs one comparison over the whole orbit. In a regular representation the
chain is a single level and this batch is the whole proof. When the batch
finds a Schreier generator that moves a point of X, or the level is not the
deepest, the level falls back to forming each pending Schreier generator in
full and sifting it; a residue that does not sift joins the chain and the
pass restarts at its level. Pairs (orbit point, generator) already proven
stay proven, because old points keep their tree entries and the chain below
only grows.

``verify_chain`` does not use the lemma: it traces every transversal
element, forms every Schreier element of every level and sifts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, CheckFailedError

MAX_DEGREE = 1 << 22
# Cells of the level batch built at once; larger point sets X go in chunks.
BATCH_CELLS = 1 << 20


def _image_array(images) -> np.ndarray:
    """A read-only int32 copy of ``images``, checked to be a permutation of
    range(n) for some 1 <= n <= MAX_DEGREE."""
    arr = np.array(images, dtype=np.int32, copy=True)
    if arr.ndim != 1:
        raise ValueError("permutation images must be a flat sequence")
    n = arr.shape[0]
    if n == 0:
        raise ValueError("permutation degree must be at least 1")
    if n > MAX_DEGREE:
        raise CapacityError(f"degree {n} exceeds the supported maximum {MAX_DEGREE}")
    if arr.min() < 0 or arr.max() >= n or np.bincount(arr, minlength=n).max() != 1:
        raise ValueError("images do not describe a bijection")
    arr.setflags(write=False)
    return arr


def _inverse(perm: np.ndarray) -> np.ndarray:
    """The image array of the inverse permutation."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0], dtype=perm.dtype)
    return inv


def _bfs(images: Sequence[np.ndarray], pred: np.ndarray, label: np.ndarray,
         frontier: np.ndarray, first: Iterable[int]) -> list[np.ndarray]:
    """Grow a breadth-first tree: the generators ``first`` on ``frontier``,
    then every generator on each fresh layer, until no point is new.

    A fresh point records the point it came from in ``pred`` and the index
    of the generator in ``label``; returns the fresh layers in order. A
    permutation is injective, so one gather never reaches a point twice.
    """
    layers = []
    gens = first
    while frontier.size:
        fresh = []
        for k in gens:
            imgs = images[k][frontier]
            new = pred[imgs] < 0
            pts = imgs[new]
            if pts.size:
                pred[pts] = frontier[new]
                label[pts] = k
                fresh.append(pts)
        frontier = np.concatenate(fresh) if fresh else frontier[:0]
        if frontier.size:
            layers.append(frontier)
        gens = range(len(images))
    return layers


def _largest_orbit_point(perms: Sequence[np.ndarray], n: int) -> int:
    """Smallest point of a largest orbit of ``perms``: the base point rule."""
    return int(np.argmax(np.bincount(orbit_labels(perms, n))))


def orbit_labels(perms: Sequence[np.ndarray], n: int) -> np.ndarray:
    """The smallest point of each point's orbit under the group that the
    permutations ``perms`` of ``range(n)`` generate.

    Min-label propagation with pointer jumping: every label only ever
    decreases to a point of the same orbit, and at the fixed point labels
    agree along every edge. Each array must be a permutation: then it has
    finite order, so its forward edges already connect each orbit and no
    inverse arrays are needed.

    The arrays are converted to intp once, on entry, and the labels
    propagate as intp, so no gather casts its index array; the labels are
    returned as int32.
    """
    perms = [np.asarray(arr, dtype=np.intp) for arr in perms]
    labels = np.arange(n)
    while True:
        nxt = labels
        for arr in perms:
            nxt = np.minimum(nxt, nxt.take(arr))
        nxt = nxt.take(nxt)
        if np.array_equal(nxt, labels):
            return labels.astype(np.int32)
        labels = nxt


@dataclass
class _Level:
    """One stabilizer-chain level: a base point, its generators, and the
    Schreier vector of the base point's orbit.

    ``orbit`` lists the orbit points in the order reached; ``layers`` holds
    the offsets in ``orbit`` where each breadth-first layer ends, and every
    point's ``pred`` lies in an earlier layer. ``inverses`` are the image
    arrays of the generators' inverses, shared with the levels above.
    ``checked[k]`` counts the leading orbit points whose Schreier generator
    with generator k is proven to sift.
    """

    base: int
    label: np.ndarray
    pred: np.ndarray
    orbit: np.ndarray
    layers: list[int]
    gens: list[np.ndarray] = field(default_factory=list)
    inverses: list[np.ndarray] = field(default_factory=list)
    checked: list[int] = field(default_factory=list)

    @classmethod
    def start(cls, base: int, degree: int) -> "_Level":
        pred = np.full(degree, -1, dtype=np.int32)
        pred[base] = base
        return cls(base=base, label=np.full(degree, -1, dtype=np.int32), pred=pred,
                   orbit=np.array([base], dtype=np.int32), layers=[0, 1])

    def add(self, gen: np.ndarray, inverse: np.ndarray) -> None:
        """Take on one more generator and re-close the orbit."""
        self.gens.append(gen)
        self.inverses.append(inverse)
        self.checked.append(0)
        fresh = _bfs(self.gens, self.pred, self.label, self.orbit, [len(self.gens) - 1])
        if fresh:
            self.orbit = np.concatenate([self.orbit, *fresh])
            for layer in fresh:
                self.layers.append(self.layers[-1] + len(layer))

    def trace(self, point: int) -> np.ndarray:
        """Image array of u_point, the transversal element carrying the base
        to ``point``, as the product of the generators along the tree."""
        path = []
        while point != self.base:
            path.append(int(self.label[point]))
            point = int(self.pred[point])
        u = np.arange(self.pred.shape[0], dtype=np.int32)
        for k in reversed(path):
            u = self.gens[k][u]
        return u

    def stabilizer_is_trivial(self) -> bool:
        """The lemma's batch: True if every Schreier generator of this level
        fixes every point of X, which proves the base point's stabilizer in
        <gens> trivial; False if one moves a point of X."""
        orbit = self.orbit
        pos = np.full(self.pred.shape[0], -1, dtype=np.int32)
        pos[orbit] = np.arange(orbit.size, dtype=np.int32)
        parent = pos[self.pred[orbit]]
        label = self.label[orbit]
        x = np.union1d([g[self.base] for g in self.gens],
                       np.flatnonzero(self.pred < 0)).astype(np.int32)
        step = max(1, BATCH_CELLS // orbit.size)
        for lo in range(0, x.size, step):
            cols = x[lo:lo + step]
            rows = np.empty((orbit.size, cols.size), dtype=np.int32)
            rows[0] = cols
            for start, end in zip(self.layers[1:], self.layers[2:]):
                layer = label[start:end]
                for k in np.unique(layer):
                    at = start + np.flatnonzero(layer == k)
                    rows[at] = self.gens[k][rows[parent[at]]]
            for s in self.gens:
                if not np.array_equal(s[rows], rows[pos[s[orbit]]]):
                    return False
        return True


class PermutationGroup:
    """Group generated by permutations of a common degree.

    Each generator is a sequence of images (a list, an array, or a row of a
    2-D array such as ``CosetTable.perms``), checked once and kept as a
    read-only int32 copy, the form that ``strong_generators()`` hands out.
    The stabilizer chain is built here, once.
    """

    def __init__(self, generators: Iterable = (), degree: int | None = None):
        gens = tuple(_image_array(g) for g in generators)
        if gens:
            degs = {g.shape[0] for g in gens}
            if len(degs) != 1:
                raise ValueError(f"mixed degrees in generator list: {sorted(degs)}")
            inferred = degs.pop()
            if degree is not None and degree != inferred:
                raise ValueError(f"degree {degree} conflicts with generators of degree {inferred}")
            degree = inferred
        if degree is None:
            raise ValueError("degree is required for a group with no generators")
        if not 1 <= degree <= MAX_DEGREE:
            raise CapacityError(f"degree {degree} out of supported range")
        self._generators = gens
        self._degree = degree
        self._levels = self._build()

    # -- stabilizer chain ----------------------------------------------------

    def _build(self) -> list[_Level]:
        levels: list[_Level] = []
        for g in self._generators:
            residue, j = self._strip(g, levels)
            if residue is not None:
                self._add(levels, residue, j)
        i = len(levels) - 1
        while i >= 0:
            found = self._settle(levels, i)
            if found is None:
                i -= 1
            else:
                i = self._add(levels, *found)
        return levels

    def _add(self, levels: list[_Level], g: np.ndarray, j: int) -> int:
        """Make ``g``, which fixes the base points before level ``j``, a
        strong generator; returns the level whose base it moves first."""
        while j == len(levels):
            gens = [g] if levels else self._generators
            base = _largest_orbit_point(gens, self._degree)
            levels.append(_Level.start(base, self._degree))
            if g[base] == base:
                j += 1
        g.setflags(write=False)
        inverse = _inverse(g)
        for lv in levels[:j + 1]:
            lv.add(g, inverse)
        return j

    def _settle(self, levels: list[_Level], i: int):
        """Prove every Schreier generator of level ``i`` sifts through the
        levels below; None if so, else the first residue and its level.

        The deepest level tries the lemma's batch first; otherwise, and when
        the batch fails, the pending pairs are formed and sifted one by one.
        """
        lv = levels[i]
        size = lv.orbit.size
        if i == len(levels) - 1 and min(lv.checked) < size:
            if lv.stabilizer_is_trivial():
                lv.checked = [size] * len(lv.gens)
                return None
        for k, s in enumerate(lv.gens):
            for p in range(lv.checked[k], size):
                pt = int(lv.orbit[p])
                img = s[pt]
                if lv.label[img] == k and lv.pred[img] == pt:
                    continue  # a tree edge: u_pt s is u_img itself
                residue, j = self._strip(s[lv.trace(pt)], levels, i)
                if residue is not None:
                    lv.checked[k] = p
                    return residue, j
            lv.checked[k] = size
        return None

    @staticmethod
    def _strip(g: np.ndarray, levels: list[_Level], start: int = 0):
        """Sift an image array through the chain; (None, _) if absorbed, else
        (residue, level). Dividing by u_x walks the Schreier vector from x
        back to the base, one inverse generator per step."""
        i = start
        while i < len(levels):
            lv = levels[i]
            x = int(g[lv.base])
            if lv.pred[x] < 0:
                return g, i
            while x != lv.base:
                g = lv.inverses[lv.label[x]][g]
                x = int(lv.pred[x])
            i += 1
        if np.array_equal(g, np.arange(g.shape[0], dtype=g.dtype)):
            return None, len(levels)
        return g, len(levels)

    # -- queries --------------------------------------------------------------

    def order(self) -> int:
        n = 1
        for lv in self._levels:
            n *= int(lv.orbit.size)
        return n

    def base(self) -> tuple[int, ...]:
        return tuple(lv.base for lv in self._levels)

    def strong_generators(self) -> tuple[np.ndarray, ...]:
        return tuple(self._levels[0].gens) if self._levels else ()

    def verify_chain(self) -> None:
        """Re-check the chain after the fact; raises CheckFailedError on any defect.

        First checks each level's layout: the Schreier vector leads from
        every orbit point back to the base along generator edges, the
        generators fix the earlier base points, and a deeper level's
        generators are among this level's. Then traces every transversal
        element, forms every Schreier element of every level and sifts it,
        without the lemma, and sifts every original generator.
        """
        levels = self._levels
        for i in range(len(levels)):
            self._check_layout(levels, i)
        for i, lv in enumerate(levels):
            for pt in lv.orbit.tolist():
                u = lv.trace(pt)
                for g in lv.gens:
                    img = int(g[pt])
                    if lv.pred[img] < 0:
                        raise CheckFailedError(
                            f"level {i}: orbit is not closed at point {pt}")
                    h = _inverse(lv.trace(img))[g[u]]
                    residue, _ = self._strip(h, levels, i + 1)
                    if residue is not None:
                        raise CheckFailedError(
                            f"level {i}: Schreier element at point {pt} does not sift")
        for g in self._generators:
            residue, _ = self._strip(g, levels)
            if residue is not None:
                raise CheckFailedError("an original generator does not sift through the chain")

    def _check_layout(self, levels: list[_Level], i: int) -> None:
        lv = levels[i]
        n = self._degree
        on = lv.pred >= 0
        if lv.pred[lv.base] != lv.base or lv.label[lv.base] != -1:
            raise CheckFailedError(f"level {i}: the base is not the root of its Schreier vector")
        if (lv.orbit.size != np.count_nonzero(on) or not on[lv.orbit].all()
                or lv.orbit[0] != lv.base):
            raise CheckFailedError(f"level {i}: orbit list and Schreier vector disagree")
        for g in lv.gens:
            for j in range(i):
                if g[levels[j].base] != levels[j].base:
                    raise CheckFailedError(f"level {i}: generator moves an earlier base")
        if i + 1 < len(levels):
            mine = {g.tobytes() for g in lv.gens}
            if any(g.tobytes() not in mine for g in levels[i + 1].gens):
                raise CheckFailedError(f"level {i + 1}: generator missing from the level above")
        if len(lv.inverses) != len(lv.gens) or any(
                not np.array_equal(g[inv], np.arange(n, dtype=np.int32))
                for g, inv in zip(lv.gens, lv.inverses)):
            raise CheckFailedError(f"level {i}: stored inverses do not match the generators")
        pts = lv.orbit[1:]
        labels = lv.label[pts]
        if labels.size and (labels.min() < 0 or labels.max() >= len(lv.gens)):
            raise CheckFailedError(f"level {i}: Schreier vector names an unknown generator")
        images = np.array(lv.gens, dtype=np.int32).reshape(-1, n)
        if labels.size and not np.array_equal(images[labels, lv.pred[pts]], pts):
            raise CheckFailedError(f"level {i}: Schreier vector edge is not a generator step")
        root = np.where(on, lv.pred, np.arange(n, dtype=np.int32))
        for _ in range(n.bit_length()):
            root = root[root]
        if not (root[on] == lv.base).all():
            raise CheckFailedError(f"level {i}: Schreier vector does not lead back to the base")
