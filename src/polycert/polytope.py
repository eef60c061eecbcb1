"""Face lattices and flag graphs of certified string C-groups.

Faces of rank i are the cosets w<all generators but r_i>; flags are the
group elements themselves, two flags sharing their rank-i face exactly when
the rank-i quotient map sends them to the same coset. Moving to the
i-adjacent flag is right multiplication by r_i, which is a fixed-point-free
involution on flags whenever the generators are genuine involutions.

Everything here refuses uncertified input: a face lattice only means what it
claims when the group is a verified string C-group, so ``build_lattice`` and
``flag_graph`` demand a passing certificate for the same presentation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, LimitExceededError, UncertifiedInputError
from .realize import RealizedGroup
from .verify import SggiCertificate

DEFAULT_DIAMOND_MAX_ORDER = 1 << 10
DEFAULT_SECTION_MAX_ORDER = 1 << 8


def _require_certificate(realized: RealizedGroup, certificate: SggiCertificate) -> None:
    if certificate.presentation != realized.presentation:
        raise UncertifiedInputError(
            "certificate and realization belong to different presentations")
    if not certificate.passed:
        raise UncertifiedInputError(
            "refusing to build polytope structure from a failed certificate")


@dataclass(frozen=True)
class FaceLattice:
    """The full face poset, least and greatest faces included.

    Node ids: 0 is the least face (rank -1); faces of ranks 0..d-1 follow in
    coset order; the last node is the greatest face (rank d). ``covers`` holds
    (lower, upper) node pairs with ranks one apart.
    """

    rank: int
    group_order: int
    f_vector: tuple[int, ...]
    face_representatives: tuple[tuple[int, ...], ...]
    covers: tuple[tuple[int, int], ...]

    @property
    def node_count(self) -> int:
        return 2 + sum(self.f_vector)

    def node_id(self, face_rank: int, index: int) -> int:
        if face_rank == -1:
            if index != 0:
                raise IndexError("the least face is unique")
            return 0
        if face_rank == self.rank:
            if index != 0:
                raise IndexError("the greatest face is unique")
            return self.node_count - 1
        if not 0 <= face_rank < self.rank:
            raise IndexError(f"face rank {face_rank} out of range")
        if not 0 <= index < self.f_vector[face_rank]:
            raise IndexError(f"face index {index} out of range at rank {face_rank}")
        return 1 + sum(self.f_vector[:face_rank]) + index

    def node_label(self, node: int) -> str:
        if node == 0:
            return "-1:0"
        if node == self.node_count - 1:
            return f"{self.rank}:0"
        node -= 1
        for r, count in enumerate(self.f_vector):
            if node < count:
                return f"{r}:{node}"
            node -= count
        raise IndexError("node id out of range")


def build_lattice(realized: RealizedGroup, certificate: SggiCertificate) -> FaceLattice:
    """Assemble the face lattice of a certified group.

    One pass of the element list per consecutive rank pair collects the
    cover relations; f_vector entries are the coset counts of the corank-1
    standard subgroups.
    """
    _require_certificate(realized, certificate)
    d = realized.rank
    quotients = []
    for i in range(d):
        subset = tuple(x for x in range(d) if x != i)
        quotients.append(realized.quotient(subset))
    f_vector = tuple(q.size for q in quotients)
    reps = tuple(tuple(int(v) for v in q.reps) for q in quotients)
    covers: list[tuple[int, int]] = []
    offset = [1]
    for f in f_vector:
        offset.append(offset[-1] + f)
    greatest = offset[-1]
    covers.extend((0, offset[0] + c) for c in range(f_vector[0]))
    for i in range(d - 1):
        lo = quotients[i].phi.astype(np.int64)
        hi = quotients[i + 1].phi.astype(np.int64)
        codes = np.unique(lo * f_vector[i + 1] + hi)
        for code in codes:
            covers.append((offset[i] + int(code // f_vector[i + 1]),
                           offset[i + 1] + int(code % f_vector[i + 1])))
    covers.extend((offset[d - 1] + c, greatest) for c in range(f_vector[d - 1]))
    covers.sort()
    return FaceLattice(
        rank=d,
        group_order=realized.order,
        f_vector=f_vector,
        face_representatives=reps,
        covers=tuple(covers),
    )


@dataclass(frozen=True)
class FlagGraph:
    """Flags (group elements) with one adjacency involution per rank."""

    n_flags: int
    moves: tuple[np.ndarray, ...]

    def adjacent(self, flag: int, i: int) -> int:
        return int(self.moves[i][flag])


def flag_graph(realized: RealizedGroup, certificate: SggiCertificate) -> FlagGraph:
    _require_certificate(realized, certificate)
    return FlagGraph(n_flags=realized.order, moves=tuple(realized.right))


def check_flag_matchings(graph: FlagGraph) -> tuple[bool, tuple[int, ...]]:
    """Each adjacency must be a fixed-point-free involution (a perfect
    matching on flags); returns (ok, ranks that fail)."""
    idx = np.arange(graph.n_flags, dtype=np.int32)
    bad = []
    for i, arr in enumerate(graph.moves):
        if np.any(arr == idx) or not np.array_equal(arr[arr], idx):
            bad.append(i)
    return (not bad, tuple(bad))


def check_flag_connectivity(graph: FlagGraph) -> bool:
    """Is every flag reachable from flag 0 by adjacency moves?"""
    n = graph.n_flags
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.array([0], dtype=np.int32)
    while frontier.size:
        nxt = []
        for arr in graph.moves:
            imgs = arr[frontier]
            fresh = imgs[~seen[imgs]]
            if fresh.size:
                seen[fresh] = True
                nxt.append(fresh)
        frontier = np.concatenate(nxt) if nxt else np.empty(0, dtype=np.int32)
    return bool(seen.all())


def check_section_connectivity(realized: RealizedGroup, certificate: SggiCertificate,
                               max_order: int = DEFAULT_SECTION_MAX_ORDER) -> bool:
    """For every incident pair of an i-face and a j-face (i < j), the flags
    containing both must be connected by moves that fix both (adjacency at
    every rank but i and j).

    The flags through one such pair are a union of orbits of
    <r_k : k not in {i, j}>, so the sections are connected exactly when the
    number of distinct (phi_i, phi_j) pairs equals the number of those
    orbits. Exhaustive over flags, so guarded by ``max_order``.
    """
    _require_certificate(realized, certificate)
    if realized.order > max_order:
        raise LimitExceededError(
            f"section connectivity is exhaustive; order {realized.order} "
            f"exceeds the guard {max_order}")
    d = realized.rank
    # A single i-face needs no check: its flags are one orbit of
    # <r_k : k != i> by the definition of the face.
    faces = [realized.quotient(x for x in range(d) if x != i) for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            pairs = faces[i].phi.astype(np.int64) * faces[j].size + faces[j].phi
            orbits = realized.quotient(x for x in range(d) if x not in (i, j)).size
            if np.unique(pairs).size != orbits:
                return False
    return True


def check_diamond(realized: RealizedGroup, certificate: SggiCertificate,
                  max_order: int = DEFAULT_DIAMOND_MAX_ORDER
                  ) -> tuple[bool, tuple[tuple[int, int, int, int], ...]]:
    """Every incident (rank i-1, rank i+1) face pair must sandwich exactly
    two rank-i faces. Exhaustive over flags, so guarded by ``max_order``.

    Failures are reported as (i, lower face, upper face, count), at most ten.
    """
    _require_certificate(realized, certificate)
    if realized.order > max_order:
        raise LimitExceededError(
            f"diamond check is exhaustive; order {realized.order} "
            f"exceeds the guard {max_order}")
    d = realized.rank
    n = realized.order
    zeros = np.zeros(n, dtype=np.int64)
    phis = []
    sizes = []
    for i in range(d):
        subset = tuple(x for x in range(d) if x != i)
        q = realized.quotient(subset)
        phis.append(q.phi.astype(np.int64))
        sizes.append(q.size)
    failures: list[tuple[int, int, int, int]] = []
    for i in range(d):
        lower = zeros if i == 0 else phis[i - 1]
        upper = zeros if i == d - 1 else phis[i + 1]
        n_upper = 1 if i == d - 1 else sizes[i + 1]
        pair_codes = lower * n_upper + upper
        # distinct (pair, middle face) combinations, then middles per pair
        combo = np.unique(pair_codes * sizes[i] + phis[i])
        pair_of_combo = combo // sizes[i]
        uniq_pairs, counts = np.unique(pair_of_combo, return_counts=True)
        for code, cnt in zip(uniq_pairs, counts):
            if cnt != 2 and len(failures) < 10:
                failures.append((i, int(code // n_upper), int(code % n_upper), int(cnt)))
    return (not failures, tuple(failures))


def export_hasse(lattice: FaceLattice, fmt: str = "edges") -> str:
    """Serialize the cover relation; ``edges`` is one "lower upper" line per
    cover (labels are rank:index), ``dot`` is a graphviz digraph."""
    if fmt == "edges":
        lines = [f"{lattice.node_label(a)} {lattice.node_label(b)}"
                 for a, b in lattice.covers]
        return "\n".join(lines) + "\n"
    if fmt == "dot":
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for node in range(lattice.node_count):
            lines.append(f'  n{node} [label="{lattice.node_label(node)}"];')
        for a, b in lattice.covers:
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise FormatError(f"unknown lattice format {fmt!r}; expected 'edges' or 'dot'")
