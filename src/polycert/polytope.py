"""Face lattices and flag graphs of certified string C-groups.

Faces of rank i are the cosets w<all generators but r_i>, and the least and
greatest faces (ranks -1 and d) are the one coset of the whole group; flags
are the group elements themselves, and each flag's rank-i face is read as
its label in ``RealizedGroup.cosets``, the smallest flag of that coset, so
two flags share their rank-i face exactly when their labels agree. An
incidence between faces of two ranks is a pair of labels that some flag
carries, coded as one int64 a n + b over n flags. Moving to the i-adjacent
flag is right multiplication by r_i, which is a fixed-point-free involution
on flags whenever the generators are genuine involutions. The flag graph is
therefore the realization's table itself: ``flag_graph`` returns its one
array, ``CosetTable.perms``, row i the i-adjacency.

Everything here refuses uncertified input: a face lattice only means what it
claims when the group is a verified string C-group, so ``build_lattice``,
``flag_graph`` and the exhaustive checks demand a passing certificate for
the same presentation. The exhaustive checks also refuse a group whose order
exceeds ``max_order``, a guard that every caller names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, LimitExceededError, UncertifiedInputError
from .perms import orbit_labels
from .realize import RealizedGroup
from .verify import SggiCertificate

def _require_certificate(realized: RealizedGroup, certificate: SggiCertificate) -> None:
    if certificate.presentation != realized.presentation:
        raise UncertifiedInputError(
            "certificate and realization belong to different presentations")
    if not certificate.passed:
        raise UncertifiedInputError(
            "refusing to build polytope structure from a failed certificate")


def _require_exhaustive(realized: RealizedGroup, certificate: SggiCertificate,
                        max_order: int, check: str) -> None:
    """The guard of a check that walks every flag: a certificate, and an
    order no larger than ``max_order``."""
    _require_certificate(realized, certificate)
    if realized.order > max_order:
        raise LimitExceededError(
            f"{check} is exhaustive; order {realized.order} exceeds the guard {max_order}")


def _faces(realized: RealizedGroup) -> list[np.ndarray]:
    """The faces of ranks -1 to d as coset labels of the flags: the i-faces
    are the cosets of <r_j : j != i>, and the least and greatest faces are
    both the single coset of the whole group. The realization partitions
    each subset once, so every check that calls this, and ``certify`` before
    them, reads the same d + 1 label arrays."""
    d = realized.rank
    whole = realized.cosets(range(d))
    return [whole, *(realized.cosets(j for j in range(d) if j != i)
                     for i in range(d)), whole]


def _smallest_flags(labels: np.ndarray) -> np.ndarray:
    """Each face's smallest flag, ascending: the flags that label themselves.
    A face is numbered by its position here."""
    return np.flatnonzero(labels == np.arange(len(labels)))


def _pair_codes(a: np.ndarray, b: np.ndarray, return_inverse: bool = False):
    """The distinct (a, b) label pairs over the flags, as sorted int64 codes
    a n + b, and with ``return_inverse`` each flag's index among them.
    Labels are flags, below n, so a code is exact and its order is that of
    the pairs."""
    return np.unique(a.astype(np.int64) * len(a) + b, return_inverse=return_inverse)


@dataclass(frozen=True)
class FaceLattice:
    """The full face poset, least and greatest faces included.

    Node ids run through the ranks -1 to d in turn, each rank's faces in
    the order of their smallest flags: 0 is the least face and the last
    node the greatest.
    ``covers`` holds (lower, upper) node pairs with ranks one apart.
    """

    rank: int
    group_order: int
    f_vector: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]

    @property
    def _rank_sizes(self) -> tuple[int, ...]:
        return (1, *self.f_vector, 1)

    @property
    def node_count(self) -> int:
        return sum(self._rank_sizes)

    def node_label(self, node: int) -> str:
        for r, count in enumerate(self._rank_sizes, start=-1):
            if node < count:
                return f"{r}:{node}"
            node -= count
        raise IndexError("node id out of range")


def build_lattice(realized: RealizedGroup, certificate: SggiCertificate) -> FaceLattice:
    """Assemble the face lattice of a certified group.

    A face covers another of rank one less exactly when some flag lies in
    both, so the covers between consecutive ranks are the distinct label
    pairs of their faces over all flags. The codes come sorted and the
    numbering by smallest flag keeps their order, so the covers come out
    sorted.
    """
    _require_certificate(realized, certificate)
    n = realized.order
    labels = _faces(realized)
    faces = [_smallest_flags(a) for a in labels]
    offsets = np.cumsum([0] + [len(f) for f in faces]).tolist()
    covers: list[tuple[int, int]] = []
    for r in range(len(faces) - 1):
        lower, upper = np.divmod(_pair_codes(labels[r], labels[r + 1]), n)
        covers.extend(zip((offsets[r] + np.searchsorted(faces[r], lower)).tolist(),
                          (offsets[r + 1] + np.searchsorted(faces[r + 1], upper)).tolist()))
    return FaceLattice(
        rank=realized.rank,
        group_order=n,
        f_vector=tuple(len(f) for f in faces[1:-1]),
        covers=tuple(covers),
    )


def flag_graph(realized: RealizedGroup, certificate: SggiCertificate) -> np.ndarray:
    """The flag adjacencies of a certified group: row i maps each flag to its
    i-adjacent flag. It is the table's array itself, not a copy."""
    _require_certificate(realized, certificate)
    return realized.table.perms


def check_flag_matchings(moves: np.ndarray) -> tuple[bool, tuple[int, ...]]:
    """Each adjacency in ``moves`` (one row per rank, as ``flag_graph``
    returns them) must be a fixed-point-free involution (a perfect matching
    on flags); returns (ok, ranks that fail)."""
    idx = np.arange(len(moves[0]), dtype=np.int32)
    bad = []
    for i, arr in enumerate(moves):
        if np.any(arr == idx) or not np.array_equal(arr[arr], idx):
            bad.append(i)
    return (not bad, tuple(bad))


def check_flag_connectivity(moves: np.ndarray) -> bool:
    """Is every flag reachable from flag 0 by the adjacencies in ``moves``?"""
    return not orbit_labels(moves, len(moves[0])).any()


def check_section_connectivity(realized: RealizedGroup, certificate: SggiCertificate,
                               *, max_order: int) -> bool:
    """For every incident pair of an i-face and a j-face (i < j), the flags
    containing both must be connected by moves that fix both (adjacency at
    every rank but i and j).

    The flags through one such pair are a union of orbits of
    <r_k : k not in {i, j}>, so the sections are connected exactly when the
    number of distinct (i-face, j-face) label pairs equals the number of those
    orbits. Those orbits are the left cosets of that subgroup, so there are
    order / |<r_k : k not in {i, j}>| of them. Exhaustive over flags, so
    guarded by ``max_order``.
    """
    _require_exhaustive(realized, certificate, max_order, "section connectivity")
    d = realized.rank
    # A single i-face needs no check: its flags are one orbit of
    # <r_k : k != i> by the definition of the face.
    faces = _faces(realized)
    for i in range(d):
        for j in range(i + 1, d):
            orbits = realized.order // realized.parabolic_order(
                x for x in range(d) if x not in (i, j))
            if len(_pair_codes(faces[i + 1], faces[j + 1])) != orbits:
                return False
    return True


def check_diamond(realized: RealizedGroup, certificate: SggiCertificate, *, max_order: int
                  ) -> tuple[bool, tuple[tuple[int, int, int, int], ...]]:
    """Every incident (rank i-1, rank i+1) face pair must sandwich exactly
    two rank-i faces. Exhaustive over flags, so guarded by ``max_order``.

    Failures are reported as (i, lower face, upper face, count), at most ten,
    each face numbered as in ``build_lattice``.
    """
    _require_exhaustive(realized, certificate, max_order, "diamond check")
    n = realized.order
    faces = _faces(realized)
    failures: list[tuple[int, int, int, int]] = []
    for i in range(realized.rank):
        lower, middle, upper = faces[i:i + 3]
        # each flag's (lower, upper) pair as its index among the distinct
        # pairs, then the distinct middle faces per pair
        pairs, index = _pair_codes(lower, upper, return_inverse=True)
        counts = np.bincount(_pair_codes(index, middle) // n)
        bad = np.flatnonzero(counts != 2)
        if bad.size:
            low, up = np.divmod(pairs[bad], n)
            failures.extend(zip([i] * len(bad),
                                np.searchsorted(_smallest_flags(lower), low).tolist(),
                                np.searchsorted(_smallest_flags(upper), up).tolist(),
                                counts[bad].tolist()))
    return (not failures, tuple(failures[:10]))


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
