"""Todd-Coxeter coset enumeration over finite presentations.

Two strategies are provided: a relator-oriented scan ("hlt", the default,
with a lookahead pass once the table grows past a soft threshold) and a
definition-oriented one ("felsch", driven by a deduction stack). Felsch
scans a deduction once: a new entry alpha^c = beta is checked by scanning,
at alpha only, the cyclic conjugates of the relators and of their inverses
that start with c, which read every relator cycle through that entry (the
lemma is in ``_Engine._process_deductions``). Both strategies produce the
same standardized table for the same inputs, which the test suite uses as a
cross-check.

Conventions:

* Cosets are right cosets of the given subgroup, numbered from 0; coset 0 is
  the subgroup itself.
* The table stores one column per generator-and-sign, except that a generator
  with an explicit square relator is an involution and shares a single column
  for both signs.
* New cosets always take the smallest unused id and relators are scanned in
  their listed order from the lowest-numbered incomplete coset, so the
  enumeration (and the resulting numbering) is deterministic.

While it runs, the engine keeps the table column-major (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 5.1-5.2): one int32
``array`` per column indexed by coset id, and one more for the union-find
parents, so a coset slot costs 4 bytes per column plus 4 (and HLT's marks,
below: one byte for up to eight marked relators). The arrays double
in capacity when full, so they hold at most twice as many slots as cosets
were ever defined. Dead cosets produced by coincidences are compacted away
whenever they outnumber live ones 3 to 1: compaction renumbers the columns
in place with numpy gathers over views of the arrays. The finished table is
handed out as one read-only int32 matrix, with a row per coset and the same
columns. ``closed_table`` is the one constructor of a table: it numbers the
rows with ``_standardize``, for an enumeration and for the regular action
that ``realize`` builds another way alike, so every route to a table gives
the same bytes.

HLT (with its lookahead, as in Holt, Eick and O'Brien, ch. 5) skips the
scans that it knows would change nothing. Once a fill scan has closed a
relator w at a coset, HLT walks that cycle once and marks every coset on it
from which w reads as itself: the offsets that are multiples of the length
of w's root, and the offsets from which the cycle, read backwards, spells w
(``_closed_offsets``). A scan of w from a marked coset would trace a closed
cycle and return with nothing changed, so HLT and its lookahead skip it, and
a run defines, merges and counts exactly what it would without the marks. A
power relator u^k is thus scanned from about one coset in k, or one in 2k
when it also reads as itself backwards, as (r0 r1)^k does. The lookahead
starts at the HLT pointer, since every live coset below it has had each
relator closed.

``closed_table`` also re-verifies every table post hoc, before it hands it
out frozen (every relator traces to a closed cycle from every live coset,
and every subgroup generator fixes coset 0). ``validate`` checks a relator
u^k through the map of its root u, raised to the k-th power by repeated
squaring.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvalidGeneratorError,
    LimitExceededError,
    TableNotClosedError,
)
from .words import Presentation, Word, word_to_text

DEFAULT_MAX_COSETS = 1 << 22

# Compact when dead rows exceed this multiple of live rows.
COMPACTION_DEAD_LIVE_RATIO = 3

# First HLT lookahead pass once this many cosets have been created; doubles after.
FIRST_LOOKAHEAD = 1 << 15

# Felsch falls back to a lookahead when the deduction stack grows past this.
MAX_DEDUCTION_STACK = 1 << 14

# Felsch stops with a LimitExceededError after processing this many deductions.
MAX_DEDUCTIONS = 1 << 26

STRATEGIES = ("hlt", "felsch")

# A relator as the engine scans it: its column sequence, then the column
# arrays read by the forward scan and by the backward scan.
_Relator = tuple[tuple[int, ...], tuple[array, ...], tuple[array, ...]]


@dataclass(frozen=True)
class EnumerationLimits:
    """Resource bounds for one enumeration run.

    ``max_cosets`` bounds the cumulative number of cosets ever defined
    (live plus dead).
    """

    max_cosets: int = DEFAULT_MAX_COSETS

    def __post_init__(self):
        if self.max_cosets < 1:
            raise ValueError("max_cosets must be positive")


@dataclass
class EnumerationStats:
    strategy: str = "hlt"
    cosets_created: int = 0
    live_count: int = 0
    compactions: int = 0
    lookaheads: int = 0
    deductions: int = 0


class _ColumnMap:
    """Generator/sign to table-column layout, honoring involution sharing."""

    __slots__ = ("ncols", "fwd", "bwd", "inv")

    def __init__(self, presentation: Presentation):
        involutory = presentation.involutory_generators()
        fwd: list[int] = []
        bwd: list[int] = []
        inv: list[int] = []
        for g in range(presentation.generator_count):
            c = len(inv)
            if g in involutory:
                fwd.append(c)
                bwd.append(c)
                inv.append(c)
            else:
                fwd.append(c)
                bwd.append(c + 1)
                inv.append(c + 1)
                inv.append(c)
        self.ncols = len(inv)
        self.fwd = fwd
        self.bwd = bwd
        self.inv = inv

    def seq(self, w: Word) -> tuple[int, ...]:
        fwd = self.fwd
        bwd = self.bwd
        return tuple(fwd[g] if s > 0 else bwd[g] for g, s in w)


@dataclass(frozen=True)
class CosetTable:
    """A closed coset table plus enough context to interpret it.

    Built only by ``closed_table``, which validates it; frozen, so no field
    changes after that.
    """

    presentation: Presentation
    subgroup_generators: tuple[Word, ...]
    matrix: np.ndarray
    columns: _ColumnMap
    stats: EnumerationStats

    @property
    def table(self) -> list[list[int]]:
        """The matrix as one Python list per coset, ``matrix.tolist()``.

        Kept for the benchmark's ``perfbench/workloads.py``, which stays
        unchanged while the library changes: it compares
        ``rg.table.table != felsch.table``, and ``!=`` between two arrays
        gives an array whose truth value raises.
        """
        return self.matrix.tolist()

    @property
    def live_count(self) -> int:
        return self.matrix.shape[0]

    def trace(self, coset: int, w: Word) -> int:
        """Image of ``coset`` under a whole word (letters applied in order).

        Reads the matrix unchecked: on a validated table every entry is a
        coset, and ``validate`` itself traces only after its range check.
        """
        t = self.matrix
        for c in self.columns.seq(w):
            coset = t[coset, c]
        return int(coset)

    def to_permutations(self) -> np.ndarray:
        """The generators' permutations of the cosets: one read-only,
        C-contiguous image array per row, of shape (generators, cosets).

        ``validate()`` has proved each row a bijection through its back
        links, so no second check is made. A table over the whole group
        yields identity permutations on a single point.
        """
        perms = np.ascontiguousarray(self.matrix.T[self.columns.fwd])
        perms.setflags(write=False)
        return perms

    def validate(self) -> None:
        """Exhaustive post-hoc closure check, independent of the run's bookkeeping.

        Confirms every entry is defined and back-linked, every relator traces
        to a closed cycle from every live coset, and every subgroup generator
        word fixes coset 0. A relator u^k, with u its root, is traced as the
        k-th power of u's map of the cosets, by repeated squaring: |u| + about
        2 log k gathers instead of k|u|, with the same result at every coset,
        so a failure names the same first open coset as a letter-by-letter
        trace.
        """
        t = self.matrix
        n = len(t)
        ncols = self.columns.ncols
        if t.shape != (n, ncols):
            raise TableNotClosedError(f"table has shape {t.shape}, expected ({n}, {ncols})")
        ids = np.arange(n)
        out_of_range = (t < 0) | (t >= n)
        safe = np.where(out_of_range, 0, t)
        bad = out_of_range | (safe[safe, self.columns.inv] != ids[:, None])
        if bad.any():
            i, c = divmod(int(np.argmax(bad)), ncols)
            if out_of_range[i, c]:
                raise TableNotClosedError(
                    f"entry ({i}, col {c}) = {t[i, c]} undefined or out of range")
            raise TableNotClosedError(f"entry ({i}, col {c}) lacks a consistent back link")
        for r in self.presentation.relators:
            seq = self.columns.seq(r)
            cur = ids
            if seq:
                root = _root_length(seq)
                step = ids
                for c in seq[:root]:
                    step = t[step, c]
                k = len(seq) // root
                while k:
                    if k & 1:
                        cur = step[cur]
                    k >>= 1
                    if k:
                        step = step[step]
            open_at = np.flatnonzero(cur != ids)
            if open_at.size:
                raise TableNotClosedError(
                    f"relator {word_to_text(r)!r} does not close at coset {open_at[0]}")
        for w in self.subgroup_generators:
            if self.trace(0, w) != 0:
                raise TableNotClosedError(
                    f"subgroup generator {word_to_text(w)!r} moves coset 0")


def _root_length(seq: Sequence[int]) -> int:
    """Length of the shortest u with ``seq`` = u^k: the first return of ``seq`` in ``seq + seq``."""
    text = "".join(map(chr, seq))
    return (text + text).find(text, 1)


def _closed_offsets(seq: Sequence[int], inv: Sequence[int]) -> tuple[int, ...]:
    """The offsets m of a closed cycle of ``seq`` from which ``seq`` reads as itself.

    Reading the cycle forwards from offset m gives ``seq`` rotated by m, so
    every multiple of the root length qualifies. Reading it backwards gives
    a rotation of the inverse word; ``seq`` is its rotation by q exactly at
    the matches q of ``seq`` in the doubled inverse word, which then recur
    every root length, and the backward reading from m = -q is ``seq``.
    """
    n = len(seq)
    root = _root_length(seq)
    back = "".join(chr(inv[c]) for c in reversed(seq))
    offsets = set(range(0, n, root))
    first = (back + back).find("".join(map(chr, seq)))
    if first >= 0:
        offsets.update((n - q) % n for q in range(first, n, root))
    return tuple(sorted(offsets))


class _Engine:
    """Shared state and primitive moves for both enumeration strategies.

    ``t[c][k]`` is the image of coset ``k`` under column ``c`` (-1 while
    undefined) and ``p`` is the union-find parent of each coset id. All of
    them are int32 arrays of one common capacity, of which ids below ``n``
    are in use; the arrays are only ever resized or rewritten in place, so
    the per-relator tuples of columns built in ``__init__`` stay valid.

    An HLT engine also keeps ``marks``, one unsigned word per coset slot
    with one bit per marked relator (one byte for up to eight). A set bit
    at a live coset means that its relator closes there. That stays true
    as entries are defined or deduced, since both only fill undefined
    slots; through a coincidence, since the quotient keeps every defined entry,
    mapped to the surviving cosets; and through compaction, which moves the
    marks with their rows and clears the freed slots. A Felsch engine
    scans each cycle once per deduction and keeps no marks.
    """

    def __init__(self, presentation: Presentation, subgroup_generators: Sequence[Word],
                 limits: EnumerationLimits, strategy: str):
        self.presentation = presentation
        self.limits = limits
        self.cols = _ColumnMap(presentation)
        inv = self.cols.inv
        self.t = [array("i", [-1]) for _ in range(self.cols.ncols)]
        self.p = array("i", [0])
        self.n = 1
        # Each relator is scanned with the tuple of its column arrays
        # (forward) and of their inverse columns (backward). A square r r of
        # an involution on its shared column c holds exactly when c is
        # defined, so HLT defines c instead of scanning it, and the
        # lookahead and deduction scans, which could only find it closed or
        # open by two letters, skip it.
        #
        # Every other relator is a step (-1, rel, bit, walk). A relator that
        # reads as itself from more than one offset of its cycles gets its
        # own bit of ``marks`` (the first 64 such relators do), and ``walk``
        # holds its forward columns cut at those offsets; any other relator
        # has bit 0 and is always scanned.
        self.steps: list[tuple[int, _Relator, int, tuple[tuple[array, ...], ...]]] = []
        symmetric = 0
        for r in presentation.relators:
            if len(r) == 0:
                continue
            rel = self._relator(self.cols.seq(r))
            seq = rel[0]
            if len(seq) == 2 and seq[0] == seq[1] == inv[seq[0]]:
                self.steps.append((seq[0], rel, 0, ()))
                continue
            offsets = _closed_offsets(seq, inv)
            bit = 0
            if len(offsets) > 1 and symmetric < 64:
                bit = 1 << symmetric
                symmetric += 1
            fwd = rel[1]
            walk = tuple(fwd[a:b] for a, b in zip(offsets, offsets[1:]))
            self.steps.append((-1, rel, bit, walk))
        self.subs = [self._relator(self.cols.seq(w)) for w in subgroup_generators if len(w) > 0]
        self.created = 1
        self.dead = 0
        self.dedstack: list[tuple[int, int]] = []
        self.felsch = strategy == "felsch"
        self.marks: array | None = None
        if not self.felsch:
            code = next(code for code in "BHIQ" if 8 * array(code).itemsize >= symmetric)
            self.marks = array(code, [0])
        self.stats = EnumerationStats(strategy=strategy)

    def _relator(self, seq: tuple[int, ...]) -> _Relator:
        t = self.t
        inv = self.cols.inv
        return seq, tuple(t[c] for c in seq), tuple(t[inv[c]] for c in seq)

    # -- union-find over coset ids (min id is the representative) ----------

    def _rep(self, k: int) -> int:
        p = self.p
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    # -- primitive moves ----------------------------------------------------

    def _grow(self) -> None:
        """Double the capacity: new slots are undefined and their own parents."""
        cap = len(self.p)
        undefined = array("i", [-1]) * cap
        for col in self.t:
            col.extend(undefined)
        self.p.frombytes(np.arange(cap, 2 * cap, dtype=np.intc).tobytes())
        if self.marks is not None:
            self.marks.frombytes(bytes(cap * self.marks.itemsize))

    def _limit_error(self, message: str, **counts) -> LimitExceededError:
        """``message``, with how far the run got: cosets created and live, table bytes."""
        live = self._live()
        table_bytes = sum(col.itemsize * len(col) for col in self.t)
        return LimitExceededError(
            f"{message} ({self.created} cosets created, {live} live, "
            f"{table_bytes} table bytes; the table is not closed)",
            cosets_created=self.created, live_cosets=live,
            table_bytes=table_bytes, **counts)

    def _define(self, alpha: int, c: int) -> int:
        if self.created >= self.limits.max_cosets:
            raise self._limit_error(f"coset limit {self.limits.max_cosets} exceeded")
        new = self.n
        if new == len(self.p):
            self._grow()
        self.n = new + 1
        self.created += 1
        self.t[c][alpha] = new
        self.t[self.cols.inv[c]][new] = alpha
        if self.felsch:
            self.dedstack.append((alpha, c))
        return new

    def _merge(self, k: int, l: int, queue: deque) -> None:
        phi = self._rep(k)
        psi = self._rep(l)
        if phi != psi:
            mu, nu = (phi, psi) if phi < psi else (psi, phi)
            self.p[nu] = mu
            self.dead += 1
            queue.append(nu)

    def _coincidence(self, a: int, b: int) -> None:
        t = self.t
        inv = self.cols.inv
        felsch = self.felsch
        queue: deque = deque()
        self._merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            for c, col in enumerate(t):
                delta = col[gamma]
                if delta < 0:
                    continue
                ci = inv[c]
                t[ci][delta] = -1
                if felsch:
                    self.dedstack.append((delta, ci))
                mu = self._rep(gamma)
                nu = self._rep(delta)
                x = col[mu]
                if x >= 0:
                    self._merge(nu, x, queue)
                else:
                    x = t[ci][nu]
                    if x >= 0:
                        self._merge(mu, x, queue)
                    else:
                        col[mu] = nu
                        t[ci][nu] = mu
                        if felsch:
                            self.dedstack.append((mu, c))

    def _scan(self, alpha: int, rel: _Relator, fill: bool) -> bool:
        """Scan one relator (or subgroup generator) from ``alpha``.

        With ``fill`` the first undefined slot is defined and the forward
        scan continues from the new coset, so the scan always completes
        (HLT); without it the scan stops at a gap wider than one (lookahead
        / felsch deduction scans).
        Returns whether it processed a coincidence, the only way a scan can
        kill ``alpha``.
        """
        seq, fwd, bwd = rel
        f = alpha
        i = 0
        for col in fwd:
            nxt = col[f]
            if nxt < 0:
                break
            f = nxt
            i += 1
        else:
            if f == alpha:
                return False
            self._coincidence(f, alpha)
            return True
        b = alpha
        j = len(seq) - 1
        while True:
            while j >= i:
                nxt = bwd[j][b]
                if nxt < 0:
                    break
                b = nxt
                j -= 1
            if j < i:
                # both scans met with a disagreement: the two cosets coincide
                self._coincidence(f, b)
                return True
            if j == i:
                # the gap is a single letter: close it (a deduction)
                fwd[i][f] = b
                bwd[i][b] = f
                if self.felsch:
                    self.dedstack.append((f, seq[i]))
                return False
            if not fill:
                return False
            self._define(f, seq[i])
            while i <= j:
                nxt = fwd[i][f]
                if nxt < 0:
                    break
                f = nxt
                i += 1
            if i > j:
                if f == b:
                    return False
                self._coincidence(f, b)
                return True

    # -- housekeeping ---------------------------------------------------------

    def _live(self) -> int:
        return self.n - self.dead

    def _compact(self, boundary: int) -> int:
        """Drop dead rows, renumber live ones in order; return the new boundary.

        ``boundary`` is the index of the next unprocessed coset; its new value
        (the count of live ids below it) is returned so the caller's sweep can
        continue where it left off.
        """
        n = self.n
        p = np.frombuffer(self.p, dtype=np.intc)
        ids = np.arange(n, dtype=np.intc)
        root = p[:n].copy()
        while True:  # parents only point down, so pointer jumping reaches the roots
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        live = root == ids
        live_count = int(np.count_nonzero(live))
        # new id of every old id, through its root; the trailing -1 maps -1 to -1
        new_id = np.append((np.cumsum(live, dtype=np.intc) - 1)[root], np.intc(-1))
        for col in self.t:
            v = np.frombuffer(col, dtype=np.intc)
            v[:live_count] = new_id[v[:n][live]]
            v[live_count:n] = -1
        if self.marks is not None:
            m = np.frombuffer(self.marks, dtype=self.marks.typecode)
            m[:live_count] = m[:n][live]
            m[live_count:n] = 0
        p[:n] = ids
        self.n = live_count
        self.dead = 0
        self.stats.compactions += 1
        return int(np.count_nonzero(live[:boundary]))

    def _maybe_compact(self, boundary: int) -> int:
        if self.dead > COMPACTION_DEAD_LIVE_RATIO * self._live():
            return self._compact(boundary)
        return boundary

    def _lookahead(self, start: int) -> None:
        """Scan all relators at the live cosets from ``start`` on, defining nothing.

        HLT passes its pointer: each live coset below it has had every
        relator closed by a fill scan, and a closed cycle stays closed, so a
        scan there could change nothing. It also skips the relators marked
        closed at a coset. Felsch keeps no such record and passes 0.
        """
        self.stats.lookaheads += 1
        p = self.p
        marks = self.marks
        steps = self.steps
        scan = self._scan
        for alpha in range(start, self.n):
            if p[alpha] == alpha:
                m = marks[alpha] if marks is not None else 0
                for c, rel, bit, _ in steps:
                    if c < 0 and not m & bit and scan(alpha, rel, False) and p[alpha] != alpha:
                        break

    # -- strategies -----------------------------------------------------------

    def run_hlt(self) -> None:
        for rel in self.subs:
            self._scan(0, rel, fill=True)
        p = self.p
        t = self.t
        marks = self.marks
        steps = self.steps
        scan = self._scan
        define = self._define
        alpha = 0
        lookahead_at = FIRST_LOOKAHEAD
        while alpha < self.n:
            if p[alpha] == alpha:
                m = marks[alpha]
                for c, rel, bit, walk in steps:
                    if c >= 0:
                        if t[c][alpha] < 0:
                            define(alpha, c)
                        continue
                    if m & bit:
                        continue
                    if scan(alpha, rel, True) and p[alpha] != alpha:
                        break
                    if bit:
                        # the relator now closes at alpha, also after a
                        # coincidence that alpha survived: walk its cycle
                        # once and mark where it reads as itself
                        f = alpha
                        for cols in walk:
                            for col in cols:
                                f = col[f]
                            marks[f] |= bit
                else:
                    for c, col in enumerate(t):
                        if col[alpha] < 0:
                            define(alpha, c)
            alpha += 1
            if self.created >= lookahead_at:
                self._lookahead(alpha)
                alpha = self._compact(alpha)
                lookahead_at = max(lookahead_at * 2, self.created + FIRST_LOOKAHEAD)
            else:
                alpha = self._maybe_compact(alpha)

    def _felsch_groups(self) -> list[list[_Relator]]:
        """Cyclic conjugates of all relators and inverses, grouped by lead column."""
        inv = self.cols.inv
        groups: list[set[tuple[int, ...]]] = [set() for _ in range(self.cols.ncols)]
        for lead, (seq, _, _), _, _ in self.steps:
            if lead >= 0:
                continue
            variants = {seq, tuple(inv[c] for c in reversed(seq))}
            for base in variants:
                for k in range(len(base)):
                    rot = base[k:] + base[:k]
                    groups[rot[0]].add(rot)
        return [[self._relator(seq) for seq in sorted(g)] for g in groups]

    def _process_deductions(self, groups: list[list[_Relator]]) -> None:
        """Pop deductions (alpha, c) and scan every word of ``groups[c]`` at alpha.

        Lemma: every relator cycle through the edge alpha -c-> beta is read
        from alpha by a word of ``groups[c]``, so beta = alpha^c needs no
        scan of its own. Proof: a cycle that crosses the edge forwards is a
        cyclic conjugate c u of a relator or its inverse, read from alpha.
        One that crosses it backwards is some inv(c) u read from beta; its
        inverse u^-1 c, rotated to c u^-1, is a cyclic conjugate of the
        inverse word, so ``_felsch_groups`` put it in ``groups[c]``. Read
        from alpha it visits the same cosets in reverse order, and since
        every defined entry keeps its back link, its forward walk reads the
        entries of the other word's backward walk and vice versa. Both scans
        therefore stop at the same gap: they close the same one-letter gap
        (writing the same entry and back link) or meet at the same two
        cosets. An entry that either scan defines is pushed as a deduction
        of its own, so cycles through it are scanned when it is popped.
        """
        limit = MAX_DEDUCTIONS
        stack = self.dedstack
        stats = self.stats
        p = self.p
        scan = self._scan
        while stack:
            if len(stack) > MAX_DEDUCTION_STACK:
                # too much pending work: fall back to one full lookahead pass
                stack.clear()
                self._lookahead(0)
                continue
            alpha, c = stack.pop()
            stats.deductions += 1
            if stats.deductions > limit:
                raise self._limit_error(f"deduction limit {limit} exceeded",
                                        deductions=stats.deductions)
            if p[alpha] != alpha:
                continue
            for rel in groups[c]:
                if scan(alpha, rel, False) and p[alpha] != alpha:
                    break

    def run_felsch(self) -> None:
        groups = self._felsch_groups()
        for rel in self.subs:
            self._scan(0, rel, fill=True)
            self._process_deductions(groups)
        p = self.p
        t = self.t
        alpha = 0
        while alpha < self.n:
            while p[alpha] == alpha:
                for c, col in enumerate(t):
                    if col[alpha] < 0:
                        break
                else:
                    break
                self._define(alpha, c)
                self._process_deductions(groups)
            alpha += 1
            alpha = self._maybe_compact(alpha)

    # -- finishing ------------------------------------------------------------

    def finalize(self, subgroup_generators: tuple[Word, ...]) -> CosetTable:
        self._compact(0)
        self.stats.cosets_created = self.created
        rows = np.stack([np.frombuffer(col, dtype=np.intc, count=self.n) for col in self.t],
                        axis=1)
        return closed_table(self.presentation, subgroup_generators, rows, self.stats)


def _standardize(table: np.ndarray) -> np.ndarray:
    """Canonical renumbering of a closed table: first-visit order scanning rows by column.

    ``table`` has a row per coset and a column per generator-and-sign, with
    row 0 the subgroup. The numbering depends only on the action and that
    base row, not on how the rows were found, so both strategies and every
    route to a table give byte-identical tables for the same input. Returns
    the table as a read-only int32 matrix of shape (cosets, columns).
    """
    n = len(table)
    cols = table.T.tolist()
    new_of = [-1] * n
    old_of = [0] * n
    new_of[0] = 0
    nxt = 1
    cur = 0
    while cur < nxt:
        a = old_of[cur]
        for col in cols:
            v = col[a]
            if v >= 0 and new_of[v] < 0:
                new_of[v] = nxt
                old_of[nxt] = v
                nxt += 1
        cur += 1
    if nxt != n:
        raise TableNotClosedError("coset graph is not connected; table corrupt")
    # the trailing -1 maps an undefined entry to -1
    new_id = np.array(new_of + [-1], dtype=np.intc)
    std = new_id[table[old_of]]
    std.setflags(write=False)
    return std


def closed_table(presentation: Presentation, subgroup_generators: tuple[Word, ...],
                 rows: np.ndarray, stats: EnumerationStats) -> CosetTable:
    """The table of the coset action ``rows``, numbered, validated and frozen.

    ``rows`` has a row per coset and a column per generator-and-sign of
    ``presentation``, and its row 0 stands for the subgroup that
    ``subgroup_generators`` generate: an enumeration's compacted table, or a
    regular action found another way (its point 0 the identity). Every
    table is built here, so every one is standardized from that row and
    validated like any other. Sets ``stats.live_count`` to the count of rows.
    """
    stats.live_count = len(rows)
    table = CosetTable(presentation, subgroup_generators, _standardize(rows),
                       _ColumnMap(presentation), stats)
    table.validate()
    return table


def enumerate_cosets(presentation: Presentation,
                     subgroup_generators: Iterable[Word] = (),
                     limits: EnumerationLimits | None = None,
                     strategy: str = "hlt") -> CosetTable:
    """Enumerate the cosets of ``<subgroup_generators>`` in the presented group.

    Returns a closed, compacted, standardized table or raises
    ``LimitExceededError``. Deterministic: the same inputs give the same table,
    whichever run or machine.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    limits = limits or EnumerationLimits()
    subgens = tuple(subgroup_generators)
    for w in subgens:
        if not isinstance(w, Word):
            raise InvalidGeneratorError(f"subgroup generator {w!r} is not a Word")
        if w.max_generator() >= presentation.generator_count:
            raise InvalidGeneratorError(
                f"subgroup generator {word_to_text(w)!r} uses r{w.max_generator()} "
                f"but the presentation has {presentation.generator_count} generators")
    engine = _Engine(presentation, subgens, limits, strategy)
    if strategy == "hlt":
        engine.run_hlt()
    else:
        engine.run_felsch()
    return engine.finalize(subgens)
