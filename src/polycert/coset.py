"""Todd-Coxeter coset enumeration over finite presentations.

Two strategies are provided: a relator-oriented scan ("hlt", the default,
with a lookahead pass once the table grows past a soft threshold) and a
definition-oriented one ("felsch", driven by a deduction stack). Both produce
the same standardized table for the same inputs, which the test suite uses as
a cross-check.

Conventions:

* Cosets are right cosets of the given subgroup, numbered from 0; coset 0 is
  the subgroup itself. (Reports aimed at humans may show 1-based ids; the in
  memory table is 0-based.)
* The table stores one column per generator-and-sign, except that a generator
  with an explicit square relator is an involution and shares a single column
  for both signs.
* New cosets always take the smallest unused id and relators are scanned in
  their listed order from the lowest-numbered incomplete coset, so the
  enumeration (and the resulting numbering) is deterministic.

While it runs, the engine keeps the table column-major (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 5.1-5.2): one int32
``array`` per column indexed by coset id, and one more for the union-find
parents, so a coset slot costs 4 bytes per column plus 4. The arrays double
in capacity when full, so they hold at most twice as many slots as cosets
were ever defined. Dead cosets produced by coincidences are compacted away
whenever they outnumber live ones 3 to 1: compaction renumbers the columns
in place, and the final standardization reads them, both with numpy
gathers over views of the arrays. Only the finished table is handed out as
one Python list per coset.

Every returned table is re-verified post hoc (every relator traces to a
closed cycle from every live coset, and every subgroup generator fixes
coset 0).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvalidGeneratorError,
    LimitExceededError,
    TableNotClosedError,
)
from .words import Presentation, Word, word_to_text

DEFAULT_MAX_COSETS = 1 << 22
DEFAULT_MAX_DEDUCTIONS = 1 << 26

# Compact when dead rows exceed this multiple of live rows.
COMPACTION_DEAD_LIVE_RATIO = 3

# First HLT lookahead pass once this many cosets have been created; doubles after.
FIRST_LOOKAHEAD = 1 << 15

# Felsch falls back to a lookahead when the deduction stack grows past this.
MAX_DEDUCTION_STACK = 1 << 14

STRATEGIES = ("hlt", "felsch")

# A relator as the engine scans it: its column sequence, then the column
# arrays read by the forward scan and by the backward scan.
_Relator = tuple[tuple[int, ...], tuple[array, ...], tuple[array, ...]]


@dataclass(frozen=True)
class EnumerationLimits:
    """Resource bounds for one enumeration run.

    ``max_cosets`` bounds the cumulative number of cosets ever defined
    (live plus dead); ``max_deductions`` bounds deduction-stack processing in
    the felsch strategy.
    """

    max_cosets: int = DEFAULT_MAX_COSETS
    max_deductions: int = DEFAULT_MAX_DEDUCTIONS

    def __post_init__(self):
        if self.max_cosets < 1:
            raise ValueError("max_cosets must be positive")
        if self.max_deductions < 1:
            raise ValueError("max_deductions must be positive")


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

    __slots__ = ("ncols", "fwd", "bwd", "inv", "gens")

    def __init__(self, presentation: Presentation):
        involutory = presentation.involutory_generators()
        self.gens = presentation.generator_count
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

    def col(self, gen: int, sign: int) -> int:
        return self.fwd[gen] if sign > 0 else self.bwd[gen]

    def seq(self, w: Word) -> tuple[int, ...]:
        fwd = self.fwd
        bwd = self.bwd
        return tuple(fwd[g] if s > 0 else bwd[g] for g, s in w)


@dataclass
class CosetTable:
    """A closed coset table plus enough context to interpret it."""

    presentation: Presentation
    subgroup_generators: tuple[Word, ...]
    table: list[list[int]]
    columns: _ColumnMap
    closed: bool
    stats: EnumerationStats

    @property
    def live_count(self) -> int:
        return len(self.table)

    def lookup(self, coset: int, gen: int, sign: int = 1) -> int:
        """Image of ``coset`` under one generator letter."""
        target = self.table[coset][self.columns.col(gen, sign)]
        if target < 0:
            raise TableNotClosedError(
                f"entry for coset {coset}, generator r{gen}"
                f"{'' if sign > 0 else '^-1'} is undefined")
        return target

    def trace(self, coset: int, w: Word) -> int:
        """Image of ``coset`` under a whole word (letters applied in order)."""
        cur = coset
        for g, s in w:
            cur = self.lookup(cur, g, s)
        return cur

    def to_permutations(self):
        """One permutation of the live cosets per generator.

        Involutory generators yield self-inverse permutations; a table over
        the whole group yields identity permutations on a single point.
        """
        from .perms import Permutation

        if not self.closed:
            raise TableNotClosedError("cannot read permutations off a partial table")
        perms = []
        for g in range(self.presentation.generator_count):
            c = self.columns.fwd[g]
            perms.append(Permutation([row[c] for row in self.table]))
        return perms

    def validate(self) -> None:
        """Exhaustive post-hoc closure check, independent of the run's bookkeeping.

        Confirms every entry is defined and back-linked, every relator traces
        to a closed cycle from every live coset, and every subgroup generator
        word fixes coset 0.
        """
        table = self.table
        ncols = self.columns.ncols
        n = len(table)
        for i, row in enumerate(table):
            if len(row) != ncols:
                raise TableNotClosedError(f"row {i} has wrong width")
        t = np.asarray(table, dtype=np.int64).reshape(n, ncols)
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
            cur = ids
            for c in self.columns.seq(r):
                cur = t[cur, c]
            open_at = np.flatnonzero(cur != ids)
            if open_at.size:
                raise TableNotClosedError(
                    f"relator {word_to_text(r)!r} does not close at coset {open_at[0]}")
        for w in self.subgroup_generators:
            if self.trace(0, w) != 0:
                raise TableNotClosedError(
                    f"subgroup generator {word_to_text(w)!r} moves coset 0")

    def dump_text(self) -> str:
        """Debug dump, one row per live coset (1-based for readability)."""
        header = []
        for g in range(self.presentation.generator_count):
            header.append(f"r{g}")
            if self.columns.bwd[g] != self.columns.fwd[g]:
                header.append(f"r{g}^-1")
        lines = ["coset  " + "  ".join(header)]
        for i, row in enumerate(self.table):
            lines.append(f"{i + 1:>5}  " + "  ".join(str(v + 1) for v in row))
        return "\n".join(lines) + "\n"


class _Engine:
    """Shared state and primitive moves for both enumeration strategies.

    ``t[c][k]`` is the image of coset ``k`` under column ``c`` (-1 while
    undefined) and ``p`` is the union-find parent of each coset id. All of
    them are int32 arrays of one common capacity, of which ids below ``n``
    are in use; the arrays are only ever resized or rewritten in place, so
    the per-relator tuples of columns built in ``__init__`` stay valid.
    """

    def __init__(self, presentation: Presentation, subgroup_generators: Sequence[Word],
                 limits: EnumerationLimits, strategy: str):
        self.presentation = presentation
        self.limits = limits
        self.strategy = strategy
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
        self.hlt_steps: list[tuple[int, _Relator]] = []
        self.rels: list[_Relator] = []
        for r in presentation.relators:
            if len(r) == 0:
                continue
            rel = self._relator(self.cols.seq(r))
            seq = rel[0]
            if len(seq) == 2 and seq[0] == seq[1] == inv[seq[0]]:
                self.hlt_steps.append((seq[0], rel))
            else:
                self.hlt_steps.append((-1, rel))
                self.rels.append(rel)
        self.subs = [self._relator(self.cols.seq(w)) for w in subgroup_generators if len(w) > 0]
        self.created = 1
        self.dead = 0
        self.dedstack: list[tuple[int, int]] = []
        self.felsch = strategy == "felsch"
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

    def _define(self, alpha: int, c: int) -> int:
        if self.created >= self.limits.max_cosets:
            live = self._live()
            table_bytes = sum(col.itemsize * len(col) for col in self.t)
            raise LimitExceededError(
                f"coset limit {self.limits.max_cosets} exceeded "
                f"({self.created} cosets created, {live} live, "
                f"{table_bytes} table bytes; the table is not closed)",
                cosets_created=self.created, live_cosets=live,
                table_bytes=table_bytes)
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

        With ``fill`` the first undefined slot is defined and the scan
        restarts, so the scan always completes (HLT); without it the scan
        stops at a gap wider than one (lookahead / felsch deduction scans).
        Returns whether it processed a coincidence, the only way a scan can
        kill ``alpha``.
        """
        seq, fwd, bwd = rel
        if fill:
            # a first forward pass without bookkeeping: most HLT scans close
            # in it, and one that stops is walked again below
            f = alpha
            for col in fwd:
                f = col[f]
                if f < 0:
                    break
            else:
                if f == alpha:
                    return False
                self._coincidence(f, alpha)
                return True
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
        p[:n] = ids
        self.n = live_count
        self.dead = 0
        self.stats.compactions += 1
        return int(np.count_nonzero(live[:boundary]))

    def _maybe_compact(self, boundary: int) -> int:
        if self.dead > COMPACTION_DEAD_LIVE_RATIO * self._live():
            return self._compact(boundary)
        return boundary

    def _lookahead(self) -> None:
        """Scan all relators at all live cosets without defining anything."""
        self.stats.lookaheads += 1
        p = self.p
        scan = self._scan
        for alpha in range(self.n):
            if p[alpha] == alpha:
                for rel in self.rels:
                    if scan(alpha, rel, False) and p[alpha] != alpha:
                        break

    # -- strategies -----------------------------------------------------------

    def run_hlt(self) -> None:
        for rel in self.subs:
            self._scan(0, rel, fill=True)
        p = self.p
        t = self.t
        steps = self.hlt_steps
        scan = self._scan
        define = self._define
        alpha = 0
        lookahead_at = FIRST_LOOKAHEAD
        while alpha < self.n:
            if p[alpha] == alpha:
                for c, rel in steps:
                    if c >= 0:
                        if t[c][alpha] < 0:
                            define(alpha, c)
                        continue
                    if scan(alpha, rel, True) and p[alpha] != alpha:
                        break
                else:
                    for c, col in enumerate(t):
                        if col[alpha] < 0:
                            define(alpha, c)
            alpha += 1
            if self.created >= lookahead_at:
                self._lookahead()
                alpha = self._compact(alpha)
                lookahead_at = max(lookahead_at * 2, self.created + FIRST_LOOKAHEAD)
            else:
                alpha = self._maybe_compact(alpha)

    def _felsch_groups(self) -> list[list[_Relator]]:
        """Cyclic conjugates of all relators and inverses, grouped by lead column."""
        inv = self.cols.inv
        groups: list[set[tuple[int, ...]]] = [set() for _ in range(self.cols.ncols)]
        for seq, _, _ in self.rels:
            variants = {seq, tuple(inv[c] for c in reversed(seq))}
            for base in variants:
                for k in range(len(base)):
                    rot = base[k:] + base[:k]
                    groups[rot[0]].add(rot)
        return [[self._relator(seq) for seq in sorted(g)] for g in groups]

    def _process_deductions(self, groups: list[list[_Relator]]) -> None:
        limit = self.limits.max_deductions
        stack = self.dedstack
        stats = self.stats
        p = self.p
        t = self.t
        inv = self.cols.inv
        scan = self._scan
        while stack:
            if len(stack) > MAX_DEDUCTION_STACK:
                # too much pending work: fall back to one full lookahead pass
                stack.clear()
                self._lookahead()
                continue
            alpha, c = stack.pop()
            stats.deductions += 1
            if stats.deductions > limit:
                raise LimitExceededError(
                    f"deduction limit {limit} exceeded", deductions=stats.deductions)
            if p[alpha] != alpha:
                continue
            for rel in groups[c]:
                if scan(alpha, rel, False) and p[alpha] != alpha:
                    break
            else:
                beta = t[c][alpha]
                if beta >= 0 and p[beta] == beta:
                    for rel in groups[inv[c]]:
                        if scan(beta, rel, False) and p[beta] != beta:
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

    def finalize(self) -> CosetTable:
        self._compact(0)
        self.stats.cosets_created = self.created
        self.stats.live_count = self.n
        return CosetTable(
            presentation=self.presentation,
            subgroup_generators=(),  # caller fills in
            table=self._standardize(),
            columns=self.cols,
            closed=True,
            stats=self.stats,
        )

    def _standardize(self) -> list[list[int]]:
        """Canonical renumbering: first-visit order scanning rows by column.

        Makes the final numbering independent of enumeration history, so both
        strategies produce byte-identical tables for the same input. Returns
        the rows as lists whose entries are the shared int objects of one
        ``range(n)``, so a large table holds one int object per coset, not
        one per cell.
        """
        n = self.n
        t = self.t
        new_of = [-1] * n
        old_of = [0] * n
        new_of[0] = 0
        nxt = 1
        cur = 0
        while cur < nxt:
            a = old_of[cur]
            for col in t:
                v = col[a]
                if v >= 0 and new_of[v] < 0:
                    new_of[v] = nxt
                    old_of[nxt] = v
                    nxt += 1
            cur += 1
        if nxt != n:
            raise TableNotClosedError("coset graph is not connected; table corrupt")
        new_id = np.array(new_of + [-1], dtype=np.intc)
        old = np.array(old_of, dtype=np.intc)
        std = np.empty((n, len(t)), dtype=np.intc)
        for c, col in enumerate(t):
            std[:, c] = new_id[np.frombuffer(col, dtype=np.intc, count=n)[old]]
        ids = list(range(n))
        ids.append(-1)
        cells = list(map(ids.__getitem__, std.ravel().tolist()))
        width = len(t)
        return [cells[k * width:(k + 1) * width] for k in range(n)]


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
    result = engine.finalize()
    result.subgroup_generators = subgens
    result.validate()
    return result


def group_order(presentation: Presentation,
                limits: EnumerationLimits | None = None,
                strategy: str = "hlt") -> int:
    """Order of the presented group (index of the trivial subgroup)."""
    return enumerate_cosets(presentation, (), limits, strategy).live_count


def subgroup_index(presentation: Presentation,
                   generator_subset: Iterable[int],
                   limits: EnumerationLimits | None = None,
                   strategy: str = "hlt") -> int:
    """Index of the standard (parabolic) subgroup spanned by a generator subset."""
    subset = sorted(set(generator_subset))
    for i in subset:
        if not 0 <= i < presentation.generator_count:
            raise InvalidGeneratorError(
                f"generator index {i} out of range for {presentation.generator_count} generators")
    gens = [Word([(i, 1)]) for i in subset]
    return enumerate_cosets(presentation, gens, limits, strategy).live_count
