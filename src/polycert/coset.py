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

Dead cosets produced by coincidences are compacted away whenever they
outnumber live ones 3 to 1. Every returned table is re-verified post hoc
(every relator traces to a closed cycle from every live coset, and every
subgroup generator fixes coset 0).
"""

from __future__ import annotations

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
    """Shared state and primitive moves for both enumeration strategies."""

    def __init__(self, presentation: Presentation, subgroup_generators: Sequence[Word],
                 limits: EnumerationLimits, strategy: str):
        self.presentation = presentation
        self.limits = limits
        self.strategy = strategy
        self.cols = _ColumnMap(presentation)
        self.rel_seqs = [self.cols.seq(r) for r in presentation.relators if len(r) > 0]
        self.sub_seqs = [self.cols.seq(w) for w in subgroup_generators if len(w) > 0]
        self.table: list[list[int]] = [[-1] * self.cols.ncols]
        self.p: list[int] = [0]
        self.created = 1
        self.dead = 0
        self.deductions_done = 0
        self.dedstack: list[tuple[int, int]] = []
        self.felsch = strategy == "felsch"
        self.stats = EnumerationStats(strategy=strategy)

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

    def _define(self, alpha: int, c: int) -> int:
        if self.created >= self.limits.max_cosets:
            raise LimitExceededError(
                f"coset limit {self.limits.max_cosets} exceeded "
                f"({self.created} cosets created; the table is not closed)",
                cosets_created=self.created)
        new = len(self.table)
        self.table.append([-1] * self.cols.ncols)
        self.p.append(new)
        self.created += 1
        self.table[alpha][c] = new
        self.table[new][self.cols.inv[c]] = alpha
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
        table = self.table
        inv = self.cols.inv
        ncols = self.cols.ncols
        felsch = self.felsch
        queue: deque = deque()
        self._merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            row = table[gamma]
            for c in range(ncols):
                delta = row[c]
                if delta < 0:
                    continue
                ci = inv[c]
                table[delta][ci] = -1
                if felsch:
                    self.dedstack.append((delta, ci))
                mu = self._rep(gamma)
                nu = self._rep(delta)
                t = table[mu][c]
                if t >= 0:
                    self._merge(nu, t, queue)
                else:
                    t2 = table[nu][ci]
                    if t2 >= 0:
                        self._merge(mu, t2, queue)
                    else:
                        table[mu][c] = nu
                        table[nu][ci] = mu
                        if felsch:
                            self.dedstack.append((mu, c))

    def _scan(self, alpha: int, seq: Sequence[int], fill: bool) -> None:
        """Scan one relator (or subgroup generator) from ``alpha``.

        With ``fill`` the first undefined slot is defined and the scan
        restarts, so the scan always completes (HLT); without it the scan
        stops at a gap wider than one (lookahead / felsch deduction scans).
        """
        table = self.table
        inv = self.cols.inv
        f = alpha
        b = alpha
        i = 0
        j = len(seq) - 1
        while True:
            while i <= j:
                nxt = table[f][seq[i]]
                if nxt < 0:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i:
                nxt = table[b][inv[seq[j]]]
                if nxt < 0:
                    break
                b = nxt
                j -= 1
            if j < i:
                # both scans met with a disagreement: the two cosets coincide
                self._coincidence(f, b)
                return
            if j == i:
                # the gap is a single letter: close it (a deduction)
                c = seq[i]
                table[f][c] = b
                table[b][inv[c]] = f
                if self.felsch:
                    self.dedstack.append((f, c))
                return
            if not fill:
                return
            self._define(f, seq[i])

    # -- housekeeping ---------------------------------------------------------

    def _live(self) -> int:
        return len(self.table) - self.dead

    def _compact(self, boundary: int) -> int:
        """Drop dead rows, renumber live ones in order; return the new boundary.

        ``boundary`` is the index of the next unprocessed coset; its new value
        (the count of live ids below it) is returned so the caller's sweep can
        continue where it left off.
        """
        table = self.table
        p = self.p
        n = len(table)
        new_id = [-1] * n
        nxt = 0
        for i in range(n):
            if p[i] == i:
                new_id[i] = nxt
                nxt += 1
        new_boundary = sum(1 for i in range(min(boundary, n)) if p[i] == i)
        rep = self._rep
        new_table = []
        for i in range(n):
            if p[i] != i:
                continue
            row = table[i]
            new_table.append([
                -1 if v < 0 else new_id[rep(v)] for v in row
            ])
        self.table = new_table
        self.p = list(range(len(new_table)))
        self.dead = 0
        self.stats.compactions += 1
        return new_boundary

    def _maybe_compact(self, boundary: int) -> int:
        if self.dead > COMPACTION_DEAD_LIVE_RATIO * self._live():
            return self._compact(boundary)
        return boundary

    def _lookahead(self) -> None:
        """Scan all relators at all live cosets without defining anything."""
        self.stats.lookaheads += 1
        alpha = 0
        while alpha < len(self.table):
            if self.p[alpha] == alpha:
                for seq in self.rel_seqs:
                    self._scan(alpha, seq, fill=False)
                    if self.p[alpha] != alpha:
                        break
            alpha += 1

    # -- strategies -----------------------------------------------------------

    def run_hlt(self) -> None:
        for seq in self.sub_seqs:
            self._scan(0, seq, fill=True)
        alpha = 0
        lookahead_at = FIRST_LOOKAHEAD
        while alpha < len(self.table):
            if self.p[alpha] == alpha:
                for seq in self.rel_seqs:
                    self._scan(alpha, seq, fill=True)
                    if self.p[alpha] != alpha:
                        break
                else:
                    row = self.table[alpha]
                    for c in range(self.cols.ncols):
                        if row[c] < 0:
                            self._define(alpha, c)
            alpha += 1
            if self.created >= lookahead_at:
                self._lookahead()
                alpha = self._compact(alpha)
                lookahead_at = max(lookahead_at * 2, self.created + FIRST_LOOKAHEAD)
            else:
                alpha = self._maybe_compact(alpha)

    def _felsch_groups(self) -> list[list[tuple[int, ...]]]:
        """Cyclic conjugates of all relators and inverses, grouped by lead column."""
        inv = self.cols.inv
        groups: list[set[tuple[int, ...]]] = [set() for _ in range(self.cols.ncols)]
        for seq in self.rel_seqs:
            variants = {seq, tuple(inv[c] for c in reversed(seq))}
            for base in variants:
                for k in range(len(base)):
                    rot = base[k:] + base[:k]
                    groups[rot[0]].add(rot)
        return [sorted(g) for g in groups]

    def _process_deductions(self, groups: list[list[tuple[int, ...]]]) -> None:
        limit = self.limits.max_deductions
        while self.dedstack:
            if len(self.dedstack) > MAX_DEDUCTION_STACK:
                # too much pending work: fall back to one full lookahead pass
                self.dedstack.clear()
                self._lookahead()
                continue
            alpha, c = self.dedstack.pop()
            self.deductions_done += 1
            self.stats.deductions += 1
            if self.deductions_done > limit:
                raise LimitExceededError(
                    f"deduction limit {limit} exceeded", deductions=self.deductions_done)
            if self.p[alpha] == alpha:
                for seq in groups[c]:
                    self._scan(alpha, seq, fill=False)
                    if self.p[alpha] != alpha:
                        break
                beta = self.table[alpha][c] if self.p[alpha] == alpha else -1
            else:
                beta = -1
            if beta >= 0 and self.p[beta] == beta:
                ci = self.cols.inv[c]
                for seq in groups[ci]:
                    self._scan(beta, seq, fill=False)
                    if self.p[beta] != beta:
                        break

    def run_felsch(self) -> None:
        groups = self._felsch_groups()
        for seq in self.sub_seqs:
            self._scan(0, seq, fill=True)
            self._process_deductions(groups)
        alpha = 0
        while alpha < len(self.table):
            while self.p[alpha] == alpha:
                undefined = -1
                row = self.table[alpha]
                for c in range(self.cols.ncols):
                    if row[c] < 0:
                        undefined = c
                        break
                if undefined < 0:
                    break
                self._define(alpha, undefined)
                self._process_deductions(groups)
            alpha += 1
            alpha = self._maybe_compact(alpha)

    # -- finishing ------------------------------------------------------------

    def finalize(self) -> CosetTable:
        self._compact(0)
        self._standardize()
        self.stats.cosets_created = self.created
        self.stats.live_count = len(self.table)
        return CosetTable(
            presentation=self.presentation,
            subgroup_generators=(),  # caller fills in
            table=self.table,
            columns=self.cols,
            closed=True,
            stats=self.stats,
        )

    def _standardize(self) -> None:
        """Canonical renumbering: first-visit order scanning rows by column.

        Makes the final numbering independent of enumeration history, so both
        strategies produce byte-identical tables for the same input.
        """
        table = self.table
        n = len(table)
        ncols = self.cols.ncols
        new_of = [-1] * n
        old_of = [0] * n
        new_of[0] = 0
        nxt = 1
        cur = 0
        while cur < nxt:
            row = table[old_of[cur]]
            for c in range(ncols):
                v = row[c]
                if v >= 0 and new_of[v] < 0:
                    new_of[v] = nxt
                    old_of[nxt] = v
                    nxt += 1
            cur += 1
        if nxt != n:
            raise TableNotClosedError("coset graph is not connected; table corrupt")
        self.table = [
            [-1 if v < 0 else new_of[v] for v in table[old_of[i]]]
            for i in range(n)
        ]


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
