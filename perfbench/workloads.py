"""Inputs, operations and output checks of the three workloads.

Each workload is serial and closed-loop: one caller, and each operation
starts only after the previous one has finished.

* ``atlas``: G tuples from the default ``sweep`` grid, each certified cold
  along the ``sweep`` path; the run ends with ``format_atlas``/``parse_atlas``.
* ``audit``: G tuples of order 4096 plus tight {8,8,8}, each put
  through the acceptance battery (both intersection modes, Felsch against
  HLT, Schreier-Sims against the table, face lattice checks, certificate
  JSON round trip).
* ``limit``: ``polycert verify`` on the infinite Coxeter group {4,4,4} with a
  100k coset limit, alternating the HLT and Felsch strategies.

The seed only picks which inputs are used and in which order; the library
sees nothing but the generated presentations. Import this module only after
``src`` is on ``sys.path``: it imports the library.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import random
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from math import prod
from time import perf_counter

from polycert import certificates as certs
from polycert import cli, families, verify
from polycert.coset import EnumerationLimits, enumerate_cosets
from polycert.errors import LimitExceededError
from polycert.perms import PermutationGroup
from polycert.polytope import (
    build_lattice,
    check_diamond,
    check_flag_connectivity,
    check_flag_matchings,
    check_section_connectivity,
    export_hasse,
    flag_graph,
)
from polycert.realize import RealizedGroup, realize
from polycert.verify import SggiSpec, certify

# Rows of the atlas compared against the stored reference of the same seed.
ATLAS_REFERENCE_ROWS = 48

LIMIT_MAX_COSETS = 100_000
LIMIT_TYPE = (4, 4, 4)
LIMIT_EXIT_CODE = 5
LIMIT_STDERR_PREFIX = "polycert: limit-exceeded:"

TIGHT_AUDIT_TYPE = (8, 8, 8)


# -- inputs -------------------------------------------------------------------

def g_tuples(d_range, n_range, k_min: int = 2) -> list[tuple[int, int, tuple[int, ...]]]:
    """Every (d, n, k) with k_i >= k_min and sum(k) <= n - 1, as ``sweep`` builds them."""
    out = []
    for d in d_range:
        for n in n_range:
            for ks in itertools.product(range(k_min, n), repeat=d - 1):
                if sum(ks) <= n - 1:
                    out.append((d, n, ks))
    return sorted(out, key=lambda t: (t[1], t[0], t[2]))


def atlas_pool():
    """The default ``sweep`` grid: d 3-5, n 10-12 (251 tuples)."""
    return g_tuples(range(3, 6), range(10, 13))


def audit_pool():
    """G tuples of order 4096, ranks 3-5 (127 tuples)."""
    return g_tuples(range(3, 6), range(12, 13))


def _van_der_corput(i: int) -> float:
    x, f = 0.0, 0.5
    while i:
        if i & 1:
            x += f
        i >>= 1
        f /= 2
    return x


def size_key(d: int, n: int, ks, p) -> tuple:
    """A static guess at the cost of one op, from the input alone: the group
    order first, then the total relator length.

    It reads nothing the library computes, so a library change cannot change
    which inputs a run visits. Sorting the pool by it spreads the op costs of
    every run prefix the same way, seed after seed. Over 200 simulated seeds
    of ``atlas``, with each op's cost fixed at its measured value, the middle
    half of the runs' median op costs spans 2% of their median, against 4%
    with the pool sorted by (n, d, k); the tail, and ``audit``, do about as
    well with either order.
    """
    return (n, sum(len(r) for r in p.relators), d, tuple(ks))


def by_size(pool):
    """Pool entries (d, n, ks, presentation) sorted by size_key."""
    return sorted(pool, key=lambda e: size_key(*e))


class VisitOrder:
    """The seeded order in which a run visits a pool sorted by size_key.

    Operation i takes the pool entry at the van der Corput point i, rotated
    by a seeded offset. Every prefix of the sequence is then spread evenly
    over the sorted pool, so runs of different seeds and lengths see the same
    mix of cheap and costly groups, and so nearly the same latency quantiles,
    while the seed still changes which groups are drawn. Entries repeat only
    after at least 64 operations, which keeps every certification cold behind
    ``realize``'s 32-entry memo.
    """

    def __init__(self, size: int, seed: int):
        self.size = size
        self.offset = random.Random(seed).random()

    def __getitem__(self, i: int) -> int:
        return int(((_van_der_corput(i) + self.offset) % 1.0) * self.size)


def build_inputs(workload: str, seed: int) -> dict:
    """Presentations of one workload, built with ``families.*``."""
    if workload == "atlas":
        pool = by_size([(d, n, ks, families.family_g(d, n, ks)) for d, n, ks in atlas_pool()])
        return {"pool": pool, "order": VisitOrder(len(pool), seed)}
    if workload == "audit":
        pool = by_size([(d, n, ks, families.family_g(d, n, ks)) for d, n, ks in audit_pool()])
        tight = families.tight_quotient_presentation(TIGHT_AUDIT_TYPE)
        return {"pool": pool, "order": VisitOrder(len(pool), seed), "tight": tight}
    if workload == "limit":
        first = random.Random(seed).choice(("hlt", "felsch"))
        second = "felsch" if first == "hlt" else "hlt"
        return {"strategies": (first, second),
                "presentation": families.coxeter_string_presentation(LIMIT_TYPE)}
    raise ValueError(f"unknown workload {workload!r}")


def item(workload: str, inputs: dict, i: int):
    """Input of operation i."""
    if workload == "limit":
        return inputs["strategies"][i % 2]
    if workload == "audit":
        if i == 0:
            return ("tight", TIGHT_AUDIT_TYPE, inputs["tight"])
        i -= 1
    d, n, ks, p = inputs["pool"][inputs["order"][i]]
    return ("G", (d, n, ks), p)


def ops_per_unit(workload: str) -> int:
    """Runs end on whole units: limit runs on HLT/Felsch pairs, so both weigh equally."""
    return 2 if workload == "limit" else 1


# -- output checks --------------------------------------------------------------
# Each returns a list of problems; an empty list means the output is correct.

def check_atlas_row(row, d: int, n: int, ks) -> list[str]:
    problems = []
    if not row.passed:
        problems.append("row did not pass")
    if row.order != 1 << n:
        problems.append(f"order {row.order} != 2^{n}")
    if tuple(row.schlafli_type) != tuple(1 << e for e in ks):
        problems.append(f"type {row.schlafli_type} != 2^{tuple(ks)}")
    if row.rank != d:
        problems.append(f"rank {row.rank} != {d}")
    return problems


def blank_seconds(rows) -> list:
    return [dataclasses.replace(r, seconds=None) for r in rows]


def check_atlas_text(text: str) -> list[str]:
    rows, skipped = certs.parse_atlas(text)
    if certs.format_atlas(rows, skipped) != text:
        return ["atlas text changed in a parse round trip"]
    if skipped:
        return [f"{len(skipped)} skipped atlas entries"]
    return []


def check_same_rows(first, again) -> list[str]:
    """A tuple certified twice in one run must give the same row, seconds aside."""
    if dataclasses.replace(first, seconds=None) != dataclasses.replace(again, seconds=None):
        return [f"row {first.params} differs between two certifications"]
    return []


def check_reference(text: str, reference: str | None) -> list[str]:
    """The blanked atlas of one seed must be identical across runs."""
    if reference is not None and reference != text:
        return ["atlas differs from the earlier run of this seed (seconds blanked)"]
    return []


def check_audit(out: dict) -> list[str]:
    problems = []
    rec, full = out["recursive"], out["full"]
    if out["order"] != out["expected_order"]:
        problems.append(f"order {out['order']} != {out['expected_order']}")
    if tuple(rec.schlafli_type) != tuple(out["expected_type"]):
        problems.append(f"type {rec.schlafli_type} != {out['expected_type']}")
    if out["tight"] and not rec.tight:
        problems.append("tight group not flagged tight")
    if not (rec.passed and full.passed):
        problems.append("certification did not pass")
    if (rec.intersection_ok != full.intersection_ok or rec.passed != full.passed
            or rec.order != full.order):
        problems.append("recursive and full verdicts disagree")
    if out["felsch_table"] != out["hlt_table"]:
        problems.append("Felsch table differs from the HLT table")
    if out["chain_order"] != out["order"]:
        problems.append(f"Schreier-Sims order {out['chain_order']} != table order {out['order']}")
    f_vector = tuple(rec.order // o for _, o in rec.parabolic_orders)
    if out["lattice_f_vector"] != f_vector:
        problems.append(f"lattice f-vector {out['lattice_f_vector']} != {f_vector}")
    for name in ("diamond", "flag_matchings", "flag_connectivity", "section_connectivity"):
        if not out[name]:
            problems.append(f"{name} check failed")
    if out["hasse_edges"] != out["lattice_covers"]:
        problems.append(f"hasse export has {out['hasse_edges']} edges, "
                        f"lattice has {out['lattice_covers']} covers")
    if out["document_back"] != out["document"] or out["json_again"] != out["json"]:
        problems.append("certificate changed in a JSON round trip")
    return problems


def check_limit(code, stdout: str, stderr: str) -> list[str]:
    problems = []
    if code != LIMIT_EXIT_CODE:
        problems.append(f"exit code {code!r} != {LIMIT_EXIT_CODE}")
    lines = stderr.splitlines()
    if len(lines) != 1 or not lines[0].startswith(LIMIT_STDERR_PREFIX):
        problems.append(f"stderr is not one {LIMIT_STDERR_PREFIX!r} line: {lines[:3]!r}")
    if "Traceback" in stderr or "Traceback" in stdout:
        problems.append("traceback printed")
    return problems


# -- operations -----------------------------------------------------------------
# ``tr`` is a Tracer in traced runs and None otherwise.

def _span(tr, name):
    return tr.span(name) if tr is not None else nullcontext()


def probe_enumeration(p, strategy: str = "hlt", limits=None):
    """Time enumerate_cosets and a second validate() on their own input.

    Returns (enumeration seconds, validate seconds, cosets created at the
    limit or None).
    """
    t0 = perf_counter()
    try:
        table = enumerate_cosets(p, (), limits, strategy)
    except LimitExceededError as exc:
        return perf_counter() - t0, 0.0, exc.cosets_created
    t1 = perf_counter()
    table.validate()
    return t1 - t0, perf_counter() - t1, None


def _count_table(tr, table) -> None:
    s = table.stats
    tr.count("coset.cosets_created", s.cosets_created)
    tr.count("coset.live_cosets", s.live_count)
    tr.count("coset.compactions", s.compactions)
    tr.count("coset.lookaheads", s.lookaheads)
    tr.count("coset.deductions", s.deductions)


def _count_realized(tr, rg: RealizedGroup, cert) -> None:
    _count_table(tr, rg.table)
    tr.count("realize.quotients", rg.stats["quotient_actions"])
    tr.count("realize.left_arrays", rg.stats["left_arrays"])
    tr.count("verify.evidence_rows", len(cert.intersection_evidence))


def probe(workload: str, entry, inputs: dict):
    """Inner-call timings for a traced operation, taken before it on the same input."""
    if workload == "limit":
        return probe_enumeration(inputs["presentation"], entry,
                                 EnumerationLimits(max_cosets=LIMIT_MAX_COSETS))
    return probe_enumeration(entry[2])


def _realize_traced(tr, p, probed) -> None:
    """Realize cold under a span, moving the enumeration inside it to the coset layer."""
    t_enum, t_val, _ = probed
    with tr.span("realize.build"):
        realize(p)
    tr.move("realize.build", "coset.hlt", t_enum - t_val)
    tr.move("realize.build", "coset.validate", t_val)


def atlas_op(entry, tr=None, probed=None):
    """family_g presentation -> certify -> certificate document -> atlas row."""
    _, (d, n, ks), p = entry
    started = perf_counter()
    spec = SggiSpec(p, tuple(1 << e for e in ks))
    if tr is not None:
        _realize_traced(tr, p, probed)
    with _span(tr, "verify.certify"):
        cert = certify(spec, mode="recursive")
    with _span(tr, "certificates.document"):
        f_vector = None
        if cert.passed:
            f_vector = tuple(cert.order // o for _, o in cert.parabolic_orders)
        doc = certs.build_certificate_document(
            cert, family="G", params=f"d={d};n={n};k={','.join(map(str, ks))}",
            f_vector=f_vector)
        row = certs.row_from_document(doc, seconds=perf_counter() - started)
    if tr is not None:
        _count_realized(tr, realize(p), cert)
    return row, check_atlas_row(row, d, n, ks)


def finish_atlas(rows: list, reference: str | None, tr=None):
    """Format and re-parse the atlas of one run, as ``sweep`` writes it.

    Returns (problems, blanked text of the first rows for the cross-run check).
    """
    problems = []
    with _span(tr, "certificates.atlas"):
        unique = {}
        for row in rows:
            if row.params in unique:
                problems += check_same_rows(unique[row.params], row)
            else:
                unique[row.params] = row
        ordered = sorted(unique.values(), key=lambda r: (r.family, r.rank, r.params))
        problems += check_atlas_text(certs.format_atlas(ordered))
    head = sorted(blank_seconds(rows[:ATLAS_REFERENCE_ROWS]),
                  key=lambda r: (r.family, r.rank, r.params))
    text = certs.format_atlas(head)
    problems += check_reference(text, reference)
    return problems, text


def audit_op(entry, tr=None, probed=None):
    """The acceptance battery on one group; returns its problems."""
    return check_audit(audit_outcome(entry, tr, probed))


def audit_outcome(entry, tr=None, probed=None) -> dict:
    """Run the acceptance battery on one group and collect what check_audit reads."""
    family, params, p = entry
    if family == "tight":
        expected_type = tuple(params)
        expected_order = 2 * prod(params)
        label = f"k={','.join(map(str, params))}"
    else:
        d, n, ks = params
        expected_type = tuple(1 << e for e in ks)
        expected_order = 1 << n
        label = f"d={d};n={n};k={','.join(map(str, ks))}"
    spec = SggiSpec(p, expected_type)
    if tr is not None:
        _realize_traced(tr, p, probed)
    with _span(tr, "verify.certify"):
        rec = certify(spec, mode="recursive")
    # Full mode reuses the realization of the recursive run through realize()'s
    # memo, exactly as ``sweep --ip both`` does.
    with _span(tr, "verify.certify"):
        full = certify(spec, mode="full")
    rg = realize(p)
    with _span(tr, "coset.felsch"):
        felsch = enumerate_cosets(p, (), None, "felsch")
    if tr is not None:
        tr.move("coset.felsch", "coset.validate", probed[1])
    with _span(tr, "coset.to_permutations"):
        gens = rg.table.to_permutations()
    with _span(tr, "perms.schreier_sims"):
        chain = PermutationGroup(gens, degree=rg.order)
        chain_order = chain.order()
    with _span(tr, "polytope.lattice"):
        lattice = build_lattice(rg, rec)
    with _span(tr, "polytope.checks"):
        diamond, _ = check_diamond(rg, rec, max_order=rg.order)
        graph = flag_graph(rg, rec)
        matchings, _ = check_flag_matchings(graph)
        connected = check_flag_connectivity(graph)
        sections = check_section_connectivity(rg, rec, max_order=rg.order)
    with _span(tr, "polytope.hasse"):
        dot = export_hasse(lattice, "dot")
    with _span(tr, "certificates.document"):
        f_vector = tuple(rec.order // o for _, o in rec.parabolic_orders)
        doc = certs.build_certificate_document(rec, family=family, params=label,
                                               f_vector=f_vector)
        text = certs.certificate_to_json(doc)
        back = certs.certificate_from_json(text)
        again = certs.certificate_to_json(back)
    if tr is not None:
        _count_realized(tr, rg, rec)
        tr.count("verify.evidence_rows", len(full.intersection_evidence))
        _count_table(tr, felsch)
        tr.count("perms.base_length", len(chain.base()))
        tr.count("perms.strong_generators", len(chain.strong_generators()))
        tr.count("polytope.covers", len(lattice.covers))
    return {
        "expected_order": expected_order, "expected_type": expected_type,
        "tight": family == "tight", "order": rg.order,
        "recursive": rec, "full": full,
        "hlt_table": rg.table.table, "felsch_table": felsch.table,
        "chain_order": chain_order,
        "lattice_f_vector": lattice.f_vector, "lattice_covers": len(lattice.covers),
        "diamond": diamond, "flag_matchings": matchings,
        "flag_connectivity": connected, "section_connectivity": sections,
        "hasse_edges": sum(1 for line in dot.splitlines() if " -> " in line),
        "document": doc, "document_back": back, "json": text, "json_again": again,
    }


def limit_argv(strategy: str) -> list[str]:
    return ["verify", "--family", "coxeter", "--k", ",".join(map(str, LIMIT_TYPE)),
            "--max-cosets", str(LIMIT_MAX_COSETS), "--strategy", strategy]


def limit_op(strategy: str, tr=None, probed=None):
    """One in-process ``polycert verify`` that must stop at the coset limit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            with _span(tr, "cli.main"):
                code = cli.main(limit_argv(strategy))
        except SystemExit as exc:
            code = exc.code
    if tr is not None:
        t_enum, _, at_limit = probed
        tr.move("cli.main", f"coset.{strategy}", t_enum)
        tr.count("coset.cosets_at_limit", at_limit or 0)
    return check_limit(code, out.getvalue(), err.getvalue())


def install_spans(tr) -> None:
    """Wrap the layer calls that ``certify`` makes, for the traced run."""
    tr.wrap(verify, "check_intersection_property_recursive", "verify.ip_recursive")
    tr.wrap(verify, "check_intersection_property_full", "verify.ip_full")
    tr.wrap(RealizedGroup, "parabolic_order", "realize.parabolic")
    tr.wrap(RealizedGroup, "intersection_order", "realize.intersection")
