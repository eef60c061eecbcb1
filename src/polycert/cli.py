"""Command line interface.

Subcommands:

* ``verify``: certify one group (by family parameters or a raw presentation)
  and optionally write the JSON certificate.
* ``sweep``: certify a whole parameter range of the main family into a TSV
  atlas, optionally in parallel.
* ``paper-tables``: rebuild and re-verify the small-parameter tables (the
  section counts and tight orders) and report them.
* ``export``: convert a TSV atlas to JSON (or re-emit TSV).
* ``hasse``: check the face lattice of a certified group (flag matchings,
  flag connectivity, the diamond condition, section connectivity) and print
  it as dot or edge list.

A command returns nothing when everything passes and reports any failure
by raising a ``PolycertError``, a failed check included. ``main`` returns 0
after the command returns, and has the one handler: it prints the error's
``polycert: <category>: <message>`` line on stderr and returns its exit
code, both declared in `polycert.errors`.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import time
from math import prod

from . import certificates as certs
from . import families
from .coset import DEFAULT_MAX_COSETS, STRATEGIES, EnumerationLimits
from .errors import (
    CheckFailedError,
    LimitExceededError,
    ParameterError,
    PolycertError,
)
from .polytope import (
    build_lattice,
    check_diamond,
    check_flag_connectivity,
    check_flag_matchings,
    check_section_connectivity,
    export_hasse,
    flag_graph,
)
from .realize import realize
from .verify import SggiSpec, certify
from .words import Presentation, presentation_from_text, word_from_text


def _two_powers(ks: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 << e for e in ks)


# Each family's required flags, in params-text order, and a builder that
# takes their values (``--k`` parsed), then --unsafe-params, and returns the
# presentation and the declared type.
FAMILY_TABLE = {
    "G": (("d", "n", "k"), lambda d, n, k, unsafe: (
        families.family_g(d, n, k, unsafe), _two_powers(k))),
    "H": (("n", "s", "t"), lambda n, s, t, unsafe: (
        families.family_h(n, s, t, unsafe), (1 << s, 1 << t))),
    "K": (("d", "k"), lambda d, k, _: (families.family_k(d, k), _two_powers(k))),
    "L": (("d", "k"), lambda d, k, _: (families.family_l(d, k), _two_powers(k[:-1]))),
    "M": (("d", "n", "k"), lambda d, n, k, unsafe: (
        families.family_m(d, n, k, unsafe), (2,) + _two_powers(k[1:]))),
    "A": (("rank", "l", "k"), lambda rank, slack, k, _: (
        families.family_a(rank, slack, k), _two_powers(k))),
    "coxeter": (("k",), lambda k, _: (families.coxeter_string_presentation(k), k)),
    "tight": (("k",), lambda k, _: (families.tight_quotient_presentation(k), k)),
}
FAMILIES = (*FAMILY_TABLE, "raw")


def _limits(args) -> EnumerationLimits:
    return EnumerationLimits(max_cosets=args.max_cosets)


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParameterError(f"{what} must be comma-separated integers, got {text!r}")


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {what}: {exc}")


def _write_text(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when there is none."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write output: {exc}")


def _check_writable(out: str | None) -> None:
    """Fail before the work, not after it, when the file ``out`` cannot be
    written; a file that did not exist is not left behind."""
    if not out:
        return
    existed = os.path.exists(out)
    try:
        with open(out, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ParameterError(f"cannot write output: {exc}")
    if not existed:
        os.remove(out)


def _params_text(args) -> str:
    """``flag=value`` for each of the family's flags, as typed, in table order."""
    return ";".join(f"{flag}={getattr(args, flag)}" for flag in FAMILY_TABLE[args.family][0])


def build_presentation(args) -> tuple[Presentation, tuple[int, ...] | None, str]:
    """Resolve CLI family flags into (presentation, declared type, params text)."""
    if args.family == "raw":
        if args.presentation_file:
            p = presentation_from_text(
                _read_text(args.presentation_file, "presentation file"))
        else:
            if args.generators is None or args.relators is None:
                raise ParameterError(
                    "family raw needs --generators and --relators "
                    "(or --presentation-file)")
            rels = tuple(word_from_text(chunk.strip())
                         for chunk in args.relators.split(";") if chunk.strip())
            p = Presentation(args.generators, rels)
        declared = _parse_int_list(args.type, "--type") if args.type else None
        return p, declared, "-"
    flags, build = FAMILY_TABLE[args.family]
    values = [getattr(args, flag) for flag in flags]
    missing = [f"--{flag}" for flag, v in zip(flags, values) if v is None]
    if missing:
        raise ParameterError(f"family {args.family} needs {', '.join(missing)}")
    p, declared = build(*(_parse_int_list(v, "--k") if flag == "k" else v
                          for flag, v in zip(flags, values)), args.unsafe_params)
    return p, declared, _params_text(args)


def _add_family_flags(sub) -> None:
    sub.add_argument("--family", required=True, choices=FAMILIES)
    sub.add_argument("--d", type=int, help="rank for families G, K, L, M")
    sub.add_argument("--n", type=int, help="order exponent for families G, H, M")
    sub.add_argument("--k", help="comma-separated exponents (or orders for coxeter/tight)")
    sub.add_argument("--s", type=int, help="first exponent for family H")
    sub.add_argument("--t", type=int, help="second exponent for family H")
    sub.add_argument("--rank", type=int, help="rank for family A")
    sub.add_argument("--l", type=int, help="slack for family A")
    sub.add_argument("--generators", type=int, help="generator count for family raw")
    sub.add_argument("--relators", help="semicolon-separated relator words for family raw")
    sub.add_argument("--presentation-file", help="file in the presentation text format")
    sub.add_argument("--type", help="declared type entries for family raw")
    sub.add_argument("--unsafe-params", action="store_true",
                     help="allow parameters outside the known-good range")


def _add_engine_flags(sub) -> None:
    sub.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS)
    sub.add_argument("--strategy", choices=STRATEGIES, default="hlt")
    sub.add_argument("--out", help="write the primary output to this file")


def _cmd_verify(args) -> None:
    presentation, declared, params_text = build_presentation(args)
    limits = _limits(args)
    mode = "full" if args.full_ip else "recursive"
    spec = SggiSpec(presentation, declared)
    _check_writable(args.out)
    cert = certify(spec, mode=mode, limits=limits, strategy=args.strategy)
    if args.out:
        doc = certs.build_certificate_document(
            cert, family=args.family, params=params_text, unsafe_params=args.unsafe_params)
        _write_text(certs.certificate_to_json(doc), args.out)
    log2 = cert.log2_order
    lines = [
        f"family: {args.family}",
        f"params: {params_text}",
        f"order: {cert.order}" + (f" (2^{log2})" if log2 is not None else ""),
        "type: {" + ",".join(map(str, cert.schlafli_type)) + "}",
        f"involutions: {'ok' if cert.involutions_ok else 'FAILED'}",
        f"string: {'ok' if cert.string_ok else 'FAILED'}",
        f"intersection: {'ok' if cert.intersection_ok else 'FAILED'} ({cert.intersection_mode})",
        f"tight: {'yes' if cert.tight else 'no'}",
        f"degenerate: {'yes' if cert.degenerate else 'no'}",
        f"minimal: {'yes' if cert.minimal else 'no'}",
        "warnings: " + ("; ".join(cert.warnings) if cert.warnings else "none"),
        f"result: {'PASS' if cert.passed else 'FAIL'}",
    ]
    print("\n".join(lines))
    if not cert.passed:
        raise CheckFailedError("certification did not pass")


def _all_exponents(d: int, n: int, k_min: int) -> list[tuple[int, ...]]:
    out = []
    max_sum = n - 1
    for total in range(k_min * (d - 1), max_sum + 1):
        out.extend(families._compositions(total, d - 1, k_min))
    return sorted(out)


def _sweep_one(task) -> dict:
    d, n, ks, strategy, limits, ip_mode = task
    started = time.perf_counter()
    g = argparse.Namespace(family="G", d=d, n=n, k=",".join(map(str, ks)),
                           unsafe_params=False)
    result = {"params": _params_text(g)}
    try:
        spec = SggiSpec(*build_presentation(g)[:2])
        modes = ["recursive", "full"] if ip_mode == "both" else [ip_mode]
        cert = None
        verdicts = []
        for mode in modes:
            cert = certify(spec, mode=mode, limits=limits, strategy=strategy)
            verdicts.append(cert.intersection_ok)
        if len(set(verdicts)) > 1:
            raise CheckFailedError("recursive and full intersection checks disagree")
        doc = certs.build_certificate_document(cert, family="G", params=result["params"])
        result["row"] = certs.row_from_document(doc, seconds=time.perf_counter() - started)
    except PolycertError as exc:
        result["skip"] = f"{type(exc).__name__}: {exc}"
    return result


def _cmd_sweep(args) -> None:
    limits = _limits(args)
    jobs = args.jobs
    if jobs < 1:
        raise ParameterError("--jobs must be at least 1")
    if args.d_min > args.d_max or args.n_min > args.n_max:
        raise ParameterError("empty sweep range")
    if args.k_min < 2:
        raise ParameterError("--k-min must be at least 2")
    tasks = []
    for d in range(args.d_min, args.d_max + 1):
        if d < 3:
            raise ParameterError("sweep ranks start at 3")
        for n in range(args.n_min, args.n_max + 1):
            for ks in _all_exponents(d, n, args.k_min):
                tasks.append((d, n, ks, args.strategy, limits, args.ip))
    _check_writable(args.out)
    results = []
    if jobs == 1:
        for task in tasks:
            results.append(_sweep_one(task))
    else:
        # imported here, so no other command pays for loading a process pool
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            try:
                results = list(pool.map(_sweep_one, tasks))
            except BrokenProcessPool as exc:
                raise LimitExceededError("a sweep worker died (out of memory?)") from exc
    rows = []
    skipped = []
    for res in results:
        if "row" in res:
            rows.append(res["row"])
        else:
            skipped.append(("G", res["params"], res["skip"]))
    rows.sort(key=lambda r: (r.family, r.rank, r.params))
    skipped.sort()
    text = certs.format_atlas(rows, skipped)
    _write_text(text, args.out)
    failed = [r for r in rows if not r.passed]
    if failed or skipped:
        raise CheckFailedError(f"{len(failed)} failing rows, {len(skipped)} skipped")


def _cmd_paper_tables(args) -> None:
    limits = _limits(args)
    _check_writable(args.out)
    lines = []
    all_ok = True
    lines.append("section parameter tuples (rank, total): count, all orders verified")
    for rank in (3, 4, 5):
        minimum = 1 + 2 * (rank - 1)
        for total in range(minimum, 10):
            tuples = families.a_parameter_tuples(rank, total)
            verified = 0
            for slack, *ks in tuples:
                p = families.family_a(rank, slack, tuple(ks))
                if realize(p, limits, args.strategy).order == 1 << total:
                    verified += 1
            ok = verified == len(tuples)
            all_ok = all_ok and ok
            lines.append(f"  ({rank},{total}): {len(tuples)} tuples, "
                         f"{verified} verified{'' if ok else ' MISMATCH'}")
    lines.append("tight orders (type entries 4 or 8): order equals twice the product")
    for rank in (3, 4):
        for ks in _tight_types(rank):
            p = families.tight_quotient_presentation(ks)
            order = realize(p, limits, args.strategy).order
            want = 2 * prod(ks)
            ok = order == want
            all_ok = all_ok and ok
            lines.append(f"  k={','.join(map(str, ks))}: order {order}"
                         f"{'' if ok else f' MISMATCH (expected {want})'}")
    lines.append("all verified" if all_ok else "MISMATCHES FOUND")
    _write_text("\n".join(lines) + "\n", args.out)
    if not all_ok:
        raise CheckFailedError("table values did not reproduce")


def _tight_types(rank: int) -> list[tuple[int, ...]]:
    return sorted(itertools.product((4, 8), repeat=rank - 1))


def _cmd_export(args) -> None:
    rows, skipped = certs.parse_atlas(_read_text(args.infile, "atlas"))
    if args.format == "tsv":
        out = certs.format_atlas(rows, skipped)
    else:
        payload = {
            "atlas_version": certs.ATLAS_VERSION,
            "rows": [dataclasses.asdict(r) for r in rows],
            "skipped": [{"family": f, "params": p, "reason": why}
                        for f, p, why in skipped],
        }
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_text(out, args.out)


def _cmd_hasse(args) -> None:
    presentation, declared, _ = build_presentation(args)
    max_cosets = _limits(args).max_cosets
    if args.max_order < 1:
        raise ParameterError("--max-order must be at least 1")
    spec = SggiSpec(presentation, declared)
    _check_writable(args.out)
    # --max-order bounds the cosets that each enumeration defines, and so
    # the rows of the group's table
    limits = EnumerationLimits(max_cosets=min(max_cosets, args.max_order))
    try:
        rg = realize(presentation, limits, args.strategy)
    except LimitExceededError as exc:
        if args.max_order < max_cosets and exc.deductions is None:
            raise LimitExceededError(f"--max-order {args.max_order} exceeded: {exc}")
        raise
    cert = certify(spec, limits=limits, strategy=args.strategy)
    if not cert.passed:
        raise CheckFailedError("group is not a certified string C-group")
    graph = flag_graph(rg, cert)
    verdicts = (
        ("flag matching", check_flag_matchings(graph)[0]),
        ("flag connectivity", check_flag_connectivity(graph)),
        ("diamond", check_diamond(rg, cert, max_order=args.max_order)[0]),
        ("section connectivity",
         check_section_connectivity(rg, cert, max_order=args.max_order)),
    )
    for name, ok in verdicts:
        if not ok:
            raise CheckFailedError(f"face lattice fails the {name} check")
    lattice = build_lattice(rg, cert)
    _write_text(export_hasse(lattice, args.format), args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycert",
        description="certify 2-power string C-groups and their polytopes")
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="certify one group")
    _add_family_flags(p_verify)
    _add_engine_flags(p_verify)
    p_verify.add_argument("--full-ip", action="store_true",
                          help="use the exhaustive subset-pair intersection check")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = subs.add_parser("sweep", help="certify a parameter range into a TSV atlas")
    p_sweep.add_argument("--d-min", type=int, default=3)
    p_sweep.add_argument("--d-max", type=int, default=5)
    p_sweep.add_argument("--n-min", type=int, default=10)
    p_sweep.add_argument("--n-max", type=int, default=12)
    p_sweep.add_argument("--k-min", type=int, default=2)
    p_sweep.add_argument("--ip", choices=("recursive", "full", "both"),
                         default="recursive")
    p_sweep.add_argument("--jobs", type=int, default=1)
    _add_engine_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_tables = subs.add_parser("paper-tables",
                               help="re-verify the small-parameter tables")
    _add_engine_flags(p_tables)
    p_tables.set_defaults(func=_cmd_paper_tables)

    p_export = subs.add_parser("export", help="convert a TSV atlas")
    p_export.add_argument("--in", dest="infile", required=True)
    p_export.add_argument("--format", choices=("json", "tsv"), default="json")
    p_export.add_argument("--out")
    p_export.set_defaults(func=_cmd_export)

    p_hasse = subs.add_parser("hasse", help="export the face lattice")
    _add_family_flags(p_hasse)
    _add_engine_flags(p_hasse)
    p_hasse.add_argument("--format", choices=("dot", "edges"), default="dot")
    p_hasse.add_argument("--max-order", type=int, default=1 << 16)
    p_hasse.set_defaults(func=_cmd_hasse)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except PolycertError as exc:
        print(f"polycert: {exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
