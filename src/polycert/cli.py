"""Command line interface.

Subcommands:

* ``verify``: certify one group (by family parameters or a raw presentation)
  and optionally write the JSON certificate.
* ``sweep``: certify a whole parameter range of the main family into a TSV
  atlas, optionally in parallel.
* ``paper-tables``: rebuild and re-verify the small-parameter tables (the
  section counts and tight orders) and report them.
* ``export``: convert a TSV atlas to JSON (or re-emit TSV).
* ``hasse``: print the face lattice of a certified group as dot or edge list.

Exit codes are stable: 0 pass, 3 a mathematical check failed, 4 invalid
parameters or formats, 5 a resource limit was hit. Failures print one
machine-readable ``polycert: <category>: <message>`` line on stderr.

Defaults can come from the environment (flags win): POLYCERT_MAX_COSETS,
POLYCERT_STRATEGY, POLYCERT_JOBS, POLYCERT_UNSAFE_PARAMS=1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from math import prod

from . import certificates as certs
from . import families
from .coset import DEFAULT_MAX_COSETS, EnumerationLimits
from .errors import (
    CapacityError,
    FormatError,
    HomomorphismError,
    InvalidGeneratorError,
    InvalidWordError,
    LimitExceededError,
    ParameterError,
    TableNotClosedError,
    UncertifiedInputError,
)
from .polytope import build_lattice, export_hasse
from .realize import realize
from .verify import SggiSpec, certify
from .words import Presentation, presentation_from_text, word_from_text

EXIT_OK = 0
EXIT_CHECK_FAILED = 3
EXIT_PARAM_INVALID = 4
EXIT_LIMIT_EXCEEDED = 5

FAMILIES = ("G", "H", "K", "L", "M", "A", "coxeter", "tight", "raw")


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw in (None, ""):
        return None
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"environment variable {name} is not an integer: {raw!r}")


def _resolve_max_cosets(args) -> int:
    if args.max_cosets is not None:
        return args.max_cosets
    env = _env_int("POLYCERT_MAX_COSETS")
    return env if env is not None else DEFAULT_MAX_COSETS


def _resolve_strategy(args) -> str:
    if args.strategy is not None:
        return args.strategy
    env = os.environ.get("POLYCERT_STRATEGY")
    if env in (None, ""):
        return "hlt"
    if env not in ("hlt", "felsch"):
        raise ParameterError(f"POLYCERT_STRATEGY must be hlt or felsch, not {env!r}")
    return env


def _resolve_unsafe(args) -> bool:
    if args.unsafe_params:
        return True
    return os.environ.get("POLYCERT_UNSAFE_PARAMS", "") == "1"


def _resolve_jobs(args) -> int:
    if getattr(args, "jobs", None) is not None:
        if args.jobs < 1:
            raise ParameterError("--jobs must be at least 1")
        return args.jobs
    env = _env_int("POLYCERT_JOBS")
    if env is not None and env < 1:
        raise ParameterError("POLYCERT_JOBS must be at least 1")
    return env if env is not None else 1


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParameterError(f"{what} must be comma-separated integers, got {text!r}")


def _require(args, names: list[str], family: str) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        raise ParameterError(f"family {family} needs {flags}")


def build_presentation(args) -> tuple[Presentation, tuple[int, ...] | None, str]:
    """Resolve CLI family flags into (presentation, declared type, params text)."""
    family = args.family
    unsafe = _resolve_unsafe(args)
    if family == "G":
        _require(args, ["d", "n", "k"], family)
        k = _parse_int_list(args.k, "--k")
        p = families.family_g(args.d, args.n, k, unsafe)
        return p, tuple(1 << e for e in k), f"d={args.d};n={args.n};k={args.k}"
    if family == "H":
        _require(args, ["n", "s", "t"], family)
        p = families.family_h(args.n, args.s, args.t, unsafe)
        return p, (1 << args.s, 1 << args.t), f"n={args.n};s={args.s};t={args.t}"
    if family == "K":
        _require(args, ["d", "k"], family)
        k = _parse_int_list(args.k, "--k")
        p = families.family_k(args.d, k)
        return p, tuple(1 << e for e in k), f"d={args.d};k={args.k}"
    if family == "L":
        _require(args, ["d", "k"], family)
        k = _parse_int_list(args.k, "--k")
        p = families.family_l(args.d, k)
        return p, tuple(1 << e for e in k[:-1]), f"d={args.d};k={args.k}"
    if family == "M":
        _require(args, ["d", "n", "k"], family)
        k = _parse_int_list(args.k, "--k")
        p = families.family_m(args.d, args.n, k, unsafe)
        declared = (2,) + tuple(1 << e for e in k[1:])
        return p, declared, f"d={args.d};n={args.n};k={args.k}"
    if family == "A":
        _require(args, ["rank", "l", "k"], family)
        k = _parse_int_list(args.k, "--k")
        p = families.family_a(args.rank, args.l, k)
        return p, tuple(1 << e for e in k), f"rank={args.rank};l={args.l};k={args.k}"
    if family == "coxeter":
        _require(args, ["k"], family)
        k = _parse_int_list(args.k, "--k")
        p = families.coxeter_string_presentation(k)
        return p, k, f"k={args.k}"
    if family == "tight":
        _require(args, ["k"], family)
        k = _parse_int_list(args.k, "--k")
        p = families.tight_quotient_presentation(k)
        return p, k, f"k={args.k}"
    if family == "raw":
        if args.presentation_file:
            try:
                text = open(args.presentation_file, encoding="utf-8").read()
            except OSError as exc:
                raise ParameterError(f"cannot read presentation file: {exc}")
            p = presentation_from_text(text)
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
    raise ParameterError(f"unknown family {family!r}")


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
    sub.add_argument("--max-cosets", type=int)
    sub.add_argument("--strategy", choices=("hlt", "felsch"))
    sub.add_argument("--out", help="write the primary output to this file")


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    presentation, declared, params_text = build_presentation(args)
    limits = EnumerationLimits(max_cosets=_resolve_max_cosets(args))
    strategy = _resolve_strategy(args)
    mode = "full" if args.full_ip else "recursive"
    spec = SggiSpec(presentation, declared)
    cert = certify(spec, mode=mode, limits=limits, strategy=strategy)
    f_vector = None
    if cert.passed:
        f_vector = tuple(cert.order // o for _, o in cert.parabolic_orders)
    doc = certs.build_certificate_document(
        cert, family=args.family, params=params_text,
        unsafe_params=_resolve_unsafe(args), f_vector=f_vector)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(certs.certificate_to_json(doc))
    log2 = certs.order_log2(cert.order)
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
        print("polycert: check-failed: certification did not pass", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _all_exponents(d: int, n: int, k_min: int) -> list[tuple[int, ...]]:
    out = []
    max_sum = n - 1
    for total in range(k_min * (d - 1), max_sum + 1):
        out.extend(families._compositions(total, d - 1, k_min))
    return sorted(out)


def _sweep_one(task) -> dict:
    d, n, ks, strategy, max_cosets, ip_mode = task
    started = time.perf_counter()
    result = {"d": d, "n": n, "k": ks}
    try:
        p = families.family_g(d, n, ks)
        spec = SggiSpec(p, tuple(1 << e for e in ks))
        limits = EnumerationLimits(max_cosets=max_cosets)
        modes = ["recursive", "full"] if ip_mode == "both" else [ip_mode]
        cert = None
        verdicts = []
        for mode in modes:
            cert = certify(spec, mode=mode, limits=limits, strategy=strategy)
            verdicts.append(cert.intersection_ok)
        if len(set(verdicts)) > 1:
            raise TableNotClosedError(
                "recursive and full intersection checks disagree")
        f_vector = None
        if cert.passed:
            f_vector = tuple(cert.order // o for _, o in cert.parabolic_orders)
        doc = certs.build_certificate_document(
            cert, family="G", params=f"d={d};n={n};k={','.join(map(str, ks))}",
            f_vector=f_vector)
        result["row"] = certs.row_from_document(
            doc, seconds=time.perf_counter() - started)
    except (ParameterError, LimitExceededError, CapacityError,
            TableNotClosedError) as exc:
        result["skip"] = f"{type(exc).__name__}: {exc}"
    return result


def _cmd_sweep(args) -> int:
    strategy = _resolve_strategy(args)
    max_cosets = _resolve_max_cosets(args)
    jobs = _resolve_jobs(args)
    if args.d_min > args.d_max or args.n_min > args.n_max:
        raise ParameterError("empty sweep range")
    tasks = []
    for d in range(args.d_min, args.d_max + 1):
        if d < 3:
            raise ParameterError("sweep ranks start at 3")
        for n in range(args.n_min, args.n_max + 1):
            for ks in _all_exponents(d, n, args.k_min):
                tasks.append((d, n, ks, strategy, max_cosets, args.ip))
    results = []
    if jobs == 1:
        for task in tasks:
            results.append(_sweep_one(task))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            try:
                results = list(pool.map(_sweep_one, tasks))
            except BrokenProcessPool as exc:
                raise LimitExceededError("a sweep worker died (out of memory?)") from exc
    rows = []
    skipped = []
    for res in results:
        key = f"d={res['d']};n={res['n']};k={','.join(map(str, res['k']))}"
        if "row" in res:
            rows.append(res["row"])
        else:
            skipped.append(("G", key, res["skip"]))
    rows.sort(key=lambda r: (r.family, r.rank, r.params))
    skipped.sort()
    text = certs.format_atlas(rows, skipped)
    _write_or_print(text, args.out)
    failed = [r for r in rows if not r.passed]
    if failed or skipped:
        print(f"polycert: check-failed: {len(failed)} failing rows, "
              f"{len(skipped)} skipped", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_paper_tables(args) -> int:
    strategy = _resolve_strategy(args)
    limits = EnumerationLimits(max_cosets=_resolve_max_cosets(args))
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
                if realize(p, limits, strategy).order == 1 << total:
                    verified += 1
            ok = verified == len(tuples)
            all_ok = all_ok and ok
            lines.append(f"  ({rank},{total}): {len(tuples)} tuples, "
                         f"{verified} verified{'' if ok else ' MISMATCH'}")
    lines.append("tight orders (type entries 4 or 8): order equals twice the product")
    for rank in (3, 4):
        for ks in _tight_types(rank):
            p = families.tight_quotient_presentation(ks)
            order = realize(p, limits, strategy).order
            want = 2 * prod(ks)
            ok = order == want
            all_ok = all_ok and ok
            lines.append(f"  k={','.join(map(str, ks))}: order {order}"
                         f"{'' if ok else f' MISMATCH (expected {want})'}")
    lines.append("all verified" if all_ok else "MISMATCHES FOUND")
    _write_or_print("\n".join(lines) + "\n", args.out)
    if not all_ok:
        print("polycert: check-failed: table values did not reproduce", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _tight_types(rank: int) -> list[tuple[int, ...]]:
    return sorted(itertools.product((4, 8), repeat=rank - 1))


def _cmd_export(args) -> int:
    try:
        text = open(args.infile, encoding="utf-8").read()
    except OSError as exc:
        raise ParameterError(f"cannot read atlas: {exc}")
    rows, skipped = certs.parse_atlas(text)
    if args.format == "tsv":
        out = certs.format_atlas(rows, skipped)
    else:
        payload = {
            "atlas_version": 1,
            "rows": [{
                "family": r.family,
                "params": r.params,
                "rank": r.rank,
                "order": r.order,
                "log2_order": r.log2_order,
                "schlafli_type": list(r.schlafli_type),
                "involutions_ok": r.involutions_ok,
                "string_ok": r.string_ok,
                "intersection_ok": r.intersection_ok,
                "passed": r.passed,
                "degenerate": r.degenerate,
                "tight": r.tight,
                "minimal": r.minimal,
                "warnings": list(r.warnings),
                "seconds": r.seconds,
            } for r in rows],
            "skipped": [{"family": f, "params": p, "reason": why}
                        for f, p, why in skipped],
        }
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_or_print(out, args.out)
    return EXIT_OK


def _cmd_hasse(args) -> int:
    presentation, declared, _ = build_presentation(args)
    limits = EnumerationLimits(max_cosets=_resolve_max_cosets(args))
    strategy = _resolve_strategy(args)
    rg = realize(presentation, limits, strategy)
    if rg.order > args.max_order:
        raise LimitExceededError(
            f"group order {rg.order} exceeds --max-order {args.max_order}")
    cert = certify(SggiSpec(presentation, declared), limits=limits, strategy=strategy)
    if not cert.passed:
        print("polycert: check-failed: group is not a certified string C-group",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    lattice = build_lattice(rg, cert)
    _write_or_print(export_hasse(lattice, args.format), args.out)
    return EXIT_OK


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
    p_sweep.add_argument("--jobs", type=int)
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
        return args.func(args)
    except (ParameterError, InvalidWordError, InvalidGeneratorError) as exc:
        print(f"polycert: param-invalid: {exc}", file=sys.stderr)
        return EXIT_PARAM_INVALID
    except FormatError as exc:
        print(f"polycert: format-invalid: {exc}", file=sys.stderr)
        return EXIT_PARAM_INVALID
    except (LimitExceededError, CapacityError) as exc:
        print(f"polycert: limit-exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT_EXCEEDED
    except (TableNotClosedError, HomomorphismError, UncertifiedInputError) as exc:
        print(f"polycert: check-failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
