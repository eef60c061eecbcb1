"""One workload repetition in a fresh process; started by ``run.py``.

Each repetition gets its own interpreter, so ``realize()``'s in-process memo
and the memory high-water mark of one run cannot leak into another. The
worker imports the library from ``src`` of the checkout it lives in, times
set-up (import plus building the presentations), runs operations until
``--seconds`` have passed (or exactly ``--ops`` of them) and prints one JSON
object on its last line of output. It times the reference kernel of
``calibrate.py`` right after set-up and before every operation, outside every
timed interval, so ``run.py`` can put the times on a steady clock.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = ROOT / ".bench_build" / "perfbench"


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, help="run exactly this many operations")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--warm", action="store_true",
                    help="run the first op's probe untimed before the loop")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import polycert

    where = Path(polycert.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise SystemExit(f"polycert was imported from {where}, not from {ROOT / 'src'}")
    import workloads

    return workloads


def _reference_path(workload: str, seed: int, rows: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}-rows{rows}.tsv"


def main(argv=None) -> int:
    args = _parse_args(argv)
    tr = None
    if args.trace:
        from spans import Tracer

        tr = Tracer()

    t0 = perf_counter()
    wl = _import_library()
    if tr is not None:
        with tr.span("families.build"):
            inputs = wl.build_inputs(args.workload, args.seed)
    else:
        inputs = wl.build_inputs(args.workload, args.seed)
    setup_s = perf_counter() - t0
    # Imported only now: the kernel imports numpy, whose import is part of set-up.
    from calibrate import time_kernel

    time_kernel()  # the first run in a fresh process is not representative
    setup_kernel_s = (time_kernel() + time_kernel()) / 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_kernel_s": setup_kernel_s}))
        return 0

    import numpy

    if args.warm:
        # The first large enumeration of a process pays for fresh memory; taking
        # it here puts the traced run's probes and ops, and the untraced run
        # compared with them, all in the same warm state.
        wl.probe(args.workload, wl.item(args.workload, inputs, 0), inputs)
    if tr is not None:
        wl.install_spans(tr)
    latencies: list[float] = []
    uncovered = 0.0
    failures: list[str] = []
    failed_ops = 0
    rows = []
    kernels: list[float] = []
    unit = wl.ops_per_unit(args.workload)
    start = perf_counter()
    i = 0
    while True:
        if args.ops is not None:
            if i >= args.ops:
                break
        elif i and i % unit == 0:
            # Stop at the whole unit of ops that ends nearest to --seconds.
            elapsed = perf_counter() - start
            if elapsed + elapsed / (i // unit) / 2 >= args.seconds:
                break
        entry = wl.item(args.workload, inputs, i)
        probed = wl.probe(args.workload, entry, inputs) if tr is not None else None
        kernels.append(time_kernel())
        t = perf_counter()
        try:
            if args.workload == "atlas":
                row, problems = wl.atlas_op(entry, tr, probed)
                rows.append(row)
            elif args.workload == "audit":
                problems = wl.audit_op(entry, tr, probed)
            else:
                problems = wl.limit_op(entry, tr, probed)
        except Exception as exc:  # an unexpected exception is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        done = perf_counter()
        latencies.append(done - t)
        if tr is not None:
            uncovered += (done - t) - tr.top_level_seconds(t, done)
        if problems:
            failed_ops += 1
            failures.append(f"op {i} {entry[:2] if isinstance(entry, tuple) else entry}: "
                            + "; ".join(problems))
        i += 1
    kernels.append(time_kernel())

    run_failures: list[str] = []
    reference_text = None
    finish_s = 0.0
    if args.workload == "atlas":
        rows_kept = min(len(rows), wl.ATLAS_REFERENCE_ROWS)
        path = _reference_path(args.workload, args.seed, rows_kept)
        reference = path.read_text(encoding="utf-8") if path.exists() else None
        t = perf_counter()
        try:
            run_failures, reference_text = wl.finish_atlas(rows, reference, tr)
        except Exception as exc:
            run_failures = [f"atlas finish: {type(exc).__name__}: {exc}"]
        finish_s = perf_counter() - t
        if tr is not None:
            uncovered += finish_s - tr.top_level_seconds(t, t + finish_s)
        if reference is None and reference_text is not None and not run_failures:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(reference_text, encoding="utf-8")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_kernel_s": setup_kernel_s,
        "ops": i,
        "kernels": kernels,
        "finish_s": finish_s,
        "latencies": latencies,
        "failed_ops": failed_ops,
        "failures": (failures + run_failures)[:20],
        "run_failures": len(run_failures),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    }
    if tr is not None:
        tr.unwrap_all()
        result["self_times"] = tr.self_times()
        result["counts"] = dict(tr.counts)
        result["uncovered_s"] = uncovered
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
