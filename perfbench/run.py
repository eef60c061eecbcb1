"""The polycert benchmark: one workload, one seed, one report.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the library from
``src`` and installs nothing. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run. The last
line of output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every output check passed.

Every workload repetition runs in a fresh worker process (``worker.py``);
see README.md for the workloads, the metrics and what each layer metric is
expected to move. Every reported time is on the steady clock of
``calibrate.py``; the report also prints the raw wall-clock figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import factor, op_factors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("atlas", "audit", "limit")

# Set-up is timed in this many fresh processes plus the measured worker.
SETUP_PROBES = 4
# Everything, the slowest operation's overrun included, ends by then.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Per-layer times are self times per operation, except families.build_s,
# which is per set-up.
LAYER_TIMES = {
    "families.build_s": "families.build",
    "coset.hlt_s": "coset.hlt",
    "coset.felsch_s": "coset.felsch",
    "coset.validate_s": "coset.validate",
    "coset.to_permutations_s": "coset.to_permutations",
    "realize.build_self_s": "realize.build",
    "realize.parabolic_s": "realize.parabolic",
    "realize.intersection_s": "realize.intersection",
    "verify.certify_self_s": "verify.certify",
    "verify.ip_recursive_s": "verify.ip_recursive",
    "verify.ip_full_s": "verify.ip_full",
    "perms.schreier_sims_s": "perms.schreier_sims",
    "polytope.lattice_s": "polytope.lattice",
    "polytope.checks_s": "polytope.checks",
    "polytope.hasse_s": "polytope.hasse",
    "certificates.document_s": "certificates.document",
    "certificates.atlas_s": "certificates.atlas",
    "cli.self_s": "cli.main",
}
# Counts are per operation.
LAYER_COUNTS = (
    "coset.cosets_created",
    "coset.live_cosets",
    "coset.compactions",
    "coset.lookaheads",
    "coset.deductions",
    "coset.cosets_at_limit",
    "realize.quotients",
    "realize.left_arrays",
    "verify.evidence_rows",
    "perms.base_length",
    "perms.strong_generators",
    "polytope.covers",
)


class BenchError(Exception):
    """The benchmark could not produce a result; exit non-zero without one."""


def _parse_args(argv):
    ap = argparse.ArgumentParser(description="polycert benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be between 1 and 60")
    return args


def refuse_environment(environ) -> None:
    """POLYCERT_* variables change the inputs or skip checks; refuse to measure them."""
    knobs = sorted(k for k in environ if k.startswith("POLYCERT_"))
    if knobs:
        raise BenchError(f"unset {', '.join(knobs)} first: they change what is measured")


def require_source(root: Path) -> None:
    if not (root / "src" / "polycert" / "__init__.py").is_file():
        raise BenchError(f"no library source at {root / 'src' / 'polycert'}; "
                         f"run from the root of a polycert checkout")


# -- metadata --------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: Path):
    if not (root / ".git").exists():
        return "unknown", None
    try:
        commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=20).stdout.strip()
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src"],
                                capture_output=True, text=True, timeout=20).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    return commit or "unknown", bool(status.strip())


def source_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "polycert").glob("*.py")))


def metadata(root: Path) -> dict:
    commit, dirty = _git(root)
    try:
        mem_mb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20
    except (ValueError, OSError):
        mem_mb = float("nan")
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": _cpu_model(),
        "mem_total_mb": round(mem_mb),
        "python": platform.python_version(),
        "commit": commit,
        "src_dirty": dirty,
        "src_lines": source_lines(root),
    }


# -- workers ---------------------------------------------------------------------

def run_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a worker could start")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=str(ROOT), env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With ten samples or fewer no
    such percentile exists, and the maximum is returned with 0 beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    idx = n - 11
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def steady_times(res: dict) -> tuple[list[float], float]:
    """A worker's op latencies and finishing time on the steady clock."""
    factors = op_factors(res["kernels"], res["ops"])
    latencies = [t * f for t, f in zip(res["latencies"], factors)]
    finish = res["finish_s"] * (factors[-1] if factors else 1.0)
    return latencies, finish


def run_factor(res: dict) -> float:
    """One speed factor for a whole worker run: its median kernel time."""
    return factor(statistics.median(res["kernels"]))


def end_to_end(workload: str, seed: int, seconds: int, deadline: float):
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(run_worker(["--workload", workload, "--seed", str(seed),
                                  "--setup-only"], deadline))
    res = run_worker(["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds)], deadline)
    probes.append(res)
    setups = [p["setup_s"] * factor(p["setup_kernel_s"]) for p in probes]
    lat, finish = steady_times(res)
    tail, pct, beyond = tail_latency(lat)
    attempted = res["ops"]
    failed = min(attempted, res["failed_ops"] + res["run_failures"])
    raw_busy = sum(res["latencies"]) + res["finish_s"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": attempted / (sum(lat) + finish),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "peak_rss_mb": res["peak_rss_mb"],
        "success_rate": 1.0 - failed / attempted,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups in fresh processes: "
                   + ", ".join(f"{s:.4f}" for s in setups)
                   + f"; raw median {statistics.median(p['setup_s'] for p in probes):.4f} s",
        "ops_per_s": f"{attempted} ops in {sum(lat) + finish:.3f} s; raw "
                     f"{attempted / raw_busy:.4f} 1/s, speed factor median "
                     f"{run_factor(res):.3f}",
        "op_p50_s": f"median of {len(lat)} ops; raw {statistics.median(res['latencies']):.4f} s",
        "op_tail_s": (f"p{pct:.1f} of {len(lat)} ops, {beyond} beyond" if beyond
                      else f"max of {len(lat)} ops: with 10 or fewer, no percentile "
                           f"has 10 samples beyond"),
        "peak_rss_mb": "ru_maxrss of the worker process",
        "success_rate": f"error_rate {failed / attempted:.4f}: {failed} failed "
                        f"of {attempted} attempted",
    }
    return res, metrics, notes, attempted, failed


def per_layer(workload: str, seed: int, seconds: int, deadline: float):
    # A third of the time untraced, then the same ops traced with their probes,
    # which on limit cost about as much again as the ops themselves.
    plain = run_worker(["--workload", workload, "--seed", str(seed),
                        "--seconds", str(max(1, seconds // 3)), "--warm"], deadline)
    traced = run_worker(["--workload", workload, "--seed", str(seed),
                         "--ops", str(plain["ops"]), "--warm", "--trace"], deadline)
    ops = traced["ops"]
    selfs = traced["self_times"]
    counts = traced["counts"]
    scale = run_factor(traced)
    metrics = {}
    for name, span in LAYER_TIMES.items():
        if name == "families.build_s":
            metrics[name] = selfs.get(span, 0.0) * factor(traced["setup_kernel_s"])
        else:
            metrics[name] = selfs.get(span, 0.0) * scale / ops
    for name in LAYER_COUNTS:
        metrics[name] = counts.get(name, 0.0) / ops
    live = counts.get("coset.live_cosets", 0.0)
    metrics["coset.overdefine_ratio"] = counts.get("coset.cosets_created", 0.0) / live if live else 0.0
    plain_lat, plain_finish = steady_times(plain)
    traced_lat, traced_finish = steady_times(traced)
    plain_wall = sum(plain_lat) + plain_finish
    traced_wall = sum(traced_lat) + traced_finish
    metrics["trace.overhead_s"] = (traced_wall - plain_wall) / ops
    raw_traced_wall = sum(traced["latencies"]) + traced["finish_s"]
    metrics["trace.uncovered_share"] = traced["uncovered_s"] / raw_traced_wall
    attempted = ops + plain["ops"]
    failed = min(attempted, traced["failed_ops"] + traced["run_failures"]
                 + plain["failed_ops"] + plain["run_failures"])
    traced["failures"] = plain["failures"] + traced["failures"]
    notes = {
        "trace.overhead_s": f"per op: traced {traced_wall:.3f} s minus untraced "
                            f"{plain_wall:.3f} s over the same {ops} ops",
        "trace.uncovered_share": "share of traced op time inside no layer span",
        "families.build_s": f"per set-up; the other times are per op, scaled by the "
                            f"traced run's median speed factor {scale:.3f}",
    }
    return traced, metrics, notes, attempted, failed


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = _parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        refuse_environment(os.environ)
        require_source(ROOT)
        meta = metadata(ROOT)
        if args.trace:
            res, metrics, notes, attempted, failed = per_layer(
                args.workload, args.seed, args.seconds, deadline)
        else:
            res, metrics, notes, attempted, failed = end_to_end(
                args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if any(not math.isfinite(v) for v in metrics.values()):
        print(f"perfbench: non-finite metric in {metrics}", file=sys.stderr)
        return 2
    meta["numpy"] = res["numpy"]

    print(f"polycert benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine  " + " ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}"
                                 for k, v in meta.items()))
    print("loop     closed, one caller in one process, serial; "
          f"{res['ops']} ops")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:28s} {value:14.6g} {unit_of(name):6s} {note}")
    for failure in res["failures"]:
        print(f"FAILED   {failure}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
