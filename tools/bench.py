"""Record the benchmark and the end-to-end timings of one checkout in a JSON file.

    python3 tools/bench.py BENCH_<n>.json

Run it from anywhere in a source checkout; it uses the standard library only
and takes about fifteen minutes on a 2-core machine. It runs
``perfbench/run.py`` as it stands, reading the JSON object on the last line
of each run:

- five ``--trace 0`` runs per workload, on the fixed seeds ``SEEDS``, with
  the median and quartiles of each end-to-end metric;
- one ``--trace 1`` run per workload, for the per-layer metrics.

It then times, each in a fresh process: ``polycert sweep`` on the default
grid, serial and with ``--jobs 2``; ``polycert paper-tables``; and the
Tier-1 suite. The file also holds the commit, perfbench's machine line, the
line counts of ``src/polycert`` and ``tests`` (every line, and the lines
that hold code), and the caveats that apply to the numbers. Nothing else is
configurable, so every file is made the same way; run nothing else on the
machine meanwhile.
"""

from __future__ import annotations

import ast
import io
import json
import os
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("atlas", "audit", "limit")
SEEDS = (1001, 1002, 1003, 1004, 1005)
SECONDS = 30  # BENCHMARK.json's run_seconds
CAVEATS = (
    "realize.build_self_s is not meaningful on the orbit route: perfbench subtracts a "
    "separately timed plain-HLT probe from a span that takes the route, so it reads "
    "below zero",
    "realize.left_arrays is always 0: nothing in src/ writes that key",
    "cli.self_s is not meaningful on limit: limit_op moves a separately probed enumeration "
    "time out of the cli.main span, so it reads below zero",
    "audit compares tables through CosetTable.table, one list copy per coset, about 4 ms "
    "per op at order 4096",
    "perfbench/calibrate.py's reference kernel runs in the worker's heap, so a library "
    "change can move the speed factor and with it every reported time",
)


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("POLYCERT_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def perfbench(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    """The last-line JSON object of one perfbench run, and its machine line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True).stdout
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"bench: no result from {' '.join(cmd)}")
    machine = next((line[len("machine"):].strip() for line in lines
                    if line.startswith("machine ")), "")
    return json.loads(lines[-1]), machine


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def wall(args: list[str]) -> dict:
    """Wall time of one command run from the checkout, with its exit code and
    the last line it printed."""
    started = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, env=_env(), capture_output=True, text=True)
    seconds = time.perf_counter() - started
    tail = (proc.stdout.strip().splitlines() or [""])[-1]
    return {"seconds": round(seconds, 3), "exit": proc.returncode, "last_line": tail}


def line_count(folder: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(folder.glob("*.py")))


# Tokens that hold no code: a line with only these is blank or a comment.
NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(folder: Path) -> int:
    """Lines of ``folder``'s Python files that hold code: neither blank, nor
    only a comment, nor part of a docstring."""
    total = 0
    for p in sorted(folder.glob("*.py")):
        text = p.read_text(encoding="utf-8")
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in NO_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                lines.difference_update(range(node.body[0].lineno,
                                              node.body[0].end_lineno + 1))
        total += len(lines)
    return total


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    machine = ""
    workloads = {}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            result, machine = perfbench(workload, seed, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: {result['metrics']['ops_per_s']['value']:.3f} "
                  f"ops/s", file=sys.stderr, flush=True)
        traced, _ = perfbench(workload, SEEDS[0], 1)
        names = runs[0]["metrics"]
        workloads[workload] = {
            "correct": [r["correct"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {name: {"unit": names[name]["unit"],
                                  **summary([r["metrics"][name]["value"] for r in runs])}
                           for name in names},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "per_layer_correct": traced["correct"],
        }
    cli = [sys.executable, "-m", "polycert.cli"]
    timings = {
        "sweep_serial": wall(cli + ["sweep", "--out", os.devnull]),
        "sweep_jobs2": wall(cli + ["sweep", "--jobs", "2", "--out", os.devnull]),
        "paper_tables": wall(cli + ["paper-tables"]),
        "tier1": wall([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                       "--continue-on-collection-errors"]),
    }
    # the commit, with "-dirty" when the checkout has uncommitted changes
    commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                            cwd=ROOT, capture_output=True, text=True).stdout.strip()
    report = {
        "commit": commit,
        "machine": machine,
        "lines": {"src/polycert": line_count(ROOT / "src" / "polycert"),
                  "tests": line_count(ROOT / "tests")},
        "code_lines": {"src/polycert": code_lines(ROOT / "src" / "polycert"),
                       "tests": code_lines(ROOT / "tests")},
        "perfbench": {"seconds": SECONDS, "seeds": list(SEEDS), "workloads": workloads},
        "wall": timings,
        "caveats": list(CAVEATS),
    }
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
