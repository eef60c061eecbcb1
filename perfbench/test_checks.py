"""The benchmark's own tests: inputs, output checks and the command contract.

    python3 -m pytest perfbench

Each output check is shown to reject a wrong output, such as a wrong order,
a Felsch table that differs from the HLT one, or a limit run that exits 0.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from polycert import cli, families  # noqa: E402


def _bench(args, cwd=ROOT, env=None):
    env = {k: v for k, v in (env or os.environ).items()}
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


# -- inputs -----------------------------------------------------------------------

def test_atlas_pool_is_the_default_sweep_grid():
    expected = sorted((d, n, ks) for d in range(3, 6) for n in range(10, 13)
                      for ks in cli._all_exponents(d, n, 2))
    assert len(wl.atlas_pool()) == 251
    assert sorted(wl.atlas_pool()) == expected


def test_audit_pool_has_order_4096_at_every_rank():
    assert {n for _, n, _ in wl.audit_pool()} == {12}
    assert {d for d, _, _ in wl.audit_pool()} == {3, 4, 5}


def test_pools_are_visited_from_cheap_to_costly():
    pool = [(d, n, ks, families.family_g(d, n, ks)) for d, n, ks in wl.atlas_pool()]
    ordered = wl.by_size(pool)
    assert sorted(e[:3] for e in ordered) == sorted(e[:3] for e in pool)
    sizes = [wl.size_key(*e) for e in ordered]
    assert sizes == sorted(sizes)
    assert ordered[0][1] == 10 and ordered[-1][1] == 12


def test_visit_order_depends_only_on_the_seed_and_stays_cold():
    a, b, c = wl.VisitOrder(251, 5), wl.VisitOrder(251, 5), wl.VisitOrder(251, 6)
    assert [a[i] for i in range(200)] == [b[i] for i in range(200)]
    assert [a[i] for i in range(200)] != [c[i] for i in range(200)]
    last = {}
    for i in range(400):
        j = a[i]
        assert i - last.get(j, -10**9) >= 64
        last[j] = i


# -- output checks ------------------------------------------------------------------

@pytest.fixture(scope="module")
def atlas_row():
    d, n, ks = 3, 10, (2, 2)
    row, problems = wl.atlas_op(("G", (d, n, ks), families.family_g(d, n, ks)))
    assert problems == []
    return row


@pytest.mark.parametrize("change", [
    {"order": 2048}, {"schlafli_type": (4, 8)}, {"passed": False}, {"rank": 4},
])
def test_atlas_row_check_rejects_a_wrong_row(atlas_row, change):
    assert wl.check_atlas_row(dataclasses.replace(atlas_row, **change), 3, 10, (2, 2))


def test_atlas_checks_reject_text_and_row_changes(atlas_row):
    from polycert.certificates import format_atlas

    text = format_atlas([atlas_row])
    assert wl.check_atlas_text(text) == []
    assert wl.check_atlas_text(text.replace("\ttrue\t", "\tyes\t", 1))
    assert wl.check_same_rows(atlas_row, dataclasses.replace(atlas_row, seconds=9.0)) == []
    assert wl.check_same_rows(atlas_row, dataclasses.replace(atlas_row, minimal=False))
    blanked = format_atlas(wl.blank_seconds([atlas_row]))
    assert wl.check_reference(blanked, None) == []
    assert wl.check_reference(blanked, blanked) == []
    assert wl.check_reference(blanked, blanked.replace("1024", "2048"))


def test_finish_atlas_reports_a_changed_reference(atlas_row):
    problems, text = wl.finish_atlas([atlas_row, atlas_row], None)
    assert problems == []
    problems, _ = wl.finish_atlas([atlas_row], text.replace("false", "true"))
    assert problems


@pytest.fixture(scope="module")
def audit_outcome():
    entry = ("tight", (4, 4), families.tight_quotient_presentation((4, 4)))
    outcome = wl.audit_outcome(entry)
    assert wl.check_audit(outcome) == []
    return outcome


def _other_table(table):
    changed = [list(row) for row in table]
    changed[1], changed[2] = changed[2], changed[1]
    return changed


@pytest.mark.parametrize("field, wrong", [
    ("order", lambda o: o["order"] * 2),
    ("chain_order", lambda o: o["chain_order"] // 2),
    ("felsch_table", lambda o: _other_table(o["felsch_table"])),
    ("full", lambda o: dataclasses.replace(o["full"], intersection_ok=False)),
    ("recursive", lambda o: dataclasses.replace(o["recursive"], schlafli_type=(4, 8))),
    ("lattice_f_vector", lambda o: (4, 8, 5)),
    ("diamond", lambda o: False),
    ("section_connectivity", lambda o: False),
    ("hasse_edges", lambda o: o["hasse_edges"] - 1),
    ("document_back", lambda o: dataclasses.replace(o["document_back"], order=64)),
])
def test_audit_check_rejects_a_wrong_output(audit_outcome, field, wrong):
    changed = dict(audit_outcome, **{field: wrong(audit_outcome)})
    assert wl.check_audit(changed)


@pytest.mark.parametrize("code, stdout, stderr, ok", [
    (5, "", "polycert: limit-exceeded: enumeration stopped\n", True),
    (0, "result: PASS\n", "", False),
    (3, "", "polycert: limit-exceeded: enumeration stopped\n", False),
    (5, "", "polycert: limit-exceeded: a\npolycert: limit-exceeded: b\n", False),
    (5, "", "Traceback (most recent call last):\npolycert: limit-exceeded: a\n", False),
    (5, "", "", False),
])
def test_limit_check(code, stdout, stderr, ok):
    assert (wl.check_limit(code, stdout, stderr) == []) == ok


def test_tail_latency():
    assert run.tail_latency([float(i) for i in range(1, 201)]) == (190.0, 95.0, 10)
    assert run.tail_latency([float(i) for i in range(1, 31)]) == (20.0, 200 / 3, 10)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_op_factors_follow_the_nearest_kernel_samples():
    ref = calibrate.REFERENCE_S
    # the machine runs at half speed from op 4 on; one kernel sample is an outlier
    kernels = [ref] * 4 + [2 * ref] * 5
    kernels[1] = 10 * ref
    factors = calibrate.op_factors(kernels, 8)
    assert factors[:2] == [1.0, 1.0]
    assert factors[5:] == [0.5, 0.5, 0.5]
    with pytest.raises(ValueError):
        calibrate.op_factors(kernels, 9)


def test_steady_times_scale_raw_times():
    ref = calibrate.REFERENCE_S
    res = {"ops": 2, "kernels": [2 * ref] * 3, "latencies": [1.0, 3.0], "finish_s": 0.5}
    assert run.steady_times(res) == ([0.5, 1.5], 0.25)


# -- the command ------------------------------------------------------------------------

def test_refuses_polycert_environment():
    with pytest.raises(run.BenchError, match="POLYCERT_NO_VALIDATE"):
        run.refuse_environment({"POLYCERT_NO_VALIDATE": "1", "HOME": "/"})
    res = _bench(["--workload", "atlas", "--seed", "1", "--seconds", "1"],
                 env=dict(os.environ, POLYCERT_STRATEGY="felsch"))
    assert res.returncode != 0
    assert res.stdout == ""


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    res = _bench(["--workload", "atlas", "--seed", "1", "--seconds", "1", "--trace", "0"],
                 cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_reports_exactly_the_declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = _bench(["--workload", "atlas", "--seed", "3", "--seconds", "2", "--trace", trace])
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
