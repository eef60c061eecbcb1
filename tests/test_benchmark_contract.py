"""The library contract that the benchmark in ``perfbench/`` relies on.

The benchmark is kept apart from the library and is not edited along with
it, so this test loads ``perfbench/workloads.py`` as it stands and runs its
operations on small inputs. A change to a name, a signature or an output
that the benchmark reads fails here, not first in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from polycert.families import family_g, tight_quotient_presentation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


def test_atlas_op_reports_no_problems(workloads):
    params = (3, 10, (4, 4))
    row, problems = workloads.atlas_op(("G", params, family_g(*params)))
    assert problems == []
    assert row.passed and row.order == 1 << 10
    assert workloads.finish_atlas([row], None)[0] == []  # the atlas text round trip


def test_audit_battery_reports_no_problems(workloads):
    k = (8, 8, 8)
    outcome = workloads.audit_outcome(("tight", k, tight_quotient_presentation(k)))
    assert workloads.check_audit(outcome) == []
    assert outcome["order"] == 1024


def test_limit_op_reports_no_problems(workloads):
    # exit 5 with one ``polycert: limit-exceeded:`` line, at the 100k coset limit
    assert workloads.limit_op("hlt") == []


def test_traced_ops_report_no_problems(workloads):
    # ``--trace 1`` wraps library methods by name and reads ``stats`` keys
    tr = load("spans").Tracer()
    workloads.install_spans(tr)
    try:
        params = (3, 10, (4, 4))
        entry = ("G", params, family_g(*params))
        _, problems = workloads.atlas_op(entry, tr, workloads.probe("atlas", entry, {}))
        assert problems == []
        k = (4, 4, 4)
        entry = ("tight", k, tight_quotient_presentation(k))
        outcome = workloads.audit_outcome(entry, tr, workloads.probe("audit", entry, {}))
        assert workloads.check_audit(outcome) == []
    finally:
        tr.unwrap_all()
    assert {"realize.parabolic", "realize.intersection", "verify.ip_recursive",
            "verify.ip_full"} <= set(tr.self_times())
