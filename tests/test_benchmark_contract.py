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

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
