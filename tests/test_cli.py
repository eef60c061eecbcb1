"""End-to-end tests of the command line interface.

``main`` is called in process; exit codes and the stderr category lines are
part of the scripting contract, so they are asserted literally.
"""

import ast
import json
import os
import re
from pathlib import Path

import pytest

import polycert
import polycert.cli as cli
from polycert.certificates import certificate_from_json, parse_atlas
from polycert.cli import main
from polycert.families import tight_quotient_presentation

HIDDEN_CENTER_RELATORS = (
    "r0 r0; r1 r1; r2 r2; r0 r1 r0 r1 r0 r1 r0 r1; "
    "r2 r0 r1 r0 r1; r0 r2 r0 r2; r1 r2 r1 r2"
)


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for name in ("POLYCERT_MAX_COSETS", "POLYCERT_STRATEGY", "POLYCERT_JOBS",
                 "POLYCERT_UNSAFE_PARAMS"):
        monkeypatch.delenv(name, raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass(capsys):
    code, out, err = run(capsys, "verify", "--family", "tight", "--k", "4,4")
    assert code == 0
    assert err == ""
    assert "order: 32 (2^5)" in out
    assert "type: {4,4}" in out
    assert "intersection: ok (recursive)" in out
    assert "tight: yes" in out
    assert out.rstrip().endswith("result: PASS")


def test_verify_full_ip(capsys):
    code, out, _ = run(capsys, "verify", "--family", "H", "--n", "10",
                       "--s", "2", "--t", "2", "--full-ip")
    assert code == 0
    assert "intersection: ok (full)" in out
    assert "order: 1024 (2^10)" in out
    assert "tight: no" in out


def test_verify_writes_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "verify", "--family", "tight", "--k", "4,4",
                     "--out", str(path))
    assert code == 0
    doc = certificate_from_json(path.read_text())
    assert doc.family == "tight"
    assert doc.params == "k=4,4"
    assert doc.order == 32
    assert doc.f_vector == (4, 8, 4)
    assert doc.passed


def test_verify_missing_flags(capsys):
    code, _, err = run(capsys, "verify", "--family", "G", "--d", "4")
    assert code == 4
    assert "polycert: param-invalid:" in err
    assert "--n" in err and "--k" in err


def test_verify_below_range_total(capsys):
    code, _, err = run(capsys, "verify", "--family", "H", "--n", "8",
                       "--s", "2", "--t", "2")
    assert code == 4
    assert "param-invalid" in err


def test_unsafe_params_flag_and_env(capsys, monkeypatch):
    args = ("verify", "--family", "H", "--n", "8", "--s", "2", "--t", "2")
    code, out, _ = run(capsys, *args, "--unsafe-params")
    assert code == 0
    assert "order: 256 (2^8)" in out
    monkeypatch.setenv("POLYCERT_UNSAFE_PARAMS", "1")
    code, out, _ = run(capsys, *args)
    assert code == 0


def test_verify_raw_check_failed(capsys):
    code, out, err = run(capsys, "verify", "--family", "raw",
                         "--generators", "3", "--relators", HIDDEN_CENTER_RELATORS)
    assert code == 3
    assert "result: FAIL" in out
    assert "intersection: FAILED" in out
    assert "polycert: check-failed:" in err


def test_verify_infinite_group_hits_limit(capsys):
    code, _, err = run(capsys, "verify", "--family", "coxeter", "--k", "4,4",
                       "--max-cosets", "200")
    assert code == 5
    assert "polycert: limit-exceeded:" in err


def test_max_cosets_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("POLYCERT_MAX_COSETS", "10")
    code, _, err = run(capsys, "verify", "--family", "tight", "--k", "4,4")
    assert code == 5
    assert "limit-exceeded" in err
    code, _, _ = run(capsys, "verify", "--family", "tight", "--k", "4,4",
                     "--max-cosets", "100000")
    assert code == 0
    monkeypatch.setenv("POLYCERT_MAX_COSETS", "ten")
    code, _, err = run(capsys, "verify", "--family", "tight", "--k", "4,4")
    assert code == 4
    assert "not an integer" in err


def test_strategy_env(capsys, monkeypatch):
    monkeypatch.setenv("POLYCERT_STRATEGY", "felsch")
    code, out, _ = run(capsys, "verify", "--family", "tight", "--k", "4,4")
    assert code == 0
    assert "result: PASS" in out
    monkeypatch.setenv("POLYCERT_STRATEGY", "banana")
    code, _, err = run(capsys, "verify", "--family", "tight", "--k", "4,4")
    assert code == 4
    assert "POLYCERT_STRATEGY" in err
    # an explicit flag wins before the environment is even looked at
    code, _, _ = run(capsys, "verify", "--family", "tight", "--k", "4,4",
                     "--strategy", "hlt")
    assert code == 0


def test_verify_from_presentation_file(capsys, tmp_path):
    path = tmp_path / "group.txt"
    path.write_text(tight_quotient_presentation((4, 4)).to_text())
    code, out, _ = run(capsys, "verify", "--family", "raw",
                       "--presentation-file", str(path), "--type", "4,4")
    assert code == 0
    assert "result: PASS" in out
    code, _, err = run(capsys, "verify", "--family", "raw",
                       "--presentation-file", str(tmp_path / "missing.txt"))
    assert code == 4
    assert "cannot read presentation file" in err


def test_verify_raw_needs_input(capsys):
    code, _, err = run(capsys, "verify", "--family", "raw")
    assert code == 4
    assert "--generators" in err


def strip_seconds(text):
    lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            lines.append(line)
        else:
            lines.append(line.rsplit("\t", 1)[0])
    return lines


def test_sweep_single_rank(capsys, tmp_path):
    first = tmp_path / "a.tsv"
    second = tmp_path / "b.tsv"
    base = ("sweep", "--d-min", "3", "--d-max", "3",
            "--n-min", "10", "--n-max", "10")
    code, _, err = run(capsys, *base, "--out", str(first))
    assert code == 0 and err == ""
    rows, skipped = parse_atlas(first.read_text())
    assert len(rows) == 21
    assert skipped == []
    assert all(r.passed and r.family == "G" and r.rank == 3 for r in rows)
    assert all(r.order == 1 << 10 and r.log2_order == 10 for r in rows)
    # byte-identical reruns apart from the wall-clock column
    code, _, _ = run(capsys, *base, "--out", str(second))
    assert code == 0
    assert strip_seconds(first.read_text()) == strip_seconds(second.read_text())


def test_sweep_parallel_matches_serial(capsys, tmp_path):
    serial = tmp_path / "serial.tsv"
    parallel = tmp_path / "parallel.tsv"
    base = ("sweep", "--d-min", "3", "--d-max", "3",
            "--n-min", "10", "--n-max", "10")
    assert run(capsys, *base, "--out", str(serial))[0] == 0
    assert run(capsys, *base, "--jobs", "2", "--out", str(parallel))[0] == 0
    assert strip_seconds(serial.read_text()) == strip_seconds(parallel.read_text())


def _die_in_worker(task):
    os._exit(1)


def test_sweep_dead_worker_is_a_limit(capsys, monkeypatch):
    # a worker killed for memory leaves the pool broken; that is a limit,
    # reported on one line, not a traceback
    monkeypatch.setattr(cli, "_sweep_one", _die_in_worker)
    code, out, err = run(capsys, "sweep", "--d-min", "3", "--d-max", "3",
                         "--n-min", "9", "--n-max", "9", "--k-min", "4",
                         "--jobs", "2")
    assert code == 5
    assert out == ""
    assert err.splitlines() == [
        "polycert: limit-exceeded: a sweep worker died (out of memory?)"]


def test_sweep_rejects_bad_ranges(capsys):
    code, _, err = run(capsys, "sweep", "--d-min", "4", "--d-max", "3")
    assert code == 4
    assert "empty sweep range" in err
    code, _, err = run(capsys, "sweep", "--d-min", "2", "--d-max", "2")
    assert code == 4
    code, _, err = run(capsys, "sweep", "--jobs", "0")
    assert code == 4


def test_export_json_and_tsv(capsys, tmp_path):
    atlas = tmp_path / "atlas.tsv"
    base = ("sweep", "--d-min", "3", "--d-max", "3",
            "--n-min", "10", "--n-max", "10")
    assert run(capsys, *base, "--out", str(atlas))[0] == 0

    out_json = tmp_path / "atlas.json"
    code, _, _ = run(capsys, "export", "--in", str(atlas),
                     "--format", "json", "--out", str(out_json))
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["atlas_version"] == 1
    assert len(payload["rows"]) == 21
    assert payload["skipped"] == []
    assert payload["rows"][0]["order"] == 1024

    out_tsv = tmp_path / "roundtrip.tsv"
    code, _, _ = run(capsys, "export", "--in", str(atlas),
                     "--format", "tsv", "--out", str(out_tsv))
    assert code == 0
    assert out_tsv.read_text() == atlas.read_text()


def test_export_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "export", "--in", str(tmp_path / "none.tsv"))
    assert code == 4
    assert "cannot read atlas" in err
    bad = tmp_path / "bad.tsv"
    bad.write_text("family\tparams\n")
    code, _, err = run(capsys, "export", "--in", str(bad))
    assert code == 4
    assert "format-invalid" in err


def test_paper_tables(capsys):
    code, out, err = run(capsys, "paper-tables")
    assert code == 0 and err == ""
    assert "(3,5): 1 tuples, 1 verified" in out
    assert "(4,9): 10 tuples, 10 verified" in out
    assert "(5,9): 1 tuples, 1 verified" in out
    assert "k=4,4: order 32" in out
    assert "k=8,8,8: order 1024" in out
    assert out.rstrip().endswith("all verified")


def test_hasse_exports(capsys):
    code, out, _ = run(capsys, "hasse", "--family", "tight", "--k", "4,4",
                       "--format", "edges")
    assert code == 0
    assert len(out.strip().split("\n")) == 40
    code, out, _ = run(capsys, "hasse", "--family", "tight", "--k", "4,4",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph hasse {")


def test_hasse_guards(capsys):
    code, _, err = run(capsys, "hasse", "--family", "tight", "--k", "4,4",
                       "--max-order", "16")
    assert code == 5
    assert "limit-exceeded" in err
    code, _, err = run(capsys, "hasse", "--family", "raw",
                       "--generators", "3", "--relators", HIDDEN_CENTER_RELATORS)
    assert code == 3
    assert "check-failed" in err


def test_environment_knobs_are_documented():
    """Every POLYCERT_* name the library reads appears in README's table."""
    read = set()
    for path in Path(polycert.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.fullmatch(r"POLYCERT_[A-Z_]+", node.value)):
                read.add(node.value)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set(re.findall(r"^\| `(POLYCERT_[A-Z_]+)", readme, re.MULTILINE))
    assert read, "no environment knobs found; the scan is broken"
    assert read <= documented, f"undocumented: {sorted(read - documented)}"
