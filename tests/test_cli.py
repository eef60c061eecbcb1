"""End-to-end tests of the command line interface.

``main`` is called in process; exit codes and the stderr category lines are
part of the scripting contract, so they are asserted literally.
"""

import ast
import dataclasses
import io
import json
import os
import subprocess
import sys
import types
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import polycert
import polycert.cli as cli
import polycert.coset as coset_mod
import polycert.words as words_mod
from polycert.certificates import certificate_from_json, format_atlas, parse_atlas
from polycert.cli import main
import polycert.errors as errors_mod
from polycert.families import tight_quotient_presentation

HIDDEN_CENTER_RELATORS = (
    "r0 r0; r1 r1; r2 r2; r0 r1 r0 r1 r0 r1 r0 r1; "
    "r2 r0 r1 r0 r1; r0 r2 r0 r2; r1 r2 r1 r2"
)


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


@pytest.mark.parametrize("argv, params, declared", [
    (("--family", "G", "--d", "4", "--n", "10", "--k", "2,2,3"),
     "d=4;n=10;k=2,2,3", (4, 4, 8)),
    (("--family", "G", "--d", "3", "--n", "10", "--k", "04,4"),
     "d=3;n=10;k=04,4", (16, 16)),
    (("--family", "H", "--n", "10", "--s", "2", "--t", "3"), "n=10;s=2;t=3", (4, 8)),
    (("--family", "K", "--d", "4", "--k", "2,2,2"), "d=4;k=2,2,2", (4, 4, 4)),
    (("--family", "L", "--d", "4", "--k", "2,3,2"), "d=4;k=2,3,2", (4, 8)),
    (("--family", "M", "--d", "4", "--n", "10", "--k", "2,2,2"),
     "d=4;n=10;k=2,2,2", (2, 4, 4)),
    (("--family", "A", "--rank", "3", "--l", "1", "--k", "2,3"),
     "rank=3;l=1;k=2,3", (4, 8)),
    (("--family", "coxeter", "--k", "2,3"), "k=2,3", (2, 3)),
    (("--family", "tight", "--k", "4,8"), "k=4,8", (4, 8)),
], ids=["G", "G-as-typed", "H", "K", "L", "M", "A", "coxeter", "tight"])
def test_verify_every_family(capsys, tmp_path, argv, params, declared):
    # the params text keeps each flag as typed, in the family's flag order
    path = tmp_path / "cert.json"
    code, out, err = run(capsys, "verify", *argv, "--out", str(path))
    assert (code, err) == (0, "")
    assert f"params: {params}" in out.splitlines()
    doc = certificate_from_json(path.read_text())
    assert (doc.family, doc.params, doc.declared_type) == (argv[1], params, declared)


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
    # the environment no longer lifts the range guard; only the flag does
    monkeypatch.setenv("POLYCERT_UNSAFE_PARAMS", "1")
    code, _, err = run(capsys, *args)
    assert code == 4
    assert "param-invalid" in err


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


def test_word_length_cap_is_a_limit(capsys, monkeypatch):
    # the relator (r0 r1)^64 has 128 letters; the cap refuses it before it is built
    monkeypatch.setattr(words_mod, "MAX_WORD_LETTERS", 64)
    code, out, err = run(capsys, "verify", "--family", "K", "--d", "3", "--k", "6,2")
    assert code == 5 and out == ""
    assert err.splitlines() == [
        "polycert: limit-exceeded: a power of a 2-letter word exceeds the 64-letter cap"]


def test_huge_exponent_is_a_limit(capsys):
    # a k entry or an n of 10^8 is refused before 2^(10^8) is built
    for argv in (("--family", "K", "--d", "3", "--k", "100000000,2"),
                 ("--family", "G", "--d", "3", "--n", "100000000", "--k", "2,2")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 5 and out == ""
        assert err.splitlines() == ["polycert: limit-exceeded: a power 2^e with e above 22 "
                                    "exceeds the 4194304-letter cap"]


def test_max_cosets_env_and_flag_precedence(capsys, monkeypatch):
    args = ("verify", "--family", "tight", "--k", "4,4")
    code, _, err = run(capsys, *args, "--max-cosets", "10")
    assert code == 5
    assert "limit-exceeded" in err
    _, expected, _ = run(capsys, *args)
    # the flag is the only source of the limit: the environment is ignored
    for value in ("10", "ten"):
        monkeypatch.setenv("POLYCERT_MAX_COSETS", value)
        assert run(capsys, *args) == (0, expected, "")
        assert run(capsys, *args, "--max-cosets", "100000") == (0, expected, "")


def test_strategy_env(capsys, monkeypatch):
    args = ("verify", "--family", "tight", "--k", "4,4")
    code, expected, _ = run(capsys, *args, "--strategy", "felsch")
    assert code == 0
    assert "result: PASS" in expected
    assert run(capsys, *args, "--strategy", "hlt") == (0, expected, "")
    # the environment names no strategy, not even an invalid one
    monkeypatch.setenv("POLYCERT_STRATEGY", "banana")
    assert run(capsys, *args) == (0, expected, "")


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "tight", "--k", "4,4"),
    ("sweep",),
    ("paper-tables",),
    ("hasse", "--family", "tight", "--k", "4,4"),
])
def test_max_cosets_must_be_positive(capsys, argv):
    for value in ("0", "-3"):
        code, out, err = run(capsys, *argv, "--max-cosets", value)
        assert (code, out) == (4, "")
        assert err.splitlines() == [
            "polycert: param-invalid: max_cosets must be positive"]


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


def test_raw_inverse_letters_are_refused(capsys, tmp_path):
    # read as r0, r0^-1 would make the trivial relator "r0 r0^-1" pass as
    # the square that declares r0 an involution
    path = tmp_path / "group.txt"
    path.write_text("gens 2\nrel r0 r0\nrel r1^-1 r1^-1\n")
    for argv, token in (
            (("--relators", "r0 r0; r0^-1 r0^-1", "--generators", "1"), "r0^-1"),
            (("--presentation-file", str(path)), "r1^-1")):
        code, out, err = run(capsys, "verify", "--family", "raw", *argv)
        assert (code, out) == (4, "")
        assert err.splitlines() == [f"polycert: param-invalid: bad word token '{token}'"]


@pytest.mark.parametrize("argv, message", [
    (("verify", "--family", "raw", "--presentation-file", "{latin1}"),
     "cannot read presentation file: 'utf-8' codec can't decode"),
    (("export", "--in", "{latin1}"), "cannot read atlas: 'utf-8' codec can't decode"),
    (("verify", "--family", "tight", "--k", "4,4", "--out", "{nodir}"),
     "cannot write output: [Errno 2]"),
    (("sweep", "--d-min", "3", "--d-max", "3", "--n-min", "9", "--n-max", "9",
      "--k-min", "4", "--out", "{nodir}"), "cannot write output: [Errno 2]"),
    (("paper-tables", "--out", "{nodir}"), "cannot write output: [Errno 2]"),
    (("hasse", "--family", "tight", "--k", "4,4", "--out", "{nodir}"),
     "cannot write output: [Errno 2]"),
], ids=["presentation-file", "export-in", "verify-out", "sweep-out", "paper-tables-out",
        "hasse-out"])
def test_file_errors_are_param_invalid(capsys, tmp_path, argv, message):
    # an unreadable input or an --out in a missing directory ends in one
    # stderr line and exit 4, not a traceback
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("generators 3\n# caf\u00e9\n".encode("latin-1"))
    paths = {"latin1": str(latin1), "nodir": str(tmp_path / "missing" / "out.txt")}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (4, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"polycert: param-invalid: {message}")


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "tight", "--k", "4,4"),
    ("sweep", "--d-min", "3", "--d-max", "3", "--n-min", "10", "--n-max", "10"),
    ("paper-tables",),
    ("hasse", "--family", "tight", "--k", "4,4"),
], ids=["verify", "sweep", "paper-tables", "hasse"])
def test_unwritable_out_fails_before_the_work(capsys, monkeypatch, tmp_path, argv):
    # every command that writes a file checks --out before it certifies or
    # realizes anything
    def no_work(*args, **kwargs):
        raise AssertionError("the work started before --out was checked")

    monkeypatch.setattr(cli, "certify", no_work)
    monkeypatch.setattr(cli, "realize", no_work)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "a.txt"))
    assert (code, out) == (4, "")
    assert err.splitlines() == [
        f"polycert: param-invalid: cannot write output: [Errno 2] No such file or "
        f"directory: '{tmp_path / 'missing' / 'a.txt'}'"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (("hasse", "--family", "raw", "--generators", "2", "--relators", "r0 r0 r0; r1 r1",
      "--max-cosets", "200000"), "generators [0] have no square relator"),
    (("hasse", "--family", "raw", "--presentation-file", "{no_square}"),
     "generators [1] have no square relator"),
    (("verify", "--family", "raw", "--generators", "2", "--relators", "r0 r0; r1 r0 r1 r0"),
     "generators [1] have no square relator"),
    (("verify", "--family", "raw", "--presentation-file", "{no_square}"),
     "generators [1] have no square relator"),
    (("hasse", "--family", "tight", "--k", "4,4", "--max-order", "0"),
     "--max-order must be at least 1"),
    (("sweep", "--d-min", "3", "--d-max", "3", "--n-min", "10", "--n-max", "10",
      "--k-min", "0"), "--k-min must be at least 2"),
], ids=["hasse-spec", "hasse-file-spec", "verify-spec", "verify-file-spec", "hasse-max-order",
        "sweep-k-min"])
def test_invalid_parameters_fail_before_the_work(capsys, monkeypatch, tmp_path, argv,
                                                 message):
    def no_work(*args, **kwargs):
        raise AssertionError("the work started before the parameters were checked")

    monkeypatch.setattr(cli, "certify", no_work)
    monkeypatch.setattr(cli, "realize", no_work)
    no_square = tmp_path / "no_square.txt"
    no_square.write_text("gens 2\nrel r0 r0\nrel r1 r0 r1 r0\n")
    code, out, err = run(capsys, *(arg.format(no_square=no_square) for arg in argv))
    assert (code, out) == (4, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"polycert: param-invalid: {message}")


def test_out_check_leaves_no_file_behind(capsys, tmp_path):
    out = tmp_path / "hasse.dot"
    code, _, _ = run(capsys, "hasse", "--family", "raw", "--generators", "3",
                     "--relators", HIDDEN_CENTER_RELATORS, "--out", str(out))
    assert code == 3
    assert not out.exists()


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


def test_import_loads_no_process_pool():
    # only `sweep --jobs` above 1 starts a pool, so only it loads one
    code = ("import sys, polycert, polycert.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(Path(polycert.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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


def test_export_to_a_missing_directory_is_param_invalid(capsys, tmp_path):
    # export checks its output only when it writes, after the parse
    atlas = tmp_path / "atlas.tsv"
    atlas.write_text(format_atlas([], []))
    code, out, err = run(capsys, "export", "--in", str(atlas),
                         "--out", str(tmp_path / "missing" / "atlas.json"))
    assert code == 4
    assert out == ""
    assert err.startswith("polycert: param-invalid: cannot write output: ")
    assert err.count("\n") == 1


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


def test_hasse_max_order_bounds_each_enumeration(capsys, monkeypatch):
    # the bound is a coset limit on every enumeration, so a larger group
    # stops at the first one that passes it, with the --max-order message
    code, out, err = run(capsys, "hasse", "--family", "tight", "--k", "4,4",
                         "--max-order", "16")
    assert (code, out) == (5, "")
    assert err.splitlines() == [
        "polycert: limit-exceeded: --max-order 16 exceeded: coset limit 16 exceeded "
        "(the regular table has 32 cosets; 8 cosets created in 2 enumerations)"]
    code, out, err = run(capsys, "hasse", "--family", "coxeter", "--k", "4,4",
                         "--max-order", "1000")
    assert (code, out) == (5, "")
    assert err.splitlines() == [
        "polycert: limit-exceeded: --max-order 1000 exceeded: coset limit 1000 exceeded "
        "(1000 cosets created, 1000 live, 12288 table bytes; the table is not closed)"]
    # a --max-cosets below it, or another limit, keeps its own message
    code, _, err = run(capsys, "hasse", "--family", "coxeter", "--k", "4,4",
                       "--max-order", "1000", "--max-cosets", "500")
    assert code == 5
    assert err.startswith("polycert: limit-exceeded: coset limit 500 exceeded (500 cosets")
    monkeypatch.setattr(coset_mod, "MAX_DEDUCTIONS", 100)
    code, _, err = run(capsys, "hasse", "--family", "coxeter", "--k", "4,4",
                       "--max-order", "1000", "--strategy", "felsch")
    assert code == 5
    assert err.startswith("polycert: limit-exceeded: deduction limit 100 exceeded")
    # a group of exactly --max-order elements passes
    code, out, err = run(capsys, "hasse", "--family", "tight", "--k", "4,4",
                         "--max-order", "32", "--format", "edges")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 40


@pytest.mark.parametrize("check, failure, name", [
    ("check_flag_matchings", (False, (1,)), "flag matching"),
    ("check_flag_connectivity", False, "flag connectivity"),
    ("check_diamond", (False, ((1, 0, 0, 1),)), "diamond"),
    ("check_section_connectivity", False, "section connectivity"),
])
def test_hasse_refuses_a_lattice_that_fails_a_check(capsys, monkeypatch, tmp_path,
                                                     check, failure, name):
    monkeypatch.setattr(cli, check, lambda *args, **kwargs: failure)
    target = tmp_path / "lattice.dot"
    code, out, err = run(capsys, "hasse", "--family", "tight", "--k", "4,4")
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        f"polycert: check-failed: face lattice fails the {name} check"]
    code, _, _ = run(capsys, "hasse", "--family", "tight", "--k", "4,4",
                     "--out", str(target))
    assert code == 3
    assert not target.exists()


def test_sweep_ip_both_skips_a_tuple_whose_verdicts_disagree(capsys, monkeypatch, tmp_path):
    # three tuples, k = (4, 4), (4, 5) and (5, 4), that pass in both modes
    argv = ("sweep", "--d-min", "3", "--d-max", "3", "--n-min", "10", "--n-max", "10",
            "--k-min", "4", "--ip", "both", "--out", str(tmp_path / "atlas.tsv"))
    assert run(capsys, *argv)[::2] == (0, "")
    certify = cli.certify

    def full_mode_flips(spec, mode, **kwargs):
        cert = certify(spec, mode=mode, **kwargs)
        if mode == "full":
            cert = dataclasses.replace(cert, intersection_ok=not cert.intersection_ok)
        return cert

    monkeypatch.setattr(cli, "certify", full_mode_flips)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.splitlines() == ["polycert: check-failed: 0 failing rows, 3 skipped"]
    rows, skipped = parse_atlas((tmp_path / "atlas.tsv").read_text())
    assert rows == []
    assert skipped == [("G", f"d=3;n=10;k={k}",
                        "CheckFailedError: recursive and full intersection checks disagree")
                       for k in ("4,4", "4,5", "5,4")]


def test_paper_tables_report_a_wrong_order(capsys, monkeypatch):
    realize = cli.realize

    def one_more(p, limits, strategy):
        return types.SimpleNamespace(order=realize(p, limits, strategy).order + 1)

    monkeypatch.setattr(cli, "realize", one_more)
    code, out, err = run(capsys, "paper-tables")
    assert code == 3
    assert "(3,5): 1 tuples, 0 verified MISMATCH" in out
    assert "k=4,4: order 33 MISMATCH (expected 32)" in out
    assert out.rstrip().endswith("MISMATCHES FOUND")
    assert err.splitlines() == ["polycert: check-failed: table values did not reproduce"]


# README's exit codes, class by class: every error class needs its row here.
EXIT_CODES = {
    "PolycertError": ("param-invalid", 4),
    "ParameterError": ("param-invalid", 4),
    "InvalidWordError": ("param-invalid", 4),
    "InvalidGeneratorError": ("param-invalid", 4),
    "FormatError": ("format-invalid", 4),
    "LimitExceededError": ("limit-exceeded", 5),
    "CapacityError": ("limit-exceeded", 5),
    "CheckFailedError": ("check-failed", 3),
    "TableNotClosedError": ("check-failed", 3),
    "UncertifiedInputError": ("check-failed", 3),
}
# The table's rows and the module's error classes: a row whose class left
# the hierarchy fails as surely as a class without a row.
ERROR_CLASSES = sorted({*EXIT_CODES, *(
    name for name, c in vars(errors_mod).items()
    if isinstance(c, type) and issubclass(c, errors_mod.PolycertError))})


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_every_error_class_has_its_category_and_exit_code(capsys, monkeypatch, name):
    error = getattr(errors_mod, name)
    assert issubclass(error, errors_mod.PolycertError)

    def fails(*args, **kwargs):
        raise error("the failure")

    monkeypatch.setattr(cli, "certify", fails)
    code, out, err = run(capsys, "verify", "--family", "tight", "--k", "4,4")
    category, exit_code = EXIT_CODES[name]
    assert (code, out) == (exit_code, "")
    assert err.splitlines() == [f"polycert: {category}: the failure"]


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_sweep_skips_a_tuple_on_any_documented_failure(capsys, monkeypatch, tmp_path, name):
    error = getattr(errors_mod, name)

    def fails(*args, **kwargs):
        raise error("the failure")

    monkeypatch.setattr(cli, "certify", fails)
    atlas = tmp_path / "atlas.tsv"
    code, out, err = run(capsys, "sweep", "--d-min", "3", "--d-max", "3", "--n-min", "10",
                         "--n-max", "10", "--k-min", "4", "--out", str(atlas))
    assert (code, out) == (3, "")
    assert err.splitlines() == ["polycert: check-failed: 0 failing rows, 3 skipped"]
    rows, skipped = parse_atlas(atlas.read_text())
    assert rows == []
    assert skipped == [("G", f"d=3;n=10;k={k}", f"{name}: the failure")
                       for k in ("4,4", "4,5", "5,4")]


def _environment_reads(source: str) -> list[str]:
    """Names and literals in ``source`` through which it could read the
    environment: ``environ``, ``getenv`` or a ``POLYCERT_`` string."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in ("environ", "getenv"):
            found.append(node.id)
        elif isinstance(node, ast.alias) and node.name in ("environ", "getenv"):
            found.append(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "POLYCERT_" in node.value):
            found.append(node.value)
    return found


def test_library_reads_no_environment():
    """A run is determined by its command line alone."""
    assert sorted(_environment_reads(
        "import os\nfrom os import getenv\nos.environ.get('POLYCERT_JOBS')\n"
    )) == ["POLYCERT_JOBS", "environ", "getenv"]
    sources = sorted(Path(polycert.__file__).parent.glob("*.py"))
    assert len(sources) > 5, "no library sources found; the scan is broken"
    for path in sources:
        assert _environment_reads(path.read_text()) == [], path.name


def test_readme_family_constructors_exist():
    """Every constructor README's "Group families" table names is a function
    of ``polycert.families``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Group families\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")][1:]
    names = [row.split("|")[2].strip().strip("`").split("(")[0] for row in rows]
    assert len(names) >= 8, "no family table found; the scan is broken"
    for name in names:
        assert callable(getattr(polycert.families, name, None)), name


def _unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never references."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_library_imports_only_what_it_uses():
    """Every imported name is referenced."""
    assert _unused_imports(
        "from __future__ import annotations\nimport os.path, json as j\n"
        "from typing import Iterable, Sequence\nx: Sequence = j.loads(os.sep)\n"
        "def f(y: Iterable): pass\nimport sys as s, re\n"
    ) == ["re", "s"]
    sources = sorted(Path(polycert.__file__).parent.glob("*.py"))
    assert len(sources) > 5, "no library sources found; the scan is broken"
    for path in sources:
        assert _unused_imports(path.read_text()) == [], path.name


def _references(source: str) -> set[str]:
    """Names that ``source`` reads, as loaded names or attribute names,
    outside the definition of the name itself: an import, an assignment
    target, or a name read only inside its own top-level ``def``, ``class``
    or assignment does not count."""
    read = set()
    for stmt in ast.parse(source).body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                 or isinstance(node, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names -= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
        read |= names
    return read


def _public_definitions(source: str) -> set[str]:
    """The names without a leading underscore that ``source`` defines at
    module level, by ``def``, ``class`` or assignment."""
    names = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def test_every_public_name_has_a_caller():
    """Each public module-level name of the library is read in the library,
    outside its own definition, or in the benchmark; API that only its own
    tests call belongs in the tests."""
    snippet = ("from m import a\nb = 1\n_i = b\ndef c(): return c()\n"
               "class g:\n    h: g\nd(e.f, g)\n")
    assert _references(snippet) == {"b", "d", "e", "f", "g"}
    assert _public_definitions(snippet) == {"b", "c", "g"}
    library = sorted(Path(polycert.__file__).parent.glob("*.py"))
    perfbench = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    assert len(library) > 5 and len(perfbench) > 3, "no sources found; the scan is broken"
    read = set().union(*(_references(p.read_text()) for p in library + perfbench))
    for path in library:
        assert sorted(_public_definitions(path.read_text()) - read) == [], path.name


# Paths the generated argv point at: a file that does not exist, a file that
# exists but is neither a presentation nor an atlas, and an output file in a
# directory that does not exist.
MISSING_FILE = str(Path(__file__).with_name("no-such-input.txt"))
NOT_AN_INPUT = __file__
UNWRITABLE_OUT = str(Path(__file__).with_name("no-such-directory") / "out.txt")

# Integers stay small: an exponent e in --k is a relator of 2^(e+1) letters.
_small_ints = st.integers(-1, 6).map(str)
_int_lists = st.one_of(
    st.lists(st.integers(2, 4), min_size=1, max_size=4).map(lambda ks: ",".join(map(str, ks))),
    st.lists(st.integers(-1, 8), max_size=4).map(lambda ks: ",".join(map(str, ks))),
    st.sampled_from(["", ",", "2,,3", "a", "2;3", "2.5", "0x3", " 2 , 3", "+4,4", "4,4,"]))
_relator_text = st.one_of(st.just(HIDDEN_CENTER_RELATORS), st.lists(
    st.lists(st.sampled_from(["r0", "r1", "r2", "r0^-1", "r1^-1", "r7", "r", "x", "1",
                              "r-1", "r0^2"]), max_size=6).map(" ".join),
    max_size=5).map(";".join))
_family_flags = {
    "d": st.integers(2, 5).map(str), "n": st.integers(-1, 12).map(str), "k": _int_lists,
    "s": _small_ints, "t": _small_ints, "rank": st.integers(2, 5).map(str), "l": _small_ints,
    "generators": _small_ints, "relators": _relator_text, "type": _int_lists,
    "presentation-file": st.sampled_from([MISSING_FILE, NOT_AN_INPUT])}


def _options(draw, flags, eighths: int = 4) -> list[str]:
    """Each of ``flags`` (option name to value strategy) with chance
    eighths / 8, in ``--name=value`` form, so values that start with '-'
    stay values."""
    return [f"--{name}={draw(values)}" for name, values in flags.items()
            if draw(st.integers(0, 7)) < eighths]


def _engine_options(draw) -> list[str]:
    """A coset limit, always: at most 10^4 keeps every run small."""
    return [f"--max-cosets={draw(st.integers(-2, 10 ** 4))}",
            *_options(draw, {"strategy": st.sampled_from(["hlt", "felsch"])}),
            *_options(draw, {"out": st.just(UNWRITABLE_OUT)}, 1)]


@st.composite
def _valid_family_values(draw, family: str) -> dict:
    """Values of ``family``'s own flags that its builder accepts (with
    --unsafe-params where n is below the known-good range)."""
    entries = st.integers(2, 3)
    if family in ("coxeter", "tight"):
        orders = st.integers(2, 5) if family == "coxeter" else st.sampled_from([4, 6, 8])
        return {"k": ",".join(map(str, draw(st.lists(orders, min_size=1, max_size=3))))}
    if family == "H":
        s, t = draw(entries), draw(entries)
        return {"n": s + t + draw(st.integers(1, 3)), "s": s, "t": t}
    d = draw(st.integers(4 if family == "L" else 3, 4 if family in ("G", "M") else 5))
    ks = draw(st.lists(entries, min_size=d - 1, max_size=d - 1))
    values = {"rank" if family == "A" else "d": d}
    if family in ("G", "M"):
        values["n"] = sum(ks) + draw(st.integers(1, 3))
    if family == "A":
        values["l"] = draw(st.integers(1, 3))
    values["k"] = ",".join(map(str, ks))
    return values


@st.composite
def cli_argv(draw):
    """An argv that argparse accepts, kept small: a coset limit of at most
    10^4, small parameters, and malformed --k, --type and relator text. A
    family's own flags are usually given, any other family flag rarely."""
    command = draw(st.sampled_from(["verify", "hasse", "sweep", "paper-tables", "export"]))
    if command == "export":
        return [command, f"--in={draw(st.sampled_from([MISSING_FILE, NOT_AN_INPUT]))}",
                *_options(draw, {"format": st.sampled_from(["json", "tsv"]),
                                 "out": st.just(UNWRITABLE_OUT)})]
    if command == "paper-tables":
        return [command, *_engine_options(draw)]
    if command == "sweep":
        # the range is always given: the default one is the whole grid
        d, n = draw(st.integers(2, 4)), draw(st.integers(6, 10))
        return [command, f"--d-min={d}", f"--d-max={d + draw(st.integers(-1, 1))}",
                f"--n-min={n}", f"--n-max={n + draw(st.integers(-1, 1))}",
                *_options(draw, {"k-min": st.integers(1, 4).map(str),
                                 "jobs": st.integers(0, 1).map(str),
                                 "ip": st.sampled_from(["recursive", "full", "both"])}),
                *_engine_options(draw)]
    family = draw(st.sampled_from(cli.FAMILIES))
    if family != "raw" and draw(st.booleans()):
        values = draw(_valid_family_values(family))
    else:
        own = cli.FAMILY_TABLE[family][0] if family != "raw" else ("generators", "relators")
        values = {f: draw(_family_flags[f]) for f in own if draw(st.integers(0, 7)) < 7}
    argv = [command, f"--family={family}", *(f"--{f}={v}" for f, v in values.items()),
            *_options(draw, {f: v for f, v in _family_flags.items() if f not in values}, 1),
            *_engine_options(draw)]
    if draw(st.booleans()):
        argv.append("--unsafe-params")
    if command == "verify" and draw(st.booleans()):
        argv.append("--full-ip")
    if command == "hasse":
        argv += _options(draw, {"format": st.sampled_from(["dot", "edges"]),
                                "max-order": st.integers(-1, 4096).map(str)})
    return argv


@settings(max_examples=60, deadline=None)
@given(cli_argv())
@example(["verify", "--family=K", "--d=3", "--k=2,2", "--max-cosets=10000"])
def test_main_ends_every_run_in_an_exit_code_and_one_line(argv):
    """No traceback: every run returns a documented exit code and writes at
    most one ``polycert:`` line to stderr. Warnings are errors here, because
    a warning also reaches stderr and pytest would otherwise capture it."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 3, 4, 5), (argv, code)
    lines = err.getvalue().splitlines(keepends=True)
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("polycert: ")
                           and lines[0].endswith("\n")), (argv, err.getvalue())
