"""The mutation gate: each listed fault in the library must fail its tests.

    python3 mutants/run.py            # every mutant
    python3 mutants/run.py NAME ...   # the named ones

Run it from anywhere; it uses the standard library only, and pytest as the
test suite does. For each mutant it copies the checkout (without ``.git``)
to a temporary directory, replaces one exact text in one file, and runs the
mutant's test selection there. The mutant is killed when that selection
fails. Before any mutant, the selections run once on an unedited copy and
must pass, so a kill is the edit's doing. A mutant whose text is not found
exactly once is stale: the code it was written against has moved.

Every test run may map at most ``MEMORY_LIMIT`` bytes, so a mutant that
sends an oracle into an unbounded allocation fails fast with a
``MemoryError`` instead of taking the machine's memory. Such a run counts as
killed only when the unedited run peaked far below the limit, so that the
edit, not the limit, made it fail.

The report has one line per mutant and ends with the survivors; the exit
code is 0 only when every mutant is killed. A new check or oracle adds its
own mutant here.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
# A mutant can make an oracle slow (a wrong table may generate a huge group),
# so every test run is stopped after this long; a timeout is no kill.
TIMEOUT_S = 600
# Address space of one test run, in bytes: the smallest power of two whose
# BASELINE_SHARE still lies above the unedited run's peak (151 to 163 MB).
MEMORY_LIMIT = 2 << 30
# "Far below": the unedited run's peak resident size must stay under this
# share of the limit for a run that hit the limit to count as killed.
BASELINE_SHARE = 1 / 8


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids or files; at least one must fail


MUTANTS = (
    Mutant("standardize-column-order", "src/polycert/coset.py",
           "        for col in cols:\n            v = col[a]\n",
           "        for col in reversed(cols):\n            v = col[a]\n",
           ("tests/test_acceptance.py::test_outputs_match_golden_digests",)),
    # the rows kept in the order the engine found them
    Mutant("standardize-in-engine-order", "src/polycert/coset.py",
           "    std = new_id.take(perms.take(old_of, axis=1).astype(np.intp))\n",
           "    std = np.array(perms, dtype=np.intc)\n",
           ("tests/test_coset.py::test_rewritten_presentations_give_the_same_tables",)),
    # the generator arrays handed to Schreier-Sims, two images of r1 swapped
    Mutant("generator-column-swap", "src/polycert/coset.py",
           "        return self.perms\n",
           "        perms = self.perms.copy()\n        perms[1, [0, 5]] = perms[1, [5, 0]]\n"
           "        return perms\n",
           ("tests/test_realize.py",)),
    Mutant("coset-action-as-regular-table", "src/polycert/realize.py",
           "    if table is None:\n        stats[\"enumerations\"] += 1\n"
           "        table = enumerate_cosets(p, (), limits, strategy)\n",
           "    stats[\"enumerations\"] += 1\n"
           "    table = enumerate_cosets(p, (generator(0),), limits, strategy)\n",
           ("tests/test_acceptance.py::test_regular_by_centralizer_rejects_mutants",)),
    # only the plain fallback, which none of the acceptance registry's groups takes
    Mutant("coset-action-as-fallback-table", "src/polycert/realize.py",
           "        table = enumerate_cosets(p, (), limits, strategy)\n",
           "        table = enumerate_cosets(p, (generator(0),), limits, strategy)\n",
           ("tests/test_realize.py",)),
    Mutant("diamond-count-above-two", "src/polycert/polytope.py",
           "bad = np.flatnonzero(counts != 2)", "bad = np.flatnonzero(counts > 2)",
           ("tests/test_polytope.py::test_section_pair_count_catches_hidden_centre",)),
    Mutant("section-check-single-face", "src/polycert/polytope.py",
           '    _require_exhaustive(realized, certificate, max_order, "section connectivity")\n',
           '    _require_exhaustive(realized, certificate, max_order, "section connectivity")\n'
           "    return True\n",
           ("tests/test_polytope.py::test_section_pair_count_catches_hidden_centre",)),
    Mutant("pair-code-without-n", "src/polycert/polytope.py",
           "np.unique(a.astype(np.int64) * len(a) + b,",
           "np.unique(a.astype(np.int64) + b,",
           ("tests/test_polytope.py",)),
    Mutant("orbit-without-size-check", "src/polycert/realize.py",
           "    if n * len(block) != bound:\n        return None\n",
           "    if False:\n        return None\n",
           ("tests/test_realize.py",)),
    Mutant("bound-from-n-alone", "src/polycert/realize.py",
           "    bound = n * bound_h\n", "    bound = n\n",
           ("tests/test_realize.py",)),
    Mutant("bound-from-the-orbit-block", "src/polycert/realize.py",
           "    if n * len(block) != bound:\n",
           "    bound = n * len(block)\n    if n * len(block) != bound:\n",
           ("tests/test_realize.py",)),
    # an odd relator: the swap of the cosets of K is no action of G
    Mutant("route-without-even-length-test", "src/polycert/realize.py",
           "    if d >= 3 and all(len(r) % 2 == 0 for r in p.relators):\n",
           "    if d >= 3:\n",
           ("tests/test_realize.py",)),
    Mutant("block-from-every-point", "src/polycert/realize.py",
           "block = np.flatnonzero(labels == 0)", "block = np.flatnonzero(labels >= 0)",
           ("tests/test_realize.py",)),
    Mutant("block-under-r_i-alone", "src/polycert/realize.py",
           "for g in (i, i + 1)], ng * 2)", "for g in (i,)], ng * 2)",
           ("tests/test_realize.py",)),
    # the route's pair and G' read off the bounds: always <r0, r1> and G_0,
    # or always G' without r_i
    Mutant("route-always-first-pair", "src/polycert/realize.py",
           "        i = bounds.index(max(bounds))\n", "        i = 0\n",
           ("tests/test_realize.py::test_the_route_takes_the_pair_with_the_largest_bound",)),
    Mutant("route-always-leaves-out-r_i", "src/polycert/realize.py",
           "            hidden = i if bounds[i - 1] <= bounds[i + 1] else i + 1\n",
           "            hidden = i\n",
           ("tests/test_realize.py::test_the_route_takes_the_pair_with_the_largest_bound",)),
    Mutant("orbit-without-closure-check", "src/polycert/realize.py",
           "        if not np.array_equal(keys[pos], image):\n",
           "        if False:\n",
           ("tests/test_realize.py::test_an_orbit_block_that_is_not_closed_is_refused",)),
    # the one constructor of every table, enumerated or from the orbit route
    Mutant("closed-table-without-validate", "src/polycert/coset.py",
           "    table.validate()\n    return table\n", "    return table\n",
           ("tests/test_coset.py", "tests/test_realize.py")),
    Mutant("felsch-without-reversed-words", "src/polycert/coset.py",
           "variants = {seq, seq[::-1]}", "variants = {seq}",
           ("tests/test_coset.py::test_felsch_groups_read_each_cycle_from_both_ends",)),
    # the one layout has no column for an inverse: a generator that is no
    # declared involution must be refused, not read as one
    Mutant("presentation-without-involution-check", "src/polycert/words.py",
           "        if missing:\n            raise ParameterError(",
           "        if False:\n            raise ParameterError(",
           ("tests/test_coset.py::test_a_generator_that_is_no_declared_involution_is_refused",)),
    Mutant("standardize-without-connectivity-check", "src/polycert/coset.py",
           "    if nxt != n:\n"
           "        raise TableNotClosedError(\"coset graph is not connected; table corrupt\")\n",
           "",
           ("tests/test_coset.py::test_a_disconnected_coset_graph_is_refused",)),
    Mutant("closed-offsets-every-offset", "src/polycert/coset.py",
           "    return tuple(sorted(offsets))\n", "    return tuple(range(n))\n",
           ("tests/test_coset.py",)),
    Mutant("compaction-keeps-freed-marks", "src/polycert/coset.py",
           "            m[live_count:n] = 0\n", "",
           ("tests/test_coset.py",)),
    # labels that propagate as intp must still be stored as int32
    Mutant("orbit-labels-returned-as-intp", "src/polycert/perms.py",
           "            return labels.astype(np.int32)\n", "            return labels\n",
           ("tests/test_perms.py::test_orbit_labels_match_a_union_find",
            "tests/test_realize.py::test_stored_arrays_stay_read_only_int32")),
    Mutant("schreier-sims-batch-always-succeeds", "src/polycert/perms.py",
           "        orbit = self.orbit\n        pos = np.full(",
           "        return True\n        orbit = self.orbit\n        pos = np.full(",
           ("tests/test_perms.py",)),
    # each check of the full chain re-check, its raise left a bare expression
    *(Mutant(f"verify-chain-without-{name}-check", "src/polycert/perms.py",
             f"raise CheckFailedError({message}", f"({message}",
             ("tests/test_perms.py::test_verify_chain_reaches_every_check",))
      for name, message in (
          ("base-root", 'f"level {i}: the base is not the root'),
          ("orbit-list", 'f"level {i}: orbit list and Schreier vector disagree'),
          ("earlier-base", 'f"level {i}: generator moves an earlier base'),
          ("level-above", 'f"level {i + 1}: generator missing'),
          ("inverses", 'f"level {i}: stored inverses'),
          ("label-range", 'f"level {i}: Schreier vector names an unknown generator'),
          ("tree-edge", 'f"level {i}: Schreier vector edge'),
          ("tree-root", 'f"level {i}: Schreier vector does not lead back'),
          ("orbit-closed", '\n                            f"level {i}: orbit is not closed'),
          ("schreier-sift", '\n                            f"level {i}: Schreier element'),
          ("generator-sift", '"an original generator does not sift'))),
    Mutant("permutation-group-without-bijection-check", "src/polycert/perms.py",
           "    if arr.min() < 0 or arr.max() >= n or np.bincount(arr, minlength=n).max() != 1:\n",
           "    if False:\n",
           ("tests/test_perms.py",)),
    Mutant("power-without-word-cap", "src/polycert/words.py",
           "    if len(w) * e > MAX_WORD_LETTERS:\n", "    if False:\n",
           ("tests/test_words.py::test_power_and_commutator_shapes",
            "tests/test_cli.py::test_word_length_cap_is_a_limit")),
    Mutant("exponent-without-bound", "src/polycert/words.py",
           "    if e >= MAX_WORD_LETTERS.bit_length():\n", "    if False:\n",
           ("tests/test_families.py::test_exponents_are_bounded_before_the_shift",
            "tests/test_cli.py::test_huge_exponent_is_a_limit")),
    # the certification checks: the one intersection routine, the recursive
    # mode's pair list, the string check and the involution verdict
    Mutant("intersection-rows-always-ok", "src/polycert/verify.py",
           "    return all(row.ok for row in rows), rows\n", "    return True, rows\n",
           ("tests/test_verify.py::test_hidden_center_fails_intersection_only",)),
    # the hidden centre's one bad row is the whole-string interval
    Mutant("recursive-without-the-whole-string", "src/polycert/verify.py",
           "for length in range(2, rank + 1)", "for length in range(2, rank)",
           ("tests/test_verify.py::test_hidden_center_fails_intersection_only",)),
    Mutant("string-check-skips-the-last-pair", "src/polycert/verify.py",
           "range(i + 2, realized.rank)", "range(i + 2, realized.rank - 1)",
           ("tests/test_verify.py::test_string_property_failure_detected",)),
    # a generator's order read off its row of the table
    Mutant("collapsed-generator-read-as-an-involution", "src/polycert/verify.py",
           "tuple(1 if f else 2 for f in fixed.tolist())", "tuple(2 for f in fixed.tolist())",
           ("tests/test_verify.py::test_collapsed_generator_warns",)),
    # the one derivation of the dependent fields, at each of its gates
    Mutant("collapsed-generator-counts-as-involution", "src/polycert/verify.py",
           "all(o == 2 for o in primary.involution_orders)",
           "all(o <= 2 for o in primary.involution_orders)",
           ("tests/test_verify.py::test_collapsed_generator_warns",)),
    Mutant("tight-at-or-above-the-bound", "src/polycert/verify.py",
           "order == 2 * prod(stype)", "order >= 2 * prod(stype)",
           ("tests/test_verify.py::test_tight_holds_at_exactly_twice_the_type_product",)),
    Mutant("minimal-with-le", "src/polycert/verify.py",
           "all(o < order for _, o in parabolics)", "all(o <= order for _, o in parabolics)",
           ("tests/test_verify.py::test_minimal_fails_when_a_corank_1_parabolic_is_the_whole_group",)),
    Mutant("f-vector-on-a-failing-group", "src/polycert/verify.py",
           "for _, o in parabolics) if passed else None,", "for _, o in parabolics),",
           ("tests/test_verify.py::test_a_failing_group_has_no_f_vector",)),
    # a loader that keeps the stored dependent fields instead of re-deriving them
    Mutant("loader-keeps-stored-dependent-fields", "src/polycert/certificates.py",
           "    doc = CertificateDocument(**{k: v for k, v in values.items() if k in _PRIMARY_FIELDS})\n",
           "    doc = CertificateDocument(**{k: v for k, v in values.items() if k in _PRIMARY_FIELDS})\n"
           "    for k, v in values.items():\n        object.__setattr__(doc, k, v)\n",
           ("tests/test_certificates.py::test_a_contradicted_dependent_leaf_is_refused",
            "tests/test_certificates.py::test_a_self_contradictory_square_group_is_refused")),
    # a loaded type, generator-order list or subset that does not fit the rank
    Mutant("loader-without-rank-fit-check", "src/polycert/certificates.py",
           "            or not all(0 <= g < rank for s in subsets for g in s)):\n"
           "        raise FormatError(",
           "            or not all(0 <= g < rank for s in subsets for g in s)) and False:\n"
           "        raise FormatError(",
           ("tests/test_certificates.py::test_a_primary_field_that_does_not_fit_the_rank_is_refused",
            "tests/test_certificates.py::test_an_evidence_subset_outside_the_rank_is_refused")),
    Mutant("hasse-without-polytope-checks", "src/polycert/cli.py",
           "    for name, ok in verdicts:\n", "    for name, ok in ():\n",
           ("tests/test_cli.py",)),
    # the bound is read only after the enumerations, as a group order
    Mutant("hasse-max-order-not-a-coset-limit", "src/polycert/cli.py",
           "    limits = EnumerationLimits(max_cosets=min(max_cosets, args.max_order))\n",
           "    limits = EnumerationLimits(max_cosets=max_cosets)\n",
           ("tests/test_cli.py::test_hasse_max_order_bounds_each_enumeration",)),
    Mutant("sweep-ip-both-without-disagreement-check", "src/polycert/cli.py",
           "        if len(set(verdicts)) > 1:\n", "        if False:\n",
           ("tests/test_cli.py::test_sweep_ip_both_skips_a_tuple_whose_verdicts_disagree",)),
    Mutant("paper-tables-without-mismatch-exit", "src/polycert/cli.py",
           "    if not all_ok:\n"
           "        raise CheckFailedError(\"table values did not reproduce\")\n",
           "",
           ("tests/test_cli.py::test_paper_tables_report_a_wrong_order",)),
    # a failed check that main's one handler does not catch
    Mutant("main-without-check-failed-handler", "src/polycert/errors.py",
           "class CheckFailedError(PolycertError):", "class CheckFailedError(Exception):",
           ("tests/test_cli.py::test_every_error_class_has_its_category_and_exit_code",)),
    Mutant("main-with-a-fixed-category", "src/polycert/cli.py",
           "print(f\"polycert: {exc.category}: {exc}\"",
           "print(f\"polycert: param-invalid: {exc}\"",
           ("tests/test_cli.py::test_every_error_class_has_its_category_and_exit_code",)),
    # export has no early writability check: only the write reports it
    Mutant("write-error-swallowed", "src/polycert/cli.py",
           "            fh.write(text)\n    except OSError as exc:\n"
           "        raise ParameterError(f\"cannot write output: {exc}\")\n",
           "            fh.write(text)\n    except OSError as exc:\n        return\n",
           ("tests/test_cli.py::test_export_to_a_missing_directory_is_param_invalid",)),
    Mutant("flag-matchings-allow-fixed-points", "src/polycert/polytope.py",
           "if np.any(arr == idx) or not np.array_equal(arr[arr], idx):",
           "if not np.array_equal(arr[arr], idx):",
           ("tests/test_polytope.py::test_flag_matchings_report_the_failing_ranks",)),
    Mutant("node-label-without-range-error", "src/polycert/polytope.py",
           '        raise IndexError("node id out of range")\n',
           '        return "out of range"\n',
           ("tests/test_polytope.py::test_node_addressing",)),
    # the one check of a word where it enters: its letters' types, bools
    # among them, and their range
    Mutant("word-without-index-check", "src/polycert/words.py",
           "    if not set(map(type, w)) <= {int}:\n", "    if False:\n",
           ("tests/test_words.py::test_every_entry_point_refuses_garbage_letters",)),
    Mutant("word-accepts-bool-letters", "src/polycert/words.py",
           "set(map(type, w)) <= {int}", "set(map(type, w)) <= {int, bool}",
           ("tests/test_words.py::test_every_entry_point_refuses_garbage_letters",)),
    Mutant("word-accepts-negative-letters", "src/polycert/words.py",
           "(min(used) < 0 or max(used) >= generator_count)", "max(used) >= generator_count",
           ("tests/test_words.py::test_every_entry_point_refuses_garbage_letters",)),
    # a subset or subgroup-generator list that is no iterable escapes as a
    # bare TypeError
    Mutant("non-iterable-subset-as-type-error", "src/polycert/words.py",
           "        it = iter(items)\n    except TypeError:\n",
           "        it = iter(items)\n    except LookupError:\n",
           ("tests/test_words.py::test_every_entry_point_refuses_garbage_letters",)),
    Mutant("any-two-letter-relator-declares-an-involution", "src/polycert/words.py",
           "if len(r) == 2 and r[0] == r[1]}", "if len(r) == 2}",
           ("tests/test_words.py::test_only_a_square_relator_declares_an_involution",)),
    Mutant("atlas-without-blank-line-skip", "src/polycert/certificates.py",
           "        if not line.strip():\n            continue\n",
           "        if not line.strip():\n            pass\n",
           ("tests/test_certificates.py::test_atlas_skips_blank_lines",)),
    Mutant("presentation-text-without-gens-check", "src/polycert/words.py",
           "    if gen_count is None:\n", "    if False:\n",
           ("tests/test_words.py::test_presentation_text_needs_a_gens_line",)),
)


def _limit_memory() -> None:
    """Bound the address space of the test process (run in the child)."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(hard, MEMORY_LIMIT)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def run_tests(checkout: Path, tests: tuple[str, ...]) -> tuple[int | str, bool]:
    """pytest's exit code for ``tests`` in ``checkout`` (0 passed, 1 failed),
    or "timeout" when the run outlasts ``TIMEOUT_S``; and whether the run
    reported a ``MemoryError``, the sign that it hit ``MEMORY_LIMIT``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                              errors="replace", timeout=TIMEOUT_S, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout", False
    return proc.returncode, "MemoryError" in proc.stdout + proc.stderr


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="polycert-mutants-") as tmp:
        base = Path(tmp) / "base"
        shutil.copytree(ROOT, base, ignore=IGNORED)
        selections = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        code, _ = run_tests(base, selections)
        if code != 0:
            print(f"the unedited checkout fails the selections (pytest exit {code})")
            return 1
        # the largest child so far, and the only one: the unedited run
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
        limit_kills = peak < MEMORY_LIMIT * BASELINE_SHARE
        print(f"the unedited run peaks at {peak >> 20} MB; the limit is {MEMORY_LIMIT >> 20} MB",
              flush=True)
        survivors = []
        for m in mutants:
            copy = Path(tmp) / m.name
            shutil.copytree(base, copy)
            target = copy / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                verdict = "STALE (the old text is not found exactly once)"
                survivors.append(m.name)
            else:
                target.write_text(text.replace(m.old, m.new))
                started = time.perf_counter()
                code, over_limit = run_tests(copy, m.tests)
                seconds = time.perf_counter() - started
                if over_limit and limit_kills:
                    verdict = f"killed over the memory limit (pytest {code}, {seconds:.1f} s)"
                elif code == 1 and not over_limit:
                    verdict = f"killed ({seconds:.1f} s)"
                else:
                    memory = ", over the memory limit" if over_limit else ""
                    verdict = f"SURVIVED (pytest {code}{memory}, {seconds:.1f} s)"
                    survivors.append(m.name)
            shutil.rmtree(copy)
            print(f"{m.name}: {verdict}", flush=True)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} killed; "
          f"survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
