"""Tests for certificate serialization and the TSV atlas."""

import json

import pytest

from polycert.certificates import (
    ATLAS_COLUMNS,
    build_certificate_document,
    certificate_from_json,
    certificate_to_json,
    evidence_digest,
    format_atlas,
    parse_atlas,
    row_from_document,
)
from polycert.errors import FormatError, ParameterError
from polycert.families import family_h
from polycert.verify import certify


def test_json_round_trip(tight44):
    _, rg, cert = tight44
    fv = tuple(rg.order // o for _, o in cert.parabolic_orders)
    doc = build_certificate_document(cert, family="tight", params="k=4,4",
                                     f_vector=fv)
    text = certificate_to_json(doc)
    assert text.endswith("\n")
    assert certificate_from_json(text) == doc
    # the rows are stored as the certificate holds them, and load as plain
    # tuples that compare equal to them
    assert doc.evidence is cert.intersection_evidence
    loaded = certificate_from_json(text).evidence
    assert {type(row) for row in loaded} == {tuple}
    assert loaded == doc.evidence
    assert doc.log2_order == 5
    assert doc.f_vector == (4, 8, 4)
    assert doc.evidence_digest.startswith("sha256:")


def test_json_round_trip_minimal_fields():
    cert = certify(family_h(10, 2, 2))
    doc = build_certificate_document(cert)
    assert doc.family is None
    assert doc.params is None
    # a passing group's f-vector is derived, with no keyword
    assert doc.f_vector == (128, 256, 128)
    assert doc.declared_type is None
    assert certificate_from_json(certificate_to_json(doc)) == doc


def test_a_wrong_f_vector_keyword_is_refused(tight44):
    _, _, cert = tight44
    assert build_certificate_document(cert, f_vector=[4, 8, 4]).f_vector == (4, 8, 4)
    with pytest.raises(ParameterError, match=r"f-vector \(4, 8, 5\) is not the group's"):
        build_certificate_document(cert, f_vector=(4, 8, 5))


def test_tampered_evidence_is_rejected(tight44):
    _, _, cert = tight44
    doc = build_certificate_document(cert, family="tight", params="k=4,4")
    payload = json.loads(certificate_to_json(doc))
    payload["evidence"][0][2] = 999
    with pytest.raises(FormatError, match="altered"):
        certificate_from_json(json.dumps(payload))


def test_malformed_documents_are_rejected(tight44):
    _, _, cert = tight44
    doc = build_certificate_document(cert)
    with pytest.raises(FormatError, match="not valid JSON"):
        certificate_from_json("{nope")
    payload = json.loads(certificate_to_json(doc))
    payload["schema_version"] = 99
    with pytest.raises(FormatError, match="unsupported"):
        certificate_from_json(json.dumps(payload))
    payload = json.loads(certificate_to_json(doc))
    del payload["rank"]
    with pytest.raises(FormatError, match="malformed"):
        certificate_from_json(json.dumps(payload))
    payload = json.loads(certificate_to_json(doc))
    payload["evidence"] = [[1, 2, 3]]
    with pytest.raises(FormatError, match="malformed"):
        certificate_from_json(json.dumps(payload))


def _load_edited(cert, *edits):
    """Load the certificate of ``cert`` with the JSON value at each
    ``(path, value)`` of ``edits`` set."""
    payload = json.loads(certificate_to_json(build_certificate_document(cert)))
    for path, value in edits:
        *outer, key = path
        node = payload
        for part in outer:
            node = node[part]
        node[key] = value
    return certificate_from_json(json.dumps(payload))


@pytest.mark.parametrize("path, value", [
    (("checks", "passed"), "false"),
    (("order", "value"), True),
    (("rank",), 3.9),
    (("rank",), "3"),
    (("schlafli_type",), "ab"),
    (("warnings",), "xyz"),
])
def test_wrongly_typed_leaf_is_rejected(tight44, path, value):
    _, _, cert = tight44
    with pytest.raises(FormatError, match="malformed"):
        _load_edited(cert, (path, value))


@pytest.mark.parametrize("path", [("surplus",), ("checks", "extra"), ("order", "x")])
def test_undeclared_key_is_rejected(tight44, path):
    _, _, cert = tight44
    with pytest.raises(FormatError, match="malformed"):
        _load_edited(cert, (path, 1))


@pytest.mark.parametrize("path, value", [
    (("checks", "passed"), False),
    (("checks", "involutions"), False),
    (("order", "log2"), 6),
    (("order", "log2"), None),
    (("tight",), False),
    (("degenerate",), True),
    (("minimal",), False),
    (("f_vector",), [4, 8, 5]),
    (("f_vector",), None),
])
def test_a_contradicted_dependent_leaf_is_refused(tight44, path, value):
    _, _, cert = tight44
    with pytest.raises(FormatError, match="primary fields contradict"):
        _load_edited(cert, (path, value))


def test_a_self_contradictory_square_group_is_refused(tight44):
    """The tight {4,4} document edited to order 64 (log2 6), type {8,8},
    f-vector [1, 2, 3], and tight and passed false: the edited order, log2,
    type and tight agree with each other, but passed and the f-vector
    contradict the verdicts and the parabolic orders."""
    _, _, cert = tight44
    with pytest.raises(FormatError, match="primary fields contradict"):
        _load_edited(cert, (("order", "value"), 64), (("order", "log2"), 6),
                     (("schlafli_type",), [8, 8]), (("f_vector",), [1, 2, 3]),
                     (("tight",), False), (("checks", "passed"), False))


@pytest.mark.parametrize("path, value", [
    (("order", "value"), 0),
    (("order", "value"), -32),
    (("parabolic_orders",), [[[1, 2], 0], [[0, 2], 4], [[0, 1], 8]]),
    (("parabolic_orders",), [[[1, 2], 8], [[0, 2], -4], [[0, 1], 8]]),
])
def test_an_order_below_1_is_refused(tight44, path, value):
    _, _, cert = tight44
    with pytest.raises(FormatError, match="an order below 1"):
        _load_edited(cert, (path, value))


@pytest.mark.parametrize("path, value", [
    (("rank",), 7),
    (("rank",), 2),
    (("involution_orders",), [2, 2]),
    (("involution_orders",), [2, 2, 2, 2]),
    # the product of the type and so tight are unchanged
    (("schlafli_type",), [16]),
    (("parabolic_orders",), [[[9], 8], [[0, 2], 4], [[0, 1], 8]]),
    (("parabolic_orders",), [[[1, 2], 8], [[0, -1], 4], [[0, 1], 8]]),
])
def test_a_primary_field_that_does_not_fit_the_rank_is_refused(tight44, path, value):
    _, _, cert = tight44
    with pytest.raises(FormatError, match="does not fit its rank"):
        _load_edited(cert, (path, value))


@pytest.mark.parametrize("side, subset", [(0, [9]), (1, [1, 3]), (0, [-1])])
def test_an_evidence_subset_outside_the_rank_is_refused(tight44, side, subset):
    """The edited rows come with their own digest, so only the subset check
    can refuse them."""
    _, _, cert = tight44
    rows = [list(row) for row in cert.intersection_evidence]
    rows[-1][side] = subset
    with pytest.raises(FormatError, match="does not fit its rank"):
        _load_edited(cert, (("evidence",), rows), (("evidence_digest",), evidence_digest(rows)))


def test_evidence_digest_is_canonical():
    rows_a = (((0,), (1,), 2, 2), ((0, 1), (1, 2), 4, 4))
    rows_b = tuple(((tuple(l), tuple(r), g, e)
                    for l, r, g, e in [[[0], [1], 2, 2], [[0, 1], [1, 2], 4, 4]]))
    assert evidence_digest(rows_a) == evidence_digest(rows_b)
    assert evidence_digest(rows_a) != evidence_digest(rows_a[:1])
    assert evidence_digest(()) .startswith("sha256:")


def test_atlas_round_trip(tight44):
    _, _, cert_t = tight44
    cert_h = certify(family_h(10, 2, 2))
    rows = [
        row_from_document(build_certificate_document(
            cert_t, family="tight", params="k=4,4"), seconds=0.125),
        row_from_document(build_certificate_document(
            cert_h, family="H", params="n=10;s=2;t=2"), seconds=None),
    ]
    skipped = [("G", "d=4;n=20;k=2,2,2", "coset limit exceeded")]
    text = format_atlas(rows, skipped)
    parsed_rows, parsed_skipped = parse_atlas(text)
    assert parsed_rows == rows
    assert parsed_skipped == skipped
    assert format_atlas(parsed_rows, parsed_skipped) == text


def test_atlas_cells(tight44):
    _, _, cert = tight44
    row = row_from_document(build_certificate_document(cert))
    assert row.family == "raw"
    assert row.params == "-"
    text = format_atlas([row])
    lines = text.strip().split("\n")
    assert lines[0] == "# atlas-version 1"
    assert lines[1] == "\t".join(ATLAS_COLUMNS)
    cells = lines[2].split("\t")
    assert cells[0] == "raw"
    assert cells[3] == "32"
    assert cells[4] == "5"
    assert cells[5] == "4,4"
    assert cells[-1] == "-"  # no wall-clock entry
    assert cells[-2] == "-"  # no warnings


def test_atlas_rejects_malformed_text():
    version = "# atlas-version 1\n"
    with pytest.raises(FormatError, match="no header"):
        parse_atlas("")
    with pytest.raises(FormatError, match="no header"):
        parse_atlas(version)
    with pytest.raises(FormatError, match="unexpected atlas header"):
        parse_atlas(version + "family\tparams\n")
    header = version + "\t".join(ATLAS_COLUMNS)
    with pytest.raises(FormatError, match="columns"):
        parse_atlas(header + "\nG\td=4\n")
    cells = ["G", "d=4", "4", "16", "-", "4,4", "true", "true",
             "true", "true", "false", "false", "true", "-", "-"]
    assert len(parse_atlas(header + "\n" + "\t".join(cells) + "\n")[0]) == 1
    # an unparsable order, and a bool cell that is neither true nor false
    for column, bad in ((3, "x"), (9, "yes")):
        row = "\t".join(cells[:column] + [bad] + cells[column + 1:])
        with pytest.raises(FormatError, match="bad cell"):
            parse_atlas(header + "\n" + row + "\n")
    with pytest.raises(FormatError, match="skipped"):
        parse_atlas(header + "\n# skipped\tG\n")


def test_atlas_skips_blank_lines():
    cells = ["G", "d=4", "4", "16", "-", "4,4", "true", "true",
             "true", "true", "false", "false", "true", "-", "-"]
    lines = ["# atlas-version 1", "\t".join(ATLAS_COLUMNS), "\t".join(cells),
             "\t".join(cells[:1] + ["d=5"] + cells[2:]), "# skipped\tG\td=6\tcoset limit"]
    plain = parse_atlas("\n".join(lines) + "\n")
    assert len(plain[0]) == 2 and len(plain[1]) == 1
    # blank and whitespace-only lines before the version line and between rows
    version, header, first, second, skipped = lines
    spaced = ["", " ", version, "", header, first, "", "\t ", second, "", skipped]
    assert parse_atlas("\n".join(spaced) + "\n") == plain


@pytest.mark.parametrize("column, cell", [
    ("order", " 1_0_2_4 "),
    ("order", "+32"),
    ("rank", " 3"),
    ("schlafli_type", "4, 4"),
    ("log2_order", "\u0665"),  # ARABIC-INDIC DIGIT FIVE
    ("seconds", "1_0.5"),
])
def test_atlas_cell_must_be_written_form(tight44, column, cell):
    _, _, cert = tight44
    row = row_from_document(build_certificate_document(cert), seconds=0.125)
    version, header, line = format_atlas([row]).splitlines()
    assert parse_atlas(format_atlas([row]))[0] == [row]
    cells = line.split("\t")
    cells[ATLAS_COLUMNS.index(column)] = cell
    with pytest.raises(FormatError, match="bad cell"):
        parse_atlas("\n".join([version, header, "\t".join(cells)]) + "\n")


def test_atlas_cleans_reason_text():
    header_only = format_atlas([], [("G", "d=4", "tab\there\nand newline")])
    assert "tab here and newline" in header_only
    rows, skipped = parse_atlas(header_only)
    assert rows == []
    assert skipped == [("G", "d=4", "tab here and newline")]


@pytest.mark.parametrize("first, message", [
    ("# atlas-version 7", "atlas-version 1"),
    ("", "atlas-version 1"),  # the header comes first: no version line
    ("# atlas-version 1\n# written by hand", "unexpected comment line"),
])
def test_atlas_requires_version_line_and_no_stray_comments(first, message):
    text = format_atlas([], [("G", "d=4", "coset limit exceeded")])
    body = text.split("\n", 1)[1]
    assert parse_atlas(text)[1] == [("G", "d=4", "coset limit exceeded")]
    with pytest.raises(FormatError, match=message):
        parse_atlas((first + "\n" if first else "") + body)


@pytest.mark.parametrize("reason", ["  spaced reason ", "", "two  spaces "])
def test_atlas_skipped_reason_must_be_written_form(reason):
    text = format_atlas([], [("G", "d=4", reason)])
    _, skipped = parse_atlas(text)
    assert format_atlas([], skipped) == text
    hand_written = format_atlas([]) + f"# skipped\tG\td=4\t{reason}\n"
    with pytest.raises(FormatError, match="skipped reason"):
        parse_atlas(hand_written)
