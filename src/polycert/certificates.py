"""Serialized forms of certification results: JSON documents and a TSV atlas.

The fields of ``CertificateDocument`` and ``AtlasRow`` declare both formats:
the JSON keys, the atlas columns and the types a loader accepts are all
read off them.

A document's ``DerivedFields`` (the verdicts ``passed`` and
``involutions``, ``log2``, ``tight``, ``degenerate``, ``minimal`` and the
f-vector) are derived from its primary fields when it is built, by
``verify.derive_fields``, and are never passed in. Loading a JSON document
checks every value against its field's declared type, refuses an order or
parabolic order below 1, a type that does not have rank - 1 entries, a list
of generator orders that does not have rank entries, and a parabolic or
evidence subset that names a generator outside range(rank). It builds the
document from its primary fields alone; the document must then write back
exactly the payload it was read from, which refuses both a key that no
field declares and a stored value that the primary fields contradict.
Last it recomputes the sha256 digest over the intersection evidence rows.
Nothing checks the fields that constrain nothing else (``warnings``,
``declared_type``, ``family``, ``params``, ``unsafe_params``), nor an edit
of the primary fields that keeps them consistent; one digest over the whole
document and checking a certificate by replaying it arrive with ROADMAP
item 2.

A built document holds the certificate's ``IntersectionEvidence`` rows as
they are; a loaded one holds plain tuples, which compare equal to them.
Orders are stored exactly.

The atlas is a flat TSV with a fixed column set, after a '# atlas-version 1'
first line; the wall-clock column comes last so determinism comparisons can
strip it. Skipped parameter tuples are appended as '# skipped' comment lines
with their reason, and no other comment line is read. A cell or a reason is
read only in the exact form the writer gives it.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import MISSING, dataclass, fields
from typing import Sequence

from .errors import FormatError, ParameterError
from .verify import DerivedFields, SggiCertificate

SCHEMA_VERSION = 1
ATLAS_VERSION = 1
ATLAS_VERSION_LINE = f"# atlas-version {ATLAS_VERSION}"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def evidence_digest(evidence: Sequence[tuple[tuple[int, ...], tuple[int, ...], int, int]]) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(evidence).encode()).hexdigest()


@dataclass(frozen=True, eq=True)
class CertificateDocument(DerivedFields):
    """The serializable view of one certification run."""

    family: str | None
    params: str | None
    rank: int
    order: int
    schlafli_type: tuple[int, ...]
    declared_type: tuple[int, ...] | None
    involution_orders: tuple[int, ...]
    string_ok: bool
    intersection_ok: bool
    intersection_mode: str
    parabolic_orders: tuple[tuple[tuple[int, ...], int], ...]
    warnings: tuple[str, ...]
    unsafe_params: bool
    evidence: tuple[tuple[tuple[int, ...], tuple[int, ...], int, int], ...]
    evidence_digest: str
    schema_version: int = SCHEMA_VERSION


@dataclass(frozen=True)
class AtlasRow:
    """One atlas line; ``params`` stays textual (e.g. 'd=4;n=10;k=2,2,2')."""

    family: str
    params: str
    rank: int
    order: int
    log2_order: int | None
    schlafli_type: tuple[int, ...]
    involutions_ok: bool
    string_ok: bool
    intersection_ok: bool
    passed: bool
    degenerate: bool
    tight: bool
    minimal: bool
    warnings: tuple[str, ...]
    seconds: float | None


# The JSON keys of the document fields that are not stored at the top level.
_JSON_PATHS = {
    "order": ("order", "value"),
    "log2_order": ("order", "log2"),
    "involutions_ok": ("checks", "involutions"),
    "string_ok": ("checks", "string"),
    "intersection_ok": ("checks", "intersection"),
    "passed": ("checks", "passed"),
}


def _optional(hint) -> tuple[typing.Any, bool]:
    """``(T, True)`` for a hint ``T | None``, else ``(hint, False)``."""
    args = typing.get_args(hint)
    if type(None) not in args:
        return hint, False
    (inner,) = (a for a in args if a is not type(None))
    return inner, True


# Type hints resolved once: resolving them takes longer than a whole load.
_DOCUMENT_FIELDS = tuple(
    (name, _JSON_PATHS.get(name, (name,)), hint)
    for name, hint in typing.get_type_hints(CertificateDocument).items())
_PRIMARY_FIELDS = frozenset(f.name for f in fields(CertificateDocument) if f.init)
_ATLAS_HINTS = typing.get_type_hints(AtlasRow)
ATLAS_COLUMNS = tuple(_ATLAS_HINTS)


def _copy(cls, source, **own):
    """A ``cls`` built from ``own`` plus every other field that ``__init__``
    takes without a default, read off the attribute of the same name on
    ``source``."""
    shared = {f.name: getattr(source, f.name) for f in fields(cls)
              if f.name not in own and f.init and f.default is MISSING}
    return cls(**own, **shared)


def build_certificate_document(cert: SggiCertificate,
                               family: str | None = None,
                               params: str | None = None,
                               unsafe_params: bool = False,
                               f_vector: Sequence[int] | None = None) -> CertificateDocument:
    """The document of ``cert``; ``f_vector``, when given, must be the one
    it derives."""
    evidence = cert.intersection_evidence
    doc = _copy(CertificateDocument, cert, family=family, params=params, unsafe_params=unsafe_params,
                evidence=evidence, evidence_digest=evidence_digest(evidence))
    if f_vector is not None and tuple(f_vector) != doc.f_vector:
        raise ParameterError(f"f-vector {tuple(f_vector)} is not the group's {doc.f_vector}")
    return doc


def certificate_to_json(doc: CertificateDocument) -> str:
    payload: dict = {}
    for name, (*outer, key), _ in _DOCUMENT_FIELDS:
        node = payload
        for part in outer:
            node = node.setdefault(part, {})
        node[key] = getattr(doc, name)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _decode(value, hint, name: str):
    """``value`` as loaded from JSON for field ``name``, checked against
    ``hint`` and with its lists made tuples; TypeError when it does not fit."""
    hint, optional = _optional(hint)
    if value is None and optional:
        return None
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, list):
            raise TypeError(f"field {name}: {value!r} is not a list")
        if args[-1] is Ellipsis:
            return tuple(_decode(v, args[0], name) for v in value)
        if len(value) != len(args):
            raise TypeError(f"field {name}: {value!r} does not have {len(args)} entries")
        return tuple(_decode(v, a, name) for v, a in zip(value, args))
    if type(value) is not hint:
        raise TypeError(f"field {name}: {value!r} is not of type {hint.__name__}")
    return value


def certificate_from_json(text: str) -> CertificateDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"certificate is not valid JSON: {exc}") from exc
    try:
        if payload["schema_version"] != SCHEMA_VERSION:
            raise FormatError(
                f"unsupported certificate schema {payload['schema_version']!r}")
        values = {}
        for name, path, hint in _DOCUMENT_FIELDS:
            value = payload
            for key in path:
                value = value[key]
            values[name] = _decode(value, hint, name)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed certificate document: {exc!r}") from exc
    if min([values["order"], *(o for _, o in values["parabolic_orders"])]) < 1:
        raise FormatError("malformed certificate document: an order below 1")
    rank = values["rank"]
    subsets = [s for s, _ in values["parabolic_orders"]]
    subsets += [s for left, right, _, _ in values["evidence"] for s in (left, right)]
    if (len(values["schlafli_type"]) != rank - 1 or len(values["involution_orders"]) != rank
            or not all(0 <= g < rank for s in subsets for g in s)):
        raise FormatError("malformed certificate document: a type, generator orders or "
                          "generator subset that does not fit its rank")
    doc = CertificateDocument(**{k: v for k, v in values.items() if k in _PRIMARY_FIELDS})
    if json.loads(certificate_to_json(doc)) != payload:
        raise FormatError("malformed certificate document: a key that no field declares, "
                          "or a value that its primary fields contradict")
    if evidence_digest(doc.evidence) != doc.evidence_digest:
        raise FormatError("evidence digest mismatch; the document was altered")
    return doc


def row_from_document(doc: CertificateDocument, seconds: float | None = None) -> AtlasRow:
    return _copy(AtlasRow, doc, family=doc.family or "raw",
                 params=doc.params or "-", seconds=seconds)


def _clean_cell(text: str) -> str:
    return text.replace("\t", " ").replace("\n", " ").strip() or "-"


def _tuple_cell(item, sep: str):
    return lambda cell: () if cell == "-" else tuple(map(item, cell.split(sep)))


# (format, parse) per atlas column type; "-" stands for None and for ().
# A cell is only read if formatting its parsed value writes it back unchanged.
_CELLS = {
    str: (str, str),
    int: (str, int),
    float: ("{:.3f}".format, float),
    bool: (lambda v: "true" if v else "false", lambda cell: cell == "true"),
    tuple[int, ...]: (lambda v: ",".join(map(str, v)) or "-", _tuple_cell(int, ",")),
    tuple[str, ...]: (lambda v: _clean_cell("|".join(v)), _tuple_cell(str, "|")),
}


def _atlas_codec(name: str, hint):
    hint, optional = _optional(hint)
    fmt, parse = _CELLS[hint]
    return (name, lambda v: "-" if v is None else fmt(v),
            (lambda cell: None if cell == "-" else parse(cell)) if optional else parse)


_ATLAS_CODECS = tuple(_atlas_codec(name, hint) for name, hint in _ATLAS_HINTS.items())


def format_atlas(rows: Sequence[AtlasRow],
                 skipped: Sequence[tuple[str, str, str]] = ()) -> str:
    lines = [ATLAS_VERSION_LINE, "\t".join(ATLAS_COLUMNS)]
    for r in rows:
        lines.append("\t".join(fmt(getattr(r, name)) for name, fmt, _ in _ATLAS_CODECS))
    for family, params, reason in skipped:
        lines.append(f"# skipped\t{family}\t{params}\t{_clean_cell(reason)}")
    return "\n".join(lines) + "\n"


def parse_atlas(text: str) -> tuple[list[AtlasRow], list[tuple[str, str, str]]]:
    rows: list[AtlasRow] = []
    skipped: list[tuple[str, str, str]] = []
    saw_version = saw_header = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if not saw_version:
            if line != ATLAS_VERSION_LINE:
                raise FormatError(
                    f"line {lineno}: expected {ATLAS_VERSION_LINE!r} first, got {line!r}")
            saw_version = True
            continue
        if line.startswith("# skipped\t"):
            parts = line.split("\t")
            if len(parts) != 4:
                raise FormatError(f"line {lineno}: malformed skipped entry")
            if parts[3] != _clean_cell(parts[3]):
                raise FormatError(f"line {lineno}: skipped reason {parts[3]!r} "
                                  f"would be written {_clean_cell(parts[3])!r}")
            skipped.append((parts[1], parts[2], parts[3]))
            continue
        if line.startswith("#"):
            raise FormatError(f"line {lineno}: unexpected comment line {line!r}")
        cells = line.split("\t")
        if not saw_header:
            if tuple(cells) != ATLAS_COLUMNS:
                raise FormatError(
                    f"line {lineno}: unexpected atlas header {cells!r}")
            saw_header = True
            continue
        if len(cells) != len(ATLAS_COLUMNS):
            raise FormatError(
                f"line {lineno}: expected {len(ATLAS_COLUMNS)} columns, got {len(cells)}")
        try:
            values = {}
            for cell, (name, fmt, parse) in zip(cells, _ATLAS_CODECS):
                values[name] = value = parse(cell)
                if fmt(value) != cell:
                    raise ValueError(f"{name} {cell!r} would be written {fmt(value)!r}")
            rows.append(AtlasRow(**values))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad cell value ({exc})") from exc
    if not saw_header:
        raise FormatError("atlas text has no header line")
    return rows, skipped
