"""Serialized forms of certification results: JSON documents and a TSV atlas.

The fields of ``CertificateDocument`` and ``AtlasRow`` declare both formats:
the JSON keys, the atlas columns and the types a loader accepts are all
read off them.

Loading a JSON document checks every value against its field's declared
type, refuses keys that no field declares, and recomputes the sha256 digest
over the intersection evidence rows.
The digest covers only those rows; checking a certificate by replaying it
arrives with ROADMAP item 1. A built document holds the certificate's
``IntersectionEvidence`` rows as they are; a loaded one holds plain tuples,
which compare equal to them. Orders are stored exactly, with a convenience
log2 field that is null whenever the order is not a power of two (tight
groups of non-2-power type exist, so this cannot be assumed).

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

from .errors import FormatError
from .verify import SggiCertificate

SCHEMA_VERSION = 1
ATLAS_VERSION = 1
ATLAS_VERSION_LINE = f"# atlas-version {ATLAS_VERSION}"


def order_log2(n: int) -> int | None:
    """Exact log2 of a positive integer, or None when not a power of two."""
    if n < 1 or n & (n - 1):
        return None
    return n.bit_length() - 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def evidence_digest(evidence: Sequence[tuple[tuple[int, ...], tuple[int, ...], int, int]]) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(evidence).encode()).hexdigest()


@dataclass(frozen=True, eq=True)
class CertificateDocument:
    """The serializable view of one certification run."""

    family: str | None
    params: str | None
    rank: int
    order: int
    log2_order: int | None
    schlafli_type: tuple[int, ...]
    declared_type: tuple[int, ...] | None
    involution_orders: tuple[int, ...]
    involutions_ok: bool
    string_ok: bool
    intersection_ok: bool
    passed: bool
    intersection_mode: str
    degenerate: bool
    tight: bool
    minimal: bool
    parabolic_orders: tuple[tuple[tuple[int, ...], int], ...]
    warnings: tuple[str, ...]
    unsafe_params: bool
    f_vector: tuple[int, ...] | None
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
_ATLAS_HINTS = typing.get_type_hints(AtlasRow)
ATLAS_COLUMNS = tuple(_ATLAS_HINTS)


def _copy(cls, source, **own):
    """A ``cls`` built from ``own`` plus every other field without a default,
    read off the attribute of the same name on ``source``."""
    shared = {f.name: getattr(source, f.name) for f in fields(cls)
              if f.name not in own and f.default is MISSING}
    return cls(**own, **shared)


def build_certificate_document(cert: SggiCertificate,
                               family: str | None = None,
                               params: str | None = None,
                               unsafe_params: bool = False,
                               f_vector: Sequence[int] | None = None) -> CertificateDocument:
    evidence = cert.intersection_evidence
    return _copy(
        CertificateDocument, cert, family=family, params=params,
        log2_order=order_log2(cert.order), unsafe_params=unsafe_params,
        f_vector=tuple(f_vector) if f_vector is not None else None,
        evidence=evidence, evidence_digest=evidence_digest(evidence))


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
    doc = CertificateDocument(**values)
    if json.loads(certificate_to_json(doc)) != payload:
        raise FormatError("malformed certificate document: keys that no field declares")
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
