"""Verified construction of string C-groups of 2-power order.

The package builds finitely presented groups whose generators are
involutions, enumerates them onto concrete coset tables, certifies the
string and intersection properties, and realizes the face lattices of the
abstract regular polytopes they encode. Everything is deterministic and
every expensive computation is re-checked by an independent pass.
"""

from .certificates import (
    ATLAS_COLUMNS,
    SCHEMA_VERSION,
    AtlasRow,
    CertificateDocument,
    build_certificate_document,
    certificate_from_json,
    certificate_to_json,
    evidence_digest,
    format_atlas,
    order_log2,
    parse_atlas,
    row_from_document,
)
from .coset import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    EnumerationLimits,
    EnumerationStats,
    enumerate_cosets,
)
from .errors import (
    CapacityError,
    CheckFailedError,
    FormatError,
    InvalidGeneratorError,
    InvalidWordError,
    LimitExceededError,
    ParameterError,
    PolycertError,
    TableNotClosedError,
    UncertifiedInputError,
)
from .families import (
    a_parameter_tuples,
    coxeter_string_presentation,
    family_a,
    family_g,
    family_h,
    family_k,
    family_l,
    family_m,
    tight_quotient_presentation,
)
from .perms import PermutationGroup
from .polytope import (
    FaceLattice,
    build_lattice,
    check_diamond,
    check_flag_connectivity,
    check_flag_matchings,
    check_section_connectivity,
    export_hasse,
    flag_graph,
)
from .realize import RealizedGroup
from .verify import (
    IntersectionEvidence,
    SggiCertificate,
    SggiSpec,
    certify,
    check_intersection_property_full,
    check_intersection_property_recursive,
    check_involutions,
    check_string_property,
    schlafli_type,
)
from .words import (
    Presentation,
    commutator,
    generator,
    pair,
    power,
    presentation_from_text,
    word_from_text,
    word_to_text,
)

__version__ = "0.1.0"

__all__ = [
    "ATLAS_COLUMNS",
    "SCHEMA_VERSION",
    "AtlasRow",
    "CapacityError",
    "CertificateDocument",
    "CheckFailedError",
    "CosetTable",
    "DEFAULT_MAX_COSETS",
    "EnumerationLimits",
    "EnumerationStats",
    "FaceLattice",
    "FormatError",
    "IntersectionEvidence",
    "InvalidGeneratorError",
    "InvalidWordError",
    "LimitExceededError",
    "ParameterError",
    "PermutationGroup",
    "PolycertError",
    "Presentation",
    "RealizedGroup",
    "SggiCertificate",
    "SggiSpec",
    "TableNotClosedError",
    "UncertifiedInputError",
    "a_parameter_tuples",
    "build_certificate_document",
    "build_lattice",
    "certificate_from_json",
    "certificate_to_json",
    "certify",
    "check_diamond",
    "check_flag_connectivity",
    "check_flag_matchings",
    "check_intersection_property_full",
    "check_intersection_property_recursive",
    "check_involutions",
    "check_section_connectivity",
    "check_string_property",
    "commutator",
    "coxeter_string_presentation",
    "enumerate_cosets",
    "evidence_digest",
    "export_hasse",
    "family_a",
    "family_g",
    "family_h",
    "family_k",
    "family_l",
    "family_m",
    "flag_graph",
    "format_atlas",
    "generator",
    "order_log2",
    "pair",
    "parse_atlas",
    "power",
    "presentation_from_text",
    "row_from_document",
    "schlafli_type",
    "tight_quotient_presentation",
    "word_from_text",
    "word_to_text",
]
