"""Exception types shared across the package.

This module is the one place that maps a failure to its exit code. Each
class declares a stable machine-readable ``category`` and the process
``exit_code`` as class attributes, and a subclass inherits both or
overrides them: 3 a mathematical check failed, 4 invalid parameters or
formats, 5 a resource limit was hit. `polycert.cli.main` reports any
``PolycertError`` the same way, as one ``polycert: <category>: <message>``
line on stderr and its exit code.
"""


class PolycertError(Exception):
    """Base class for all package-specific errors."""

    category = "param-invalid"
    exit_code = 4


class InvalidWordError(PolycertError):
    """A word literal or word text form is malformed."""


class InvalidGeneratorError(PolycertError):
    """A generator index is out of range for the presentation at hand."""


class ParameterError(PolycertError):
    """Construction parameters violate their documented preconditions."""


class FormatError(PolycertError):
    """An unsupported serialization or export format name, or certificate or
    atlas text that is malformed or whose digest does not match."""

    category = "format-invalid"


class LimitExceededError(PolycertError):
    """An enumeration or search blew past its configured resource limits.

    A coset or deduction limit also reports how far the enumeration got: the
    cosets created and still live and the bytes allocated to the table's
    columns.
    """

    category = "limit-exceeded"
    exit_code = 5

    def __init__(self, message: str, *, cosets_created: int | None = None,
                 deductions: int | None = None, live_cosets: int | None = None,
                 table_bytes: int | None = None):
        super().__init__(message)
        self.cosets_created = cosets_created
        self.deductions = deductions
        self.live_cosets = live_cosets
        self.table_bytes = table_bytes


class CapacityError(PolycertError):
    """A permutation domain exceeds the supported point cap, or a word built
    by ``words.power`` would exceed the word-length cap."""

    category = "limit-exceeded"
    exit_code = 5


class CheckFailedError(PolycertError):
    """A mathematical check failed: a group, table, chain or lattice is not
    what it was claimed or required to be."""

    category = "check-failed"
    exit_code = 3


class TableNotClosedError(CheckFailedError):
    """A coset table operation needs a closed table but got a partial one."""


class UncertifiedInputError(CheckFailedError):
    """A construction that requires a passing certificate got none."""
