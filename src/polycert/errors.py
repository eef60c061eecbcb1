"""Exception types shared across the package.

Each error that a command-line run can hit maps to a stable machine-readable
reason string (see `polycert.cli`); keeping them as distinct classes lets the
library raise precise failures while the CLI translates them uniformly.
"""


class PolycertError(Exception):
    """Base class for all package-specific errors."""


class InvalidWordError(PolycertError):
    """A word literal or word text form is malformed."""


class InvalidGeneratorError(PolycertError):
    """A generator index is out of range for the presentation at hand."""


class ParameterError(PolycertError):
    """Construction parameters violate their documented preconditions."""


class LimitExceededError(PolycertError):
    """An enumeration or search blew past its configured resource limits.

    A coset or deduction limit also reports how far the enumeration got: the
    cosets created and still live and the bytes allocated to the table's
    columns.
    """

    def __init__(self, message: str, *, cosets_created: int | None = None,
                 deductions: int | None = None, live_cosets: int | None = None,
                 table_bytes: int | None = None):
        super().__init__(message)
        self.cosets_created = cosets_created
        self.deductions = deductions
        self.live_cosets = live_cosets
        self.table_bytes = table_bytes


class TableNotClosedError(PolycertError):
    """A coset table operation needs a closed table but got a partial one."""


class CapacityError(PolycertError):
    """A permutation domain exceeds the supported point cap, or a word built
    by ``words.power`` would exceed the word-length cap."""


class UncertifiedInputError(PolycertError):
    """A construction that requires a passing certificate got none."""


class FormatError(PolycertError):
    """An unsupported serialization or export format name, or certificate or
    atlas text that is malformed or whose digest does not match."""
