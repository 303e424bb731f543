"""Exception hierarchy shared across the toolkit.

The CLI maps these onto process exit codes: usage errors are handled by
click itself (exit 2), DataError exits 3, NumericalError exits 4.
"""


class AttnQuantError(Exception):
    """Base class for all toolkit errors."""


class DataError(AttnQuantError):
    """Malformed input: bad files, shape mismatches, empty calibration sets."""


class NumericalError(AttnQuantError):
    """Numerical contract violation: asymmetry, indefiniteness, NaN/Inf."""


class NonFiniteRounding(NumericalError):
    """The learned rounding of one slab of a stacked optimization went
    non-finite; ``slab`` is that slab's index, so the caller can name it."""

    def __init__(self, message: str, slab: int):
        super().__init__(message)
        self.slab = slab


class SizeBudgetError(NumericalError):
    """A dense intermediate (e.g. an explicit Kronecker product) would
    exceed the caller-declared element budget."""
