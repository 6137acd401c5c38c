"""Exception types shared across the package."""


class QuditMagicError(Exception):
    """Base class for all package errors."""


class NonInvertibleError(QuditMagicError):
    """Requested a modular inverse of a non-invertible element."""


class DimensionMismatchError(QuditMagicError):
    """Operands live on incompatible (d, N) systems."""


class BudgetExceededError(QuditMagicError):
    """A build's estimated peak, with its transients and what it holds
    meanwhile (a closure's elements so far), is over MEMORY_BUDGET bytes;
    raised before allocating."""


MEMORY_BUDGET = 2 ** 31  # bytes; the one memory limit of the package


def check_budget(nbytes: int, what: str) -> None:
    """Raise BudgetExceededError, before anything is allocated, when building
    `what` is estimated to need more than MEMORY_BUDGET bytes."""
    if nbytes > MEMORY_BUDGET:
        bits = int(nbytes).bit_length()  # beyond ~2^1024 a float conversion overflows
        size = (f"{nbytes:.3g} bytes ({nbytes / 2 ** 30:.3g} GiB)" if bits <= 1000
                else f"about 2^{bits - 1} bytes")
        raise BudgetExceededError(f"{what} needs an estimated {size}, "
                                  f"over the {MEMORY_BUDGET / 2 ** 30:g} GiB memory budget")


class UnsupportedDimensionError(QuditMagicError):
    """Operation not implemented for this (d, N): phase-point operators need odd d."""


class InvalidStabilizerError(QuditMagicError):
    """Sign/displacement assignment does not stabilize any state."""


class NotCliffordError(QuditMagicError):
    """Unitary does not normalize the Pauli group."""


class NonClosedGroupError(QuditMagicError):
    """Matrix set is not closed under multiplication with exact phases."""


class InfeasibleExtentError(QuditMagicError):
    """Extent target is outside the span of the dictionary."""


class UnknownStateError(QuditMagicError):
    """State spec not recognized: an unknown catalog name, or a file or JSON
    spec that cannot be read as a state."""


class UnknownTableError(QuditMagicError):
    """Table identifier not recognized."""
