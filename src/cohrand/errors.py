"""Exception types shared across the package."""


class CohrandError(Exception):
    """Base class for all package errors."""


class StateValidationError(CohrandError):
    """A raw matrix or vector failed a state invariant."""


class NotHermitian(StateValidationError):
    pass


class TraceNotOne(StateValidationError, ValueError):
    """Tr rho, or a pure state's squared norm sum |a_i|^2 = tr|psi><psi|, is
    not 1. Also a ValueError, like NotFinite, so a caller that catches
    ValueError for a bad state file still catches it."""


class NotPSD(StateValidationError):
    pass


class NotFinite(StateValidationError, ValueError):
    """An entry is NaN or infinite. Also a ValueError, which the Bloch-vector
    parser raises for its other invariants."""


class DimensionNot2(CohrandError):
    """Operation defined for qubits only."""


class DimensionMismatch(CohrandError):
    pass


class NotIsometry(CohrandError):
    pass


class RankMismatch(CohrandError):
    pass


class NotAPartition(CohrandError):
    pass


class NonExactMeasure(CohrandError):
    """The requested measure is only an upper estimate and cannot back an
    exact inequality check."""


class TooLarge(CohrandError):
    """Requested problem size exceeds the configured memory bound."""


class RateOutOfRange(CohrandError):
    pass
