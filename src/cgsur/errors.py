"""Exception types shared across the package."""


class CgsurError(Exception):
    """Base class for all package-specific failures."""


class InvalidSize(CgsurError):
    pass


class FactorizationError(CgsurError):
    pass


class NonPositiveConductivity(CgsurError):
    pass


class SingularSystem(CgsurError):
    pass


class DimensionMismatch(CgsurError):
    pass


class TapeConsumed(CgsurError):
    pass


class GridMismatch(CgsurError):
    pass


class IllConditioned(CgsurError):
    pass


class NonFiniteLoss(CgsurError):
    pass


class DegenerateValidation(CgsurError):
    pass


class NonPositiveVariance(CgsurError):
    pass


class InvalidInput(CgsurError, ValueError):
    """A value from outside the package that it cannot use, such as a NaN."""
