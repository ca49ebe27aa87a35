"""Exception types shared across the package."""


class PrivauctionError(Exception):
    """Base class for all package errors."""


class ParseError(PrivauctionError):
    """Input could not be parsed (malformed JSON/CSV, missing or mistyped field)."""


class ValidationError(PrivauctionError):
    """A structural invariant of the data model is violated."""


class EmptyInstance(PrivauctionError):
    """Every individual was removed; no estimator can pay anyone within budget."""


class DimensionMismatch(PrivauctionError):
    """Vector lengths disagree with the instance size."""


class InstanceTooLarge(PrivauctionError):
    """Instance exceeds the size bound of an exhaustive computation."""


class NotCanonical(PrivauctionError):
    """Unit costs are not in non-decreasing order."""


class KOutOfRange(PrivauctionError):
    """Neighbor count outside [1, n]."""


class DegenerateKernelMass(PrivauctionError):
    """Kernel normalizer is zero: Gaussian similarities underflowed, or linear ones are all zero."""


class SingularSystem(PrivauctionError):
    """Linear system is not positive definite."""


class ParameterOutOfRange(PrivauctionError):
    """A numeric parameter lies outside its documented domain."""


class DegenerateAllOnes(PrivauctionError):
    """Continuous relaxation degenerates to full participation (all costs zero)."""


class IllConditionedWarning(UserWarning):
    """Linear system condition number exceeds the trust threshold."""
