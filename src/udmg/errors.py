"""Exception types shared across the package."""


class UdmgError(Exception):
    """Base class for all errors raised by this package."""


# -- field construction and arithmetic --------------------------------------

class NonPrimeError(UdmgError):
    """Requested characteristic is not prime."""


class FieldTooLargeError(UdmgError):
    """Field cardinality exceeds the desk-scale cap."""


class FieldMismatchError(UdmgError):
    """Operands belong to different fields."""


# -- linear algebra ----------------------------------------------------------

class AmbientMismatchError(UdmgError):
    """Subspaces live in different ambient dimensions."""


# -- matrix-set model --------------------------------------------------------

class LengthMismatchError(UdmgError):
    """A length vector does not fit the matrix set it is applied to."""


class NotProperSubError(UdmgError):
    """Truncation vector is not entrywise smaller than the chain lengths."""


class InvalidInputError(UdmgError):
    """Input fails the validity check required by the operation."""


class TooLargeError(UdmgError):
    """Requested enumeration or construction exceeds its desk-scale guard."""


class HypothesisUnmetError(UdmgError):
    """A stated hypothesis of the requested bound or scheme fails."""


# -- curves and function fields ----------------------------------------------

class SingularCurveError(UdmgError):
    """Curve discriminant vanishes."""


class BadCharacteristicError(UdmgError):
    """Short Weierstrass form needs odd characteristic."""


class HasseWeilViolationError(UdmgError):
    """Point count falls outside the Hasse-Weil-Serre interval (internal bug)."""


class PrecisionExhaustedError(UdmgError):
    """A series vanishes to the working precision; order not certified."""


class PoleAtSupportError(UdmgError):
    """Function has a pole at a point where a finite value was required."""


class UnsupportedDivisorError(UdmgError):
    """Divisor shape outside the supported n*O + (h) family."""


class PointInSupportError(UdmgError):
    """Expansion point lies in the support of the divisor."""


class DependentBasisError(UdmgError):
    """Input functions are linearly dependent."""


class DuplicatePointsError(UdmgError):
    """Evaluation points are not pairwise distinct."""


class TooManyPointsError(UdmgError):
    """More evaluation points than the curve or line can supply."""


# -- codes -------------------------------------------------------------------

class TooShortError(UdmgError):
    """Matrix set has too few members for the first-column code."""


class RankDeficientError(UdmgError):
    """Generator matrix does not have full rank."""


# -- modulation --------------------------------------------------------------

class SymbolOutOfRangeError(UdmgError):
    """Symbol outside the alphabet {0, ..., q-1}."""


class EqualInputsError(UdmgError):
    """Two symbol vectors that must differ are equal."""


class NotSquareError(UdmgError):
    """Coding scheme needs a square, regular matrix set."""
