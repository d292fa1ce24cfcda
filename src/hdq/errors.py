"""Exception hierarchy shared across the package."""


class HdqError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(HdqError):
    pass


class NotSplitSolvable(HdqError):
    """An ad-operator has eigenvalues with a non-negligible imaginary part."""


class RootPatternViolation(HdqError):
    """The joint eigenvalue pattern does not fit a normal j-algebra."""


class DegenerateDual(HdqError):
    """The fundamental roots do not admit a dual basis."""


class PositivityUnfixable(HdqError):
    """Neither orientation sign makes the Hermitian form cone-positive."""


class SolverDiverged(HdqError):
    pass


class NotInDomain(HdqError):
    pass


class NotInvertible(HdqError):
    pass


class ClusterAmbiguous(HdqError):
    """Two eigenvalue clusters are too close to separate reliably."""


class HeisenbergCheckFailed(HdqError):
    pass


class NotInNilradical(HdqError):
    pass


class ZeroSemisimplePart(HdqError):
    pass


class TotallyRealCheckFailed(HdqError):
    """A constructed subalgebra failed its determinant verification."""


class MalformedCertificate(HdqError):
    pass


class InputError(HdqError):
    """Bad user input (files, preset names, coefficient strings)."""
