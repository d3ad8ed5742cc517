"""Exception types shared across the package."""


class TsrError(Exception):
    """Base class for all library errors."""


class GridMergeError(TsrError):
    """Terms that no T1 holds: groups at one rate whose offsets differ by a
    non-integer, a power of x at a non-integer offset, or a log term
    outside depth one."""


class UndecidableSupport(TsrError):
    """A series or term stream showed no nonzero term within the scan bound."""


class NotRegularizableError(TsrError):
    """A Borel-plane singularity descriptor has no integration rule."""


class SingularPointError(TsrError):
    """Evaluation requested at a Borel-plane singularity."""


class ToleranceNotMet(TsrError):
    """Quadrature finished above the requested tolerance."""


class GrowthBoundViolated(TsrError):
    """Laplace variable at or below 0, or a quadrature kernel's growth bound."""


class DegenerateTableError(TsrError):
    """The Pade linear system is singular beyond tolerance."""


class UnsupportedPointError(TsrError):
    """Surreal evaluation point outside the supported grammar."""


class DomainError(TsrError):
    """Real evaluation point below the function's domain endpoint, not finite,
    or past the work bound of the function's oracle (Airy's Maclaurin sum);
    or a verb's input outside what it transforms (``borel``'s power series,
    ``mul``'s decaying algebra plus constants, ``weights``' address of + and
    -, ``sum``'s transseries JSON); or a working precision or tolerance that
    is not positive."""


class ExpressionSyntaxError(TsrError):
    """Parse failure, with position information."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos
