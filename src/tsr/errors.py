"""Exception types shared across the package."""


class TsrError(Exception):
    """Base class for all library errors."""


class OverlapError(TsrError):
    """Left and right cut sets overlap: some l >= some r."""


class NotStabilizedError(TsrError):
    """A coefficient demanded from a Limit changed after its scheduled index."""


class GridMergeError(TsrError):
    """Two transseries grids cannot be merged within the configured bounds."""


class ResonanceError(TsrError):
    """Distinct grid points collide in exponential rate (nonresonance violated)."""


class UndecidableSupport(TsrError):
    """A lazy support yielded no nonzero term within the search bound."""


class NotRegularizableError(TsrError):
    """A Borel-plane singularity descriptor has no integration rule."""


class SingularPointError(TsrError):
    """Evaluation requested at a Borel-plane singularity."""


class ToleranceNotMet(TsrError):
    """Quadrature finished above the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class GrowthBoundViolated(TsrError):
    """Laplace variable does not exceed the kernel's lateral growth bound."""


class DegenerateTableError(TsrError):
    """The Pade linear system is singular beyond tolerance."""


class TruncationBoundUnavailable(TsrError):
    """An infinite grid sum has no (c1, c2, c3) constants to bound its tail."""


class UnsupportedPointError(TsrError):
    """Surreal evaluation point outside the supported grammar."""


class DomainError(TsrError):
    """Real evaluation point below the function's domain endpoint, or not finite."""


class ExpressionSyntaxError(TsrError):
    """Parse failure, with position information."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos
