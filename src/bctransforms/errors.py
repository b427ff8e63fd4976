"""Exception types shared across the package, and the weight-parameter guard."""

import sys


class BCTransformsError(Exception):
    """Base class for every library-specific error."""


class NullConeError(BCTransformsError, ZeroDivisionError):
    """Inversion (or division) hit a zero divisor: min(|alpha|, |beta|) is below tolerance."""


class BranchCutError(BCTransformsError, ValueError):
    """A principal square root was requested for a channel value on the branch cut
    (the closed negative real axis)."""


class ExcludedParameterError(BCTransformsError, ValueError):
    """A rotation parameter sits on, or too close to, the excluded set {+1, -1, +ij, -ij}."""


class DomainError(BCTransformsError, ValueError):
    """A weight parameter is not positive and finite, or a closed-form
    integral was requested outside its convergence domain."""


class NonFiniteError(BCTransformsError, ArithmeticError):
    """A value left float range: a closed form, evaluation, norm, pairing or diagonal
    map overflowed, or an integrand produced NaN or infinity at a quadrature node."""


class ConvergenceError(BCTransformsError, RuntimeError):
    """Node computation for a quadrature rule failed to converge."""


class DimensionMismatch(BCTransformsError, ValueError):
    """Operands carry incompatible weight parameters or coefficient layouts."""


def _require_positive(name: str, value) -> None:
    """Raise DomainError unless 0 < ``value`` <= the largest float; NaN, inf and
    an int beyond float range fail."""
    if not 0 < value <= sys.float_info.max:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
