"""Exception types shared across the package, and the parameter guards."""

import sys
from numbers import Integral, Real


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
    an int beyond float range and a value that is not a real number fail."""
    if not (isinstance(value, Real) and 0 < value <= sys.float_info.max):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _require_int(name: str, value, least: int) -> int:
    """Return ``value`` as a Python int if it is an int (numpy ints included,
    bools not) >= ``least``; otherwise raise DomainError."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise DomainError(f"{name} must be an int >= {least}, got {value!r}")
    return int(value)
