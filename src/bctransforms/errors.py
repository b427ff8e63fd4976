"""Exception types shared across the package, and the parameter guards."""

import math
from numbers import Integral, Real

__all__ = [
    "BCTransformsError", "NullConeError", "BranchCutError", "ExcludedParameterError",
    "DomainError", "NonFiniteError", "ConvergenceError", "DimensionMismatch",
]


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


def _require_positive(name: str, value) -> float:
    """Return ``value`` as a Python float if it is a real number with
    0 < float(value) < inf, else raise DomainError (NaN, inf, an int beyond
    float range, a non-real).  Comparing in Python floats keeps a float32 from
    casting the float maximum to float32, which overflows."""
    try:
        out = float(value) if isinstance(value, Real) else math.nan
    except OverflowError:  # an int beyond float range
        out = math.nan
    if not 0 < out < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return out


def _require_int(name: str, value, least: int) -> int:
    """Return ``value`` as a Python int if it is an int (numpy ints included,
    bools not) >= ``least``; otherwise raise DomainError."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise DomainError(f"{name} must be an int >= {least}, got {value!r}")
    return int(value)
