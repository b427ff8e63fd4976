"""Rescaled Hermite polynomials and the weighted orthonormal basis.

The degree-n polynomial attached to the Gaussian exp(-sigma x**2) is

    H_n(x) = (-1)**n exp(sigma x**2) (d/dx)**n exp(-sigma x**2),

computed here by the three-term recurrence

    H_{n+1}(x) = 2 sigma x H_n(x) - 2 sigma n H_{n-1}(x),   H_0 = 1,

which follows from the Rodrigues form (and is validated against symbolic
differentiation in the test suite).  The squared weighted norm is
2**n sigma**n n!, and psi_n = H_n / sqrt(2**n sigma**n n!) is orthonormal
for the probability-normalized Gaussian pairing on the line.

``generating_G`` is the closed form of the bilinear generating series that
pairs this basis with the monomial basis of the holomorphic side.
"""

from __future__ import annotations

import math
from collections import deque

from .bicomplex import Bicomplex, ONE, _require_finite, as_bicomplex, conj_star, exp as bc_exp
from .errors import _require_positive

__all__ = [
    "hermite_sigma",
    "hermite_sigma_bc",
    "hermite_norm_sq",
    "psi_n",
    "psi_values",
    "generating_G",
    "generating_series",
]

#: beyond this degree the norm is assembled in log space to dodge the
#: exact-integer factorial blowing past float range during conversion
_LOG_NORM_DEGREE = 150


def _validate(n: int, sigma: float) -> None:
    if n < 0:
        raise ValueError("degree must be nonnegative")
    _require_positive("sigma", sigma)


def _ladder(n: int, sigma: float, x):
    """Yield H_0(x) .. H_n(x) by the three-term recurrence.

    ``x`` may be a real scalar, an ndarray or a Bicomplex value.
    """
    h_prev, h = 0.0, ONE if isinstance(x, Bicomplex) else 1.0 + 0.0 * x
    yield h
    two_sigma_x = 2.0 * sigma * x
    for k in range(n):
        h_prev, h = h, two_sigma_x * h - (2.0 * sigma * k) * h_prev
        yield h


def hermite_sigma(n: int, sigma: float, x):
    """Evaluate H_n at real ``x`` (scalar or ndarray) by upward recurrence."""
    _validate(n, sigma)
    return deque(_ladder(n, sigma, x), maxlen=1)[0]


def hermite_sigma_bc(n: int, sigma: float, Z: Bicomplex) -> Bicomplex:
    """Evaluate H_n at a bicomplex argument via the same recurrence."""
    _validate(n, sigma)
    return deque(_ladder(n, sigma, as_bicomplex(Z)), maxlen=1)[0]


def hermite_norm_sq(n: int, sigma: float) -> float:
    """Squared weighted norm 2**n sigma**n n! of H_n."""
    _validate(n, sigma)
    if n > _LOG_NORM_DEGREE:
        return math.exp(n * math.log(2.0 * sigma) + math.lgamma(n + 1))
    return (2.0 * sigma) ** n * math.factorial(n)


def psi_n(n: int, sigma: float, x):
    """Orthonormal basis element psi_n = H_n / sqrt(2**n sigma**n n!)."""
    return hermite_sigma(n, sigma, x) / math.sqrt(hermite_norm_sq(n, sigma))


def psi_values(n_max: int, sigma: float, x) -> list:
    """All of psi_0 .. psi_{n_max} at ``x`` in one recurrence pass."""
    _validate(n_max, sigma)
    return [
        h / math.sqrt(hermite_norm_sq(k, sigma)) for k, h in enumerate(_ladder(n_max, sigma, x))
    ]


def generating_G(sigma: float, nu: float, x, Z: Bicomplex) -> Bicomplex:
    """Closed form exp(-(nu/4) (Z*)**2 + sqrt(sigma nu) x Z*) of the pairing series.

    ``x`` may be a scalar or ndarray; ``Z`` a Bicomplex value.
    """
    _require_positive("sigma", sigma)
    _require_positive("nu", nu)
    Zs = conj_star(as_bicomplex(Z))
    exponent = (-0.25 * nu) * (Zs * Zs) + (math.sqrt(sigma * nu) * x) * Zs
    return _require_finite(bc_exp(exponent), "generating_G is outside float range")


def generating_series(sigma: float, nu: float, x, Z: Bicomplex, n_terms: int = 60) -> Bicomplex:
    """Partial sum of the generating series; the oracle for :func:`generating_G`.

    Terms are H_n(x) (Z*)**n divided by the norm product
    sqrt(2**n sigma**n n!) * sqrt(2**n n! / nu**n).
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    Zs = conj_star(as_bicomplex(Z))
    ladder = _ladder(n_terms - 1, sigma, x)
    acc = as_bicomplex(next(ladder))
    power = ONE
    for n, h in enumerate(ladder, start=1):
        power = power * Zs
        denom = math.sqrt(hermite_norm_sq(n, sigma)) * math.sqrt(
            2.0**n * math.factorial(n) / nu**n
        )
        acc = acc + (power * h) * (1.0 / denom)
    return acc
