"""Rescaled Hermite polynomials and the weighted orthonormal basis.

The degree-n polynomial attached to the Gaussian exp(-sigma x**2) is

    H_n(x) = (-1)**n exp(sigma x**2) (d/dx)**n exp(-sigma x**2),

with squared weighted norm c**n n!, c = 2 sigma.  The orthonormal basis
psi_n = r_n H_n, r_n = (c**n n!)**(-1/2), comes from the normalized
three-term recurrence (B. Bunck, BIT 49, 2009)

    psi_{n+1} = (sqrt(2 sigma) x psi_n - sqrt(n) psi_{n-1}) / sqrt(n+1),   psi_0 = 1,

which never forms H_n or n!, and H_n = psi_n / r_n (both are checked against
symbolic differentiation in the test suite).  Every weight comes from one
ratio ladder r_n = r_{n-1} / sqrt(c n): at c = 2/nu, r_n Z**n is the unit
vector e_n that the coherent-state transform pairs with psi_n, r_n links a
monomial vector's raw coefficients to its e_n coordinates, and 1/r_n**2 is
the squared norm of Z**n.  At sigma = 1 the psi ladder gives the
Gauss-Hermite weights sqrt(pi) / sum_{k<n} psi_k(t_i)**2 in ``quadrature``.

Limits: Cramer's bound |psi_n(x)| < exp(sigma x**2 / 2) keeps psi_n finite
at every degree for |x| below about 37 / sqrt(sigma).  At sigma = 1 the norm
leaves float range from n = 151, and H_n from n = 268, where r_n leaves the
normal float range; past a limit the functions raise NonFiniteError.

``generating_G`` is the closed form of the bilinear generating series that
pairs this basis with the monomial basis of the holomorphic side.
"""

from __future__ import annotations

import math

import numpy as np

from .bicomplex import Bicomplex, ONE, _channelwise, _fails_closed, _require_finite, as_bicomplex, conj_star
from .errors import NonFiniteError, _require_positive

__all__ = [
    "hermite_sigma",
    "hermite_sigma_bc",
    "hermite_norm_sq",
    "psi_n",
    "psi_values",
    "generating_G",
    "generating_series",
]


def _validate(n: int, sigma: float) -> None:
    if n < 0:
        raise ValueError("degree must be nonnegative")
    _require_positive("sigma", sigma)


def _ratios(degree: int, c: float) -> np.ndarray:
    """r_n = (c**n n!)**(-1/2), n = 0..degree, by r_n = r_{n-1} / sqrt(c n); an r_n
    outside float range underflows to 0 or overflows to inf."""
    with np.errstate(all="ignore"):
        return np.cumprod(np.concatenate(([1.0], 1.0 / np.sqrt(c * np.arange(1, degree + 1)))))


def _scale(degree: int, c: float) -> np.ndarray:
    """The r_n of :func:`_ratios`; outside the normal float range it raises
    NonFiniteError (r_n rises, then falls: the last decides)."""
    r = _ratios(degree, c)
    if not np.finfo(float).tiny <= r[-1] < math.inf:
        raise NonFiniteError(f"(c**n n!)**(-1/2) at degree {degree}, c={c} is outside float range")
    return r


def _weight(n: int, c: float) -> float:
    """c**n n! = 1 / r_n**2; outside the normal float range it raises NonFiniteError."""
    with np.errstate(all="ignore"):
        value = float(1.0 / _scale(n, c)[-1] ** 2)
    if not np.finfo(float).tiny <= value < math.inf:
        raise NonFiniteError(f"c**n n! at degree {n}, c={c} is outside float range")
    return value


def _ladder(n: int, sigma: float, x):
    """Yield psi_0(x) .. psi_n(x) by the normalized three-term recurrence;
    ``x`` may be a real scalar, an ndarray or a Bicomplex value."""
    p_prev, p = 0.0, ONE if isinstance(x, Bicomplex) else 1.0 + 0.0 * x
    yield p
    root_c_x = math.sqrt(2.0 * sigma) * x
    for k in range(n):
        p_prev, p = p, (root_c_x * p - math.sqrt(k) * p_prev) / math.sqrt(k + 1)
        yield p


@_fails_closed
def hermite_sigma(n: int, sigma: float, x):
    """Evaluate H_n = psi_n / r_n at ``x`` (scalar or ndarray); a value
    outside float range raises NonFiniteError."""
    return psi_n(n, sigma, x) / float(_scale(n, 2.0 * sigma)[-1])


def hermite_sigma_bc(n: int, sigma: float, Z: Bicomplex) -> Bicomplex:
    """Evaluate H_n at a bicomplex argument via the same recurrence."""
    return hermite_sigma(n, sigma, as_bicomplex(Z))


def hermite_norm_sq(n: int, sigma: float) -> float:
    """Squared weighted norm (2 sigma)**n n! of H_n; outside float range it raises NonFiniteError."""
    _validate(n, sigma)
    return _weight(n, 2.0 * sigma)


def psi_n(n: int, sigma: float, x):
    """Orthonormal basis element psi_n = H_n / sqrt((2 sigma)**n n!)."""
    return psi_values(n, sigma, x)[-1]


def psi_values(n_max: int, sigma: float, x) -> list:
    """All of psi_0 .. psi_{n_max} at ``x`` in one recurrence pass; a value
    outside float range raises NonFiniteError."""
    _validate(n_max, sigma)
    message = f"psi_{n_max} at sigma={sigma} is outside float range"
    with np.errstate(all="ignore"):
        try:
            values = list(_ladder(n_max, sigma, x))
        except OverflowError:  # an int x beyond float range
            raise NonFiniteError(message) from None
    # a non-finite rung makes every later rung non-finite, so the last decides
    _require_finite(values[-1], message)
    return values


def _generating(sigma, nu, x, z):
    """exp(-(nu/4) conj(z)**2 + sqrt(sigma nu) x conj(z)), on complex values."""
    zs = np.conjugate(z)
    return np.exp((-0.25 * nu) * (zs * zs) + (math.sqrt(sigma * nu) * x) * zs)


@_fails_closed
def generating_G(sigma: float, nu: float, x, Z: Bicomplex) -> Bicomplex:
    """Closed form exp(-(nu/4) (Z*)**2 + sqrt(sigma nu) x Z*) of the pairing series,
    the complex closed form on each channel, as Z* conjugates each channel.

    ``x`` may be a scalar or ndarray; ``Z`` a Bicomplex value.
    """
    _require_positive("sigma", sigma)
    _require_positive("nu", nu)
    return _channelwise(_generating)(sigma, nu, x, as_bicomplex(Z))


@_fails_closed
def generating_series(sigma: float, nu: float, x, Z: Bicomplex, n_terms: int = 60) -> Bicomplex:
    """Partial sum of the generating series; the oracle for :func:`generating_G`.

    Terms are psi_n(x) (Z*)**n r_n with r_n = (nu**n / (2**n n!))**(1/2).  A sum
    outside float range raises NonFiniteError.
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    _validate(n_terms - 1, sigma)
    _require_positive("nu", nu)
    Zs = conj_star(as_bicomplex(Z))
    terms = zip(_ladder(n_terms - 1, sigma, x), _scale(n_terms - 1, 2.0 / nu).tolist())
    acc = as_bicomplex(next(terms)[0])  # r_0 = 1
    power = ONE
    for p, r in terms:
        power = power * Zs
        acc = acc + (power * p) * r
    return acc
