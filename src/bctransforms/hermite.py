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
Gauss-Hermite weights sqrt(pi) / sum_{k<n} psi_k(t_i)**2 in ``quadrature``,
and in ratio form the Newton steps psi_n / psi_n' that refine its nodes.

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

from .bicomplex import Bicomplex, _channelwise, _fails_closed, _real_points, _require_finite, as_bicomplex, conj_star
from .errors import NonFiniteError, _require_int, _require_positive

__all__ = [
    "hermite_sigma",
    "hermite_sigma_bc",
    "hermite_norm_sq",
    "psi_n",
    "psi_values",
    "generating_G",
    "generating_series",
]


def _degree(n: int) -> int:
    """``n`` as a Python int; a degree that is not an int >= 0 raises DomainError."""
    return _require_int("degree", n, 0, "degree must be nonnegative")


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
    """Yield psi_0(x) .. psi_n(x) by the normalized three-term recurrence, one rung
    at a time (a fold holds two); ``x`` may be a scalar, an ndarray or a Bicomplex."""
    p_prev, p = 0.0, 1.0 + 0.0 * x
    yield p
    root_c_x = math.sqrt(2.0 * sigma) * x
    for k in range(n):
        p_prev, p = p, (root_c_x * p - math.sqrt(k) * p_prev) / math.sqrt(k + 1)
        yield p


def _ladder_ratio(n: int, x: np.ndarray) -> np.ndarray:
    """psi_n(x) / psi_{n-1}(x) at sigma = 1, n >= 1: the ladder of :func:`_ladder`
    carried in ratio form, u_k = sqrt(k) psi_k / psi_{k-1} with u_1 = sqrt(2) x
    and u_{k+1} = sqrt(2) x - k / u_k, so no rung leaves float range where
    psi_n itself would.  A rung through 0 passes to +-inf and back to a finite
    rung, as the recurrence prescribes, so numpy warnings are silenced."""
    u = root2_x = math.sqrt(2.0) * x
    with np.errstate(all="ignore"):
        for k in range(1, n):
            u = root2_x - k / u
    return u / math.sqrt(n)


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
    n, sigma = _degree(n), _require_positive("sigma", sigma)
    return _weight(n, 2.0 * sigma)


def psi_n(n: int, sigma: float, x):
    """Orthonormal basis element psi_n = H_n / sqrt((2 sigma)**n n!)."""
    return psi_values(n, sigma, x)[-1]


def psi_values(n_max: int, sigma: float, x) -> list:
    """All of psi_0 .. psi_{n_max} at ``x`` in one recurrence pass; a value
    outside float range raises NonFiniteError."""
    n_max, sigma, x = _degree(n_max), _require_positive("sigma", sigma), _real_points(x)
    message = f"psi_{n_max} at sigma={sigma} is outside float range"
    with np.errstate(all="ignore"):
        try:
            values = list(_ladder(n_max, sigma, x))
        except OverflowError:  # an int x beyond float range
            raise NonFiniteError(message) from None
    # a non-finite rung makes every later rung non-finite, so the last decides
    _require_finite(values[-1], message)
    return values


def _powers(t, degree: int) -> np.ndarray:
    """t**0 .. t**degree along a new first axis, by repeated multiplication."""
    t = np.asarray(t)[None]
    return np.cumprod(np.concatenate((np.ones_like(t), np.repeat(t, degree, axis=0))), axis=0)


def _expansion(coeffs, sigma: float, x):
    """sum_n coeffs[n] psi_n(x), the sum of every Hermite expansion: einsum's own loop
    (not BLAS) contracts the coefficient rows, of shape (N+1, ...), against the rows
    psi_0(x) .. psi_N(x), the trailing axes broadcast.  ``_channelwise`` lifts it to the ring."""
    return np.einsum("n...,n...->...", coeffs, np.array(psi_values(len(coeffs) - 1, sigma, x)))


def _generating_exponent(sigma, nu):
    """G(x, z) = exp(a w**2 + b x w) at w = conj(z): a = -nu/4, b = sqrt(sigma nu)."""
    return -0.25 * nu, math.sqrt(sigma * nu)


def _planar_exponential(a, b, p, w):
    """exp(a conj(w)**2 + b p conj(w)) on complex values, without the a term where a == 0:
    every planar kernel is this formula on each channel, at the numbers (a, b) its forms pass."""
    ws = np.conjugate(w)
    exponent = b * p * ws
    if a != 0:
        exponent = a * (ws * ws) + exponent
    return np.exp(exponent)


@_fails_closed
def generating_G(sigma: float, nu: float, x, Z: Bicomplex) -> Bicomplex:
    """Closed form exp(-(nu/4) (Z*)**2 + sqrt(sigma nu) x Z*) of the pairing series at real
    points ``x`` and a ring value ``Z``: the planar formula on each channel, as Z* conjugates
    each channel."""
    sigma, nu = _require_positive("sigma", sigma), _require_positive("nu", nu)
    return _channelwise(_planar_exponential)(*_generating_exponent(sigma, nu), _real_points(x), as_bicomplex(Z))


@_fails_closed
def generating_series(sigma: float, nu: float, x, Z: Bicomplex, n_terms: int = 60) -> Bicomplex:
    """Partial sum of the generating series; the oracle for :func:`generating_G`.

    It is the expansion in psi_n(x) with coefficients r_n (Z*)**n, where r_n =
    (nu**n / (2**n n!))**(1/2).  A sum outside float range raises NonFiniteError.
    """
    n = _require_int("n_terms", n_terms, 1, "need at least one term") - 1
    sigma, nu = _require_positive("sigma", sigma), _require_positive("nu", nu)
    r = _scale(n, 2.0 / nu)

    def series(zs, x):  # sum_n r_n zs**n psi_n(x) on one channel, a complex at a point
        out = _expansion((_powers(zs, n).T * r).T, sigma, x)
        return out if np.ndim(out) else complex(out)

    return _channelwise(series)(conj_star(as_bicomplex(Z)), x)
