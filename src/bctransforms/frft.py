"""Two-parameter fractional Fourier transform and Mehler kernels.

The rotation parameter theta is a bicomplex number acting channelwise.  Two
regimes are admitted: ``unit_torus`` (both channel values on the unit circle,
excluding the four points where a channel hits +1 or -1, i.e. theta in
{+1, -1, +ij, -ij}) and ``interior`` (both channel moduli < 1, zero channels
allowed - a collapsed channel simply transforms trivially).

On basis vectors the transform scales psi_n by theta**n, so the coefficient
map c_n -> theta**n c_n is the primary data path.  The equivalent integral
form uses the Gaussian kernel

    (c_0 / sqrt(1 - theta**2)) exp(-S (x - theta y)**2),   S = sigma / (1 - theta**2),

whose real decay rate in x is exactly sigma/2 on the unit torus and faster
inside it, so the quadrature rule always carries gamma = sigma/2 with the
residual folded in.  Every kernel here is a prefactor times the one complex
formula exp(fold - S (x - theta Y)**2) applied to each channel: the continued
kernel puts a ring point Z in place of y, the closed Mehler sums fold
sigma x**2 into the exponent and the integral form folds (sigma/2) x**2, so
the rotation kernel equals c_0 exp(-sigma x**2) times the closed Mehler sum
by construction.  The series oracles instead sum theta**n psi_n(x) psi_n(y)
term by term.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bicomplex import (
    Bicomplex,
    ONE,
    _channelwise,
    _fails_closed,
    as_bicomplex,
    conj_star,
    inverse as bc_inverse,
    sqrt_principal,
)
from .bargmann import HermiteCoeffVector
from .errors import DomainError, ExcludedParameterError, _require_positive
from .hermite import _ladder
from .quadrature import DEFAULT_ORDER, gauss_hermite, integrate_real, normalization_c

__all__ = [
    "ThetaParam",
    "frft_kernel",
    "frft_apply",
    "frft_coefficients",
    "frft_inverse",
    "mehler_closed",
    "mehler_series",
    "mehler_bilinear_bc",
    "mehler_bilinear_series",
    "ck_frft_kernel",
    "gaussian_integral_closed",
]

#: how close a channel value may come to +1 or -1 before the parameter is
#: rejected as excluded
EXCLUSION_TOL = 1e-9

_UNIT_TOL = 1e-12


def _check_not_excluded(theta: Bicomplex) -> None:
    # each theta guard tests "not (inside the allowed set)", so a NaN channel fails it
    for name, v in (("alpha", theta.alpha), ("beta", theta.beta)):
        if not (abs(v - 1.0) > EXCLUSION_TOL and abs(v + 1.0) > EXCLUSION_TOL):
            raise ExcludedParameterError(
                f"theta {name} channel within {EXCLUSION_TOL} of +/-1; the rotation is singular there"
            )


@dataclass(frozen=True)
class ThetaParam:
    """Validated rotation parameter.

    mode="unit_torus": both channel moduli equal 1 (tolerance 1e-12) and no
    channel sits within EXCLUSION_TOL of +1 or -1.
    mode="interior": both channel moduli < 1; null channels are fine.
    """

    theta: Bicomplex
    mode: str = "unit_torus"

    def __post_init__(self):
        th = as_bicomplex(self.theta)
        object.__setattr__(self, "theta", th)
        if self.mode == "unit_torus":
            for name, v in (("alpha", th.alpha), ("beta", th.beta)):
                if not abs(abs(v) - 1.0) <= _UNIT_TOL:
                    raise ExcludedParameterError(
                        f"theta {name} channel modulus {abs(v)!r} is not on the unit circle"
                    )
            _check_not_excluded(th)
        elif self.mode == "interior":
            if not (abs(th.alpha) < 1.0 and abs(th.beta) < 1.0):
                raise ExcludedParameterError("interior theta needs both channel moduli < 1")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")

    @classmethod
    def from_phases(cls, phi1: float, phi2: float) -> "ThetaParam":
        """Unit-torus parameter exp(i phi1) e+ + exp(i phi2) e-; a non-finite
        phase, or an int beyond float range, raises ExcludedParameterError."""
        if not (abs(phi1) <= sys.float_info.max and abs(phi2) <= sys.float_info.max):
            raise ExcludedParameterError(f"theta phases must be finite, got ({phi1!r}, {phi2!r})")
        return cls(Bicomplex.from_channels(np.exp(1j * phi1), np.exp(1j * phi2)))

    @classmethod
    def interior(cls, theta) -> "ThetaParam":
        return cls(as_bicomplex(theta), mode="interior")


def _rotation(
    sigma: float, theta, guard: Callable = as_bicomplex
) -> tuple[Bicomplex, Bicomplex, Bicomplex]:
    """Validated ``(theta, (1 - theta**2)**(-1/2), S = sigma / (1 - theta**2))``.

    sigma is checked first, then ``guard`` validates and returns theta, then
    1 - theta**2 must stay off the null cone.
    """
    _require_positive("sigma", sigma)
    th = guard(theta)
    pd = ONE - th * th
    if pd.is_null(EXCLUSION_TOL):
        raise ExcludedParameterError("1 - theta**2 is a zero divisor; theta is excluded")
    return th, bc_inverse(sqrt_principal(pd)), sigma * bc_inverse(pd)


def _rotation_gaussian(S, theta, x, Y, fold=0):
    """exp(fold - S (x - theta Y)**2), on complex values: every rotation kernel
    is a prefactor times this formula on each channel, with ``fold`` the
    Gaussian term added to the rotation exponent."""
    square = (x - theta * Y) ** 2
    return np.exp(fold - S * square)


@_fails_closed
def frft_kernel(sigma: float, theta: ThetaParam, x, y) -> Bicomplex:
    """Gaussian rotation kernel at real points ``x``, ``y``."""
    th, pref, S = _rotation(sigma, theta.theta)
    return (normalization_c(0, sigma) * pref) * _channelwise(_rotation_gaussian)(S, th, x, y)


def frft_coefficients(psi: HermiteCoeffVector, theta: ThetaParam) -> HermiteCoeffVector:
    """Diagonal coefficient map c_n -> theta**n c_n."""
    th = theta.theta

    def powers(t):  # t**0 .. t**degree by repeated multiplication
        return np.cumprod(np.concatenate(([1.0 + 0j], np.full(psi.degree, t))))

    theta_n = Bicomplex.from_channels(powers(th.alpha), powers(th.beta))
    return HermiteCoeffVector(psi.sigma, theta_n * psi.coeffs)


def frft_apply(
    psi,
    theta: ThetaParam,
    y: float,
    *,
    sigma: float | None = None,
    order: int = DEFAULT_ORDER,
    vectorized: bool = True,
) -> Bicomplex:
    """Transform ``psi`` and evaluate at ``y``.

    A HermiteCoeffVector goes through the exact coefficient path.  A callable
    is integrated against the kernel with rule weight sigma/2 and the
    residual exp(+(sigma/2) x**2) folded into the exponent; ``sigma`` is then
    required.  ``vectorized`` is accepted for compatibility only.
    """
    if isinstance(psi, HermiteCoeffVector):
        return frft_coefficients(psi, theta).evaluate(y)
    if sigma is None:
        raise TypeError("sigma is required when psi is a callable")
    th, pref, S = _rotation(sigma, theta.theta)
    rule = gauss_hermite(order, sigma / 2.0)

    def integrand(x):
        return _channelwise(_rotation_gaussian)(S, th, x, y, (0.5 * sigma) * x**2) * as_bicomplex(psi(x))

    val = integrate_real(integrand, rule)
    return (normalization_c(0, sigma) * pref) * val


def frft_inverse(
    psi,
    theta: ThetaParam,
    x: float,
    *,
    sigma: float | None = None,
    order: int = DEFAULT_ORDER,
    vectorized: bool = True,
) -> Bicomplex:
    """Apply the rotation by conj_star(theta); inverts frft_apply on the torus.
    ``vectorized`` is accepted for compatibility only."""
    if theta.mode != "unit_torus":
        raise ExcludedParameterError("inversion by conjugate rotation needs unit-torus theta")
    inv = ThetaParam(conj_star(theta.theta), mode=theta.mode)
    return frft_apply(psi, inv, x, sigma=sigma, order=order)


def _mehler_guard(theta: Bicomplex) -> Bicomplex:
    th = as_bicomplex(theta)
    _check_not_excluded(th)
    if not (abs(th.alpha) <= 1.0 + _UNIT_TOL and abs(th.beta) <= 1.0 + _UNIT_TOL):
        raise ExcludedParameterError("Mehler kernel needs channel moduli <= 1")
    return th


@_fails_closed
def mehler_closed(sigma: float, theta, x, y) -> Bicomplex:
    """Closed Mehler sum (1-theta**2)**(-1/2) exp((-sigma theta**2 (x**2+y**2)
    + 2 sigma theta x y) / (1-theta**2)) at real points.

    The exponent is the rotation exponent -S (x - theta y)**2 plus sigma x**2.
    """
    th, pref, S = _rotation(sigma, theta, _mehler_guard)
    return pref * _channelwise(_rotation_gaussian)(S, th, x, y, sigma * x * x)


@_fails_closed
def mehler_series(sigma: float, theta, x, y, n_terms: int = 60) -> Bicomplex:
    """Partial Mehler sum sum_n theta**n psi_n(x) psi_n(y); ``y`` may be
    bicomplex.  A sum outside float range raises NonFiniteError."""
    if n_terms < 1:
        raise ValueError("need at least one term")
    th, _, _ = _rotation(sigma, theta, _mehler_guard)
    acc = power = ONE
    ladders = zip(_ladder(n_terms - 1, sigma, x), _ladder(n_terms - 1, sigma, y))
    next(ladders)  # the n = 0 term is the ONE already in acc
    for px, py in ladders:
        power = power * th
        acc = acc + power * (px * py)
    return acc


def mehler_bilinear_bc(sigma: float, theta, Z: Bicomplex, y) -> Bicomplex:
    """Closed Mehler sum with the first argument bicomplex.

    The sum is symmetric in its two arguments, so the exponent is the
    rotation exponent -S (y - theta Z)**2 plus sigma y**2.
    """
    return mehler_closed(sigma, theta, y, as_bicomplex(Z))


def mehler_bilinear_series(sigma: float, theta, Z: Bicomplex, y, n_terms: int = 60) -> Bicomplex:
    """Series oracle for :func:`mehler_bilinear_bc`."""
    return mehler_series(sigma, theta, y, as_bicomplex(Z), n_terms)


def ck_frft_kernel(sigma: float, theta: ThetaParam, x, Z: Bicomplex) -> Bicomplex:
    """Kernel with the output argument continued off the real line.

    This is frft_kernel with the real y replaced by the ring point Z, so
    restricting Z to a real y recovers frft_kernel(sigma, theta, x, y); the
    whole expression equals c_0 exp(-sigma x**2) times the bilinear Mehler
    closed form.
    """
    return frft_kernel(sigma, theta, x, as_bicomplex(Z))


@_fails_closed
def gaussian_integral_closed(gamma: float, a: complex, b: complex, c: complex, d: complex) -> complex:
    """Closed planar Gaussian integral
    integral exp(-gamma |zeta|**2 + a zeta**2 + b conj(zeta)**2 + c zeta
                 + d conj(zeta)) dlambda(zeta)
    = pi / sqrt(gamma**2 - 4ab) * exp((a d**2 + b c**2 + gamma c d)
                                      / (gamma**2 - 4ab)).

    Convergence requires Re(a + b)**2 + Im(a - b)**2 < gamma**2, where the real quadratic
    form is negative definite; outside that (NaN included) DomainError is raised.  The
    square root is the principal branch; a and b enter in units of gamma.  A value outside
    float range (an overflowing exponent, or NaN/inf in the arguments) raises NonFiniteError.
    """
    _require_positive("gamma", gamma)
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    if not math.hypot((a + b).real, (a - b).imag) < gamma:
        raise DomainError("requires Re(a+b)**2 + Im(a-b)**2 < gamma**2")
    A, B = a / gamma, b / gamma
    disc = np.complex128(1.0 - 4.0 * A * B)  # numpy complex: a zero gives inf/NaN, not ZeroDivisionError
    return complex(math.pi / (gamma * np.sqrt(disc)) * np.exp((A * d * d + B * c * c + c * d) / (gamma * disc)))
