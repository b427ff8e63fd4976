"""Coherent-state transform between the weighted line and the holomorphic side.

The forward transform maps psi_n to the monomial (nu**n / 2**n n!)**(1/2) Z**n,
so on coefficients it is the diagonal map c_n -> c_n (nu**n / 2**n n!)**(1/2);
that diagonal map is the primary data path, and the Gaussian-kernel integral
form is retained as an independent oracle:

    forward:  c_0 * integral exp(-sigma (x - sqrt(nu/(4 sigma)) Z)**2) phi(x) dx
    inverse:  c_T * integral exp(-nu |Z|**2 - (nu/4)(Z*)**2
                               + sqrt(sigma nu) x Z*) f(Z) dlambda(Z)

Both integral forms are implemented with rules whose Gaussian weight matches
the true decay of the integrand and the residual exponential folded in.  The
inverse integral factorizes over the idempotent channels for holomorphic
``f`` (the only inputs for which the inversion theorem speaks), which is what
the default "split" method computes; "tensor" runs the literal
four-real-dimensional quadrature instead and is kept as a cross-check.

The restriction transform ``s_transform`` rebuilds a holomorphic function on
the ring from its values on the complex slice ``z + j 0``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .bicomplex import Bicomplex, _fails_closed, as_bicomplex, conj_star, exp as bc_exp
from .bargmann import HermiteCoeffVector, MonomialCoeffVector
from .errors import _require_positive
from .hermite import _scale
from .quadrature import (
    DEFAULT_ORDER,
    gauss_hermite,
    integrate_bicomplex,
    integrate_complex,
    integrate_real,
    normalization_c,
)

__all__ = [
    "sbt_kernel_C",
    "sbt_kernel_BC",
    "sbt_forward",
    "sbt_forward_integral",
    "sbt_inverse_coeff",
    "sbt_inverse_integral",
    "s_transform",
    "INVERSE_ORDER",
]

#: the inverse integral sees a residual growing like exp(+(nu/4) v**2) against
#: the rule weight exp(-(nu/2) v**2), which halves the effective decay; a
#: higher default order compensates
INVERSE_ORDER = 80


@_fails_closed
def sbt_kernel_C(sigma: float, gamma: float, x: float, z: complex) -> complex:
    """Classical Gaussian kernel c_0 exp(-sigma (x - sqrt(gamma/(2 sigma)) z)**2)."""
    _require_positive("sigma", sigma)
    _require_positive("gamma", gamma)
    shift = math.sqrt(gamma / (2.0 * sigma))
    return normalization_c(0, sigma) * np.exp(-sigma * (x - shift * z) ** 2)


@_fails_closed
def sbt_kernel_BC(sigma: float, nu: float, x: float, Z: Bicomplex) -> Bicomplex:
    """Bicomplex kernel c_0 exp(-sigma (x - sqrt(nu/(4 sigma)) Z)**2).

    Channelwise it is sbt_kernel_C with gamma = nu/2 at the channel values.
    """
    _require_positive("sigma", sigma)
    _require_positive("nu", nu)
    shift = math.sqrt(nu / (4.0 * sigma))
    D = x - shift * as_bicomplex(Z)
    return normalization_c(0, sigma) * bc_exp(-sigma * (D * D))


@_fails_closed
def sbt_forward(phi: HermiteCoeffVector, nu: float) -> MonomialCoeffVector:
    """Diagonal coefficient map c_n -> c_n (nu**n / 2**n n!)**(1/2)."""
    _require_positive("nu", nu)
    return MonomialCoeffVector(nu, phi.coeffs * _scale(phi.degree, 2.0 / nu))


@_fails_closed
def sbt_inverse_coeff(f: MonomialCoeffVector, sigma: float) -> HermiteCoeffVector:
    """Inverse diagonal map A_n -> A_n (2**n n! / nu**n)**(1/2)."""
    return HermiteCoeffVector(sigma, f.coeffs / _scale(f.degree, 2.0 / f.nu))


def sbt_forward_integral(
    phi: Callable,
    sigma: float,
    nu: float,
    Z: Bicomplex,
    *,
    order: int = DEFAULT_ORDER,
    vectorized: bool = True,
) -> Bicomplex:
    """Forward transform of a line function by Gaussian-kernel quadrature.

    The kernel exp(-sigma (x - a Z)**2) is split as exp(-sigma x**2) times a
    residual of linear exponential growth; the rule carries gamma = sigma and
    the residual is folded into the integrand.  ``phi`` is evaluated on the
    whole node array unless ``vectorized=False``.
    """
    Z = as_bicomplex(Z)
    rule = gauss_hermite(order, sigma)
    lin = math.sqrt(sigma * nu) * Z
    const = (-0.25 * nu) * (Z * Z)

    def integrand(x):
        return bc_exp(lin * x + const) * as_bicomplex(phi(x))

    val = integrate_real(integrand, rule, vectorized=vectorized)
    return normalization_c(0, sigma) * val


def sbt_inverse_integral(
    f: Callable,
    sigma: float,
    nu: float,
    x: float,
    *,
    order: int = INVERSE_ORDER,
    method: str = "split",
) -> Bicomplex:
    """Inverse transform of a holomorphic ``f`` evaluated at real ``x``.

    method="split" (default) exploits the channel factorization of the
    integral: a holomorphic function restricted to the slice z + j 0 carries
    both channel values, so each channel reduces to one planar integral with
    weight exp(-(nu/2)|xi|**2) and the residual
    exp(-(nu/4) conj(xi)**2 + sqrt(sigma nu) x conj(xi)) folded in.

    method="tensor" evaluates the literal integral over the ring with the
    same rule on every real coordinate; it costs order**4 evaluations and
    exists to cross-check the split path.
    """
    _require_positive("sigma", sigma)
    _require_positive("nu", nu)
    rule = gauss_hermite(order, nu / 2.0)
    root = math.sqrt(sigma * nu)

    if method == "split":
        def integrand(xi):
            resid = np.exp(-0.25 * nu * np.conjugate(xi) ** 2 + root * x * np.conjugate(xi))
            return resid * as_bicomplex(f(Bicomplex.from_complex(xi)))

        val = integrate_complex(integrand, rule, vectorized=True)
        return normalization_c(1, nu / 2.0) * val

    if method == "tensor":
        def integrand_bc(Z: Bicomplex) -> Bicomplex:
            Zs = conj_star(Z)
            resid = bc_exp((-0.25 * nu) * (Zs * Zs) + (root * x) * Zs)
            return resid * as_bicomplex(f(Z))

        val = integrate_bicomplex(integrand_bc, nu, rule, vectorized=True)
        return normalization_c("BC", nu) * val

    raise ValueError(f"unknown method {method!r}")


def s_transform(
    F: Callable,
    nu: float,
    Z: Bicomplex,
    *,
    order: int = DEFAULT_ORDER,
    vectorized: bool = True,
) -> Bicomplex:
    """Rebuild a holomorphic function on the ring from its slice values.

    Computes c_1 integral F(xi) exp(+(nu/2) Z conj(xi) - (nu/2)|xi|**2)
    dlambda(xi); on monomials xi**n it returns Z**n.  The plus sign in the
    exponent is the convention under which that monomial identity holds (the
    verification suite pins it numerically).
    """
    Z = as_bicomplex(Z)
    rule = gauss_hermite(order, nu / 2.0)
    half_nu = 0.5 * nu

    def integrand(xi):
        return bc_exp((half_nu * Z) * np.conjugate(xi)) * as_bicomplex(F(xi))

    val = integrate_complex(integrand, rule, vectorized=vectorized)
    return normalization_c(1, half_nu) * val
