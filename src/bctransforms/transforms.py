"""Coherent-state transform between the weighted line and the holomorphic side.

The forward transform maps psi_n to e_n = r_n Z**n, r_n = (nu**n / 2**n n!)**(1/2),
and both are orthonormal bases.  So on coefficient vectors, the primary data
path, the transform keeps the coordinate array and changes only the weight
parameter, in either direction.  The Gaussian-kernel integral forms are kept
as independent oracles:

    forward:  c_0 * integral exp(-sigma (x - sqrt(nu/(4 sigma)) Z)**2) phi(x) dx
    inverse:  c_T * integral exp(-nu |Z|**2 - (nu/4)(Z*)**2
                               + sqrt(sigma nu) x Z*) f(Z) dlambda(Z)

Each integral form passes the coefficients its closed-form kernel is
evaluated from, so a total outside float range raises in the sum: the forward
form those of ``sbt_kernel_BC``, the inverse form (whose rule weight is the
kernel's Gaussian factor) those of the rest, ``generating_G``, and the slice
transform those of ``kernel_K_BC``.  The inverse integral
factorizes over the idempotent channels for holomorphic ``f`` (the only
inputs for which the inversion theorem speaks), which is what the default
"split" method computes; "tensor" runs the literal four-real-dimensional
quadrature instead and is kept as a cross-check.

The restriction transform ``s_transform`` rebuilds a holomorphic function on
the ring from its values on the complex slice ``z + j 0``.
"""

from __future__ import annotations

import math
from typing import Callable

from .bicomplex import Bicomplex, _channelwise, _fails_closed, _real_points, as_bicomplex
from .bargmann import HermiteCoeffVector, MonomialCoeffVector, _reproducing_exponent
from .errors import DomainError, _require_positive
from .hermite import _generating_exponent
from .quadrature import DEFAULT_ORDER, _gaussian_sum, _line_gaussian, normalization_c

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


def _gaussian_kernel(sigma, gamma):
    """The coefficients (c, s, shift) = (c_0(sigma), sigma, sqrt(gamma/(2 sigma))) of the Gaussian kernel."""
    return normalization_c(0, sigma), sigma, math.sqrt(gamma / (2.0 * sigma))


@_fails_closed
def sbt_kernel_C(sigma: float, gamma: float, x: float, z: complex) -> complex:
    """Classical Gaussian kernel c_0 exp(-sigma (x - sqrt(gamma/(2 sigma)) z)**2)."""
    sigma, gamma = _require_positive("sigma", sigma), _require_positive("gamma", gamma)
    return _line_gaussian(*_gaussian_kernel(sigma, gamma), _real_points(x), z)


@_fails_closed
def sbt_kernel_BC(sigma: float, nu: float, x: float, Z: Bicomplex) -> Bicomplex:
    """Bicomplex kernel c_0 exp(-sigma (x - sqrt(nu/(4 sigma)) Z)**2): the
    Gaussian kernel with gamma = nu/2 on each channel."""
    sigma, nu = _require_positive("sigma", sigma), _require_positive("nu", nu)
    return _channelwise(_line_gaussian)(*_gaussian_kernel(sigma, 0.5 * nu), _real_points(x), as_bicomplex(Z))


def sbt_forward(phi: HermiteCoeffVector, nu: float) -> MonomialCoeffVector:
    """Coefficient map psi_n -> e_n = r_n Z**n: the coordinates stay, the weight becomes nu."""
    return MonomialCoeffVector._from_unit(nu, phi._unit)


def sbt_inverse_coeff(f: MonomialCoeffVector, sigma: float) -> HermiteCoeffVector:
    """Inverse coefficient map e_n -> psi_n: the coordinates stay, the weight becomes sigma."""
    return HermiteCoeffVector._from_unit(sigma, f._unit)


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

    The kernel is sbt_kernel_BC, c_0 exp(-sigma (x - a Z)**2) with a = sqrt(nu/(4 sigma)),
    passed as its coefficients; the rule carries gamma = sigma.  ``phi`` is called once, on
    the node array; ``Z`` may be an array value, whose shape the result takes (a scalar ``Z``
    gives ``complex`` channels).  ``vectorized`` is accepted for compatibility only.
    """
    sigma, nu = _require_positive("sigma", sigma), _require_positive("nu", nu)
    return _gaussian_sum(phi, "line", sigma, order, _gaussian_kernel(sigma, 0.5 * nu), as_bicomplex(Z))


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
    weight exp(-(nu/2)|xi|**2) and the residual generating_G(x, xi); ``f`` is
    called once, on the slice nodes.

    method="tensor" evaluates the literal integral of generating_G(x, Z) f(Z)
    over the ring with the same rule on every real coordinate; it costs
    order**4 evaluations and exists to cross-check the split path.  ``x`` may
    be an array, whose shape the result takes (a scalar gives ``complex``
    channels).
    """
    sigma, nu = _require_positive("sigma", sigma), _require_positive("nu", nu)
    kernel = _generating_exponent(sigma, nu)
    if method == "split":
        return _gaussian_sum(lambda xi: f(Bicomplex.from_complex(xi)), "plane", nu, order, kernel, x)

    if method == "tensor":
        return _gaussian_sum(f, "ring", nu, order, kernel, x)

    raise DomainError(f"unknown method {method!r}")


def s_transform(
    F: Callable,
    nu: float,
    Z: Bicomplex,
    *,
    order: int = DEFAULT_ORDER,
    vectorized: bool = True,
) -> Bicomplex:
    """Rebuild a holomorphic function on the ring from its slice values.

    Computes c_1 integral kernel_K_BC(nu, Z, xi) F(xi) exp(-(nu/2)|xi|**2)
    dlambda(xi), where kernel_K_BC(nu, Z, xi) = exp(+(nu/2) Z conj(xi)); on
    monomials xi**n it returns Z**n.  The plus sign in the exponent is the
    convention under which that monomial identity holds (the verification
    suite pins it numerically).  ``F`` is called once, on the planar nodes;
    ``Z`` may be an array value, whose shape the result takes (a scalar gives
    ``complex`` channels).  ``vectorized`` is accepted for compatibility only.
    """
    nu = _require_positive("nu", nu)
    return _gaussian_sum(F, "plane", nu, order, _reproducing_exponent(0.5 * nu), as_bicomplex(Z))
