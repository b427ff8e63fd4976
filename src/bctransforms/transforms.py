"""Coherent-state transform between the weighted line and the holomorphic side.

The forward transform maps psi_n to e_n = r_n Z**n, r_n = (nu**n / 2**n n!)**(1/2),
and both are orthonormal bases.  So on coefficient vectors, the primary data
path, the transform keeps the coordinate array and changes only the weight
parameter, in either direction.  The Gaussian-kernel integral forms are kept
as independent oracles:

    forward:  c_0 * integral exp(-sigma (x - sqrt(nu/(4 sigma)) Z)**2) phi(x) dx
    inverse:  c_T * integral exp(-nu |Z|**2 - (nu/4)(Z*)**2
                               + sqrt(sigma nu) x Z*) f(Z) dlambda(Z)

Both integral forms integrate the closed-form kernels they are defined by:
the rule's Gaussian weight is the kernel's own Gaussian factor, and the rest
of the kernel is ``generating_G`` (G(x, Z*) forward, G(x, Z) inverse); the
slice transform integrates ``kernel_K_BC``.  A kernel outside float range
therefore raises through the kernel's own check.  The inverse integral
factorizes over the idempotent channels for holomorphic ``f`` (the only
inputs for which the inversion theorem speaks), which is what the default
"split" method computes; "tensor" runs the literal four-real-dimensional
quadrature instead and is kept as a cross-check.

The restriction transform ``s_transform`` rebuilds a holomorphic function on
the ring from its values on the complex slice ``z + j 0``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .bicomplex import Bicomplex, _channelwise, _fails_closed, as_bicomplex, conj_star
from .bargmann import HermiteCoeffVector, MonomialCoeffVector, kernel_K_BC
from .errors import _require_positive
from .hermite import generating_G
from .quadrature import DEFAULT_ORDER, _complex_grid, _kernel_sum, gauss_hermite, normalization_c

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


def _gaussian_kernel(sigma, gamma, x, z):
    """The Gaussian kernel c_0 exp(-sigma (x - sqrt(gamma/(2 sigma)) z)**2), on
    complex values.  The square stays ``**2``: on Python complex scalars it
    raises OverflowError where a product would return inf."""
    shift = math.sqrt(gamma / (2.0 * sigma))
    return normalization_c(0, sigma) * np.exp(-sigma * (x - shift * z) ** 2)


@_fails_closed
def sbt_kernel_C(sigma: float, gamma: float, x: float, z: complex) -> complex:
    """Classical Gaussian kernel c_0 exp(-sigma (x - sqrt(gamma/(2 sigma)) z)**2)."""
    sigma, gamma = _require_positive("sigma", sigma), _require_positive("gamma", gamma)
    return _gaussian_kernel(sigma, gamma, x, z)


@_fails_closed
def sbt_kernel_BC(sigma: float, nu: float, x: float, Z: Bicomplex) -> Bicomplex:
    """Bicomplex kernel c_0 exp(-sigma (x - sqrt(nu/(4 sigma)) Z)**2): the
    Gaussian kernel with gamma = nu/2 on each channel."""
    sigma, nu = _require_positive("sigma", sigma), _require_positive("nu", nu)
    return _channelwise(_gaussian_kernel)(sigma, 0.5 * nu, x, as_bicomplex(Z))


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

    The kernel c_0 exp(-sigma (x - a Z)**2) equals c_0 exp(-sigma x**2)
    generating_G(x, Z*); the rule carries the Gaussian factor (gamma = sigma)
    and generating_G(x, Z*) weights the nodes.  ``phi`` is called once, on
    the node array; ``Z`` may be an array value, whose shape the result takes
    (a scalar ``Z`` gives ``complex`` channels).  ``vectorized`` is accepted
    for compatibility only.
    """
    rule, Zs = gauss_hermite(order, sigma), conj_star(as_bicomplex(Z))

    def kernel(P, x):
        return generating_G(sigma, nu, x, P)
    return _kernel_sum(phi, rule.nodes, rule.weights, kernel, Zs, scale=normalization_c(0, sigma))


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
    xi, w2 = _complex_grid(gauss_hermite(order, nu / 2.0))
    if method == "split":
        # both channels of G are equal on the slice, so one channel is computed
        def kernel(x, W):
            return generating_G(sigma, nu, x, Bicomplex.from_channels(W.alpha, 0j)).alpha

        return _kernel_sum(f, Bicomplex.from_complex(xi), w2, kernel, x, scale=normalization_c(1, nu / 2.0))

    if method == "tensor":
        kernel = functools.partial(generating_G, sigma, nu)
        return _kernel_sum(f, xi, w2, kernel, x, scale=0.25 * normalization_c("BC", nu), ring=True)

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

    Computes c_1 integral kernel_K_BC(nu, Z, xi) F(xi) exp(-(nu/2)|xi|**2)
    dlambda(xi), where kernel_K_BC(nu, Z, xi) = exp(+(nu/2) Z conj(xi)); on
    monomials xi**n it returns Z**n.  The plus sign in the exponent is the
    convention under which that monomial identity holds (the verification
    suite pins it numerically).  ``F`` is called once, on the planar nodes;
    ``Z`` may be an array value, whose shape the result takes (a scalar gives
    ``complex`` channels).  ``vectorized`` is accepted for compatibility only.
    """
    xi, w2 = _complex_grid(gauss_hermite(order, nu / 2.0))
    kernel = functools.partial(kernel_K_BC, nu)
    return _kernel_sum(F, xi, w2, kernel, as_bicomplex(Z), scale=normalization_c(1, nu / 2.0))
