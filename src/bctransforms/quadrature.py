"""Gauss-Hermite quadrature against Gaussian weights.

Rules target integrals of the form

    integral f(t) exp(-gamma t**2) dt             (real line)
    integral f(xi) exp(-gamma |xi|**2) dlambda    (complex plane, tensor grid)

and the four-real-dimensional bicomplex integral, computed channelwise as

    (1/4) double-integral f(alpha e+ + beta e-) w(alpha) w(beta).

Nodes come from the eigenvalues of the symmetric tridiagonal Jacobi matrix
(off-diagonal entries sqrt(k/2)); weights from the squared first eigenvector
components scaled by the zeroth moment sqrt(pi).  The gamma = 1 rule is cached
and rescaled exactly, so rules at different gamma share node/weight ratios to
machine precision.

Integrands whose Gaussian decay differs from the rule's weight must fold the
residual exponential into ``f``; callers in this package always build rules
with gamma equal to the slowest decay rate actually present.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bicomplex import Bicomplex, _require_finite, as_bicomplex
from .errors import ConvergenceError, _require_positive

__all__ = [
    "QuadratureRule",
    "gauss_hermite",
    "integrate_real",
    "integrate_complex",
    "integrate_bicomplex",
    "normalization_c",
    "DEFAULT_ORDER",
    "DEFAULT_BC_ORDER",
]

#: default number of nodes per real dimension
DEFAULT_ORDER = 64

#: default order for generic four-real-dimensional (bicomplex) integrals; the
#: tensor product makes the cost quartic in the order, and the integrands this
#: package meets (polynomial times entire-Gaussian) are already integrated to
#: near machine precision at this size
DEFAULT_BC_ORDER = 24

#: grid points per integrand call on the vectorized ring path: large enough
#: that Python call overhead vanishes, small enough that the integrand's
#: temporaries stay in cache (the whole grid in one call was measured slower
#: and tens of MB heavier)
_BLOCK_POINTS = 8192


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for the weight exp(-gamma t**2) on the real line."""

    gamma: float
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def order(self) -> int:
        return len(self.nodes)


@functools.lru_cache(maxsize=None)
def _standard_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite rule for exp(-t**2) via the Jacobi matrix eigenproblem."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        nodes = np.zeros(1)
        weights = np.array([math.sqrt(math.pi)])
    else:
        k = np.arange(1, order)
        jacobi = np.diag(np.sqrt(k / 2.0), 1)
        jacobi += jacobi.T
        try:
            nodes, vectors = np.linalg.eigh(jacobi)
        except np.linalg.LinAlgError as err:  # pragma: no cover - eigh is robust at these sizes
            raise ConvergenceError(f"Jacobi eigenproblem failed for order {order}") from err
        weights = math.sqrt(math.pi) * vectors[0, :] ** 2
        # enforce the exact +/- symmetry of the rule
        nodes = (nodes - nodes[::-1]) / 2.0
        weights = (weights + weights[::-1]) / 2.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_hermite(order: int, gamma: float = 1.0) -> QuadratureRule:
    """Build an ``order``-point rule for the weight exp(-gamma t**2), gamma > 0."""
    _require_positive("gamma", gamma)
    nodes, weights = _standard_rule(order)
    scale = math.sqrt(gamma)
    out_nodes = nodes / scale
    out_weights = weights / scale
    out_nodes.setflags(write=False)
    out_weights.setflags(write=False)
    return QuadratureRule(gamma=float(gamma), nodes=out_nodes, weights=out_weights)


_NONFINITE_INTEGRAND = "integrand produced a non-finite value at a quadrature node"


def _weighted_sum(f: Callable, points: np.ndarray | Bicomplex, weights: np.ndarray, vectorized: bool) -> Bicomplex:
    """Sum ``weights * f(points)``: one call on the whole array, or one call per point."""
    if vectorized:
        values = _require_finite(as_bicomplex(f(points)), _NONFINITE_INTEGRAND)
        return Bicomplex.from_channels(complex(np.sum(weights * values.alpha)), complex(np.sum(weights * values.beta)))
    acc_a = acc_b = 0j
    for t, w in zip(points.tolist(), weights.tolist()):
        v = as_bicomplex(f(t))
        acc_a += w * v.alpha
        acc_b += w * v.beta
    return _require_finite(Bicomplex.from_channels(acc_a, acc_b), _NONFINITE_INTEGRAND)


def integrate_real(
    f: Callable, rule: QuadratureRule, *, vectorized: bool = False
) -> Bicomplex:
    """Approximate integral f(t) exp(-gamma t**2) dt with ``rule``.

    ``f`` may return scalars or Bicomplex values.  With ``vectorized=True``
    it is called once on the whole node array and must broadcast.
    """
    return _weighted_sum(f, rule.nodes, rule.weights, vectorized)


def _complex_grid(rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    u = rule.nodes[:, None]
    v = rule.nodes[None, :]
    xi = (u + 1j * v).ravel()
    w2 = (rule.weights[:, None] * rule.weights[None, :]).ravel()
    return xi, w2


def integrate_complex(
    f: Callable, rule: QuadratureRule, *, vectorized: bool = False
) -> Bicomplex:
    """Approximate integral f(xi) exp(-gamma |xi|**2) dlambda(xi) over the plane.

    The planar measure is Lebesgue measure du dv for xi = u + iv; the rule is
    applied as a tensor product over both real coordinates.
    """
    xi, w2 = _complex_grid(rule)
    return _weighted_sum(f, xi, w2, vectorized)


def integrate_bicomplex(
    f: Callable, nu: float, rule: QuadratureRule, *, vectorized: bool = False
) -> Bicomplex:
    """Approximate integral f(Z) exp(-nu |Z|^2) dlambda(Z) over the bicomplex ring.

    Writing Z = alpha e+ + beta e-, the Gaussian factorizes and the integral
    equals (1/4) of the iterated planar integral over (alpha, beta); the rule
    must therefore carry gamma = nu / 2 for each complex coordinate.  With
    ``vectorized=True`` the (alpha, beta) tensor grid is evaluated in blocks of
    whole alpha rows, at most ``_BLOCK_POINTS`` points each (one row when a
    row alone is larger), so ``f`` must accept a Bicomplex whose channels are
    1-D arrays; every block is checked for non-finite values.  Otherwise ``f``
    is called once per grid point.
    """
    if abs(rule.gamma - nu / 2.0) > 1e-12 * max(1.0, abs(nu)):
        raise ValueError(f"rule gamma {rule.gamma} does not match nu/2 = {nu / 2.0}")
    if not vectorized:

        def slice_at(alpha: complex) -> Bicomplex:
            return integrate_complex(lambda beta: f(Bicomplex.from_channels(alpha, beta)), rule)

        return 0.25 * integrate_complex(slice_at, rule)
    xi, w2 = _complex_grid(rule)
    rows = max(1, _BLOCK_POINTS // len(xi))
    total = Bicomplex.from_channels(0j, 0j)
    for start in range(0, len(xi), rows):
        block = slice(start, start + rows)
        Z = Bicomplex.from_channels(np.repeat(xi[block], len(xi)), np.tile(xi, len(xi[block])))
        total = total + _weighted_sum(f, Z, np.outer(w2[block], w2).ravel(), True)
    return 0.25 * total


def normalization_c(d, alpha: float) -> float:
    """Normalization constants (alpha/pi)**(d/2) for d in {0, 1, 2} or "BC".

    d = 0 gives the one-dimensional constant sqrt(alpha/pi), d = 1 the planar
    constant alpha/pi, and d = 2 (or "BC") the four-real-dimensional constant
    (alpha/pi)**2 that normalizes the bicomplex Gaussian to unit mass.
    """
    _require_positive("alpha", alpha)
    ratio = alpha / math.pi
    if d == 0:
        return math.sqrt(ratio)
    if d == 1:
        return ratio
    if d == 2 or d == "BC":
        return ratio**2
    raise ValueError(f"unsupported dimension tag {d!r}")
