"""Gauss-Hermite quadrature against Gaussian weights.

Rules target integrals of the form

    integral f(t) exp(-gamma t**2) dt             (real line)
    integral f(xi) exp(-gamma |xi|**2) dlambda    (complex plane, tensor grid)

and the four-real-dimensional bicomplex integral, computed channelwise as

    (1/4) double-integral f(alpha e+ + beta e-) w(alpha) w(beta).

Nodes are the eigenvalues (``eigvalsh``) of the symmetric tridiagonal Jacobi
matrix (off-diagonal entries sqrt(k/2)); weights are the Christoffel numbers
sqrt(pi) / sum_{k<n} psi_k(t)**2 from the psi ladder of ``hermite`` at sigma = 1,
accurate in relative terms to the smallest tail weight.  The gamma = 1 rule is
cached and rescaled exactly, so rules at different gamma share node/weight
ratios to machine precision.

Every integrator calls its integrand on arrays of nodes, so it must broadcast.
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

from .bicomplex import Bicomplex, _fails_closed, _require_finite, as_bicomplex
from .errors import BCTransformsError, ConvergenceError, DomainError, _require_int, _require_positive
from .hermite import _ladder

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

#: grid points per integrand call on the ring grid: large enough
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
    """Gauss-Hermite rule for exp(-t**2): Jacobi-matrix nodes, Christoffel weights."""
    k = np.arange(1, order)
    jacobi = np.diag(np.sqrt(k / 2.0), 1)
    jacobi += jacobi.T
    try:
        nodes = np.linalg.eigvalsh(jacobi)
    except np.linalg.LinAlgError as err:  # pragma: no cover - eigvalsh is robust at these sizes
        raise ConvergenceError(f"Jacobi eigenproblem failed for order {order}") from err
    # enforce the exact +/- symmetry of the rule; the weights inherit it, as
    # psi_k(-t) = (-1)**k psi_k(t) holds exactly in floating point
    nodes = (nodes - nodes[::-1]) / 2.0
    # where the sum leaves float range (inf, or NaN from inf - inf), the true weight is below 1e-600
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(p * p for p in _ladder(order - 1, 1.0, nodes))
        weights = np.nan_to_num(math.sqrt(math.pi) / total, nan=0.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_hermite(order: int, gamma: float = 1.0) -> QuadratureRule:
    """Build an ``order``-point rule for the weight exp(-gamma t**2), gamma > 0.
    An order that is not an int >= 1 raises DomainError."""
    _require_positive("gamma", gamma)
    nodes, weights = _standard_rule(_require_int("order", order, 1))
    scale = math.sqrt(gamma)
    out_nodes = nodes / scale
    out_weights = weights / scale
    out_nodes.setflags(write=False)
    out_weights.setflags(write=False)
    return QuadratureRule(gamma=float(gamma), nodes=out_nodes, weights=out_weights)


_NONFINITE_INTEGRAND = "integrand produced a non-finite value at a quadrature node"


def _weighted_sum(f: Callable, points, total: Callable) -> tuple[Bicomplex, complex, complex]:
    """The one place an integrand is called: ``f`` on ``points`` (the node array
    or a block of the ring grid), each checked channel reduced by ``total``.
    An integrand that does not broadcast, or whose values have a channel that
    does not broadcast to the shape of ``points``, raises DomainError; a
    non-finite value, NonFiniteError; a BCTransformsError raised in ``f``
    keeps its type."""
    if isinstance(points, Bicomplex):
        shape = np.broadcast_shapes(points.alpha.shape, points.beta.shape)
    else:
        shape = points.shape
    try:
        values = as_bicomplex(f(points))
        for channel in (values.alpha, values.beta):
            if np.broadcast_shapes(np.shape(channel), shape) != shape:
                raise ValueError(f"a channel of shape {np.shape(channel)} broadcasts past the nodes {shape}")
        _require_finite(values, _NONFINITE_INTEGRAND)
        return values, complex(total(values.alpha)), complex(total(values.beta))
    except BCTransformsError:
        raise
    except (TypeError, ValueError) as err:
        raise DomainError("the integrand must broadcast over an array of nodes") from err


def integrate_real(
    f: Callable, rule: QuadratureRule, *, vectorized: bool = True
) -> Bicomplex:
    """Approximate integral f(t) exp(-gamma t**2) dt with ``rule``.

    ``f``, called once on the node array, must broadcast and may return scalars
    or Bicomplex values; ``vectorized`` is accepted for compatibility only.
    """
    _, a, b = _weighted_sum(f, rule.nodes, lambda v: np.sum(rule.weights * v))
    return Bicomplex.from_channels(a, b)


def _complex_grid(rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    u = rule.nodes[:, None]
    v = rule.nodes[None, :]
    xi = (u + 1j * v).ravel()
    w2 = (rule.weights[:, None] * rule.weights[None, :]).ravel()
    return xi, w2


def integrate_complex(
    f: Callable, rule: QuadratureRule, *, vectorized: bool = True
) -> Bicomplex:
    """Approximate integral f(xi) exp(-gamma |xi|**2) dlambda(xi) over the plane.

    The planar measure is Lebesgue measure du dv for xi = u + iv; the rule is
    applied as a tensor product over both real coordinates to one call of ``f``
    on the planar nodes; ``vectorized`` is accepted for compatibility only.
    """
    xi, w2 = _complex_grid(rule)
    _, a, b = _weighted_sum(f, xi, lambda v: np.sum(w2 * v))
    return Bicomplex.from_channels(a, b)


def _grid_sum(values, r: np.ndarray, c: np.ndarray) -> complex:
    """Sum r[i] c[j] values[i, j] for ``values`` broadcastable to
    ``(len(r), len(c))``, as r @ A @ c.  A length-one axis of A takes the sum
    of its weights, so the outer weight block is never built."""
    A = np.atleast_2d(values)
    if A.shape[0] == 1:
        r = r.sum(keepdims=True)
    if A.shape[1] == 1:
        c = c.sum(keepdims=True)
    return complex(r @ A @ c)


def integrate_bicomplex(
    f: Callable, nu: float, rule: QuadratureRule, *, vectorized: bool = True
) -> Bicomplex:
    """Approximate integral f(Z) exp(-nu |Z|^2) dlambda(Z) over the bicomplex ring.

    Writing Z = alpha e+ + beta e-, the Gaussian factorizes and the integral
    equals (1/4) of the iterated planar integral over (alpha, beta); the rule
    must therefore carry gamma = nu / 2 for each complex coordinate.  The
    (alpha, beta) tensor grid is evaluated in blocks of whole alpha rows.
    Each block reaches ``f`` as an outer product: alpha is a ``(rows, 1)``
    column and beta the ``(1, n**2)`` row of all planar nodes, so ``f`` must
    broadcast, and must not index, iterate, reduce or take ``len()`` of the
    block.  Each channel of a block is summed as w[rows] @ f @ w with the
    planar weights w, where a length-one axis of f takes the sum of its
    weights: the tensor-grid sum regrouped, without the outer weight block.
    A channelwise integrand (products, powers, ``exp``, the ring kernel)
    returns ``(rows, 1)`` and ``(1, n**2)`` channels, so it costs
    O(rows + n**2) per block; once the first block (at least two rows) shows
    this, the remaining rows go in one call.  A mixing integrand (``norm``,
    ``z1``, ``conj_dagger``, ``|Z|**2``) fills every block and gets at most
    ``_BLOCK_POINTS`` points per call after the first (one row when a row
    alone is larger).  Every block is checked for non-finite values.
    ``vectorized`` is accepted for compatibility only.
    """
    _require_positive("nu", nu)
    if not abs(rule.gamma - nu / 2.0) <= 1e-12 * max(1.0, abs(nu)):
        raise DomainError(f"rule gamma {rule.gamma} does not match nu/2 = {nu / 2.0}")
    xi, w2 = _complex_grid(rule)
    n2 = len(xi)
    step = max(1, _BLOCK_POINTS // n2)
    # one row cannot tell a channelwise (1, n**2) beta channel from a full block
    start, rows = 0, max(2, step)
    acc_a = acc_b = 0j
    while start < n2:
        block = slice(start, start + rows)
        Z = Bicomplex.from_channels(xi[block, None], xi[None, :])
        r = w2[block]
        values, a, b = _weighted_sum(f, Z, lambda v: _grid_sum(v, r, w2))
        acc_a += a
        acc_b += b
        start += len(r)
        # a block that neither channel fills shows f channelwise: the rest in one call
        rows = step if max(np.size(values.alpha), np.size(values.beta)) == len(r) * n2 else n2
    return 0.25 * Bicomplex.from_channels(acc_a, acc_b)


@_fails_closed
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
        return ratio * ratio
    raise ValueError(f"unsupported dimension tag {d!r}")
