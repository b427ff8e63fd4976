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
The kernel integral forms of other modules share their sum: the closed-form
kernel times the rule weight is a weight that depends on the output point.
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
    gamma = _require_positive("gamma", gamma)
    nodes, weights = _standard_rule(_require_int("order", order, 1))
    scale = math.sqrt(gamma)
    out_nodes = nodes / scale
    out_weights = weights / scale
    out_nodes.setflags(write=False)
    out_weights.setflags(write=False)
    return QuadratureRule(gamma=gamma, nodes=out_nodes, weights=out_weights)


_NONFINITE_INTEGRAND = "integrand produced a non-finite value at a quadrature node"
_NONFINITE_TOTAL = "quadrature sum is outside float range"

#: silences numpy around the weighted sums only, never around the integrand
_quiet = functools.partial(np.errstate, over="ignore", invalid="ignore")


def _evaluate(f: Callable, X, shape: tuple) -> Bicomplex:
    """``f`` at the nodes ``X`` of shape ``shape``, checked: a value that does not
    broadcast to ``shape`` raises DomainError, a non-finite one NonFiniteError."""
    try:
        values = as_bicomplex(f(X))
        for axes in (np.shape(values.alpha), np.shape(values.beta)):
            # each axis, aligned from the right, is 1 or that of the nodes
            if len(axes) > len(shape) or any(a not in (1, n) for a, n in zip(axes[::-1], shape[::-1])):
                raise ValueError(f"a channel of shape {axes} broadcasts past the nodes {shape}")
        return _require_finite(values, _NONFINITE_INTEGRAND)
    except BCTransformsError:
        raise
    except (TypeError, ValueError) as err:
        raise DomainError("the integrand must broadcast over an array of nodes") from err


def _point_blocks(points, step: int):
    """The shape of ``points`` (() for a scalar or None) and the points: a
    scalar whole, an array in columns of ``step`` points."""
    channels = (points.alpha, points.beta) if isinstance(points, Bicomplex) else (points,)
    shape = () if points is None else np.broadcast(*channels).shape
    if not shape:
        return shape, [points]
    cols = [np.broadcast_to(ch, shape).reshape(-1, 1) for ch in channels]
    # no points at all make one empty block, so that the result has their shape
    blocks = ([c[i : i + step] for c in cols] for i in range(0, max(1, len(cols[0])), step))
    return shape, (Bicomplex.from_channels(*b) if len(b) == 2 else b[0] for b in blocks)


def _grid_sum(values, r: np.ndarray, c: np.ndarray):
    """Sum r[..., i] c[j, ...] values[i, j] for ``values`` broadcastable to
    ``(len(r), len(c))``, as r @ A @ c.  A length-one axis of A takes the sum
    of its weights, so the outer weight block is never built."""
    A = np.atleast_2d(values)
    if A.shape[0] == 1:
        r = r.sum(axis=-1, keepdims=True)
    if A.shape[1] == 1:
        c = c.sum(axis=0, keepdims=True)
    return r @ A @ c


def _ring_sums(f: Callable, nodes, weights, wa, wb, step: int):
    """The channel sums wa[..., rows] @ f @ w and w[rows] @ f @ wb over the ring
    grid of the planar ``nodes``, ``f`` called on blocks of whole alpha rows: a
    channelwise ``f`` (products, powers, ``exp``) returns ``(rows, 1)`` and
    ``(1, n**2)`` channels, so the rows after the first block go in one call;
    a mixing ``f`` (``norm``, ``z1``, ``conj_dagger``) gets ``step`` rows."""
    n2 = len(weights)
    # one row cannot tell a channelwise (1, n**2) beta channel from a full block
    start, rows, a, b = 0, max(2, step), 0j, 0j
    while start < n2:
        block = slice(start, start + rows)
        r = weights[block]
        values = _evaluate(f, Bicomplex.from_channels(nodes[block, None], nodes[None, :]), (len(r), n2))
        with _quiet():
            a = a + _grid_sum(values.alpha, wa[..., block], weights)
            b = b + _grid_sum(values.beta, r, wb.T)
        start += len(r)
        # a block that neither channel fills shows f channelwise: the rest in one call
        rows = step if max(np.size(values.alpha), np.size(values.beta)) == len(r) * n2 else n2
    return a, b


def _kernel_sum(f: Callable, nodes, weights, kernel=None, points=None, *, scale=None, ring=False) -> Bicomplex:
    """scale * sum_k weights_k kernel(p, t_k) f(t_k) at each point p: the one
    place an integrand is called and a kernel meets the rule weights.

    ``f`` is called once on ``nodes``; with ``ring``, on the ring grid over the
    planar ``nodes`` once per block of points (``scale`` then carries the
    ring measure's 1/4).  Each channel of ``kernel(P, W)``, a decorated closed
    form at a block P of ``points`` and the nodes W, times the weights is a
    weight that depends on the point; a ring kernel acts channelwise, its
    alpha channel weighting rows and its beta channel columns.  A scalar
    point (or none) gives ``complex`` channels, an array channels of its
    shape; a total outside float range raises NonFiniteError.
    """
    step = max(1, _BLOCK_POINTS // len(weights))
    shape, blocks = _point_blocks(points, step)
    grid = Bicomplex.from_channels(nodes, nodes) if ring else nodes
    values = None if ring else _evaluate(f, nodes, weights.shape)
    totals = []
    for P in blocks:
        wa = wb = weights
        if kernel is not None:
            K = as_bicomplex(kernel(P, grid))
            with _quiet():
                wa = K.alpha * weights
                wb = wa if K.beta is K.alpha else K.beta * weights
        if ring:
            totals.append(_ring_sums(f, nodes, weights, wa, wb, step))
            continue
        with _quiet():
            totals.append((np.sum(wa * values.alpha, axis=-1), np.sum(wb * values.beta, axis=-1)))
    out = Bicomplex.from_channels(*(np.concatenate(t).reshape(shape) for t in zip(*totals)) if shape else totals[0])
    if scale is not None:
        with _quiet():
            out = scale * out
    _require_finite(out, _NONFINITE_TOTAL)
    return out if shape else Bicomplex.from_channels(complex(out.alpha), complex(out.beta))


def integrate_real(f: Callable, rule: QuadratureRule, *, vectorized: bool = True) -> Bicomplex:
    """Approximate integral f(t) exp(-gamma t**2) dt with ``rule``.

    ``f``, called once on the node array, must broadcast and may return scalars
    or Bicomplex values; ``vectorized`` is accepted for compatibility only.
    """
    return _kernel_sum(f, rule.nodes, rule.weights)


def _complex_grid(rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """The planar nodes u + iv and weights w(u) w(v) of ``rule``'s tensor grid, flattened."""
    u, v = rule.nodes[:, None], rule.nodes[None, :]
    return (u + 1j * v).ravel(), (rule.weights[:, None] * rule.weights[None, :]).ravel()


def integrate_complex(f: Callable, rule: QuadratureRule, *, vectorized: bool = True) -> Bicomplex:
    """Approximate integral f(xi) exp(-gamma |xi|**2) dlambda(xi) over the plane.

    The planar measure is Lebesgue measure du dv for xi = u + iv; the rule is
    applied as a tensor product over both real coordinates to one call of ``f``
    on the planar nodes; ``vectorized`` is accepted for compatibility only.
    """
    return _kernel_sum(f, *_complex_grid(rule))


def integrate_bicomplex(f: Callable, nu: float, rule: QuadratureRule, *, vectorized: bool = True) -> Bicomplex:
    """Approximate integral f(Z) exp(-nu |Z|^2) dlambda(Z) over the bicomplex ring.

    Writing Z = alpha e+ + beta e-, the Gaussian factorizes and the integral
    equals (1/4) of the iterated planar integral over (alpha, beta); the rule
    must therefore carry gamma = nu / 2 for each complex coordinate.  The
    (alpha, beta) tensor grid is evaluated in blocks of whole alpha rows.
    Each block reaches ``f`` as an outer product: alpha is a ``(rows, 1)``
    column and beta the ``(1, n**2)`` row of all planar nodes, so ``f`` must
    broadcast, and must not index, iterate, reduce or take ``len()`` of the
    block.  Each channel of a block is summed as w[rows] @ f @ w with the
    planar weights w: the tensor-grid sum regrouped (see ``_ring_sums``).
    Every block is checked for non-finite values.  ``vectorized`` is
    accepted for compatibility only.
    """
    nu = _require_positive("nu", nu)
    if not abs(rule.gamma - nu / 2.0) <= 1e-12 * max(1.0, abs(nu)):
        raise DomainError(f"rule gamma {rule.gamma} does not match nu/2 = {nu / 2.0}")
    return _kernel_sum(f, *_complex_grid(rule), scale=0.25, ring=True)


@_fails_closed
def normalization_c(d, alpha: float) -> float:
    """Normalization constants (alpha/pi)**(d/2) for d in {0, 1, 2} or "BC".

    d = 0 gives the one-dimensional constant sqrt(alpha/pi), d = 1 the planar
    constant alpha/pi, and d = 2 (or "BC") the four-real-dimensional constant
    (alpha/pi)**2 that normalizes the bicomplex Gaussian to unit mass.
    """
    alpha = _require_positive("alpha", alpha)
    ratio = alpha / math.pi
    if d == 0:
        return math.sqrt(ratio)
    if d == 1:
        return ratio
    if d == 2 or d == "BC":
        return ratio * ratio
    raise ValueError(f"unsupported dimension tag {d!r}")
