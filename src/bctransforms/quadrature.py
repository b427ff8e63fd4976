"""Gauss-Hermite quadrature against Gaussian weights.

Rules target integrals of the form

    integral f(t) exp(-gamma t**2) dt             (real line)
    integral f(xi) exp(-gamma |xi|**2) dlambda    (complex plane, tensor grid)

and the four-real-dimensional bicomplex integral, computed channelwise as

    (1/4) double-integral f(alpha e+ + beta e-) w(alpha) w(beta).

Nodes are the zeros of H_n: asymptotic first guesses (Tricomi in the bulk,
Gatteschi at the edge) refined by three Newton steps on the psi ladder of
``hermite`` at sigma = 1, carried in ratio form so that no rung overflows; no
matrix is formed, so a rule costs O(n**2).  Weights are the Christoffel
numbers sqrt(pi) / sum_{k<n} psi_k(t)**2 from the same ladder, accurate in
relative terms to the smallest tail weight.  The non-negative half is
mirrored, so the +/- symmetry is exact.  The gamma = 1 rule is
cached and rescaled exactly, so rules at different gamma share node/weight
ratios to machine precision.

Every integrator calls its integrand on arrays of nodes, so it must broadcast.
The integral forms of other modules integrate through one function,
``_gaussian_sum``, which builds the rule, the grid and the constant, and pass
the coefficients of their closed-form kernels.  A line kernel
c exp(-s (x - shift p)**2) comes as (c, s, shift) and is evaluated per block
of points with exp(+gamma x**2) folded in, so that it meets the raw rule weights; a
planar kernel exp(a conj(xi)**2 + b p conj(xi)) comes as the two numbers (a, b) and
is summed in factored form, 2n exponentials per point, not n**2.  The ring integrand is
first reduced to its two planar marginals, so a ring sum is a planar sum and
``f`` is called per block of grid rows, not per point.  Integrands whose Gaussian
decay differs from the rule's weight must fold the residual exponential into ``f``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bicomplex import Bicomplex, _channelwise, _fails_closed, _real_points, _require_finite, as_bicomplex
from .errors import BCTransformsError, ConvergenceError, DomainError, NonFiniteError, _require_int, _require_positive
from .hermite import _ladder, _ladder_ratio

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


#: the first ten zeros of the Airy function Ai, in decreasing order
_AIRY_ZEROS = np.array([
    -2.338107410459762, -4.087949444130970, -5.520559828095555, -6.786708090071765, -7.944133587120851,
    -9.022650853340979, -10.040174341558084, -11.008524303733260, -11.936015563236262, -12.828776752865757,
])


def _initial_nodes(order: int) -> np.ndarray:
    """Asymptotic first guesses of the order // 2 positive zeros of H_order,
    increasing: Tricomi's expansion in the bulk and Gatteschi's near the edge
    (Townsend, Trogdon & Olver, IMA J. Numer. Anal. 36, 2016)."""
    m = order // 2
    a = 0.5 if order % 2 else -0.5
    nu = 2.0 * order + 1.0
    k = np.arange(1, m + 1)
    # bulk: T - sin T = pi (4m - 4k + 3) / nu, by Newton from pi/2
    rhs = np.pi * (4 * m - 4 * k + 3) / nu
    T = np.full(m, np.pi / 2)
    for _ in range(7):
        T = T - (T - np.sin(T) - rhs) / (1 - np.cos(T))
    t = np.cos(T / 2) ** 2
    bulk = np.sqrt(nu * t - (5 / (4 * (1 - t) ** 2) - 1 / (1 - t) - 1 + 3 * a * a) / (3 * nu))
    # edge: the Airy zeros ai_k = -tau(3 pi (4k - 1) / 8), the first ten from the table
    s = 3 * np.pi * (4 * k - 1) / 8
    ai = -(s ** (2 / 3)) * (
        1 + 5 / 48 * s**-2 - 5 / 36 * s**-4 + 77125 / 82944 * s**-6
        - 108056875 / 6967296 * s**-8 + 162375596875 / 334430208 * s**-10
    )
    ai[:10] = _AIRY_ZEROS[:m]
    edge = np.sqrt(np.abs(
        nu
        + 2 ** (2 / 3) * ai * nu ** (1 / 3)
        + 2 ** (4 / 3) / 5 * ai**2 * nu ** (-1 / 3)
        + (11 / 35 - a * a - 12 / 175 * ai**3) / nu
        + 2 ** (2 / 3) * (16 / 1575 * ai + 92 / 7875 * ai**4) * nu ** (-5 / 3)
        - 2 ** (1 / 3) * (15152 / 3031875 * ai**5 + 1088 / 121275 * ai**2) * nu ** (-7 / 3)
    ))[::-1]
    return np.where(bulk < 0.8 * math.sqrt(nu), bulk, edge)


@functools.lru_cache(maxsize=None)
def _standard_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite rule for exp(-t**2): Newton-refined nodes, Christoffel weights.

    The positive nodes start from :func:`_initial_nodes` and take three Newton
    steps on psi_order, whose derivative is sqrt(2 order) psi_{order-1}; an odd
    order adds the node 0.  Nodes and weights of the non-negative half are
    mirrored, so the +/- symmetry is exact.  Nodes that the last step still
    moves by more than 1e-10 max(1, |t|), or that are not strictly
    increasing, raise ConvergenceError.
    """
    m = order // 2
    x = _initial_nodes(order)
    with np.errstate(all="ignore"):  # a start that diverges shows as NaN, which the check refuses
        for _ in range(3):
            step = _ladder_ratio(order, x) / math.sqrt(2.0 * order)
            x = x - step
        # measured at orders 1 to 4000, the last step is below 5e-12 max(1, |t|)
        # (orders 2 to 14 start furthest off) and leaves an error of about |t| step**2
        converged = np.all(np.abs(step) <= 1e-10 * np.maximum(1.0, np.abs(x)))
    half = np.concatenate((np.zeros(order - 2 * m), x))
    nodes = np.concatenate((-half[::-1][:m], half))
    if not (converged and np.all(np.diff(nodes) > 0)):
        raise ConvergenceError(f"Gauss-Hermite nodes of order {order} did not converge")
    # where the sum leaves float range (inf, or NaN from inf - inf), the true weight is below 1e-600
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(p * p for p in _ladder(order - 1, 1.0, half))
        half_weights = np.nan_to_num(math.sqrt(math.pi) / total, nan=0.0)
    weights = np.concatenate((half_weights[::-1][:m], half_weights))
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


def _ring_marginals(f: Callable, nodes, weights, kernel) -> Bicomplex:
    """The ring integrand over the planar ``nodes`` t as planar marginals,
    m_alpha[i] = sum_j w_j f_alpha(t_i, t_j) and m_beta[j] = sum_i w_i f_beta(t_i, t_j):
    a ring ``kernel`` acts channelwise, so it meets them as on the plane.
    With no kernel m_beta[i] = sum_j w_j f_beta(t_i, t_j), so that both
    channels of a scalar ``f`` are summed alike.  ``f`` is called on blocks
    of whole alpha rows: a channelwise ``f`` (products, powers, ``exp``)
    returns ``(rows, 1)`` and ``(1, n**2)`` channels, so the rows after the
    first block go in one call; a mixing ``f`` (``norm``, ``z1``) gets
    blocks of at most ``_BLOCK_POINTS`` grid points."""
    n2, step = len(weights), max(1, _BLOCK_POINTS // len(weights))
    m, total = np.zeros((2, n2), complex), weights.sum(keepdims=True)
    # one row cannot tell a channelwise (1, n**2) beta channel from a full block
    start, rows = 0, max(2, step)
    while start < n2:
        block = slice(start, start + rows)
        r = weights[block]
        values = _evaluate(f, Bicomplex.from_channels(nodes[block, None], nodes[None, :]), (len(r), n2))
        a, b = np.atleast_2d(values.alpha), np.atleast_2d(values.beta)
        with _quiet():
            # a length-one axis takes the sum of its weights, so no outer block is built
            m[0, block] = np.dot(a, weights if a.shape[1] > 1 else total)
            if kernel is None:
                m[1, block] = np.dot(b, weights if b.shape[1] > 1 else total)
            else:
                m[1] += np.dot(r if len(b) > 1 else r.sum(keepdims=True), b)
        start += len(r)
        # a block that neither channel fills shows f channelwise: the rest in one call
        rows = step if max(a.size, b.size) == len(r) * n2 else n2
    return Bicomplex.from_channels(m[0], m[1])


def _point_sum(block_sum: Callable, points, step: int) -> Bicomplex:
    """The channel totals ``block_sum(P)``, silenced: for a scalar point (or none) whole, as
    ``complex`` channels, and for an array (a list of real points reads as one) in blocks P of
    ``step`` columns, as channels of its shape.  A total outside float range raises NonFiniteError."""
    channels = (points.alpha, points.beta) if isinstance(points, Bicomplex) else (_real_points(points),)
    shape = () if points is None else np.broadcast(*channels).shape
    blocks = [points]
    if shape:
        cols = [np.broadcast_to(ch, shape).reshape(-1, 1) for ch in channels]
        # no points at all make one empty block, so that the result has their shape
        blocks = ([c[i : i + step] for c in cols] for i in range(0, max(1, len(cols[0])), step))
        blocks = (Bicomplex.from_channels(*b) if len(b) == 2 else b[0] for b in blocks)
    with _quiet():
        try:
            totals = [block_sum(P) for P in blocks]
        except OverflowError:  # a Python int point beyond float range
            raise NonFiniteError(_NONFINITE_TOTAL) from None
    out = Bicomplex.from_channels(*(np.concatenate(t).reshape(shape) for t in zip(*totals)) if shape else totals[0])
    _require_finite(out, _NONFINITE_TOTAL)
    return out if shape else Bicomplex.from_channels(complex(out.alpha), complex(out.beta))


def _line_gaussian(c, s, shift, x, Y, fold=0):
    """c exp(fold - s (x - shift Y)**2) on complex values: every line kernel is this formula on
    each channel, at the coefficients (c, s, shift) its integral forms pass, with ``fold`` a
    Gaussian term added to the exponent.  The square stays ``**2``: on Python complex scalars
    it raises OverflowError where a product would return inf."""
    square = (x - shift * Y) ** 2
    gaussian = np.exp(fold - s * square)
    return c * gaussian


def _kernel_sum(values: Bicomplex, nodes, weights, kernel=None, points=None, gamma=0.0) -> Bicomplex:
    """sum_k weights_k K(p, t_k) values_k at each point p.  The integrators pass no kernel
    (K = 1); a line form passes the coefficients (c, s, shift) of its closed form, and K is
    that form times exp(gamma t**2) at a block P of ``points``, on each channel."""

    def block_sum(P):
        wa = wb = weights
        if kernel is not None:
            K = _channelwise(_line_gaussian)(*kernel, nodes, P, gamma * nodes**2)
            wa, wb = K.alpha * weights, K.beta * weights
        return np.sum(wa * values.alpha, axis=-1), np.sum(wb * values.beta, axis=-1)

    return _point_sum(block_sum, points, max(1, _BLOCK_POINTS // len(weights)))


def _factored_sum(values: Bicomplex, t, weights, kernel, points) -> Bicomplex:
    """The kernel sum on the grid xi = u + iv (u, v in the nodes ``t``) for the kernel exp(a conj(xi)**2
    + b p conj(xi)), ``kernel`` = (a, b) two numbers, each channel of p on that channel of ``values``.
    With B = b p, E_u = exp(B u) and E_v = exp(-i B v) factor exp(B conj(xi)), so weights exp(a conj(xi)**2)
    values is folded once into an n x n matrix F per channel, and a point's total is the row sum of
    (E_u @ F) * E_v: 2n exponentials per point and channel, not n**2, shared by channels with one B."""
    (a, b), n = kernel, len(t)
    with _quiet():
        if a != 0:
            weights = weights * np.exp(a * (t[:, None] - 1j * t) ** 2).ravel()
        F = [(weights * ch).reshape(n, n) for ch in (values.alpha, values.beta)]

    def block_sum(P):
        B = b * P
        ca, cb = (B.alpha, B.beta) if isinstance(B, Bicomplex) else (B, B)
        ea = np.exp(ca * t), np.exp(-1j * ca * t)
        eb = ea if cb is ca else (np.exp(cb * t), np.exp(-1j * cb * t))
        return tuple(np.sum((eu @ f) * ev, axis=-1) for (eu, ev), f in zip((ea, eb), F))

    return _point_sum(block_sum, points, max(1, _BLOCK_POINTS // n))


def integrate_real(f: Callable, rule: QuadratureRule, *, vectorized: bool = True) -> Bicomplex:
    """Approximate integral f(t) exp(-gamma t**2) dt with ``rule``.

    ``f``, called once on the node array, must broadcast and may return scalars
    or Bicomplex values; ``vectorized`` is accepted for compatibility only.
    """
    return _kernel_sum(_evaluate(f, rule.nodes, rule.weights.shape), rule.nodes, rule.weights)


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
    xi, w2 = _complex_grid(rule)
    return _kernel_sum(_evaluate(f, xi, w2.shape), xi, w2)


def integrate_bicomplex(f: Callable, nu: float, rule: QuadratureRule, *, vectorized: bool = True) -> Bicomplex:
    """Approximate integral f(Z) exp(-nu |Z|^2) dlambda(Z) over the bicomplex ring.

    Writing Z = alpha e+ + beta e-, the Gaussian factorizes and the integral
    equals (1/4) of the iterated planar integral over (alpha, beta); the rule
    must therefore carry gamma = nu / 2 for each complex coordinate.  The
    (alpha, beta) tensor grid is evaluated in blocks of whole alpha rows.
    Each block reaches ``f`` as an outer product: alpha is a ``(rows, 1)``
    column and beta the ``(1, n**2)`` row of all planar nodes, so ``f`` must
    broadcast, and must not index, iterate, reduce or take ``len()`` of the
    block.  Each channel of a block is summed along its beta rows with the
    planar weights w, and these row sums then over alpha: the tensor-grid
    sum regrouped (see ``_ring_marginals``).  Every block is checked for
    non-finite values.  ``vectorized`` is accepted for compatibility only.
    """
    half = _half_weight("nu", nu)
    if not abs(rule.gamma - half) <= 1e-12 * max(1.0, 2.0 * half):
        raise DomainError(f"rule gamma {rule.gamma} does not match nu/2 = {half}")
    xi, w2 = _complex_grid(rule)
    # the ring measure's 1/4 as 1/2 on each side: a power of two scales exactly
    w = 0.5 * w2
    return _kernel_sum(_ring_marginals(f, xi, w, None), xi, w)


def _half_weight(name: str, value) -> float:
    """Half the weight ``value``, refused by ``name`` unless it is positive
    and finite and its half is above 0 (the half of 5e-324 rounds to 0)."""
    half = _require_positive(name, value) / 2.0
    if half == 0.0:
        raise DomainError(f"{name} must be at least 1e-323, so that {name}/2 is positive, got {value!r}")
    return half


def _gaussian_sum(f: Callable, space: str, param: float, order: int, kernel=None, points=None) -> Bicomplex:
    """The ``order``-point quadrature of kernel(p, .) f against the unit-mass
    Gaussian of ``space`` at each point p:

        "line"   sqrt(sigma/pi) exp(-sigma x**2) dx,            rule gamma = sigma
        "plane"  (nu/(2 pi)) exp(-(nu/2) |xi|**2) dlambda(xi),  rule gamma = nu/2
        "ring"   (nu/pi)**2 exp(-nu |Z|**2) dlambda(Z),         rule gamma = nu/2

    with ``param`` sigma on the line and nu otherwise, refused by that name
    before a rule is built.  The ring measure is the plane's on each channel,
    (nu/pi)**2 / 4 = c_1(nu/2)**2, and a ring kernel acts channelwise, so the
    ring is the plane with ``f`` reduced to its planar marginals.  A planar
    ``kernel`` (a, b) goes to :func:`_factored_sum`; a line (c, s, shift) is a
    closed form against dx, summed on the raw weights with exp(+gamma x**2).
    """
    line = space == "line"
    gamma = _require_positive("sigma", param) if line else _half_weight("nu", param)
    rule = gauss_hermite(order, gamma)
    nodes, w = (rule.nodes, rule.weights) if line else _complex_grid(rule)
    weights = w if line and kernel else normalization_c(0 if line else 1, gamma) * w
    values = _ring_marginals(f, nodes, weights, kernel) if space == "ring" else _evaluate(f, nodes, weights.shape)
    if line or kernel is None:
        return _kernel_sum(values, nodes, weights, kernel, points, gamma)
    return _factored_sum(values, rule.nodes, weights, kernel, points)


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
    raise DomainError(f"unsupported dimension tag {d!r}")
