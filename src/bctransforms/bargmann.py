"""Weighted function spaces: coefficient vectors, reproducing kernels, projections.

Both coefficient vectors hold the coordinates of a finite expansion in an
orthonormal basis, as one array-valued Bicomplex whose channels are the
coordinate arrays:

* :class:`HermiteCoeffVector` - a polynomial on the line in the psi_n basis
  attached to the weight exp(-sigma x**2);
* :class:`MonomialCoeffVector` - a holomorphic polynomial on the bicomplex
  ring, square-summable against exp(-nu |Z|**2), in the basis
  e_n = r_n Z**n, r_n = (c**n n!)**(-1/2), c = 2/nu.  Its constructor,
  ``basis``, ``coeffs`` and JSON speak the raw coefficients A_n = u_n r_n of
  Z**n; nothing else does.

Norms and pairings are the same coordinate sums on both sides, so the
coherent-state transform, psi_n -> e_n, keeps the coordinate array.  Inner
products are bicomplex-valued and conjugate-linear in the second slot; the
scalar ``norm_sq`` is the mean of the two channel norms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bicomplex import (
    Bicomplex,
    _channelwise,
    _fails_closed,
    _require_finite,
    as_bicomplex,
    bc_inner,
    norm as bc_norm,
)
from .errors import DimensionMismatch, _require_positive
from .hermite import _ratios, _scale, _weight, psi_values
from .quadrature import (
    DEFAULT_BC_ORDER,
    DEFAULT_ORDER,
    _complex_grid,
    _kernel_sum,
    gauss_hermite,
    integrate_bicomplex,
    integrate_real,
    normalization_c,
)

__all__ = [
    "HermiteCoeffVector",
    "MonomialCoeffVector",
    "kernel_K_C",
    "kernel_K_BC",
    "monomial_norm_sq",
    "inner_L2sigma",
    "inner_H2nu",
    "project_P",
    "eval_monomial_series",
    "idempotent_split_F",
]

_OUTSIDE_FLOAT_RANGE = "coefficient vector has an entry outside float range"


class _CoeffVector:
    """Coordinates ``_unit`` in an orthonormal basis, with validation and the
    wire form; ``_param`` names the weight parameter, the first constructor
    argument.  Each subclass is a frozen dataclass of those two fields."""

    _param: str

    def __init__(self, param: float, coeffs):
        param = _require_positive(self._param, param)
        if not isinstance(coeffs, Bicomplex):
            items = [as_bicomplex(v) for v in coeffs]
            coeffs = Bicomplex.from_channels([v.alpha for v in items], [v.beta for v in items])
        alpha, beta = np.asarray(coeffs.alpha, dtype=complex), np.asarray(coeffs.beta, dtype=complex)
        if alpha.ndim != 1 or alpha.shape != beta.shape or not alpha.size:
            raise ValueError("coefficients must form a non-empty one-dimensional sequence")
        unit = _require_finite(Bicomplex.from_channels(alpha, beta), _OUTSIDE_FLOAT_RANGE)
        self.__dict__.update({self._param: param, "_unit": unit})

    @classmethod
    def _from_unit(cls, param: float, unit: Bicomplex):
        """The vector of weight ``param`` with the (valid) coordinates ``unit``."""
        param = _require_positive(cls._param, param)
        out = object.__new__(cls)
        out.__dict__.update({cls._param: param, "_unit": unit})
        return out

    coeffs = property(lambda self: self._unit, doc="The coordinates, one array-valued Bicomplex.")

    @property
    def degree(self) -> int:
        return len(self._unit.alpha) - 1

    @classmethod
    def basis(cls, n: int, param: float):
        """The vector with coefficient 1 in slot ``n`` for weight parameter ``param``."""
        unit = np.zeros(n + 1, dtype=complex)
        unit[n] = 1.0
        return cls(param, Bicomplex.from_channels(unit, unit.copy()))

    @_fails_closed
    def norm_sq(self) -> float:
        """Sum of squared Euclidean moduli of the coordinates."""
        return float(np.sum(bc_norm(self._unit) ** 2))

    @_fails_closed
    def _pair(self, other) -> Bicomplex:
        """sum_n u_n (v_n)* over the common length of the coordinates of two
        vectors of one class and weight."""
        mine, theirs = getattr(self, self._param), getattr(other, self._param)
        if abs(mine - theirs) > 1e-12:
            raise DimensionMismatch(f"{self._param} mismatch: {mine} vs {theirs}")
        n = min(self.degree, other.degree) + 1
        p = bc_inner(self._unit[:n], other._unit[:n])
        return Bicomplex.from_channels(np.sum(p.alpha), np.sum(p.beta))

    def to_json(self) -> dict:
        # a decoded vector re-encodes the rows it came from: its channels hold
        # each component only to 1 ulp at pair scale, its rows hold it exactly
        rows = self._rows if "_rows" in self.__dict__ else self.coeffs._wire()
        return {self._param: getattr(self, self._param), "coeffs": rows.tolist()}

    @classmethod
    def from_json(cls, data: dict):
        if cls._param not in data or "coeffs" not in data:
            raise DimensionMismatch(f"expected keys {cls._param!r} and 'coeffs'")
        rows = np.array(data["coeffs"], dtype=float)
        out = cls(float(data[cls._param]), Bicomplex.from_json(rows))
        rows.flags.writeable = False
        out.__dict__["_rows"] = rows
        return out


@dataclass(frozen=True, init=False)
class HermiteCoeffVector(_CoeffVector):
    """Finite expansion sum_n c_n psi_n in the weighted Hermite basis."""

    sigma: float
    _unit: Bicomplex
    _param = "sigma"

    def __init__(self, sigma: float, coeffs):
        super().__init__(sigma, coeffs)

    @_fails_closed
    def evaluate(self, x):
        """Value of the expansion at real ``x`` (scalar or ndarray); a value
        outside float range raises NonFiniteError."""
        vals = np.array(psi_values(self.degree, self.sigma, x))
        a, b = (np.einsum("n,n...->...", ch, vals) for ch in (self._unit.alpha, self._unit.beta))
        return Bicomplex.from_channels(a, b)


@_fails_closed
def eval_monomial_series(f: MonomialCoeffVector, Z: Bicomplex) -> Bicomplex:
    """Evaluate sum_n A_n Z**n = sum_n u_n r_n Z**n by channelwise Horner recursion
    on the ratios r_n / r_{n-1}: b_N = u_N, b_n = u_n + b_{n+1} Z / sqrt(c (n+1)),
    value b_0.  It never forms r_n, and multiplies by each 1 / sqrt(c n) (a
    complex division costs several products).  A value outside float range
    raises NonFiniteError."""
    Z = as_bicomplex(Z)
    steps = (1.0 / np.sqrt((2.0 / f.nu) * np.arange(f.degree, 0, -1))).tolist()  # 1/sqrt(c n), n = N..1

    def horner(u, z):
        *rest, acc = u.tolist()
        acc += 0 * z  # the shape of z, at degree 0 too
        for u_n, step in zip(reversed(rest), steps):
            acc = u_n + acc * z * step
        return acc

    return Bicomplex.from_channels(horner(f._unit.alpha, Z.alpha), horner(f._unit.beta, Z.beta))


@dataclass(frozen=True, init=False)
class MonomialCoeffVector(_CoeffVector):
    """Finite expansion sum_n A_n Z**n of a holomorphic polynomial, held as
    u_n = A_n / r_n.  Taking raw coefficients in (constructor, ``basis``,
    ``from_json``) raises NonFiniteError where r_n leaves the normal float
    range, after degree 300 at nu = 2.  Giving them out (``coeffs``,
    ``to_json``) rounds each A_n once: one below float range underflows to 0,
    and one above it raises NonFiniteError."""

    nu: float
    _unit: Bicomplex
    _param = "nu"

    def __init__(self, nu: float, coeffs):
        super().__init__(nu, coeffs)  # validates the raw A_n, which u_n then replace
        with np.errstate(all="ignore"):
            unit = self._unit / _scale(self.degree, 2.0 / self.nu)
        self.__dict__["_unit"] = _require_finite(unit, _OUTSIDE_FLOAT_RANGE)

    @property
    @_fails_closed
    def coeffs(self) -> Bicomplex:
        """The raw coefficients A_n = u_n r_n."""
        return self._unit * _ratios(self.degree, 2.0 / self.nu)

    evaluate = eval_monomial_series


def _planar_kernel(gamma, z, w):
    """The planar reproducing kernel exp(gamma z conj(w)), on complex values."""
    w_bar = np.conjugate(w)
    return np.exp(gamma * (z * w_bar))


@_fails_closed
def kernel_K_C(gamma: float, z: complex, w: complex) -> complex:
    """Classical planar reproducing kernel exp(gamma z conj(w))."""
    gamma = _require_positive("gamma", gamma)
    return _planar_kernel(gamma, z, w)


@_fails_closed
def kernel_K_BC(nu: float, Z: Bicomplex, W: Bicomplex) -> Bicomplex:
    """Bicomplex reproducing kernel exp((nu/2) Z W*): the planar kernel with
    gamma = nu/2 on each channel, as W* conjugates each channel."""
    nu = _require_positive("nu", nu)
    return _channelwise(_planar_kernel)(0.5 * nu, as_bicomplex(Z), as_bicomplex(W))


def monomial_norm_sq(n: int, nu: float) -> float:
    """Squared norm 2**n n! / nu**n of the monomial Z**n; a value outside
    float range raises NonFiniteError."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    nu = _require_positive("nu", nu)
    return _weight(n, 2.0 / nu)


def _inner(cls, f, g, param, integrate) -> Bicomplex:
    """Two ``cls`` vectors pair on their coordinates.  Otherwise the pointwise
    pairing h is integrated as ``integrate(h, param)``, with ``param`` taken
    from the vector operand when it is not given."""
    f_vec, g_vec = isinstance(f, cls), isinstance(g, cls)
    if f_vec and g_vec:
        return f._pair(g)
    if param is None:
        param = getattr(f if f_vec else g if g_vec else None, cls._param, None)
    if param is None:
        raise DimensionMismatch(f"{cls._param} is required when both operands are callables")
    fe, ge = (v.evaluate if isinstance(v, cls) else v for v in (f, g))
    return integrate(lambda X: bc_inner(as_bicomplex(fe(X)), as_bicomplex(ge(X))), param)


def inner_L2sigma(
    f,
    g,
    sigma: float | None = None,
    *,
    order: int = DEFAULT_ORDER,
    vectorized: bool = True,
) -> Bicomplex:
    """Weighted-line inner product, conjugate-linear in ``g``.

    Coefficient vectors pair exactly as sum_n c_n (d_n)*.  If either side is
    a callable the product is integrated against the probability-normalized
    Gaussian; ``sigma`` must then be supplied (or be carried by the other
    operand).  Callables must broadcast over node arrays; ``vectorized`` is
    accepted for compatibility only.
    """

    def integrate(h, s):
        return integrate_real(h, gauss_hermite(order, s)) * normalization_c(0, s)

    return _inner(HermiteCoeffVector, f, g, sigma, integrate)


def inner_H2nu(
    f,
    g,
    nu: float | None = None,
    *,
    order: int = DEFAULT_BC_ORDER,
    vectorized: bool = True,
) -> Bicomplex:
    """Holomorphic-side inner product, conjugate-linear in ``g``.

    Coefficient vectors pair exactly as sum_n u_n (v_n)* on their e_n
    coordinates, which is sum_n A_n (B_n)* 2**n n! / nu**n on the raw
    coefficients.  Callables are integrated against the normalized bicomplex
    Gaussian with a tensor rule of the given ``order``; ``vectorized`` is
    accepted for compatibility only.
    """

    def integrate(h, n):
        return integrate_bicomplex(h, n, gauss_hermite(order, n / 2.0)) * normalization_c("BC", n)

    return _inner(MonomialCoeffVector, f, g, nu, integrate)


def project_P(
    f: Callable,
    nu: float,
    Z: Bicomplex,
    *,
    order: int = DEFAULT_BC_ORDER,
    vectorized: bool = True,
) -> Bicomplex:
    """Reproducing projection of ``f`` evaluated at ``Z``.

    Integrates kernel_K_BC(nu, Z, W) f(W) against the normalized bicomplex
    Gaussian in W.  Holomorphic polynomials are reproduced; components
    conjugate-holomorphic in W are annihilated.  ``Z`` may be an array value,
    whose shape the result takes (a scalar gives ``complex`` channels).
    ``vectorized`` is accepted and ignored.
    """
    xi, w2 = _complex_grid(gauss_hermite(order, nu / 2.0))
    kernel = functools.partial(kernel_K_BC, nu)
    return _kernel_sum(f, xi, w2, kernel, as_bicomplex(Z), scale=0.25 * normalization_c("BC", nu), ring=True)


def idempotent_split_F(f: MonomialCoeffVector) -> tuple[list[complex], list[complex]]:
    """Raw channel coefficient lists (alpha side, beta side) of a holomorphic vector."""
    return f.coeffs.alpha.tolist(), f.coeffs.beta.tolist()
