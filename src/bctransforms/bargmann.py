"""Weighted function spaces: coefficient vectors, reproducing kernels, projections.

Two finite coefficient representations are used throughout the package:

* :class:`HermiteCoeffVector` - a polynomial on the line expanded in the
  orthonormal psi_n basis attached to the weight exp(-sigma x**2);
* :class:`MonomialCoeffVector` - a holomorphic polynomial on the bicomplex
  ring expanded in monomials Z**n, square-summable against exp(-nu |Z|**2)
  with squared monomial norms 2**n n! / nu**n.

Both store ``coeffs`` as one array-valued Bicomplex whose channels are the
coefficient arrays; ``coeffs[n]`` and iteration yield Bicomplex values, and
the constructors also accept a sequence of scalars or Bicomplex values.

Inner products are bicomplex-valued and conjugate-linear in the second slot.
The scalar ``norm_sq`` of a vector is the mean of the two channel norms,
equivalently the weighted sum of squared Euclidean moduli of the
coefficients; both transforms in this package preserve it channelwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bicomplex import (
    Bicomplex,
    _fails_closed,
    _require_finite,
    as_bicomplex,
    bc_inner,
    conj_star,
    exp as bc_exp,
    norm as bc_norm,
)
from .errors import DimensionMismatch, _require_positive
from .hermite import _scale, _weight, psi_values
from .quadrature import (
    DEFAULT_BC_ORDER,
    DEFAULT_ORDER,
    QuadratureRule,
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

class _CoeffVector:
    """Validation, basis and wire code shared by the two coefficient vectors;
    ``_param`` names the weight parameter, the first constructor argument."""

    _param: str

    def __post_init__(self):
        _require_positive(self._param, getattr(self, self._param))
        c = self.coeffs
        if not isinstance(c, Bicomplex):
            items = [as_bicomplex(v) for v in c]
            c = Bicomplex.from_channels([v.alpha for v in items], [v.beta for v in items])
        alpha, beta = np.asarray(c.alpha, dtype=complex), np.asarray(c.beta, dtype=complex)
        if alpha.ndim != 1 or alpha.shape != beta.shape or not alpha.size:
            raise ValueError("coefficients must form a non-empty one-dimensional sequence")
        c = Bicomplex.from_channels(alpha, beta)
        object.__setattr__(self, "coeffs", _require_finite(c, "coefficient vector has an entry outside float range"))

    @property
    def degree(self) -> int:
        return len(self.coeffs.alpha) - 1

    @classmethod
    def basis(cls, n: int, param: float):
        """The unit vector in slot ``n`` for weight parameter ``param``."""
        unit = np.zeros(n + 1, dtype=complex)
        unit[n] = 1.0
        return cls(param, Bicomplex.from_channels(unit, unit.copy()))

    @_fails_closed
    def _norm_sq(self, scale=1.0) -> float:
        """sum_n (|c_n| / scale_n)**2; an overflow raises instead of returning inf."""
        return float(np.sum((bc_norm(self.coeffs) / scale) ** 2))

    def to_json(self) -> dict:
        # a decoded vector re-encodes the rows it came from: its channels hold
        # each component only to 1 ulp at pair scale, its rows hold it exactly
        rows = getattr(self, "_rows", None)
        if rows is None:
            rows = self.coeffs._wire()
        return {self._param: getattr(self, self._param), "coeffs": rows.tolist()}

    @classmethod
    def from_json(cls, data: dict):
        if cls._param not in data or "coeffs" not in data:
            raise DimensionMismatch(f"expected keys {cls._param!r} and 'coeffs'")
        rows = np.array(data["coeffs"], dtype=float)
        out = cls(float(data[cls._param]), Bicomplex.from_json(rows))
        rows.flags.writeable = False
        object.__setattr__(out, "_rows", rows)
        return out


@dataclass(frozen=True)
class HermiteCoeffVector(_CoeffVector):
    """Finite expansion sum_n c_n psi_n in the weighted Hermite basis."""

    sigma: float
    coeffs: Bicomplex
    _param = "sigma"

    @_fails_closed
    def evaluate(self, x):
        """Value of the expansion at real ``x`` (scalar or ndarray); a value
        outside float range raises NonFiniteError."""
        vals = np.array(psi_values(self.degree, self.sigma, x))
        a, b = (np.einsum("n,n...->...", ch, vals) for ch in (self.coeffs.alpha, self.coeffs.beta))
        return Bicomplex.from_channels(a, b)

    def norm_sq(self) -> float:
        """Sum of squared Euclidean moduli of the coefficients."""
        return self._norm_sq()


@dataclass(frozen=True)
class MonomialCoeffVector(_CoeffVector):
    """Finite expansion sum_n A_n Z**n of a holomorphic polynomial."""

    nu: float
    coeffs: Bicomplex
    _param = "nu"

    def evaluate(self, Z: Bicomplex) -> Bicomplex:
        return eval_monomial_series(self, Z)

    def norm_sq(self) -> float:
        """Weighted sum of squared coefficient moduli, weights 2**n n!/nu**n."""
        return self._norm_sq(_scale(self.degree, 2.0 / self.nu))


@_fails_closed
def kernel_K_C(gamma: float, z: complex, w: complex) -> complex:
    """Classical planar reproducing kernel exp(gamma z conj(w))."""
    _require_positive("gamma", gamma)
    return np.exp(gamma * z * np.conjugate(w))


@_fails_closed
def kernel_K_BC(nu: float, Z: Bicomplex, W: Bicomplex) -> Bicomplex:
    """Bicomplex reproducing kernel exp((nu/2) Z W*)."""
    _require_positive("nu", nu)
    return bc_exp((0.5 * nu) * (as_bicomplex(Z) * conj_star(as_bicomplex(W))))


def monomial_norm_sq(n: int, nu: float) -> float:
    """Squared norm 2**n n! / nu**n of the monomial Z**n; a value outside
    float range raises NonFiniteError."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    _require_positive("nu", nu)
    return _weight(n, 2.0 / nu)


@_fails_closed
def _pairwise_inner(f: Bicomplex, g: Bicomplex, scale=1.0) -> Bicomplex:
    """sum_n (f_n / scale_n) (g_n / scale_n)* over the common length of two coefficient
    arrays; a sum outside float range raises instead of returning inf or NaN."""
    n = min(len(f.alpha), len(g.alpha))
    p = bc_inner(f[:n] / scale, g[:n] / scale)
    return Bicomplex.from_channels(np.sum(p.alpha), np.sum(p.beta))


def inner_L2sigma(
    f,
    g,
    sigma: float | None = None,
    *,
    order: int = DEFAULT_ORDER,
    vectorized: bool = False,
) -> Bicomplex:
    """Weighted-line inner product, conjugate-linear in ``g``.

    Coefficient vectors pair exactly as sum_n c_n (d_n)*.  If either side is
    a callable the product is integrated against the probability-normalized
    Gaussian; ``sigma`` must then be supplied (or be carried by the other
    operand).  Callables must broadcast over node arrays when
    ``vectorized=True``.
    """
    f_vec = isinstance(f, HermiteCoeffVector)
    g_vec = isinstance(g, HermiteCoeffVector)
    if f_vec and g_vec:
        if abs(f.sigma - g.sigma) > 1e-12:
            raise DimensionMismatch(f"sigma mismatch: {f.sigma} vs {g.sigma}")
        return _pairwise_inner(f.coeffs, g.coeffs)
    sig = sigma
    if sig is None:
        sig = f.sigma if f_vec else (g.sigma if g_vec else None)
    if sig is None:
        raise DimensionMismatch("sigma is required when both operands are callables")
    fe = f.evaluate if f_vec else f
    ge = g.evaluate if g_vec else g
    rule = gauss_hermite(order, sig)
    val = integrate_real(
        lambda x: as_bicomplex(fe(x)) * conj_star(as_bicomplex(ge(x))),
        rule,
        vectorized=vectorized,
    )
    return normalization_c(0, sig) * val


def inner_H2nu(
    f,
    g,
    nu: float | None = None,
    *,
    order: int = DEFAULT_BC_ORDER,
    vectorized: bool = False,
) -> Bicomplex:
    """Holomorphic-side inner product, conjugate-linear in ``g``.

    Coefficient vectors pair exactly with the monomial weights
    2**n n! / nu**n.  Callables are integrated against the normalized
    bicomplex Gaussian with a tensor rule of the given ``order``.
    """
    f_vec = isinstance(f, MonomialCoeffVector)
    g_vec = isinstance(g, MonomialCoeffVector)
    if f_vec and g_vec:
        if abs(f.nu - g.nu) > 1e-12:
            raise DimensionMismatch(f"nu mismatch: {f.nu} vs {g.nu}")
        # pair A_n / r_n, as norm_sq does
        return _pairwise_inner(f.coeffs, g.coeffs, _scale(min(f.degree, g.degree), 2.0 / f.nu))
    nv = nu
    if nv is None:
        nv = f.nu if f_vec else (g.nu if g_vec else None)
    if nv is None:
        raise DimensionMismatch("nu is required when both operands are callables")
    fe = f.evaluate if f_vec else f
    ge = g.evaluate if g_vec else g
    rule = gauss_hermite(order, nv / 2.0)
    val = integrate_bicomplex(
        lambda Z: as_bicomplex(fe(Z)) * conj_star(as_bicomplex(ge(Z))),
        nv,
        rule,
        vectorized=vectorized,
    )
    return normalization_c("BC", nv) * val


def project_P(
    f: Callable,
    nu: float,
    Z: Bicomplex,
    *,
    order: int = DEFAULT_BC_ORDER,
    vectorized: bool = False,
) -> Bicomplex:
    """Reproducing projection of ``f`` evaluated at ``Z``.

    Integrates kernel_K_BC(nu, Z, W) f(W) against the normalized bicomplex
    Gaussian in W.  Holomorphic polynomials are reproduced; components
    conjugate-holomorphic in W are annihilated.
    """
    Z = as_bicomplex(Z)
    rule = gauss_hermite(order, nu / 2.0)

    def integrand(W: Bicomplex) -> Bicomplex:
        return kernel_K_BC(nu, Z, W) * as_bicomplex(f(W))

    val = integrate_bicomplex(integrand, nu, rule, vectorized=vectorized)
    return normalization_c("BC", nu) * val


@_fails_closed
def eval_monomial_series(f: MonomialCoeffVector, Z: Bicomplex) -> Bicomplex:
    """Evaluate sum_n A_n Z**n by channelwise Horner recursion; a value
    outside float range raises NonFiniteError."""
    Z = as_bicomplex(Z)
    c = f.coeffs
    return Bicomplex.from_channels(np.polyval(c.alpha[::-1], Z.alpha), np.polyval(c.beta[::-1], Z.beta))


def idempotent_split_F(f: MonomialCoeffVector) -> tuple[list[complex], list[complex]]:
    """Channel coefficient lists (alpha side, beta side) of a holomorphic vector."""
    return f.coeffs.alpha.tolist(), f.coeffs.beta.tolist()
