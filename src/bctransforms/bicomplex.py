"""Bicomplex number arithmetic.

A bicomplex number is Z = z1 + j z2 with complex z1, z2 and a second
imaginary unit j that commutes with i (ij = ji, j**2 = -1).  The ring is
not a field: it contains the zero divisors lying on the null cone.

The pair of idempotents

    e+ = (1 + ij)/2,    e- = (1 - ij)/2

splits the algebra into two complex channels,

    Z = alpha e+ + beta e-,    alpha = z1 - i z2,  beta = z1 + i z2,

and every product, power and transcendental function acts channelwise, so
a value is stored as its channel pair (alpha, beta).  The components z1, z2
and x1 .. y2 are derived on demand and read only at the boundary:
construction from components, ``repr`` and JSON.  Each conversion rounds
once per real field, at most 1 ulp at the scale of its mixing partner.

Channels may be plain scalars or broadcast-compatible numpy arrays; they
need not share a shape.  Every channelwise operation keeps each channel's
own shape; one that mixes the channels (``norm``, the components, a
product after a channel swap) broadcasts them against each other.
The ring quadrature relies on this: it hands an integrand alpha as a column
and beta as a row, so channelwise work runs once per node.  An array-valued
value indexes and iterates along its first axis.  Instances are immutable.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from numbers import Number
from typing import Union

import numpy as np

from .errors import BranchCutError, NonFiniteError, NullConeError

__all__ = [
    "Bicomplex",
    "IdempotentPair",
    "as_bicomplex",
    "to_idempotent",
    "from_idempotent",
    "add",
    "sub",
    "neg",
    "mul",
    "conj_dagger",
    "conj_tilde",
    "conj_star",
    "norm",
    "exp",
    "pow",
    "sqrt_principal",
    "inverse",
    "is_null_cone",
    "bc_inner",
    "NULL_TOL",
    "ZERO",
    "ONE",
    "I",
    "J",
    "IJ",
    "E_PLUS",
    "E_MINUS",
]

#: absolute tolerance below which a channel modulus counts as a zero divisor
NULL_TOL = 1e-12

Scalar = Union[int, float, complex]


def _require_finite(value, message: str):
    """Return ``value`` (a number, an array or a Bicomplex) if every component
    is finite; otherwise raise NonFiniteError with ``message``."""
    parts = (value.alpha, value.beta) if isinstance(value, Bicomplex) else (value,)
    if not all(np.isfinite(v).all() if isinstance(v, np.ndarray) else cmath.isfinite(v) for v in parts):
        raise NonFiniteError(message)
    return value


def _fails_closed(fn):
    """Run ``fn`` with numpy's warnings off; a Python OverflowError inside it, or a
    non-finite number, array or Bicomplex returned, raises NonFiniteError.  Not for
    functions that call a user callable."""
    message = f"{fn.__qualname__} is outside float range"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(all="ignore"):
            try:
                out = fn(*args, **kwargs)
            except OverflowError as err:
                raise NonFiniteError(message) from err
        return _require_finite(out, message)

    return wrapper


_PY_SCALARS = frozenset((complex, float, int))


def _min_abs(v) -> float:
    return np.min(np.abs(v)) if isinstance(v, np.ndarray) else abs(v)


class Bicomplex:
    """Immutable bicomplex value z1 + j z2, stored as its channels (alpha, beta).

    Parameters
    ----------
    z1, z2 : complex scalars or broadcast-compatible complex ndarrays
        The two complex components in the canonical (1, j) basis.  A real or
        imaginary part of a channel z1 -+ i z2 that leaves float range although
        the parts it is formed from are finite raises NonFiniteError, for
        scalars and arrays alike, and so does an int beyond float range; inf
        and NaN parts propagate.
    """

    __slots__ = ("alpha", "beta")

    # keep numpy from absorbing us into object arrays; binary ops with
    # ndarrays must dispatch to the reflected methods below
    __array_ufunc__ = None

    def __init__(self, z1: Scalar | np.ndarray = 0j, z2: Scalar | np.ndarray = 0j):
        # a channel part that overflows from finite parts raises, as does an int
        # beyond float range; inf and NaN parts propagate, as in the ring primitives
        try:
            if type(z1) in _PY_SCALARS and type(z2) in _PY_SCALARS:
                alpha, beta = z1 - 1j * z2, z1 + 1j * z2
                if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
                    # Python's complex arithmetic overflows without a flag: ask numpy's
                    Bicomplex(np.complex128(z1), np.complex128(z2))
            else:  # arithmetic on inf or NaN never raises the overflow flag
                with np.errstate(all="ignore", over="raise"):
                    alpha, beta = z1 - 1j * z2, z1 + 1j * z2
        except (FloatingPointError, OverflowError):
            raise NonFiniteError("components give a channel outside float range") from None
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def __setattr__(self, name, value):
        raise AttributeError("Bicomplex values are immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_reals(cls, x1: float, y1: float, x2: float, y2: float) -> "Bicomplex":
        """Build from the four real coordinates (x1, y1, x2, y2)."""
        try:
            return cls(complex(x1, y1), complex(x2, y2))
        except OverflowError:  # an int beyond float range
            raise NonFiniteError("a coordinate is outside float range") from None

    @classmethod
    def from_complex(cls, z: Scalar | np.ndarray) -> "Bicomplex":
        """Embed a complex number as z + j*0; both channels equal z."""
        return cls.from_channels(z, z)

    @classmethod
    def from_channels(cls, alpha, beta) -> "Bicomplex":
        """Build from the idempotent channel values (alpha, beta)."""
        Z = object.__new__(cls)
        object.__setattr__(Z, "alpha", alpha)
        object.__setattr__(Z, "beta", beta)
        return Z

    @classmethod
    def from_json(cls, data) -> "Bicomplex":
        """Decode the wire form [x1, y1, x2, y2]; a list of such rows decodes to
        a value with one-dimensional channel arrays.  A non-finite component
        raises NonFiniteError."""
        rows = np.asarray(data, dtype=float)
        if rows.ndim not in (1, 2) or rows.shape[-1] != 4:
            raise ValueError(f"expected [x1, y1, x2, y2] or a list of them, got shape {rows.shape}")
        _require_finite(rows, "JSON value has a non-finite component")
        x1, y1, x2, y2 = rows.tolist() if rows.ndim == 1 else rows.T
        return cls(x1 + 1j * y1, x2 + 1j * y2)

    # -- coordinates ---------------------------------------------------

    @property
    def z1(self):
        # halve before adding: exact, and finite for channels near the float maximum;
        # a non-finite channel gives its IEEE result without a numpy warning
        with np.errstate(invalid="ignore"):
            return self.alpha / 2 + self.beta / 2

    @property
    def z2(self):
        with np.errstate(invalid="ignore"):
            return 0.5j * self.alpha - 0.5j * self.beta

    x1 = property(lambda self: self.z1.real)
    y1 = property(lambda self: self.z1.imag)
    x2 = property(lambda self: self.z2.real)
    y2 = property(lambda self: self.z2.imag)

    def _wire(self) -> np.ndarray:
        """Components as a float array of shape (..., 4); non-finite ones are refused."""
        z1, z2 = self.z1, self.z2
        rows = np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1)
        return _require_finite(rows, "cannot JSON-encode a non-finite component")

    def to_json(self) -> list[float]:
        """Encode as [x1, y1, x2, y2]."""
        if np.ndim(self.alpha) or np.ndim(self.beta):
            raise TypeError("array-valued Bicomplex cannot be JSON-encoded")
        return self._wire().tolist()

    # -- array-valued values ------------------------------------------

    def __getitem__(self, index) -> "Bicomplex":
        return Bicomplex.from_channels(self.alpha[index], self.beta[index])

    def __iter__(self):
        return map(Bicomplex.from_channels, self.alpha, self.beta)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Bicomplex):
            return Bicomplex.from_channels(self.alpha + other.alpha, self.beta + other.beta)
        if isinstance(other, (Number, np.ndarray)):
            return Bicomplex.from_channels(self.alpha + other, self.beta + other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Bicomplex):
            return Bicomplex.from_channels(self.alpha - other.alpha, self.beta - other.beta)
        if isinstance(other, (Number, np.ndarray)):
            return Bicomplex.from_channels(self.alpha - other, self.beta - other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Bicomplex.from_channels(-self.alpha, -self.beta)

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, Bicomplex):
            return Bicomplex.from_channels(self.alpha * other.alpha, self.beta * other.beta)
        if isinstance(other, (Number, np.ndarray)):
            return Bicomplex.from_channels(self.alpha * other, self.beta * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Bicomplex):
            return self * inverse(other)
        if isinstance(other, (Number, np.ndarray)):
            return Bicomplex.from_channels(self.alpha / other, self.beta / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (Number, np.ndarray)):
            return inverse(self) * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            return NotImplemented
        if n < 0:
            return inverse(self) ** (-n)
        try:
            return Bicomplex.from_channels(self.alpha**n, self.beta**n)
        except OverflowError:  # Python's complex power; numpy's overflows to inf/NaN, as a product does
            return Bicomplex.from_channels(np.power(self.alpha, n), np.power(self.beta, n))

    def __abs__(self) -> float:
        return norm(self)

    def __eq__(self, other):
        if not isinstance(other, Bicomplex):
            return NotImplemented
        return bool(np.array_equal(self.alpha, other.alpha) and np.array_equal(self.beta, other.beta))

    def __repr__(self):
        return f"Bicomplex({self.z1!r}, {self.z2!r})"

    # -- predicates ----------------------------------------------------

    def is_null(self, tol: float = NULL_TOL) -> bool:
        """True when the value (any point of it, for array channels) lies
        within ``tol`` of the null cone."""
        return bool(min(_min_abs(self.alpha), _min_abs(self.beta)) <= tol)


@dataclass(frozen=True)
class IdempotentPair:
    """The two channel values (alpha, beta) of a bicomplex number."""

    alpha: complex
    beta: complex

    def __mul__(self, other: "IdempotentPair") -> "IdempotentPair":
        return IdempotentPair(self.alpha * other.alpha, self.beta * other.beta)

    def to_bicomplex(self) -> Bicomplex:
        return Bicomplex.from_channels(self.alpha, self.beta)

    def is_null(self, tol: float = NULL_TOL) -> bool:
        return self.to_bicomplex().is_null(tol)

    def to_json(self) -> dict:
        return {
            "alpha": [self.alpha.real, self.alpha.imag],
            "beta": [self.beta.real, self.beta.imag],
        }

    @classmethod
    def from_json(cls, data: dict) -> "IdempotentPair":
        a = data["alpha"]
        b = data["beta"]
        return cls(complex(a[0], a[1]), complex(b[0], b[1]))


def as_bicomplex(value) -> Bicomplex:
    """Coerce a scalar, complex ndarray or Bicomplex to Bicomplex."""
    if isinstance(value, Bicomplex):
        return value
    if isinstance(value, np.ndarray):
        return Bicomplex.from_complex(value.astype(complex, copy=False))
    if isinstance(value, Number):
        try:
            return Bicomplex.from_complex(complex(value))
        except OverflowError:  # an int beyond float range
            raise NonFiniteError("value is outside float range") from None
    raise TypeError(f"cannot interpret {type(value).__name__} as Bicomplex")


# -- contract surface: named operations --------------------------------


def to_idempotent(Z: Bicomplex) -> IdempotentPair:
    """Channel decomposition Z = alpha e+ + beta e-."""
    return IdempotentPair(Z.alpha, Z.beta)


def from_idempotent(pair: IdempotentPair) -> Bicomplex:
    """Inverse of :func:`to_idempotent`."""
    return Bicomplex.from_channels(pair.alpha, pair.beta)


def add(Z: Bicomplex, W: Bicomplex) -> Bicomplex:
    return Z + W


def sub(Z: Bicomplex, W: Bicomplex) -> Bicomplex:
    return Z - W


def neg(Z: Bicomplex) -> Bicomplex:
    return -Z


def mul(Z: Bicomplex, W) -> Bicomplex:
    """Bicomplex product; accepts a scalar second operand."""
    return Z * W


def conj_dagger(Z: Bicomplex) -> Bicomplex:
    """j-conjugation z1 - j z2; swaps the channels."""
    return Bicomplex.from_channels(Z.beta, Z.alpha)


def conj_tilde(Z: Bicomplex) -> Bicomplex:
    """i-conjugation conj(z1) + j conj(z2); conjugate-swaps the channels."""
    return Bicomplex.from_channels(Z.beta.conjugate(), Z.alpha.conjugate())


def conj_star(Z: Bicomplex) -> Bicomplex:
    """Composite conjugation conj(z1) - j conj(z2); conjugates each channel.

    This is the conjugation used by every inner product in the package.
    """
    return Bicomplex.from_channels(Z.alpha.conjugate(), Z.beta.conjugate())


def norm(Z: Bicomplex) -> float:
    """Euclidean norm sqrt(|z1|^2 + |z2|^2) = hypot(|alpha / 2|, |beta / 2|) / sqrt(1/2),
    scaled so that no square overflows or underflows and a representable norm stays finite."""
    a, b = Z.alpha, Z.beta
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.hypot(np.abs(a / 2), np.abs(b / 2)) / math.sqrt(0.5)
    return math.hypot(a.real / 2, a.imag / 2, b.real / 2, b.imag / 2) / math.sqrt(0.5)


def exp(Z: Bicomplex) -> Bicomplex:
    """Channelwise exponential."""
    return Bicomplex.from_channels(np.exp(Z.alpha), np.exp(Z.beta))


def pow(Z: Bicomplex, n: int) -> Bicomplex:  # noqa: A001 - contract name
    """Integer power with channelwise alpha**n, beta**n; n must be >= 0."""
    if n < 0:
        raise ValueError("pow expects a nonnegative exponent; use inverse() first")
    return Z**n


def sqrt_principal(Z: Bicomplex) -> Bicomplex:
    """Channelwise principal square root.

    Raises
    ------
    BranchCutError
        If either channel value lies on the closed negative real axis,
        where no principal branch can be chosen.
    """
    a, b = Z.alpha, Z.beta
    for name, v in (("alpha", a), ("beta", b)):
        if np.any((v.imag == 0.0) & (v.real <= 0.0)):
            raise BranchCutError(f"{name} channel lies on the branch cut (closed negative real axis)")
    return Bicomplex.from_channels(np.sqrt(a + 0j), np.sqrt(b + 0j))


def inverse(Z: Bicomplex, tol: float = NULL_TOL) -> Bicomplex:
    """Multiplicative inverse; defined exactly off the null cone.

    Raises
    ------
    NullConeError
        If min(|alpha|, |beta|) <= tol, i.e. Z is a zero divisor (or too
        close to one for a stable reciprocal).
    """
    if Z.is_null(tol):
        raise NullConeError(f"value within {tol} of the null cone has no inverse")
    return Bicomplex.from_channels(1.0 / Z.alpha, 1.0 / Z.beta)


def is_null_cone(Z: Bicomplex, tol: float = NULL_TOL) -> bool:
    """True when Z is a zero divisor up to absolute tolerance ``tol``."""
    return Z.is_null(tol)


def bc_inner(Z: Bicomplex, W: Bicomplex) -> Bicomplex:
    """Bicomplex pairing Z * conj_star(W), conjugate-linear in the second slot."""
    return Z * conj_star(W)


# -- distinguished constants -------------------------------------------

ZERO = Bicomplex(0j, 0j)
ONE = Bicomplex(1 + 0j, 0j)
I = Bicomplex(1j, 0j)
J = Bicomplex(0j, 1 + 0j)
IJ = Bicomplex(0j, 1j)
E_PLUS = Bicomplex(0.5 + 0j, 0.5j)
E_MINUS = Bicomplex(0.5 + 0j, -0.5j)
