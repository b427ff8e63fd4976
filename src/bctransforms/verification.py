"""Numerical verification suites and their report types.

A case is a generator of errors, registered where it is defined: add one as
``@_case(id, tol, desc)`` over ``def _(p): ... yield error``, where ``p``
holds the run's parameters and the id prefix names the suite.  The runner
reduces the errors with ``_worst``, a max that keeps NaN, so a NaN fails its
case and a case that raises reads inf.  A case that samples draws all its
samples at once and checks them as one array-valued Bicomplex, one
``float(np.max(...))`` per check (np.max keeps a NaN too).  Errors are measured in the Euclidean
bicomplex norm (or in ulps where noted).  Reports serialize to JSON and CSV;
with a fixed seed the content is reproducible run to run, apart from the
wall-time field.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import bicomplex as bc
from .bargmann import (
    HermiteCoeffVector,
    MonomialCoeffVector,
    eval_monomial_series,
    inner_H2nu,
    kernel_K_BC,
    monomial_norm_sq,
    project_P,
)
from .bicomplex import Bicomplex, as_bicomplex, bc_inner, conj_star
from .errors import (
    BranchCutError,
    DomainError,
    ExcludedParameterError,
    NonFiniteError,
    NullConeError,
    _require_int,
    _require_positive,
)
from .frft import (
    ThetaParam,
    ck_frft_kernel,
    frft_apply,
    frft_coefficients,
    frft_inverse,
    frft_kernel,
    gaussian_integral_closed,
    mehler_bilinear_bc,
    mehler_bilinear_series,
    mehler_closed,
    mehler_series,
)
from .hermite import (
    generating_G,
    generating_series,
    hermite_norm_sq,
    hermite_sigma,
    psi_n,
    psi_values,
)
from .quadrature import (
    gauss_hermite,
    integrate_bicomplex,
    integrate_complex,
    integrate_real,
    normalization_c,
)
from .transforms import (
    s_transform,
    sbt_forward,
    sbt_forward_integral,
    sbt_inverse_coeff,
    sbt_inverse_integral,
    sbt_kernel_BC,
)

__all__ = ["CaseResult", "VerificationReport", "SUITE_NAMES", "run_suite"]


@dataclass(frozen=True)
class CaseResult:
    id: str
    desc: str
    error: float
    tol: float
    passed: bool
    ms: float
    raised: bool = False

    @property
    def status(self) -> str:
        """The outcome: "raised" if the case's code raised, else "pass" or "fail"."""
        if self.raised:
            return "raised"
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        """JSON-ready fields; a non-finite error (a raise or a NaN) is None."""
        return {
            "id": self.id,
            "desc": self.desc,
            "error": self.error if math.isfinite(self.error) else None,
            "tol": self.tol,
            "pass": self.passed,
            "status": self.status,
            "ms": self.ms,
        }


@dataclass
class VerificationReport:
    suite: str
    params: dict
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "cases": [c.to_dict() for c in self.cases],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "desc", "error", "tol", "pass", "ms"])
        for c in self.cases:
            writer.writerow([c.id, c.desc, repr(c.error), repr(c.tol), c.passed, c.ms])
        return buf.getvalue()

    def write(self, json_path) -> None:
        # encode both before opening either, so a report that cannot be encoded leaves no file
        text, table = self.to_json(), self.to_csv()
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        csv_path = str(json_path)
        csv_path = csv_path[: -len(".json")] + ".csv" if csv_path.endswith(".json") else csv_path + ".csv"
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(table)


@dataclass(frozen=True)
class _Params:
    sigma: float
    nu: float
    order: int
    seed: int
    theta: ThetaParam | None


@dataclass(frozen=True)
class _Case:
    id: str
    desc: str
    tol: float
    errors: Callable[[_Params], Iterable[float]]


_CASES: list[_Case] = []


def _case(id: str, tol: float, desc: str):
    """Register the decorated generator of errors as case ``id``."""
    def register(errors):
        _CASES.append(_Case(id, desc, tol, errors))
        return errors
    return register


def _rng(params: _Params) -> np.random.Generator:
    return np.random.default_rng(params.seed)


def _rand_bc(rng: np.random.Generator, scale: float = 1.0) -> Bicomplex:
    x = rng.standard_normal(4) * scale
    return Bicomplex.from_reals(*x)


def _rand_bc_bounded(rng: np.random.Generator, radius: float) -> Bicomplex:
    while True:
        Z = _rand_bc(rng, radius / 2.0)
        if bc.norm(Z) <= radius:
            return Z


def _rand_bcs(rng: np.random.Generator, shape, scale=1.0) -> Bicomplex:
    """One array value of ``shape`` samples; the same draws, in the same (C)
    order, as that many calls of ``_rand_bc``.  ``scale`` broadcasts against
    the reals, of shape ``(*shape, 4)``."""
    x1, y1, x2, y2 = np.moveaxis(rng.standard_normal((*np.atleast_1d(shape), 4)) * scale, -1, 0)
    return Bicomplex(x1 + 1j * y1, x2 + 1j * y2)


def _rand_bcs_bounded(rng: np.random.Generator, n: int, radius: float) -> Bicomplex:
    """``n`` samples of ``_rand_bc_bounded`` as one array value: each round
    redraws, as one array, as many samples as are still missing."""
    alpha = beta = np.empty(0, dtype=complex)
    while alpha.size < n:
        Z = _rand_bcs(rng, n - alpha.size, radius / 2.0)
        inside = bc.norm(Z) <= radius
        alpha, beta = np.concatenate((alpha, Z.alpha[inside])), np.concatenate((beta, Z.beta[inside]))
    return Bicomplex.from_channels(alpha, beta)


def _rand_coeffs(rng: np.random.Generator, degree: int) -> Bicomplex:
    """``degree + 1`` coefficients as one array value; the same draws, in the
    same order, as ``degree + 1`` calls of ``_rand_bc``."""
    return _rand_bcs(rng, degree + 1)


def _padded_coeffs(rng: np.random.Generator, n: int, max_degree: int) -> tuple[np.ndarray, Bicomplex]:
    """Degrees d_k drawn from 0..max_degree, then ``n`` coefficient rows of
    length max_degree + 1, each zero past its d_k: ``n`` vectors stacked."""
    degrees = rng.integers(0, max_degree + 1, n)
    rows = _rand_bcs(rng, (n, max_degree + 1))
    return degrees, rows * (np.arange(max_degree + 1) <= degrees[:, None])


def _rowsum(rows: Bicomplex) -> Bicomplex:
    """Sum over the last axis of an array value."""
    return Bicomplex.from_channels(np.sum(rows.alpha, axis=-1), np.sum(rows.beta, axis=-1))


def _power_sum(A: Bicomplex, Z: Bicomplex) -> Bicomplex:
    """sum_n A[..., n] Z**n for coefficient rows ``A`` and points ``Z`` of shape A.shape[:-1]."""
    n = np.arange(np.shape(A.alpha)[-1])
    return _rowsum(A * Bicomplex.from_channels(Z.alpha[..., None] ** n, Z.beta[..., None] ** n))


def _rand_hermite_vec(rng: np.random.Generator, degree: int, sigma: float) -> HermiteCoeffVector:
    return HermiteCoeffVector(sigma=sigma, coeffs=_rand_coeffs(rng, degree))


def _rand_monomial_vec(rng: np.random.Generator, degree: int, nu: float) -> MonomialCoeffVector:
    return MonomialCoeffVector(nu=nu, coeffs=_rand_coeffs(rng, degree))


def _worst(*errors: float) -> float:
    """Largest of ``errors``, or NaN when any of them is NaN (the builtin max
    can drop a NaN), so that a NaN error fails its case."""
    return math.nan if any(map(math.isnan, errors)) else max(errors)


def _rel(got: Bicomplex, want: Bicomplex):
    """Bicomplex-norm error of ``got`` relative to ``want``, pointwise for array values."""
    return bc.norm(got - want) / np.maximum(bc.norm(want), 1e-300)


def _rejects(error_type: type[Exception], call: Callable[[], object]) -> float:
    """0.0 if ``call()`` raises ``error_type``, inf if it returns."""
    try:
        call()
    except error_type:
        return 0.0
    return math.inf


def _basis_scale(n: int, nu: float) -> float:
    """(nu**n / (2**n n!))**(1/2) from the exact factorial; an oracle kept
    apart from the ratio form ``hermite._scale`` that it checks."""
    return math.sqrt(nu**n / (2.0**n * math.factorial(n)))


def _raw_norm_sq(A: Bicomplex, nu: float):
    """sum_n |A_n|**2 2**n n! / nu**n over the last axis of raw coefficients
    A_n, by the exact factorial: an oracle for the coordinate sum ``norm_sq``."""
    scales = np.array([_basis_scale(n, nu) for n in range(np.shape(A.alpha)[-1])])
    return np.sum((bc.norm(A) / scales) ** 2, axis=-1)


# ---------------------------------------------------------------- algebra


@_case("algebra/idempotent-identities", 0.0, "e+, e- satisfy the five splitting identities exactly")
def _(p):
    ep, em = bc.E_PLUS, bc.E_MINUS
    yield bc.norm(ep * ep - ep)
    yield bc.norm(em * em - em)
    yield bc.norm(ep * em)
    yield bc.norm(ep + em - bc.ONE)
    yield bc.norm(ep - em - bc.IJ)

@_case("algebra/idempotent-roundtrip", 4.0, "to/from idempotent reproduces all four fields to a few ulp at pair scale")
def _(p):
    # the channel map mixes (x1, y2) and (y1, x2) in 2x2 rotations, so the
    # recoverable precision of each field is set by its mixing partner;
    # ulps are measured at that pair scale against the sampled reals; the
    # 10 000 samples form one array-valued value, and np.max keeps a NaN
    rng = _rng(p)
    scale = 10.0 ** rng.uniform(-3, 3, 10_000)
    x1, y1, x2, y2 = (rng.standard_normal((10_000, 4)) * scale[:, None]).T
    W = bc.from_idempotent(bc.to_idempotent(Bicomplex(x1 + 1j * y1, x2 + 1j * y2)))
    scale_a = np.spacing(np.maximum(abs(x1), abs(y2)))
    scale_b = np.spacing(np.maximum(abs(y1), abs(x2)))
    yield float(np.max(abs(x1 - W.x1) / scale_a))
    yield float(np.max(abs(y2 - W.y2) / scale_a))
    yield float(np.max(abs(y1 - W.y1) / scale_b))
    yield float(np.max(abs(x2 - W.x2) / scale_b))

@_case("algebra/conjugations", 0.0, "all three conjugations are multiplicative involutions")
def _(p):
    ZW = _rand_bcs(_rng(p), (200, 2))
    Z, W = ZW[:, 0], ZW[:, 1]
    for conj in (bc.conj_dagger, bc.conj_tilde, bc.conj_star):
        yield float(np.max(bc.norm(conj(conj(Z)) - Z)))
        yield float(np.max(bc.norm(conj(Z * W) - conj(Z) * conj(W))))

@_case("algebra/mul-channelwise", 0.0, "product agrees with channelwise product of the decompositions")
def _(p):
    ZW = _rand_bcs(_rng(p), (200, 2))
    Z, W = ZW[:, 0], ZW[:, 1]
    pair = bc.to_idempotent(Z) * bc.to_idempotent(W)
    yield float(np.max(bc.norm(Z * W - pair.to_bicomplex())))

@_case("algebra/norm-identity", 1e-14, "norm^2 = (|alpha|^2+|beta|^2)/2 = scalar part of <Z,Z>")
def _(p):
    rng = _rng(p)
    scale = 10.0 ** rng.uniform(-2, 2, 500)
    Z = _rand_bcs(rng, 500, scale[:, None])
    pair = bc.to_idempotent(Z)
    lhs = bc.norm(Z) ** 2
    rhs = (abs(pair.alpha) ** 2 + abs(pair.beta) ** 2) / 2.0
    yield float(np.max(abs(lhs - rhs) / np.maximum(lhs, 1e-300)))
    yield float(np.max(abs(bc_inner(Z, Z).z1.real - lhs) / np.maximum(lhs, 1e-300)))

@_case("algebra/schwarz", 1e-12, "generalized Schwarz bound |<f,g>| <= sqrt(2) ||f|| ||g||")
def _(p):
    # 300 pairs of psi_n coordinate rows of degree 0..7, zero-padded to 8
    rng = _rng(p)
    (_, F), (_, G) = _padded_coeffs(rng, 300, 7), _padded_coeffs(rng, 300, 7)
    lhs = bc.norm(_rowsum(bc_inner(F, G)))
    rhs = np.sqrt(2.0 * np.sum(bc.norm(F) ** 2, axis=-1) * np.sum(bc.norm(G) ** 2, axis=-1))
    yield float(np.max((lhs - rhs) / np.maximum(rhs, 1e-300)))

@_case("algebra/inverse", 1e-12, "Z * Z^-1 = 1 off the null cone; zero divisors are rejected")
def _(p):
    Z = _rand_bcs(_rng(p), 200)
    Z = Z[np.minimum(abs(Z.alpha), abs(Z.beta)) > 1e-6]  # inverse refuses an array with a null point
    yield float(np.max(bc.norm(Z * bc.inverse(Z) - bc.ONE)))
    yield _rejects(NullConeError, lambda: bc.inverse(bc.E_PLUS))
    yield 0.0 if bc.is_null_cone(bc.E_PLUS) and not bc.is_null_cone(bc.ONE) else math.inf

@_case("algebra/exp-pow-sqrt", 1e-12, "exp is additive, pow matches repeated product, sqrt squares back; branch cut rejected")
def _(p):
    ZWQ = _rand_bcs(_rng(p), (200, 3), np.array([0.8, 0.8, 0.3])[:, None])
    Z, W, Q = ZWQ[:, 0], ZWQ[:, 1], bc.ONE + ZWQ[:, 2]
    yield float(np.max(_rel(bc.exp(Z + W), bc.exp(Z) * bc.exp(W))))
    yield float(np.max(bc.norm(bc.pow(Z, 5) - Z * Z * Z * Z * Z) / np.maximum(bc.norm(Z) ** 5, 1e-300)))
    R = bc.sqrt_principal(Q)
    yield float(np.max(_rel(R * R, Q)))
    yield _rejects(BranchCutError, lambda: bc.sqrt_principal(Bicomplex(-1.0 + 0j, 0j)))


# ---------------------------------------------------------------- hermite


_EXPLICIT_H = (
    lambda s, x: 1.0,
    lambda s, x: 2 * s * x,
    lambda s, x: 4 * s**2 * x**2 - 2 * s,
    lambda s, x: 8 * s**3 * x**3 - 12 * s**2 * x,
    lambda s, x: 16 * s**4 * x**4 - 48 * s**3 * x**2 + 12 * s**2,
    lambda s, x: 32 * s**5 * x**5 - 160 * s**4 * x**3 + 120 * s**3 * x,
    lambda s, x: 64 * s**6 * x**6 - 480 * s**5 * x**4 + 720 * s**4 * x**2 - 120 * s**3,
)

@_case("hermite/recurrence-vs-explicit", 1e-12, "recurrence matches the expanded derivative polynomials for n <= 6")
def _(p):
    x = np.linspace(-2.0, 2.0, 9)
    for s in (p.sigma, 0.5, 2.0):
        for n, ref in enumerate(_EXPLICIT_H):
            expect = ref(s, x)
            yield float(np.max(abs(hermite_sigma(n, s, x) - expect) / np.maximum(abs(expect), 1.0)))

@_case("hermite/orthonormality", 1e-10, "psi_m, psi_n orthonormal under the weighted pairing for m, n <= 12")
def _(p):
    rule = gauss_hermite(p.order, p.sigma)
    psi = np.array(psi_values(12, p.sigma, rule.nodes))
    gram = normalization_c(0, p.sigma) * ((psi * rule.weights) @ psi.T)
    yield float(np.max(abs(gram - np.eye(13))))

@_case("hermite/norm-formula", 1e-12, "quadrature norm of H_n matches 2^n sigma^n n!")
def _(p):
    rule = gauss_hermite(p.order, p.sigma)
    c0 = normalization_c(0, p.sigma)
    for n in range(11):
        quad = c0 * float(np.sum(rule.weights * hermite_sigma(n, p.sigma, rule.nodes) ** 2))
        yield abs(quad - hermite_norm_sq(n, p.sigma)) / hermite_norm_sq(n, p.sigma)

@_case("hermite/generating-closed-vs-series", 1e-10, "closed generating form matches its 60-term series")
def _(p):
    rng = _rng(p)
    for _ in range(5):
        x = float(rng.uniform(-1.5, 1.5))
        Z = _rand_bc_bounded(rng, 1.0)
        closed = generating_G(p.sigma, p.nu, x, Z)
        series = generating_series(p.sigma, p.nu, x, Z, n_terms=60)
        yield bc.norm(closed - series)

@_case("hermite/generating-pairing", 1e-8, "pairing of G(.;Z*) with G(.;W*) reproduces the kernel at (Z, W)")
def _(p):
    rng = _rng(p)
    rule = gauss_hermite(p.order, p.sigma)
    c0 = normalization_c(0, p.sigma)
    for _ in range(5):
        Z = _rand_bc_bounded(rng, 1.2)
        W = _rand_bc_bounded(rng, 1.2)
        Gz = generating_G(p.sigma, p.nu, rule.nodes, conj_star(Z))
        Gw = generating_G(p.sigma, p.nu, rule.nodes, conj_star(W))
        P = Gz * conj_star(Gw)
        val = c0 * Bicomplex.from_channels(np.sum(rule.weights * P.alpha), np.sum(rule.weights * P.beta))
        yield bc.norm(val - kernel_K_BC(p.nu, Z, W))


# -------------------------------------------------------------- quadrature


@_case("quadrature/gaussian-mass", 1e-13, "weights sum to sqrt(pi/gamma) across orders")
def _(p):
    for order in (1, 2, 33, 64, 81, 128):
        for gamma in (1.0, 2.5):
            rule = gauss_hermite(order, gamma)
            expect = math.sqrt(math.pi / gamma)
            yield abs(float(np.sum(rule.weights)) - expect) / expect

@_case("quadrature/even-moments", 1e-13, "even moments up to degree 20 are exact")
def _(p):
    rule = gauss_hermite(p.order, 2.0)
    expect = math.sqrt(math.pi / 2.0)
    for k in range(1, 11):
        expect *= (2 * k - 1) / 4.0  # recursion for the (2k)-th moment at gamma = 2
        got = float(np.sum(rule.weights * rule.nodes ** (2 * k)))
        yield abs(got - expect) / expect

@_case("quadrature/odd-symmetry", 1e-15, "odd integrands vanish on the symmetrized rule")
def _(p):
    rule = gauss_hermite(p.order, 1.0)
    yield abs(float(np.sum(rule.weights * rule.nodes**3)))

@_case("quadrature/complex-moment", 1e-12, "planar moment integral matches (pi/gamma) alpha^n")
def _(p):
    gamma = p.nu / 2.0
    alpha = 0.4 + 0.1j
    rule = gauss_hermite(p.order, gamma)
    val = integrate_complex(lambda xi: xi**2 * np.exp(gamma * alpha * np.conjugate(xi)), rule)
    expect = math.pi / gamma * alpha**2
    yield abs(complex(val.z1) - expect) / abs(expect)

@_case("quadrature/bicomplex-mass", 1e-12, "normalized bicomplex Gaussian has unit mass")
def _(p):
    rule = gauss_hermite(12, p.nu / 2.0)
    val = integrate_bicomplex(lambda Z: bc.ONE, p.nu, rule)
    yield bc.norm(normalization_c("BC", p.nu) * val - bc.ONE)

@_case("quadrature/scaling-covariance", 0.0, "rules at different gamma are exact rescalings of the unit rule")
def _(p):
    base = gauss_hermite(p.order, 1.0)
    scaled = gauss_hermite(p.order, 2.5)
    root = math.sqrt(2.5)
    yield float(np.max(np.abs(scaled.nodes - base.nodes / root)))
    yield float(np.max(np.abs(scaled.weights - base.weights / root)))

@_case("quadrature/nonfinite-raises", 0.0, "non-finite integrand values are rejected")
def _(p):
    rule = gauss_hermite(8, 1.0)
    yield _rejects(NonFiniteError, lambda: integrate_real(lambda x: float("inf"), rule))


# ---------------------------------------------------------------- bargmann


@_case("bargmann/monomial-orthogonality", 1e-8, "<Z^n, Z^m> = delta 2^n n!/nu^n under the ring quadrature")
def _(p):
    for n in range(7):
        for m in range(n, 7):
            val = inner_H2nu(lambda Z, n=n: Z**n, lambda Z, m=m: Z**m, p.nu, order=20)
            expect = monomial_norm_sq(n, p.nu) if m == n else 0.0
            scale = math.sqrt(monomial_norm_sq(n, p.nu) * monomial_norm_sq(m, p.nu))
            yield bc.norm(val - expect * bc.ONE) / scale

@_case("bargmann/reproducing", 1e-8, "projection reproduces monomials at random interior points")
def _(p):
    rng = _rng(p)
    pts = [_rand_bc_bounded(rng, 1.5) for _ in range(5)]
    for n in range(7):
        for Z in pts:
            got = project_P(lambda W, n=n: W**n, p.nu, Z, order=24)
            yield bc.norm(got - Z**n)

@_case("bargmann/annihilates-antiholomorphic", 1e-10, "projection kills the conjugate coordinate")
def _(p):
    rng = _rng(p)
    Z = _rand_bc_bounded(rng, 1.0)
    yield bc.norm(project_P(lambda W: conj_star(W), p.nu, Z, order=20))

@_case("bargmann/kernel-symmetry", 1e-14, "K(Z,W) equals the star conjugate of K(W,Z)")
def _(p):
    ZW = _rand_bcs(_rng(p), (50, 2))
    Z, W = ZW[:, 0], ZW[:, 1]
    yield float(np.max(_rel(conj_star(kernel_K_BC(p.nu, W, Z)), kernel_K_BC(p.nu, Z, W))))

@_case("bargmann/kernel-expansion", 1e-10, "40-term basis expansion of the kernel matches the closed form")
def _(p):
    rng = _rng(p)
    for _ in range(5):
        Z = _rand_bc_bounded(rng, 1.5)
        W = _rand_bc_bounded(rng, 1.5)
        acc = Bicomplex(0j, 0j)
        for n in range(41):
            r = _basis_scale(n, p.nu)
            acc = acc + (r * Z**n) * conj_star(r * W**n)
        yield bc.norm(acc - kernel_K_BC(p.nu, Z, W))

@_case("bargmann/pointwise-bound", 1e-12, "|f(Z)| <= sqrt(2) |exp(nu/4 Z Z*)| ||f||")
def _(p):
    # 100 raw coefficient rows of degree 0..6, zero-padded to 7, each at its own point
    rng = _rng(p)
    _, A = _padded_coeffs(rng, 100, 6)
    Z = _rand_bcs_bounded(rng, 100, 1.5)
    lhs = bc.norm(_power_sum(A, Z))
    growth = bc.norm(bc.exp((0.25 * p.nu) * (Z * conj_star(Z))))
    rhs = math.sqrt(2.0) * growth * np.sqrt(_raw_norm_sq(A, p.nu))
    yield float(np.max((lhs - rhs) / np.maximum(rhs, 1e-300)))

@_case("bargmann/parseval", 1e-10, "coefficient norm matches the ring quadrature norm")
def _(p):
    rng = _rng(p)
    for _ in range(3):
        f = _rand_monomial_vec(rng, 4, p.nu)
        coeff = f.norm_sq()
        quad = inner_H2nu(f.evaluate, f.evaluate, p.nu, order=20)
        yield abs(quad.z1.real - coeff) / coeff

@_case("bargmann/split-norm", 1e-10, "norm^2 is the mean of the two channel space norms")
def _(p):
    rng = _rng(p)
    f = _rand_monomial_vec(rng, 5, p.nu)
    gamma = p.nu / 2.0
    rule = gauss_hermite(p.order, gamma)
    c1 = normalization_c(1, gamma)
    total = 0.0
    for coeffs in (f.coeffs.alpha, f.coeffs.beta):
        val = integrate_complex(lambda xi: np.abs(np.polyval(coeffs[::-1], xi)) ** 2, rule)
        total += c1 * val.z1.real
    yield abs(total / 2.0 - f.norm_sq()) / f.norm_sq()

@_case("bargmann/basis-norm-transport", 1e-12, "basis vectors keep unit norm across the coefficient map")
def _(p):
    vec = HermiteCoeffVector.basis(5, p.sigma)
    F = sbt_forward(vec, p.nu)
    yield abs(_raw_norm_sq(F.coeffs, F.nu) - vec.norm_sq())


# --------------------------------------------------------------- transform


@_case("transform/hermite-action", 1e-8, "integral transform sends psi_n to its scaled monomial for n <= 10")
def _(p):
    rng = _rng(p)
    pts = [_rand_bc_bounded(rng, 2.0) for _ in range(4)]
    for n in range(11):
        coeff = _basis_scale(n, p.nu)
        for Z in pts:
            got = sbt_forward_integral(
                lambda x, n=n: psi_n(n, p.sigma, x), p.sigma, p.nu, Z, order=p.order
            )
            yield bc.norm(got - coeff * Z**n)

@_case("transform/isometry", 1e-10, "the coefficient map preserves the norm on degree <= 10 vectors")
def _(p):
    for coeffs in _rand_bcs(_rng(p), (50, 11)):
        f = HermiteCoeffVector(p.sigma, coeffs)
        yield abs(_raw_norm_sq(sbt_forward(f, p.nu).coeffs, p.nu) - f.norm_sq()) / f.norm_sq()

@_case("transform/integral-vs-coeff", 1e-8, "quadrature forward transform matches the diagonal coefficient map")
def _(p):
    rng = _rng(p)
    for _ in range(5):
        f = _rand_hermite_vec(rng, 10, p.sigma)
        F = sbt_forward(f, p.nu)
        for _ in range(3):
            Z = _rand_bc_bounded(rng, 2.0)
            got = sbt_forward_integral(f.evaluate, p.sigma, p.nu, Z, order=p.order)
            yield bc.norm(got - eval_monomial_series(F, Z))

@_case("transform/roundtrip-coeff", 1e-13, "inverse coefficient map undoes the forward map")
def _(p):
    for coeffs in _rand_bcs(_rng(p), (20, 13)):
        f = HermiteCoeffVector(p.sigma, coeffs)
        wire = sbt_forward(f, p.nu).to_json()  # the raw coefficients, as the CLI writes them
        back = sbt_inverse_coeff(MonomialCoeffVector.from_json(wire), p.sigma)
        yield float(np.max(bc.norm(back.coeffs - f.coeffs)))

@_case("transform/inverse-integral", 1e-7, "integral inverse returns psi_n from its monomial image")
def _(p):
    for n in range(7):
        coeff = _basis_scale(n, p.nu)
        for x in (0.0, 0.7, -0.7, 1.5, -1.5):
            got = sbt_inverse_integral(
                lambda Z, n=n, c=coeff: c * Z**n, p.sigma, p.nu, x
            )
            yield bc.norm(got - psi_n(n, p.sigma, x) * bc.ONE)

@_case("transform/inverse-split-vs-tensor", 1e-9, "channel-factorized inverse agrees with the literal ring integral")
def _(p):
    f = lambda Z: Z**2
    a = sbt_inverse_integral(f, p.sigma, p.nu, 0.5, order=16, method="split")
    b = sbt_inverse_integral(f, p.sigma, p.nu, 0.5, order=16, method="tensor")
    yield bc.norm(a - b)

@_case("transform/kernel-identity", 1e-13, "ring kernel factors through the generating function and matches its component form")
def _(p):
    rng = _rng(p)
    c0 = normalization_c(0, p.sigma)
    shift = math.sqrt(p.nu / (4.0 * p.sigma))
    for _ in range(10):
        x = float(rng.uniform(-2, 2))
        Z = _rand_bc_bounded(rng, 1.5)
        lhs = sbt_kernel_BC(p.sigma, p.nu, x, Z)
        yield _rel((c0 * math.exp(-p.sigma * x * x)) * generating_G(p.sigma, p.nu, x, conj_star(Z)), lhs)
        # c_0 exp(-sigma D**2), D = d1 + j d2, by (d1 + j d2)**2 = d1**2 - d2**2 + 2j d1 d2
        # and exp(q1 + j q2) = e^q1 (cos q2 + j sin q2): never split into channels
        d1, d2 = x - shift * Z.z1, -shift * Z.z2
        q1, q2 = -p.sigma * (d1 * d1 - d2 * d2), -p.sigma * (2.0 * d1 * d2)
        yield _rel(c0 * Bicomplex(np.exp(q1) * np.cos(q2), np.exp(q1) * np.sin(q2)), lhs)

@_case("transform/slice-monomials", 1e-8, "slice transform sends xi^n to Z^n (plus-sign exponent convention)")
def _(p):
    rng = _rng(p)
    pts = [_rand_bc_bounded(rng, 1.2) for _ in range(5)]
    for n in range(6):
        for Z in pts:
            got = s_transform(lambda xi, n=n: xi**n, p.nu, Z, order=p.order)
            yield bc.norm(got - Z**n)

@_case("transform/slice-norm-transport", 1e-10, "monomial norms agree between the plane and the ring")
def _(p):
    gamma = p.nu / 2.0
    rule = gauss_hermite(p.order, gamma)
    c1 = normalization_c(1, gamma)
    for n in range(6):
        plane = c1 * integrate_complex(lambda xi, n=n: np.abs(xi) ** (2 * n), rule).z1.real
        ring = MonomialCoeffVector.basis(n, p.nu).norm_sq()
        yield abs(plane - ring) / ring

@_case("transform/slice-surjectivity", 1e-7, "a holomorphic vector is recovered from its slice restriction")
def _(p):
    rng = _rng(p)
    for _ in range(3):
        f = _rand_monomial_vec(rng, 5, p.nu)

        def restriction(xi, f=f):
            return eval_monomial_series(f, Bicomplex(xi, np.zeros_like(xi)))

        for _ in range(5):
            Z = _rand_bc_bounded(rng, 1.2)
            got = s_transform(restriction, p.nu, Z, order=p.order)
            yield bc.norm(got - eval_monomial_series(f, Z))


# -------------------------------------------------------------------- frft


_DEFAULT_THETAS = (
    (math.pi / 3.0, math.pi / 5.0),
    (math.pi / 2.0, math.pi / 2.0),
    (2.0 * math.pi / 3.0, math.pi / 4.0),
    (0.9, 2.2),
)


def _thetas(p: _Params) -> list[ThetaParam]:
    if p.theta is not None:
        return [p.theta]
    return [ThetaParam.from_phases(a, b) for a, b in _DEFAULT_THETAS]


def _frft_order(p: _Params) -> int:
    # the folded integrand carries an oscillatory quadratic whose resolution
    # needs ~96 nodes; below that the integral path loses six digits
    return max(p.order, 96)

@_case("frft/eigenfunctions", 1e-8, "integral path scales psi_n by theta^n for n <= 8")
def _(p):
    for theta in _thetas(p):
        for n in range(9):
            expect_coeff = bc.pow(theta.theta, n)
            for y in (0.0, 0.6, -1.1):
                got = frft_apply(
                    lambda x, n=n: psi_n(n, p.sigma, x), theta, y, sigma=p.sigma, order=_frft_order(p)
                )
                yield bc.norm(got - expect_coeff * psi_n(n, p.sigma, y))

@_case("frft/plancherel", 1e-9, "unit-torus rotation preserves the norm on degree <= 8 vectors")
def _(p):
    thetas = _thetas(p)
    for theta, rows in zip(thetas, _rand_bcs(_rng(p), (len(thetas), 10, 9))):
        for coeffs in rows:
            f = HermiteCoeffVector(p.sigma, coeffs)
            g = frft_coefficients(f, theta)
            yield abs(g.norm_sq() - f.norm_sq()) / f.norm_sq()

@_case("frft/inversion", 1e-8, "integrating against the conjugate kernel undoes the rotation")
def _(p):
    # evaluating a quadrature approximation at another rule's far nodes
    # amplifies roundoff by exp(sigma y^2), so the inner rotation uses the
    # exact diagonal action and only the inverting factor is integrated
    rng = _rng(p)
    theta = _thetas(p)[0]
    for _ in range(3):
        f = _rand_hermite_vec(rng, 8, p.sigma)
        rotated = frft_coefficients(f, theta)
        for y in (0.0, 0.8, -1.2):
            got = frft_inverse(rotated.evaluate, theta, y, sigma=p.sigma, order=_frft_order(p))
            yield bc.norm(got - as_bicomplex(f.evaluate(y)))

@_case("frft/semigroup", 1e-7, "rotations compose multiplicatively in theta")
def _(p):
    # the companion rotation moves each channel phase of theta by a fixed
    # step towards pi/2 mod pi (the sign of sin(2 phase)), so the product
    # stays at least that step away from the excluded channel values +/-1
    theta = _thetas(p)[0]
    steps = ((0.35, theta.theta.alpha), (0.6, theta.theta.beta))
    rho = ThetaParam.from_phases(*(math.copysign(step, math.sin(2.0 * np.angle(v))) for step, v in steps))
    combined = ThetaParam(theta.theta * rho.theta)
    for n in range(5):
        vec = HermiteCoeffVector.basis(n, p.sigma)
        rotated = frft_coefficients(vec, rho)
        for y in (0.3, -0.9):
            lhs = frft_apply(rotated.evaluate, theta, y, sigma=p.sigma, order=_frft_order(p))
            rhs = frft_apply(vec.evaluate, combined, y, sigma=p.sigma, order=_frft_order(p))
            yield bc.norm(lhs - rhs)

@_case("frft/factorization", 1e-7, "rotation = inverse transform of the theta-dilated forward transform")
def _(p):
    rng = _rng(p)
    thetas = _thetas(p)
    theta = thetas[1] if len(thetas) > 1 else thetas[0]
    for _ in range(3):
        f = _rand_hermite_vec(rng, 6, p.sigma)
        F = sbt_forward(f, p.nu)
        n = np.arange(F.degree + 1)
        theta_n = Bicomplex.from_channels(theta.theta.alpha ** n, theta.theta.beta ** n)
        dilated = MonomialCoeffVector(p.nu, theta_n * F.coeffs)
        for x in (0.0, 0.7, -0.7):
            lhs = frft_apply(f.evaluate, theta, x, sigma=p.sigma, order=_frft_order(p))
            rhs = sbt_inverse_integral(
                lambda Z, d=dilated: eval_monomial_series(d, Z), p.sigma, p.nu, x
            )
            yield bc.norm(lhs - rhs)

@_case("frft/coeff-vs-integral", 1e-8, "diagonal coefficient path agrees with the kernel quadrature")
def _(p):
    rng = _rng(p)
    for theta in _thetas(p)[:2]:
        f = _rand_hermite_vec(rng, 8, p.sigma)
        for y in (0.0, 0.5, -1.0):
            fast = frft_apply(f, theta, y)
            slow = frft_apply(f.evaluate, theta, y, sigma=p.sigma, order=_frft_order(p))
            yield bc.norm(fast - slow)

@_case("frft/fourier-reduction", 1e-9, "unit-phase i rotation reproduces the classical eigenvalue ladder i^n")
def _(p):
    theta = ThetaParam.from_phases(math.pi / 2.0, math.pi / 2.0)
    for n in range(7):
        for y in (0.0, 0.4, -1.3):
            got = frft_apply(lambda x, n=n: psi_n(n, 1.0, x), theta, y, sigma=1.0, order=_frft_order(p))
            yield bc.norm(got - (1j**n) * psi_n(n, 1.0, y) * bc.ONE)
    x0, y0 = 0.3, -0.8
    kern = frft_kernel(1.0, theta, x0, y0)
    classic = (
        np.exp(0.5 * y0**2 - 0.5 * x0**2 + 1j * x0 * y0) / math.sqrt(2.0 * math.pi)
    )
    yield bc.norm(kern - as_bicomplex(classic))

@_case("frft/excluded-parameters", 0.0, "theta values touching the excluded set are rejected")
def _(p):
    for ctor in (
        lambda: ThetaParam.from_phases(0.0, 1.0),
        lambda: ThetaParam.from_phases(math.pi, 1.0),
        lambda: ThetaParam(Bicomplex.from_reals(1.0, 0.0, 0.0, 0.0)),
        lambda: ThetaParam(bc.IJ),
        lambda: ThetaParam.interior(Bicomplex.from_reals(1.2, 0, 0, 0)),
    ):
        yield _rejects(ExcludedParameterError, ctor)

@_case("frft/kernel-decay-rate", 1e-13, "kernel decay rate is exactly sigma/2 per channel on the torus")
def _(p):
    for theta in _thetas(p):
        pd = bc.ONE - theta.theta * theta.theta
        S = p.sigma * bc.inverse(pd)
        pair = bc.to_idempotent(S)
        yield abs(pair.alpha.real - p.sigma / 2.0)
        yield abs(pair.beta.real - p.sigma / 2.0)

@_case("frft/gaussian-closed", 1e-10, "closed planar Gaussian integral matches quadrature; domain guarded")
def _(p):
    rng = _rng(p)
    rule = gauss_hermite(p.order, 1.0)
    for _ in range(10):
        a = complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15))
        b = complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15))
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        d = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        closed = gaussian_integral_closed(1.0, a, b, c, d)
        quad = integrate_complex(
            lambda z: np.exp(a * z * z + b * np.conjugate(z) ** 2 + c * z + d * np.conjugate(z)), rule
        )
        yield abs(complex(quad.z1) - closed) / abs(closed)
    yield _rejects(DomainError, lambda: gaussian_integral_closed(1.0, 0.6, 0.5, 0.0, 0.0))


# ------------------------------------------------------------------ mehler


# channel moduli stay <= 0.6 so the 60-term series tail clears 1e-10
_INTERIOR_THETAS = (
    as_bicomplex(0.5),
    as_bicomplex(0.55 * np.exp(1j * math.pi / 5.0)),
    Bicomplex.from_channels(0.6 * np.exp(1j * math.pi / 5.0), 0.5),
    Bicomplex.from_channels(0.3 + 0.2j, -0.5),
    Bicomplex.from_channels(0.5, 0.0),
    Bicomplex.from_channels(-0.25 + 0.35j, 0.55j),
)

@_case("mehler/closed-vs-series", 1e-10, "closed kernel matches the 60-term series on interior parameters")
def _(p):
    # each theta's 5 x 5 point grid in one call per side (np.max keeps a NaN)
    grid = np.linspace(-1.5, 1.5, 5)
    x, y = grid[:, None], grid[None, :]
    for theta in _INTERIOR_THETAS:
        closed = mehler_closed(p.sigma, theta, x, y)
        series = mehler_series(p.sigma, theta, x, y, n_terms=60)
        yield float(np.max(bc.norm(closed - series)))

@_case("mehler/bilinear", 1e-9, "bicomplex-argument kernel matches its series")
def _(p):
    # Hermite values at complex channel arguments grow like
    # exp(sqrt(2 n) |Im|), so the ring argument stays small for the
    # 60-term tail to clear the tolerance
    rng = _rng(p)
    y = np.array([-0.8, 0.3, 1.1])
    for theta in _INTERIOR_THETAS[:4]:
        Z = _rand_bc_bounded(rng, 0.5)
        closed = mehler_bilinear_bc(p.sigma, theta, Z, y)
        series = mehler_bilinear_series(p.sigma, theta, Z, y, n_terms=60)
        yield float(np.max(bc.norm(closed - series)))

@_case("mehler/torus-kernel-relation", 1e-12, "rotation kernel = c_0 exp(-sigma x^2) times the closed Mehler sum")
def _(p):
    c0 = normalization_c(0, p.sigma)
    for theta in _thetas(p):
        for x, y in ((0.3, -0.8), (1.1, 0.4)):
            lhs = frft_kernel(p.sigma, theta, x, y)
            yield _rel((c0 * math.exp(-p.sigma * x * x)) * mehler_closed(p.sigma, theta.theta, x, y), lhs)

@_case("mehler/ck-restriction", 1e-12, "extended kernel restricts to the rotation kernel and factors through the bilinear sum")
def _(p):
    rng = _rng(p)
    c0 = normalization_c(0, p.sigma)
    for theta in _thetas(p):
        for _ in range(3):
            x = float(rng.uniform(-1.5, 1.5))
            y = float(rng.uniform(-1.5, 1.5))
            lhs = ck_frft_kernel(p.sigma, theta, x, as_bicomplex(y))
            yield bc.norm(lhs - frft_kernel(p.sigma, theta, x, y))
            Z = _rand_bc_bounded(rng, 1.2)
            full = ck_frft_kernel(p.sigma, theta, x, Z)
            via_mehler = (c0 * math.exp(-p.sigma * x * x)) * mehler_bilinear_bc(
                p.sigma, theta.theta, Z, x
            )
            yield _rel(via_mehler, full)


# ------------------------------------------------------------------ runner


SUITE_NAMES = tuple(dict.fromkeys(c.id.split("/")[0] for c in _CASES)) + ("all",)


def _run_case(case: _Case, params: _Params) -> CaseResult:
    start = time.perf_counter()
    desc, raised = case.desc, False
    try:
        error = float(_worst(0.0, *case.errors(params)))
    except Exception as err:
        desc, error, raised = f"{case.desc} [raised {type(err).__name__}: {err}]", math.inf, True
    ms = (time.perf_counter() - start) * 1000.0
    return CaseResult(case.id, desc, error, case.tol, bool(error <= case.tol), round(ms, 3), raised)


def run_suite(
    suite: str,
    *,
    sigma: float = 1.0,
    nu: float = 2.0,
    order: int = 64,
    seed: int = 20240817,
    theta: ThetaParam | None = None,
) -> VerificationReport:
    """Run one named suite (or "all") and return its report.  Before any case
    runs, a sigma or nu that is not positive and finite, an order that is not
    an int >= 1 or a seed that is not an int >= 0 raises DomainError."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    # a numpy number becomes a Python float or int, which the cases compute in
    # double precision and the report can encode
    sigma, nu = _require_positive("sigma", sigma), _require_positive("nu", nu)
    order, seed = _require_int("order", order, 1), _require_int("seed", seed, 0)
    params = _Params(sigma=sigma, nu=nu, order=order, seed=seed, theta=theta)
    results = [_run_case(c, params) for c in _CASES if suite == "all" or c.id.startswith(suite + "/")]
    report_params = {"sigma": sigma, "nu": nu, "order": order, "seed": seed}
    if theta is not None:
        report_params["theta"] = theta.theta.to_json()
        report_params["theta_mode"] = theta.mode
    return VerificationReport(suite=suite, params=report_params, cases=results)
