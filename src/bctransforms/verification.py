"""Numerical verification suites and their report types.

Each suite is a list of cases; a case computes a scalar error that must stay
below its tolerance.  Errors are measured in the Euclidean bicomplex norm
(or in ulps where noted).  Reports serialize to JSON and CSV; with a fixed
seed the content is reproducible run to run, apart from the wall-time
field.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bicomplex as bc
from .bargmann import (
    HermiteCoeffVector,
    MonomialCoeffVector,
    eval_monomial_series,
    inner_H2nu,
    inner_L2sigma,
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
    sbt_kernel_C,
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

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "desc": self.desc,
            "error": self.error,
            "tol": self.tol,
            "pass": self.passed,
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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "desc", "error", "tol", "pass", "ms"])
        for c in self.cases:
            writer.writerow([c.id, c.desc, repr(c.error), repr(c.tol), c.passed, c.ms])
        return buf.getvalue()

    def write(self, json_path) -> None:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
        csv_path = str(json_path)
        csv_path = csv_path[: -len(".json")] + ".csv" if csv_path.endswith(".json") else csv_path + ".csv"
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


@dataclass(frozen=True)
class _Case:
    id: str
    desc: str
    tol: float
    fn: Callable[[], float]


@dataclass(frozen=True)
class _Params:
    sigma: float = 1.0
    nu: float = 2.0
    order: int = 64
    seed: int = 20240817
    theta: ThetaParam | None = None


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


def _rand_hermite_vec(rng: np.random.Generator, degree: int, sigma: float) -> HermiteCoeffVector:
    return HermiteCoeffVector(
        sigma=sigma, coeffs=tuple(_rand_bc(rng) for _ in range(degree + 1))
    )


def _rand_monomial_vec(rng: np.random.Generator, degree: int, nu: float) -> MonomialCoeffVector:
    return MonomialCoeffVector(
        nu=nu, coeffs=tuple(_rand_bc(rng) for _ in range(degree + 1))
    )


def _scalar_part(Z: Bicomplex) -> float:
    return Z.z1.real


# ---------------------------------------------------------------- algebra


def _suite_algebra(p: _Params) -> list[_Case]:
    cases: list[_Case] = []

    def idempotent_identities() -> float:
        ep, em = bc.E_PLUS, bc.E_MINUS
        return max(
            bc.norm(ep * ep - ep),
            bc.norm(em * em - em),
            bc.norm(ep * em),
            bc.norm(ep + em - bc.ONE),
            bc.norm(ep - em - bc.IJ),
        )

    cases.append(_Case("algebra/idempotent-identities", "e+, e- satisfy the five splitting identities exactly", 0.0, idempotent_identities))

    def roundtrip() -> float:
        # the channel map mixes (x1, y2) and (y1, x2) in 2x2 rotations, so the
        # recoverable precision of each field is set by its mixing partner;
        # ulps are measured at that pair scale
        rng = _rng(p)
        worst = 0.0
        for _ in range(10_000):
            Z = _rand_bc(rng, 10.0 ** rng.uniform(-3, 3))
            W = bc.from_idempotent(bc.to_idempotent(Z))
            scale_a = math.ulp(max(abs(Z.x1), abs(Z.y2))) or math.ulp(0.0)
            scale_b = math.ulp(max(abs(Z.y1), abs(Z.x2))) or math.ulp(0.0)
            worst = max(
                worst,
                abs(Z.x1 - W.x1) / scale_a,
                abs(Z.y2 - W.y2) / scale_a,
                abs(Z.y1 - W.y1) / scale_b,
                abs(Z.x2 - W.x2) / scale_b,
            )
        return worst

    cases.append(_Case("algebra/idempotent-roundtrip", "to/from idempotent reproduces all four fields to a few ulp at pair scale", 4.0, roundtrip))

    def conjugations() -> float:
        rng = _rng(p)
        worst = 0.0
        for _ in range(200):
            Z, W = _rand_bc(rng), _rand_bc(rng)
            for conj in (bc.conj_dagger, bc.conj_tilde, bc.conj_star):
                worst = max(worst, bc.norm(conj(conj(Z)) - Z))
                worst = max(worst, bc.norm(conj(Z * W) - conj(Z) * conj(W)))
        return worst

    cases.append(_Case("algebra/conjugations", "all three conjugations are multiplicative involutions", 0.0, conjugations))

    def mul_channelwise() -> float:
        rng = _rng(p)
        worst = 0.0
        for _ in range(200):
            Z, W = _rand_bc(rng), _rand_bc(rng)
            pair = bc.to_idempotent(Z) * bc.to_idempotent(W)
            worst = max(worst, bc.norm(Z * W - pair.to_bicomplex()))
        return worst

    cases.append(_Case("algebra/mul-channelwise", "product agrees with channelwise product of the decompositions", 0.0, mul_channelwise))

    def norm_identity() -> float:
        rng = _rng(p)
        worst = 0.0
        for _ in range(500):
            Z = _rand_bc(rng, 10.0 ** rng.uniform(-2, 2))
            pair = bc.to_idempotent(Z)
            lhs = bc.norm(Z) ** 2
            rhs = (abs(pair.alpha) ** 2 + abs(pair.beta) ** 2) / 2.0
            worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-300))
            worst = max(worst, abs(_scalar_part(bc_inner(Z, Z)) - lhs) / max(lhs, 1e-300))
        return worst

    cases.append(_Case("algebra/norm-identity", "norm^2 = (|alpha|^2+|beta|^2)/2 = scalar part of <Z,Z>", 1e-14, norm_identity))

    def schwarz() -> float:
        rng = _rng(p)
        worst = 0.0
        for _ in range(300):
            f = _rand_hermite_vec(rng, int(rng.integers(0, 8)), p.sigma)
            g = _rand_hermite_vec(rng, int(rng.integers(0, 8)), p.sigma)
            lhs = bc.norm(inner_L2sigma(f, g))
            rhs = math.sqrt(2.0 * f.norm_sq() * g.norm_sq())
            worst = max(worst, (lhs - rhs) / max(rhs, 1e-300))
        return max(worst, 0.0)

    cases.append(_Case("algebra/schwarz", "generalized Schwarz bound |<f,g>| <= sqrt(2) ||f|| ||g||", 1e-12, schwarz))

    def inverse_and_null() -> float:
        rng = _rng(p)
        worst = 0.0
        for _ in range(200):
            Z = _rand_bc(rng)
            if Z.is_null(1e-6):
                continue
            worst = max(worst, bc.norm(Z * bc.inverse(Z) - bc.ONE))
        try:
            bc.inverse(bc.E_PLUS)
            return math.inf
        except NullConeError:
            pass
        if not bc.is_null_cone(bc.E_PLUS) or bc.is_null_cone(bc.ONE):
            return math.inf
        return worst

    cases.append(_Case("algebra/inverse", "Z * Z^-1 = 1 off the null cone; zero divisors are rejected", 1e-12, inverse_and_null))

    def exp_pow_sqrt() -> float:
        rng = _rng(p)
        worst = 0.0
        for _ in range(200):
            Z, W = _rand_bc(rng, 0.8), _rand_bc(rng, 0.8)
            lhs = bc.exp(Z + W)
            rhs = bc.exp(Z) * bc.exp(W)
            worst = max(worst, bc.norm(lhs - rhs) / max(bc.norm(rhs), 1e-300))
            worst = max(worst, bc.norm(bc.pow(Z, 5) - Z * Z * Z * Z * Z) / max(bc.norm(Z) ** 5, 1e-300))
            Q = bc.ONE + _rand_bc(rng, 0.3)
            R = bc.sqrt_principal(Q)
            worst = max(worst, bc.norm(R * R - Q) / max(bc.norm(Q), 1e-300))
        try:
            bc.sqrt_principal(Bicomplex(-1.0 + 0j, 0j))
            return math.inf
        except BranchCutError:
            pass
        return worst

    cases.append(_Case("algebra/exp-pow-sqrt", "exp is additive, pow matches repeated product, sqrt squares back; branch cut rejected", 1e-12, exp_pow_sqrt))

    return cases


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


def _suite_hermite(p: _Params) -> list[_Case]:
    cases: list[_Case] = []
    sigma, nu = p.sigma, p.nu

    def recurrence_explicit() -> float:
        worst = 0.0
        for s in (sigma, 0.5, 2.0):
            for x in np.linspace(-2.0, 2.0, 9):
                for n, ref in enumerate(_EXPLICIT_H):
                    val = hermite_sigma(n, s, float(x))
                    expect = ref(s, float(x))
                    worst = max(worst, abs(val - expect) / max(abs(expect), 1.0))
        return worst

    cases.append(_Case("hermite/recurrence-vs-explicit", "recurrence matches the expanded derivative polynomials for n <= 6", 1e-12, recurrence_explicit))

    def orthonormality() -> float:
        rule = gauss_hermite(p.order, sigma)
        c0 = normalization_c(0, sigma)
        worst = 0.0
        for m in range(13):
            for n in range(m, 13):
                val = c0 * float(
                    np.sum(rule.weights * psi_n(m, sigma, rule.nodes) * psi_n(n, sigma, rule.nodes))
                )
                worst = max(worst, abs(val - (1.0 if m == n else 0.0)))
        return worst

    cases.append(_Case("hermite/orthonormality", "psi_m, psi_n orthonormal under the weighted pairing for m, n <= 12", 1e-10, orthonormality))

    def norm_formula() -> float:
        rule = gauss_hermite(p.order, sigma)
        c0 = normalization_c(0, sigma)
        worst = 0.0
        for n in range(11):
            quad = c0 * float(np.sum(rule.weights * hermite_sigma(n, sigma, rule.nodes) ** 2))
            worst = max(worst, abs(quad - hermite_norm_sq(n, sigma)) / hermite_norm_sq(n, sigma))
        return worst

    cases.append(_Case("hermite/norm-formula", "quadrature norm of H_n matches 2^n sigma^n n!", 1e-12, norm_formula))

    def generating_closed() -> float:
        rng = _rng(p)
        worst = 0.0
        for _ in range(5):
            x = float(rng.uniform(-1.5, 1.5))
            Z = _rand_bc_bounded(rng, 1.0)
            closed = generating_G(sigma, nu, x, Z)
            series = generating_series(sigma, nu, x, Z, n_terms=60)
            worst = max(worst, bc.norm(closed - series))
        return worst

    cases.append(_Case("hermite/generating-closed-vs-series", "closed generating form matches its 60-term series", 1e-10, generating_closed))

    def generating_pairing() -> float:
        rng = _rng(p)
        rule = gauss_hermite(p.order, sigma)
        c0 = normalization_c(0, sigma)
        worst = 0.0
        for _ in range(5):
            Z = _rand_bc_bounded(rng, 1.2)
            W = _rand_bc_bounded(rng, 1.2)
            Gz = generating_G(sigma, nu, rule.nodes, conj_star(Z))
            Gw = generating_G(sigma, nu, rule.nodes, conj_star(W))
            val = c0 * Bicomplex(
                complex(np.sum(rule.weights * (Gz * conj_star(Gw)).z1)),
                complex(np.sum(rule.weights * (Gz * conj_star(Gw)).z2)),
            )
            worst = max(worst, bc.norm(val - kernel_K_BC(nu, Z, W)))
        return worst

    cases.append(_Case("hermite/generating-pairing", "pairing of G(.;Z*) with G(.;W*) reproduces the kernel at (Z, W)", 1e-8, generating_pairing))

    return cases


# -------------------------------------------------------------- quadrature


def _suite_quadrature(p: _Params) -> list[_Case]:
    cases: list[_Case] = []
    nu = p.nu

    def mass() -> float:
        worst = 0.0
        for order in (1, 2, 33, 64, 81, 128):
            for gamma in (1.0, 2.5):
                rule = gauss_hermite(order, gamma)
                expect = math.sqrt(math.pi / gamma)
                worst = max(worst, abs(float(np.sum(rule.weights)) - expect) / expect)
        return worst

    cases.append(_Case("quadrature/gaussian-mass", "weights sum to sqrt(pi/gamma) across orders", 1e-13, mass))

    def moments() -> float:
        rule = gauss_hermite(p.order, 2.0)
        worst = 0.0
        expect = math.sqrt(math.pi / 2.0)
        for k in range(1, 11):
            expect *= (2 * k - 1) / 4.0  # recursion for the (2k)-th moment at gamma = 2
            got = float(np.sum(rule.weights * rule.nodes ** (2 * k)))
            worst = max(worst, abs(got - expect) / expect)
        return worst

    cases.append(_Case("quadrature/even-moments", "even moments up to degree 20 are exact", 1e-13, moments))

    def odd_symmetry() -> float:
        rule = gauss_hermite(p.order, 1.0)
        return abs(float(np.sum(rule.weights * rule.nodes**3)))

    cases.append(_Case("quadrature/odd-symmetry", "odd integrands vanish on the symmetrized rule", 1e-15, odd_symmetry))

    def complex_moment() -> float:
        gamma = nu / 2.0
        alpha = 0.4 + 0.1j
        rule = gauss_hermite(p.order, gamma)
        val = integrate_complex(
            lambda xi: xi**2 * np.exp(gamma * alpha * np.conjugate(xi)),
            rule,
            vectorized=True,
        )
        expect = math.pi / gamma * alpha**2
        return abs(complex(val.z1) - expect) / abs(expect)

    cases.append(_Case("quadrature/complex-moment", "planar moment integral matches (pi/gamma) alpha^n", 1e-12, complex_moment))

    def bc_mass() -> float:
        rule = gauss_hermite(12, nu / 2.0)
        val = integrate_bicomplex(lambda Z: bc.ONE, nu, rule, vectorized=True)
        got = normalization_c("BC", nu) * val
        return bc.norm(got - bc.ONE)

    cases.append(_Case("quadrature/bicomplex-mass", "normalized bicomplex Gaussian has unit mass", 1e-12, bc_mass))

    def scaling() -> float:
        base = gauss_hermite(p.order, 1.0)
        scaled = gauss_hermite(p.order, 2.5)
        root = math.sqrt(2.5)
        err_n = float(np.max(np.abs(scaled.nodes - base.nodes / root)))
        err_w = float(np.max(np.abs(scaled.weights - base.weights / root)))
        return max(err_n, err_w)

    cases.append(_Case("quadrature/scaling-covariance", "rules at different gamma are exact rescalings of the unit rule", 0.0, scaling))

    def nonfinite() -> float:
        rule = gauss_hermite(8, 1.0)
        try:
            integrate_real(lambda x: float("inf"), rule)
            return math.inf
        except NonFiniteError:
            return 0.0

    cases.append(_Case("quadrature/nonfinite-raises", "non-finite integrand values are rejected", 0.0, nonfinite))

    return cases


# ---------------------------------------------------------------- bargmann


def _suite_bargmann(p: _Params) -> list[_Case]:
    cases: list[_Case] = []
    sigma, nu = p.sigma, p.nu

    def monomial_orthogonality() -> float:
        worst = 0.0
        for n in range(7):
            for m in range(n, 7):
                val = inner_H2nu(
                    lambda Z, n=n: Z**n,
                    lambda Z, m=m: Z**m,
                    nu,
                    order=20,
                    vectorized=True,
                )
                expect = monomial_norm_sq(n, nu) if m == n else 0.0
                scale = math.sqrt(monomial_norm_sq(n, nu) * monomial_norm_sq(m, nu))
                worst = max(worst, bc.norm(val - expect * bc.ONE) / scale)
        return worst

    cases.append(_Case("bargmann/monomial-orthogonality", "<Z^n, Z^m> = delta 2^n n!/nu^n under the ring quadrature", 1e-8, monomial_orthogonality))

    def reproducing() -> float:
        rng = _rng(p)
        worst = 0.0
        pts = [_rand_bc_bounded(rng, 1.5) for _ in range(5)]
        for n in range(7):
            for Z in pts:
                got = project_P(lambda W, n=n: W**n, nu, Z, order=24, vectorized=True)
                worst = max(worst, bc.norm(got - Z**n))
        return worst

    cases.append(_Case("bargmann/reproducing", "projection reproduces monomials at random interior points", 1e-8, reproducing))

    def annihilates() -> float:
        rng = _rng(p)
        Z = _rand_bc_bounded(rng, 1.0)
        got = project_P(lambda W: conj_star(W), nu, Z, order=20, vectorized=True)
        return bc.norm(got)

    cases.append(_Case("bargmann/annihilates-antiholomorphic", "projection kills the conjugate coordinate", 1e-10, annihilates))

    def kernel_symmetry() -> float:
        rng = _rng(p)
        worst = 0.0
        for _ in range(50):
            Z, W = _rand_bc(rng), _rand_bc(rng)
            worst = max(
                worst,
                bc.norm(kernel_K_BC(nu, Z, W) - conj_star(kernel_K_BC(nu, W, Z)))
                / max(bc.norm(kernel_K_BC(nu, Z, W)), 1e-300),
            )
        return worst

    cases.append(_Case("bargmann/kernel-symmetry", "K(Z,W) equals the star conjugate of K(W,Z)", 1e-14, kernel_symmetry))

    def kernel_expansion() -> float:
        rng = _rng(p)
        worst = 0.0
        for _ in range(5):
            Z = _rand_bc_bounded(rng, 1.5)
            W = _rand_bc_bounded(rng, 1.5)
            acc = Bicomplex(0j, 0j)
            for n in range(41):
                phiZ = math.sqrt(nu**n / (2.0**n * math.factorial(n))) * Z**n
                phiW = math.sqrt(nu**n / (2.0**n * math.factorial(n))) * W**n
                acc = acc + phiZ * conj_star(phiW)
            worst = max(worst, bc.norm(acc - kernel_K_BC(nu, Z, W)))
        return worst

    cases.append(_Case("bargmann/kernel-expansion", "40-term basis expansion of the kernel matches the closed form", 1e-10, kernel_expansion))

    def pointwise_bound() -> float:
        rng = _rng(p)
        worst = 0.0
        for _ in range(100):
            f = _rand_monomial_vec(rng, int(rng.integers(0, 7)), nu)
            Z = _rand_bc_bounded(rng, 1.5)
            lhs = bc.norm(eval_monomial_series(f, Z))
            growth = bc.norm(bc.exp((0.25 * nu) * (Z * conj_star(Z))))
            rhs = math.sqrt(2.0) * growth * math.sqrt(f.norm_sq())
            worst = max(worst, (lhs - rhs) / max(rhs, 1e-300))
        return max(worst, 0.0)

    cases.append(_Case("bargmann/pointwise-bound", "|f(Z)| <= sqrt(2) |exp(nu/4 Z Z*)| ||f||", 1e-12, pointwise_bound))

    def parseval() -> float:
        rng = _rng(p)
        worst = 0.0
        for _ in range(3):
            f = _rand_monomial_vec(rng, 4, nu)
            coeff = f.norm_sq()
            quad = inner_H2nu(f.evaluate, f.evaluate, nu, order=20, vectorized=True)
            worst = max(worst, abs(_scalar_part(quad) - coeff) / coeff)
        return worst

    cases.append(_Case("bargmann/parseval", "coefficient norm matches the ring quadrature norm", 1e-10, parseval))

    def split_norm() -> float:
        rng = _rng(p)
        f = _rand_monomial_vec(rng, 5, nu)
        gamma = nu / 2.0
        rule = gauss_hermite(p.order, gamma)
        c1 = normalization_c(1, gamma)
        total = 0.0
        for channel in ("alpha", "beta"):
            coeffs = [getattr(c, channel) for c in f.coeffs]

            def poly(xi, coeffs=coeffs):
                acc = coeffs[-1] + 0 * xi
                for c in coeffs[-2::-1]:
                    acc = acc * xi + c
                return acc

            val = integrate_complex(
                lambda xi: np.abs(poly(xi)) ** 2, rule, vectorized=True
            )
            total += c1 * val.z1.real
        return abs(total / 2.0 - f.norm_sq()) / f.norm_sq()

    cases.append(_Case("bargmann/split-norm", "norm^2 is the mean of the two channel space norms", 1e-10, split_norm))

    def monomial_vs_hermite_norm(n: int = 5) -> float:
        # consistency of the two stored-norm conventions under the basis map
        vec = HermiteCoeffVector.basis(n, sigma)
        mapped = sbt_forward(vec, nu)
        return abs(mapped.norm_sq() - vec.norm_sq())

    cases.append(_Case("bargmann/basis-norm-transport", "basis vectors keep unit norm across the coefficient map", 1e-12, monomial_vs_hermite_norm))

    return cases


# --------------------------------------------------------------- transform


def _suite_transform(p: _Params) -> list[_Case]:
    cases: list[_Case] = []
    sigma, nu = p.sigma, p.nu

    def hermite_action() -> float:
        rng = _rng(p)
        pts = [_rand_bc_bounded(rng, 2.0) for _ in range(4)]
        worst = 0.0
        for n in range(11):
            coeff = math.sqrt(nu**n / (2.0**n * math.factorial(n)))
            for Z in pts:
                got = sbt_forward_integral(
                    lambda x, n=n: psi_n(n, sigma, x), sigma, nu, Z, order=p.order
                )
                worst = max(worst, bc.norm(got - coeff * Z**n))
        return worst

    cases.append(_Case("transform/hermite-action", "integral transform sends psi_n to its scaled monomial for n <= 10", 1e-8, hermite_action))

    def isometry_coeff() -> float:
        rng = _rng(p)
        worst = 0.0
        for _ in range(50):
            f = _rand_hermite_vec(rng, 10, sigma)
            worst = max(worst, abs(sbt_forward(f, nu).norm_sq() - f.norm_sq()) / f.norm_sq())
        return worst

    cases.append(_Case("transform/isometry", "the coefficient map preserves the norm on degree <= 10 vectors", 1e-10, isometry_coeff))

    def integral_vs_coeff() -> float:
        rng = _rng(p)
        worst = 0.0
        for _ in range(5):
            f = _rand_hermite_vec(rng, 10, sigma)
            F = sbt_forward(f, nu)
            for _ in range(3):
                Z = _rand_bc_bounded(rng, 2.0)
                got = sbt_forward_integral(f.evaluate, sigma, nu, Z, order=p.order)
                worst = max(worst, bc.norm(got - eval_monomial_series(F, Z)))
        return worst

    cases.append(_Case("transform/integral-vs-coeff", "quadrature forward transform matches the diagonal coefficient map", 1e-8, integral_vs_coeff))

    def roundtrip_coeff() -> float:
        rng = _rng(p)
        worst = 0.0
        for _ in range(20):
            f = _rand_hermite_vec(rng, 12, sigma)
            back = sbt_inverse_coeff(sbt_forward(f, nu), sigma)
            worst = max(
                worst,
                max(bc.norm(a - b) for a, b in zip(back.coeffs, f.coeffs)),
            )
        return worst

    cases.append(_Case("transform/roundtrip-coeff", "inverse coefficient map undoes the forward map", 1e-13, roundtrip_coeff))

    def inverse_integral() -> float:
        worst = 0.0
        for n in range(7):
            coeff = math.sqrt(nu**n / (2.0**n * math.factorial(n)))
            for x in (0.0, 0.7, -0.7, 1.5, -1.5):
                got = sbt_inverse_integral(
                    lambda Z, n=n, c=coeff: c * Z**n, sigma, nu, x
                )
                worst = max(worst, bc.norm(got - psi_n(n, sigma, x) * bc.ONE))
        return worst

    cases.append(_Case("transform/inverse-integral", "integral inverse returns psi_n from its monomial image", 1e-7, inverse_integral))

    def split_vs_tensor() -> float:
        f = lambda Z: Z**2
        a = sbt_inverse_integral(f, sigma, nu, 0.5, order=16, method="split")
        b = sbt_inverse_integral(f, sigma, nu, 0.5, order=16, method="tensor")
        return bc.norm(a - b)

    cases.append(_Case("transform/inverse-split-vs-tensor", "channel-factorized inverse agrees with the literal ring integral", 1e-9, split_vs_tensor))

    def kernel_identity() -> float:
        rng = _rng(p)
        worst = 0.0
        c0 = normalization_c(0, sigma)
        for _ in range(10):
            x = float(rng.uniform(-2, 2))
            Z = _rand_bc_bounded(rng, 1.5)
            lhs = sbt_kernel_BC(sigma, nu, x, Z)
            rhs = (c0 * math.exp(-sigma * x * x)) * generating_G(sigma, nu, x, conj_star(Z))
            worst = max(worst, bc.norm(lhs - rhs) / max(bc.norm(lhs), 1e-300))
            pair = bc.to_idempotent(Z)
            split = Bicomplex.from_channels(
                sbt_kernel_C(sigma, nu / 2.0, x, pair.alpha),
                sbt_kernel_C(sigma, nu / 2.0, x, pair.beta),
            )
            worst = max(worst, bc.norm(lhs - split) / max(bc.norm(lhs), 1e-300))
        return worst

    cases.append(_Case("transform/kernel-identity", "ring kernel factors through the generating function and the channel kernels", 1e-13, kernel_identity))

    def s_monomials() -> float:
        rng = _rng(p)
        pts = [_rand_bc_bounded(rng, 1.2) for _ in range(5)]
        worst = 0.0
        for n in range(6):
            for Z in pts:
                got = s_transform(lambda xi, n=n: xi**n, nu, Z, order=p.order)
                worst = max(worst, bc.norm(got - Z**n))
        return worst

    cases.append(_Case("transform/slice-monomials", "slice transform sends xi^n to Z^n (plus-sign exponent convention)", 1e-8, s_monomials))

    def s_norm_transport() -> float:
        gamma = nu / 2.0
        rule = gauss_hermite(p.order, gamma)
        c1 = normalization_c(1, gamma)
        worst = 0.0
        for n in range(6):
            plane = c1 * integrate_complex(
                lambda xi, n=n: np.abs(xi) ** (2 * n), rule, vectorized=True
            ).z1.real
            ring = MonomialCoeffVector.basis(n, nu).norm_sq()
            worst = max(worst, abs(plane - ring) / ring)
        return worst

    cases.append(_Case("transform/slice-norm-transport", "monomial norms agree between the plane and the ring", 1e-10, s_norm_transport))

    def surjectivity_witness() -> float:
        rng = _rng(p)
        worst = 0.0
        for _ in range(3):
            f = _rand_monomial_vec(rng, 5, nu)

            def restriction(xi, f=f):
                return eval_monomial_series(f, Bicomplex(xi, np.zeros_like(xi)))

            for _ in range(5):
                Z = _rand_bc_bounded(rng, 1.2)
                got = s_transform(restriction, nu, Z, order=p.order)
                worst = max(worst, bc.norm(got - eval_monomial_series(f, Z)))
        return worst

    cases.append(_Case("transform/slice-surjectivity", "a holomorphic vector is recovered from its slice restriction", 1e-7, surjectivity_witness))

    return cases


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


def _suite_frft(p: _Params) -> list[_Case]:
    cases: list[_Case] = []
    sigma = p.sigma
    thetas = _thetas(p)
    # the folded integrand carries an oscillatory quadratic whose resolution
    # needs ~96 nodes; below that the integral path loses six digits
    order = max(p.order, 96)

    def eigenfunctions() -> float:
        worst = 0.0
        ys = (0.0, 0.6, -1.1)
        for theta in thetas:
            for n in range(9):
                expect_coeff = bc.pow(theta.theta, n)
                for y in ys:
                    got = frft_apply(
                        lambda x, n=n: psi_n(n, sigma, x), theta, y, sigma=sigma, order=order
                    )
                    worst = max(worst, bc.norm(got - expect_coeff * psi_n(n, sigma, y)))
        return worst

    cases.append(_Case("frft/eigenfunctions", "integral path scales psi_n by theta^n for n <= 8", 1e-8, eigenfunctions))

    def plancherel() -> float:
        rng = _rng(p)
        worst = 0.0
        for theta in thetas:
            for _ in range(10):
                f = _rand_hermite_vec(rng, 8, sigma)
                g = frft_coefficients(f, theta)
                worst = max(worst, abs(g.norm_sq() - f.norm_sq()) / f.norm_sq())
        return worst

    cases.append(_Case("frft/plancherel", "unit-torus rotation preserves the norm on degree <= 8 vectors", 1e-9, plancherel))

    def inversion() -> float:
        # evaluating a quadrature approximation at another rule's far nodes
        # amplifies roundoff by exp(sigma y^2), so the inner rotation uses the
        # exact diagonal action and only the inverting factor is integrated
        rng = _rng(p)
        theta = thetas[0]
        worst = 0.0
        for _ in range(3):
            f = _rand_hermite_vec(rng, 8, sigma)
            rotated = frft_coefficients(f, theta)
            for y in (0.0, 0.8, -1.2):
                got = frft_inverse(rotated.evaluate, theta, y, sigma=sigma, order=order)
                worst = max(worst, bc.norm(got - as_bicomplex(f.evaluate(y))))
        return worst

    cases.append(_Case("frft/inversion", "integrating against the conjugate kernel undoes the rotation", 1e-8, inversion))

    def semigroup() -> float:
        # the companion rotation is fixed so the product stays away from the
        # excluded channel values +/-1
        theta = thetas[0]
        rho = ThetaParam.from_phases(0.35, 0.6)
        combined = ThetaParam(theta.theta * rho.theta)
        worst = 0.0
        for n in range(5):
            vec = HermiteCoeffVector.basis(n, sigma)
            rotated = frft_coefficients(vec, rho)
            for y in (0.3, -0.9):
                lhs = frft_apply(rotated.evaluate, theta, y, sigma=sigma, order=order)
                rhs = frft_apply(vec.evaluate, combined, y, sigma=sigma, order=order)
                worst = max(worst, bc.norm(lhs - rhs))
        return worst

    cases.append(_Case("frft/semigroup", "rotations compose multiplicatively in theta", 1e-7, semigroup))

    def factorization() -> float:
        rng = _rng(p)
        theta = thetas[1] if len(thetas) > 1 else thetas[0]
        worst = 0.0
        for _ in range(3):
            f = _rand_hermite_vec(rng, 6, sigma)
            F = sbt_forward(f, p.nu)
            dilated = MonomialCoeffVector(
                nu=p.nu,
                coeffs=tuple(bc.pow(theta.theta, n) * c for n, c in enumerate(F.coeffs)),
            )
            for x in (0.0, 0.7, -0.7):
                lhs = frft_apply(f.evaluate, theta, x, sigma=sigma, order=order)
                rhs = sbt_inverse_integral(
                    lambda Z, d=dilated: eval_monomial_series(d, Z), sigma, p.nu, x
                )
                worst = max(worst, bc.norm(lhs - rhs))
        return worst

    cases.append(_Case("frft/factorization", "rotation = inverse transform of the theta-dilated forward transform", 1e-7, factorization))

    def coeff_vs_integral() -> float:
        rng = _rng(p)
        worst = 0.0
        for theta in thetas[:2]:
            f = _rand_hermite_vec(rng, 8, sigma)
            for y in (0.0, 0.5, -1.0):
                fast = frft_apply(f, theta, y)
                slow = frft_apply(f.evaluate, theta, y, sigma=sigma, order=order)
                worst = max(worst, bc.norm(fast - slow))
        return worst

    cases.append(_Case("frft/coeff-vs-integral", "diagonal coefficient path agrees with the kernel quadrature", 1e-8, coeff_vs_integral))

    def fourier_reduction() -> float:
        theta = ThetaParam.from_phases(math.pi / 2.0, math.pi / 2.0)
        worst = 0.0
        for n in range(7):
            for y in (0.0, 0.4, -1.3):
                got = frft_apply(lambda x, n=n: psi_n(n, 1.0, x), theta, y, sigma=1.0, order=order)
                worst = max(worst, bc.norm(got - (1j**n) * psi_n(n, 1.0, y) * bc.ONE))
        x0, y0 = 0.3, -0.8
        kern = frft_kernel(1.0, theta, x0, y0)
        classic = (
            np.exp(0.5 * y0**2 - 0.5 * x0**2 + 1j * x0 * y0) / math.sqrt(2.0 * math.pi)
        )
        worst = max(worst, bc.norm(kern - as_bicomplex(classic)))
        return worst

    cases.append(_Case("frft/fourier-reduction", "unit-phase i rotation reproduces the classical eigenvalue ladder i^n", 1e-9, fourier_reduction))

    def excluded() -> float:
        bad = [
            lambda: ThetaParam.from_phases(0.0, 1.0),
            lambda: ThetaParam.from_phases(math.pi, 1.0),
            lambda: ThetaParam(Bicomplex.from_reals(1.0, 0.0, 0.0, 0.0)),
            lambda: ThetaParam(bc.IJ),
            lambda: ThetaParam.interior(Bicomplex.from_reals(1.2, 0, 0, 0)),
        ]
        for ctor in bad:
            try:
                ctor()
                return math.inf
            except ExcludedParameterError:
                continue
        return 0.0

    cases.append(_Case("frft/excluded-parameters", "theta values touching the excluded set are rejected", 0.0, excluded))

    def decay_rate() -> float:
        worst = 0.0
        for theta in thetas:
            pd = bc.ONE - theta.theta * theta.theta
            S = sigma * bc.inverse(pd)
            pair = bc.to_idempotent(S)
            worst = max(worst, abs(pair.alpha.real - sigma / 2.0))
            worst = max(worst, abs(pair.beta.real - sigma / 2.0))
        return worst

    cases.append(_Case("frft/kernel-decay-rate", "kernel decay rate is exactly sigma/2 per channel on the torus", 1e-13, decay_rate))

    def gaussian_closed() -> float:
        rng = _rng(p)
        rule = gauss_hermite(p.order, 1.0)
        worst = 0.0
        for _ in range(10):
            gamma = 1.0
            a = complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15))
            b = complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15))
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            d = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            closed = gaussian_integral_closed(gamma, a, b, c, d)
            quad = integrate_complex(
                lambda z: np.exp(a * z * z + b * np.conjugate(z) ** 2 + c * z + d * np.conjugate(z)),
                rule,
                vectorized=True,
            )
            worst = max(worst, abs(complex(quad.z1) - closed) / abs(closed))
        try:
            gaussian_integral_closed(1.0, 0.6, 0.5, 0.0, 0.0)
            return math.inf
        except DomainError:
            pass
        return worst

    cases.append(_Case("frft/gaussian-closed", "closed planar Gaussian integral matches quadrature; domain guarded", 1e-10, gaussian_closed))

    return cases


# ------------------------------------------------------------------ mehler


def _interior_thetas() -> list[Bicomplex]:
    # channel moduli stay <= 0.6 so the 60-term series tail clears 1e-10
    return [
        as_bicomplex(0.5),
        as_bicomplex(0.55 * np.exp(1j * math.pi / 5.0)),
        Bicomplex.from_channels(0.6 * np.exp(1j * math.pi / 5.0), 0.5),
        Bicomplex.from_channels(0.3 + 0.2j, -0.5),
        Bicomplex.from_channels(0.5, 0.0),
        Bicomplex.from_channels(-0.25 + 0.35j, 0.55j),
    ]


def _suite_mehler(p: _Params) -> list[_Case]:
    cases: list[_Case] = []
    sigma = p.sigma
    thetas = _thetas(p)

    def closed_vs_series() -> float:
        worst = 0.0
        grid = np.linspace(-1.5, 1.5, 5)
        for theta in _interior_thetas():
            for x in grid:
                for y in grid:
                    worst = max(
                        worst,
                        bc.norm(
                            mehler_closed(sigma, theta, float(x), float(y))
                            - mehler_series(sigma, theta, float(x), float(y), n_terms=60)
                        ),
                    )
        return worst

    cases.append(_Case("mehler/closed-vs-series", "closed kernel matches the 60-term series on interior parameters", 1e-10, closed_vs_series))

    def bilinear() -> float:
        # Hermite values at complex channel arguments grow like
        # exp(sqrt(2 n) |Im|), so the ring argument stays small for the
        # 60-term tail to clear the tolerance
        rng = _rng(p)
        worst = 0.0
        for theta in _interior_thetas()[:4]:
            Z = _rand_bc_bounded(rng, 0.5)
            for y in (-0.8, 0.3, 1.1):
                worst = max(
                    worst,
                    bc.norm(
                        mehler_bilinear_bc(sigma, theta, Z, y)
                        - mehler_bilinear_series(sigma, theta, Z, y, n_terms=60)
                    ),
                )
        return worst

    cases.append(_Case("mehler/bilinear", "bicomplex-argument kernel matches its series", 1e-9, bilinear))

    def torus_kernel_relation() -> float:
        worst = 0.0
        c0 = normalization_c(0, sigma)
        for theta in thetas:
            for x, y in ((0.3, -0.8), (1.1, 0.4)):
                lhs = frft_kernel(sigma, theta, x, y)
                rhs = (c0 * math.exp(-sigma * x * x)) * mehler_closed(sigma, theta.theta, x, y)
                worst = max(worst, bc.norm(lhs - rhs) / max(bc.norm(lhs), 1e-300))
        return worst

    cases.append(_Case("mehler/torus-kernel-relation", "rotation kernel = c_0 exp(-sigma x^2) times the closed Mehler sum", 1e-12, torus_kernel_relation))

    def ck_restriction() -> float:
        rng = _rng(p)
        worst = 0.0
        c0 = normalization_c(0, sigma)
        for theta in thetas:
            for _ in range(3):
                x = float(rng.uniform(-1.5, 1.5))
                y = float(rng.uniform(-1.5, 1.5))
                lhs = ck_frft_kernel(sigma, theta, x, as_bicomplex(y))
                worst = max(worst, bc.norm(lhs - frft_kernel(sigma, theta, x, y)))
                Z = _rand_bc_bounded(rng, 1.2)
                full = ck_frft_kernel(sigma, theta, x, Z)
                via_mehler = (c0 * math.exp(-sigma * x * x)) * mehler_bilinear_bc(
                    sigma, theta.theta, Z, x
                )
                worst = max(worst, bc.norm(full - via_mehler) / max(bc.norm(full), 1e-300))
        return worst

    cases.append(_Case("mehler/ck-restriction", "extended kernel restricts to the rotation kernel and factors through the bilinear sum", 1e-12, ck_restriction))

    return cases


# ------------------------------------------------------------------ runner


_SUITES = {
    "algebra": _suite_algebra,
    "hermite": _suite_hermite,
    "quadrature": _suite_quadrature,
    "bargmann": _suite_bargmann,
    "transform": _suite_transform,
    "frft": _suite_frft,
    "mehler": _suite_mehler,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def _run_case(case: _Case) -> CaseResult:
    start = time.perf_counter()
    try:
        error = float(case.fn())
    except Exception as err:  # pragma: no cover - defensive reporting path
        ms = (time.perf_counter() - start) * 1000.0
        return CaseResult(
            id=case.id,
            desc=f"{case.desc} [raised {type(err).__name__}: {err}]",
            error=math.inf,
            tol=case.tol,
            passed=False,
            ms=round(ms, 3),
        )
    ms = (time.perf_counter() - start) * 1000.0
    return CaseResult(
        id=case.id,
        desc=case.desc,
        error=error,
        tol=case.tol,
        passed=bool(error <= case.tol),
        ms=round(ms, 3),
    )


def run_suite(
    suite: str,
    *,
    sigma: float = 1.0,
    nu: float = 2.0,
    order: int = 64,
    seed: int = 20240817,
    theta: ThetaParam | None = None,
) -> VerificationReport:
    """Run one named suite (or "all") and return its report."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    params = _Params(sigma=sigma, nu=nu, order=order, seed=seed, theta=theta)
    names = list(_SUITES) if suite == "all" else [suite]
    cases: list[_Case] = []
    for name in names:
        cases.extend(_SUITES[name](params))
    results = [_run_case(c) for c in cases]
    report_params = {"sigma": sigma, "nu": nu, "order": order, "seed": seed}
    if theta is not None:
        report_params["theta"] = theta.theta.to_json()
        report_params["theta_mode"] = theta.mode
    return VerificationReport(suite=suite, params=report_params, cases=results)
