"""Acceptance gate: the twelve shipped guarantees at their advertised tolerances.

Each test measures the worst error for one guarantee end to end through the
public API and prints a single PASS/FAIL line (shown with -s, or in the
failure report).  Tolerances here are contractual; loosening them is a
breaking change.
"""

import math

import numpy as np

import bctransforms as bt
from bctransforms import (
    Bicomplex,
    HermiteCoeffVector,
    MonomialCoeffVector,
    ThetaParam,
    eval_monomial_series,
    frft_apply,
    frft_coefficients,
    frft_inverse,
    gauss_hermite,
    gaussian_integral_closed,
    inner_H2nu,
    integrate_complex,
    kernel_K_BC,
    mehler_bilinear_bc,
    mehler_bilinear_series,
    mehler_closed,
    mehler_series,
    monomial_norm_sq,
    norm as bc_norm,
    normalization_c,
    project_P,
    psi_n,
    psi_values,
    s_transform,
    sbt_forward,
    sbt_forward_integral,
    sbt_inverse_coeff,
    sbt_inverse_integral,
)

SIGMA = 1.0
NU = 2.0
SEED = 20240817

TORUS_THETAS = (
    ThetaParam.from_phases(math.pi / 3, math.pi / 5),
    ThetaParam.from_phases(math.pi / 2, math.pi / 2),
    ThetaParam.from_phases(2 * math.pi / 3, math.pi / 4),
    ThetaParam.from_phases(0.9, 2.2),
)


def _rng(offset=0):
    return np.random.default_rng(SEED + offset)


def _rand_bc(rng, scale=1.0):
    return Bicomplex.from_reals(*(scale * rng.standard_normal(4)))


def _rand_bc_bounded(rng, radius):
    while True:
        Z = _rand_bc(rng, radius / 2.0)
        if bc_norm(Z) <= radius:
            return Z


def _rand_vec(rng, degree, sigma=SIGMA):
    coeffs = tuple(_rand_bc(rng, 0.5) for _ in range(degree + 1))
    return HermiteCoeffVector(sigma=sigma, coeffs=coeffs)


def _report(num, label, parts):
    ok = all(err <= tol for _, err, tol in parts)
    detail = "; ".join(f"{name} {err:.3e} <= {tol:.1e}" for name, err, tol in parts)
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {label} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def test_criterion_01_idempotent_algebra():
    ep, em = bt.E_PLUS, bt.E_MINUS
    ident = max(
        bc_norm(ep * ep - ep),
        bc_norm(em * em - em),
        bc_norm(ep + em - bt.ONE),
        bc_norm(ep - em - bt.IJ),
        bc_norm(ep * em),
    )
    rng = _rng(1)
    worst = 0.0
    for _ in range(10_000):
        # compare against the sampled reals, not the stored value's own fields
        scale = 10.0 ** rng.uniform(-3, 3)
        x1, y1, x2, y2 = rng.standard_normal(4) * scale
        W = bt.from_idempotent(bt.to_idempotent(Bicomplex.from_reals(x1, y1, x2, y2)))
        scale_a = math.ulp(max(abs(x1), abs(y2))) or math.ulp(0.0)
        scale_b = math.ulp(max(abs(y1), abs(x2))) or math.ulp(0.0)
        worst = max(
            worst,
            abs(x1 - W.x1) / scale_a,
            abs(y2 - W.y2) / scale_a,
            abs(y1 - W.y1) / scale_b,
            abs(x2 - W.x2) / scale_b,
        )
    _report(1, "idempotent algebra and channel round trip",
            [("identities", ident, 0.0), ("roundtrip ulp", worst, 4.0)])


def test_criterion_02_orthonormality():
    rule = gauss_hermite(64, SIGMA)
    ladder = np.array(psi_values(12, SIGMA, rule.nodes))
    gram = normalization_c(0, SIGMA) * (ladder * rule.weights) @ ladder.T
    line_err = float(np.max(np.abs(gram - np.eye(13))))

    bc_err = 0.0
    for n in range(7):
        fn = MonomialCoeffVector.basis(n, NU).evaluate
        for m in range(n, 7):
            gm = MonomialCoeffVector.basis(m, NU).evaluate
            val = inner_H2nu(fn, gm, NU, order=20, vectorized=True)
            want = monomial_norm_sq(n, NU) if m == n else 0.0
            denom = math.sqrt(monomial_norm_sq(n, NU) * monomial_norm_sq(m, NU))
            bc_err = max(bc_err, bc_norm(val - want * bt.ONE) / denom)
    _report(2, "weighted-line and holomorphic orthonormality",
            [("line", line_err, 1e-10), ("ring relative", bc_err, 1e-8)])


def test_criterion_03_reproducing_kernel():
    rng = _rng(3)
    points = [_rand_bc_bounded(rng, 1.5) for _ in range(5)]
    reproduce = 0.0
    for n in range(7):
        for Z in points:
            got = project_P(lambda W, n=n: W**n, NU, Z, order=24, vectorized=True)
            reproduce = max(reproduce, bc_norm(got - Z**n))

    expansion = 0.0
    for _ in range(4):
        Z = _rand_bc_bounded(rng, 1.0)
        W = _rand_bc_bounded(rng, 1.0)
        acc = Bicomplex(0j, 0j)
        Ws = bt.conj_star(W)
        for n in range(40):
            acc = acc + (Z**n * Ws**n) * (1.0 / monomial_norm_sq(n, NU))
        expansion = max(expansion, bc_norm(kernel_K_BC(NU, Z, W) - acc))
    _report(3, "reproducing projection and kernel expansion",
            [("projection", reproduce, 1e-8), ("expansion N=40", expansion, 1e-10)])


def test_criterion_04_unitarity():
    rng = _rng(4)
    isom = 0.0
    agree = 0.0
    for _ in range(5):
        f = _rand_vec(rng, 10)
        F = sbt_forward(f, NU)
        isom = max(isom, abs(F.norm_sq() - f.norm_sq()))
        for _ in range(3):
            Z = _rand_bc_bounded(rng, 2.0)
            got = sbt_forward_integral(f.evaluate, SIGMA, NU, Z, order=64)
            agree = max(agree, bc_norm(got - eval_monomial_series(F, Z)))
    _report(4, "transform unitarity",
            [("coefficient isometry", isom, 1e-10), ("integral vs coefficients", agree, 1e-8)])


def test_criterion_05_hermite_action():
    rng = _rng(5)
    points = [_rand_bc_bounded(rng, 1.5) for _ in range(3)]
    worst = 0.0
    for n in range(11):
        coeff = math.sqrt(NU**n / (2.0**n * math.factorial(n)))
        for Z in points:
            got = sbt_forward_integral(
                lambda x, n=n: psi_n(n, SIGMA, x), SIGMA, NU, Z, order=64
            )
            worst = max(worst, bc_norm(got - coeff * Z**n))
    _report(5, "basis elements map to scaled monomials", [("max error", worst, 1e-8)])


def test_criterion_06_inverse_transform():
    worst = 0.0
    for n in range(7):
        F = sbt_forward(HermiteCoeffVector.basis(n, SIGMA), NU)
        for x in (0.0, 0.7, -0.7, 1.5, -1.5):
            got = sbt_inverse_integral(F.evaluate, SIGMA, NU, x)
            worst = max(worst, bc_norm(got - psi_n(n, SIGMA, x) * bt.ONE))
    _report(6, "integral inverse undoes the forward transform", [("max error", worst, 1e-7)])


def test_criterion_07_slice_extension():
    rng = _rng(7)
    points = [_rand_bc_bounded(rng, 1.2) for _ in range(5)]
    worst = 0.0
    for n in range(6):
        for Z in points:
            got = s_transform(lambda xi, n=n: xi**n, NU, Z, order=64)
            worst = max(worst, bc_norm(got - Z**n))
    _report(7, "slice monomials extend to ring monomials (plus-sign kernel)",
            [("max error", worst, 1e-8)])


def test_criterion_08_frft_family():
    rng = _rng(8)
    eig = 0.0
    for th in TORUS_THETAS:
        for n in range(9):
            for y in (0.0, 0.6, -1.1):
                got = frft_apply(
                    lambda x, n=n: psi_n(n, SIGMA, x), th, y, sigma=SIGMA, order=96
                )
                eig = max(eig, bc_norm(got - th.theta**n * psi_n(n, SIGMA, y)))

    plancherel = 0.0
    inversion = 0.0
    semigroup = 0.0
    rho = ThetaParam.from_phases(0.35, 0.6)
    for th in TORUS_THETAS:
        v = _rand_vec(rng, 8)
        rotated = frft_coefficients(v, th)
        plancherel = max(plancherel, abs(rotated.norm_sq() - v.norm_sq()))
        for x in (0.3, -0.9):
            got = frft_inverse(rotated.evaluate, th, x, sigma=SIGMA, order=96)
            inversion = max(inversion, bc_norm(got - v.evaluate(x)))
        inner = frft_coefficients(v, rho)
        combined = ThetaParam(th.theta * rho.theta)
        for y in (0.2, -0.6):
            lhs = frft_apply(inner.evaluate, th, y, sigma=SIGMA, order=96)
            rhs = frft_coefficients(v, combined).evaluate(y)
            semigroup = max(semigroup, bc_norm(lhs - rhs))
    _report(8, "fractional rotation family", [
        ("eigenfunctions", eig, 1e-8),
        ("plancherel", plancherel, 1e-9),
        ("inversion", inversion, 1e-8),
        ("semigroup", semigroup, 1e-7),
    ])


def test_criterion_09_factorization():
    rng = _rng(9)
    worst = 0.0
    for th in TORUS_THETAS:
        v = _rand_vec(rng, 6)
        F = sbt_forward(v, NU)
        power = bt.ONE
        rotated = [F.coeffs[0]]
        for c in F.coeffs[1:]:
            power = power * th.theta
            rotated.append(power * c)
        rotated_vec = MonomialCoeffVector(nu=NU, coeffs=tuple(rotated))
        for y in (0.2, -0.6):
            lhs = frft_apply(v.evaluate, th, y, sigma=SIGMA, order=96)
            rhs = sbt_inverse_integral(rotated_vec.evaluate, SIGMA, NU, y)
            worst = max(worst, bc_norm(lhs - rhs))
    _report(9, "rotation factors through the holomorphic side", [("max error", worst, 1e-7)])


def test_criterion_10_mehler():
    interior = [
        bt.as_bicomplex(0.5),
        bt.as_bicomplex(0.55 * np.exp(1j * math.pi / 5)),
        Bicomplex.from_channels(0.6 * np.exp(1j * math.pi / 5), 0.5),
        Bicomplex.from_channels(0.3 + 0.2j, -0.5),
        Bicomplex.from_channels(0.5, 0.0),
        Bicomplex.from_channels(-0.25 + 0.35j, 0.55j),
    ]
    grid = np.linspace(-1.5, 1.5, 5)
    scalar_err = 0.0
    for th in interior:
        for x in grid:
            for y in grid:
                closed = mehler_closed(SIGMA, th, float(x), float(y))
                series = mehler_series(SIGMA, th, float(x), float(y), n_terms=60)
                scalar_err = max(scalar_err, bc_norm(closed - series))

    rng = _rng(10)
    bilinear_err = 0.0
    for th in interior[:4]:
        for _ in range(3):
            Z = _rand_bc_bounded(rng, 0.5)
            y = float(rng.uniform(-0.8, 0.8))
            closed = mehler_bilinear_bc(SIGMA, th, Z, y)
            series = mehler_bilinear_series(SIGMA, th, Z, y, n_terms=60)
            bilinear_err = max(bilinear_err, bc_norm(closed - series))
    _report(10, "Mehler closed form vs 60-term series",
            [("scalar", scalar_err, 1e-10), ("bilinear", bilinear_err, 1e-9)])


def test_criterion_11_gaussian_integral():
    rng = _rng(11)
    rule = gauss_hermite(48, 1.0)
    worst = 0.0
    for _ in range(10):
        a = 0.15 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = 0.15 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        d = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        closed = gaussian_integral_closed(1.0, a, b, c, d)
        quad = integrate_complex(
            lambda z: np.exp(a * z**2 + b * np.conj(z) ** 2 + c * z + d * np.conj(z)),
            rule,
            vectorized=True,
        )
        worst = max(worst, abs(complex(quad.z1) - closed) / max(1.0, abs(closed)))
    _report(11, "closed planar Gaussian integral vs quadrature", [("max error", worst, 1e-10)])


def test_criterion_12_fourier_reduction():
    th = ThetaParam.from_phases(math.pi / 2, math.pi / 2)
    worst = 0.0
    for n in range(9):
        lam = 1j**n
        for y in (0.0, 0.6, -1.1):
            got = frft_apply(lambda x, n=n: psi_n(n, 1.0, x), th, y, sigma=1.0, order=96)
            want = bt.as_bicomplex(lam * psi_n(n, 1.0, y))
            worst = max(worst, bc_norm(got - want))
    _report(12, "quarter-turn rotation is the Fourier eigenvalue ladder",
            [("max error", worst, 1e-9)])
