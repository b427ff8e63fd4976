import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bctransforms import (
    Bicomplex,
    HermiteCoeffVector,
    ThetaParam,
    ck_frft_kernel,
    conj_star,
    frft_apply,
    frft_coefficients,
    frft_inverse,
    frft_kernel,
    gauss_hermite,
    gaussian_integral_closed,
    integrate_complex,
    mehler_bilinear_bc,
    mehler_bilinear_series,
    mehler_closed,
    mehler_series,
    norm as bc_norm,
    normalization_c,
    psi_n,
)
from bctransforms.errors import DomainError, ExcludedParameterError, NonFiniteError

from conftest import assert_bc_close

SIGMA = 1.0
THETA = ThetaParam.from_phases(math.pi / 3, math.pi / 5)


class TestThetaParam:
    def test_from_phases_on_torus(self):
        th = ThetaParam.from_phases(0.4, -1.1)
        assert_allclose(abs(th.theta.alpha), 1.0, rtol=1e-15)
        assert_allclose(abs(th.theta.beta), 1.0, rtol=1e-15)
        assert th.mode == "unit_torus"

    def test_rejects_off_torus(self):
        with pytest.raises(ExcludedParameterError):
            ThetaParam(Bicomplex(0.5 + 0j, 0j))

    @pytest.mark.parametrize("phases", [(0.0, 0.5), (math.pi, 0.5), (0.5, 0.0), (0.5, -math.pi)])
    def test_rejects_singular_rotations(self, phases):
        with pytest.raises(ExcludedParameterError):
            ThetaParam.from_phases(*phases)

    def test_rejects_near_excluded(self):
        with pytest.raises(ExcludedParameterError):
            ThetaParam.from_phases(1e-10, 0.5)

    def test_interior_mode(self):
        th = ThetaParam.interior(0.5)
        assert th.mode == "interior"
        # a null channel is allowed in the open ball
        ThetaParam.interior(Bicomplex.from_channels(0.3 + 0.2j, 0.0))
        with pytest.raises(ExcludedParameterError):
            ThetaParam.interior(1.0)
        with pytest.raises(ExcludedParameterError):
            ThetaParam.interior(Bicomplex.from_channels(0.5, 1.2))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ThetaParam(Bicomplex(1j, 0j), mode="weird")


class TestCoefficientPath:
    def test_diagonal_action(self):
        v = HermiteCoeffVector(sigma=SIGMA, coeffs=(1.0, 2.0, Bicomplex(0j, 1 + 0j)))
        out = frft_coefficients(v, THETA)
        th = THETA.theta
        assert out.sigma == SIGMA
        assert_bc_close(out.coeffs[0], v.coeffs[0], tol=0.0)
        assert_bc_close(out.coeffs[1], th * v.coeffs[1], tol=0.0)
        assert_bc_close(out.coeffs[2], th * th * v.coeffs[2], tol=1e-15)

    def test_norm_preserved_on_torus(self, rng):
        coeffs = tuple(Bicomplex.from_reals(*rng.standard_normal(4)) for _ in range(8))
        v = HermiteCoeffVector(sigma=SIGMA, coeffs=coeffs)
        out = frft_coefficients(v, THETA)
        assert_allclose(out.norm_sq(), v.norm_sq(), rtol=1e-14)

    def test_semigroup(self, rng):
        coeffs = tuple(Bicomplex.from_reals(*rng.standard_normal(4)) for _ in range(6))
        v = HermiteCoeffVector(sigma=SIGMA, coeffs=coeffs)
        th1 = ThetaParam.from_phases(0.35, 0.6)
        th2 = ThetaParam.from_phases(0.7, -0.4)
        combined = ThetaParam(th1.theta * th2.theta)
        two_step = frft_coefficients(frft_coefficients(v, th1), th2)
        one_step = frft_coefficients(v, combined)
        for a, b in zip(two_step.coeffs, one_step.coeffs):
            assert_bc_close(a, b, tol=1e-13 * max(1.0, bc_norm(b)))

    def test_inverse_undoes_forward(self, rng):
        coeffs = tuple(Bicomplex.from_reals(*rng.standard_normal(4)) for _ in range(6))
        v = HermiteCoeffVector(sigma=SIGMA, coeffs=coeffs)
        fwd = frft_coefficients(v, THETA)
        for x in (-1.2, 0.0, 0.8):
            got = frft_inverse(fwd, THETA, x)
            assert_bc_close(got, v.evaluate(x), tol=1e-12)


class TestIntegralPath:
    @pytest.mark.parametrize("n", range(6))
    def test_eigenfunctions(self, n):
        y = 0.6
        got = frft_apply(lambda x: psi_n(n, SIGMA, x), THETA, y, sigma=SIGMA, order=96)
        want = THETA.theta**n * psi_n(n, SIGMA, y)
        assert_bc_close(got, want, tol=1e-8 * max(1.0, bc_norm(want)))

    def test_matches_coefficient_route(self):
        v = HermiteCoeffVector(sigma=SIGMA, coeffs=(0.5, -1.0, 0.0, 0.25, 1.0))
        y = -0.8
        exact = frft_apply(v, THETA, y)
        quad = frft_apply(lambda x: v.evaluate(x), THETA, y, sigma=SIGMA, order=96)
        assert_bc_close(exact, quad, tol=1e-8)

    def test_integral_inversion(self):
        v = HermiteCoeffVector(sigma=SIGMA, coeffs=(1.0, 0.5, -0.25, 0.0, 0.125))
        fwd = frft_coefficients(v, THETA)
        for x in (0.3, -0.9):
            got = frft_inverse(lambda y: fwd.evaluate(y), THETA, x, sigma=SIGMA, order=96)
            assert_bc_close(got, v.evaluate(x), tol=1e-8)

    def test_callable_requires_sigma(self):
        with pytest.raises(TypeError):
            frft_apply(lambda x: 1.0, THETA, 0.0)
        with pytest.raises(ValueError):
            frft_apply(lambda x: 1.0, THETA, 0.0, sigma=-1.0)

    def test_inverse_rejects_interior(self):
        v = HermiteCoeffVector.basis(1, SIGMA)
        with pytest.raises(ExcludedParameterError):
            frft_inverse(v, ThetaParam.interior(0.5), 0.0)


class TestKernel:
    def test_fourier_point(self):
        # at theta = i the kernel is the classical Fourier-type Gaussian
        th = ThetaParam.from_phases(math.pi / 2, math.pi / 2)
        x, y = 0.3, -0.8
        got = frft_kernel(1.0, th, x, y)
        want = np.exp(0.5 * y * y - 0.5 * x * x + 1j * x * y) / math.sqrt(2 * math.pi)
        assert_allclose(got.z1, want, rtol=1e-13)
        assert_allclose(got.z2, 0.0, atol=1e-13)

    def test_mehler_factorization(self):
        x, y = 0.7, -0.4
        K = frft_kernel(SIGMA, THETA, x, y)
        M = mehler_closed(SIGMA, THETA.theta, x, y)
        want = normalization_c(0, SIGMA) * math.exp(-SIGMA * x * x) * M
        assert_bc_close(K, want, tol=1e-13 * bc_norm(K))

    def test_decay_rate_on_torus(self):
        # Re(sigma/(1-theta**2)) = sigma/2 exactly on the torus
        for phases in ((0.4, 1.3), (2.0, -0.7)):
            th = ThetaParam.from_phases(*phases).theta
            pd = Bicomplex(1 + 0j, 0j) - th * th
            from bctransforms import inverse as bc_inverse

            S = SIGMA * bc_inverse(pd)
            assert_allclose(S.alpha.real, SIGMA / 2.0, rtol=1e-12)
            assert_allclose(S.beta.real, SIGMA / 2.0, rtol=1e-12)

    def test_array_arguments(self):
        x = np.linspace(-1.0, 1.0, 7)
        K = frft_kernel(SIGMA, THETA, x, 0.5)
        assert K.z1.shape == (7,)
        single = frft_kernel(SIGMA, THETA, float(x[2]), 0.5)
        assert_allclose(K.z1[2], single.z1, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            frft_kernel(0.0, THETA, 0.0, 0.0)


class TestContinuedKernel:
    def test_restricts_to_frft_kernel(self):
        x, y = 0.45, -1.2
        got = ck_frft_kernel(SIGMA, THETA, x, Bicomplex(y + 0j, 0j))
        want = frft_kernel(SIGMA, THETA, x, y)
        assert_bc_close(got, want, tol=1e-14 * bc_norm(want))

    def test_equals_weighted_bilinear_mehler(self, rng):
        Z = Bicomplex.from_reals(*(0.4 * rng.standard_normal(4)))
        x = 0.3
        got = ck_frft_kernel(SIGMA, THETA, x, Z)
        M = mehler_bilinear_bc(SIGMA, THETA.theta, Z, x)
        want = normalization_c(0, SIGMA) * math.exp(-SIGMA * x * x) * M
        assert_bc_close(got, want, tol=1e-13 * max(1.0, bc_norm(want)))


class TestMehler:
    interior = [
        0.5,
        0.55 * np.exp(1j * math.pi / 5),
        Bicomplex.from_channels(0.6 * np.exp(1j * math.pi / 5), 0.5),
    ]

    @pytest.mark.parametrize("theta", interior)
    def test_closed_vs_series(self, theta):
        for x in (-1.2, 0.0, 0.9):
            for y in (-0.5, 1.4):
                closed = mehler_closed(SIGMA, theta, x, y)
                series = mehler_series(SIGMA, theta, x, y, n_terms=60)
                assert_bc_close(closed, series, tol=1e-10)

    def test_torus_theta_allowed(self):
        got = mehler_closed(SIGMA, THETA.theta, 0.2, 0.4)
        assert np.isfinite(got.z1)

    def test_bilinear_closed_vs_series(self, rng):
        theta = Bicomplex.from_channels(0.3 + 0.2j, -0.5)
        for _ in range(3):
            Z = Bicomplex.from_reals(*(0.25 * rng.standard_normal(4)))
            y = float(rng.uniform(-1.0, 1.0))
            closed = mehler_bilinear_bc(SIGMA, theta, Z, y)
            series = mehler_bilinear_series(SIGMA, theta, Z, y, n_terms=60)
            assert_bc_close(closed, series, tol=1e-9)

    def test_bilinear_restricts_to_scalar_mehler(self):
        theta = 0.45
        x, y = 0.6, -0.3
        got = mehler_bilinear_bc(SIGMA, theta, Bicomplex(x + 0j, 0j), y)
        want = mehler_closed(SIGMA, theta, x, y)
        assert_bc_close(got, want, tol=1e-14)

    def test_guards(self):
        with pytest.raises(ValueError):
            mehler_closed(SIGMA, 1.5, 0.0, 0.0)
        with pytest.raises(ExcludedParameterError):
            mehler_closed(SIGMA, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            mehler_closed(0.0, 0.5, 0.0, 0.0)


# A channel 1e-10 inside the unit disc passes ThetaParam.interior, but
# 1 - theta**2 is then within EXCLUSION_TOL of the null cone.
NEAR_ONE = ThetaParam.interior(Bicomplex.from_channels(1.0 - 1e-10, 0.5))
RING_POINT = Bicomplex.from_reals(0.2, 0.1, -0.1, 0.05)

# (call(sigma, theta), an excluded theta, a theta outside the Mehler domain)
GUARDED = [
    pytest.param(lambda s, th: frft_kernel(s, th, 0.3, -0.2), NEAR_ONE, None, id="frft_kernel"),
    pytest.param(
        lambda s, th: frft_apply(lambda x: 1.0, th, 0.1, sigma=s, order=8), NEAR_ONE, None,
        id="frft_apply",
    ),
    pytest.param(
        lambda s, th: ck_frft_kernel(s, th, 0.3, RING_POINT), NEAR_ONE, None, id="ck_frft_kernel"
    ),
    pytest.param(lambda s, th: mehler_closed(s, th, 0.3, -0.2), 1.0, 1.5, id="mehler_closed"),
    pytest.param(
        lambda s, th: mehler_bilinear_bc(s, th, RING_POINT, -0.2),
        Bicomplex.from_channels(0.3, -1.0), Bicomplex.from_channels(0.3, 1.2j),
        id="mehler_bilinear_bc",
    ),
    pytest.param(
        lambda s, th: mehler_series(s, th, 0.3, -0.2, n_terms=5), -1.0, 1.5, id="mehler_series"
    ),
    pytest.param(
        lambda s, th: mehler_bilinear_series(s, th, RING_POINT, -0.2, n_terms=5),
        Bicomplex.from_channels(1.0, 0.3), Bicomplex.from_channels(-1.1, 0.3),
        id="mehler_bilinear_series",
    ),
]


@pytest.mark.parametrize("call, excluded, outside", GUARDED)
def test_shared_guards(call, excluded, outside):
    for sigma in (0.0, -1.0):
        # sigma is checked before theta, so a bad theta does not mask it
        with pytest.raises(ValueError) as info:
            call(sigma, excluded)
        assert info.type is DomainError
    with pytest.raises(ExcludedParameterError):
        call(SIGMA, excluded)
    if outside is not None:
        with pytest.raises(ValueError, match="moduli <= 1") as info:
            call(SIGMA, outside)
        assert info.type is ValueError


class TestGaussianIntegral:
    def test_no_quadratic_terms_oracle(self):
        gamma = 1.5
        c, d = 0.4 - 0.2j, -0.3 + 0.7j
        got = gaussian_integral_closed(gamma, 0.0, 0.0, c, d)
        want = math.pi / gamma * np.exp(c * d / gamma)
        assert_allclose(got, want, rtol=1e-14)

    def test_against_quadrature(self, rng):
        gamma = 1.0
        rule = gauss_hermite(48, gamma)
        for _ in range(5):
            a, b = (0.15 * (rng.standard_normal(2) @ [1, 1j]) for _ in range(2))
            c, d = (rng.standard_normal(2) @ [1, 1j] for _ in range(2))
            closed = gaussian_integral_closed(gamma, a, b, c, d)
            quad = integrate_complex(
                lambda z: np.exp(a * z**2 + b * np.conj(z) ** 2 + c * z + d * np.conj(z)),
                rule,
                vectorized=True,
            )
            assert_allclose(complex(quad.z1), closed, rtol=1e-10)

    @pytest.mark.parametrize("gamma", [1e-300, 1e300])
    def test_extreme_gamma_keeps_its_finite_value(self, gamma):
        # gamma**2 leaves float range at both ends; pi / gamma does not
        assert_allclose(gaussian_integral_closed(gamma, 0.0, 0.0, 0.0, 0.0), math.pi / gamma, rtol=1e-15)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gaussian_integral_closed(1.0, 0.6, 0.5, 0.0, 0.0)
        # Re(a+b) = 0, but the real form -(u**2 + v**2) - 2.4 u v grows along u = -v
        with pytest.raises(DomainError):
            gaussian_integral_closed(1.0, 0.6j, -0.6j, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_integral_closed(0.0, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_argument_fails_closed(self, slot, bad):
        # a non-finite a or b fails the domain guard; every other non-finite
        # input must still raise rather than return nan/inf
        args = [0.1 + 0.05j, -0.08j, 0.3, 0.2 - 0.4j]
        args[slot] = bad
        with pytest.raises(DomainError if slot < 2 else NonFiniteError):
            gaussian_integral_closed(1.2, *args)

    def test_overflowing_exponent_fails_closed(self):
        with pytest.raises(NonFiniteError):
            gaussian_integral_closed(1.0, 0.0, 0.0, 40.0, 40.0)

    def test_swap_symmetry(self):
        # the formula is invariant under (a,b,c,d) -> (b,a,d,c)
        args = (0.1 + 0.05j, -0.08j, 0.3, 0.2 - 0.4j)
        lhs = gaussian_integral_closed(1.2, *args)
        rhs = gaussian_integral_closed(1.2, args[1], args[0], args[3], args[2])
        assert_allclose(lhs, rhs, rtol=1e-14)


class TestInverseKernelConvention:
    def test_inverse_uses_conjugate_rotation(self):
        # on the torus conj_star(theta) has reciprocal channels, so the
        # two coefficient maps compose to the identity
        v = HermiteCoeffVector(sigma=SIGMA, coeffs=(0.0, 1.0))
        fwd = frft_coefficients(v, THETA)
        inv = frft_coefficients(fwd, ThetaParam(conj_star(THETA.theta)))
        assert_bc_close(inv.coeffs[1], v.coeffs[1], tol=1e-15)
