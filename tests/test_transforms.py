import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bctransforms import (
    Bicomplex,
    HermiteCoeffVector,
    MonomialCoeffVector,
    generating_G,
    inner_H2nu,
    inner_L2sigma,
    kernel_K_C,
    norm as bc_norm,
    psi_n,
    s_transform,
    sbt_forward,
    sbt_forward_integral,
    sbt_inverse_coeff,
    sbt_inverse_integral,
    sbt_kernel_BC,
    sbt_kernel_C,
)

from bctransforms import verification
from bctransforms.errors import NonFiniteError

from conftest import assert_bc_close, rand_bc

SIGMA = 1.0
NU = 2.0


class TestCoefficientMaps:
    @pytest.mark.parametrize("n", range(9))
    def test_basis_image(self, n):
        got = sbt_forward(HermiteCoeffVector.basis(n, SIGMA), NU)
        want = math.sqrt(NU**n / (2.0**n * math.factorial(n)))
        assert_allclose(got.coeffs[n].z1, want, rtol=1e-15)
        assert all(bc_norm(c) == 0.0 for k, c in enumerate(got.coeffs) if k != n)

    def test_roundtrip_identity(self, rng):
        coeffs = tuple(Bicomplex.from_reals(*rng.standard_normal(4)) for _ in range(7))
        phi = HermiteCoeffVector(sigma=SIGMA, coeffs=coeffs)
        back = sbt_inverse_coeff(sbt_forward(phi, NU), SIGMA)
        for a, b in zip(back.coeffs, phi.coeffs):
            assert_bc_close(a, b, tol=1e-14 * max(1.0, bc_norm(b)))

    @settings(max_examples=100, deadline=None)
    @given(
        degree=st.integers(0, 250),
        sigma=st.floats(0.25, 4.0),
        nu=st.floats(1.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_to_high_degree(self, degree, sigma, nu, seed):
        # at nu >= 1 every r_n up to degree 250 is a normal float
        # (r_250 >= 1e-285), so both maps round each coefficient once
        rows = np.random.default_rng(seed).standard_normal((degree + 1, 4))
        phi = HermiteCoeffVector(sigma, Bicomplex.from_json(rows))
        F = sbt_forward(phi, nu)
        back = sbt_inverse_coeff(F, sigma)
        for got, want in ((back.coeffs.alpha, phi.coeffs.alpha), (back.coeffs.beta, phi.coeffs.beta)):
            assert_allclose(got, want, rtol=1e-15)
        assert_allclose(F.norm_sq(), phi.norm_sq(), rtol=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weight_below_float_range_raises(self):
        # r_n = (nu**n / (2**n n!))**(1/2) leaves the normal float range after
        # degree 300 at nu = 2.  The maps keep the e_n coordinates and succeed
        # there; reading raw coefficients A_n = u_n r_n in raises, and writing
        # them out lets r_400 underflow to 0
        phi = HermiteCoeffVector.basis(400, SIGMA)
        F = sbt_forward(phi, NU)
        assert sbt_inverse_coeff(F, SIGMA).coeffs == phi.coeffs
        assert F.norm_sq() == 1.0 and inner_H2nu(F, F) == Bicomplex(1.0 + 0j, 0j)
        data = F.to_json()
        assert data["coeffs"][400] == [0.0, 0.0, 0.0, 0.0]
        with pytest.raises(NonFiniteError):
            MonomialCoeffVector.from_json(data)
        with pytest.raises(NonFiniteError):
            MonomialCoeffVector(NU, F.coeffs)
        with pytest.raises(NonFiniteError):
            MonomialCoeffVector.basis(400, NU)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("degree", [1000, 5000])
    def test_maps_keep_coordinates_past_the_raw_limit(self, degree):
        rows = np.random.default_rng(degree).standard_normal((degree + 1, 4))
        h = HermiteCoeffVector.from_json({"sigma": SIGMA, "coeffs": rows.tolist()})
        F = sbt_forward(h, NU)
        back = sbt_inverse_coeff(F, SIGMA)
        assert back.coeffs == h.coeffs
        assert_allclose(inner_H2nu(F, F).z1.real, h.norm_sq(), rtol=1e-13)
        assert_allclose(F.norm_sq(), h.norm_sq(), rtol=1e-13)

    @pytest.mark.parametrize("nu", [NU, 2.5])
    def test_forward_wire_rows_match_exact_factorial(self, nu):
        # the ratio ladder behind the raw rows against sqrt(nu**n / (2**n n!))
        # from the exact factorial, to degree 150
        rows = np.random.default_rng(150).standard_normal((151, 4))
        F = sbt_forward(HermiteCoeffVector.from_json({"sigma": SIGMA, "coeffs": rows.tolist()}), nu)
        want = rows * np.array([verification._basis_scale(n, nu) for n in range(151)])[:, None]
        got = np.array(F.to_json()["coeffs"])
        # a component is held to 1 ulp at the scale of its row
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    def test_isometry_exact(self, rng):
        coeffs = tuple(Bicomplex.from_reals(*rng.standard_normal(4)) for _ in range(6))
        phi = HermiteCoeffVector(sigma=SIGMA, coeffs=coeffs)
        F = sbt_forward(phi, NU)
        assert_allclose(F.norm_sq(), phi.norm_sq(), rtol=1e-13)
        lhs = inner_H2nu(F, F)
        rhs = inner_L2sigma(phi, phi)
        assert_bc_close(lhs, rhs, tol=1e-12 * max(1.0, phi.norm_sq()))

    def test_inner_products_transported(self, rng):
        phi = HermiteCoeffVector(sigma=SIGMA, coeffs=(1.0, Bicomplex(0.5j, 1 + 0j), 0.25))
        psi = HermiteCoeffVector(sigma=SIGMA, coeffs=(Bicomplex(0j, 1j), -0.5, 2.0))
        lhs = inner_H2nu(sbt_forward(phi, NU), sbt_forward(psi, NU))
        rhs = inner_L2sigma(phi, psi)
        assert_bc_close(lhs, rhs, tol=1e-13)

    def test_validation(self):
        phi = HermiteCoeffVector.basis(0, SIGMA)
        with pytest.raises(ValueError):
            sbt_forward(phi, 0.0)
        with pytest.raises(ValueError):
            sbt_inverse_coeff(MonomialCoeffVector.basis(0, NU), -1.0)


class TestKernels:
    def test_bc_kernel_channel_factorization(self, rng):
        Z = rand_bc(rng)
        x = 0.4
        K = sbt_kernel_BC(SIGMA, NU, x, Z)
        ka = sbt_kernel_C(SIGMA, NU / 2.0, x, Z.alpha)
        kb = sbt_kernel_C(SIGMA, NU / 2.0, x, Z.beta)
        assert_bc_close(K, Bicomplex.from_channels(ka, kb), tol=1e-12 * bc_norm(K))

    def test_kernel_is_generating_function_times_gaussians(self, rng):
        # A(x, Z) = c0 e^{-sigma x^2} e^{-(nu/4) Z^2 + sqrt(sigma nu) x Z}
        # which is the (unconjugated) generating function after completing
        # the square
        Z = rand_bc(rng, 0.7)
        x = -0.6
        K = sbt_kernel_BC(SIGMA, NU, x, Z)
        from bctransforms import conj_star

        G = generating_G(SIGMA, NU, x, conj_star(Z))  # undo the star inside G
        c0 = math.sqrt(SIGMA / math.pi)
        want = c0 * math.exp(-SIGMA * x * x) * G
        assert_bc_close(K, want, tol=1e-13 * bc_norm(K))

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            sbt_kernel_C(0.0, 1.0, 0.0, 0j)
        with pytest.raises(ValueError):
            sbt_kernel_BC(1.0, 0.0, 0.0, Bicomplex(0j, 0j))

    def test_classical_kernel_sections_pair_to_bargmann_kernel(self):
        # (1/c0**2) sqrt(s/pi) integral A(x,z) A(x,conj(w)) e^{+s x^2} dx
        # completes the square to e^{gamma z conj(w)}
        from bctransforms import gauss_hermite, integrate_real, normalization_c

        gamma = NU / 2.0
        z, w = 0.5 + 0.3j, -0.4 + 0.6j
        rule = gauss_hermite(48, SIGMA)
        c0 = normalization_c(0, SIGMA)

        def g(x):
            prod = sbt_kernel_C(SIGMA, gamma, x, z) * sbt_kernel_C(SIGMA, gamma, x, np.conj(w))
            return prod * np.exp(2.0 * SIGMA * x**2) / c0**2

        val = integrate_real(g, rule, vectorized=True)
        got = c0 * complex(val.z1)
        assert_allclose(got, kernel_K_C(gamma, z, w), rtol=1e-9)


class TestForwardIntegral:
    @pytest.mark.parametrize("n", range(6))
    def test_matches_coefficient_route_on_basis(self, n, rng):
        Z = rand_bc(rng, 0.6)
        F = sbt_forward(HermiteCoeffVector.basis(n, SIGMA), NU)
        want = F.evaluate(Z)
        got = sbt_forward_integral(
            lambda x: psi_n(n, SIGMA, x), SIGMA, NU, Z, order=64
        )
        assert_bc_close(got, want, tol=1e-9 * max(1.0, bc_norm(want)))

    def test_general_vector(self, rng):
        phi = HermiteCoeffVector(sigma=SIGMA, coeffs=(0.3, -1.0, 0.0, 0.5))
        Z = rand_bc(rng, 0.6)
        got = sbt_forward_integral(lambda x: phi.evaluate(x), SIGMA, NU, Z, order=64)
        want = sbt_forward(phi, NU).evaluate(Z)
        assert_bc_close(got, want, tol=1e-9)

    def test_scalar_callable_path(self):
        got = sbt_forward_integral(
            lambda x: 1.0, SIGMA, NU, Bicomplex(0j, 0j), order=32, vectorized=False
        )
        assert_bc_close(got, Bicomplex(1 + 0j, 0j), tol=1e-12)


class TestInverseIntegral:
    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("x", [0.0, 0.7, -1.5])
    def test_monomial_images(self, n, x):
        F = MonomialCoeffVector.basis(n, NU)
        got = sbt_inverse_integral(F.evaluate, SIGMA, NU, x)
        want = sbt_inverse_coeff(F, SIGMA).evaluate(x)
        assert_bc_close(got, want, tol=1e-7 * max(1.0, bc_norm(want)))

    def test_split_matches_tensor(self):
        F = MonomialCoeffVector(nu=NU, coeffs=(0.5, Bicomplex(1j, 0.5 + 0j)))
        split = sbt_inverse_integral(F.evaluate, SIGMA, NU, 0.35, order=16, method="split")
        tensor = sbt_inverse_integral(F.evaluate, SIGMA, NU, 0.35, order=16, method="tensor")
        assert_bc_close(split, tensor, tol=1e-9)

    def test_roundtrip_through_integrals(self):
        phi = HermiteCoeffVector(sigma=SIGMA, coeffs=(1.0, 0.0, -0.5))
        F = sbt_forward(phi, NU)
        for x in (-0.8, 0.2, 1.1):
            got = sbt_inverse_integral(F.evaluate, SIGMA, NU, x)
            assert_bc_close(got, phi.evaluate(x), tol=1e-7)

    def test_bad_method(self):
        with pytest.raises(ValueError):
            sbt_inverse_integral(lambda Z: Z, SIGMA, NU, 0.0, method="nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            sbt_inverse_integral(lambda Z: Z, 0.0, NU, 0.0)


class TestSliceTransform:
    @pytest.mark.parametrize("n", range(6))
    def test_monomials_extend(self, n, rng):
        Z = rand_bc(rng, 0.7)
        got = s_transform(lambda xi: xi**n, NU, Z, order=64)
        assert_bc_close(got, Z**n, tol=1e-8 * max(1.0, bc_norm(Z) ** n))

    def test_sign_convention_is_plus(self):
        # with the minus convention the monomial image would be (-Z)**n,
        # distinguishable at odd degree
        Z = Bicomplex.from_reals(0.4, 0.1, -0.3, 0.2)
        got = s_transform(lambda xi: xi, NU, Z, order=64)
        assert bc_norm(got - Z) < 1e-9
        assert bc_norm(got + Z) > 0.1

    def test_polynomial_linear_combination(self, rng):
        # slice values are bicomplex when the coefficients are
        F = MonomialCoeffVector(
            nu=NU, coeffs=(1.0, Bicomplex(-2.0 + 0j, 0.5j), 0.0, 0.25)
        )
        Z = rand_bc(rng, 0.6)
        got = s_transform(
            lambda xi: F.evaluate(Bicomplex(xi, np.zeros_like(xi))), NU, Z, order=64
        )
        assert_bc_close(got, F.evaluate(Z), tol=1e-8)

    def test_norm_transport(self):
        # restriction to the slice preserves the weighted norm on monomials:
        # planar norm of xi**n at gamma = nu/2 equals ring norm of Z**n
        from bctransforms import gauss_hermite, integrate_complex, monomial_norm_sq, normalization_c

        gamma = NU / 2.0
        rule = gauss_hermite(24, gamma)
        for n in range(5):
            val = integrate_complex(
                lambda xi, n=n: (xi * np.conj(xi)) ** n, rule, vectorized=True
            )
            got = normalization_c(1, gamma) * complex(val.z1)
            assert_allclose(got.real, monomial_norm_sq(n, NU), rtol=1e-11)
