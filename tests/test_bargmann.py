import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bctransforms import (
    Bicomplex,
    HermiteCoeffVector,
    MonomialCoeffVector,
    conj_star,
    eval_monomial_series,
    gauss_hermite,
    idempotent_split_F,
    inner_H2nu,
    inner_L2sigma,
    integrate_complex,
    kernel_K_BC,
    kernel_K_C,
    monomial_norm_sq,
    norm as bc_norm,
    project_P,
    psi_n,
    sbt_forward,
)
from bctransforms.errors import DimensionMismatch, NonFiniteError

from conftest import assert_bc_close, rand_bc, ring_exp, ring_mul


def one():
    return Bicomplex(1 + 0j, 0j)


class TestCoeffVectors:
    def test_hermite_vector_basics(self):
        v = HermiteCoeffVector(sigma=1.0, coeffs=(1.0, 0.0, 2.0))
        assert v.degree == 2
        assert all(isinstance(c, Bicomplex) for c in v.coeffs)
        assert_allclose(v.norm_sq(), 5.0)

    def test_hermite_evaluate(self):
        sigma = 1.3
        v = HermiteCoeffVector(sigma=sigma, coeffs=(0.5, -1.0, 0.0, 2.0))
        x = np.array([-0.7, 0.0, 1.1])
        want = 0.5 * psi_n(0, sigma, x) - psi_n(1, sigma, x) + 2.0 * psi_n(3, sigma, x)
        assert_allclose(v.evaluate(x).z1, want, rtol=1e-13)

    def test_basis_vector(self):
        b = HermiteCoeffVector.basis(3, 2.0)
        assert b.degree == 3
        assert b.norm_sq() == 1.0
        assert_allclose(b.evaluate(0.9).z1, psi_n(3, 2.0, 0.9), rtol=1e-14)

    def test_monomial_vector_basics(self):
        f = MonomialCoeffVector(nu=2.0, coeffs=(1.0, 1.0))
        # norm weights are 2**n n!/nu**n = 1, 1 at nu=2
        assert_allclose(f.norm_sq(), 2.0)
        g = MonomialCoeffVector(nu=4.0, coeffs=(0.0, 0.0, 1.0))
        assert_allclose(g.norm_sq(), monomial_norm_sq(2, 4.0))

    def test_monomial_evaluate_horner(self, rng):
        f = MonomialCoeffVector(nu=2.0, coeffs=(2.0, -1.0, 0.5))
        Z = rand_bc(rng)
        want = 2.0 * one() - Z + 0.5 * (Z * Z)
        assert_bc_close(f.evaluate(Z), want, tol=1e-13)
        assert_bc_close(eval_monomial_series(f, Z), want, tol=1e-13)

    def test_monomial_evaluate_array_components(self):
        f = MonomialCoeffVector(nu=2.0, coeffs=(1.0, 1.0))
        Z = Bicomplex(np.array([0j, 1 + 0j]), np.array([0j, 0j]))
        out = f.evaluate(Z)
        assert_allclose(out.z1, [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            HermiteCoeffVector(sigma=0.0, coeffs=(1.0,))
        with pytest.raises(ValueError):
            MonomialCoeffVector(nu=-1.0, coeffs=(1.0,))
        with pytest.raises(ValueError):
            HermiteCoeffVector(sigma=1.0, coeffs=())

    def test_json_roundtrip(self):
        v = HermiteCoeffVector(sigma=1.5, coeffs=(1.0, Bicomplex(0.5j, 1 + 0j)))
        w = HermiteCoeffVector.from_json(v.to_json())
        assert w.sigma == v.sigma and w.coeffs == v.coeffs
        f = MonomialCoeffVector(nu=2.5, coeffs=(Bicomplex(1j, 0j),))
        g = MonomialCoeffVector.from_json(f.to_json())
        assert g.nu == f.nu and g.coeffs == f.coeffs
        with pytest.raises(DimensionMismatch):
            HermiteCoeffVector.from_json({"coeffs": []})
        with pytest.raises(DimensionMismatch):
            MonomialCoeffVector.from_json({"nu": 2.0})

    @pytest.mark.parametrize("cls, param", [(HermiteCoeffVector, "sigma"), (MonomialCoeffVector, "nu")])
    def test_json_roundtrip_is_exact(self, cls, param):
        # decoding and re-encoding returns the same numbers bit for bit, although
        # the channels hold each component only to 1 ulp at pair scale
        rows = np.random.default_rng(5).standard_normal((40, 4)) * np.logspace(-8, 8, 4)
        data = {param: 1.25, "coeffs": rows.tolist()}
        assert cls.from_json(data).to_json() == data

    def test_coeffs_is_one_array_value(self):
        v = HermiteCoeffVector(sigma=1.0, coeffs=(1.0, Bicomplex(0.5j, 2 + 0j), 3))
        assert isinstance(v.coeffs, Bicomplex)
        assert v.coeffs.alpha.shape == v.coeffs.beta.shape == (3,)
        assert v.coeffs[1] == Bicomplex(0.5j, 2 + 0j)
        assert [c.z1 for c in v.coeffs] == [1.0, 0.5j, 3.0]
        with pytest.raises(ValueError):
            HermiteCoeffVector(sigma=1.0, coeffs=Bicomplex(1j, 0j))

    def test_non_finite_wire_values_are_refused(self):
        with pytest.raises(NonFiniteError):
            HermiteCoeffVector.from_json({"sigma": 1.0, "coeffs": [[1.0, 0.0, 0.0, 0.0], [0.0, math.nan, 0.0, 0.0]]})
        with pytest.raises(NonFiniteError):
            MonomialCoeffVector.from_json({"nu": 2.0, "coeffs": [[math.inf, 0.0, 0.0, 0.0]]})
        # channels near the float maximum have finite components, which encode
        huge = np.array([1e308 + 0j])
        rows = HermiteCoeffVector(sigma=1.0, coeffs=Bicomplex.from_channels(huge, huge)).to_json()["coeffs"]
        assert rows == [[1e308, 0.0, 0.0, 0.0]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_evaluation_fails_closed(self):
        # Horner's scheme overflowed to inf+nanj after two RuntimeWarnings
        f = MonomialCoeffVector(2.0, [1, 1, 1])
        with pytest.raises(NonFiniteError):
            eval_monomial_series(f, Bicomplex(1e300, 0))
        with pytest.raises(NonFiniteError):
            f.evaluate(Bicomplex(1e300, 0))
        with pytest.raises(NonFiniteError):
            HermiteCoeffVector(1.0, [0] * 12 + [1]).evaluate(1e30)

    def test_idempotent_split(self):
        f = MonomialCoeffVector(nu=2.0, coeffs=(Bicomplex(1 + 0j, 1j), Bicomplex(0j, 2j)))
        a, b = idempotent_split_F(f)
        assert a == [f.coeffs[0].alpha, f.coeffs[1].alpha]
        assert b == [f.coeffs[0].beta, f.coeffs[1].beta]


class TestKernels:
    def test_classical_kernel(self):
        z, w = 0.4 + 0.3j, -0.2 + 0.7j
        assert_allclose(kernel_K_C(2.0, z, w), np.exp(2.0 * z * np.conj(w)), rtol=1e-15)
        with pytest.raises(ValueError):
            kernel_K_C(0.0, z, w)

    def test_bicomplex_kernel_component_form(self, rng):
        # exp((nu/2) Z W*) in the (1, j) components, W* = conj(w1) - j conj(w2)
        nu = 1.7
        for _ in range(20):
            Z, W = rand_bc(rng, 0.8), rand_bc(rng, 0.8)
            q = ring_mul((Z.z1, Z.z2), (np.conj(W.z1), -np.conj(W.z2)))
            K = kernel_K_BC(nu, Z, W)
            assert_bc_close(K, ring_exp((0.5 * nu * q[0], 0.5 * nu * q[1])), tol=1e-14 * bc_norm(K))

    def test_kernel_hermitian_symmetry(self, rng):
        Z, W = rand_bc(rng, 0.8), rand_bc(rng, 0.8)
        assert_bc_close(kernel_K_BC(2.0, Z, W), conj_star(kernel_K_BC(2.0, W, Z)), tol=1e-14)

    def test_kernel_diagonal_scalar_part_bounds_modulus(self, rng):
        # |K(Z,W)|^2 <= K(Z,Z)_0 K(W,W)_0 with the scalar part positive
        nu = 2.0
        Z, W = rand_bc(rng, 0.8), rand_bc(rng, 0.8)
        kzz = kernel_K_BC(nu, Z, Z)
        kww = kernel_K_BC(nu, W, W)
        assert kzz.z1.real > 0
        bound = math.sqrt(kzz.z1.real * kww.z1.real)
        assert bc_norm(kernel_K_BC(nu, Z, W)) <= 2.0 * bound + 1e-12

    def test_kernel_series(self, rng):
        # K(Z,W) = sum_n Z**n (W*)**n / ||Z**n||^2
        nu = 2.0
        Z, W = rand_bc(rng, 0.6), rand_bc(rng, 0.6)
        acc = Bicomplex(0j, 0j)
        Ws = conj_star(W)
        for n in range(50):
            acc = acc + (Z**n * Ws**n) * (1.0 / monomial_norm_sq(n, nu))
        assert_bc_close(kernel_K_BC(nu, Z, W), acc, tol=1e-11)


class TestMonomialNorms:
    def test_formula(self):
        assert monomial_norm_sq(0, 2.0) == 1.0
        assert_allclose(monomial_norm_sq(5, 2.0), math.factorial(5), rtol=1e-15)
        assert_allclose(monomial_norm_sq(3, 1.0), 8 * 6, rtol=1e-15)

    def test_against_planar_quadrature(self):
        # per channel: C(1,g) integral z**n conj(z)**n e^{-g|z|^2} = n!/g**n,
        # and the ring norm convention divides by 2**n on each side
        nu = 2.5
        g = nu / 2.0
        rule = gauss_hermite(24, g)
        for n in range(6):
            val = integrate_complex(
                lambda xi, n=n: (xi * np.conj(xi)) ** n, rule, vectorized=True
            )
            per_channel = (g / math.pi) * complex(val.z1)
            assert_allclose(per_channel.real, monomial_norm_sq(n, nu), rtol=1e-11)

    def test_log_branch(self):
        n = 160
        # nu = 2 keeps the value at n! which is representable up to n = 170
        assert_allclose(monomial_norm_sq(n, 2.0), float(math.factorial(n)), rtol=1e-12)

    def test_last_finite_degree(self):
        # 170! is the largest factorial below the float maximum
        assert_allclose(monomial_norm_sq(170, 2.0), float(math.factorial(170)), rtol=1e-12)

    @pytest.mark.parametrize("n", [171, 500])
    def test_outside_float_range_raises(self, n):
        with pytest.raises(NonFiniteError):
            monomial_norm_sq(n, 2.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("nu", [1e3, 20.0, 2.0, 1.7, 1.0, 0.1])
    def test_vector_norm_matches_scalar(self, nu):
        # both read the one weight helper; they agree, or both raise
        for n in range(401):
            try:
                scalar = monomial_norm_sq(n, nu)
            except NonFiniteError:
                with pytest.raises(NonFiniteError):
                    MonomialCoeffVector.basis(n, nu).norm_sq()
                continue
            assert_allclose(MonomialCoeffVector.basis(n, nu).norm_sq(), scalar, rtol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            monomial_norm_sq(-1, 2.0)
        with pytest.raises(ValueError):
            monomial_norm_sq(2, 0.0)


class TestInnerProducts:
    def test_coeff_pairing_conjugate_linear(self):
        sigma = 1.0
        f = HermiteCoeffVector(sigma=sigma, coeffs=(Bicomplex(1j, 0j),))
        g = HermiteCoeffVector(sigma=sigma, coeffs=(Bicomplex(1j, 0j),))
        val = inner_L2sigma(f, g)
        # <i psi0, i psi0> = i * conj(i) = 1
        assert_bc_close(val, one(), tol=0.0)

    def test_sigma_mismatch(self):
        f = HermiteCoeffVector(sigma=1.0, coeffs=(1.0,))
        g = HermiteCoeffVector(sigma=2.0, coeffs=(1.0,))
        with pytest.raises(DimensionMismatch):
            inner_L2sigma(f, g)

    def test_callable_route_matches_coeff_route(self):
        sigma = 1.5
        f = HermiteCoeffVector(sigma=sigma, coeffs=(0.3, -1.2, 0.0, 0.7))
        g = HermiteCoeffVector(sigma=sigma, coeffs=(1.0, 0.5, -0.25))
        exact = inner_L2sigma(f, g)
        quad = inner_L2sigma(f.evaluate, g.evaluate, sigma, order=32, vectorized=True)
        assert_bc_close(exact, quad, tol=1e-12)

    def test_callables_require_sigma(self):
        with pytest.raises(DimensionMismatch):
            inner_L2sigma(lambda x: x, lambda x: x)

    def test_H2nu_monomial_orthogonality(self):
        nu = 2.0
        for n in range(4):
            for m in range(4):
                f = MonomialCoeffVector.basis(n, nu)
                g = MonomialCoeffVector.basis(m, nu)
                val = inner_H2nu(f, g)
                want = monomial_norm_sq(n, nu) if m == n else 0.0
                assert_allclose(val.z1, want, atol=1e-13)
                assert_allclose(val.z2, 0.0, atol=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_H2nu_pairs_high_degrees_like_norm_sq(self):
        # r_n leaves the normal float range after degree 300 at nu = 2; the
        # pairing and the norm read the e_n coordinates and never form it
        h = HermiteCoeffVector.from_json(
            {"sigma": 1.0, "coeffs": np.random.default_rng(3).standard_normal((401, 4)).tolist()}
        )
        F = sbt_forward(h, 2.0)
        val = inner_H2nu(F, F)
        assert math.isfinite(val.z1.real)
        assert_allclose(val.z1.real, F.norm_sq(), rtol=1e-14)
        assert_allclose(val.z1.real, h.norm_sq(), rtol=1e-13)
        # the raw form of such a vector is out of reach
        with pytest.raises(NonFiniteError):
            MonomialCoeffVector.basis(400, 2.0)
        # the squared norm 200! of Z**200 itself overflows
        f = MonomialCoeffVector.basis(200, 2.0)
        with pytest.raises(NonFiniteError):
            inner_H2nu(f, f)
        with pytest.raises(NonFiniteError):
            f.norm_sq()

    def test_H2nu_quadrature_route(self):
        nu = 2.0
        f = MonomialCoeffVector(nu=nu, coeffs=(1.0, Bicomplex(0.5j, 0.25 + 0j)))
        exact = inner_H2nu(f, f)
        quad = inner_H2nu(f.evaluate, f.evaluate, nu, order=10, vectorized=True)
        assert_bc_close(exact, quad, tol=1e-10 * max(1.0, bc_norm(exact)))

    def test_H2nu_nu_mismatch(self):
        f = MonomialCoeffVector(nu=2.0, coeffs=(1.0,))
        g = MonomialCoeffVector(nu=3.0, coeffs=(1.0,))
        with pytest.raises(DimensionMismatch):
            inner_H2nu(f, g)
        with pytest.raises(DimensionMismatch):
            inner_H2nu(lambda Z: Z, lambda Z: Z)


class TestProjection:
    def test_reproduces_polynomials(self, rng):
        nu = 2.0
        f = MonomialCoeffVector(nu=nu, coeffs=(0.5, Bicomplex(1j, 0j), 0.25))
        Z = rand_bc(rng, 0.5)
        got = project_P(f.evaluate, nu, Z, order=24, vectorized=True)
        assert_bc_close(got, f.evaluate(Z), tol=1e-8)

    def test_annihilates_antiholomorphic(self, rng):
        nu = 2.0
        Z = rand_bc(rng, 0.5)
        got = project_P(lambda W: conj_star(W), nu, Z, order=20, vectorized=True)
        assert bc_norm(got) < 1e-9
