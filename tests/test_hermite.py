import math
import sys

import mpmath as mp
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bctransforms import (
    Bicomplex,
    gauss_hermite,
    generating_G,
    generating_series,
    hermite_norm_sq,
    hermite_sigma,
    hermite_sigma_bc,
    integrate_real,
    monomial_norm_sq,
    normalization_c,
    psi_n,
    psi_values,
)
from bctransforms.errors import NonFiniteError

from conftest import assert_bc_close


def mp_psi(n, sigma, x):
    """psi_n(x) = H_n(sqrt(sigma) x) / sqrt(2**n n!) with mpmath's physicists'
    Hermite polynomial H_n, at 50 digits."""
    with mp.workdps(50):
        t = mp.sqrt(mp.mpf(sigma)) * mp.mpf(x)
        return float(mp.hermite(n, t) / mp.sqrt(mp.mpf(2) ** n * mp.factorial(n)))


def rodrigues(n, sigma):
    """Symbolic (-1)**n e^{s x^2} d^n/dx^n e^{-s x^2}, the defining formula."""
    x = sp.Symbol("x")
    s = sp.nsimplify(sigma, rational=True)
    expr = sp.exp(s * x**2) * sp.diff(sp.exp(-s * x**2), x, n) * (-1) ** n
    return sp.lambdify(x, sp.expand(expr), "numpy")


class TestRecurrenceAgainstRodrigues:
    @pytest.mark.parametrize("sigma", [1.0, 0.5, 2.25])
    @pytest.mark.parametrize("n", range(7))
    def test_matches_symbolic_derivative(self, n, sigma):
        pts = np.array([-1.5, -0.25, 0.0, 0.75, 2.0])
        want = rodrigues(n, sigma)(pts) + 0.0 * pts
        got = hermite_sigma(n, sigma, pts)
        assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_scaling_relation(self):
        # H_n attached to exp(-s x^2) is s**(n/2) times the s=1 polynomial at sqrt(s) x
        sigma = 1.7
        x = np.linspace(-2.0, 2.0, 9)
        for n in range(9):
            lhs = hermite_sigma(n, sigma, x)
            rhs = sigma ** (n / 2.0) * hermite_sigma(n, 1.0, math.sqrt(sigma) * x)
            assert_allclose(lhs, rhs, rtol=1e-12)

    def test_generating_identity_scalar(self):
        # sum H_n(x) t**n / n! = exp(2 sigma x t - sigma t**2)
        sigma, x, t = 1.3, 0.6, 0.35
        total = sum(hermite_sigma(n, sigma, x) * t**n / math.factorial(n) for n in range(40))
        assert_allclose(total, math.exp(2 * sigma * x * t - sigma * t**2), rtol=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            hermite_sigma(-1, 1.0, 0.0)
        with pytest.raises(ValueError):
            hermite_sigma(2, 0.0, 0.0)
        with pytest.raises(ValueError):
            hermite_sigma(2, -1.0, 0.0)


class TestNorms:
    @pytest.mark.parametrize("sigma", [1.0, 1.5])
    @pytest.mark.parametrize("n", range(4))
    def test_weighted_norm_symbolic(self, n, sigma):
        # exact integral of H_n**2 e^{-s x^2} over the line, then the
        # sqrt(s/pi) normalization turns it into 2**n s**n n!
        x = sp.Symbol("x")
        s = sp.nsimplify(sigma, rational=True)
        h = sp.expand(sp.exp(s * x**2) * sp.diff(sp.exp(-s * x**2), x, n) * (-1) ** n)
        raw = sp.integrate(h**2 * sp.exp(-s * x**2), (x, -sp.oo, sp.oo))
        normalized = float(sp.sqrt(s / sp.pi) * raw)
        assert_allclose(normalized, hermite_norm_sq(n, sigma), rtol=1e-13)

    def test_closed_formula(self):
        assert hermite_norm_sq(0, 2.0) == 1.0
        assert hermite_norm_sq(3, 2.0) == (2 * 2.0) ** 3 * 6
        assert_allclose(hermite_norm_sq(10, 0.5), math.factorial(10), rtol=1e-14)

    def test_log_space_branch_continuous(self):
        # with 2 sigma = 1 the norm is the bare factorial, which stays inside
        # float range up to n = 170, straddling the branch switch at 150
        sigma = 0.5
        for n in (149, 150, 151, 160, 170):
            assert_allclose(hermite_norm_sq(n, sigma), float(math.factorial(n)), rtol=1e-12)

    @pytest.mark.parametrize(
        "call, want",
        [
            (lambda: hermite_norm_sq(3, 1e-300), None),  # underflows to 0.0
            # once a bare ZeroDivisionError, then NonFiniteError from the norm;
            # the normalized recurrence never forms the norm
            (lambda: psi_n(3, 1e-300, 0.5), lambda: mp_psi(3, 1e-300, 0.5)),
            (lambda: hermite_norm_sq(200, 1.0), None),  # once a bare OverflowError
            (lambda: psi_values(160, 1.0, 0.5)[-1], lambda: mp_psi(160, 1.0, 0.5)),
        ],
        ids=["norm-underflow", "psi_n-underflow", "norm-overflow", "psi_values-overflow"],
    )
    def test_outside_float_range_raises(self, call, want):
        """A norm outside float range raises; psi_n, which does not divide by
        it, stays finite there and matches mpmath."""
        if want is None:
            with pytest.raises(NonFiniteError):
                call()
        else:
            assert_allclose(call(), want(), rtol=1e-14)

    @pytest.mark.parametrize("c", [2e-3, 0.1, 1.0, 2.0, 20.0])
    def test_norms_against_mpmath(self, c):
        # hermite_norm_sq at sigma = c/2 and monomial_norm_sq at nu = 2/c are
        # both c**n n!; the true value is formed from each function's own
        # float parameter, at 50 digits
        with mp.workdps(50):
            calls = [
                (lambda n: hermite_norm_sq(n, c / 2.0), mp.mpf(2) * mp.mpf(c / 2.0)),
                (lambda n: monomial_norm_sq(n, 2.0 / c), mp.mpf(2) / mp.mpf(2.0 / c)),
            ]
            for call, exact_c in calls:
                for n in range(401):
                    want = exact_c**n * mp.factorial(n)
                    if mp.mpf("1e-300") <= want <= mp.mpf("1e300"):
                        assert abs(call(n) - want) <= 1e-13 * want, (c, n)
                    elif not sys.float_info.min <= want <= sys.float_info.max:
                        with pytest.raises(NonFiniteError):
                            call(n)
                    else:  # near a float limit: the correct value or an error
                        try:
                            got = call(n)
                        except NonFiniteError:
                            continue
                        assert abs(got - want) <= 1e-13 * want, (c, n)

    def test_psi_orthonormal_under_quadrature(self):
        sigma = 2.0
        rule = gauss_hermite(40, sigma)
        c0 = normalization_c(0, sigma)
        for m in range(8):
            for n in range(m, 8):
                val = integrate_real(
                    lambda t, m=m, n=n: psi_n(m, sigma, t) * psi_n(n, sigma, t),
                    rule,
                    vectorized=True,
                )
                got = c0 * complex(val.z1)
                assert_allclose(got, 1.0 if m == n else 0.0, atol=5e-13)

    def test_psi_grows_polynomially(self):
        # the basis functions carry no Gaussian factor of their own
        assert psi_n(3, 1.0, 4.0) > 60.0
        assert psi_n(3, 1.0, 4.0) < 70.0


class TestLadders:
    @pytest.mark.parametrize("sigma, x", [(1.0, 0.5), (1.3, 3.0), (0.5, -7.0)])
    @pytest.mark.parametrize("n", [150, 151, 160, 1000, 5000])
    def test_psi_against_mpmath(self, n, sigma, x):
        # Cramer's bound |psi_k(x)| < exp(sigma x**2 / 2) scales every rung
        scale = math.exp(0.5 * sigma * x * x)
        assert abs(psi_n(n, sigma, x) - mp_psi(n, sigma, x)) <= 1e-13 * scale

    def test_hermite_sigma_beyond_the_norm(self):
        # H_250 = psi_250 / r_250 is finite although its norm 2**250 250! is not
        with mp.workdps(50):
            want = float(mp.hermite(250, mp.mpf(0.5)))
        assert_allclose(hermite_sigma(250, 1.0, 0.5), want, rtol=1e-13)
        with pytest.raises(NonFiniteError):
            hermite_norm_sq(250, 1.0)
        with pytest.raises(NonFiniteError):  # r_280 is below the normal float range
            hermite_sigma(280, 1.0, 0.5)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: psi_values(12, 1.0, 1e30),  # returned inf as its last rung
            lambda: psi_n(12, 1.0, np.array([0.5, 1e30])),
            lambda: hermite_sigma(12, 1.0, 1e30),
            lambda: hermite_sigma_bc(12, 1.0, Bicomplex(1e30, 0.0)),
        ],
        ids=["psi_values", "psi_n-array", "hermite_sigma", "hermite_sigma_bc"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_value_raises(self, call):
        with pytest.raises(NonFiniteError):
            call()

    def test_psi_values_matches_psi_n(self):
        sigma = 1.4
        x = np.array([-1.0, 0.3, 2.2])
        ladder = psi_values(12, sigma, x)
        assert len(ladder) == 13
        for n, row in enumerate(ladder):
            assert_allclose(row, psi_n(n, sigma, x), rtol=1e-12)

    def test_scalar_input_gives_scalars(self):
        ladder = psi_values(4, 1.0, 0.5)
        assert all(np.ndim(v) == 0 for v in ladder)


class TestBicomplexArgument:
    def test_channelwise_evaluation(self, rng):
        sigma = 1.2
        Z = Bicomplex.from_reals(*rng.standard_normal(4))
        for n in range(7):
            got = hermite_sigma_bc(n, sigma, Z)
            ha = rodrigues(n, sigma)(Z.alpha)
            hb = rodrigues(n, sigma)(Z.beta)
            want = Bicomplex.from_channels(complex(ha), complex(hb))
            assert_bc_close(got, want, tol=1e-10 * max(1.0, abs(ha), abs(hb)))

    def test_real_argument_embeds(self):
        got = hermite_sigma_bc(4, 1.0, 2.5)
        assert_allclose(got.z1, hermite_sigma(4, 1.0, 2.5), rtol=1e-14)
        assert_allclose(got.z2, 0.0, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        b=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        n=st.integers(0, 15),
        sigma=st.floats(0.25, 2.0),
    )
    def test_ladder_is_channelwise(self, a, b, n, sigma):
        got = hermite_sigma_bc(n, sigma, Bicomplex.from_channels(a, b))
        # |H_n(i r)| bounds every term of the recurrence at |x| <= r, so it
        # scales the rounding error of either channel
        scale = abs(hermite_sigma(n, sigma, 1j * max(abs(a), abs(b))))
        tol = 1e-12 * scale + 1e-300
        assert abs(got.alpha - hermite_sigma(n, sigma, a)) <= tol
        assert abs(got.beta - hermite_sigma(n, sigma, b)) <= tol


class TestGeneratingFunction:
    def test_closed_vs_library_series(self, rng):
        sigma, nu = 1.0, 2.0
        for _ in range(5):
            Z = Bicomplex.from_reals(*(0.4 * rng.standard_normal(4)))
            x = float(rng.uniform(-1.5, 1.5))
            closed = generating_G(sigma, nu, x, Z)
            series = generating_series(sigma, nu, x, Z, n_terms=60)
            assert_bc_close(closed, series, tol=1e-12)

    def test_closed_vs_channel_series(self):
        # hand-rolled channel sum, independent of the library's series code
        sigma, nu, x = 1.5, 2.5, 0.8
        Z = Bicomplex.from_channels(0.3 - 0.4j, -0.2 + 0.5j)
        for channel in (np.conj(Z.alpha), np.conj(Z.beta)):
            acc = 0j
            for n in range(60):
                term = hermite_sigma(n, sigma, x) * channel**n
                term /= math.sqrt(hermite_norm_sq(n, sigma))
                term /= math.sqrt(2.0**n * math.factorial(n) / nu**n)
                acc += term
            closed = np.exp(-0.25 * nu * channel**2 + math.sqrt(sigma * nu) * x * channel)
            assert_allclose(acc, closed, rtol=1e-13)

    def test_at_zero_argument(self):
        G = generating_G(1.0, 2.0, 0.7, Bicomplex(0j, 0j))
        assert_bc_close(G, Bicomplex(1 + 0j, 0j), tol=0.0)

    def test_array_x(self):
        x = np.linspace(-1.0, 1.0, 5)
        Z = Bicomplex(0.2 + 0.1j, -0.05j)
        G = generating_G(1.0, 2.0, x, Z)
        assert G.z1.shape == (5,)
        single = generating_G(1.0, 2.0, float(x[3]), Z)
        assert_allclose(G.z1[3], single.z1, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            generating_G(0.0, 2.0, 0.0, Bicomplex(0j, 0j))
        with pytest.raises(ValueError):
            generating_series(1.0, 2.0, 0.0, Bicomplex(0j, 0j), n_terms=0)
