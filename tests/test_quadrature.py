import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from bctransforms import (
    Bicomplex,
    HermiteCoeffVector,
    ThetaParam,
    as_bicomplex,
    conj_dagger,
    frft_apply,
    frft_inverse,
    frft_kernel,
    gauss_hermite,
    generating_G,
    inner_H2nu,
    inner_L2sigma,
    integrate_bicomplex,
    integrate_complex,
    integrate_real,
    kernel_K_BC,
    normalization_c,
    project_P,
    s_transform,
    sbt_forward_integral,
    sbt_inverse_integral,
    sbt_kernel_BC,
)
from bctransforms import bargmann, quadrature
from bctransforms import bicomplex as bc
from bctransforms.errors import ConvergenceError, DomainError, NonFiniteError
from bctransforms.quadrature import DEFAULT_BC_ORDER, DEFAULT_ORDER, QuadratureRule

#: orders whose rules are compared with numpy's hermgauss
_ORACLE_ORDERS = (*range(1, 301), 500, 999, 1000, 1001, 2000)


def scalar(result):
    assert isinstance(result, Bicomplex)
    assert result.z2 == 0j
    return result.z1


class TestRuleConstruction:
    def test_order_one_is_midpoint(self):
        rule = gauss_hermite(1, 1.0)
        assert_allclose(rule.nodes, [0.0])
        assert_allclose(rule.weights, [math.sqrt(math.pi)])

    def test_symmetry_is_exact(self):
        for order in _ORACLE_ORDERS:
            rule = gauss_hermite(order, 1.0)
            assert_allclose(rule.nodes, -rule.nodes[::-1], rtol=0, atol=0, err_msg=f"order {order}")
            assert_allclose(rule.weights, rule.weights[::-1], rtol=0, atol=0, err_msg=f"order {order}")

    def test_against_numpy_hermgauss(self):
        # an independent construction: numpy's companion-matrix eigenvalues
        # after one Newton step; from order 999 its outermost nodes are NaN
        # and from order 500 its weights overflow, so only its finite values
        # (weights above 1e-280) are compared
        for order in _ORACLE_ORDERS:
            rule = gauss_hermite(order, 1.0)
            with np.errstate(all="ignore"):
                nodes, weights = np.polynomial.hermite.hermgauss(order)
            finite = np.isfinite(nodes)
            assert 2 * finite.sum() >= order, order
            node_err = np.abs(rule.nodes[finite] - nodes[finite]) / np.maximum(1.0, np.abs(nodes[finite]))
            assert node_err.max() <= 1e-14, (order, node_err.max())
            kept = np.isfinite(weights) & (weights > 1e-280)
            weight_err = np.abs(rule.weights[kept] - weights[kept]) / weights[kept]
            assert weight_err.max(initial=0.0) <= 1e-12, (order, weight_err.max())

    @pytest.mark.parametrize("start", [1.0, 0.0], ids=["all-equal", "all-zero"])
    @pytest.mark.parametrize("order", [8, 9, 64])
    def test_degenerate_start_fails_closed(self, monkeypatch, order, start):
        # Newton from equal first guesses takes every node to one root (not
        # strictly increasing); from 0 it divides by psi_{n-1}(0) = 0 at an
        # even order (NaN) and stays on the root 0 at an odd one; the uncached
        # construction is called, so the rule cache is not touched
        monkeypatch.setattr(quadrature, "_initial_nodes", lambda n: np.full(n // 2, start))
        with pytest.raises(ConvergenceError, match=f"order {order} did not converge"):
            quadrature._standard_rule.__wrapped__(order)

    def test_gamma_scaling(self):
        base = gauss_hermite(16, 1.0)
        scaled = gauss_hermite(16, 4.0)
        assert_allclose(scaled.nodes, base.nodes / 2.0)
        assert_allclose(scaled.weights, base.weights / 2.0)

    def test_invalid_args(self):
        # an order that is not an int >= 1 (a bool, a float, a str) is refused
        for order in (0, -3, True, 2.5, "8"):
            with pytest.raises(ValueError) as info:
                gauss_hermite(order)
            assert type(info.value) is DomainError
        with pytest.raises(ValueError):
            gauss_hermite(8, 0.0)
        with pytest.raises(ValueError):
            gauss_hermite(8, -1.0)
        assert gauss_hermite(np.int64(8)).order == 8

    def test_rule_arrays_read_only(self):
        rule = gauss_hermite(8, 2.0)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    @pytest.mark.parametrize("order", [2, 7, 64, 65, 128, 256, 999, 1000, 1001])
    def test_weights_against_mpmath(self, order):
        # reference: the root of H_n refined by Newton from the float node at
        # 40 digits, and its weight 2**(n-1) n! sqrt(pi) / (n H_{n-1}(x))**2;
        # eigenvector weights are off by 1e44 at order 128 in the tail; at an
        # odd order the first sampled node is the root 0
        rule = gauss_hermite(order, 1.0)
        n = order
        with mp.workdps(40):
            for i in sorted(set(np.linspace(n // 2, n - 1, 8).astype(int))):
                x = mp.mpf(rule.nodes[i])
                for _ in range(8):
                    h_prev, h = _mp_hermite_pair(n, x)
                    x -= h / (2 * n * h_prev)  # H_n' = 2n H_{n-1}
                assert abs(rule.nodes[i] - x) <= 1e-14 * max(1, abs(x)), (n, i, rule.nodes[i], x)
                want = mp.mpf(2) ** (n - 1) * mp.factorial(n) * mp.sqrt(mp.pi) / (n * _mp_hermite_pair(n, x)[0]) ** 2
                got = rule.weights[i]
                if want > mp.mpf("1e-300"):
                    assert abs(got - want) <= 1e-12 * want, (n, i, got, want)
                else:  # below 1e-300 the weight underflows; it must not be garbage
                    assert got <= 1e-290, (n, i, got, want)

    def test_defaults_exported(self):
        assert DEFAULT_ORDER == 64
        assert DEFAULT_BC_ORDER == 24


class TestRealIntegrals:
    @pytest.mark.parametrize("gamma", [1.0, 0.5, 3.25])
    def test_gaussian_mass(self, gamma):
        rule = gauss_hermite(32, gamma)
        got = scalar(integrate_real(lambda t: 1.0, rule))
        assert_allclose(got, math.sqrt(math.pi / gamma), rtol=1e-14)

    def test_even_moments_exact(self):
        # integral t**(2k) e^{-g t**2} dt = sqrt(pi/g) (2k-1)!! / (2g)**k
        gamma = 1.75
        rule = gauss_hermite(24, gamma)
        expect = math.sqrt(math.pi / gamma)
        for k in range(12):
            if k > 0:
                expect *= (2 * k - 1) / (2 * gamma)
            got = scalar(integrate_real(lambda t, k=k: t ** (2 * k), rule))
            assert_allclose(got, expect, rtol=1e-13)

    def test_odd_moments_vanish(self):
        rule = gauss_hermite(24, 1.0)
        for k in (1, 3, 9):
            got = scalar(integrate_real(lambda t, k=k: t**k, rule))
            assert abs(got) < 1e-14

    def test_polynomial_exactness_degree(self):
        # an n-point rule integrates degree 2n-1 exactly but not degree 2n
        rule = gauss_hermite(3, 1.0)
        got5 = scalar(integrate_real(lambda t: t**4, rule))
        assert_allclose(got5, 0.75 * math.sqrt(math.pi), rtol=1e-14)
        got6 = scalar(integrate_real(lambda t: t**6, rule))
        assert abs(got6 - 15 / 8 * math.sqrt(math.pi)) > 1e-3

    @pytest.mark.parametrize(
        "integrate",
        [
            lambda f: integrate_real(lambda t: f(t), gauss_hermite(8, 1.0)),
            lambda f: integrate_complex(lambda xi: f(xi.real), gauss_hermite(8, 1.0)),
            lambda f: integrate_bicomplex(lambda Z: f(Z.alpha.real), 2.0, gauss_hermite(8, 1.0)),
        ],
        ids=["real", "complex", "bicomplex"],
    )
    def test_non_broadcasting_integrand_raises(self, integrate):
        # a scalar-only function, a truth-value branch, a return shape that
        # does not broadcast with the nodes and one that broadcasts past them
        # are each refused with DomainError
        for f in (math.exp, lambda t: 1.0 if t > 0 else 0.0, lambda t: np.ones(3), lambda t: t[:, None] * 0 + 1.0):
            with pytest.raises(ValueError) as info:
                integrate(f)
            assert type(info.value) is DomainError
            assert "broadcast" in str(info.value)

        # an error of the package raised inside the integrand keeps its type
        def overflowing(t):
            return kernel_K_BC(2.0, Bicomplex(400.0, 0j), Bicomplex.from_channels(400.0 + 0 * t, 0j))

        with pytest.raises(NonFiniteError, match="outside float range"):
            integrate(overflowing)

    def test_bicomplex_valued_integrand(self):
        rule = gauss_hermite(16, 1.0)
        out = integrate_real(lambda t: Bicomplex(t**2 + 0j, 1j + 0 * t), rule)
        assert_allclose(out.z1, 0.5 * math.sqrt(math.pi), rtol=1e-14)
        assert_allclose(out.z2, 1j * math.sqrt(math.pi), rtol=1e-14)

    def test_nonfinite_raises(self):
        rule = gauss_hermite(8, 1.0)
        with pytest.raises(NonFiniteError):
            integrate_real(lambda t: math.nan, rule)
        with pytest.raises(NonFiniteError):
            integrate_real(lambda t: np.exp(t) * np.inf, rule, vectorized=True)


class TestComplexIntegrals:
    def test_planar_mass(self):
        gamma = 2.5
        rule = gauss_hermite(20, gamma)
        got = scalar(integrate_complex(lambda xi: 1.0, rule, vectorized=True))
        assert_allclose(got, math.pi / gamma, rtol=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_holomorphic_moment(self, n):
        # integral |xi|**(2n) e^{-g|xi|^2} dlambda = (pi/g) n! / g**n
        gamma = 1.5
        rule = gauss_hermite(24, gamma)
        got = scalar(
            integrate_complex(lambda xi: (xi * np.conj(xi)) ** n, rule, vectorized=True)
        )
        expect = math.pi / gamma * math.factorial(n) / gamma**n
        assert_allclose(got, expect, rtol=1e-12)

    def test_mixed_monomials_orthogonal(self):
        rule = gauss_hermite(24, 1.0)
        got = scalar(
            integrate_complex(lambda xi: xi**3 * np.conj(xi) ** 1, rule, vectorized=True)
        )
        assert abs(got) < 1e-13


class TestBicomplexIntegrals:
    def test_ring_mass(self):
        nu = 2.0
        rule = gauss_hermite(10, nu / 2.0)
        got = scalar(integrate_bicomplex(lambda Z: 1.0, nu, rule, vectorized=True))
        # quarter of the iterated planar mass, each channel carrying gamma=nu/2
        assert_allclose(got, (math.pi / (nu / 2.0)) ** 2 / 4.0, rtol=1e-12)
        assert_allclose(got * normalization_c("BC", nu), 1.0, rtol=1e-12)

    def test_norm_sq_moment(self):
        # E|Z|^2 under the channel Gaussians: |Z|^2 = (|a|^2+|b|^2)/2, each
        # channel contributes (pi/g)(1/g) relative to mass, g = nu/2
        nu = 3.0
        g = nu / 2.0
        rule = gauss_hermite(12, g)
        mass = scalar(integrate_bicomplex(lambda Z: 1.0, nu, rule, vectorized=True))
        mom = scalar(integrate_bicomplex(_normsq, nu, rule, vectorized=True))
        assert_allclose(mom / mass, 1.0 / g, rtol=1e-12)

    def test_gamma_mismatch_rejected(self):
        rule = gauss_hermite(8, 1.0)
        with pytest.raises(ValueError) as info:
            integrate_bicomplex(lambda Z: 1.0, 3.0, rule)
        assert type(info.value) is DomainError


_Z0 = Bicomplex(0.3 + 0.2j, -0.1 + 0.4j)


def _normsq(Z):
    a, b = Z.alpha, Z.beta
    return ((a * np.conj(a)).real + (b * np.conj(b)).real) / 2.0


def _channelwise(W):
    return kernel_K_BC(2.0, _Z0, W) * W**3


def _mixed(Z):
    """Not channelwise: each channel depends on both alpha and beta.  Works
    on scalar and array channels alike."""
    a, b = Z.alpha * Z.alpha.conjugate(), Z.beta * Z.beta.conjugate()
    return Bicomplex.from_channels(a * (1 + b) + Z.alpha, b * (1 + 2 * a))


_SIGMA = 1.3
_RING_POINTS = Bicomplex(np.array([0.3 + 0.2j, -0.5j, 0.1 - 0.4j]), np.array([-0.1 + 0.4j, 0.6, 0.2 + 0.3j]))


def _with_point(alpha, beta):
    """``_RING_POINTS`` and one more point of channels ``alpha``, ``beta``."""
    return Bicomplex.from_channels(np.append(_RING_POINTS.alpha, alpha), np.append(_RING_POINTS.beta, beta))


#: each planar kernel form at nu = 2: call(f, points, order), whether it sums
#: the ring, its kernel at one point on the materialized grid W, whether that
#: kernel has a quadratic term (a != 0), and its points given the |b| at which
#: |b| times the largest node is 300
_KERNEL_FORMS = {
    "project_P": (
        lambda f, Z, order: project_P(f, 2.0, Z, order=order), True,
        lambda Z, W: kernel_K_BC(2.0, Z, W), False, lambda big: _with_point(big, 0.3),
    ),
    "s_transform": (
        lambda f, Z, order: s_transform(lambda xi: f(Bicomplex.from_complex(xi)), 2.0, Z, order=order), False,
        lambda Z, W: kernel_K_BC(2.0, Z, W), False, lambda big: _with_point(0.2 - 0.1j, big * 1j),
    ),
    "sbt_inverse_integral.split": (
        lambda f, x, order: sbt_inverse_integral(f, _SIGMA, 2.0, x, order=order), False,
        lambda x, W: generating_G(_SIGMA, 2.0, x, W), True,
        lambda big: np.array([0.4, -0.9, 1.5, -big / math.sqrt(2 * _SIGMA)]),
    ),
    "sbt_inverse_integral.tensor": (
        lambda f, x, order: sbt_inverse_integral(f, _SIGMA, 2.0, x, order=order, method="tensor"), True,
        lambda x, W: generating_G(_SIGMA, 2.0, x, W), True,
        lambda big: np.array([0.4, -0.9, 1.5, big / math.sqrt(2 * _SIGMA)]),
    ),
}


_LINE_THETA = ThetaParam.from_phases(0.9, 2.2)

#: each line kernel form at sigma = 1.3, nu = 2: call(f, points, order), its rule
#: weight gamma, its public closed-form kernel K(t, p) at nodes t, and its points
_LINE_KERNEL_FORMS = {
    "frft_apply": (
        lambda f, y, order: frft_apply(f, _LINE_THETA, y, sigma=_SIGMA, order=order), _SIGMA / 2,
        lambda t, y: frft_kernel(_SIGMA, _LINE_THETA, t, y), np.array([0.0, 0.4, -0.9, 1.7]),
    ),
    "sbt_forward_integral": (
        lambda f, Z, order: sbt_forward_integral(f, _SIGMA, 2.0, Z, order=order), _SIGMA,
        lambda t, Z: sbt_kernel_BC(_SIGMA, 2.0, t, Z), _RING_POINTS,
    ),
}

#: line integrands: an expansion in the psi basis, and one whose channels differ
_LINE_INTEGRANDS = {
    "hermite": HermiteCoeffVector(_SIGMA, [0.3, -1.0 + 0.2j, 0.0, 0.5j]).evaluate,
    "channels": lambda t: Bicomplex.from_channels(np.cos(t) + 1j * t, t**3 - 0.5),
}


def _assert_channels_close(got, want, rtol, atol=0.0):
    assert_allclose(complex(got.alpha), complex(want.alpha), rtol=rtol, atol=atol)
    assert_allclose(complex(got.beta), complex(want.beta), rtol=rtol, atol=atol)


def _pointwise_ring_sum(f, rule):
    """The ring integral as an iterated sum with one call of ``f`` per grid
    point on scalar channels: an oracle independent of the block path."""
    xi = (rule.nodes[:, None] + 1j * rule.nodes[None, :]).ravel().tolist()
    w2 = (rule.weights[:, None] * rule.weights[None, :]).ravel().tolist()
    acc_a = acc_b = 0j
    for alpha, w_alpha in zip(xi, w2):
        row_a = row_b = 0j
        for beta, w_beta in zip(xi, w2):
            v = as_bicomplex(f(Bicomplex.from_channels(alpha, beta)))
            row_a += w_beta * complex(v.alpha)
            row_b += w_beta * complex(v.beta)
        acc_a += w_alpha * row_a
        acc_b += w_alpha * row_b
    return 0.25 * Bicomplex.from_channels(acc_a, acc_b)


class TestBlockedRingGrid:
    """The ring integrator evaluates blocks of whole alpha rows, each an
    outer product: alpha a (rows, 1) column, beta the (1, n**2) row.  A
    mixing integrand gets blocks of at most 8192 points (41 full blocks of 14
    rows and a last one of 2 rows at order 24); a channelwise one shows its
    shape on the first block (at least 2 rows) and gets the rest in one call."""

    @pytest.mark.parametrize(
        "order, f, atol",
        # the channelwise integral's beta channel is 5e-3 against terms of
        # order 1, so it is compared at the scale of its terms
        [(7, _mixed, 0.0), (24, _mixed, 0.0), (7, _channelwise, 1e-14), (12, _channelwise, 1e-14)],
        ids=["7", "24", "channelwise-7", "channelwise-12"],
    )
    def test_matches_pointwise_loop(self, order, f, atol):
        rule = gauss_hermite(order, 1.0)
        got = integrate_bicomplex(f, 2.0, rule)
        _assert_channels_close(got, _pointwise_ring_sum(f, rule), 1e-14, atol)

    @pytest.mark.parametrize("order", [7, 24, 91])
    def test_matches_separable_sums(self, order):
        # _mixed is a sum of products g(alpha) h(beta) in each channel, so
        # the grid sum is a sum of products of planar sums under the same rule
        rule = gauss_hermite(order, 1.0)

        def planar(g):
            return integrate_complex(g, rule, vectorized=True).alpha

        m0 = planar(lambda xi: np.ones_like(xi))
        m1 = planar(lambda xi: xi * xi.conjugate())
        mean = planar(lambda xi: xi)
        want = Bicomplex.from_channels(0.25 * (m1 * (m0 + m1) + mean * m0), 0.25 * m1 * (m0 + 2 * m1))
        got = integrate_bicomplex(_mixed, 2.0, rule, vectorized=True)
        _assert_channels_close(got, want, 1e-14)

    def test_scalar_integrand_gives_unit_mass(self):
        nu = 2.0
        rule = gauss_hermite(DEFAULT_BC_ORDER, nu / 2.0)
        got = integrate_bicomplex(lambda Z: 1.0, nu, rule, vectorized=True)
        assert_allclose(scalar(got) * normalization_c("BC", nu), 1.0, rtol=1e-13)

    def test_call_structure_at_order_24(self):
        # a channelwise f gets a first block of 14 rows and then the other
        # 562 in one call; a mixing f (z1) gets 41 blocks of 14 rows and one of 2
        for f, alphas in (
            (lambda Z: Z.alpha * 0 + 1.0, [(14, 1), (562, 1)]),
            (lambda Z: Z.z1, [(14, 1)] * 41 + [(2, 1)]),
        ):
            seen, betas = [], []

            def spy(Z):
                seen.append(Z.alpha.shape)
                betas.append(Z.beta.shape)
                return f(Z)

            integrate_bicomplex(spy, 2.0, gauss_hermite(24, 1.0), vectorized=True)
            assert seen == alphas
            assert betas == [(1, 24**2)] * len(alphas)

    @pytest.mark.parametrize(
        "form, n_points",
        [
            (lambda f: project_P(f, 2.0, _Z0), 24**4),
            (lambda f: inner_H2nu(f, lambda W: W, 2.0), 24**4),
            (lambda f: inner_L2sigma(f, lambda t: t, 1.0), DEFAULT_ORDER),
        ],
        ids=["project_P", "inner_H2nu", "inner_L2sigma"],
    )
    def test_integral_forms_call_the_integrand_on_blocks(self, form, n_points):
        # with their default arguments: a mixing integrand (z1) reaches f in
        # at most 42 blocks at order 24, and in one call on the line
        sizes = []

        def f(X):
            X = as_bicomplex(X)
            sizes.append(np.broadcast(X.alpha, X.beta).size)
            return X.z1

        form(f)
        assert len(sizes) <= 42
        assert sum(sizes) == n_points

    def test_first_block_has_two_rows_at_order_91(self):
        # one row alone is 91**2 > 8192 points, and one row cannot tell a
        # channelwise (1, n**2) beta channel from a mixing (1, n**2) block;
        # the mixing run is stopped after four of its 8280 calls
        seen = []

        def spy(Z, f):
            seen.append(Z.alpha.shape)
            if len(seen) > 3:
                raise RuntimeError("stop")
            return f(Z)

        rule = gauss_hermite(91, 1.0)
        integrate_bicomplex(lambda Z: spy(Z, bc.exp), 2.0, rule, vectorized=True)
        assert seen == [(2, 1), (91**2 - 2, 1)]
        seen.clear()
        with pytest.raises(RuntimeError, match="stop"):
            integrate_bicomplex(lambda Z: spy(Z, bc.norm), 2.0, rule, vectorized=True)
        assert seen == [(2, 1), (1, 1), (1, 1), (1, 1)]

    # at order 12 a channelwise f takes a first block of 56 rows and then the
    # other 88 in one call
    @pytest.mark.parametrize("order", [7, 12, 24])
    @pytest.mark.parametrize(
        "f",
        [
            _channelwise,
            lambda W: conj_dagger(W) * W,  # swaps the channels, then mixes them
            bc.norm,  # mixes the channels
            _mixed,
        ],
        ids=["kernel-times-power", "dagger-product", "norm", "mixed"],
    )
    def test_near_exact_grid_sum(self, order, f):
        # the exactly rounded sum of w * f over the materialized grid; the
        # regrouped sums may differ from it only by rounding, which stays
        # within 2**-50 of the sum of |w * f| in each channel
        rule = gauss_hermite(order, 1.0)
        xi = (rule.nodes[:, None] + 1j * rule.nodes[None, :]).ravel()
        w2 = (rule.weights[:, None] * rule.weights[None, :]).ravel()
        values = as_bicomplex(f(Bicomplex.from_channels(np.repeat(xi, len(xi)), np.tile(xi, len(xi)))))
        w = np.outer(w2, w2).ravel()
        got = integrate_bicomplex(f, 2.0, rule, vectorized=True)
        for channel, total in ((values.alpha, got.alpha), (values.beta, got.beta)):
            terms = w * channel
            exact = complex(math.fsum(terms.real), math.fsum(terms.imag))
            assert abs(4 * complex(total) - exact) <= 2.0**-50 * math.fsum(np.abs(terms))

    @pytest.mark.parametrize("order", [7, 12])
    @pytest.mark.parametrize(
        "form, f",
        [(form, f) for form in _KERNEL_FORMS for f in (_channelwise, _mixed)],
        ids=[
            ("" if form == "project_P" else f"{form}-") + name
            for form in _KERNEL_FORMS for name in ("kernel-times-power", "mixed")
        ],
    )
    def test_near_exact_kernel_weighted_sum(self, order, form, f):
        # each kernel form weights its grid by its kernel at each point: on the
        # ring the alpha channel by the alpha node and the beta channel by the
        # beta node, on the plane both channels by the one node.  Its factored
        # sum may differ from the exactly rounded sum of w K f over the
        # materialized grid only by rounding, within 2**-50 of the sum of
        # |w K f| in each channel (nu = 2: the rule at gamma 1, constant 1/pi
        # per plane).  The last point puts |b| times the largest node at 300,
        # so that the factors exp(b u) span e**-300 to e**300.  There a kernel
        # with a quadratic term, exp(E) with E = a conj(xi)**2 + b conj(xi), is
        # known from its closed form only to |E| 2**-53: the closed form
        # rounds the sum E, the factored sum its two parts, and exp turns
        # either rounding into that relative error.  So at that point the bound
        # takes 2**-53 |w K f| |log |K|| more per term where a != 0.
        call, ring, kernel, quadratic, points = _KERNEL_FORMS[form]
        rule = gauss_hermite(order, 1.0)
        xi = (rule.nodes[:, None] + 1j * rule.nodes[None, :]).ravel()
        w2 = (rule.weights[:, None] * rule.weights[None, :]).ravel() / math.pi
        if ring:
            W = Bicomplex.from_channels(np.repeat(xi, len(xi)), np.tile(xi, len(xi)))
            w = np.outer(w2, w2).ravel()
        else:
            W, w = Bicomplex.from_complex(xi), w2
        values = as_bicomplex(f(W))
        P = points(300.0 / rule.nodes[-1])
        got = call(f, P, order)
        for k in range(len(got.alpha)):
            K = kernel(P[k], W)
            for k_ch, f_ch, total in ((K.alpha, values.alpha, got.alpha[k]), (K.beta, values.beta, got.beta[k])):
                terms = w * (k_ch * f_ch)
                exact = complex(math.fsum(terms.real), math.fsum(terms.imag))
                last = quadratic and k == len(got.alpha) - 1
                rounding = math.fsum(np.abs(terms) * np.abs(np.log(np.abs(k_ch)))) if last else 0.0
                assert abs(complex(total) - exact) <= 2.0**-50 * math.fsum(np.abs(terms)) + 2.0**-53 * rounding

    @pytest.mark.parametrize(
        "form, order",
        [("frft_apply", 7), ("frft_apply", 12), ("frft_apply", 96), ("sbt_forward_integral", 7),
         ("sbt_forward_integral", 12)],
    )
    @pytest.mark.parametrize("f", list(_LINE_INTEGRANDS))
    def test_near_exact_line_kernel_weighted_sum(self, form, order, f):
        # each line form sums its public closed form K over the real nodes of a
        # rule at its gamma, with the rule's Gaussian exp(-gamma t**2) divided
        # back out of the weights; its sum may differ from the exactly rounded
        # sum of w exp(gamma t**2) K f only by rounding, within 2**-50 of the
        # sum of |w exp(gamma t**2) K f| in each channel
        call, gamma, kernel, points = _LINE_KERNEL_FORMS[form]
        rule = gauss_hermite(order, gamma)
        t, w = rule.nodes, rule.weights * np.exp(gamma * rule.nodes**2)
        values = as_bicomplex(_LINE_INTEGRANDS[f](t))
        got = call(_LINE_INTEGRANDS[f], points, order)
        for k in range(len(got.alpha)):
            K = kernel(t, points[k])
            for k_ch, f_ch, total in ((K.alpha, values.alpha, got.alpha[k]), (K.beta, values.beta, got.beta[k])):
                terms = w * (k_ch * f_ch)
                exact = complex(math.fsum(terms.real), math.fsum(terms.imag))
                assert abs(complex(total) - exact) <= 2.0**-50 * math.fsum(np.abs(terms))

    def test_channelwise_exp_runs_once_per_node(self, monkeypatch):
        seen = []

        def spy(a, b, z, w):  # called once per channel
            seen.append(np.broadcast(z, w).size)
            return formula(a, b, z, w)

        formula = bargmann._planar_exponential
        monkeypatch.setattr(bargmann, "_planar_exponential", spy)
        integrate_bicomplex(_channelwise, 2.0, gauss_hermite(24, 1.0), vectorized=True)
        # rows alpha values and 576 beta values per call, not rows * 576 each
        assert [a + b for a, b in zip(seen[::2], seen[1::2], strict=True)] == [14 + 576, 562 + 576]

    def test_nan_in_last_block_raises(self):
        rule = gauss_hermite(24, 1.0)
        last_alpha = complex(rule.nodes[-1], rule.nodes[-1])
        # a channelwise integrand reaches the last row in its second call, a
        # mixing one in its 42nd
        for fill, n_calls in ((lambda Z: 1.0, 2), (lambda Z: Z.z1, 42)):
            calls = []

            def f(Z):
                calls.append(1)
                return np.where(Z.alpha == last_alpha, np.nan, fill(Z))

            with pytest.raises(NonFiniteError):
                integrate_bicomplex(f, 2.0, rule, vectorized=True)
            assert len(calls) == n_calls


def _mp_hermite_pair(n, x):
    """(H_{n-1}(x), H_n(x)) by the physicists' recurrence, at mpmath precision."""
    h_prev, h = mp.mpf(1), 2 * x
    for k in range(1, n):
        h_prev, h = h, 2 * x * h - 2 * k * h_prev
    return h_prev, h


_POINTS = Bicomplex.from_channels(np.array([0.0, 0.3 - 0.2j, -0.5j]), np.array([0.0, 0.1 + 0.4j, 0.6]))
_REAL_POINTS = np.array([0.0, 0.4, -0.9])
_THETA = ThetaParam.from_phases(0.9, 2.2)

#: each integral form with sigma = nu = w at a few points, and its tolerance on the constant 1
_ONE_TO_ONE = {
    "project_P": (lambda f, w: project_P(f, w, _POINTS), 1e-13),
    "s_transform": (lambda f, w: s_transform(f, w, _POINTS), 1e-13),
    "inner_L2sigma": (lambda f, w: inner_L2sigma(f, f, w), 1e-13),
    "inner_H2nu": (lambda f, w: inner_H2nu(f, f, w), 1e-13),
    "sbt_forward_integral": (lambda f, w: sbt_forward_integral(f, w, w, _POINTS), 1e-13),
    "sbt_inverse_integral.split": (lambda f, w: sbt_inverse_integral(f, w, w, _REAL_POINTS), 1e-13),
    "sbt_inverse_integral.tensor": (
        lambda f, w: sbt_inverse_integral(f, w, w, _REAL_POINTS, order=24, method="tensor"), 1e-11),
    "frft_apply": (lambda f, w: frft_apply(f, _THETA, _REAL_POINTS, sigma=w), 1e-13),
    "frft_inverse": (lambda f, w: frft_inverse(f, _THETA, _REAL_POINTS, sigma=w), 1e-13),
}


class TestNormalization:
    def test_values(self):
        assert_allclose(normalization_c(0, 2.0), math.sqrt(2.0 / math.pi))
        assert_allclose(normalization_c(1, 2.0), 2.0 / math.pi)
        assert_allclose(normalization_c(2, 2.0), (2.0 / math.pi) ** 2)
        assert normalization_c("BC", 2.0) == normalization_c(2, 2.0)

    def test_planar_constant_normalizes_mass(self):
        gamma = 1.25
        rule = gauss_hermite(16, gamma)
        mass = scalar(integrate_complex(lambda xi: 1.0, rule, vectorized=True))
        assert_allclose(normalization_c(1, gamma) * mass, 1.0, rtol=1e-13)

    def test_invalid(self):
        with pytest.raises(ValueError):
            normalization_c(0, 0.0)
        with pytest.raises(ValueError):
            normalization_c(3, 1.0)
        with pytest.raises(ValueError):
            normalization_c("XY", 1.0)

    @pytest.mark.parametrize("tag", [3, "XY", None])
    def test_unknown_tag_is_domain_error(self, tag):
        with pytest.raises(DomainError, match="unsupported dimension tag"):
            normalization_c(tag, 1.0)

    @pytest.mark.parametrize("w", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("form", list(_ONE_TO_ONE))
    def test_every_form_maps_one_to_one(self, form, w):
        # each form integrates against a unit-mass Gaussian, and the constant 1
        # is psi_0 on the line and e_0 on the ring, which every transform keeps
        call, tol = _ONE_TO_ONE[form]
        got = call(lambda X: 1.0, w)
        assert np.max(bc.norm(got - 1.0)) <= tol


class TestRuleDataclass:
    def test_frozen(self):
        rule = gauss_hermite(4)
        with pytest.raises(AttributeError):
            rule.gamma = 2.0

    def test_fields(self):
        rule = QuadratureRule(gamma=1.0, nodes=np.zeros(1), weights=np.ones(1))
        assert rule.gamma == 1.0
