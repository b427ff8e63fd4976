"""Integral forms over arrays of points: one kernel-weighted quadrature sum."""

import tracemalloc

import numpy as np
import pytest

from bctransforms import (
    Bicomplex,
    HermiteCoeffVector,
    MonomialCoeffVector,
    ThetaParam,
    ck_frft_kernel,
    frft_apply,
    frft_inverse,
    frft_kernel,
    generating_G,
    generating_series,
    hermite_sigma,
    mehler_bilinear_bc,
    mehler_closed,
    mehler_series,
    project_P,
    psi_values,
    s_transform,
    sbt_forward_integral,
    sbt_inverse_integral,
    sbt_kernel_BC,
    sbt_kernel_C,
)
from bctransforms import norm as bc_norm
from bctransforms.errors import DomainError

SIGMA, NU = 1.3, 1.7
THETA = ThetaParam.from_phases(0.9, 2.2)
HERMITE = HermiteCoeffVector(SIGMA, [0.3, -1.0 + 0.2j, 0.0, 0.5j])
MONOMIAL = MonomialCoeffVector(NU, [1.0, 0.5 - 0.25j, 0.2, 0.3j])


def _ring_points(shape, seed=1):
    z = np.random.default_rng(seed).normal(0.0, 0.4, (4, *shape))
    return Bicomplex(z[0] + 1j * z[1], z[2] + 1j * z[3])


def _line_points(shape, seed=1):
    return np.random.default_rng(seed).uniform(-1.5, 1.5, shape)


# (form(f, points), integrand, point sampler, the grid f is called on); each
# form is called with its default order, except where noted
FORMS = {
    "sbt_forward_integral": (
        lambda f, P: sbt_forward_integral(f, SIGMA, NU, P), HERMITE.evaluate, _ring_points, "line",
    ),
    "sbt_inverse_integral.split": (
        lambda f, P: sbt_inverse_integral(f, SIGMA, NU, P), MONOMIAL.evaluate, _line_points, "plane",
    ),
    "sbt_inverse_integral.tensor": (
        lambda f, P: sbt_inverse_integral(f, SIGMA, NU, P, order=12, method="tensor"),
        MONOMIAL.evaluate, _line_points, "ring",
    ),
    "s_transform": (
        lambda f, P: s_transform(f, NU, P), lambda xi: xi**3 - 0.5j * xi, _ring_points, "plane",
    ),
    "project_P": (lambda f, P: project_P(f, NU, P), MONOMIAL.evaluate, _ring_points, "ring"),
    "frft_apply": (
        lambda f, P: frft_apply(f, THETA, P, sigma=SIGMA, order=96), HERMITE.evaluate, _line_points, "line",
    ),
    "frft_inverse": (
        lambda f, P: frft_inverse(f, THETA, P, sigma=SIGMA, order=96), HERMITE.evaluate, _line_points, "line",
    ),
}


def _point(P, index):
    return P[index] if isinstance(P, Bicomplex) else float(P[index])


@pytest.mark.parametrize("name", list(FORMS))
def test_point_contract(name):
    form, f, draw, grid = FORMS[name]
    # a scalar point gives Python complex channels
    scalar = form(f, _point(draw((1,)), 0))
    assert type(scalar.alpha) is complex and type(scalar.beta) is complex
    # an array of points gives channels of its shape, equal to the stacked scalar calls
    for shape in [(3,), (2, 2)]:
        P = draw(shape)
        got = form(f, P)
        assert np.shape(got.alpha) == np.shape(got.beta) == shape
        for index in np.ndindex(shape):
            want = form(f, _point(P, index))
            assert bc_norm(got[index] - want) <= 1e-14 * bc_norm(want)
    # a list or tuple of points reads as the array of its entries: real points
    # on the line, slice points z + j 0 on the plane and the ring
    entries = [[0.3, -0.8], [1.1, 0.25 + 0.1j if draw is _ring_points else 0.5]]
    want = form(f, np.array(entries))
    for listed in (entries, tuple(map(tuple, entries))):
        got = form(f, listed)
        assert np.array_equal(got.alpha, want.alpha) and np.array_equal(got.beta, want.beta)
    # the integrand is called as often for 300 points as for one: once on the
    # line and the plane, once per block of grid rows on the ring
    calls = []

    def spy(t):
        calls.append(t)
        return f(t)

    form(spy, _point(draw((1,)), 0))
    one = len(calls)
    calls.clear()
    form(spy, draw((300,)))
    assert len(calls) == one
    assert one == 1 or grid == "ring"


def test_planar_kernel_takes_2n_exponentials_per_point(monkeypatch):
    # exp(b conj(xi)) = exp(b u) exp(-i b v) on the tensor grid: 2 * 64 nodes
    # per point and channel at order 64, not one exponential per planar node (4096)
    Z = _ring_points((300,))
    s_transform(lambda xi: xi * xi, 2.0, Z[0], order=64)  # builds the rule first
    sizes, exp = [], np.exp

    def spy(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    s_transform(lambda xi: xi * xi, 2.0, Z, order=64)
    assert sum(sizes) == 300 * 2 * (2 * 64)


def test_many_points_stay_in_blocks():
    # 4000 points times 4096 planar nodes would hold 262 MB per complex temporary
    Z = _ring_points((4000,))
    tracemalloc.start()
    try:
        got = s_transform(lambda xi: xi * xi, 2.0, Z, order=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert np.max(bc_norm(got - Z * Z)) <= 1e-13


def test_many_ring_points_stay_in_blocks():
    # 4000 points against 576 planar nodes: the kernel weights are built per
    # block of points, and the integrand reduced to planar marginals once
    Z = _ring_points((4000,))
    tracemalloc.start()
    try:
        got = project_P(lambda W: W * W, 2.0, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert np.max(bc_norm(got - Z * Z)) <= 1e-13


def test_mixing_integrand_on_ring_points():
    # a mixing integrand fills every block of the ring grid; an array of points
    # still matches the scalar calls
    Z = _ring_points((3,), seed=4)
    got = project_P(lambda W: W.z1, 2.0, Z)
    for k in range(3):
        want = project_P(lambda W: W.z1, 2.0, Z[k])
        assert bc_norm(got[k] - want) <= 1e-14 * bc_norm(want)


@pytest.mark.parametrize("name", list(FORMS))
def test_ragged_list_of_points_is_refused(name):
    form, f, _, _ = FORMS[name]
    with pytest.raises(DomainError, match="cannot read list as an array of numbers"):
        form(f, [[0.1, 0.2], [0.3]])


Z = Bicomplex(0.3 + 0.2j, -0.1 + 0.4j)

#: every function that takes real points x, called on them
REAL_POINT_CALLS = {
    "frft_kernel": lambda x: frft_kernel(SIGMA, THETA, x, 0.2),
    "frft_kernel.y": lambda x: frft_kernel(SIGMA, THETA, 0.2, x),
    "ck_frft_kernel": lambda x: ck_frft_kernel(SIGMA, THETA, x, Z),
    "mehler_closed": lambda x: mehler_closed(SIGMA, THETA.theta, x, 0.2),
    "mehler_bilinear_bc": lambda x: mehler_bilinear_bc(SIGMA, THETA.theta, Z, x),
    "mehler_series": lambda x: mehler_series(SIGMA, THETA.theta, x, 0.2, n_terms=8),
    "sbt_kernel_C": lambda x: sbt_kernel_C(SIGMA, NU / 2, x, 0.3 - 0.1j),
    "sbt_kernel_BC": lambda x: sbt_kernel_BC(SIGMA, NU, x, Z),
    "generating_G": lambda x: generating_G(SIGMA, NU, x, Z),
    "generating_series": lambda x: generating_series(SIGMA, NU, x, Z, n_terms=8),
    "psi_values": lambda x: psi_values(4, SIGMA, x)[-1],
    "hermite_sigma": lambda x: hermite_sigma(4, SIGMA, x),
    "HermiteCoeffVector.evaluate": HERMITE.evaluate,
    "frft_apply.coefficients": lambda x: frft_apply(HERMITE, THETA, x),
}


def _channels(value):
    return (value.alpha, value.beta) if isinstance(value, Bicomplex) else (value,)


@pytest.mark.parametrize("name", list(REAL_POINT_CALLS))
def test_list_of_real_points_reads_as_their_array(name):
    call = REAL_POINT_CALLS[name]
    entries = [[0.3, -0.8], [1.1, 0.5]]
    want = call(np.array(entries))
    for listed in (entries, tuple(map(tuple, entries))):
        got = call(listed)
        assert all(np.array_equal(g, w) for g, w in zip(_channels(got), _channels(want), strict=True))
    with pytest.raises(DomainError, match="cannot read list as an array of numbers"):
        call([[0.1, 0.2], [0.3]])
