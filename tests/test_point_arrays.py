"""Integral forms over arrays of points: one kernel-weighted quadrature sum."""

import tracemalloc

import numpy as np
import pytest

from bctransforms import (
    Bicomplex,
    HermiteCoeffVector,
    MonomialCoeffVector,
    ThetaParam,
    frft_apply,
    frft_inverse,
    project_P,
    s_transform,
    sbt_forward_integral,
    sbt_inverse_integral,
)
from bctransforms import norm as bc_norm

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
    # on the line and the plane the integrand is called once, however many points
    if grid != "ring":
        calls = []

        def spy(t):
            calls.append(t)
            return f(t)

        form(spy, draw((300,)))
        assert len(calls) == 1


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


def test_mixing_integrand_on_ring_points():
    # a mixing integrand fills every block of the ring grid; an array of points
    # still matches the scalar calls
    Z = _ring_points((3,), seed=4)
    got = project_P(lambda W: W.z1, 2.0, Z)
    for k in range(3):
        want = project_P(lambda W: W.z1, 2.0, Z[k])
        assert bc_norm(got[k] - want) <= 1e-14 * bc_norm(want)
