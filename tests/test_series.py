"""The series oracles as one contraction over the psi ladder, against a term loop."""

import math
import tracemalloc

import numpy as np
import pytest

from bctransforms import (
    Bicomplex,
    HermiteCoeffVector,
    generating_series,
    mehler_bilinear_series,
    mehler_series,
    psi_values,
)
from bctransforms import norm as bc_norm

SIGMA, NU = 1.3, 1.7
THETA = Bicomplex.from_channels(0.55 * np.exp(0.6j), -0.4 + 0.2j)
N_TERMS = 60


def _ring(shape, seed, radius=0.4):
    z = np.random.default_rng(seed).normal(0.0, radius / 2.0, (4, *shape))
    return Bicomplex(z[0] + 1j * z[1], z[2] + 1j * z[3])


def _psi(n, x):
    """psi_n(x) on each channel of ``x`` (a real x on both)."""
    if isinstance(x, Bicomplex):
        return psi_values(n, SIGMA, x.alpha)[n], psi_values(n, SIGMA, x.beta)[n]
    value = psi_values(n, SIGMA, x)[n]
    return value, value


def _term_loop(term):
    """sum_n term(n) over N_TERMS terms, one term at a time on each channel."""
    a = b = 0j
    for n in range(N_TERMS):
        ta, tb = term(n)
        a, b = a + ta, b + tb
    return Bicomplex.from_channels(a, b)


def _generating_loop(x, Z):
    def term(n):
        r = math.sqrt(NU**n / (2.0**n * math.factorial(n)))
        px = _psi(n, x)[0]
        return px * r * np.conj(Z.alpha) ** n, px * r * np.conj(Z.beta) ** n

    return _term_loop(term)


def _mehler_loop(x, y):
    def term(n):
        (xa, xb), (ya, yb) = _psi(n, x), _psi(n, y)
        return THETA.alpha**n * xa * ya, THETA.beta**n * xb * yb

    return _term_loop(term)


def _assert_close(got, want):
    assert np.shape(got.alpha) == np.shape(want.alpha) and np.shape(got.beta) == np.shape(want.beta)
    assert np.all(bc_norm(got - want) <= 1e-13 * bc_norm(want))


X7 = np.linspace(-1.4, 1.3, 7)
Y4 = np.linspace(-1.1, 0.9, 4)

# (series call, term-loop oracle, points): pointwise arrays, a column against a
# row, and ring arguments
CASES = {
    "generating.scalar": (lambda x, Z: generating_series(SIGMA, NU, x, Z), _generating_loop, (0.7, _ring((), 1))),
    "generating.pointwise": (lambda x, Z: generating_series(SIGMA, NU, x, Z), _generating_loop, (X7, _ring((7,), 2))),
    "generating.grid": (
        lambda x, Z: generating_series(SIGMA, NU, x, Z), _generating_loop, (X7[:, None], _ring((1, 4), 3)),
    ),
    "mehler.scalar": (lambda x, y: mehler_series(SIGMA, THETA, x, y), _mehler_loop, (0.7, -0.4)),
    "mehler.pointwise": (lambda x, y: mehler_series(SIGMA, THETA, x, y), _mehler_loop, (X7, X7[::-1])),
    "mehler.grid": (lambda x, y: mehler_series(SIGMA, THETA, x, y), _mehler_loop, (X7[:, None], Y4[None, :])),
    "mehler.ring_y": (lambda x, y: mehler_series(SIGMA, THETA, x, y), _mehler_loop, (X7, _ring((7,), 4))),
    "mehler.ring_x": (lambda x, y: mehler_series(SIGMA, THETA, x, y), _mehler_loop, (_ring((1, 4), 5), X7[:, None])),
    # mehler_bilinear_series(Z, y) sums theta**n psi_n(y) psi_n(Z)
    "mehler_bilinear.scalar": (
        lambda Z, y: mehler_bilinear_series(SIGMA, THETA, Z, y), lambda Z, y: _mehler_loop(y, Z), (_ring((), 6), 0.3),
    ),
    "mehler_bilinear.pointwise": (
        lambda Z, y: mehler_bilinear_series(SIGMA, THETA, Z, y), lambda Z, y: _mehler_loop(y, Z), (_ring((7,), 7), X7),
    ),
    "mehler_bilinear.grid": (
        lambda Z, y: mehler_bilinear_series(SIGMA, THETA, Z, y),
        lambda Z, y: _mehler_loop(y, Z),
        (_ring((7, 1), 8), Y4[None, :]),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_series_match_a_term_loop(name):
    series, loop, (p, q) = CASES[name]
    _assert_close(series(p, q), loop(p, q))


def test_scalar_arguments_keep_their_channel_types():
    # the series give Python complex channels at a scalar point, the
    # coefficient vector's evaluation numpy scalars; a Python-complex theta
    # and a numpy one alike
    Z = _ring((), 10)
    values = [
        generating_series(SIGMA, NU, 0.4, Z),
        generating_series(SIGMA, NU, 1, 0.2 + 0.1j, n_terms=1),
        mehler_series(SIGMA, 0.5, 0.4, -0.3),
        mehler_series(SIGMA, Bicomplex(0.3 + 0.1j, 0.2j), 0.4, Z),
        mehler_series(SIGMA, THETA, 0.4, -0.3),
        mehler_bilinear_series(SIGMA, 0.5, Z, 0.2, n_terms=1),
    ]
    for value in values:
        assert type(value.alpha) is complex and type(value.beta) is complex
    h = HermiteCoeffVector(SIGMA, [0.3, -1.0, 0.5j])
    for x in (0.4, 1, np.float64(0.4)):
        value = h.evaluate(x)
        assert type(value.alpha) is np.complex128 and type(value.beta) is np.complex128


def test_one_term_takes_the_shape_of_the_points():
    got = mehler_series(SIGMA, THETA, X7, 0.2, n_terms=1)
    assert np.shape(got.alpha) == np.shape(got.beta) == (7,)
    assert np.all(got.alpha == 1.0) and np.all(got.beta == 1.0)


def test_outer_grid_is_summed_without_a_terms_by_grid_block():
    # 60 terms on a 600 x 600 grid as one (terms, grid) block of complex
    # products would hold 345 MB; the two 5.8 MB output channels bound the sum
    grid = np.linspace(-3.0, 3.0, 600)
    tracemalloc.start()
    try:
        got = mehler_series(1.0, 0.5, grid[:, None], grid[None, :], n_terms=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    assert np.shape(got.alpha) == (600, 600)
    corner = mehler_series(1.0, 0.5, float(grid[599]), float(grid[0]), n_terms=60)
    _assert_close(got[599, 0], corner)
