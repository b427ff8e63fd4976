"""Weight-parameter guards and fail-closed closed-form kernels, across modules."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bctransforms import Bicomplex, as_bicomplex
from bctransforms.bargmann import (
    HermiteCoeffVector,
    MonomialCoeffVector,
    eval_monomial_series,
    inner_H2nu,
    inner_L2sigma,
    kernel_K_BC,
    kernel_K_C,
    monomial_norm_sq,
    project_P,
)
from bctransforms.errors import BCTransformsError, DomainError, NonFiniteError
from bctransforms.frft import (
    ThetaParam,
    ck_frft_kernel,
    frft_kernel,
    gaussian_integral_closed,
    mehler_bilinear_bc,
    mehler_bilinear_series,
    mehler_closed,
    mehler_series,
)
from bctransforms.hermite import (
    generating_G,
    generating_series,
    hermite_norm_sq,
    hermite_sigma,
    hermite_sigma_bc,
    psi_n,
    psi_values,
)
from bctransforms.quadrature import gauss_hermite, integrate_bicomplex, normalization_c
from bctransforms.transforms import (
    s_transform,
    sbt_forward,
    sbt_forward_integral,
    sbt_inverse_coeff,
    sbt_inverse_integral,
    sbt_kernel_BC,
    sbt_kernel_C,
)

Z1 = Bicomplex(0.3 + 0.1j, -0.2j)
THETA = ThetaParam.from_phases(math.pi / 3.0, math.pi / 5.0)

WEIGHT_CALLS = {
    "hermite_sigma": lambda v: hermite_sigma(3, v, 0.5),
    "hermite_norm_sq": lambda v: hermite_norm_sq(3, v),
    "psi_values": lambda v: psi_values(3, v, 0.5),
    "generating_G.sigma": lambda v: generating_G(v, 2.0, 0.5, Z1),
    "generating_G.nu": lambda v: generating_G(1.0, v, 0.5, Z1),
    "gauss_hermite": lambda v: gauss_hermite(8, v),
    "normalization_c": lambda v: normalization_c(0, v),
    "integrate_bicomplex": lambda v: integrate_bicomplex(lambda Z: Z, v, gauss_hermite(4, 1.0), vectorized=True),
    "HermiteCoeffVector": lambda v: HermiteCoeffVector(v, [1.0]),
    "MonomialCoeffVector": lambda v: MonomialCoeffVector(v, [1.0]),
    "monomial_norm_sq": lambda v: monomial_norm_sq(3, v),
    "sbt_forward": lambda v: sbt_forward(HermiteCoeffVector.basis(2, 1.0), v),
    "kernel_K_C": lambda v: kernel_K_C(v, 1.0, 1.0),
    "kernel_K_BC": lambda v: kernel_K_BC(v, Z1, Z1),
    "sbt_kernel_C.sigma": lambda v: sbt_kernel_C(v, 1.0, 0.5, 0.1j),
    "sbt_kernel_C.gamma": lambda v: sbt_kernel_C(1.0, v, 0.5, 0.1j),
    "sbt_kernel_BC.sigma": lambda v: sbt_kernel_BC(v, 2.0, 0.5, Z1),
    "sbt_kernel_BC.nu": lambda v: sbt_kernel_BC(1.0, v, 0.5, Z1),
    "sbt_inverse_integral.sigma": lambda v: sbt_inverse_integral(lambda Z: Z, v, 2.0, 0.5, order=8),
    "sbt_inverse_integral.nu": lambda v: sbt_inverse_integral(lambda Z: Z, 1.0, v, 0.5, order=8),
    "frft_kernel": lambda v: frft_kernel(v, THETA, 0.3, -0.2),
    # sigma is checked before theta, so an excluded theta still gives the weight guard's DomainError
    "mehler_closed": lambda v: mehler_closed(v, 1.0, 0.3, -0.2),
    "gaussian_integral_closed": lambda v: gaussian_integral_closed(v, 0.0, 0.0, 0.0, 0.0),
}


@pytest.mark.parametrize(
    "bad", [math.inf, math.nan, pytest.param(10**400, id="int-beyond-float"), pytest.param("2", id="str"), 1 + 0j]
)
@pytest.mark.parametrize("name", list(WEIGHT_CALLS))
def test_weight_parameter_must_be_positive_and_finite(name, bad):
    with pytest.raises(ValueError) as info:
        WEIGHT_CALLS[name](bad)
    assert type(info.value) is DomainError
    assert "positive and finite" in str(info.value)


@pytest.mark.parametrize("name", list(WEIGHT_CALLS))
def test_float32_weight_is_accepted(name):
    # comparing a float32 with the float maximum once cast that maximum to
    # float32, which overflowed with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            WEIGHT_CALLS[name](np.float32(1.0))
        except BCTransformsError as err:  # a later check on another argument
            assert "positive and finite" not in str(err)


def test_monomial_norm_underflow_raises():
    # 2**160 160! / (1e300)**160 is far below the smallest float, but not zero
    with pytest.raises(NonFiniteError):
        monomial_norm_sq(160, 1e300)


BEYOND_FLOAT = 10**400

# an int too large for a float, as a component, weight, point or phase; each once
# raised a bare OverflowError (the phase a TypeError), or constructed
INT_BEYOND_FLOAT = {
    "Bicomplex.z1": lambda: Bicomplex(BEYOND_FLOAT),
    "Bicomplex.z2": lambda: Bicomplex(1, BEYOND_FLOAT),
    "Bicomplex.array": lambda: Bicomplex(np.ones(2, dtype=complex), BEYOND_FLOAT),
    "Bicomplex.from_reals": lambda: Bicomplex.from_reals(BEYOND_FLOAT, 0, 0, 0),
    "as_bicomplex": lambda: as_bicomplex(BEYOND_FLOAT),
    "gauss_hermite": lambda: gauss_hermite(8, BEYOND_FLOAT),
    "psi_n.sigma": lambda: psi_n(3, BEYOND_FLOAT, 0.5),
    "psi_n.x": lambda: psi_n(2, 1.0, BEYOND_FLOAT),
    "monomial_norm_sq": lambda: monomial_norm_sq(3, BEYOND_FLOAT),
    "hermite_norm_sq": lambda: hermite_norm_sq(3, BEYOND_FLOAT),
    "HermiteCoeffVector": lambda: HermiteCoeffVector(BEYOND_FLOAT, [1.0]),
    "ThetaParam.from_phases": lambda: ThetaParam.from_phases(BEYOND_FLOAT, 0),
}


@pytest.mark.parametrize("name", list(INT_BEYOND_FLOAT))
def test_int_beyond_float_range_fails_closed(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BCTransformsError):
            INT_BEYOND_FLOAT[name]()


BIG = Bicomplex(30.0, 0.0)
TORUS = THETA.theta

# each argument drives the exponent's real part past ~709, or a monomial vector's
# raw coefficients A_n = u_n r_n past the float maximum, read in or written out
OVERFLOWING_KERNELS = {
    "kernel_K_C": lambda: kernel_K_C(2.0, 30.0, 30.0),
    "kernel_K_BC": lambda: kernel_K_BC(2.0, BIG, BIG),
    "sbt_kernel_C": lambda: sbt_kernel_C(1.0, 2.0, 0.0, 30j),
    "sbt_kernel_C.square_z": lambda: sbt_kernel_C(1.0, 2.0, 0.0, 1e200j),
    "sbt_kernel_C.square_x": lambda: sbt_kernel_C(1.0, 2.0, 1e200, 0j),
    "sbt_kernel_BC": lambda: sbt_kernel_BC(1.0, 2.0, 0.0, Bicomplex(60j, 0.0)),
    "generating_G": lambda: generating_G(1.0, 2.0, 0.0, Bicomplex(60j, 0.0)),
    "frft_kernel": lambda: frft_kernel(1.0, THETA, 0.0, 40.0),
    "ck_frft_kernel": lambda: ck_frft_kernel(1.0, THETA, 0.0, Bicomplex(40.0, 0.0)),
    "mehler_closed": lambda: mehler_closed(1.0, TORUS, 0.0, 40.0),
    "mehler_bilinear_bc": lambda: mehler_bilinear_bc(1.0, TORUS, Bicomplex(40.0, 0.0), 0.0),
    "sbt_inverse_coeff": lambda: sbt_inverse_coeff(MonomialCoeffVector(1e-300, [1e308, 1e308]), 1.0),
    "sbt_forward": lambda: sbt_forward(HermiteCoeffVector(1.0, [1e308, 1e308]), 1e3).coeffs,
    "sbt_forward.to_json": lambda: sbt_forward(HermiteCoeffVector(1.0, [1e308, 1e308]), 1e3).to_json(),
}


# run with -W error::RuntimeWarning (as CI does), this also proves that no numpy
# warning comes before the error
@pytest.mark.parametrize("name", list(OVERFLOWING_KERNELS))
def test_closed_form_kernel_fails_closed(name):
    with pytest.raises(NonFiniteError, match="outside float range"):
        OVERFLOWING_KERNELS[name]()


# each integral form's kernel leaves float range on the rule's nodes; the error
# comes from the closed-form kernel the integrand is built from
OVERFLOWING_INTEGRALS = {
    "s_transform": lambda: s_transform(lambda xi: xi, 2.0, Bicomplex(400.0, 0j)),
    "sbt_forward_integral": lambda: sbt_forward_integral(lambda x: 1.0, 1.0, 2.0, Bicomplex(60j, 0j)),
    "sbt_inverse_integral.split": lambda: sbt_inverse_integral(lambda Z: Z, 1.0, 2.0, 400.0),
    "sbt_inverse_integral.tensor": lambda: sbt_inverse_integral(
        lambda Z: Z, 1.0, 2.0, 400.0, order=8, method="tensor"
    ),
    "project_P": lambda: project_P(lambda W: W, 2.0, Bicomplex(400.0, 0j), vectorized=True),
}


@pytest.mark.parametrize("name", list(OVERFLOWING_INTEGRALS))
def test_integral_form_fails_closed_through_its_kernel(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteError, match="outside float range"):
            OVERFLOWING_INTEGRALS[name]()


# each call overflows past the float maximum on the way to its value
OVERFLOWING_SUMS = {
    "mehler_series": lambda: mehler_series(1, 0.5, 1e200, 1e200),
    "mehler_bilinear_series": lambda: mehler_bilinear_series(1, 0.5, Bicomplex(1e200, 0), 1e200),
    "generating_series": lambda: generating_series(1, 2, 1e200, Bicomplex(1e200, 0)),
    "normalization_c.2": lambda: normalization_c(2, 1e300),
    "normalization_c.BC": lambda: normalization_c("BC", 1e300),
}


@pytest.mark.parametrize("name", list(OVERFLOWING_SUMS))
def test_series_and_constants_fail_closed(name):
    with pytest.raises(NonFiniteError, match="outside float range"):
        OVERFLOWING_SUMS[name]()


@pytest.mark.parametrize("n_terms", [0, -3])
def test_mehler_series_needs_a_term(n_terms):
    with pytest.raises(ValueError, match="need at least one term"):
        mehler_series(1.0, 0.5, 0.1, 0.2, n_terms=n_terms)


# wide-range finite inputs for the property test below
_REAL = st.floats(-1e300, 1e300)
_COMPLEX = st.builds(complex, _REAL, _REAL)
_BC = st.builds(Bicomplex, _COMPLEX, _COMPLEX)
_WEIGHT = st.floats(1e-300, 1e300)
# channel phases at least 0.1 from 0 and pi, clear of the excluded set {+1, -1, +ij, -ij}
_PHASE = st.floats(0.1, math.pi - 0.1) | st.floats(math.pi + 0.1, 2 * math.pi - 0.1)
_THETA = st.builds(ThetaParam.from_phases, _PHASE, _PHASE)
_DEGREE = st.integers(0, 40)
_TERMS = st.integers(1, 60)
_ENTRIES = st.lists(_BC, min_size=1, max_size=6)


def _pair(cls, d):
    """Two coefficient vectors of ``cls`` that share one weight parameter."""
    w = d.draw(_WEIGHT)
    return cls(w, d.draw(_ENTRIES)), cls(w, d.draw(_ENTRIES))


# every function that fails closed through one decorator, and the ones that
# only delegate to such a function; each entry draws its own arguments
FAILS_CLOSED = {
    "kernel_K_C": lambda d: kernel_K_C(d.draw(_WEIGHT), d.draw(_COMPLEX), d.draw(_COMPLEX)),
    "kernel_K_BC": lambda d: kernel_K_BC(d.draw(_WEIGHT), d.draw(_BC), d.draw(_BC)),
    "sbt_kernel_C": lambda d: sbt_kernel_C(d.draw(_WEIGHT), d.draw(_WEIGHT), d.draw(_REAL), d.draw(_COMPLEX)),
    "sbt_kernel_BC": lambda d: sbt_kernel_BC(d.draw(_WEIGHT), d.draw(_WEIGHT), d.draw(_REAL), d.draw(_BC)),
    "frft_kernel": lambda d: frft_kernel(d.draw(_WEIGHT), d.draw(_THETA), d.draw(_REAL), d.draw(_REAL)),
    "ck_frft_kernel": lambda d: ck_frft_kernel(d.draw(_WEIGHT), d.draw(_THETA), d.draw(_REAL), d.draw(_BC)),
    "mehler_closed": lambda d: mehler_closed(d.draw(_WEIGHT), d.draw(_THETA).theta, d.draw(_REAL), d.draw(_REAL)),
    "mehler_bilinear_bc": lambda d: mehler_bilinear_bc(
        d.draw(_WEIGHT), d.draw(_THETA).theta, d.draw(_BC), d.draw(_REAL)
    ),
    "mehler_series": lambda d: mehler_series(
        d.draw(_WEIGHT), d.draw(_THETA).theta, d.draw(_REAL), d.draw(_REAL), d.draw(_TERMS)
    ),
    "mehler_bilinear_series": lambda d: mehler_bilinear_series(
        d.draw(_WEIGHT), d.draw(_THETA).theta, d.draw(_BC), d.draw(_REAL), d.draw(_TERMS)
    ),
    "generating_G": lambda d: generating_G(d.draw(_WEIGHT), d.draw(_WEIGHT), d.draw(_REAL), d.draw(_BC)),
    "generating_series": lambda d: generating_series(
        d.draw(_WEIGHT), d.draw(_WEIGHT), d.draw(_REAL), d.draw(_BC), d.draw(_TERMS)
    ),
    "gaussian_integral_closed": lambda d: gaussian_integral_closed(
        d.draw(_WEIGHT), *d.draw(st.lists(_COMPLEX, min_size=4, max_size=4))
    ),
    "hermite_sigma": lambda d: hermite_sigma(d.draw(_DEGREE), d.draw(_WEIGHT), d.draw(_REAL)),
    "hermite_sigma_bc": lambda d: hermite_sigma_bc(d.draw(_DEGREE), d.draw(_WEIGHT), d.draw(_BC)),
    "normalization_c": lambda d: normalization_c(d.draw(st.sampled_from([0, 1, 2, "BC"])), d.draw(_WEIGHT)),
    "HermiteCoeffVector.evaluate": lambda d: HermiteCoeffVector(d.draw(_WEIGHT), d.draw(_ENTRIES)).evaluate(
        d.draw(_REAL)
    ),
    "MonomialCoeffVector.evaluate": lambda d: MonomialCoeffVector(d.draw(_WEIGHT), d.draw(_ENTRIES)).evaluate(
        d.draw(_BC)
    ),
    "eval_monomial_series": lambda d: eval_monomial_series(
        MonomialCoeffVector(d.draw(_WEIGHT), d.draw(_ENTRIES)), d.draw(_BC)
    ),
    "HermiteCoeffVector.norm_sq": lambda d: HermiteCoeffVector(d.draw(_WEIGHT), d.draw(_ENTRIES)).norm_sq(),
    "MonomialCoeffVector.norm_sq": lambda d: MonomialCoeffVector(d.draw(_WEIGHT), d.draw(_ENTRIES)).norm_sq(),
    "inner_L2sigma": lambda d: inner_L2sigma(*_pair(HermiteCoeffVector, d)),
    "inner_H2nu": lambda d: inner_H2nu(*_pair(MonomialCoeffVector, d)),
    # the raw coefficients of the image, which may leave float range
    "sbt_forward": lambda d: sbt_forward(
        HermiteCoeffVector(d.draw(_WEIGHT), d.draw(_ENTRIES)), d.draw(_WEIGHT)
    ).coeffs,
    "sbt_inverse_coeff": lambda d: sbt_inverse_coeff(
        MonomialCoeffVector(d.draw(_WEIGHT), d.draw(_ENTRIES)), d.draw(_WEIGHT)
    ),
}


def _all_finite(value) -> bool:
    value = getattr(value, "coeffs", value)
    parts = (value.alpha, value.beta) if isinstance(value, Bicomplex) else (value,)
    return all(np.all(np.isfinite(p)) for p in parts)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", list(FAILS_CLOSED))
def test_fails_closed_on_wide_range_inputs(name, data):
    # a finite value or a typed error; never a bare OverflowError,
    # ZeroDivisionError or numpy ValueError, and never a numpy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            value = FAILS_CLOSED[name](data)
        except BCTransformsError:
            return
    assert _all_finite(value)
