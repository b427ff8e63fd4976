"""Weight-parameter guards and fail-closed closed-form kernels, across modules."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bctransforms import Bicomplex, as_bicomplex
from bctransforms import pow as bc_pow
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
    frft_apply,
    frft_coefficients,
    frft_inverse,
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
from bctransforms.quadrature import (
    QuadratureRule,
    gauss_hermite,
    integrate_bicomplex,
    integrate_complex,
    integrate_real,
    normalization_c,
)
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
    # the integral forms refuse their own weight by name before deriving a rule weight from it
    "project_P.nu": lambda v: project_P(lambda W: W, v, Z1, order=4),
    "inner_H2nu.nu": lambda v: inner_H2nu(lambda W: W, lambda W: W, v, order=4),
    "inner_L2sigma.sigma": lambda v: inner_L2sigma(lambda x: x, lambda x: x, v, order=8),
    "s_transform.nu": lambda v: s_transform(lambda xi: xi, v, Z1, order=8),
    "sbt_forward_integral.sigma": lambda v: sbt_forward_integral(lambda x: x, v, 2.0, Z1, order=8),
    "sbt_forward_integral.nu": lambda v: sbt_forward_integral(lambda x: x, 1.0, v, Z1, order=8),
    "frft_apply.sigma": lambda v: frft_apply(lambda x: x, THETA, 0.3, sigma=v, order=8),
    "frft_inverse.sigma": lambda v: frft_inverse(lambda x: x, THETA, 0.3, sigma=v, order=8),
}

#: the parameter each call refuses, where its key does not end in ".<name>"
WEIGHT_NAMES = {
    "hermite_sigma": "sigma", "hermite_norm_sq": "sigma", "psi_values": "sigma", "gauss_hermite": "gamma",
    "normalization_c": "alpha", "integrate_bicomplex": "nu", "HermiteCoeffVector": "sigma",
    "MonomialCoeffVector": "nu", "monomial_norm_sq": "nu", "sbt_forward": "nu", "kernel_K_C": "gamma",
    "kernel_K_BC": "nu", "frft_kernel": "sigma", "mehler_closed": "sigma", "gaussian_integral_closed": "gamma",
}

#: the calls whose quadrature rule weight is half their weight parameter
HALF_WEIGHT_CALLS = [
    "integrate_bicomplex", "project_P.nu", "inner_H2nu.nu", "s_transform.nu", "sbt_inverse_integral.nu",
    "frft_apply.sigma", "frft_inverse.sigma",
]


@pytest.mark.parametrize(
    "bad", [math.inf, math.nan, pytest.param(10**400, id="int-beyond-float"), pytest.param("2", id="str"), 1 + 0j]
)
@pytest.mark.parametrize("name", list(WEIGHT_CALLS))
def test_weight_parameter_must_be_positive_and_finite(name, bad):
    with pytest.raises(ValueError) as info:
        WEIGHT_CALLS[name](bad)
    assert type(info.value) is DomainError
    assert str(info.value).startswith(f"{WEIGHT_NAMES.get(name, name.rpartition('.')[2])} must be positive and finite")


@pytest.mark.parametrize("name", HALF_WEIGHT_CALLS)
def test_weight_whose_half_rounds_to_zero_is_refused_by_name(name):
    # 5e-324 is positive, but its half is 0: the refusal names the parameter
    # and the value passed, not the rule weight derived from it
    with pytest.raises(DomainError) as info:
        WEIGHT_CALLS[name](5e-324)
    message = str(info.value)
    assert message.startswith(f"{WEIGHT_NAMES.get(name, name.rpartition('.')[2])} must be at least 1e-323")
    assert message.endswith("got 5e-324")


def _outcome(call, v):
    """What ``call(v)`` gives, as comparable data: the type and message of the
    error it raises, or each number it returns as its dtype and bytes."""
    try:
        value = call(v)
    except BCTransformsError as err:
        return type(err), str(err)
    parts = {
        Bicomplex: lambda x: [x.alpha, x.beta],
        QuadratureRule: lambda x: [x.gamma, x.nodes, x.weights],
        HermiteCoeffVector: lambda x: [x.sigma, x.coeffs.alpha, x.coeffs.beta],
        MonomialCoeffVector: lambda x: [x.nu, x.coeffs.alpha, x.coeffs.beta],
        list: list,
    }.get(type(value), lambda x: [x])(value)
    return [(type(p).__name__, np.asarray(p).dtype.str, np.asarray(p).tobytes()) for p in parts]


@pytest.mark.parametrize("name", list(WEIGHT_CALLS))
def test_float32_weight_is_accepted(name):
    # comparing a float32 with the float maximum once cast that maximum to
    # float32, which overflowed with a RuntimeWarning; and a guard that dropped
    # the float it returns left the call to compute in single precision
    v = np.float32(1.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _outcome(WEIGHT_CALLS[name], v) == _outcome(WEIGHT_CALLS[name], float(v))


def test_float32_weight_vector_round_trips_through_json():
    h = HermiteCoeffVector(np.float32(1.3), [1.0, 0.5])
    assert type(h.sigma) is float
    back = HermiteCoeffVector.from_json(json.loads(json.dumps(h.to_json())))
    assert back.sigma == float(np.float32(1.3))
    assert back.coeffs.alpha.tobytes() == h.coeffs.alpha.tobytes()


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
    "sbt_inverse_integral.x": lambda: sbt_inverse_integral(lambda Z: Z, 1.0, 2.0, BEYOND_FLOAT, order=8),
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


# each integral form's kernel leaves float range on the rule's nodes, and the
# sum's check on its totals raises: on the line the closed form's Gaussian,
# evaluated from its coefficients at each block of points, overflows, and on
# the plane and the ring the factored sum's exponential factor exp(b u) does
OVERFLOWING_INTEGRALS = {
    "s_transform": lambda: s_transform(lambda xi: xi, 2.0, Bicomplex(400.0, 0j)),
    "sbt_forward_integral": lambda: sbt_forward_integral(lambda x: 1.0, 1.0, 2.0, Bicomplex(60j, 0j)),
    "sbt_inverse_integral.split": lambda: sbt_inverse_integral(lambda Z: Z, 1.0, 2.0, 400.0),
    "sbt_inverse_integral.tensor": lambda: sbt_inverse_integral(
        lambda Z: Z, 1.0, 2.0, 400.0, order=8, method="tensor"
    ),
    "project_P": lambda: project_P(lambda W: W, 2.0, Bicomplex(400.0, 0j), vectorized=True),
    "frft_apply": lambda: frft_apply(lambda t: 1.0 + 0 * t, ThetaParam.from_phases(0.9, 2.2), 400.0, sigma=1.0),
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


# a degree, a term count or an exponent; each call once raised a bare TypeError
# for a non-int, or (the two norms) returned a float, or (pow) returned Z for
# True, and refuses a negative int with the message given
COUNT_CALLS = {
    "pow": (lambda v: bc_pow(Z1, v), "pow expects a nonnegative exponent; use inverse"),
    "psi_values": (lambda v: psi_values(v, 1.0, 0.3), "degree must be nonnegative"),
    "psi_n": (lambda v: psi_n(v, 1.0, 0.3), "degree must be nonnegative"),
    "hermite_sigma": (lambda v: hermite_sigma(v, 1.0, 0.3), "degree must be nonnegative"),
    "hermite_norm_sq": (lambda v: hermite_norm_sq(v, 1.0), "degree must be nonnegative"),
    "monomial_norm_sq": (lambda v: monomial_norm_sq(v, 1.0), "degree must be nonnegative"),
    "HermiteCoeffVector.basis": (lambda v: HermiteCoeffVector.basis(v, 1.0), "degree must be nonnegative"),
    "MonomialCoeffVector.basis": (lambda v: MonomialCoeffVector.basis(v, 1.0), "degree must be nonnegative"),
    "mehler_series.n_terms": (lambda v: mehler_series(1.0, 0.5, 0.1, 0.2, n_terms=v), "need at least one term"),
    "mehler_bilinear_series.n_terms": (
        lambda v: mehler_bilinear_series(1.0, 0.5, Z1, 0.2, n_terms=v), "need at least one term",
    ),
    "generating_series.n_terms": (
        lambda v: generating_series(1.0, 2.0, 0.1, Z1, n_terms=v), "need at least one term",
    ),
}


@pytest.mark.parametrize("bad", [2.5, np.float64(3.0), "3", None, True])
@pytest.mark.parametrize("name", list(COUNT_CALLS))
def test_degree_and_term_count_must_be_ints(name, bad):
    with pytest.raises(ValueError) as info:
        COUNT_CALLS[name][0](bad)
    assert type(info.value) is DomainError
    assert "must be an int >= " in str(info.value)


@pytest.mark.parametrize("name", list(COUNT_CALLS))
def test_degree_and_term_count_below_range_keep_their_message(name):
    call, message = COUNT_CALLS[name]
    with pytest.raises(DomainError, match=message):
        call(-1)
    # the least value and a numpy int are accepted
    least = 1 if "n_terms" in name else 0
    assert _all_finite(call(least)) and _all_finite(call(np.int64(least + 2)))


def test_unknown_theta_mode_is_domain_error():
    # it once raised a bare ValueError, where an unknown normalization_c tag or
    # sbt_inverse_integral method raises DomainError
    with pytest.raises(DomainError, match="unknown mode 'weird'"):
        ThetaParam(Bicomplex(1j, 0j), mode="weird")


# a theta that is not a ThetaParam: each call once raised a bare AttributeError
NOT_A_THETA = {
    "frft_kernel": lambda t: frft_kernel(1.0, t, 0.1, 0.2),
    "ck_frft_kernel": lambda t: ck_frft_kernel(1.0, t, 0.1, Z1),
    "frft_apply": lambda t: frft_apply(lambda x: x * x, t, 0.1, sigma=1.0),
    "frft_apply.vector": lambda t: frft_apply(HermiteCoeffVector(1.0, [1.0, 2.0]), t, 0.1),
    "frft_coefficients": lambda t: frft_coefficients(HermiteCoeffVector(1.0, [1.0, 2.0]), t),
    "frft_inverse": lambda t: frft_inverse(lambda x: x * x, t, 0.1, sigma=1.0),
}


@pytest.mark.parametrize("bad", [THETA.theta, None, 0.5], ids=["Bicomplex", "None", "float"])
@pytest.mark.parametrize("name", list(NOT_A_THETA))
def test_theta_that_is_not_a_theta_param_is_domain_error(name, bad):
    with pytest.raises(DomainError, match="theta must be a ThetaParam"):
        NOT_A_THETA[name](bad)
    assert _all_finite(NOT_A_THETA[name](THETA))


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
_POINTS = st.lists(st.tuples(_COMPLEX, _COMPLEX), min_size=1, max_size=4)
_REALS = st.lists(_REAL, min_size=1, max_size=4)
_COMPLEXES = st.lists(_COMPLEX, min_size=1, max_size=4)
# rows of two to four points and of one point: a ragged list
_RAGGED = st.builds(lambda row, x: [row, [x]], st.lists(_REAL, min_size=2, max_size=4), _REAL)


def _bc_array(components):
    """One array value of the drawn (z1, z2) component pairs; a channel past
    float range raises NonFiniteError, as it does for a scalar."""
    z1, z2 = (np.array(c, dtype=complex) for c in zip(*components))
    return Bicomplex(z1, z2)


def _pair(cls, d):
    """Two coefficient vectors of ``cls`` that share one weight parameter."""
    w = d.draw(_WEIGHT)
    return cls(w, d.draw(_ENTRIES)), cls(w, d.draw(_ENTRIES))


def _rule_arrays(rule: QuadratureRule) -> np.ndarray:
    return np.concatenate((rule.nodes, rule.weights))


def _small_rule(d, max_order: int, gamma: float) -> QuadratureRule:
    return gauss_hermite(d.draw(st.integers(1, max_order)), gamma)


def _ring_square_integral(d):
    nu = d.draw(_WEIGHT)
    return integrate_bicomplex(lambda Z: Z * Z, nu, _small_rule(d, 5, nu / 2.0))


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
    # the integral forms at arrays of points, with integrands that stay finite
    # on every node; small orders keep the examples fast
    "sbt_forward_integral": lambda d: sbt_forward_integral(
        lambda x: x, d.draw(_WEIGHT), d.draw(_WEIGHT), _bc_array(d.draw(_POINTS)), order=6
    ),
    "sbt_inverse_integral.split": lambda d: sbt_inverse_integral(
        lambda Z: Z, d.draw(_WEIGHT), d.draw(_WEIGHT), np.array(d.draw(_REALS)), order=6
    ),
    "sbt_inverse_integral.tensor": lambda d: sbt_inverse_integral(
        lambda Z: Z, d.draw(_WEIGHT), d.draw(_WEIGHT), np.array(d.draw(_REALS)), order=4, method="tensor"
    ),
    "s_transform": lambda d: s_transform(lambda xi: xi, d.draw(_WEIGHT), _bc_array(d.draw(_POINTS)), order=6),
    "project_P": lambda d: project_P(lambda W: W, d.draw(_WEIGHT), _bc_array(d.draw(_POINTS)), order=4),
    # a list of points reads as the array of its entries, on the slice
    "s_transform.list": lambda d: s_transform(lambda xi: xi, d.draw(_WEIGHT), d.draw(_COMPLEXES), order=6),
    "project_P.list": lambda d: project_P(lambda W: W, d.draw(_WEIGHT), d.draw(_COMPLEXES), order=4),
    "sbt_forward_integral.list": lambda d: sbt_forward_integral(
        lambda x: x, d.draw(_WEIGHT), d.draw(_WEIGHT), d.draw(_COMPLEXES), order=6
    ),
    "kernel_K_BC.list": lambda d: kernel_K_BC(d.draw(_WEIGHT), d.draw(_COMPLEXES), d.draw(_BC)),
    "hermite_sigma_bc.list": lambda d: hermite_sigma_bc(d.draw(_DEGREE), d.draw(_WEIGHT), d.draw(_COMPLEXES)),
    # a list of real points reads as their array, and a ragged one is refused
    "frft_kernel.list": lambda d: frft_kernel(d.draw(_WEIGHT), d.draw(_THETA), d.draw(_REALS), d.draw(_REALS)),
    "mehler_closed.list": lambda d: mehler_closed(
        d.draw(_WEIGHT), d.draw(_THETA).theta, d.draw(_REALS), d.draw(_REAL)
    ),
    "mehler_series.list": lambda d: mehler_series(
        d.draw(_WEIGHT), d.draw(_THETA).theta, d.draw(_REALS), d.draw(_REAL), d.draw(_TERMS)
    ),
    "sbt_kernel_BC.list": lambda d: sbt_kernel_BC(d.draw(_WEIGHT), d.draw(_WEIGHT), d.draw(_REALS), d.draw(_BC)),
    "generating_G.list": lambda d: generating_G(d.draw(_WEIGHT), d.draw(_WEIGHT), d.draw(_REALS), d.draw(_BC)),
    "hermite_sigma.list": lambda d: hermite_sigma(d.draw(_DEGREE), d.draw(_WEIGHT), d.draw(_REALS)),
    "HermiteCoeffVector.evaluate.list": lambda d: HermiteCoeffVector(d.draw(_WEIGHT), d.draw(_ENTRIES)).evaluate(
        d.draw(_REALS)
    ),
    "frft_apply.list": lambda d: frft_apply(
        lambda x: x, d.draw(_THETA), d.draw(_REALS), sigma=d.draw(_WEIGHT), order=6
    ),
    "sbt_inverse_integral.list": lambda d: sbt_inverse_integral(
        lambda Z: Z, d.draw(_WEIGHT), d.draw(_WEIGHT), d.draw(_REALS), order=6
    ),
    "frft_kernel.ragged": lambda d: frft_kernel(d.draw(_WEIGHT), d.draw(_THETA), d.draw(_RAGGED), d.draw(_REAL)),
    "psi_values.ragged": lambda d: psi_values(d.draw(_DEGREE), d.draw(_WEIGHT), d.draw(_RAGGED)),
    "frft_apply.ragged": lambda d: frft_apply(
        lambda x: x, d.draw(_THETA), d.draw(_RAGGED), sigma=d.draw(_WEIGHT), order=6
    ),
    "sbt_inverse_integral.ragged": lambda d: sbt_inverse_integral(
        lambda Z: Z, d.draw(_WEIGHT), d.draw(_WEIGHT), d.draw(_RAGGED), order=6
    ),
    "frft_apply": lambda d: frft_apply(
        lambda x: x, d.draw(_THETA), np.array(d.draw(_REALS)), sigma=d.draw(_WEIGHT), order=6
    ),
    "frft_inverse": lambda d: frft_inverse(
        lambda x: x, d.draw(_THETA), np.array(d.draw(_REALS)), sigma=d.draw(_WEIGHT), order=6
    ),
    # the rules and the integrators on them; a weight near 1e-300 spreads the
    # nodes to 1e150, so a squared integrand times the weights leaves float range
    "gauss_hermite": lambda d: _rule_arrays(gauss_hermite(d.draw(st.integers(1, 400)), d.draw(_WEIGHT))),
    "integrate_real": lambda d: integrate_real(lambda t: t * t, _small_rule(d, 12, d.draw(_WEIGHT))),
    "integrate_complex": lambda d: integrate_complex(lambda xi: xi * xi, _small_rule(d, 12, d.draw(_WEIGHT))),
    "integrate_bicomplex": _ring_square_integral,
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
