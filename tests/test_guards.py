"""Weight-parameter guards and fail-closed closed-form kernels, across modules."""

import math

import pytest

from bctransforms import Bicomplex
from bctransforms.bargmann import (
    HermiteCoeffVector,
    MonomialCoeffVector,
    kernel_K_BC,
    kernel_K_C,
    monomial_norm_sq,
)
from bctransforms.errors import NonFiniteError
from bctransforms.frft import (
    ThetaParam,
    ck_frft_kernel,
    frft_kernel,
    gaussian_integral_closed,
    mehler_bilinear_bc,
    mehler_closed,
)
from bctransforms.hermite import generating_G, hermite_norm_sq, hermite_sigma, psi_values
from bctransforms.quadrature import gauss_hermite, normalization_c
from bctransforms.transforms import (
    sbt_forward,
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
    # sigma is checked before theta, so an excluded theta still gives a plain ValueError
    "mehler_closed": lambda v: mehler_closed(v, 1.0, 0.3, -0.2),
    "gaussian_integral_closed": lambda v: gaussian_integral_closed(v, 0.0, 0.0, 0.0, 0.0),
}


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("name", list(WEIGHT_CALLS))
def test_weight_parameter_must_be_positive_and_finite(name, bad):
    with pytest.raises(ValueError) as info:
        WEIGHT_CALLS[name](bad)
    assert type(info.value) is ValueError
    assert "positive and finite" in str(info.value)


def test_monomial_norm_underflow_raises():
    # 2**160 160! / (1e300)**160 is far below the smallest float, but not zero
    with pytest.raises(NonFiniteError):
        monomial_norm_sq(160, 1e300)


BIG = Bicomplex(30.0, 0.0)
TORUS = THETA.theta

# each argument drives the exponent's real part past ~709
OVERFLOWING_KERNELS = {
    "kernel_K_C": lambda: kernel_K_C(2.0, 30.0, 30.0),
    "kernel_K_BC": lambda: kernel_K_BC(2.0, BIG, BIG),
    "sbt_kernel_C": lambda: sbt_kernel_C(1.0, 2.0, 0.0, 30j),
    "sbt_kernel_BC": lambda: sbt_kernel_BC(1.0, 2.0, 0.0, Bicomplex(60j, 0.0)),
    "generating_G": lambda: generating_G(1.0, 2.0, 0.0, Bicomplex(60j, 0.0)),
    "frft_kernel": lambda: frft_kernel(1.0, THETA, 0.0, 40.0),
    "ck_frft_kernel": lambda: ck_frft_kernel(1.0, THETA, 0.0, Bicomplex(40.0, 0.0)),
    "mehler_closed": lambda: mehler_closed(1.0, TORUS, 0.0, 40.0),
    "mehler_bilinear_bc": lambda: mehler_bilinear_bc(1.0, TORUS, Bicomplex(40.0, 0.0), 0.0),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", list(OVERFLOWING_KERNELS))
def test_closed_form_kernel_fails_closed(name):
    with pytest.raises(NonFiniteError, match="outside float range"):
        OVERFLOWING_KERNELS[name]()
