"""The public surface: the names the package exports."""

import bctransforms

PUBLIC_NAMES = [
    "BCTransformsError", "Bicomplex", "BranchCutError", "CaseResult", "ConvergenceError",
    "DEFAULT_BC_ORDER", "DEFAULT_ORDER", "DimensionMismatch", "DomainError", "E_MINUS", "E_PLUS",
    "ExcludedParameterError", "HermiteCoeffVector", "I", "IJ", "INVERSE_ORDER", "IdempotentPair", "J",
    "MonomialCoeffVector", "NULL_TOL", "NonFiniteError", "NullConeError", "ONE", "QuadratureRule",
    "SUITE_NAMES", "ThetaParam", "VerificationReport", "ZERO", "add", "as_bicomplex", "bc_inner",
    "ck_frft_kernel", "conj_dagger", "conj_star", "conj_tilde", "eval_monomial_series", "exp",
    "frft_apply", "frft_coefficients", "frft_inverse", "frft_kernel", "from_idempotent",
    "gauss_hermite", "gaussian_integral_closed", "generating_G", "generating_series",
    "hermite_norm_sq", "hermite_sigma", "hermite_sigma_bc", "idempotent_split_F", "inner_H2nu",
    "inner_L2sigma", "integrate_bicomplex", "integrate_complex", "integrate_real", "inverse",
    "is_null_cone", "kernel_K_BC", "kernel_K_C", "mehler_bilinear_bc", "mehler_bilinear_series",
    "mehler_closed", "mehler_series", "monomial_norm_sq", "mul", "neg", "norm", "normalization_c",
    "pow", "project_P", "psi_n", "psi_values", "run_suite", "s_transform", "sbt_forward",
    "sbt_forward_integral", "sbt_inverse_coeff", "sbt_inverse_integral", "sbt_kernel_BC",
    "sbt_kernel_C", "sqrt_principal", "sub", "to_idempotent",
]


def test_all_is_the_public_surface():
    assert len(PUBLIC_NAMES) == 83
    assert sorted(bctransforms.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    assert [name for name in bctransforms.__all__ if not hasattr(bctransforms, name)] == []
