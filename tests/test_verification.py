import math
import warnings

import numpy as np
import pytest

from bctransforms import (
    Bicomplex,
    DomainError,
    HermiteCoeffVector,
    MonomialCoeffVector,
    bc_inner,
    eval_monomial_series,
    inner_L2sigma,
)
from bctransforms import norm as bc_norm
from bctransforms import verification

from conftest import strict_json


@pytest.mark.parametrize(
    "draw, param",
    [(verification._rand_hermite_vec, 1.3), (verification._rand_monomial_vec, 2.0)],
)
@pytest.mark.parametrize("degree", [0, 1, 7])
def test_random_vectors_match_scalar_draws(draw, param, degree):
    # a vector drawn as channel arrays must equal one built from degree + 1
    # scalar draws, bit for bit, and leave the generator in the same state,
    # so that every verification case keeps its draws
    rng_vec, rng_scalar = np.random.default_rng(7), np.random.default_rng(7)
    vec = draw(rng_vec, degree, param)
    got = vec.coeffs
    # through the same constructor: a monomial vector holds A_n / r_n, so its
    # raw coefficients come back rounded once more
    want = type(vec)(param, [verification._rand_bc(rng_scalar) for _ in range(degree + 1)]).coeffs
    assert got.alpha.tobytes() == want.alpha.tobytes()
    assert got.beta.tobytes() == want.beta.tobytes()
    assert rng_vec.bit_generator.state == rng_scalar.bit_generator.state


CASE_IDS = [
    "algebra/idempotent-identities", "algebra/idempotent-roundtrip", "algebra/conjugations",
    "algebra/mul-channelwise", "algebra/norm-identity", "algebra/schwarz", "algebra/inverse",
    "algebra/exp-pow-sqrt",
    "hermite/recurrence-vs-explicit", "hermite/orthonormality", "hermite/norm-formula",
    "hermite/generating-closed-vs-series", "hermite/generating-pairing",
    "quadrature/gaussian-mass", "quadrature/even-moments", "quadrature/odd-symmetry",
    "quadrature/complex-moment", "quadrature/bicomplex-mass", "quadrature/scaling-covariance",
    "quadrature/nonfinite-raises",
    "bargmann/monomial-orthogonality", "bargmann/reproducing", "bargmann/annihilates-antiholomorphic",
    "bargmann/kernel-symmetry", "bargmann/kernel-expansion", "bargmann/pointwise-bound",
    "bargmann/parseval", "bargmann/split-norm", "bargmann/basis-norm-transport",
    "transform/hermite-action", "transform/isometry", "transform/integral-vs-coeff",
    "transform/roundtrip-coeff", "transform/inverse-integral", "transform/inverse-split-vs-tensor",
    "transform/kernel-identity", "transform/slice-monomials", "transform/slice-norm-transport",
    "transform/slice-surjectivity",
    "frft/eigenfunctions", "frft/plancherel", "frft/inversion", "frft/semigroup",
    "frft/factorization", "frft/coeff-vs-integral", "frft/fourier-reduction",
    "frft/excluded-parameters", "frft/kernel-decay-rate", "frft/gaussian-closed",
    "mehler/closed-vs-series", "mehler/bilinear", "mehler/torus-kernel-relation",
    "mehler/ck-restriction",
]


@pytest.fixture(scope="module")
def report_all():
    return verification.run_suite("all")


def test_registry_order(report_all):
    assert verification.SUITE_NAMES == (
        "algebra", "hermite", "quadrature", "bargmann", "transform", "frft", "mehler", "all",
    )
    assert [c.id for c in report_all.cases] == CASE_IDS
    assert report_all.all_passed


@pytest.mark.parametrize("order", [128, 256])
def test_all_pass_at_high_order(order):
    # the integral cases read the rule at this order out to its tail weights
    report = verification.run_suite("all", order=order)
    assert report.all_passed, [(c.id, c.error) for c in report.cases if not c.passed]


def test_all_equals_concatenated_suites(report_all):
    # every case seeds its own generator, so its error does not depend on
    # which cases ran before it
    parts = [c for s in verification.SUITE_NAMES[:-1] for c in verification.run_suite(s).cases]
    key = lambda c: (c.id, c.desc, c.tol.hex(), c.passed, float(c.error).hex())
    assert [key(c) for c in parts] == [key(c) for c in report_all.cases]


def test_raising_callee_fails_only_its_cases(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken projection")

    monkeypatch.setattr(verification, "project_P", broken)
    report = verification.run_suite("all")
    failed = [c for c in report.cases if not c.passed]
    assert [c.id for c in failed] == ["bargmann/reproducing", "bargmann/annihilates-antiholomorphic"]
    for c in failed:
        assert c.error == float("inf")
        assert "[raised RuntimeError: broken projection]" in c.desc
    assert len(report.cases) - len(failed) == 51
    # the JSON report stays strict: the infinite error is written as null
    cases = {c["id"]: c for c in strict_json(report.to_json())["cases"]}
    for c in failed:
        assert cases[c.id]["error"] is None and cases[c.id]["status"] == "raised"
    assert sum(c["status"] == "pass" for c in cases.values()) == 51


def test_rejects_reads_inf_when_the_call_returns():
    assert verification._rejects(ValueError, lambda: None) == float("inf")
    assert verification._rejects(ValueError, lambda: int("x")) == 0.0
    with pytest.raises(TypeError):
        verification._rejects(ValueError, lambda: len(1))


# ------------------------------------------- array forms against the library


def _old_loop_errors(case_id, seed, nu=2.0):
    """The error of ``case_id`` as its per-sample scalar loop computed it: the
    same draws, one scalar Bicomplex at a time."""
    bc, rand = verification.bc, verification._rand_bc
    rng = np.random.default_rng(seed)
    rel = lambda got, want: bc.norm(got - want) / max(bc.norm(want), 1e-300)
    errors = [0.0]
    if case_id == "algebra/conjugations":
        for _ in range(200):
            Z, W = rand(rng), rand(rng)
            for conj in (bc.conj_dagger, bc.conj_tilde, bc.conj_star):
                errors += [bc.norm(conj(conj(Z)) - Z), bc.norm(conj(Z * W) - conj(Z) * conj(W))]
    elif case_id == "algebra/mul-channelwise":
        for _ in range(200):
            Z, W = rand(rng), rand(rng)
            pair = bc.to_idempotent(Z) * bc.to_idempotent(W)
            errors.append(bc.norm(Z * W - pair.to_bicomplex()))
    elif case_id == "algebra/inverse":
        for _ in range(200):
            Z = rand(rng)
            if not Z.is_null(1e-6):
                errors.append(bc.norm(Z * bc.inverse(Z) - bc.ONE))
    elif case_id == "algebra/exp-pow-sqrt":
        for _ in range(200):
            Z, W = rand(rng, 0.8), rand(rng, 0.8)
            errors.append(rel(bc.exp(Z + W), bc.exp(Z) * bc.exp(W)))
            errors.append(bc.norm(bc.pow(Z, 5) - Z * Z * Z * Z * Z) / max(bc.norm(Z) ** 5, 1e-300))
            Q = bc.ONE + rand(rng, 0.3)
            R = bc.sqrt_principal(Q)
            errors.append(rel(R * R, Q))
    elif case_id == "bargmann/kernel-symmetry":
        for _ in range(50):
            Z, W = rand(rng), rand(rng)
            K = verification.kernel_K_BC
            errors.append(rel(verification.conj_star(K(nu, W, Z)), K(nu, Z, W)))
    return max(errors)


# how far, in units of the double epsilon, each array form's error may sit
# from its scalar loop's on the same draws: the products and conjugations
# are exact either way; numpy's array exp, power and reciprocal round
# differently from its scalar path
ARRAY_FORM_ULPS = {
    "algebra/conjugations": 0,
    "algebra/mul-channelwise": 0,
    "algebra/inverse": 8,
    "algebra/exp-pow-sqrt": 8,
    "bargmann/kernel-symmetry": 32,
}


def _case(case_id):
    return next(c for c in verification._CASES if c.id == case_id)


def _params(seed, **kwargs):
    base = dict(sigma=1.0, nu=2.0, order=64, seed=seed, theta=None)
    return verification._Params(**{**base, **kwargs})


@pytest.mark.parametrize("seed", [20240817, 1, 2])
@pytest.mark.parametrize("case_id", list(ARRAY_FORM_ULPS))
def test_array_form_matches_scalar_loop(case_id, seed):
    got = verification._run_case(_case(case_id), _params(seed)).error
    want = _old_loop_errors(case_id, seed)
    assert abs(got - want) <= ARRAY_FORM_ULPS[case_id] * np.finfo(float).eps, (got, want)


def _rel_err(got, want):
    return float(bc_norm(got - want) / bc_norm(want))


def test_schwarz_rows_match_library_pairing():
    # the case's stacked, zero-padded coordinate rows give, row by row, the
    # pairing and norms of the vectors cut at each drawn degree
    rng = np.random.default_rng(20240817)
    (df, F), (dg, G) = verification._padded_coeffs(rng, 300, 7), verification._padded_coeffs(rng, 300, 7)
    pair = verification._rowsum(bc_inner(F, G))
    for k in range(5):
        f = HermiteCoeffVector(1.3, F[k][: df[k] + 1])
        g = HermiteCoeffVector(1.3, G[k][: dg[k] + 1])
        assert _rel_err(pair[k], inner_L2sigma(f, g)) <= 1e-15
        for vec, rows in ((f, F), (g, G)):
            assert abs(np.sum(bc_norm(rows[k]) ** 2) - vec.norm_sq()) <= 1e-15 * vec.norm_sq()


def test_pointwise_bound_rows_match_library_series():
    nu = 1.7
    rng = np.random.default_rng(20240817)
    degrees, A = verification._padded_coeffs(rng, 100, 6)
    Z = verification._rand_bcs_bounded(rng, 100, 1.5)
    assert np.all(bc_norm(Z) <= 1.5)
    values, norms = verification._power_sum(A, Z), verification._raw_norm_sq(A, nu)
    for k in range(5):
        f = MonomialCoeffVector(nu, A[k][: degrees[k] + 1])
        assert _rel_err(values[k], eval_monomial_series(f, Z[k])) <= 1e-15
        assert abs(norms[k] - f.norm_sq()) <= 1e-15 * f.norm_sq()


def test_bounded_draws_are_rejection_samples():
    # one round per missing count: at n = 1 the array sampler makes the
    # scalar sampler's draws
    rng_vec, rng_scalar = np.random.default_rng(3), np.random.default_rng(3)
    Z = verification._rand_bcs_bounded(rng_vec, 1, 1.2)
    want = verification._rand_bc_bounded(rng_scalar, 1.2)
    assert Z.alpha.tolist() == [want.alpha] and Z.beta.tolist() == [want.beta]
    assert rng_vec.bit_generator.state == rng_scalar.bit_generator.state


# ------------------------------------------------ a NaN fails an array case


def _nan_at_one_sample(fn):
    """``fn`` whose array-valued results read NaN at sample 3."""
    def patched(*args, **kwargs):
        out = fn(*args, **kwargs)
        if np.ndim(out.alpha) == 0:
            return out
        alpha = np.array(out.alpha)
        alpha[3] = np.nan
        return Bicomplex.from_channels(alpha, out.beta)
    return patched


@pytest.mark.parametrize(
    "target, name, failing",
    [
        (verification, "kernel_K_BC", ["bargmann/kernel-symmetry"]),
        (verification.bc, "exp", ["algebra/exp-pow-sqrt", "bargmann/pointwise-bound"]),
    ],
    ids=["kernel", "exp"],
)
def test_nan_at_one_sample_fails_only_its_cases(monkeypatch, target, name, failing):
    monkeypatch.setattr(target, name, _nan_at_one_sample(getattr(target, name)))
    report = verification.run_suite("all")
    assert [c.id for c in report.cases if not c.passed] == failing
    cases = {c["id"]: c for c in strict_json(report.to_json())["cases"]}
    for cid in failing:
        assert cases[cid]["error"] is None and cases[cid]["status"] == "fail"
    assert sum(c["status"] == "pass" for c in cases.values()) == len(CASE_IDS) - len(failing)


# ------------------------------------------------------- parameter domain


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigma": 0.0}, {"sigma": -1.0}, {"sigma": math.nan}, {"sigma": math.inf}, {"sigma": 1 + 0j},
        {"nu": math.nan}, {"nu": -2.0}, {"nu": 10**400},
        {"order": 0}, {"order": -3}, {"order": 64.0}, {"order": True}, {"order": "64"},
        {"seed": -1}, {"seed": 1.0}, {"seed": True},
        {"theta": Bicomplex.from_channels(1j, -1j)}, {"theta": 0.5},
    ],
    ids=repr,
)
def test_bad_parameters_raise_before_any_case_runs(monkeypatch, kwargs):
    ran = []
    monkeypatch.setattr(verification, "_run_case", lambda case, params: ran.append(case))
    with pytest.raises(DomainError):
        verification.run_suite("all", **kwargs)
    assert ran == []


def test_numpy_ints_are_valid_order_and_seed():
    report = verification.run_suite("algebra", order=np.int64(8), seed=np.uint32(3))
    assert report.all_passed
    assert strict_json(report.to_json())["params"] == {"sigma": 1.0, "nu": 2.0, "order": 8, "seed": 3}


def test_numpy_float_weights_run_as_python_floats():
    # a float32 weight once overflowed a cast in the weight guard; the cases
    # then run in double precision and the report encodes the weights
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = verification.run_suite("all", sigma=np.float32(1.0), nu=np.float32(2.0))
    assert report.all_passed
    assert strict_json(report.to_json())["params"] == {"sigma": 1.0, "nu": 2.0, "order": 64, "seed": 20240817}


def test_write_encodes_before_it_opens(tmp_path):
    report = verification.VerificationReport("algebra", {"nu": math.nan})
    with pytest.raises(ValueError):
        report.write(tmp_path / "r.json")
    assert list(tmp_path.iterdir()) == []
