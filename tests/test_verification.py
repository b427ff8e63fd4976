import numpy as np
import pytest

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
    got = draw(rng_vec, degree, param).coeffs
    want = [verification._rand_bc(rng_scalar) for _ in range(degree + 1)]
    assert got.alpha.tobytes() == np.array([z.alpha for z in want], dtype=complex).tobytes()
    assert got.beta.tobytes() == np.array([z.beta for z in want], dtype=complex).tobytes()
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
