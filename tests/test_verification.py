import numpy as np
import pytest

from bctransforms import verification


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
