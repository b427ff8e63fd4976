import json

import numpy as np
import pytest

from bctransforms import Bicomplex
from bctransforms import norm as bc_norm


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def rand_bc(rng, scale=1.0):
    x = rng.standard_normal(4) * scale
    return Bicomplex.from_reals(*x)


def assert_bc_close(a, b, tol=1e-12):
    err = bc_norm(a - b)
    assert err <= tol, f"bicomplex mismatch: {a} vs {b} (error {err:.3e} > {tol:.1e})"


def ring_mul(a, b):
    """(a1 + j a2)(b1 + j b2) = (a1 b1 - a2 b2) + j(a1 b2 + a2 b1) on component
    pairs: a ring product that never splits into the idempotent channels."""
    (a1, a2), (b1, b2) = a, b
    return a1 * b1 - a2 * b2, a1 * b2 + a2 * b1


def ring_exp(q):
    """exp(q1 + j q2) = e^{q1} (cos q2 + j sin q2) on a component pair, as
    j**2 = -1 and j commutes with i; the value as a Bicomplex."""
    q1, q2 = q
    return Bicomplex(np.exp(q1) * np.cos(q2), np.exp(q1) * np.sin(q2))


def strict_json(text):
    """Parse ``text``, refusing the non-standard tokens NaN and (-)Infinity."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)
