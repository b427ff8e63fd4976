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


def strict_json(text):
    """Parse ``text``, refusing the non-standard tokens NaN and (-)Infinity."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)
