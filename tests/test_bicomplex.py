import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import bctransforms as bt
from bctransforms import (
    Bicomplex,
    IdempotentPair,
    as_bicomplex,
    bc_inner,
    conj_dagger,
    conj_star,
    conj_tilde,
)
from bctransforms.errors import BranchCutError, NonFiniteError, NullConeError

from conftest import assert_bc_close, rand_bc

_REALS = st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4)


class TestConstants:
    def test_idempotent_identities_exact(self):
        ep, em = bt.E_PLUS, bt.E_MINUS
        assert ep * ep == ep
        assert em * em == em
        assert ep * em == bt.ZERO
        assert ep + em == bt.ONE
        assert ep - em == bt.IJ

    def test_units(self):
        assert bt.I * bt.I == -bt.ONE
        assert bt.J * bt.J == -bt.ONE
        assert bt.I * bt.J == bt.IJ
        # ij is a square root of +1, not -1
        assert bt.IJ * bt.IJ == bt.ONE

    def test_channel_values_of_idempotents(self):
        assert bt.E_PLUS.alpha == 1 and bt.E_PLUS.beta == 0
        assert bt.E_MINUS.alpha == 0 and bt.E_MINUS.beta == 1


class TestConstruction:
    def test_from_reals_coordinates(self):
        Z = Bicomplex.from_reals(1.0, -2.0, 3.0, -4.0)
        assert (Z.x1, Z.y1, Z.x2, Z.y2) == (1.0, -2.0, 3.0, -4.0)

    def test_channel_roundtrip(self, rng):
        for _ in range(50):
            Z = rand_bc(rng)
            W = Bicomplex.from_channels(Z.alpha, Z.beta)
            assert_bc_close(Z, W, tol=1e-15)

    def test_to_from_idempotent(self, rng):
        Z = rand_bc(rng)
        pair = bt.to_idempotent(Z)
        assert isinstance(pair, IdempotentPair)
        assert pair.alpha == Z.alpha and pair.beta == Z.beta
        assert_bc_close(bt.from_idempotent(pair), Z, tol=1e-15)

    def test_from_complex(self):
        Z = Bicomplex.from_complex(2.0 + 1.0j)
        assert Z.z1 == 2.0 + 1.0j and Z.z2 == 0j

    def test_as_bicomplex_coercions(self):
        assert as_bicomplex(3) == Bicomplex(3 + 0j, 0j)
        assert as_bicomplex(1.5) == Bicomplex(1.5 + 0j, 0j)
        assert as_bicomplex(2j) == Bicomplex(2j, 0j)
        assert as_bicomplex(np.complex128(1 + 1j)) == Bicomplex(1 + 1j, 0j)
        Z = Bicomplex(1j, 2j)
        assert as_bicomplex(Z) is Z
        arr = as_bicomplex(np.array([1.0, 2.0]))
        assert isinstance(arr.z1, np.ndarray)
        with pytest.raises(TypeError):
            as_bicomplex("nope")

    def test_immutable(self):
        Z = Bicomplex(1j, 0j)
        with pytest.raises(AttributeError):
            Z.z1 = 0j

    def test_json_roundtrip(self):
        Z = Bicomplex.from_reals(0.25, -1.5, 3.0, 0.125)
        assert Bicomplex.from_json(Z.to_json()) == Z
        with pytest.raises(ValueError):
            Bicomplex.from_json([1.0, 2.0])

    def test_array_components_not_json_encodable(self):
        Z = Bicomplex(np.array([1.0 + 0j]), np.array([0j]))
        with pytest.raises(TypeError):
            Z.to_json()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteError):
            Bicomplex.from_json([0.5, bad, 0.0, 1.0])
        with pytest.raises(NonFiniteError):
            Bicomplex.from_json([[0.5, 0.0, 0.0, 1.0], [0.0, 0.0, bad, 0.0]])
        with pytest.raises(NonFiniteError):
            Bicomplex(complex(bad, 0.0), 1j).to_json()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_components_near_the_float_maximum(self):
        # each component halves its channels before adding them, so channels
        # near the float maximum give finite components, which encode
        big = 1.5e308
        assert Bicomplex.from_channels(big, big).z1 == big
        assert Bicomplex.from_channels(big, -big).z2 == big * 1j
        assert Bicomplex.from_channels(big, big).to_json() == [big, 0.0, 0.0, 0.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Bicomplex(1e308 + 1e308j, 1e308j),
            lambda: Bicomplex(np.complex128(1e308 + 1e308j), 1e308j),
            lambda: Bicomplex(np.array([0.5 + 0j, 1e308 + 1e308j]), np.array([0j, 1e308j])),
            lambda: Bicomplex.from_json([[1e308, 0.0, 0.0, 1e308]]),
            lambda: Bicomplex.from_json([1e308, 0.0, 0.0, 1e308]),
            # the imaginary part of alpha overflows next to an infinite real part
            lambda: Bicomplex(complex(math.inf, 1e308), -1e308 + 0j),
            lambda: Bicomplex(np.array([complex(math.inf, 1e308)]), np.array([-1e308 + 0j])),
        ],
        ids=["scalar", "numpy-scalar", "array", "json-rows", "json-row", "scalar-part-inf", "array-part-inf"],
    )
    def test_finite_parts_with_an_overflowing_channel_part_are_refused(self, build):
        # a part of alpha = z1 - i z2 leaves float range although the parts it
        # is formed from are finite
        with pytest.raises(NonFiniteError, match="outside float range"):
            build()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_components_still_propagate(self):
        assert Bicomplex(math.inf, 0).alpha == math.inf
        assert cmath.isnan(Bicomplex(complex(math.nan, 1.0), 1e308 + 0j).beta)
        Z = Bicomplex(np.array([math.inf + 0j, 0.5 + 0j]), np.array([0j, 0.25j]))
        assert Z.alpha.tolist() == [math.inf, 0.75]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_components_of_non_finite_channels_read_without_warning(self):
        # the components take their IEEE values, as for Python scalars
        Z = Bicomplex(np.array([math.inf + 0j]), 0j)
        assert repr(Z) == "Bicomplex(array([inf+nanj]), array([nan+nanj]))"
        assert Z.x1.tolist() == [math.inf]
        assert all(np.isnan(v).all() for v in (Z.y1, Z.x2, Z.y2))
        assert repr(Bicomplex(math.inf, 0)) == "Bicomplex((inf+nanj), (nan+nanj))"

    def test_json_decodes_rows_to_array_value(self):
        Z = Bicomplex.from_json([[1.0, 2.0, 3.0, 4.0], [0.5, 0.0, -0.5, 0.25]])
        assert_allclose(Z.z1, [1 + 2j, 0.5])
        assert_allclose(Z.z2, [3 + 4j, -0.5 + 0.25j])


class TestArrayValued:
    def test_indexing_and_iteration_yield_bicomplex(self):
        Z = Bicomplex(np.array([1 + 2j, 3j, -1.0]), np.array([0.5j, 2.0, 1 - 1j]))
        assert Z[1] == Bicomplex.from_channels(Z.alpha[1], Z.beta[1])
        assert Z[-1] == Bicomplex.from_channels(Z.alpha[2], Z.beta[2])
        assert Z[1:] == Bicomplex.from_channels(Z.alpha[1:], Z.beta[1:])
        items = list(Z)
        assert len(items) == 3
        assert all(isinstance(c, Bicomplex) for c in items)
        assert items[0] == Z[0]

    def test_scalar_value_is_truthy_and_not_iterable(self):
        Z = Bicomplex(1j, 0j)
        assert bool(Z)
        with pytest.raises(TypeError):
            iter(Z)


class TestArithmetic:
    def test_mul_matches_channelwise(self, rng):
        # channels are formed here from the sampled reals, so the check does
        # not depend on how a value is stored; each channel is correct to a
        # few ulp at the scale of the larger channel
        def channels(x):
            return complex(x[0] + x[3], x[1] - x[2]), complex(x[0] - x[3], x[1] + x[2])

        for _ in range(100):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            (za, zb), (wa, wb) = channels(x), channels(y)
            P = Bicomplex.from_reals(*x) * Bicomplex.from_reals(*y)
            scale = max(abs(za * wa), abs(zb * wb), 1e-300)
            assert abs(P.alpha - za * wa) <= 4 * np.spacing(scale)
            assert abs(P.beta - zb * wb) <= 4 * np.spacing(scale)

    @settings(max_examples=300, deadline=None)
    @given(x=_REALS, y=_REALS)
    def test_mul_matches_component_formula(self, x, y):
        Z, W = Bicomplex.from_reals(*x), Bicomplex.from_reals(*y)
        z1, z2, w1, w2 = complex(x[0], x[1]), complex(x[2], x[3]), complex(y[0], y[1]), complex(y[2], y[3])
        want = Bicomplex(z1 * w1 - z2 * w2, z1 * w2 + z2 * w1)
        assert bt.norm(Z * W - want) <= 1e-14 * bt.norm(Z) * bt.norm(W)

    def test_mul_commutes_and_distributes(self, rng):
        Z, W, V = (rand_bc(rng) for _ in range(3))
        assert_bc_close(Z * W, W * Z, tol=0.0)
        assert_bc_close(Z * (W + V), Z * W + Z * V, tol=1e-14)

    def test_scalar_ops(self):
        Z = Bicomplex(1 + 2j, 3 + 4j)
        assert 2 * Z == Bicomplex(2 + 4j, 6 + 8j)
        assert Z * 0.5 == Bicomplex(0.5 + 1j, 1.5 + 2j)
        assert Z + 1 == Bicomplex(2 + 2j, 3 + 4j)
        assert 1 - Z == Bicomplex(-2j, -3 - 4j)
        assert Z / 2 == Bicomplex(0.5 + 1j, 1.5 + 2j)
        assert -Z == Bicomplex(-1 - 2j, -3 - 4j)
        assert +Z is Z

    def test_ndarray_interop_both_sides(self):
        Z = Bicomplex(1 + 0j, 2j)
        x = np.array([0.0, 1.0, 2.0])
        left = x - Z
        right = -(Z - x)
        assert isinstance(left, Bicomplex)
        assert_allclose(left.z1, right.z1)
        assert_allclose(left.z2, right.z2)
        prod = x * Z
        assert_allclose(prod.z1, x * (1 + 0j))
        assert_allclose(prod.z2, x * 2j)

    def test_division_by_bicomplex(self, rng):
        Z, W = rand_bc(rng), rand_bc(rng)
        if not W.is_null(1e-6):
            assert_bc_close((Z / W) * W, Z, tol=1e-12)

    def test_rtruediv(self):
        Z = Bicomplex(2 + 0j, 0j)
        assert_bc_close(1.0 / Z, Bicomplex(0.5 + 0j, 0j), tol=0.0)

    def test_pow_int(self, rng):
        Z = rand_bc(rng)
        assert Z**0 == bt.ONE
        assert_bc_close(Z**3, Z * Z * Z, tol=1e-13 * bt.norm(Z) ** 3)

    def test_pow_negative_is_inverse_power(self, rng):
        Z = rand_bc(rng) + Bicomplex(3 + 0j, 0j)
        assert_bc_close(Z**-2, bt.inverse(Z) ** 2, tol=1e-14)

    @pytest.mark.parametrize("power", [lambda Z: bt.pow(Z, 3), lambda Z: Z**3], ids=["pow", "dunder"])
    def test_pow_overflows_to_inf_like_mul(self, power):
        # Python's complex power raises OverflowError here; a ring primitive
        # propagates inf/NaN the way numpy (and the product) does
        Z = Bicomplex(1e200, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            P = power(Z)
            want = np.power(np.complex128(1e200), 3)
        assert not np.isfinite(P.alpha) and not np.isfinite(P.beta)
        for channel in (P.alpha, P.beta):
            assert np.array_equal(channel, want, equal_nan=True)
        assert math.isinf(bt.mul(Z, bt.mul(Z, Z)).alpha.real)

    def test_pow_contract_rejects_negative(self):
        with pytest.raises(ValueError):
            bt.pow(bt.ONE, -1)

    def test_named_ops_match_dunders(self, rng):
        Z, W = rand_bc(rng), rand_bc(rng)
        assert bt.add(Z, W) == Z + W
        assert bt.sub(Z, W) == Z - W
        assert bt.neg(Z) == -Z
        assert bt.mul(Z, W) == Z * W


class TestConjugations:
    def test_dagger_swaps_channels(self, rng):
        Z = rand_bc(rng)
        D = conj_dagger(Z)
        assert D.alpha == Z.beta and D.beta == Z.alpha

    def test_tilde_conjugate_swaps(self, rng):
        Z = rand_bc(rng)
        T = conj_tilde(Z)
        assert T.alpha == np.conjugate(Z.beta)
        assert T.beta == np.conjugate(Z.alpha)

    def test_star_conjugates_each_channel(self, rng):
        Z = rand_bc(rng)
        S = conj_star(Z)
        assert S.alpha == np.conjugate(Z.alpha)
        assert S.beta == np.conjugate(Z.beta)

    @pytest.mark.parametrize("conj", [conj_dagger, conj_tilde, conj_star])
    def test_involution_and_multiplicativity(self, conj, rng):
        for _ in range(20):
            Z, W = rand_bc(rng), rand_bc(rng)
            assert conj(conj(Z)) == Z
            assert conj(Z * W) == conj(Z) * conj(W)

    def test_star_is_dagger_after_tilde(self, rng):
        Z = rand_bc(rng)
        assert conj_star(Z) == conj_dagger(conj_tilde(Z))

    def test_inner_conjugate_symmetry(self, rng):
        Z, W = rand_bc(rng), rand_bc(rng)
        assert_bc_close(bc_inner(Z, W), conj_star(bc_inner(W, Z)), tol=1e-15)

    def test_inner_self_scalar_part_is_norm_sq(self, rng):
        Z = rand_bc(rng)
        val = bc_inner(Z, Z)
        assert_allclose(val.z1.real, bt.norm(Z) ** 2, rtol=1e-14)


class TestNormAndNullCone:
    def test_norm_formula(self):
        Z = Bicomplex.from_reals(1.0, 2.0, 2.0, 4.0)
        assert bt.norm(Z) == math.sqrt(1 + 4 + 4 + 16)
        assert abs(Z) == bt.norm(Z)

    def test_norm_channel_identity(self, rng):
        for _ in range(50):
            Z = rand_bc(rng, scale=3.0)
            expect = math.sqrt((abs(Z.alpha) ** 2 + abs(Z.beta) ** 2) / 2.0)
            assert_allclose(bt.norm(Z), expect, rtol=1e-14)

    def test_norm_array_components(self):
        Z = Bicomplex(np.array([3.0 + 0j, 0j]), np.array([4.0 + 0j, 0j]))
        assert_allclose(bt.norm(Z), [5.0, 0.0])

    @pytest.mark.parametrize("x", [1e-170, 1e-300, 1e200, 1e300])
    def test_norm_has_no_intermediate_overflow_or_underflow(self, x):
        Z = Bicomplex(complex(x, 0.0), complex(0.0, 0.0))
        assert_allclose(bt.norm(Z), x, rtol=1e-15)
        assert_allclose(bt.norm(Bicomplex.from_reals(x, x, x, x)), 2.0 * x, rtol=1e-15)
        arr = Bicomplex(np.array([x + 0j, 3.0 + 0j]), np.array([0j, 4.0 + 0j]))
        assert_allclose(bt.norm(arr), [x, 5.0], rtol=1e-15)

    def test_norm_near_float_maximum_stays_finite(self):
        # hypot(|alpha|, |beta|) is 2e308 here; the norm itself is representable
        true = 1.4142135623730951e308
        assert_allclose(bt.norm(Bicomplex(1e308, 1e308)), true, rtol=1e-15)
        arr = Bicomplex(np.array([1e308 + 0j, 3.0 + 0j]), np.array([1e308 + 0j, 4.0 + 0j]))
        with np.errstate(all="raise"):
            assert_allclose(bt.norm(arr), [true, 5.0], rtol=1e-15)

    def test_null_cone_members(self):
        assert bt.is_null_cone(bt.E_PLUS)
        assert bt.is_null_cone(bt.E_MINUS)
        assert bt.is_null_cone(bt.ZERO)
        assert not bt.is_null_cone(bt.ONE)
        assert not bt.is_null_cone(bt.IJ)
        # null cone elements multiply to zero with their partner
        assert bt.E_PLUS * bt.E_MINUS == bt.ZERO

    def test_inverse_off_cone(self, rng):
        for _ in range(30):
            Z = rand_bc(rng)
            if Z.is_null(1e-6):
                continue
            assert_bc_close(Z * bt.inverse(Z), bt.ONE, tol=1e-12)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_inverse_raises_on_cone(self, bad):
        Z = [bt.E_PLUS, bt.E_MINUS][bad]
        with pytest.raises(NullConeError):
            bt.inverse(Z)

    def test_inverse_tolerance_window(self):
        Z = bt.ONE + 1e-13 * bt.E_PLUS - bt.E_PLUS  # alpha ~ 1e-13, beta = 1
        with pytest.raises(NullConeError):
            bt.inverse(Z)
        assert bt.inverse(Z, tol=1e-14) is not None

    def test_is_null_on_array_components(self):
        near = Bicomplex.from_channels(np.array([1.0, 1e-13, 2.0]), np.ones(3))
        far = Bicomplex.from_channels(np.array([1.0, 0.5, 2.0]), np.ones(3))
        assert near.is_null() is True
        assert far.is_null() is False
        assert bt.is_null_cone(near)
        assert bt.to_idempotent(near).is_null()
        assert not bt.to_idempotent(far).is_null()
        with pytest.raises(NullConeError):
            bt.inverse(near)
        product = far * bt.inverse(far)
        assert_allclose(product.z1, 1.0, atol=1e-15)
        assert_allclose(product.z2, 0.0, atol=1e-15)


class TestTranscendental:
    def test_exp_additive(self, rng):
        Z, W = rand_bc(rng, 0.7), rand_bc(rng, 0.7)
        assert_bc_close(bt.exp(Z + W), bt.exp(Z) * bt.exp(W), tol=1e-13)

    def test_exp_zero(self):
        assert bt.exp(bt.ZERO) == bt.ONE

    def test_exp_of_j_rotation(self):
        # j**2 = -1, so exp(t J) = cos(t) + J sin(t)
        t = 0.8375
        got = bt.exp(t * bt.J)
        want = math.cos(t) + math.sin(t) * bt.J
        assert_bc_close(got, want, tol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(x=_REALS)
    def test_exp_matches_component_formula(self, x):
        z1, z2 = complex(x[0], x[1]), complex(x[2], x[3])
        want = cmath.exp(z1) * (cmath.cos(z2) + cmath.sin(z2) * bt.J)
        assert bt.norm(bt.exp(Bicomplex.from_reals(*x)) - want) <= 1e-14 * bt.norm(want)

    def test_exp_channelwise(self, rng):
        Z = rand_bc(rng)
        E = bt.exp(Z)
        assert_allclose(complex(E.alpha), complex(np.exp(Z.alpha)), rtol=1e-15)
        assert_allclose(complex(E.beta), complex(np.exp(Z.beta)), rtol=1e-15)

    def test_sqrt_squares_back(self, rng):
        for _ in range(30):
            Z = bt.ONE + rand_bc(rng, 0.4)
            R = bt.sqrt_principal(Z)
            assert_bc_close(R * R, Z, tol=1e-13)

    def test_sqrt_branch_cut_raises(self):
        with pytest.raises(BranchCutError):
            bt.sqrt_principal(Bicomplex(-4.0 + 0j, 0j))
        # zero channel sits on the closed cut as well
        with pytest.raises(BranchCutError):
            bt.sqrt_principal(bt.E_PLUS)

    def test_sqrt_just_off_cut(self):
        Z = Bicomplex(-4.0 + 1e-8j, 0j)
        R = bt.sqrt_principal(Z)
        assert_bc_close(R * R, Z, tol=1e-12)


class TestIdempotentPair:
    def test_mul_componentwise(self):
        p = IdempotentPair(2 + 0j, 3 + 0j)
        q = IdempotentPair(5 + 0j, 7 + 0j)
        assert p * q == IdempotentPair(10 + 0j, 21 + 0j)

    def test_json_roundtrip(self):
        p = IdempotentPair(1.5 - 0.5j, -2.0 + 0.25j)
        assert IdempotentPair.from_json(p.to_json()) == p

    def test_is_null(self):
        assert IdempotentPair(0j, 1 + 0j).is_null()
        assert not IdempotentPair(1 + 0j, 1 + 0j).is_null()
