import math

import numpy as np
import pytest

from hypograph.config import FeatureConfig
from hypograph.tensoralg import (
    add,
    algebra_mul,
    inner_product,
    lift,
    scale,
    sequence_feature,
    unit,
)


def outer_loop_oracle(a, b):
    """Element-wise loop definition of the outer product."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.zeros(a.shape + b.shape)
    for ia in np.ndindex(a.shape):
        for ib in np.ndindex(b.shape):
            out[ia + ib] = a[ia] * b[ib]
    return out


def convolution_oracle(v, w):
    """Brute-force graded product of two level lists."""
    m_max = len(v) - 1
    out = []
    for m in range(m_max + 1):
        acc = np.zeros(np.shape(outer_loop_oracle(v[m], np.float64(1.0))))
        for i in range(m + 1):
            acc = acc + outer_loop_oracle(v[i], w[m - i])
        out.append(acc)
    return out


class TestAlgebraMul:
    def test_degree_one_expansion(self):
        a, b = np.array([1.0, -2.0]), np.array([0.5, 3.0])
        v = [np.float64(1.0), a, np.zeros((2, 2))]
        w = [np.float64(1.0), b, np.zeros((2, 2))]
        out = algebra_mul(v, w)
        assert out[0] == 1.0
        np.testing.assert_allclose(out[1], a + b)
        np.testing.assert_allclose(out[2], np.outer(a, b))

    def test_unit_is_identity(self):
        rng = np.random.default_rng(0)
        w = [np.float64(rng.standard_normal())] + [
            rng.standard_normal((3,) * m) for m in (1, 2)
        ]
        one = unit(3, 2)
        for prod in (algebra_mul(one, w), algebra_mul(w, one)):
            for m in range(3):
                np.testing.assert_array_equal(prod[m], w[m])

    def test_matches_convolution_oracle_d1(self):
        v = [np.float64(1.0), np.array([1.0]), np.array([[0.5]])]
        out = algebra_mul(v, v)
        assert out[0] == 1.0
        np.testing.assert_allclose(out[1], [2.0])
        np.testing.assert_allclose(out[2], [[2.0]])  # 0.5 + 1*1 + 0.5

    def test_matches_convolution_oracle_random(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            d, m_max = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            lv = lambda: [np.float64(rng.standard_normal())] + [
                rng.standard_normal((d,) * m) for m in range(1, m_max + 1)
            ]
            a, b = lv(), lv()
            got = algebra_mul(a, b)
            want = convolution_oracle(a, b)
            for m in range(m_max + 1):
                np.testing.assert_allclose(got[m], want[m], rtol=1e-12, atol=1e-14)

    def test_associative(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d, m_max = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            mk = lambda: [np.float64(rng.standard_normal())] + [
                rng.standard_normal((d,) * m) for m in range(1, m_max + 1)
            ]
            u, v, w = mk(), mk(), mk()
            left = algebra_mul(algebra_mul(u, v), w)
            right = algebra_mul(u, algebra_mul(v, w))
            for m in range(m_max + 1):
                np.testing.assert_allclose(left[m], right[m], rtol=1e-12)

    def test_not_commutative(self):
        e1 = [np.float64(0.0), np.array([1.0, 0.0]), np.zeros((2, 2))]
        e2 = [np.float64(0.0), np.array([0.0, 1.0]), np.zeros((2, 2))]
        ab = algebra_mul(e1, e2)
        ba = algebra_mul(e2, e1)
        assert not np.array_equal(ab[2], ba[2])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            algebra_mul(unit(2, 2), unit(3, 2))


class TestInnerProduct:
    def test_orthonormal_basis_tensors(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        e12 = [np.float64(0.0), np.zeros(2), np.outer(e1, e2)]
        e21 = [np.float64(0.0), np.zeros(2), np.outer(e2, e1)]
        assert inner_product(e12, e12) == 1.0
        assert inner_product(e12, e21) == 0.0

    def test_unit(self):
        one = unit(2, 3)
        assert inner_product(one, one) == 1.0

    def test_hand_value(self):
        v = [np.float64(1.0), np.array([2.0]), np.array([[3.0]])]
        w = [np.float64(0.0), np.array([1.0]), np.array([[-1.0]])]
        assert inner_product(v, w) == -1.0  # 0 + 2 - 3

    def test_symmetric_bilinear_positive_definite(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            mk = lambda: [np.float64(rng.standard_normal())] + [
                rng.standard_normal((d,) * m) for m in (1, 2)
            ]
            u, v, w = mk(), mk(), mk()
            a, b = rng.standard_normal(2)
            assert inner_product(u, v) == pytest.approx(inner_product(v, u))
            lhs = inner_product(add(scale(u, a), scale(v, b)), w)
            rhs = a * inner_product(u, w) + b * inner_product(v, w)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            assert inner_product(u, u) > 0.0


class TestLift:
    def test_tensor_exponential(self):
        out = lift(np.array([1.0, 0.0]), FeatureConfig(max_degree=2))
        assert out[0] == 1.0
        np.testing.assert_array_equal(out[1], [1.0, 0.0])
        np.testing.assert_array_equal(out[2], [[0.5, 0.0], [0.0, 0.0]])

    def test_zero_vector_gives_unit(self):
        out = lift(np.zeros(3), FeatureConfig(max_degree=2))
        one = unit(3, 2)
        for m in range(3):
            np.testing.assert_array_equal(out[m], one[m])

    def test_coefficient_override(self):
        coeffs = (1.0, 1.0, 1.0)
        out = lift(np.array([2.0]), FeatureConfig(max_degree=2, lift_coeffs=coeffs))
        assert out[0] == 1.0
        np.testing.assert_array_equal(out[1], [2.0])
        np.testing.assert_array_equal(out[2], [[4.0]])
        with pytest.raises(ValueError, match="cover degrees <= 2, need 3"):
            lift(np.array([2.0]), FeatureConfig(max_degree=3, lift_coeffs=coeffs))

    def test_coefficients_pin_c0(self):
        with pytest.raises(ValueError):
            FeatureConfig(lift_coeffs=(2.0, 1.0))

    def test_parallel_exponential_relation(self):
        # d = 1: lift(x) * lift(lam*x) == lift((1+lam)*x) on retained degrees
        rng = np.random.default_rng(5)
        cfg = FeatureConfig(max_degree=4)
        for _ in range(10):
            x = rng.standard_normal(1)
            lam = float(rng.standard_normal())
            left = algebra_mul(lift(x, cfg), lift(lam * x, cfg))
            right = lift((1.0 + lam) * x, cfg)
            for m in range(5):
                np.testing.assert_allclose(left[m], right[m],
                                           rtol=1e-12, atol=1e-14)


class TestSequenceFeature:
    def test_single_element_is_lift(self):
        cfg = FeatureConfig(max_degree=3, diff=True, zero_start=True)
        x0 = np.array([0.5, -1.0])
        out = sequence_feature([x0], cfg)
        want = lift(x0, cfg)
        for m in range(4):
            np.testing.assert_allclose(out[m], want[m])

    def test_one_increment(self):
        cfg = FeatureConfig(max_degree=2, diff=True, zero_start=False)
        x0, x1 = np.array([1.0, 2.0]), np.array([0.0, 5.0])
        out = sequence_feature([x0, x1], cfg)
        np.testing.assert_allclose(out[1], x1 - x0)

    def test_zero_start_expansion(self):
        cfg = FeatureConfig(max_degree=2, diff=True, zero_start=True)
        out = sequence_feature([[0.0], [1.0]], cfg)
        assert out[0] == 1.0
        np.testing.assert_allclose(out[1], [1.0])
        np.testing.assert_allclose(out[2], [[0.5]])
        # with x0 = 0 the product collapses to a single lift
        want = lift(np.array([1.0]), cfg)
        for m in range(3):
            np.testing.assert_allclose(out[m], want[m])

    def test_matches_explicit_product_oracle(self):
        rng = np.random.default_rng(11)
        cfg = FeatureConfig(max_degree=3, diff=True, zero_start=True)
        xs = rng.standard_normal((5, 2))
        out = sequence_feature(xs, cfg)
        factors = [xs[0]] + [xs[i] - xs[i - 1] for i in range(1, 5)]
        want = unit(2, 3)
        for f in factors:
            want = algebra_mul(want, lift(f, cfg))
        for m in range(4):
            np.testing.assert_allclose(out[m], want[m], rtol=1e-12)

    def test_nodiff_multiplies_raw_values(self):
        cfg = FeatureConfig(max_degree=2, diff=False, zero_start=False)
        xs = np.array([[1.0], [2.0]])
        out = sequence_feature(xs, cfg)
        want = algebra_mul(lift(xs[0], cfg), lift(xs[1], cfg))
        for m in range(3):
            np.testing.assert_allclose(out[m], want[m])

    def test_nodiff_zero_start_is_noop(self):
        xs = np.array([[1.0, 2.0], [0.5, 0.0], [3.0, 1.0]])
        a = sequence_feature(xs, FeatureConfig(max_degree=2, diff=False, zero_start=False))
        b = sequence_feature(xs, FeatureConfig(max_degree=2, diff=False, zero_start=True))
        for m in range(3):
            np.testing.assert_array_equal(a[m], b[m])

    def test_time_param_increments(self):
        cfg = FeatureConfig(max_degree=2, diff=True, zero_start=False, time_param=True)
        xs = np.array([[1.0], [1.0]])  # constant sequence
        out = sequence_feature(xs, cfg)
        # increment of the time-augmented sequence is (1, 0)
        want = lift(np.array([1.0, 0.0]), cfg)
        for m in range(3):
            np.testing.assert_allclose(out[m], want[m])

    def test_translation_invariant_without_zero_start(self):
        rng = np.random.default_rng(2)
        cfg = FeatureConfig(max_degree=3, diff=True, zero_start=False)
        xs = rng.integers(-3, 4, size=(4, 2)).astype(float)
        shifted = xs + np.array([1.0, -2.0])
        a, b = sequence_feature(xs, cfg), sequence_feature(shifted, cfg)
        for m in range(4):
            np.testing.assert_array_equal(a[m], b[m])

    def test_zero_start_breaks_translation_invariance(self):
        cfg = FeatureConfig(max_degree=2, diff=True, zero_start=True)
        xs = np.array([[0.0], [1.0]])
        a = sequence_feature(xs, cfg)
        b = sequence_feature(xs + 1.0, cfg)
        assert not np.allclose(a[1], b[1])

    def test_degree0_is_one(self):
        rng = np.random.default_rng(9)
        for diff in (True, False):
            for zs in (True, False):
                cfg = FeatureConfig(
                    max_degree=2, diff=diff, zero_start=zs, time_param=bool(rng.integers(2))
                )
                xs = rng.standard_normal((3, 2))
                assert sequence_feature(xs, cfg)[0] == 1.0

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            sequence_feature(np.zeros((0, 2)), FeatureConfig(max_degree=2))


class TestSequenceHelpers:
    def test_add_and_scale_are_levelwise(self):
        rng = np.random.default_rng(1)
        cfg = FeatureConfig(max_degree=3)
        a = lift(rng.standard_normal(2), cfg)
        b = lift(rng.standard_normal(2), cfg)
        summed = add(a, b)
        scaled = scale(a, 2.5)
        for m in range(4):
            np.testing.assert_allclose(summed[m], a[m] + b[m])
            np.testing.assert_allclose(scaled[m], 2.5 * a[m])

    def test_levels_are_read_only_float64_arrays(self):
        out = lift([1, 2], FeatureConfig(max_degree=2))
        assert isinstance(out, tuple)
        assert [lv.shape for lv in out] == [(), (2,), (2, 2)]
        assert all(lv.dtype == np.float64 and not lv.flags.writeable for lv in out)
        with pytest.raises(ValueError, match="finite"):
            lift([np.inf], FeatureConfig(max_degree=2))

    def test_default_coefficients_are_factorial_reciprocals(self):
        c = FeatureConfig(max_degree=4).coefficients
        assert c == tuple(1.0 / math.factorial(m) for m in range(5))
        x = np.array([0.3, -1.2])
        default, explicit = FeatureConfig(max_degree=4), FeatureConfig(max_degree=4, lift_coeffs=c)
        for m in range(5):  # lift's default is the same sequence
            np.testing.assert_array_equal(lift(x, default)[m], lift(x, explicit)[m])


# name -> (the failing call, message)
RAISE_SITES = {
    "lift_matrix": (lambda: lift(np.ones((2, 2)), FeatureConfig()),
                    r"^expected a 1-d vector, got shape \(2, 2\)$"),
    "lift_scalar": (lambda: lift(1.0, FeatureConfig()),
                    r"^expected a 1-d vector, got shape \(\)$"),
    "lift_empty": (lambda: lift([], FeatureConfig()),
                   r"^expected a 1-d vector, got shape \(0,\)$"),
    "sequence_empty": (lambda: sequence_feature(np.zeros((0, 2)), FeatureConfig()),
                       r"^expected a non-empty sequence of vectors$"),
    "product_of_different_widths": (
        lambda: algebra_mul(unit(2, 1), unit(3, 1)),
        r"^level shapes differ: \[\(\), \(2,\)\] vs \[\(\), \(3,\)\]$",
    ),
}

@pytest.mark.parametrize("case", sorted(RAISE_SITES))
def test_raise_site_names_the_fault(case):
    call, message = RAISE_SITES[case]
    with pytest.raises(ValueError, match=message):
        call()
