import re

import numpy as np
import pytest

from hypograph.config import FeatureConfig


def test_defaults_are_increment_map_with_start_factor():
    cfg = FeatureConfig()
    assert cfg.diff and cfg.zero_start and not cfg.time_param
    assert FeatureConfig(max_degree=3).coefficients[0] == 1.0
    assert FeatureConfig(max_degree=3).coefficients[3] == pytest.approx(1.0 / 6.0)


def test_bounds_validated():
    with pytest.raises(ValueError):
        FeatureConfig(walk_length=-1)
    with pytest.raises(ValueError):
        FeatureConfig(max_degree=0)
    with pytest.raises(ValueError):
        FeatureConfig(rank=0)


@pytest.mark.parametrize("field, value", [
    ("walk_length", 2.7), ("max_degree", "2"), ("rank", True), ("rank", np.True_),
    ("diff", "no"), ("zero_start", 1), ("time_param", np.bool_(True)), ("diff", None),
])
def test_field_types_checked(field, value):
    kind = "a bool" if field in ("diff", "zero_start", "time_param") else "an integer"
    with pytest.raises(ValueError, match=f"^{field} must be {kind}, got "):
        FeatureConfig(**{field: value})


def test_numpy_integer_counts_are_stored_as_int():
    cfg = FeatureConfig(walk_length=np.int64(3), max_degree=np.int32(2), rank=np.uint8(4))
    assert (cfg.walk_length, cfg.max_degree, cfg.rank) == (3, 2, 4)
    assert all(type(v) is int for v in (cfg.walk_length, cfg.max_degree, cfg.rank))


def test_lift_coeffs_pin_c0():
    with pytest.raises(ValueError):
        FeatureConfig(lift_coeffs=(2.0, 1.0))
    with pytest.raises(ValueError):
        FeatureConfig(lift_coeffs=(1.0, float("nan")))


def test_lift_coeffs_length_checked_at_use():
    # "use" is building the config: a short tuple never reaches a consumer
    cfg = FeatureConfig(max_degree=1, lift_coeffs=(1.0, 0.5))
    assert cfg.coefficients == (1.0, 0.5)
    with pytest.raises(ValueError, match=r"^lift_coeffs cover degrees <= 1, need 3$"):
        FeatureConfig(max_degree=3, lift_coeffs=(1.0, 0.5))


@pytest.mark.parametrize("value, message", [
    (5, "lift_coeffs must be a sequence of numbers, got 5"),
    ("1", "lift_coeffs must be a sequence of numbers, got '1'"),
    ([[1.0]], "lift_coeffs must hold real numbers, got [1.0]"),
    ([1.0, None], "lift_coeffs must hold real numbers, got None"),
    ([1.0, True], "lift_coeffs must hold real numbers, got True"),
    ([1.0, np.bool_(True)], "lift_coeffs must hold real numbers, got "),  # repr varies by numpy
])
def test_lift_coeffs_types_checked(value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        FeatureConfig(lift_coeffs=value)


def test_lift_coeffs_stored_as_float_tuple():
    cfg = FeatureConfig(max_degree=2, lift_coeffs=np.array([1, 2, 3], dtype=np.int64))
    assert cfg.coefficients == (1.0, 2.0, 3.0)
    assert all(type(c) is float for c in cfg.lift_coeffs)


def test_lift_dim_and_homogeneity():
    assert FeatureConfig(time_param=False).lift_dim(3) == 3
    assert FeatureConfig(time_param=True).lift_dim(3) == 4
    assert FeatureConfig(diff=True, time_param=True).step_homogeneous
    assert FeatureConfig(diff=False, time_param=False).step_homogeneous
    assert not FeatureConfig(diff=False, time_param=True).step_homogeneous


def test_functional_shape_is_rank_degree_and_lift_dim():
    assert FeatureConfig(rank=4, max_degree=3).functional_shape(2) == (4, 3, 2)
    assert FeatureConfig(rank=4, max_degree=3, time_param=True).functional_shape(2) == (4, 3, 3)
