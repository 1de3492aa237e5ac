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
    ("time_param", 0),
])
def test_field_types_checked(field, value):
    kind = "a bool" if field in ("diff", "zero_start", "time_param") else r"an integer >= \d"
    with pytest.raises(ValueError, match=f"^{field} must be {kind}, got "):
        FeatureConfig(**{field: value})


def test_numpy_integer_counts_are_stored_as_int():
    cfg = FeatureConfig(walk_length=np.int64(3), max_degree=np.int32(2), rank=np.uint8(4))
    assert (cfg.walk_length, cfg.max_degree, cfg.rank) == (3, 2, 4)
    assert all(type(v) is int for v in (cfg.walk_length, cfg.max_degree, cfg.rank))


def test_lift_dim_and_homogeneity():
    assert FeatureConfig(time_param=False).lift_dim(3) == 3
    assert FeatureConfig(time_param=True).lift_dim(3) == 4
    assert FeatureConfig(diff=True, time_param=True).step_homogeneous
    assert FeatureConfig(diff=False, time_param=False).step_homogeneous
    assert not FeatureConfig(diff=False, time_param=True).step_homogeneous


def test_functional_shape_is_rank_degree_and_lift_dim():
    assert FeatureConfig(rank=4, max_degree=3).functional_shape(2) == (4, 3, 2)
    assert FeatureConfig(rank=4, max_degree=3, time_param=True).functional_shape(2) == (4, 3, 3)
