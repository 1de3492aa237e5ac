"""Truncated tensor algebra over R^d: the exact math core.

An element truncated at degree M is a sequence (v_0, v_1, ..., v_M) of
levels, v_m a dense order-m tensor of shape (d,) * m, so v_0 is a 0-d
array.  The functions here take any such sequence of array-likes and
return a tuple of read-only float64 arrays.  The product is the
degree-graded convolution of outer products; because the product respects
the grading, truncation at degree M is exact on the retained degrees.
"""

from __future__ import annotations

import numpy as np

from .config import FeatureConfig
from .graphs import frozen


def _levels(arrays) -> tuple:
    """Tuple of read-only float64 arrays of ``arrays``, which must be finite."""
    return tuple(frozen(arr, what="tensor entries") for arr in arrays)


def _check_compatible(v, w):
    shapes_v, shapes_w = [np.shape(a) for a in v], [np.shape(b) for b in w]
    if shapes_v != shapes_w:
        raise ValueError(f"level shapes differ: {shapes_v} vs {shapes_w}")


def unit(dims: int, max_degree: int) -> tuple:
    """The multiplicative identity (1, 0, ..., 0)."""
    return _levels([1.0] + [np.zeros((dims,) * m) for m in range(1, max_degree + 1)])


def add(v, w) -> tuple:
    """Level-wise sum."""
    _check_compatible(v, w)
    return _levels(np.add(a, b) for a, b in zip(v, w))


def scale(v, factor: float) -> tuple:
    """Every level multiplied by ``factor``."""
    return _levels(factor * np.asarray(a) for a in v)


def algebra_mul(v, w) -> tuple:
    """Graded product: level m of the result is sum_i v_i (x) w_{m-i}.

    Degrees above the truncation are discarded; the product is
    non-commutative from degree 2 on.
    """
    _check_compatible(v, w)
    out = []
    for m in range(len(v)):
        acc = np.zeros(np.shape(v[m]))
        for i in range(m + 1):
            acc += np.multiply.outer(v[i], w[m - i])
        out.append(acc)
    return _levels(out)


def inner_product(v, w) -> float:
    """Sum over degrees of the entry-wise dot products."""
    _check_compatible(v, w)
    return float(sum(np.vdot(a, b) for a, b in zip(v, w)))


def lift(x, cfg: FeatureConfig) -> tuple:
    """Lift a vector into the algebra: level m is c_m * x^(x)m for m up to
    ``cfg.max_degree``, with c_m from ``cfg.coefficients`` (by default
    1/m!, the degree-truncated tensor exponential)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"expected a 1-d vector, got shape {x.shape}")
    coeffs = cfg.coefficients
    levels = [np.float64(1.0)]
    power = np.float64(1.0)
    for m in range(1, cfg.max_degree + 1):
        power = np.multiply.outer(power, x)
        levels.append(coeffs[m] * power)
    return _levels(levels)


def sequence_feature(xs, cfg: FeatureConfig) -> tuple:
    """Feature of a finite sequence: the ordered product of lifted factors,
    truncated at ``cfg.max_degree`` and lifted with ``cfg.coefficients``.

    With ``diff`` the factors are the increments x_i - x_{i-1} (plus the
    start point x_0 when ``zero_start`` is set); without ``diff`` the raw
    x_i are lifted, and ``zero_start`` has no effect since the prepended
    zero lifts to the unit.  ``time_param`` first maps x_i to (i, x_i).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[:, None]
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise ValueError("expected a non-empty sequence of vectors")
    if cfg.time_param:
        steps = np.arange(xs.shape[0], dtype=np.float64)
        xs = np.column_stack([steps, xs])
    if cfg.diff:
        factors = np.diff(xs, axis=0)
        if cfg.zero_start:
            factors = np.vstack([xs[:1], factors])
    else:
        factors = xs
    out = unit(xs.shape[1], cfg.max_degree)
    for row in factors:
        out = algebra_mul(out, lift(row, cfg))
    return out
