"""Truncated tensor algebra over R^d: the exact math core.

Elements are graded sequences (v_0, v_1, ..., v_M) where v_m is a dense
order-m tensor.  The product is the degree-graded convolution of outer
products; because the product respects the grading, truncation at degree M
is exact on the retained degrees.  All operations are pure functions on
immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FeatureConfig


def _as_readonly(arr) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DenseTensor:
    """Dense order-``degree`` tensor with all axes of length ``dims``.

    Degree 0 is a single scalar; ``dims`` must then be given explicitly
    since the shape carries no dimension information.
    """

    entries: np.ndarray
    dims: int = 0

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim == 0:
            if self.dims < 1:
                raise ValueError("degree-0 tensor needs an explicit dims >= 1")
        else:
            d = arr.shape[0]
            if arr.shape != (d,) * arr.ndim:
                raise ValueError(f"entries must form a d^m cube, got shape {arr.shape}")
            if self.dims and self.dims != d:
                raise ValueError(f"dims {self.dims} does not match shape {arr.shape}")
            object.__setattr__(self, "dims", d)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        object.__setattr__(self, "entries", _as_readonly(arr))

    @property
    def degree(self) -> int:
        return self.entries.ndim


def tensor_product(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Outer product of two dense tensors, degree p + q."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    return DenseTensor(np.multiply.outer(a.entries, b.entries), a.dims)


class TruncatedTensorSequence:
    """One element of the algebra truncated at degree M."""

    __slots__ = ("levels",)

    def __init__(self, levels):
        levels = tuple(levels)
        if not levels:
            raise ValueError("need at least the degree-0 level")
        if not all(isinstance(lv, DenseTensor) for lv in levels):
            raise TypeError("levels must be DenseTensor instances; see from_arrays")
        d = levels[0].dims
        for m, lv in enumerate(levels):
            if lv.degree != m:
                raise ValueError(f"level {m} has degree {lv.degree}")
            if lv.dims != d:
                raise ValueError(f"level {m} has dims {lv.dims}, expected {d}")
        self.levels = levels

    @classmethod
    def from_arrays(cls, arrays, dims: int) -> "TruncatedTensorSequence":
        return cls([DenseTensor(a, dims) for a in arrays])

    @classmethod
    def unit(cls, dims: int, max_degree: int) -> "TruncatedTensorSequence":
        """The multiplicative identity (1, 0, ..., 0)."""
        return cls.from_arrays(
            [np.float64(1.0)] + [np.zeros((dims,) * m) for m in range(1, max_degree + 1)],
            dims,
        )

    @classmethod
    def zero(cls, dims: int, max_degree: int) -> "TruncatedTensorSequence":
        return cls.from_arrays(
            [np.float64(0.0)] + [np.zeros((dims,) * m) for m in range(1, max_degree + 1)],
            dims,
        )

    @property
    def dims(self) -> int:
        return self.levels[0].dims

    @property
    def max_degree(self) -> int:
        return len(self.levels) - 1

    def level(self, m: int) -> np.ndarray:
        """Raw entries of the degree-m level."""
        return self.levels[m].entries

    def add(self, other: "TruncatedTensorSequence") -> "TruncatedTensorSequence":
        _check_compatible(self, other)
        return TruncatedTensorSequence.from_arrays(
            [a.entries + b.entries for a, b in zip(self.levels, other.levels)], self.dims
        )

    __add__ = add

    def scale(self, factor: float) -> "TruncatedTensorSequence":
        return TruncatedTensorSequence.from_arrays(
            [factor * lv.entries for lv in self.levels], self.dims
        )

    def allclose(self, other: "TruncatedTensorSequence", rtol=1e-10, atol=1e-12) -> bool:
        _check_compatible(self, other)
        return all(
            np.allclose(a.entries, b.entries, rtol=rtol, atol=atol)
            for a, b in zip(self.levels, other.levels)
        )

    def __repr__(self):
        return f"TruncatedTensorSequence(dims={self.dims}, max_degree={self.max_degree})"


def _check_compatible(v: TruncatedTensorSequence, w: TruncatedTensorSequence):
    if v.dims != w.dims or v.max_degree != w.max_degree:
        raise ValueError(
            f"shape mismatch: (d={v.dims}, M={v.max_degree}) vs (d={w.dims}, M={w.max_degree})"
        )


def algebra_mul(
    v: TruncatedTensorSequence, w: TruncatedTensorSequence
) -> TruncatedTensorSequence:
    """Graded product: level m of the result is sum_i v_i (x) w_{m-i}.

    Degrees above the truncation are discarded; the product is
    non-commutative from degree 2 on.
    """
    _check_compatible(v, w)
    out = []
    for m in range(v.max_degree + 1):
        acc = np.zeros((v.dims,) * m)
        for i in range(m + 1):
            acc += np.multiply.outer(v.level(i), w.level(m - i))
        out.append(acc)
    return TruncatedTensorSequence.from_arrays(out, v.dims)


def inner_product(v: TruncatedTensorSequence, w: TruncatedTensorSequence) -> float:
    """Sum over degrees of the entry-wise dot products."""
    _check_compatible(v, w)
    return float(
        sum(np.vdot(a.entries, b.entries) for a, b in zip(v.levels, w.levels))
    )


def lift(x, max_degree: int, coeffs=None) -> TruncatedTensorSequence:
    """Lift a vector into the algebra: level m is c_m * x^(x)m.

    ``coeffs`` is the sequence c_0..c_M, as from
    :meth:`FeatureConfig.coefficients`; without it c_m = 1/m!, the
    degree-truncated tensor exponential.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"expected a 1-d vector, got shape {x.shape}")
    if coeffs is None:
        coeffs = FeatureConfig().coefficients(max_degree)
    elif len(coeffs) < max_degree + 1:
        raise ValueError(f"coefficients cover degrees <= {len(coeffs) - 1}, need {max_degree}")
    levels = [np.float64(1.0)]
    power = np.float64(1.0)
    for m in range(1, max_degree + 1):
        power = np.multiply.outer(power, x)
        levels.append(coeffs[m] * power)
    return TruncatedTensorSequence.from_arrays(levels, x.size)


def sequence_feature(
    xs, cfg: FeatureConfig, max_degree: int
) -> TruncatedTensorSequence:
    """Feature of a finite sequence: the ordered product of lifted factors.

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
    coeffs = cfg.coefficients(max_degree)
    out = TruncatedTensorSequence.unit(xs.shape[1], max_degree)
    for row in factors:
        out = algebra_mul(out, lift(row, max_degree, coeffs))
    return out
