"""Shared configuration for walk feature maps."""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass


@dataclass(frozen=True)
class FeatureConfig:
    """Variation flags and hyperparameters of the walk feature map.

    ``diff`` lifts attribute increments instead of raw attributes;
    ``zero_start`` includes the start-node factor in front of the walk
    product; ``time_param`` augments every lift input with the step index,
    so lifts act on dimension d+1.  ``lift_coeffs`` overrides the
    per-degree lift scaling c_0..c_M (default c_m = 1/m!); it must cover
    every degree up to ``max_degree``, and c_0 is pinned to 1 so the
    algebra unit is preserved.
    """

    walk_length: int = 1
    max_degree: int = 1
    rank: int = 1
    diff: bool = True
    zero_start: bool = True
    time_param: bool = False
    lift_coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("walk_length", "max_degree", "rank"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("diff", "zero_start", "time_param"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.walk_length < 0:
            raise ValueError(f"walk_length must be >= 0, got {self.walk_length}")
        if self.max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {self.max_degree}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.lift_coeffs is not None:
            raw = self.lift_coeffs
            if isinstance(raw, (str, bytes)) or not isinstance(raw, Iterable):
                raise ValueError(f"lift_coeffs must be a sequence of numbers, got {raw!r}")
            raw = tuple(raw)
            for c in raw:
                if isinstance(c, bool) or not isinstance(c, numbers.Real):
                    raise ValueError(f"lift_coeffs must hold real numbers, got {c!r}")
            coeffs = tuple(float(c) for c in raw)
            if not coeffs or coeffs[0] != 1.0:
                raise ValueError("lift_coeffs must start with c_0 == 1")
            if not all(math.isfinite(c) for c in coeffs):
                raise ValueError("lift_coeffs must be finite")
            if len(coeffs) <= self.max_degree:
                raise ValueError(
                    f"lift_coeffs cover degrees <= {len(coeffs) - 1}, need {self.max_degree}"
                )
            object.__setattr__(self, "lift_coeffs", coeffs)

    def lift_dim(self, d: int) -> int:
        """Dimension seen by the algebra lift for d-dimensional attributes."""
        return d + 1 if self.time_param else d

    def functional_shape(self, d: int) -> tuple[int, int, int]:
        """Shape (R, M, dim) of the component vectors of the rank-1
        functionals for d-dimensional attributes: ``rank`` functionals of
        degree ``max_degree`` on the lift dimension."""
        return self.rank, self.max_degree, self.lift_dim(d)

    @property
    def step_homogeneous(self) -> bool:
        """Whether one transition matrix serves every walk step.

        Only the raw-attribute map with time parametrization depends on the
        step index, because the lift input is then (step, f(j)); increments
        always carry time increment 1.
        """
        return self.diff or not self.time_param

    @property
    def coefficients(self) -> tuple[float, ...]:
        """Lift coefficients c_0..c_M: ``lift_coeffs`` or c_m = 1/m!."""
        if self.lift_coeffs is not None:
            return self.lift_coeffs
        return tuple(1.0 / math.factorial(m) for m in range(self.max_degree + 1))
