"""Shared configuration for walk feature maps."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import integer


@dataclass(frozen=True)
class FeatureConfig:
    """Variation flags and hyperparameters of the walk feature map.

    ``diff`` lifts attribute increments instead of raw attributes;
    ``zero_start`` includes the start-node factor in front of the walk
    product; ``time_param`` augments every lift input with the step index,
    so lifts act on dimension d+1.
    """

    walk_length: int = 1
    max_degree: int = 1
    rank: int = 1
    diff: bool = True
    zero_start: bool = True
    time_param: bool = False

    def __post_init__(self):
        for name, lo in (("walk_length", 0), ("max_degree", 1), ("rank", 1)):
            object.__setattr__(self, name, integer(getattr(self, name), name, lo))
        for name in ("diff", "zero_start", "time_param"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")

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
        """Lift coefficients c_0..c_M of the truncated tensor exponential,
        c_m = 1/m!."""
        return tuple(1.0 / math.factorial(m) for m in range(self.max_degree + 1))
