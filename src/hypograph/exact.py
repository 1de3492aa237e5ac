"""Reference oracle: the truncated tensor algebra, tensor-valued walk
matrices and exact diffusion.

An element of the tensor algebra over R^d truncated at degree M is a
sequence (v_0, v_1, ..., v_M) of levels, v_m a dense order-m tensor of
shape (d,) * m, so v_0 is a 0-d array.  The algebra's functions take any
such sequence of array-likes and return a tuple of read-only float64
arrays.  The product is the degree-graded convolution of outer products;
because the product respects the grading, truncation at degree M is exact
on the retained degrees.

A node vector is a tuple of n sequences, and a tensor matrix is one tuple
of (column, sequence) pairs per row, holding only the pattern entries.
Everything here materializes dense degree-M tensors and is guarded to
desk scale; the production path lives in :mod:`hypograph.lowrank` and is
validated against this module by ``hypograph check``.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .config import FeatureConfig
from .graphs import LabelledGraph, RowStochastic, frozen

MAX_ORACLE_NODES = 64
MAX_ORACLE_DEGREE = 4


class OracleScaleError(ValueError):
    """Requested exact computation beyond the validated desk scale."""


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


def _edge_input(g: LabelledGraph, cfg: FeatureConfig, i: int, j: int, step: int) -> np.ndarray:
    """Lift input for one walk step ending in node j from node i."""
    if cfg.diff:
        vec = g.attributes[j] - g.attributes[i]
        if cfg.time_param:
            vec = np.concatenate([[1.0], vec])
    else:
        vec = g.attributes[j]
        if cfg.time_param:
            vec = np.concatenate([[float(step)], vec])
    return vec


def _start_input(g: LabelledGraph, cfg: FeatureConfig, i: int) -> np.ndarray:
    """Lift input of the start-node factor (step index 0)."""
    vec = g.attributes[i]
    if cfg.time_param:
        vec = np.concatenate([[0.0], vec])
    return vec


def tensor_transition(
    g: LabelledGraph, p: RowStochastic, cfg: FeatureConfig, step: int = 1
) -> tuple:
    """Transition matrix with entries P_ij * lift(edge input).

    The degree-0 slice equals P; isolated self-loops lift the stay-put
    step (the unit when increments are used).
    """
    if not p.pattern.same_as(g.pattern):
        raise ValueError("transition pattern does not match the graph")
    pattern = p.pattern
    rows = []
    for i in range(g.n):
        row = []
        for e in range(pattern.indptr[i], pattern.indptr[i + 1]):
            j = int(pattern.indices[e])
            entry = lift(_edge_input(g, cfg, i, j, step), cfg)
            row.append((j, scale(entry, float(p.values[e]))))
        rows.append(tuple(row))
    return tuple(rows)


def oracle_guard(n: int, max_degree: int):
    """Raise OracleScaleError beyond the desk scale the oracle is validated at."""
    if n > MAX_ORACLE_NODES:
        raise OracleScaleError(f"oracle guard: n={n} exceeds {MAX_ORACLE_NODES}")
    if max_degree > MAX_ORACLE_DEGREE:
        raise OracleScaleError(
            f"oracle guard: max_degree={max_degree} exceeds {MAX_ORACLE_DEGREE}"
        )


def _matvec(mat, vec) -> tuple:
    """(A v)_i = sum_j A_ij * v_j, with the matrix entry left of the vector."""
    return tuple(reduce(add, (algebra_mul(value, vec[j]) for j, value in row)) for row in mat)


def node_features_exact(g: LabelledGraph, p: RowStochastic, cfg: FeatureConfig) -> tuple:
    """Exact walk-history features conditioned on the start node.

    Applies the step-s transition matrices with s = k..1, k =
    ``cfg.walk_length``, to the all-unit vector, so the first walk step
    ends up leftmost in every product; with ``zero_start`` each entry i is
    then left-multiplied by the lift of node i's start factor.
    """
    oracle_guard(g.n, cfg.max_degree)
    vec = (unit(cfg.lift_dim(g.attr_dim), cfg.max_degree),) * g.n
    mat = None
    for step in range(cfg.walk_length, 0, -1):
        if mat is None or not cfg.step_homogeneous:
            mat = tensor_transition(g, p, cfg, step=step)
        vec = _matvec(mat, vec)
    if cfg.zero_start:
        vec = tuple(algebra_mul(lift(_start_input(g, cfg, i), cfg), vec[i]) for i in range(g.n))
    return vec


def level_tensor(vectors, m: int) -> np.ndarray:
    """Dense degree-m level of the rank-1 functional whose component vectors
    u_1..u_M are the rows of ``vectors``: the outer product of the last m."""
    vectors = np.asarray(vectors, dtype=np.float64)
    degree = vectors.shape[0]
    if not (0 <= m <= degree):
        raise ValueError(f"degree {m} out of range 0..{degree}")
    out = np.float64(1.0)
    for s in range(degree - m, degree):
        out = np.multiply.outer(out, vectors[s])
    return np.asarray(out)
