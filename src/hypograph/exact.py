"""Reference oracle: tensor-valued walk matrices and exact diffusion.

A truncated sequence is a tuple of levels as in :mod:`hypograph.tensoralg`.
A node vector is a tuple of n sequences, and a tensor matrix is one tuple
of (column, sequence) pairs per row, holding only the pattern entries.
Everything here materializes dense degree-M tensors and is guarded to
desk scale; the production path lives in :mod:`hypograph.lowrank` and is
validated against this module.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .config import FeatureConfig
from .graphs import LabelledGraph, RowStochastic
from .tensoralg import add, algebra_mul, lift, scale, unit

MAX_ORACLE_NODES = 64
MAX_ORACLE_DEGREE = 4
WALK_TERM_BUDGET = 10**6


class OracleScaleError(ValueError):
    """Requested exact computation beyond the validated desk scale."""


class WalkBudgetError(ValueError):
    """Walk enumeration would exceed the term budget."""


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
    g: LabelledGraph, cfg: FeatureConfig, p: RowStochastic, step: int = 1
) -> tuple:
    """Transition matrix with entries P_ij * lift(edge input).

    The degree-0 slice equals P; isolated self-loops lift the stay-put
    step (the unit when increments are used).
    """
    if not p.pattern.same_as(g.pattern):
        raise ValueError("transition pattern does not match the graph")
    max_degree, coeffs = cfg.max_degree, cfg.coefficients
    pattern = p.pattern
    rows = []
    for i in range(g.n):
        row = []
        for e in range(pattern.indptr[i], pattern.indptr[i + 1]):
            j = int(pattern.indices[e])
            entry = lift(_edge_input(g, cfg, i, j, step), max_degree, coeffs)
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


def _vecmat(vec, mat) -> tuple:
    """(v^T A)_j = sum_i v_i * A_ij, with the vector entry left of the matrix."""
    terms = [[] for _ in mat]
    for i, row in enumerate(mat):
        for j, value in row:
            terms[j].append(algebra_mul(vec[i], value))
    return tuple(reduce(add, column) for column in terms)


def _count_walks(g: LabelledGraph, k: int, start: int) -> int:
    pattern = g.pattern
    counts = np.zeros(g.n, dtype=np.float64)
    counts[start] = 1.0
    total = 1.0
    for _ in range(k):
        nxt = np.zeros(g.n, dtype=np.float64)
        for i in range(g.n):
            if counts[i]:
                for e in range(pattern.indptr[i], pattern.indptr[i + 1]):
                    nxt[pattern.indices[e]] += counts[i]
        counts = nxt
        total += counts.sum()
    return int(total)


def enumerate_walk_expectation(
    g: LabelledGraph, p: RowStochastic, cfg: FeatureConfig, k: int, start: int
) -> tuple:
    """Brute-force sum over all length-k walks from ``start``.

    Each walk contributes its probability times the ordered product of
    its per-step lifts; by construction this equals the corresponding
    entry of the k-th transition-matrix power applied to the all-unit
    vector.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not (0 <= start < g.n):
        raise ValueError(f"start node {start} out of range")
    if not p.pattern.same_as(g.pattern):
        raise ValueError("transition pattern does not match the graph")
    if _count_walks(g, k, start) > WALK_TERM_BUDGET:
        raise WalkBudgetError(f"more than {WALK_TERM_BUDGET} walk terms")
    max_degree, coeffs = cfg.max_degree, cfg.coefficients
    pattern = g.pattern

    def walks(node: int, depth: int, prefix, prob: float):
        if depth == k:
            yield scale(prefix, prob)
            return
        for e in range(pattern.indptr[node], pattern.indptr[node + 1]):
            j = int(pattern.indices[e])
            factor = lift(_edge_input(g, cfg, node, j, depth + 1), max_degree, coeffs)
            yield from walks(j, depth + 1, algebra_mul(prefix, factor), prob * float(p.values[e]))

    # summed left to right in depth-first order, one walk at a time
    return reduce(add, walks(start, 0, unit(cfg.lift_dim(g.attr_dim), max_degree), 1.0))


def node_features_exact(
    g: LabelledGraph, p: RowStochastic, cfg: FeatureConfig, k: int
) -> tuple:
    """Exact walk-history features conditioned on the start node.

    Applies the step-s transition matrices with s = k..1 to the all-unit
    vector, so the first walk step ends up leftmost in every product; with
    ``zero_start`` each entry i is then left-multiplied by the lift of
    node i's start factor.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    oracle_guard(g.n, cfg.max_degree)
    vec = (unit(cfg.lift_dim(g.attr_dim), cfg.max_degree),) * g.n
    mat = None
    for step in range(k, 0, -1):
        if mat is None or not cfg.step_homogeneous:
            mat = tensor_transition(g, cfg, p, step=step)
        vec = _matvec(mat, vec)
    if cfg.zero_start:
        vec = tuple(
            algebra_mul(lift(_start_input(g, cfg, i), cfg.max_degree, cfg.coefficients), vec[i])
            for i in range(g.n)
        )
    return vec


def graph_feature_exact(
    g: LabelledGraph, p: RowStochastic, cfg: FeatureConfig, k: int
) -> tuple:
    """Mean of the exact node features."""
    return scale(reduce(add, node_features_exact(g, p, cfg, k)), 1.0 / g.n)


def forward_diffusion_exact(
    g: LabelledGraph, p: RowStochastic, cfg: FeatureConfig, k: int
) -> tuple:
    """Walk-history features conditioned on the end node.

    Entry i is P[walk ends at i] times the expected step-lift product
    given that ending; its degree-0 level is exactly that probability.
    The start-node factor is never included here.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    oracle_guard(g.n, cfg.max_degree)
    vec = (scale(unit(cfg.lift_dim(g.attr_dim), cfg.max_degree), 1.0 / g.n),) * g.n
    mat = None
    for step in range(1, k + 1):
        if mat is None or not cfg.step_homogeneous:
            mat = tensor_transition(g, cfg, p, step=step)
        vec = _vecmat(vec, mat)
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
