"""Independent references for the exact oracle of :mod:`hypograph.exact`.

The ``check`` command runs ``node_features_exact`` against the low-rank
engine.  The functions here compute the same features another way, or a
quantity the oracle's features must agree with, and the tests check the
oracle against them: a brute-force sum over every walk, the pooled graph
feature, the diffusion conditioned on the end node, and the feature of one
explicit sequence.  They live apart from the oracle, so that a fault put
into ``exact.py`` is caught by code that does not run through it.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from hypograph.config import FeatureConfig
from hypograph.exact import (
    _edge_input,
    add,
    algebra_mul,
    lift,
    node_features_exact,
    oracle_guard,
    scale,
    tensor_transition,
    unit,
)
from hypograph.graphs import LabelledGraph, RowStochastic

WALK_TERM_BUDGET = 10**6


class WalkBudgetError(ValueError):
    """Walk enumeration would exceed the term budget."""


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
    g: LabelledGraph, p: RowStochastic, cfg: FeatureConfig, start: int
) -> tuple:
    """Brute-force sum over all walks of length k = ``cfg.walk_length`` from
    ``start``.

    Each walk contributes its probability times the ordered product of
    its per-step lifts; by construction this equals the corresponding
    entry of the k-th transition-matrix power applied to the all-unit
    vector.
    """
    k = cfg.walk_length
    if not (0 <= start < g.n):
        raise ValueError(f"start node {start} out of range")
    if not p.pattern.same_as(g.pattern):
        raise ValueError("transition pattern does not match the graph")
    if _count_walks(g, k, start) > WALK_TERM_BUDGET:
        raise WalkBudgetError(f"more than {WALK_TERM_BUDGET} walk terms")
    pattern = g.pattern

    def walks(node: int, depth: int, prefix, prob: float):
        if depth == k:
            yield scale(prefix, prob)
            return
        for e in range(pattern.indptr[node], pattern.indptr[node + 1]):
            j = int(pattern.indices[e])
            factor = lift(_edge_input(g, cfg, node, j, depth + 1), cfg)
            yield from walks(j, depth + 1, algebra_mul(prefix, factor), prob * float(p.values[e]))

    # summed left to right in depth-first order, one walk at a time
    return reduce(add, walks(start, 0, unit(cfg.lift_dim(g.attr_dim), cfg.max_degree), 1.0))


def graph_feature_exact(g: LabelledGraph, p: RowStochastic, cfg: FeatureConfig) -> tuple:
    """Mean of the exact node features."""
    return scale(reduce(add, node_features_exact(g, p, cfg)), 1.0 / g.n)


def _vecmat(vec, mat) -> tuple:
    """(v^T A)_j = sum_i v_i * A_ij, with the vector entry left of the matrix."""
    terms = [[] for _ in mat]
    for i, row in enumerate(mat):
        for j, value in row:
            terms[j].append(algebra_mul(vec[i], value))
    return tuple(reduce(add, column) for column in terms)


def forward_diffusion_exact(g: LabelledGraph, p: RowStochastic, cfg: FeatureConfig) -> tuple:
    """Walk-history features conditioned on the end node, after
    k = ``cfg.walk_length`` steps.

    Entry i is P[walk ends at i] times the expected step-lift product
    given that ending; its degree-0 level is exactly that probability.
    The start-node factor is never included here.
    """
    oracle_guard(g.n, cfg.max_degree)
    vec = (scale(unit(cfg.lift_dim(g.attr_dim), cfg.max_degree), 1.0 / g.n),) * g.n
    mat = None
    for step in range(1, cfg.walk_length + 1):
        if mat is None or not cfg.step_homogeneous:
            mat = tensor_transition(g, p, cfg, step=step)
        vec = _vecmat(vec, mat)
    return vec


def sequence_feature(xs, cfg: FeatureConfig) -> tuple:
    """Feature of a finite sequence: the ordered product of lifted factors,
    truncated at ``cfg.max_degree`` and lifted with ``cfg.coefficients``.

    With ``diff`` the factors are the increments x_i - x_{i-1} (plus the
    start point x_0 when ``zero_start`` is set); without ``diff`` the raw
    x_i are lifted, and ``zero_start`` has no effect since the prepended
    zero lifts to the unit.  ``time_param`` first maps x_i to (i, x_i).
    """
    xs = np.asarray(xs, dtype=np.float64)
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
