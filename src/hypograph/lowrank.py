"""Edge-linear recursion for rank-1 functionals of walk-history features.

Instead of materializing degree-M tensors, a rank-1 functional with
component vectors u_1..u_M reduces every walk step to scalar sparse
arithmetic on the graph pattern: one value array per step for the plain
transition and one per Hadamard chain of increment projections.  The
chains are extended one factor at a time, so computing all degrees for a
length-k walk costs O(k M^2 E) after an O(M E d) setup.

The results are validated entry-wise against :mod:`hypograph.exact`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FeatureConfig
from .graphs import LabelledGraph, NonFiniteError, RowStochastic, frozen


@dataclass(frozen=True)
class RankOneFunctional:
    """Rank-1 degree-M functional given by component vectors u_1..u_M.

    Row s-1 of ``vectors`` holds u_s; the degree-m level of the functional
    is the outer product of the suffix u_{M-m+1}, ..., u_M (see
    :func:`hypograph.exact.level_tensor`).  A sequence of functionals
    converts to the (R, M, dim) array :func:`batch_features` takes.
    """

    vectors: np.ndarray

    def __post_init__(self):
        vectors = frozen(self.vectors, what="component vectors")
        if vectors.ndim != 2 or vectors.shape[0] < 1 or vectors.shape[1] < 1:
            raise ValueError(f"vectors must be (M, dim), got {vectors.shape}")
        object.__setattr__(self, "vectors", vectors)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.vectors, dtype=dtype, copy=copy)


def _edge_attr_inputs(g: LabelledGraph, cfg: FeatureConfig) -> np.ndarray:
    """Attribute part of the per-entry lift inputs, shape (nnz, d).

    Isolated self-loops get the stay-put input: a zero increment, or the
    node's own attributes without ``diff``.
    """
    pattern = g.pattern
    if cfg.diff:
        return g.attributes[pattern.indices] - g.attributes[pattern.rows]
    return g.attributes[pattern.indices]


def _project(x: np.ndarray, u_attr: np.ndarray) -> np.ndarray:
    """<u, x_e> per (slot, row e, functional): (rows, d) x (R, M, d) -> (M, rows, R)."""
    return x @ u_attr.transpose(1, 2, 0)


def _step_terms(cvals: np.ndarray, p: RowStochastic, coeffs) -> list:
    """Hadamard-chain terms of one walk step, per degree m = 1..M.

    The degree-m chains start at slot s0 = M - m; the chain of length r
    has weights c_r * P_e * prod_{t=s0}^{s0+r-1} cvals[t, e, :], shape
    (nnz, R), and each extends the previous one by a single factor.  A
    chain of length r < m multiplies state[m - r] at the entry's target;
    the r = m chain multiplies state[0] == 1, so it enters as the constant
    incidence @ weights of shape (n, R).  Returns (chains r < m, constant)
    per degree.
    """
    m_max = cvals.shape[0]
    incidence = p.pattern.incidence
    terms = []
    for m in range(1, m_max + 1):
        chain = None
        chains = []
        for r in range(1, m + 1):
            factor = cvals[m_max - m + r - 1]
            chain = factor if chain is None else chain * factor
            chains.append((coeffs[r] * p.values)[:, None] * chain)
        terms.append((chains[:-1], incidence @ chains[-1]))
    return terms


def _step(state: np.ndarray, p: RowStochastic, plain, terms: list, step: int) -> np.ndarray:
    """One walk step on the state (M+1, n, R), whose level 0 is identically 1.

    Degree m is the plain product P @ state[m], plus one incidence-matrix
    sum of the chains against the lower degrees gathered at each entry's
    target, plus the constant full-length chain.
    """
    m_max = state.shape[0] - 1
    incidence = p.pattern.incidence
    gathered = state[1:m_max, p.pattern.indices]  # gathered[j - 1] = state[j] per entry
    new = np.empty_like(state)
    new[0] = 1.0
    for m, (chains, const) in enumerate(terms, start=1):
        column = plain @ state[m] + const
        if chains:
            acc = chains[0] * gathered[m - 2]
            for r in range(2, m):
                acc += chains[r - 1] * gathered[m - r - 1]
            column += incidence @ acc
        if not np.isfinite(column).all():
            raise NonFiniteError(f"non-finite value at walk step {step}, degree {m}")
        new[m] = column
    return new


def _corrected(state: np.ndarray, fvals: np.ndarray, coeffs, m: int) -> np.ndarray:
    """Degree-m functional values including the start-node factor.

    state: (M+1, n, R); fvals: (M, n, R) start projections.  The degree-m
    suffix functional pairs its first r vectors with the start factor and
    the rest with the length-k tail, summed over r = 0..m.
    """
    m_max = fvals.shape[0]
    out = state[m].copy()
    prefix = np.ones_like(out)
    for r in range(1, m + 1):
        prefix = prefix * fvals[m_max - m + r - 1]
        out += coeffs[r] * prefix * state[m - r]
    if not np.isfinite(out).all():
        raise NonFiniteError(f"non-finite value in the start-node correction, degree {m}")
    return out


def batch_features(
    g: LabelledGraph,
    p: RowStochastic,
    functionals,
    cfg: FeatureConfig,
) -> np.ndarray:
    """Feature matrix (n, R*M): all degrees of all functionals per node.

    ``functionals`` is an (R, M, dim) array-like of component vectors,
    such as a list of :class:`RankOneFunctional`; M must equal
    ``cfg.max_degree`` and dim the lift dimension.  Column block j holds
    the M degree values of functional j (j outer, degree inner).  Without
    ``zero_start`` these are the recursion state after ``cfg.walk_length``
    steps; with it the start-node correction is applied at every degree,
    pairing the first factors of each suffix functional with the start
    input.  With ``time_param`` the lift input gains a leading time
    coordinate (1 for increments, the step index otherwise; 0 at the
    start node).
    """
    u_all = frozen(functionals, what="component vectors")
    if u_all.ndim != 3 or 0 in u_all.shape:
        raise ValueError(f"functionals must be an (R, M, dim) array, got shape {u_all.shape}")
    rank, m_max, dim = u_all.shape
    if m_max != cfg.max_degree:
        raise ValueError(
            f"config mismatch: functional degree {m_max}, config degree {cfg.max_degree}"
        )
    if dim != cfg.lift_dim(g.attr_dim):
        raise ValueError(
            f"dimension mismatch: vectors have dim {dim}, lift needs {cfg.lift_dim(g.attr_dim)}"
        )
    if not p.pattern.same_as(g.pattern):
        raise ValueError("pattern mismatch: transition does not match the graph")
    coeffs = cfg.coefficients(m_max)
    u_attr = u_all[:, :, 1:] if cfg.time_param else u_all

    state = np.zeros((m_max + 1, g.n, rank))
    state[0] = 1.0
    # overflow surfaces as NonFiniteError, so no warning is needed
    with np.errstate(over="ignore", invalid="ignore"):
        plain = p.matrix
        cvals = _project(_edge_attr_inputs(g, cfg), u_attr)
        u_time = u_all[:, :, 0].T[:, None, :] if cfg.time_param else None
        terms = None
        # the step-p terms are applied with p = k..1 so that the first walk
        # step's factor lands leftmost in every product
        for step in range(cfg.walk_length, 0, -1):
            if terms is None or not cfg.step_homogeneous:
                step_cvals = cvals
                if u_time is not None:
                    step_cvals = cvals + (1.0 if cfg.diff else float(step)) * u_time
                terms = _step_terms(step_cvals, p, coeffs)
            state = _step(state, p, plain, terms, step)
        if not cfg.zero_start:
            levels = state[1:]
        else:
            fvals = _project(g.attributes, u_attr)
            levels = [_corrected(state, fvals, coeffs, m) for m in range(1, m_max + 1)]
    return np.stack(levels, axis=-1).reshape(g.n, rank * m_max)
