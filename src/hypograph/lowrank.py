"""Edge-linear recursion for rank-1 functionals of walk-history features.

Instead of materializing degree-M tensors, a rank-1 functional with
component vectors u_1..u_M reduces every walk step to scalar sparse
arithmetic on the graph pattern: one value array per step for the plain
transition and one per Hadamard chain of increment projections.  The
chains are extended one factor at a time, so computing all degrees for a
length-k walk costs O(k M^2 E) after an O(M E d) setup.  The start-node
factor is one more step of the same kernel, from each node to itself.

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


def _same(x):
    """The identity, step 0's plain product and per-row entry sum."""
    return x


def _step_terms(cvals: np.ndarray, weights, rowsum, coeffs) -> list:
    """Hadamard-chain terms of one step, per degree m = 1..M.

    The degree-m chains start at slot s0 = M - m; the chain of length r
    has weights c_r * w_e * prod_{t=s0}^{s0+r-1} cvals[t, e, :], shape
    (entries, R), and each extends the previous one by a single factor.  A
    chain of length r < m multiplies degree m - r at the entry's target;
    the r = m chain multiplies the constant degree 0, so it enters as its
    per-row sum of shape (n, R).  Returns (chains r < m, constant) per
    degree.
    """
    m_max = cvals.shape[0]
    terms = []
    for m in range(1, m_max + 1):
        chain = None
        chains = []
        for r in range(1, m + 1):
            factor = cvals[m_max - m + r - 1]
            chain = factor if chain is None else chain * factor
            chains.append((coeffs[r] * weights)[:, None] * chain)
        terms.append((chains[:-1], rowsum(chains[-1])))
    return terms


def _step(state: np.ndarray, terms: list, targets, plain, rowsum, where: str) -> np.ndarray:
    """One step on the state (M, n, R) of degrees 1..M.

    Degree m is the plain product of its previous value, plus one per-row
    sum of the chains against the lower degrees gathered at each entry's
    target, plus the constant full-length chain.  ``where`` names the
    step in the overflow message.
    """
    m_max = state.shape[0]
    gathered = state[: m_max - 1, targets]  # gathered[j - 1] = degree j per entry
    new = np.empty_like(state)
    for m, (chains, const) in enumerate(terms, start=1):
        column = plain(state[m - 1]) + const
        if chains:
            acc = chains[0] * gathered[m - 2]
            for r in range(2, m):
                acc += chains[r - 1] * gathered[m - r - 1]
            column += rowsum(acc)
        if not np.isfinite(column).all():
            raise NonFiniteError(f"non-finite value {where}, degree {m}")
        new[m - 1] = column
    return new


def batch_features(
    g: LabelledGraph,
    p: RowStochastic,
    functionals,
    cfg: FeatureConfig,
) -> np.ndarray:
    """Feature matrix (n, R*M): all degrees of all functionals per node.

    ``functionals`` is an (R, M, dim) array-like of component vectors,
    such as a list of :class:`RankOneFunctional`, of the shape
    ``cfg.functional_shape(g.attr_dim)``.  Column block j holds
    the M degree values of functional j (j outer, degree inner): the
    recursion state after ``cfg.walk_length`` walk steps and, with
    ``zero_start``, the start-node factor as one more step 0 that moves
    every node to itself with weight 1.  With ``time_param`` the lift
    input gains a leading time coordinate (1 for increments, the step
    index otherwise; 0 at the start node).
    """
    u_all = frozen(functionals, what="component vectors")
    shape = cfg.functional_shape(g.attr_dim)
    if u_all.shape != shape or 0 in shape:
        raise ValueError(
            f"functionals must be a non-empty (R, M, dim) = {shape} array, got {u_all.shape}"
        )
    rank, m_max, _ = shape
    if not p.pattern.same_as(g.pattern):
        raise ValueError("pattern mismatch: transition does not match the graph")
    coeffs = cfg.coefficients
    u_attr = u_all[:, :, 1:] if cfg.time_param else u_all

    state = np.zeros((m_max, g.n, rank))
    # overflow surfaces as NonFiniteError, so no warning is needed
    with np.errstate(over="ignore", invalid="ignore"):
        targets, plain = p.pattern.indices, p.matrix.__matmul__
        rowsum = p.pattern.incidence.__matmul__
        cvals = _project(_edge_attr_inputs(g, cfg), u_attr)
        u_time = u_all[:, :, 0].T[:, None, :] if cfg.time_param else None
        terms = None
        # the step-s terms are applied with s = k..1, then the start-node
        # factor as step 0, so that earlier factors land leftmost in every
        # product
        for step in range(cfg.walk_length, 0, -1):
            if terms is None or not cfg.step_homogeneous:
                step_cvals = cvals
                if u_time is not None:
                    step_cvals = cvals + (1.0 if cfg.diff else float(step)) * u_time
                terms = _step_terms(step_cvals, p.values, rowsum, coeffs)
            state = _step(state, terms, targets, plain, rowsum, f"at walk step {step}")
        if cfg.zero_start:
            # step 0 lifts the start projections <u, f(i)>, time coordinate 0
            terms = _step_terms(_project(g.attributes, u_attr), np.ones(g.n), _same, coeffs)
            state = _step(state, terms, slice(None), _same, _same, "in the start-node correction")
    return np.stack(state, axis=-1).reshape(g.n, rank * m_max)
