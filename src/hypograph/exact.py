"""Reference oracle: tensor-valued walk matrices and exact diffusion.

Everything here materializes dense degree-M tensors and is guarded to
desk scale; the production path lives in :mod:`hypograph.lowrank` and is
validated against this module.
"""

from __future__ import annotations

import numpy as np

from .config import FeatureConfig
from .graphs import LabelledGraph, RowStochastic
from .tensoralg import TruncatedTensorSequence, algebra_mul, lift

MAX_ORACLE_NODES = 64
MAX_ORACLE_DEGREE = 4
WALK_TERM_BUDGET = 10**6


class OracleScaleError(ValueError):
    """Requested exact computation beyond the validated desk scale."""


class WalkBudgetError(ValueError):
    """Walk enumeration would exceed the term budget."""


class TensorVector:
    """Length-n vector with truncated-tensor entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError("empty tensor vector")
        d, m = entries[0].dims, entries[0].max_degree
        for e in entries:
            if e.dims != d or e.max_degree != m:
                raise ValueError("entries must share dims and max_degree")
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i) -> TruncatedTensorSequence:
        return self.entries[i]

    @property
    def dims(self) -> int:
        return self.entries[0].dims

    @property
    def max_degree(self) -> int:
        return self.entries[0].max_degree


class TensorMatrix:
    """Sparse n x n matrix with truncated-tensor entries.

    Only pattern entries are stored, as per-row (column, value) lists; the
    zero pattern is a subset of adjacency plus diagonal.
    """

    __slots__ = ("n", "dims", "max_degree", "rows")

    def __init__(self, n: int, rows):
        self.n = n
        self.rows = tuple(tuple(row) for row in rows)
        if len(self.rows) != n:
            raise ValueError(f"need {n} rows, got {len(self.rows)}")
        first = None
        for row in self.rows:
            for j, value in row:
                if not (0 <= j < n):
                    raise ValueError(f"column {j} out of range")
                if first is None:
                    first = value
                elif value.dims != first.dims or value.max_degree != first.max_degree:
                    raise ValueError("entries must share dims and max_degree")
        if first is None:
            raise ValueError("matrix has no stored entries")
        self.dims = first.dims
        self.max_degree = first.max_degree

    def degree0(self) -> np.ndarray:
        """Scalar slice: the degree-0 level of every entry, as dense n x n."""
        out = np.zeros((self.n, self.n))
        for i, row in enumerate(self.rows):
            for j, value in row:
                out[i, j] = value.level(0)
        return out


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


def tensor_adjacency(g: LabelledGraph, cfg: FeatureConfig, step: int = 1) -> TensorMatrix:
    """Adjacency matrix whose entries lift the attribute change along each edge."""
    max_degree = cfg.max_degree
    coeffs = cfg.coefficients(max_degree)
    rows: list[list] = [[] for _ in range(g.n)]
    for i, j in g.edges:
        rows[i].append((j, lift(_edge_input(g, cfg, i, j, step), max_degree, coeffs)))
        rows[j].append((i, lift(_edge_input(g, cfg, j, i, step), max_degree, coeffs)))
    for i in range(g.n):
        rows[i].sort(key=lambda item: item[0])
    if all(not row for row in rows):
        raise ValueError("graph has no edges; adjacency matrix would be empty")
    return TensorMatrix(g.n, rows)


def tensor_transition(
    g: LabelledGraph, cfg: FeatureConfig, p: RowStochastic, step: int = 1
) -> TensorMatrix:
    """Transition matrix with entries P_ij * lift(edge input).

    The degree-0 slice equals P; isolated self-loops lift the stay-put
    step (the unit when increments are used).
    """
    if not p.pattern.same_as(g.pattern):
        raise ValueError("transition pattern does not match the graph")
    max_degree = cfg.max_degree
    coeffs = cfg.coefficients(max_degree)
    pattern = p.pattern
    rows: list[list] = []
    for i in range(g.n):
        row = []
        for e in range(pattern.indptr[i], pattern.indptr[i + 1]):
            j = int(pattern.indices[e])
            entry = lift(_edge_input(g, cfg, i, j, step), max_degree, coeffs)
            row.append((j, entry.scale(float(p.values[e]))))
        rows.append(row)
    return TensorMatrix(g.n, rows)


def _guard(n: int, max_degree: int):
    if n > MAX_ORACLE_NODES:
        raise OracleScaleError(f"oracle guard: n={n} exceeds {MAX_ORACLE_NODES}")
    if max_degree > MAX_ORACLE_DEGREE:
        raise OracleScaleError(
            f"oracle guard: max_degree={max_degree} exceeds {MAX_ORACLE_DEGREE}"
        )


def _matvec(mat: TensorMatrix, vec: TensorVector) -> TensorVector:
    """(A v)_i = sum_j A_ij * v_j, with the matrix entry left of the vector."""
    out = []
    for row in mat.rows:
        acc = TruncatedTensorSequence.zero(mat.dims, mat.max_degree)
        for j, value in row:
            acc = acc.add(algebra_mul(value, vec[j]))
        out.append(acc)
    return TensorVector(out)


def _vecmat(vec: TensorVector, mat: TensorMatrix) -> TensorVector:
    """(v^T A)_j = sum_i v_i * A_ij, with the vector entry left of the matrix."""
    out = [TruncatedTensorSequence.zero(mat.dims, mat.max_degree) for _ in range(mat.n)]
    for i, row in enumerate(mat.rows):
        for j, value in row:
            out[j] = out[j].add(algebra_mul(vec[i], value))
    return TensorVector(out)


def tensor_mat_power_apply(mat: TensorMatrix, k: int, v0: TensorVector) -> TensorVector:
    """A^k v0 by k sparse tensor matrix-vector products."""
    if k < 0:
        raise ValueError("k must be >= 0")
    _guard(mat.n, mat.max_degree)
    if len(v0) != mat.n or v0.dims != mat.dims or v0.max_degree != mat.max_degree:
        raise ValueError("vector does not match the matrix")
    vec = v0
    for _ in range(k):
        vec = _matvec(mat, vec)
    return vec


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
) -> TruncatedTensorSequence:
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
    max_degree = cfg.max_degree
    coeffs = cfg.coefficients(max_degree)
    dims = cfg.lift_dim(g.attr_dim)
    pattern = g.pattern
    total = TruncatedTensorSequence.zero(dims, max_degree)

    def descend(node: int, depth: int, prefix: TruncatedTensorSequence, prob: float):
        nonlocal total
        if depth == k:
            total = total.add(prefix.scale(prob))
            return
        for e in range(pattern.indptr[node], pattern.indptr[node + 1]):
            j = int(pattern.indices[e])
            factor = lift(_edge_input(g, cfg, node, j, depth + 1), max_degree, coeffs)
            descend(j, depth + 1, algebra_mul(prefix, factor), prob * float(p.values[e]))

    descend(start, 0, TruncatedTensorSequence.unit(dims, max_degree), 1.0)
    return total


def node_features_exact(
    g: LabelledGraph, p: RowStochastic, cfg: FeatureConfig, k: int
) -> TensorVector:
    """Exact walk-history features conditioned on the start node.

    Applies k transition steps to the all-unit vector; with ``zero_start``
    each entry i is then left-multiplied by the lift of node i's start
    factor.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    _guard(g.n, cfg.max_degree)
    dims = cfg.lift_dim(g.attr_dim)
    vec = TensorVector(
        [TruncatedTensorSequence.unit(dims, cfg.max_degree) for _ in range(g.n)]
    )
    if k > 0:
        if cfg.step_homogeneous:
            vec = tensor_mat_power_apply(tensor_transition(g, cfg, p), k, vec)
        else:
            # step-indexed inputs: apply the step-p matrix with p = k..1 so
            # the first walk step ends up leftmost in every product
            for step in range(k, 0, -1):
                vec = _matvec(tensor_transition(g, cfg, p, step=step), vec)
    if cfg.zero_start:
        coeffs = cfg.coefficients(cfg.max_degree)
        vec = TensorVector(
            [
                algebra_mul(lift(_start_input(g, cfg, i), cfg.max_degree, coeffs), vec[i])
                for i in range(g.n)
            ]
        )
    return vec


def graph_feature_exact(
    g: LabelledGraph, p: RowStochastic, cfg: FeatureConfig, k: int
) -> TruncatedTensorSequence:
    """Mean of the exact node features."""
    vec = node_features_exact(g, p, cfg, k)
    acc = TruncatedTensorSequence.zero(vec.dims, vec.max_degree)
    for entry in vec.entries:
        acc = acc.add(entry)
    return acc.scale(1.0 / g.n)


def forward_diffusion_exact(
    g: LabelledGraph, p: RowStochastic, cfg: FeatureConfig, k: int
) -> TensorVector:
    """Walk-history features conditioned on the end node.

    Entry i is P[walk ends at i] times the expected step-lift product
    given that ending; its degree-0 level is exactly that probability.
    The start-node factor is never included here.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    _guard(g.n, cfg.max_degree)
    dims = cfg.lift_dim(g.attr_dim)
    vec = TensorVector(
        [
            TruncatedTensorSequence.unit(dims, cfg.max_degree).scale(1.0 / g.n)
            for _ in range(g.n)
        ]
    )
    if k == 0:
        return vec
    if cfg.step_homogeneous:
        mat = tensor_transition(g, cfg, p)
        for _ in range(k):
            vec = _vecmat(vec, mat)
    else:
        for step in range(1, k + 1):
            vec = _vecmat(vec, tensor_transition(g, cfg, p, step=step))
    return vec
