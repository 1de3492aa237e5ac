"""Labelled graphs, TU-format ingestion, and walk transition matrices.

Nodes are indexed 0..n-1 internally; the 1-based indices of the TU file
format are re-based on load.  Every transition matrix produced here is
row-stochastic on a shared per-graph sparsity pattern: the (bidirectional)
adjacency plus a diagonal slot for each isolated node, whose walk stays
put with probability one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

ROW_SUM_TOL = 1e-12
LEAKY_SLOPE = 0.2


class DatasetError(ValueError):
    """TU dataset files are missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class AdjacencyPattern:
    """Immutable CSR pattern shared by all sparse matrices on one graph."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        for name in ("indptr", "indices"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int32)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index of every stored entry (same length as indices)."""
        out = np.repeat(np.arange(self.n, dtype=np.int32), np.diff(self.indptr))
        out.flags.writeable = False
        return out

    @cached_property
    def incidence(self) -> sparse.csr_matrix:
        """n x nnz all-ones matrix: ``incidence @ x`` sums per-entry rows of x by row."""
        return sparse.csr_matrix(
            (np.ones(self.nnz), np.arange(self.nnz, dtype=np.int32), self.indptr),
            shape=(self.n, self.nnz),
        )

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def matrix(self, values: np.ndarray) -> sparse.csr_matrix:
        """CSR matrix with the given values on this pattern (arrays shared)."""
        return sparse.csr_matrix(
            (values, self.indices, self.indptr), shape=(self.n, self.n)
        )

    def same_as(self, other: "AdjacencyPattern") -> bool:
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


class LabelledGraph:
    """Undirected graph with d-dimensional real node attributes.

    Edges are stored once as (i, j) pairs with i < j, deduplicated, with
    no self-loops.
    """

    def __init__(self, n: int, edges, attributes):
        if n < 1:
            raise ValueError(f"need at least one node, got n={n}")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loops are not allowed")
            edges = np.sort(edges, axis=1)
            edges = np.unique(edges, axis=0)
        attributes = np.ascontiguousarray(attributes, dtype=np.float64)
        if attributes.ndim != 2 or attributes.shape[0] != n:
            raise ValueError(
                f"attributes must be (n, d) with n={n}, got {attributes.shape}"
            )
        if not np.all(np.isfinite(attributes)):
            raise ValueError("attributes must be finite")
        edges.flags.writeable = False
        attributes.flags.writeable = False
        self.n = n
        self.edges = edges
        self.attributes = attributes

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def attr_dim(self) -> int:
        return int(self.attributes.shape[1])

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        np.add.at(deg, self.edges.ravel(), 1)
        deg.flags.writeable = False
        return deg

    @cached_property
    def pattern(self) -> AdjacencyPattern:
        """Adjacency pattern plus diagonal slots for isolated nodes."""
        i, j = self.edges[:, 0], self.edges[:, 1]
        rows = np.concatenate([i, j])
        cols = np.concatenate([j, i])
        isolated = np.flatnonzero(self.degrees == 0)
        rows = np.concatenate([rows, isolated])
        cols = np.concatenate([cols, isolated])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return AdjacencyPattern(self.n, indptr, cols)

    def with_attributes(self, attributes) -> "LabelledGraph":
        """Same topology, new attributes (used for layer stacking)."""
        out = LabelledGraph.__new__(LabelledGraph)
        attributes = np.ascontiguousarray(attributes, dtype=np.float64)
        if attributes.ndim != 2 or attributes.shape[0] != self.n:
            raise ValueError(f"attributes must be ({self.n}, d)")
        if not np.all(np.isfinite(attributes)):
            raise ValueError("attributes must be finite")
        attributes.flags.writeable = False
        out.n = self.n
        out.edges = self.edges
        out.attributes = attributes
        # topology caches stay valid for the relabelled graph
        out.__dict__["degrees"] = self.degrees
        if "pattern" in self.__dict__:
            out.__dict__["pattern"] = self.pattern
        return out

    def permuted(self, perm) -> "LabelledGraph":
        """Relabel nodes: new index perm[i] plays the role of old index i."""
        perm = np.asarray(perm, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        inv = np.empty(self.n, dtype=np.int64)
        inv[perm] = np.arange(self.n)
        edges = perm[self.edges] if self.edges.size else self.edges
        return LabelledGraph(self.n, edges, self.attributes[inv])

    def __repr__(self):
        return f"LabelledGraph(n={self.n}, edges={self.num_edges}, d={self.attr_dim})"


@dataclass(frozen=True)
class RowStochastic:
    """Row-stochastic values on a graph's shared sparsity pattern."""

    pattern: AdjacencyPattern
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.shape != (self.pattern.nnz,):
            raise ValueError("values must align with the pattern entries")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValueError("transition values must lie in [0, 1]")
        row_sums = np.add.reduceat(values, self.pattern.indptr[:-1])
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            raise ValueError("rows must sum to 1")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def matrix(self) -> sparse.csr_matrix:
        return self.pattern.matrix(self.values)

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


def _normalize_rows(pattern: AdjacencyPattern, weights: np.ndarray) -> RowStochastic:
    row_sums = np.add.reduceat(weights, pattern.indptr[:-1])
    values = weights / np.repeat(row_sums, np.diff(pattern.indptr))
    return RowStochastic(pattern, values)


def transition_matrix(g: LabelledGraph) -> RowStochastic:
    """Uniform walk: probability 1/deg(i) per neighbour; isolated nodes stay."""
    pattern = g.pattern
    deg = np.maximum(g.degrees, 1).astype(np.float64)
    values = 1.0 / deg[pattern.rows]
    return RowStochastic(pattern, values)


def weighted_transition(g: LabelledGraph, weights) -> RowStochastic:
    """Walk with positive edge weights, rows normalized to 1.

    ``weights`` maps undirected edges to positive reals; keys may use
    either endpoint order.  Both directions of an edge share its weight,
    and isolated nodes keep their unit self-loop.
    """
    lookup = {}
    for (a, b), w in dict(weights).items():
        w = float(w)
        if w <= 0.0:
            raise ValueError(f"weight for edge ({a}, {b}) must be positive, got {w}")
        lookup[(min(a, b), max(a, b))] = w
    pattern = g.pattern
    rows, cols = pattern.rows, pattern.indices
    raw = np.empty(pattern.nnz, dtype=np.float64)
    for e in range(pattern.nnz):
        i, j = int(rows[e]), int(cols[e])
        if i == j:
            raw[e] = 1.0  # isolated self-loop
            continue
        key = (min(i, j), max(i, j))
        if key not in lookup:
            raise ValueError(f"missing weight for edge {key}")
        raw[e] = lookup[key]
    return _normalize_rows(pattern, raw)


@dataclass(frozen=True)
class AttentionParams:
    """Additive-attention weights for learned walk transitions.

    One source/target vector pair per head; scores pass through a leaky
    rectifier with the fixed slope 0.2 before the per-neighbourhood
    softmax.
    """

    w_source: np.ndarray
    w_target: np.ndarray
    leaky_slope: float = LEAKY_SLOPE

    def __post_init__(self):
        ws = np.atleast_2d(np.asarray(self.w_source, dtype=np.float64))
        wt = np.atleast_2d(np.asarray(self.w_target, dtype=np.float64))
        if ws.shape != wt.shape:
            raise ValueError("w_source and w_target must have matching shapes")
        if not (np.all(np.isfinite(ws)) and np.all(np.isfinite(wt))):
            raise ValueError("attention weights must be finite")
        if self.leaky_slope != LEAKY_SLOPE:
            raise ValueError(f"leaky_slope is fixed at {LEAKY_SLOPE}")
        ws.flags.writeable = False
        wt.flags.writeable = False
        object.__setattr__(self, "w_source", ws)
        object.__setattr__(self, "w_target", wt)

    @property
    def heads(self) -> int:
        return int(self.w_source.shape[0])

    @property
    def dim(self) -> int:
        return int(self.w_source.shape[1])


def _leaky_relu(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, x, LEAKY_SLOPE * x)


def attention_transition(g: LabelledGraph, params: AttentionParams) -> RowStochastic:
    """Walk transitions from additive attention over neighbourhoods.

    Row i is the softmax over neighbours j of
    leaky_relu(<w_source, f(i)> + <w_target, f(j)>).  With several heads,
    each head's transition matrix is computed independently and the
    matrices are averaged, which preserves row-stochasticity.  Isolated
    nodes keep their unit self-loop.
    """
    if params.dim != g.attr_dim:
        raise ValueError(
            f"attention dim {params.dim} does not match attributes {g.attr_dim}"
        )
    pattern = g.pattern
    rows, cols = pattern.rows, pattern.indices
    src = g.attributes @ params.w_source.T  # (n, heads)
    tgt = g.attributes @ params.w_target.T
    counts = np.diff(pattern.indptr)
    accum = np.zeros(pattern.nnz, dtype=np.float64)
    for h in range(params.heads):
        scores = _leaky_relu(src[rows, h] + tgt[cols, h])
        row_max = np.maximum.reduceat(scores, pattern.indptr[:-1])
        expd = np.exp(scores - np.repeat(row_max, counts))
        denom = np.add.reduceat(expd, pattern.indptr[:-1])
        accum += expd / np.repeat(denom, counts)
    return RowStochastic(pattern, accum / params.heads)


def normalized_laplacian(g: LabelledGraph) -> sparse.csr_matrix:
    """I - P for the uniform walk."""
    return sparse.identity(g.n, format="csr") - transition_matrix(g).matrix


def classic_diffusion(g: LabelledGraph, k: int) -> np.ndarray:
    """k steps of plain attribute diffusion: P^k applied to the attributes."""
    if k < 0:
        raise ValueError("k must be >= 0")
    p = transition_matrix(g).matrix
    out = g.attributes
    for _ in range(k):
        out = p @ out
    return np.asarray(out)


# ---------------------------------------------------------------------------
# TU file format


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc


def _parse_ints(lines: list[str], path: str) -> np.ndarray:
    try:
        return np.array([int(x) for x in lines], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        # slow path, only to name the offending line
        for idx, ln in enumerate(lines):
            try:
                np.int64(int(ln))
            except (ValueError, OverflowError) as line_exc:
                raise DatasetError(f"{path}: line {idx + 1}: {line_exc}") from line_exc
        raise DatasetError(f"{path}: {exc}") from exc


def _parse_int_pairs(lines: list[str], path: str) -> np.ndarray:
    out = np.empty((len(lines), 2), dtype=np.int64)
    for idx, ln in enumerate(lines):
        parts = ln.split(",")
        if len(parts) != 2:
            raise DatasetError(f"{path}: line {idx + 1} is not an int pair: {ln!r}")
        try:
            out[idx, 0] = int(parts[0])
            out[idx, 1] = int(parts[1])
        except ValueError as exc:
            raise DatasetError(f"{path}: line {idx + 1}: {exc}") from exc
    return out


def load_tu_dataset(path: str, name: str):
    """Load a TU-format dataset directory.

    Expects ``name_A.txt`` (comma-separated 1-based edge pairs),
    ``name_graph_indicator.txt`` (graph id per node line) and at least one
    of ``name_node_labels.txt`` (integers, one-hot encoded with width
    max-min+1 over the whole dataset) or ``name_node_attributes.txt``
    (comma-separated reals); ``name_graph_labels.txt`` is optional.  When
    both labels and attributes are present the one-hot block comes first.

    Returns a list of (LabelledGraph, label) pairs where label is None if
    the dataset has no graph labels.
    """
    prefix = os.path.join(path, name, name)
    if not os.path.exists(prefix + "_A.txt"):
        prefix = os.path.join(path, name)
    a_path = prefix + "_A.txt"
    ind_path = prefix + "_graph_indicator.txt"
    for req in (a_path, ind_path):
        if not os.path.exists(req):
            raise DatasetError(f"missing required file {req}")

    indicator = _parse_ints(_read_lines(ind_path), ind_path)
    if indicator.size == 0:
        raise DatasetError(f"{ind_path} is empty")
    num_nodes = indicator.size
    graph_ids = np.unique(indicator)
    num_graphs = graph_ids.size
    # re-base node ids inside their graph, preserving file order
    graph_index = {int(gid): gi for gi, gid in enumerate(graph_ids)}
    node_graph = np.array([graph_index[int(g)] for g in indicator], dtype=np.int64)
    local_id = np.zeros(num_nodes, dtype=np.int64)
    counts = np.zeros(num_graphs, dtype=np.int64)
    for v in range(num_nodes):
        gi = node_graph[v]
        local_id[v] = counts[gi]
        counts[gi] += 1

    labels_path = prefix + "_node_labels.txt"
    attrs_path = prefix + "_node_attributes.txt"
    blocks = []
    if os.path.exists(labels_path):
        raw = _parse_ints(_read_lines(labels_path), labels_path)
        if len(raw) != num_nodes:
            raise DatasetError(
                f"{labels_path}: {len(raw)} labels for {num_nodes} nodes"
            )
        lo, hi = int(raw.min()), int(raw.max())
        onehot = np.zeros((num_nodes, hi - lo + 1), dtype=np.float64)
        onehot[np.arange(num_nodes), raw - lo] = 1.0
        blocks.append(onehot)
    if os.path.exists(attrs_path):
        lines = _read_lines(attrs_path)
        if len(lines) != num_nodes:
            raise DatasetError(
                f"{attrs_path}: {len(lines)} rows for {num_nodes} nodes"
            )
        width = len(lines[0].split(","))
        attrs = np.empty((num_nodes, width), dtype=np.float64)
        for idx, ln in enumerate(lines):
            parts = ln.split(",")
            if len(parts) != width:
                raise DatasetError(f"{attrs_path}: ragged row {idx + 1}")
            attrs[idx] = [float(x) for x in parts]
        blocks.append(attrs)
    if not blocks:
        raise DatasetError(f"need {labels_path} or {attrs_path}")
    attributes = blocks[0] if len(blocks) == 1 else np.hstack(blocks)

    edges = _parse_int_pairs(_read_lines(a_path), a_path)
    if edges.size and (edges.min() < 1 or edges.max() > num_nodes):
        raise DatasetError(f"{a_path}: node id out of range 1..{num_nodes}")
    per_graph_edges: list[list[tuple[int, int]]] = [[] for _ in range(num_graphs)]
    for a, b in edges:
        u, v = int(a) - 1, int(b) - 1
        if node_graph[u] != node_graph[v]:
            raise DatasetError(
                f"{a_path}: edge ({a}, {b}) crosses graphs "
                f"{graph_ids[node_graph[u]]} and {graph_ids[node_graph[v]]}"
            )
        per_graph_edges[node_graph[u]].append((int(local_id[u]), int(local_id[v])))

    glabels_path = prefix + "_graph_labels.txt"
    graph_labels = None
    if os.path.exists(glabels_path):
        raw = _parse_ints(_read_lines(glabels_path), glabels_path).tolist()
        if len(raw) != num_graphs:
            raise DatasetError(
                f"{glabels_path}: {len(raw)} labels for {num_graphs} graphs"
            )
        graph_labels = raw

    dataset = []
    for gi in range(num_graphs):
        mask = node_graph == gi
        try:
            graph = LabelledGraph(int(counts[gi]), per_graph_edges[gi], attributes[mask])
        except ValueError as exc:
            raise DatasetError(f"graph {graph_ids[gi]}: {exc}") from exc
        dataset.append((graph, graph_labels[gi] if graph_labels else None))
    return dataset


def save_tu_dataset(path: str, name: str, dataset) -> None:
    """Write graphs back out in TU format (attributes as reals)."""
    widths = {g.attr_dim for g, _ in dataset}
    if len(widths) > 1:
        raise DatasetError(f"graphs must share one attribute width, got {sorted(widths)}")
    os.makedirs(path, exist_ok=True)
    prefix = os.path.join(path, name)
    offset = 0
    a_lines, ind_lines, attr_lines, label_lines = [], [], [], []
    has_labels = any(label is not None for _, label in dataset)
    for gi, (graph, label) in enumerate(dataset):
        for i, j in graph.edges:
            a_lines.append(f"{offset + i + 1}, {offset + j + 1}")
            a_lines.append(f"{offset + j + 1}, {offset + i + 1}")
        ind_lines.extend([str(gi + 1)] * graph.n)
        for row in graph.attributes:
            attr_lines.append(", ".join(f"{x:.17g}" for x in row))
        if has_labels:
            label_lines.append(str(label if label is not None else 0))
        offset += graph.n
    with open(prefix + "_A.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(a_lines) + ("\n" if a_lines else ""))
    with open(prefix + "_graph_indicator.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(ind_lines) + "\n")
    with open(prefix + "_node_attributes.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(attr_lines) + "\n")
    if has_labels:
        with open(prefix + "_graph_labels.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(label_lines) + "\n")


def dataset_summary(dataset) -> dict:
    """Aggregate statistics used by the describe command."""
    nodes = np.array([g.n for g, _ in dataset])
    edges = np.array([g.num_edges for g, _ in dataset])
    labels = [label for _, label in dataset if label is not None]
    hist = {}
    for label in labels:
        hist[label] = hist.get(label, 0) + 1
    return {
        "graphs": len(dataset),
        "attr_dim": dataset[0][0].attr_dim if dataset else 0,
        "nodes_total": int(nodes.sum()) if len(dataset) else 0,
        "nodes_mean": float(nodes.mean()) if len(dataset) else 0.0,
        "nodes_min": int(nodes.min()) if len(dataset) else 0,
        "nodes_max": int(nodes.max()) if len(dataset) else 0,
        "edges_total": int(edges.sum()) if len(dataset) else 0,
        "edges_mean": float(edges.mean()) if len(dataset) else 0.0,
        "label_histogram": dict(sorted(hist.items())),
    }


def path_graph(num_edges: int, attr_dim: int = 1, seed: int | None = None) -> LabelledGraph:
    """Path on num_edges+1 nodes; attributes random (seeded) or linear ramp."""
    n = num_edges + 1
    idx = np.arange(num_edges)
    edges = np.column_stack([idx, idx + 1])
    if seed is None:
        attrs = np.linspace(0.0, 1.0, n)[:, None] * np.ones((1, attr_dim))
    else:
        attrs = np.random.default_rng(seed).standard_normal((n, attr_dim))
    return LabelledGraph(n, edges, attrs)


def grid_graph(side: int, attr_dim: int = 1, seed: int | None = None) -> LabelledGraph:
    """side x side grid; attributes as in path_graph."""
    n = side * side
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    if seed is None:
        attrs = np.linspace(0.0, 1.0, n)[:, None] * np.ones((1, attr_dim))
    else:
        attrs = np.random.default_rng(seed).standard_normal((n, attr_dim))
    return LabelledGraph(n, edges, attrs)
