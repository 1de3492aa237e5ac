"""Labelled graphs, TU-format ingestion, and walk transition matrices.

Nodes are indexed 0..n-1 internally; the 1-based indices of the TU file
format are re-based on load.  Every transition matrix produced here is
row-stochastic on a shared per-graph sparsity pattern: the (bidirectional)
adjacency plus a diagonal slot for each isolated node, whose walk stays
put with probability one.
"""

from __future__ import annotations

import numbers
import os
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

ROW_SUM_TOL = 1e-12
LEAKY_SLOPE = 0.2


class DatasetError(ValueError):
    """TU dataset files are missing, malformed, or inconsistent."""


class NonFiniteError(ArithmeticError):
    """A walk transition or feature computation produced a non-finite value."""


def frozen(values, dtype=np.float64, what: str | None = None) -> np.ndarray:
    """Read-only C-contiguous ``dtype`` array of ``values`` that no caller
    can write through: a writeable array, or a view of one, is copied, and
    a read-only array with no writeable base is shared.  With ``what``,
    values that are not an array of numbers raise ``ValueError("{what} must
    be an array of numbers")`` and a non-finite entry ``ValueError("{what}
    must be finite")``."""
    try:
        arr = np.asarray(values, dtype=dtype, order="C")
    except (TypeError, ValueError):
        if what is None:
            raise
        raise ValueError(f"{what} must be an array of numbers") from None
    if arr is values or arr.base is not None:
        owner = arr
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            owner = owner.base
        if isinstance(owner, np.ndarray):
            arr = arr.copy()
    arr.flags.writeable = False
    if what is not None and not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    return arr


def _node_ids(values) -> np.ndarray:
    """``values`` as an int64 array of node ids.  A float that is not a
    whole number raises ValueError instead of being truncated."""
    ids = np.asarray(values)
    if ids.dtype.kind == "f":
        with np.errstate(invalid="ignore"):  # nan and inf are caught below
            whole = ids.astype(np.int64)
        if not np.array_equal(whole, ids):
            raise ValueError("node ids must be integers")
        return whole
    return ids.astype(np.int64, copy=False)


@dataclass(frozen=True)
class AdjacencyPattern:
    """Immutable CSR pattern shared by all sparse matrices on one graph."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        for name in ("indptr", "indices"):
            object.__setattr__(self, name, frozen(getattr(self, name), np.int32))

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index of every stored entry (same length as indices)."""
        return frozen(np.repeat(np.arange(self.n, dtype=np.int32), np.diff(self.indptr)), np.int32)

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


def _checked_attributes(n: int, attributes) -> np.ndarray:
    """Read-only float64 (n, d) attribute matrix; rejects other shapes and
    non-finite values."""
    attributes = frozen(attributes, what="attributes")
    if attributes.ndim != 2 or attributes.shape[0] != n:
        raise ValueError(f"attributes must be (n, d) with n={n}, got {attributes.shape}")
    return attributes


class LabelledGraph:
    """Undirected graph with d-dimensional real node attributes.

    Edges are stored once as (i, j) pairs with i < j, deduplicated, with
    no self-loops.
    """

    def __init__(self, n: int, edges, attributes):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"n must be an integer, got {n!r}")
        n = int(n)
        if n < 1:
            raise ValueError(f"need at least one node, got n={n}")
        edges = _node_ids(edges)
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
            raise ValueError(f"edges must be (m, 2) pairs, got shape {edges.shape}")
        edges = edges.reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loops are not allowed")
            # sorted unique (i, j) pairs with i < j, through one code per pair;
            # a sort and a neighbour mask, as numpy's hash-based unique is slower
            lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
            codes = np.sort(lo * n + hi)
            codes = codes[np.append(True, codes[1:] != codes[:-1])]
            edges = np.column_stack(np.divmod(codes, n))
        self.n = n
        self.edges = frozen(edges, np.int64)
        self.attributes = _checked_attributes(n, attributes)

    @classmethod
    def _from_checked(cls, n: int, edges: np.ndarray, attributes: np.ndarray) -> "LabelledGraph":
        """A graph over arrays that already hold the class's invariants, as
        read-only int64 (m, 2) edges and finite float64 (n, d) attributes;
        nothing is checked or copied."""
        g = cls.__new__(cls)
        g.n, g.edges, g.attributes = n, edges, attributes
        return g

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def attr_dim(self) -> int:
        return int(self.attributes.shape[1])

    @cached_property
    def degrees(self) -> np.ndarray:
        return frozen(np.bincount(self.edges.ravel(), minlength=self.n), np.int64)

    @cached_property
    def pattern(self) -> AdjacencyPattern:
        """Adjacency pattern plus diagonal slots for isolated nodes, built
        from the sorted pair codes i * n + j that the constructor uses."""
        n = self.n
        i, j = self.edges[:, 0], self.edges[:, 1]
        isolated = np.flatnonzero(self.degrees == 0)
        codes = np.sort(np.concatenate([i * n + j, j * n + i, isolated * (n + 1)]))
        rows, cols = np.divmod(codes, n)
        return AdjacencyPattern(n, np.searchsorted(rows, np.arange(n + 1)), cols)

    def with_attributes(self, attributes) -> "LabelledGraph":
        """Same topology, new attributes (used for layer stacking).

        The pattern is built here once, so every layer over one graph
        shares it.
        """
        attributes = _checked_attributes(self.n, attributes)
        out = LabelledGraph._from_checked(self.n, self.edges, attributes)
        # topology caches stay valid for the new attributes
        out.__dict__.update(degrees=self.degrees, pattern=self.pattern)
        return out

    def permuted(self, perm) -> "LabelledGraph":
        """Relabel nodes: new index perm[i] plays the role of old index i."""
        perm = _node_ids(perm)
        if not np.array_equal(np.sort(perm), np.arange(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        inv = np.empty(self.n, dtype=np.int64)
        inv[perm] = np.arange(self.n)
        edges = perm[self.edges] if self.edges.size else self.edges
        return LabelledGraph(self.n, edges, self.attributes[inv])

    def split(self, offsets) -> list["LabelledGraph"]:
        """The inverse of :func:`disjoint_union`: graph i holds nodes
        ``offsets[i]:offsets[i + 1]``, its edges shifted to local ids and
        its attributes as a read-only view of this graph's rows.  Offsets
        are as :func:`block_offsets` takes them, and no edge may cross a cut."""
        offsets = block_offsets(offsets, self.n)
        # edges are sorted by their lower endpoint i < j, so each block's
        # edges are one run; an edge crosses a cut when j leaves i's block
        cuts = np.searchsorted(self.edges[:, 0], offsets)
        counts = np.diff(cuts)
        crossing = np.flatnonzero(self.edges[:, 1] >= np.repeat(offsets[1:], counts))
        if crossing.size:
            a, b = self.edges[crossing[0]]
            raise ValueError(f"edge ({a}, {b}) crosses a cut")
        local = self.edges - np.repeat(offsets[:-1], counts)[:, None]
        local.flags.writeable = False
        bounds = zip(offsets.tolist(), offsets[1:].tolist(), cuts.tolist(), cuts[1:].tolist())
        return [
            LabelledGraph._from_checked(hi - lo, local[first:stop], self.attributes[lo:hi])
            for lo, hi, first, stop in bounds
        ]

    def __repr__(self):
        return f"LabelledGraph(n={self.n}, edges={self.num_edges}, d={self.attr_dim})"


def disjoint_union(graphs) -> tuple[LabelledGraph, np.ndarray]:
    """One block-diagonal graph holding ``graphs`` side by side.

    Graph i's nodes become rows ``offsets[i]:offsets[i + 1]`` of the union,
    in their own order.  No edge joins two blocks, so every walk stays in
    its graph and row-wise results on the union are those of each graph.
    Members' checked arrays are trusted: edges shifted by rising offsets
    stay sorted, unique, in range and without loops.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    widths = {g.attr_dim for g in graphs}
    if len(widths) > 1:
        raise ValueError(f"graphs must share one attribute width, got {sorted(widths)}")
    offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
    np.cumsum([g.n for g in graphs], out=offsets[1:])
    edges = np.concatenate([g.edges + off for g, off in zip(graphs, offsets)])
    attributes = np.concatenate([g.attributes for g in graphs])
    edges.flags.writeable = attributes.flags.writeable = False
    return LabelledGraph._from_checked(int(offsets[-1]), edges, attributes), offsets


def block_offsets(offsets, n: int) -> np.ndarray:
    """``offsets`` read as node ids that rise strictly from 0 to ``n``:
    block i holds nodes ``offsets[i]:offsets[i + 1]``, as in a union."""
    offsets = _node_ids(offsets)
    rising = offsets.ndim == 1 and offsets.size > 1 and np.all(np.diff(offsets) > 0)
    if not (rising and offsets[0] == 0 and offsets[-1] == n):
        raise ValueError(f"offsets must rise strictly from 0 to n={n}")
    return offsets


@dataclass(frozen=True)
class RowStochastic:
    """Row-stochastic values on a graph's shared sparsity pattern."""

    pattern: AdjacencyPattern
    values: np.ndarray

    def __post_init__(self):
        values = frozen(self.values, what="transition values")
        if values.shape != (self.pattern.nnz,):
            raise ValueError("values must align with the pattern entries")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValueError("transition values must lie in [0, 1]")
        row_sums = np.add.reduceat(values, self.pattern.indptr[:-1])
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            raise ValueError("rows must sum to 1")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def matrix(self) -> sparse.csr_matrix:
        return self.pattern.matrix(self.values)

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


def _row_normalized(pattern: AdjacencyPattern, weights: np.ndarray) -> np.ndarray:
    """``weights`` on the pattern entries, each divided by its row's sum."""
    row_sums = np.add.reduceat(weights, pattern.indptr[:-1])
    return weights / np.repeat(row_sums, np.diff(pattern.indptr))


def transition_matrix(g: LabelledGraph) -> RowStochastic:
    """Uniform walk: probability 1/deg(i) per neighbour; isolated nodes stay."""
    pattern = g.pattern
    return RowStochastic(pattern, _row_normalized(pattern, np.ones(pattern.nnz)))


def weighted_transition(g: LabelledGraph, weights) -> RowStochastic:
    """Walk with positive edge weights, rows normalized to 1.

    ``weights`` maps undirected edges to positive finite reals; keys may
    use either endpoint order.  Both directions of an edge share its
    weight, and isolated nodes keep their unit self-loop.
    """
    lookup = {}
    for (a, b), w in dict(weights).items():
        w = float(w)
        if not 0.0 < w < np.inf:
            raise ValueError(f"weight for edge ({a}, {b}) must be positive and finite, got {w}")
        lookup[(min(a, b), max(a, b))] = w
    edge_weight = []
    for key in map(tuple, g.edges.tolist()):
        if key not in lookup:
            raise ValueError(f"missing weight for edge {key}")
        edge_weight.append(lookup[key])
    # g.edges is sorted by (i, j), so each entry finds its edge by bisection
    pattern, n = g.pattern, g.n
    lo = np.minimum(pattern.rows, pattern.indices).astype(np.int64)
    hi = np.maximum(pattern.rows, pattern.indices).astype(np.int64)
    slot = np.searchsorted(g.edges[:, 0] * n + g.edges[:, 1], lo * n + hi)
    # isolated nodes keep their unit self-loop
    raw = np.where(lo == hi, 1.0, np.append(edge_weight, 1.0)[slot])
    return RowStochastic(pattern, _row_normalized(pattern, raw))


@dataclass(frozen=True)
class AttentionParams:
    """Additive-attention weights for learned walk transitions.

    One source/target vector pair per head; scores pass through a leaky
    rectifier with the fixed slope ``LEAKY_SLOPE`` (0.2) before the
    per-neighbourhood softmax.
    """

    w_source: np.ndarray
    w_target: np.ndarray

    def __post_init__(self):
        for name in ("w_source", "w_target"):
            weights = frozen(np.atleast_2d(getattr(self, name)), what="attention weights")
            if weights.ndim != 2:
                raise ValueError(f"{name} must be (heads, d), got shape {weights.shape}")
            object.__setattr__(self, name, weights)
        if self.w_source.shape != self.w_target.shape:
            raise ValueError("w_source and w_target must have matching shapes")
        if self.heads < 1:
            shape = self.w_source.shape
            raise ValueError(f"attention weights need at least one head, got shape {shape}")

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
    nodes keep their unit self-loop.  Raises :class:`NonFiniteError` if a
    score overflows.
    """
    if params.dim != g.attr_dim:
        raise ValueError(
            f"attention dim {params.dim} does not match attributes {g.attr_dim}"
        )
    pattern = g.pattern
    rows, cols = pattern.rows, pattern.indices
    counts = np.diff(pattern.indptr)
    accum = np.zeros(pattern.nnz, dtype=np.float64)
    # overflow surfaces as NonFiniteError; finite scores give softmax terms in [0, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        src = g.attributes @ params.w_source.T  # (n, heads)
        tgt = g.attributes @ params.w_target.T
        for h in range(params.heads):
            scores = _leaky_relu(src[rows, h] + tgt[cols, h])
            if not np.isfinite(scores).all():
                raise NonFiniteError("non-finite value in the attention transition")
            row_max = np.maximum.reduceat(scores, pattern.indptr[:-1])
            accum += _row_normalized(pattern, np.exp(scores - np.repeat(row_max, counts)))
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


def _read_table(path: str, dtype, columns: int | None = None) -> np.ndarray:
    """(rows, columns) array of the comma-separated numbers in a TU file.

    Blank lines are skipped, and every row must hold ``columns`` values
    (None: as many as the first row).  A well-formed file is read by
    ``np.loadtxt``; any other goes through :func:`_parse_table`.
    """
    try:
        with warnings.catch_warnings():
            # an empty file is caught by the caller's count checks
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(
                path, dtype=dtype, delimiter=",", comments=None, ndmin=2, encoding="utf-8"
            )
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    except (ValueError, OverflowError):
        return _parse_table(path, dtype, columns)
    if table.size == 0 or (columns is not None and table.shape[1] != columns):
        return _parse_table(path, dtype, columns)
    return table


def _lines(path: str):
    """(file line number, text) of every line of ``path`` that is not all
    blanks.  A line that is not UTF-8 raises DatasetError naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    for number, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: line {number}: {exc}") from None
        if line.strip():
            yield number, line


def _parse_table(path: str, dtype, columns: int | None) -> np.ndarray:
    """Line-by-line :func:`_read_table`: also skips lines of blanks, and
    names the first bad line by its line number in the file."""
    convert = int if np.issubdtype(dtype, np.integer) else float
    rows = []
    for number, line in _lines(path):
        parts = line.split(",")
        width = columns or (rows[0].size if rows else len(parts))
        if len(parts) != width:
            raise DatasetError(
                f"{path}: line {number}: ragged row of {len(parts)} values, expected {width}"
            )
        try:
            rows.append(np.array([convert(x) for x in parts], dtype=dtype))
        except (ValueError, OverflowError) as exc:
            raise DatasetError(f"{path}: line {number}: {exc}") from exc
    if not rows:
        return np.empty((0, columns or 0), dtype=dtype)
    return np.stack(rows)


def _file_line(path: str, row: int) -> int:
    """File line number of table row ``row``, counting the skipped blank
    lines as :func:`_parse_table` does."""
    return [number for number, _ in _lines(path)][row]


def _node_attributes(prefix: str, order: np.ndarray) -> np.ndarray:
    """The read-only (n, d) attribute matrix of a TU dataset, its rows in
    ``order`` (file rows grouped by graph): the one-hot node labels, then
    the node attributes."""
    num_nodes = order.size
    labels_path = prefix + "_node_labels.txt"
    attrs_path = prefix + "_node_attributes.txt"
    blocks = []
    if os.path.exists(labels_path):
        raw = _read_table(labels_path, np.int64, 1)[:, 0]
        if len(raw) != num_nodes:
            raise DatasetError(
                f"{labels_path}: {len(raw)} labels for {num_nodes} nodes"
            )
        lo, hi = int(raw.min()), int(raw.max())
        try:
            onehot = np.zeros((num_nodes, hi - lo + 1), dtype=np.float64)
        except (MemoryError, ValueError) as exc:
            raise DatasetError(
                f"{labels_path}: node labels {lo}..{hi} are too wide a range to one-hot "
                f"encode for {num_nodes} nodes"
            ) from exc
        onehot[np.arange(num_nodes), raw[order] - lo] = 1.0
        blocks.append(onehot)
    if os.path.exists(attrs_path):
        attrs = _read_table(attrs_path, np.float64)
        if len(attrs) != num_nodes:
            raise DatasetError(
                f"{attrs_path}: {len(attrs)} rows for {num_nodes} nodes"
            )
        bad = np.flatnonzero(~np.isfinite(attrs).all(axis=1))
        if bad.size:
            line = _file_line(attrs_path, bad[0])
            raise DatasetError(f"{attrs_path}: line {line}: attributes must be finite")
        attrs = attrs[order]
        blocks.append(attrs)
    if not blocks:
        raise DatasetError(f"need {labels_path} or {attrs_path}")
    attributes = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
    # frozen in place, so the graphs share views of it, not copies
    attributes.flags.writeable = False
    return attributes


def load_tu_dataset(path: str, name: str):
    """Load a TU-format dataset directory.

    Expects ``name_A.txt`` (comma-separated 1-based edge pairs),
    ``name_graph_indicator.txt`` (graph id per node line) and at least one
    of ``name_node_labels.txt`` (integers, one-hot encoded with width
    max-min+1 over the whole dataset) or ``name_node_attributes.txt``
    (comma-separated reals); ``name_graph_labels.txt`` is optional.  When
    both labels and attributes are present the one-hot block comes first.
    Graphs come in increasing graph id; each keeps its nodes in file order.

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

    indicator = _read_table(ind_path, np.int64, 1)[:, 0]
    if indicator.size == 0:
        raise DatasetError(f"{ind_path} is empty")
    num_nodes = indicator.size
    graph_ids, node_graph = np.unique(indicator, return_inverse=True)
    num_graphs = graph_ids.size
    # group the nodes by graph, keeping file order inside each graph
    order = np.argsort(node_graph, kind="stable")
    offsets = np.zeros(num_graphs + 1, dtype=np.int64)
    np.cumsum(np.bincount(node_graph, minlength=num_graphs), out=offsets[1:])
    new_id = np.empty(num_nodes, dtype=np.int64)
    new_id[order] = np.arange(num_nodes)

    attributes = _node_attributes(prefix, order)
    del order

    edges = _read_table(a_path, np.int64, 2)
    if edges.size and (edges.min() < 1 or edges.max() > num_nodes):
        raise DatasetError(f"{a_path}: node id out of range 1..{num_nodes}")
    loops = np.flatnonzero(edges[:, 0] == edges[:, 1])
    if loops.size:
        line = _file_line(a_path, loops[0])
        raise DatasetError(f"{a_path}: line {line}: self-loops are not allowed")
    edges -= 1
    crossing = np.flatnonzero(node_graph[edges[:, 0]] != node_graph[edges[:, 1]])
    if crossing.size:
        a, b = edges[crossing[0]]
        raise DatasetError(
            f"{a_path}: line {_file_line(a_path, crossing[0])}: edge ({a + 1}, {b + 1}) "
            f"crosses graphs {graph_ids[node_graph[a]]} and {graph_ids[node_graph[b]]}"
        )
    # node ids in graph order, so each graph is one block of the whole
    edges = new_id[edges]
    del node_graph, new_id  # freed before the whole-file graph peaks in memory

    glabels_path = prefix + "_graph_labels.txt"
    graph_labels = [None] * num_graphs
    if os.path.exists(glabels_path):
        graph_labels = _read_table(glabels_path, np.int64, 1)[:, 0].tolist()
        if len(graph_labels) != num_graphs:
            raise DatasetError(
                f"{glabels_path}: {len(graph_labels)} labels for {num_graphs} graphs"
            )

    # one check and canonical sort of every edge, then one view per graph
    graphs = LabelledGraph(num_nodes, edges, attributes).split(offsets)
    return list(zip(graphs, graph_labels))


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
    """Aggregate statistics of a non-empty dataset, used by the describe
    command."""
    nodes = np.array([g.n for g, _ in dataset])
    edges = np.array([g.num_edges for g, _ in dataset])
    labels = [label for _, label in dataset if label is not None]
    hist = {}
    for label in labels:
        hist[label] = hist.get(label, 0) + 1
    return {
        "graphs": len(dataset),
        "attr_dim": dataset[0][0].attr_dim,
        "nodes_total": int(nodes.sum()),
        "nodes_mean": float(nodes.mean()),
        "nodes_min": int(nodes.min()),
        "nodes_max": int(nodes.max()),
        "edges_total": int(edges.sum()),
        "edges_mean": float(edges.mean()),
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
