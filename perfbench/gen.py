"""Seeded benchmark inputs: an NCI1-shaped TU dataset and one large sparse graph.

Everything here is a pure function of its arguments, so one seed always
gives the same files and arrays.  The seed decides topology, node labels,
graph labels and file order; graph sizes and ring counts come from a fixed
multiset, so every seed has the same node and edge totals and the amount of
work per run does not drift with the seed.
"""

from __future__ import annotations

import os

import numpy as np

NCI_NAME = "NCIB"
NCI_NODE_LABELS = 37  # NCI1 labels atoms 1..37
NCI_MIN_NODES, NCI_MAX_NODES = 4, 111  # NCI1's smallest and largest graphs
# the size multiset is drawn once from this fixed stream, independent of --seed
_SIZE_STREAM = 20220528

LARGE_NODES = 1 << 16
LARGE_EDGES = 1 << 18
LARGE_ATTR_DIM = 8


def nci_sizes(num_graphs: int) -> np.ndarray:
    """Node counts of the stand-in graphs, in a seed-independent order.

    Gamma(5, 6) has NCI1's mean (about 30 nodes) and spread (about 13).
    """
    rng = np.random.default_rng(_SIZE_STREAM)
    sizes = np.rint(rng.gamma(5.0, 6.0, size=num_graphs))
    return np.clip(sizes, NCI_MIN_NODES, NCI_MAX_NODES).astype(np.int64)


def nci_ring_count(n: int) -> int:
    """Extra edges beyond a spanning tree; NCI1 averages 32.3 edges on 29.9 nodes."""
    return int(round(0.115 * n))


def _label_probs() -> np.ndarray:
    # a few atom types dominate molecules (C, O, N, ...), the rest are rare
    weights = 1.0 / np.arange(1, NCI_NODE_LABELS + 1) ** 2.0
    return weights / weights.sum()


def nci_graphs(num_graphs: int, seed: int):
    """Per-graph (edges, node_labels, graph_label); edges are (i, j) with i < j.

    Each graph is a random recursive tree plus ``nci_ring_count`` ring
    closures.  Labels 1 and 37 both occur, so the one-hot width is always 37.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.permutation(nci_sizes(num_graphs))
    probs = _label_probs()
    graphs = []
    for n in sizes.tolist():
        parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
        edges = {(int(p), i) for i, p in zip(range(1, n), parents.tolist())}
        want = len(edges) + nci_ring_count(n)
        while len(edges) < want:
            a, b = sorted(rng.integers(0, n, size=2).tolist())
            if a != b:
                edges.add((a, b))
        labels = rng.choice(NCI_NODE_LABELS, size=n, p=probs) + 1
        graphs.append((sorted(edges), labels, int(rng.integers(0, 2))))
    graphs[0][1][0] = 1
    graphs[0][1][1] = NCI_NODE_LABELS
    return graphs


def write_tu(directory: str, name: str, graphs) -> dict:
    """Write ``graphs`` as a TU dataset under ``directory/name``.

    ``_A.txt`` lists both directions of every edge with 1-based global node
    ids, as NCI1's files do.  Returns the dataset's totals.
    """
    root = os.path.join(directory, name)
    os.makedirs(root, exist_ok=True)
    a_lines, indicator, node_labels, graph_labels = [], [], [], []
    offset = edges_total = 0
    for gid, (edges, labels, label) in enumerate(graphs, start=1):
        for i, j in edges:
            a_lines.append(f"{offset + i + 1}, {offset + j + 1}")
            a_lines.append(f"{offset + j + 1}, {offset + i + 1}")
        indicator.extend([str(gid)] * len(labels))
        node_labels.extend(str(int(x)) for x in labels)
        graph_labels.append(str(label))
        offset += len(labels)
        edges_total += len(edges)
    files = {
        "A": a_lines,
        "graph_indicator": indicator,
        "node_labels": node_labels,
        "graph_labels": graph_labels,
    }
    for suffix, lines in files.items():
        with open(os.path.join(root, f"{name}_{suffix}.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return {"graphs": len(graphs), "nodes": offset, "edges": edges_total}


def large_graph_inputs(seed: int):
    """(n, edges, attributes) of one random sparse graph with exactly
    LARGE_EDGES distinct undirected edges on LARGE_NODES nodes."""
    rng = np.random.default_rng(seed)
    n, m = LARGE_NODES, LARGE_EDGES
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        pairs = rng.integers(0, n, size=(m + m // 8, 2))
        pairs = np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1)
        keys = np.unique(np.concatenate([keys, pairs[:, 0] * n + pairs[:, 1]]))
    keys = rng.choice(keys, size=m, replace=False)
    edges = np.column_stack([keys // n, keys % n])
    attributes = rng.standard_normal((n, LARGE_ATTR_DIM))
    return n, edges, attributes
