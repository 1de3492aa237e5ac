import json

import numpy as np
import pytest

from hypograph.graphs import LabelledGraph


@pytest.fixture
def path2():
    """Two nodes joined by one edge, attributes 0 and 1."""
    return LabelledGraph(2, [(0, 1)], [[0.0], [1.0]])


@pytest.fixture
def triangle():
    """Triangle with attributes 0, 1, 2."""
    return LabelledGraph(3, [(0, 1), (0, 2), (1, 2)], [[0.0], [1.0], [2.0]])


def random_labelled_graph(rng, max_nodes=8, max_dim=3, edge_prob=None):
    n = int(rng.integers(2, max_nodes + 1))
    d = int(rng.integers(1, max_dim + 1))
    p = rng.uniform(0.3, 0.8) if edge_prob is None else edge_prob
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return LabelledGraph(n, edges, rng.standard_normal((n, d)))


def write_tu_files(directory, name, edges, indicator, node_labels=None,
                   node_attributes=None, graph_labels=None):
    """Write raw TU-format files; values are emitted exactly as given."""
    def dump(suffix, lines):
        (directory / f"{name}_{suffix}.txt").write_text("\n".join(lines) + "\n")

    dump("A", [f"{a}, {b}" for a, b in edges])
    dump("graph_indicator", [str(g) for g in indicator])
    if node_labels is not None:
        dump("node_labels", [str(v) for v in node_labels])
    if node_attributes is not None:
        dump("node_attributes", [", ".join(str(x) for x in row) for row in node_attributes])
    if graph_labels is not None:
        dump("graph_labels", [str(v) for v in graph_labels])


def jsonl_line(ids, label, values):
    """One JSONL row as extract writes it: the ids, the label and the
    separators as json.dumps writes them, and each value as %.17g."""
    head = json.dumps({**ids, "label": label, "features": []})
    assert head.endswith("[]}")
    return head[:-3] + "[" + ", ".join(f"{float(v):.17g}" for v in values) + "]}"


def seq_allclose(v, w, rtol=1e-10, atol=1e-12):
    """Level-wise np.allclose of two truncated sequences of equal shape."""
    return len(v) == len(w) and all(
        np.shape(a) == np.shape(b) and np.allclose(a, b, rtol=rtol, atol=atol)
        for a, b in zip(v, w)
    )
