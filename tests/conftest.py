import json
import re

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


# a JSON number (RFC 8259) with no trailing zero after the point but in
# ".0", and a lower-case exponent, as repr and extract spell them
JSON_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.0|\.[0-9]*[1-9])?(e[-+]?[0-9]+)?")


def _digits(text):
    """The significant digits of a decimal number's text: no sign, point,
    exponent, or leading and trailing zeros."""
    return text.lstrip("-").split("e")[0].replace(".", "").strip("0") or "0"


def float_text(text):
    """The float64 that one value text of an extract output reads as,
    after checking the text is written as extract writes every value: a
    JSON number with a ``.`` or an exponent, so a JSON reader gives a
    float, and with ``repr``'s shortest round-trip significant digits."""
    assert JSON_NUMBER.fullmatch(text) and ("." in text or "e" in text), text
    value = float(text)
    assert _digits(text) == _digits(repr(value)), text
    return value


def csv_head(ids, label):
    """A CSV row up to its first value: the ids, the label (an empty field
    for None) and their commas."""
    return ",".join([str(i) for i in ids] + ["" if label is None else str(label), ""])


def jsonl_head(ids, label):
    """A JSONL row up to its first value, as json.dumps writes the ids, the
    label and the separators; the row ends in "]}"."""
    head = json.dumps({**ids, "label": label, "features": []})
    assert head.endswith("[]}")
    return head[:-2]


def row_values(line, head, tail=""):
    """The values of an extract row that is head, then its value texts
    joined by ",", then tail: each text checked by float_text."""
    assert line.startswith(head) and line.endswith(tail), (line, head, tail)
    return [float_text(t) for t in line[len(head) : len(line) - len(tail)].split(",")]


def same_bits(got, want):
    """Whether two float64 arrays have the same shape and the same bits,
    so that -0.0 differs from 0.0."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def seq_allclose(v, w, rtol=1e-10, atol=1e-12):
    """Level-wise np.allclose of two truncated sequences of equal shape."""
    return len(v) == len(w) and all(
        np.shape(a) == np.shape(b) and np.allclose(a, b, rtol=rtol, atol=atol)
        for a, b in zip(v, w)
    )
