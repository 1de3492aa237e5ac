"""Write the reference dataset and the reference outputs of ``extract``.

The dataset is 20 seeded NCI-like graphs in TU format under ``REF/``:
random recursive trees of 4..14 nodes, one ring-closing edge per 8 nodes,
node labels 1..9 (a few frequent, as atom types are) and graph labels 0
and 1.  Each flag set in ``FLAG_SETS`` is extracted with ``--seed 7`` into
``<name>.csv`` or ``<name>.jsonl``; between them the flag sets use every
``extract`` flag.  ``tests/test_reference.py`` compares fresh outputs with
these files.

Regenerate, when outputs move on purpose, from the repository root::

    PYTHONPATH=src python tests/reference/make_reference.py
"""

from __future__ import annotations

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = "REF"
SEED = 7
FLAG_SETS = {
    "nci": "--walk-length 5 --max-degree 2 --rank 128 --layers 4 --format csv",
    "attention": "--attention --heads 3 --per-node --format jsonl",
    "time": "--no-diff --time-param",
    "nozerostart": "--no-zero-start --max-degree 3 --walk-length 0",
    "layers": "--layers 3",
}


def output_name(name: str) -> str:
    """File name of flag set ``name``'s output."""
    return f"{name}.jsonl" if "jsonl" in FLAG_SETS[name] else f"{name}.csv"


def extract_argv(name: str, out: str) -> list[str]:
    """The ``hypograph`` arguments that extract flag set ``name`` into out."""
    return ["extract", "--dataset", HERE, "--name", NAME, "--seed", str(SEED),
            *FLAG_SETS[name].split(), "--out", out]


def write_dataset(directory: str, num_graphs: int = 20, seed: int = 2022) -> None:
    """Write the seeded graphs as TU files under ``directory/NAME``."""
    rng = np.random.default_rng(seed)
    probs = 1.0 / np.arange(1, 10) ** 2.0
    a_lines, indicator, node_labels, graph_labels = [], [], [], []
    offset = 0
    for gid in range(1, num_graphs + 1):
        n = int(rng.integers(4, 15))
        edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        while len(edges) < n - 1 + n // 8:
            i, j = sorted(rng.choice(n, 2, replace=False).tolist())
            edges.add((i, j))
        for i, j in sorted(edges):
            a_lines += [f"{offset + i + 1}, {offset + j + 1}", f"{offset + j + 1}, {offset + i + 1}"]
        labels = rng.choice(np.arange(1, 10), n, p=probs / probs.sum())
        if gid == 1:
            labels[:2] = (1, 9)  # every label occurs, so the one-hot width is 9
        indicator += [str(gid)] * n
        node_labels += [str(x) for x in labels.tolist()]
        graph_labels.append(str(int(rng.integers(0, 2))))
        offset += n
    root = os.path.join(directory, NAME)
    os.makedirs(root, exist_ok=True)
    files = {"A": a_lines, "graph_indicator": indicator, "node_labels": node_labels,
             "graph_labels": graph_labels}
    for suffix, lines in files.items():
        with open(os.path.join(root, f"{NAME}_{suffix}.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def main() -> int:
    from hypograph.cli import main as hypograph

    write_dataset(HERE)
    for name in FLAG_SETS:
        code = hypograph(extract_argv(name, os.path.join(HERE, output_name(name))))
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
