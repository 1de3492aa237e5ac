"""extract against its committed reference outputs in tests/reference.

The layout of every output must match the reference exactly: the CSV
header, the graph and node ids, the labels, the row order, the number of
values per row, and the format of every line: a JSONL line's ids, label
and separators as ``json.dumps`` writes them, and in both formats each
value as its shortest round-trip digits, read as a JSON float
(``conftest.float_text``).  The values must match within RTOL of the
largest value of the reference file.

RTOL is derived from the spread of values seen on one host (2 CPUs,
numpy 2.4.6, scipy 1.17.1, OpenBLAS): across 1, 2 and 3 processes, chunk
budgets of 0, 1, 200, 1000, 2^16 and 2^30 values, and fresh processes
pinned to CPU 0, to CPU 1 and unpinned.  Four of the five flag sets gave
the same bytes in every run.  The NCI flags (R = 128, 4 layers) moved by
up to 1.5e-15 of the largest value whenever the budget split the 20
graphs into more than one chunk: other unions run other BLAS and sparse
shapes.  RTOL is that spread rounded up to 1e-14, times 100 for the BLAS
kernels of other hosts.  A change of meaning (the seed, a flag, a lift
coefficient, the mixing or the pooling) moves values by far more.  A
change that only reorders rounding, such as renumbering a graph's nodes,
stays within RTOL and must regenerate the files on purpose
(tests/reference/make_reference.py).
"""

import json
import os

import numpy as np
import pytest

from conftest import jsonl_head, row_values
from hypograph import cli, lowrank, processes
from hypograph.cli import EXIT_OK, main
from reference import make_reference as ref

RTOL = 1e-12


def layout_and_values(path: str, jsonl: bool):
    """(layout, values) of an extract output: every line with its feature
    values left out, and the (rows, width) array of those values.  Fails
    unless each line is formatted as the writer formats it."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    layout, values = [], []
    if jsonl:
        for line in lines:
            row = json.loads(line)
            del row["features"]
            label = row.pop("label")
            values.append(row_values(line, jsonl_head(row, label), "]}"))
            layout.append((row, label))
    else:
        layout.append(lines[0])
        ids = sum(1 for name in lines[0].split(",") if not name.startswith("f"))
        for line in lines[1:]:
            fields = line.split(",")
            values.append(row_values(line, ",".join(fields[:ids] + [""])))
            layout.append((fields[:ids], len(values[-1])))
    return layout, np.array(values)


@pytest.mark.parametrize("name", list(ref.FLAG_SETS))
@pytest.mark.parametrize("procs", [1, 3])
def test_extract_matches_reference(tmp_path, monkeypatch, name, procs):
    """One process at the default budget, which holds the 20 graphs in
    one chunk, and three processes at a budget of 0, one graph per chunk."""
    monkeypatch.setattr(processes, "usable_cpus", lambda: procs)
    if procs > 1:
        monkeypatch.setattr(lowrank, "CHUNK_ELEMENTS", 0)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    out = tmp_path / ref.output_name(name)
    assert main(ref.extract_argv(name, str(out))) == EXIT_OK
    assert len(forks) == procs - 1
    jsonl = out.suffix == ".jsonl"
    got_layout, got = layout_and_values(str(out), jsonl)
    want_layout, want = layout_and_values(os.path.join(ref.HERE, out.name), jsonl)
    assert got_layout == want_layout
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()
