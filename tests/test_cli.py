import argparse
import ast
import contextlib
import ctypes
import dataclasses
import errno
import functools
import hashlib
import importlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (csv_head, float_text, jsonl_head, random_labelled_graph, row_values,
                      same_bits, write_tu_files)
import hypograph
from hypograph import bench, cli, exact, lowrank, processes, verify
from hypograph.config import FeatureConfig
from hypograph.graphs import LabelledGraph, grid_graph, load_tu_dataset, save_tu_dataset
from hypograph.cli import EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_USAGE, EXIT_WORKER, main
from hypograph.verify import run_equivalence_suite


@pytest.fixture
def tiny_dataset(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_tu_files(
        data_dir,
        "tiny",
        [(1, 2), (2, 1), (3, 4), (4, 3), (4, 5), (5, 4)],
        [1, 1, 2, 2, 2],
        node_labels=[0, 1, 1, 0, 1],
        graph_labels=[1, 0],
    )
    return data_dir


def package_env() -> dict:
    """This environment, with the tested package first on PYTHONPATH, for
    a fresh interpreter."""
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def extract_args(data_dir, out, name="tiny", walk_length=2, **extra):
    args = [
        "extract",
        "--dataset", str(data_dir),
        "--name", name,
        "--walk-length", str(walk_length),
        "--max-degree", "2",
        "--rank", "4",
        "--seed", "11",
        "--out", str(out),
    ]
    for key, value in extra.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            args.append(flag)
        else:
            args.extend([flag, str(value)])
    return args


# the first 16 hex digits of the SHA-256 of each drawn array's
# little-endian float64 bytes, per layer
MODEL_DRAW_SEED_7 = [
    {"vectors": "1b0de5bf8e74b720", "mixing": "4b4191dab227ad3b",
     "w_source": "9f0fa5b834b272e1", "w_target": "9cdfe7b79c9099dc"},
    {"vectors": "d12bc918830e5f1c", "mixing": "481404447b8bc241",
     "w_source": "f767d6c304e56c3f", "w_target": "bfce7896fa4b0cf2"},
]


def test_model_draw_is_pinned():
    # every extract output for a seed follows from these draws, which use
    # only numpy's Generator and no BLAS, so they are the same everywhere
    args = cli.build_parser().parse_args([
        "extract", "--dataset", "d", "--name", "n", "--out", "o",
        "--seed", "7", "--rank", "4", "--layers", "2", "--attention", "--heads", "2",
    ])
    model = cli._build_model(args, 3)
    drawn = [
        {name: hashlib.sha256(np.asarray(a, "<f8").tobytes()).hexdigest()[:16]
         for name, a in [("vectors", layer.vectors), ("mixing", layer.mixing),
                         ("w_source", layer.attention.w_source),
                         ("w_target", layer.attention.w_target)]}
        for layer in model.layers
    ]
    assert drawn == MODEL_DRAW_SEED_7, (
        "init_params or _build_model draws differently for seed 7, which changes "
        "every extract output for a seed; a change in numpy's random streams "
        "would do the same")


def test_every_feature_setting_comes_from_a_flag():
    # a FeatureConfig field that no extract flag sets stays at its default here
    flags = ["--walk-length", "3", "--max-degree", "3", "--rank", "5", "--no-diff",
             "--no-zero-start", "--time-param", "--attention", "--heads", "2"]
    base = ["extract", "--dataset", "d", "--name", "n", "--out", "o"] + flags
    parse = cli.build_parser().parse_args
    model = cli._build_model(parse(base + ["--per-node"]), 3)
    cfg = model.layers[0].config
    unset = [f.name for f in dataclasses.fields(FeatureConfig)
             if getattr(cfg, f.name) == f.default]
    assert unset == []
    assert model.pooling is None
    assert cli._build_model(parse(base), 3).pooling == "mean"


def test_every_src_name_is_reached():
    # a top-level function, class or constant of the package that only tests
    # use belongs in tests/: each must be named in other package code, in
    # perfbench or in hypograph.__all__ (names in the syntax tree, so a
    # docstring or comment that mentions one does not count)
    root = Path(__file__).parents[1]

    def names(tree):
        return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute))}

    def defined(stmt):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [stmt.name]
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            targets = []
        # dunders such as __all__ and __version__ are read by Python and tools
        return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]

    stmts = [(path.stem, stmt) for path in sorted((root / "src" / "hypograph").glob("*.py"))
             for stmt in ast.parse(path.read_text()).body]
    outside = set(hypograph.__all__).union(
        *(names(ast.parse(path.read_text())) for path in (root / "perfbench").glob("*.py")))
    used = [names(stmt) for _, stmt in stmts]
    unreached = [f"{module}.{name}" for i, (module, stmt) in enumerate(stmts)
                 for name in defined(stmt) if name not in outside
                 and not any(name in refs for j, refs in enumerate(used) if j != i)]
    assert unreached == []


class TestExtract:
    def test_one_row_per_graph(self, tiny_dataset, tmp_path):
        out = tmp_path / "features.csv"
        assert main(extract_args(tiny_dataset, out)) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        header, rows = lines[0], lines[1:]
        assert header.split(",")[:2] == ["graph", "label"]
        assert len(header.split(",")) == 2 + 4  # rank columns
        assert len(rows) == 2
        assert rows[0].split(",")[0] == "0" and rows[0].split(",")[1] == "1"

    def test_rerun_is_byte_identical(self, tiny_dataset, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(extract_args(tiny_dataset, out1)) == EXIT_OK
        assert main(extract_args(tiny_dataset, out2)) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_changes_output(self, tiny_dataset, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(extract_args(tiny_dataset, out1))
        main(extract_args(tiny_dataset, out2, seed=12))
        assert out1.read_bytes() != out2.read_bytes()

    def test_per_node_rows(self, tiny_dataset, tmp_path):
        out = tmp_path / "nodes.csv"
        assert main(extract_args(tiny_dataset, out, per_node=True)) == EXIT_OK
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 5  # total node count
        assert rows[0].split(",")[:3] == ["0", "0", "1"]

    def test_jsonl_mirrors_csv_fields(self, tiny_dataset, tmp_path):
        out_csv, out_jsonl = tmp_path / "f.csv", tmp_path / "f.jsonl"
        main(extract_args(tiny_dataset, out_csv))
        main(extract_args(tiny_dataset, out_jsonl, format="jsonl"))
        csv_rows = out_csv.read_text().strip().split("\n")[1:]
        json_lines = out_jsonl.read_text().strip().split("\n")
        assert len(json_lines) == len(csv_rows) == 2
        for csv_row, json_line in zip(csv_rows, json_lines):
            obj = json.loads(json_line)
            parts = csv_row.split(",")
            assert obj["graph"] == int(parts[0])
            assert obj["label"] == int(parts[1])
            features = json_line.split('"features": [')[1].removesuffix("]}")
            assert features.split(",") == parts[2:]
            assert same_bits([float_text(t) for t in parts[2:]], obj["features"])

    @pytest.mark.parametrize("labelled", [True, False])
    @pytest.mark.parametrize("per_node", [False, True])
    def test_row_bytes_match_reference_formatters(self, tmp_path, per_node, labelled):
        write_tu_files(tmp_path, "rows", [(1, 2), (2, 1), (3, 4), (4, 3), (4, 5), (5, 4)],
                       [1, 1, 2, 2, 2], node_labels=[0, 1, 1, 0, 1],
                       graph_labels=[1, 0] if labelled else None)
        extra = {"per_node": True} if per_node else {}
        out_csv, out_jsonl = tmp_path / "f.csv", tmp_path / "f.jsonl"
        assert main(extract_args(tmp_path, out_csv, name="rows", **extra)) == EXIT_OK
        assert main(extract_args(tmp_path, out_jsonl, name="rows", format="jsonl", **extra)) == EXIT_OK
        header, *csv_lines = out_csv.read_text().split("\n")
        json_lines = out_jsonl.read_text().split("\n")
        assert csv_lines.pop() == json_lines.pop() == ""  # every line ends in a newline
        names = ["graph", "node"] if per_node else ["graph"]
        assert header == ",".join(names + ["label", "f0", "f1", "f2", "f3"])
        row_ids = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)] if per_node else [(0,), (1,)]
        assert len(csv_lines) == len(json_lines) == len(row_ids)
        for ids, csv_line, json_line in zip(row_ids, csv_lines, json_lines):
            label = ([1, 0] if labelled else [None, None])[ids[0]]
            head = csv_head(ids, label)
            assert len(row_values(csv_line, head)) == 4
            # the JSONL row holds the CSV row's value texts
            assert json_line == jsonl_head(dict(zip(names, ids)), label) + csv_line[len(head):] + "]}"

    def test_writers_format_awkward_floats(self):
        values = np.array([[3.0, -0.0, 0.1, 1e16, 5e-324, 1.7976931348623157e308, -2.5e-7]])
        # labels as load_tu_dataset gives them: ints, or None for a graph without one
        labels = [7, None, -3]
        for per_node in (False, True):
            # per node: graph 0 has two rows, graphs 1 and 2 one each
            results = [np.vstack([values, values[:, ::-1]]) if per_node else values,
                       values[:, ::-1], values]
            # graph 3 has no rows and writes nothing
            rows = list(zip(range(4), labels + [5], results + [np.empty((0, 7))]))
            csv, jsonl = io.BytesIO(), io.BytesIO()
            csv.write(cli._csv_header(7, per_node).encode())
            cli._write_rows(csv, iter(rows), "csv", per_node)
            cli._write_rows(jsonl, iter(rows), "jsonl", per_node)
            names = ["graph", "node"] if per_node else ["graph"]
            header, *csv_lines = csv.getvalue().decode().split("\n")
            json_lines = jsonl.getvalue().decode().split("\n")
            assert csv_lines.pop() == json_lines.pop() == ""  # every line ends in a newline
            assert header == ",".join(names + ["label"] + [f"f{i}" for i in range(7)])
            want = [([gi, node] if per_node else [gi], label, row)
                    for gi, label, res in rows for node, row in enumerate(res)]
            assert len(csv_lines) == len(json_lines) == len(want)
            for (ids, label, row), csv_line, json_line in zip(want, csv_lines, json_lines):
                assert same_bits(row_values(csv_line, csv_head(ids, label)), row)
                head = jsonl_head(dict(zip(names, ids)), label)
                assert same_bits(row_values(json_line, head, "]}"), row)
            assert '"features": [3.0,-0.0,0.1,' in jsonl.getvalue().decode()

    # finite float64 values: hypothesis's floats, which reach +-0, subnormals
    # and +-max, integral values, and uniform bit patterns
    FINITE = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-(2**60), 2**60).map(float),
        st.integers(0, 2**64 - 1)
        .map(lambda bits: float(np.array([bits], dtype=np.uint64).view(np.float64)[0]))
        .filter(np.isfinite),
    )

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_writers_read_back_every_float_bit_exact(self, data):
        """Random (n, R) blocks, C-contiguous or reversed views, per node or
        pooled: both formats give each block's ids, label and values back,
        bit for bit, and a block of no rows writes nothing."""
        per_node = data.draw(st.booleans())
        width = data.draw(st.integers(1, 5))
        first = data.draw(st.integers(0, 10**6))
        rows = []
        for gi in range(first, first + data.draw(st.integers(1, 4))):
            count = data.draw(st.integers(0, 3 if per_node else 1))
            size = count * width
            flat = data.draw(st.lists(self.FINITE, min_size=size, max_size=size))
            values = np.array(flat, dtype=np.float64).reshape(count, width)
            if data.draw(st.booleans()):
                values = np.ascontiguousarray(values[:, ::-1])[:, ::-1]  # same values, strided
            label = data.draw(st.none() | st.integers(-(10**6), 10**6))
            rows.append((gi, label, values))
        names = ["graph", "node"] if per_node else ["graph"]
        want = [([gi, node] if per_node else [gi], label, row)
                for gi, label, res in rows for node, row in enumerate(res)]
        for fmt in ("csv", "jsonl"):
            fh = io.BytesIO()
            cli._write_rows(fh, iter(rows), fmt, per_node)
            lines = fh.getvalue().decode().split("\n")
            assert lines.pop() == ""  # every line ends in a newline
            assert len(lines) == len(want)
            for line, (ids, label, row) in zip(lines, want):
                if fmt == "csv":
                    assert same_bits(row_values(line, csv_head(ids, label)), row)
                else:
                    head = jsonl_head(dict(zip(names, ids)), label)
                    assert same_bits(row_values(line, head, "]}"), row)
                    assert same_bits(json.loads(line)["features"], row)

    def test_batched_matches_one_graph_per_chunk(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        graphs = [random_labelled_graph(rng, max_nodes=9, max_dim=1) for _ in range(12)]
        graphs.insert(5, grid_graph(6, seed=1))  # 60 edges, 36 nodes: over the budget
        graphs.append(LabelledGraph(1, [], [[0.5]]))
        save_tu_dataset(str(tmp_path), "many", [(g, i % 2) for i, g in enumerate(graphs)])
        budget = 64 * 4
        monkeypatch.setattr(lowrank, "CHUNK_ELEMENTS", budget)
        chunks = cli._chunks(graphs, 4)
        assert len(chunks) > 3 and (5, 6) in chunks
        assert max(stop - start for start, stop in chunks) > 2
        for per_node in (False, True):
            args = dict(name="many", walk_length=3, layers=2, attention=True)
            if per_node:
                args["per_node"] = True
            batched, again, alone = (tmp_path / f"{tag}.csv" for tag in ("b", "r", "a"))
            assert main(extract_args(tmp_path, batched, **args)) == EXIT_OK
            assert main(extract_args(tmp_path, again, **args)) == EXIT_OK
            assert batched.read_bytes() == again.read_bytes()
            # every graph alone, and one entry per block of the start gather
            monkeypatch.setattr(lowrank, "CHUNK_ELEMENTS", 0)
            assert main(extract_args(tmp_path, alone, **args)) == EXIT_OK
            monkeypatch.setattr(lowrank, "CHUNK_ELEMENTS", budget)
            skip = 3 if per_node else 2  # graph, (node,) label
            (got_ids, got), (want_ids, want) = (
                ([ln.split(",")[:skip] for ln in lines],
                 np.array([[float(x) for x in ln.split(",")[skip:]] for ln in lines]))
                for lines in (p.read_text().strip().split("\n")[1:] for p in (batched, alone))
            )
            assert got_ids == want_ids
            rows = sum(g.n for g in graphs) if per_node else len(graphs)
            assert got.shape == want.shape == (rows, 4)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_layer_stacking_and_attention_run(self, tiny_dataset, tmp_path):
        out = tmp_path / "deep.csv"
        rc = main(extract_args(tiny_dataset, out, layers=3, attention=True, heads=2))
        assert rc == EXIT_OK
        assert len(out.read_text().strip().split("\n")) == 3

    def test_missing_out_is_usage_error(self, tiny_dataset):
        rc = main(["extract", "--dataset", str(tiny_dataset), "--name", "tiny"])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("out, code", [
        ("", errno.ENOENT),
        ("nope/x.csv", errno.ENOENT),
        ("file/x.csv", errno.ENOTDIR),
        ("dir", errno.EISDIR),
    ])
    def test_out_that_cannot_be_written_fails_before_loading(
        self, tiny_dataset, tmp_path, monkeypatch, capsys, out, code
    ):
        (tmp_path / "file").write_text("kept")
        (tmp_path / "dir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        loads = []
        monkeypatch.setattr(cli, "load_tu_dataset", lambda *args: loads.append(args))
        out = tmp_path / out if out else out
        assert main(extract_args(tiny_dataset, out)) == EXIT_DATA
        assert loads == []
        assert capsys.readouterr().err == (
            f"hypograph: data error: [Errno {code}] {os.strerror(code)}: '{out}'\n")
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "file").read_text() == "kept"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_out_may_be_a_device_or_a_pipe(self, tiny_dataset, tmp_path):
        assert main(extract_args(tiny_dataset, os.devnull)) == EXIT_OK
        read, write = os.pipe()
        with open(read, "rb") as reader, open(write, "wb") as writer:
            assert main(extract_args(tiny_dataset, f"/proc/self/fd/{writer.fileno()}")) == EXIT_OK
            writer.close()
            rows = reader.read().splitlines()
        assert main(extract_args(tiny_dataset, tmp_path / "o.csv")) == EXIT_OK
        assert rows == (tmp_path / "o.csv").read_bytes().splitlines()

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_out_may_be_stdout(self, tiny_dataset, tmp_path):
        """--out /dev/stdout writes the header and rows alone to stdout; the
        status line goes to stderr."""
        argv = [str(a) for a in extract_args(tiny_dataset, "/dev/stdout")]
        proc = subprocess.run([sys.executable, "-m", "hypograph.cli", *argv],
                              env=package_env(), capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"wrote 2 rows to /dev/stdout\n")
        assert main(extract_args(tiny_dataset, tmp_path / "o.csv")) == EXIT_OK
        assert proc.stdout == (tmp_path / "o.csv").read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/stderr"), reason="no /dev/stderr")
    def test_out_may_be_stderr(self, tiny_dataset, tmp_path):
        """--out /dev/stderr writes the header and rows alone to the file
        stderr goes to: the status line, which would follow them, is left
        out."""
        argv = [str(a) for a in extract_args(tiny_dataset, "/dev/stderr")]
        err = tmp_path / "err"
        with open(err, "wb") as fh:
            proc = subprocess.run([sys.executable, "-m", "hypograph.cli", *argv],
                                  env=package_env(), stdout=subprocess.PIPE, stderr=fh,
                                  timeout=120)
        assert (proc.returncode, proc.stdout) == (EXIT_OK, b"")
        assert main(extract_args(tiny_dataset, tmp_path / "o.csv")) == EXIT_OK
        assert err.read_bytes() == (tmp_path / "o.csv").read_bytes()

    def test_unreadable_dataset_is_data_error(self, tmp_path):
        rc = main(
            extract_args(tmp_path / "nope", tmp_path / "out.csv")
        )
        assert rc == EXIT_DATA

    def test_invalid_degree_is_usage_error(self, tiny_dataset, tmp_path):
        rc = main(extract_args(tiny_dataset, tmp_path / "x.csv", max_degree=0))
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("per_node", [False, True])
    def test_overflow_is_data_error_naming_graph_and_layer(self, tmp_path, capsys, per_node):
        # the overflowing graph sits in the middle of one chunk
        write_tu_files(tmp_path, "huge", [(1, 2), (2, 1), (3, 4), (4, 3), (5, 6), (6, 5)],
                       [1, 1, 2, 2, 3, 3],
                       node_attributes=[[0.0], [1.0], [1e300], [-1e300], [2.0], [3.0]])
        graphs = [g for g, _ in load_tu_dataset(str(tmp_path), "huge")]
        assert cli._chunks(graphs, 8) == [(0, 3)]
        args = ["extract", "--dataset", str(tmp_path), "--name", "huge",
                "--walk-length", "3", "--max-degree", "2", "--out", str(tmp_path / "o.csv")]
        rc = main(args + (["--per-node"] if per_node else []))
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "graph row 1, layer 1: non-finite value at walk step" in err
        assert ", degree " in err

    @pytest.mark.parametrize("procs", [1, 2])
    def test_attention_overflow_is_one_line_naming_graph_and_layer(
        self, tmp_path, capsys, monkeypatch, procs
    ):
        # the second graph's attention scores overflow; with 2 processes it
        # is computed in the child
        write_tu_files(tmp_path, "ov", [(1, 2), (2, 1), (3, 4), (4, 3), (4, 5), (5, 4)],
                       [1, 1, 2, 2, 2],
                       node_attributes=[[0.5], [1.0], [1.7e308], [-1.7e308], [1.7e308]])
        monkeypatch.setattr(lowrank, "CHUNK_ELEMENTS", 0)
        monkeypatch.setattr(processes, "usable_cpus", lambda: procs)
        out = tmp_path / "o.csv"
        args = ["extract", "--dataset", str(tmp_path), "--name", "ov", "--rank", "4",
                "--attention", "--heads", "2", "--out", str(out)]
        assert main(args) == EXIT_DATA
        assert_no_child_left()
        assert capsys.readouterr().err == (
            "hypograph: data error: graph row 1, layer 1: "
            "non-finite value in the attention transition\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("value, per_node, fmt, where", [
        ("3e307", False, "csv", "non-finite value after mean pooling"),
        ("3e307", False, "jsonl", "non-finite value after mean pooling"),
        ("5e307", False, "csv", "layer 1: non-finite value after mixing"),
        ("5e307", True, "csv", "layer 1: non-finite value after mixing"),
        ("5e307", True, "jsonl", "layer 1: non-finite value after mixing"),
    ])
    def test_output_overflow_is_data_error_and_writes_nothing(
        self, tmp_path, capsys, value, per_node, fmt, where
    ):
        # finite through the recursion; the mixed rows (5e307) or the
        # pooled mean (3e307) overflow
        write_tu_files(tmp_path, "big", [(1, 2), (2, 1), (2, 3), (3, 2)], [1, 1, 1],
                       node_attributes=[[value]] * 3)
        out = tmp_path / f"o.{fmt}"
        args = ["extract", "--dataset", str(tmp_path), "--name", "big", "--walk-length", "1",
                "--max-degree", "1", "--rank", "8", "--no-diff", "--format", fmt,
                "--out", str(out)]
        assert main(args + (["--per-node"] if per_node else [])) == EXIT_DATA
        assert f"hypograph: data error: graph row 0, {where}" in capsys.readouterr().err
        assert not out.exists()


REAL_FORK = os.fork


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raiser(error, *args):
    """A function that raises a new error(*args) at each call."""
    def fail():
        raise error(*args)
    return fail


class TwoArgumentError(Exception):
    """Pickles, but does not unpickle: its args hold one of two arguments."""

    def __init__(self, first, second):
        super().__init__(first)


def blas_thread_getters():
    """The thread-count getter of each OpenBLAS library that exports one of
    processes._BLAS_SETTERS, looked up as processes._blas_thread_controls looks
    up the setters: extract itself reads no count."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line})
    names = [name.replace("_set_", "_get_") for name in processes._BLAS_SETTERS]
    getters = (processes._c_function(path, names, ctypes.c_int, ()) for path in paths)
    return [get for get in getters if get is not None]


@pytest.fixture
def blas_at_two():
    """Runs with every loaded OpenBLAS at 2 threads: returns (counts,
    two), where counts() reads each library's thread count here and two()
    sets every count to 2 again.  The caller's counts come back after."""
    setters = processes._blas_thread_controls()
    if not setters:
        pytest.skip("no OpenBLAS thread-count setter is loaded, so BLAS "
                    "threads cannot be counted")
    getters = blas_thread_getters()
    assert len(getters) == len(setters)

    def counts():
        return [get() for get in getters]

    def two():
        for set_threads in setters:
            set_threads(2)

    caller = counts()
    two()
    try:
        yield counts, two
    finally:
        for set_threads, count in zip(setters, caller):
            set_threads(count)


def process_state(pid):
    """The state letter of process pid ("Z" for a zombie), or None once it
    is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


class TestProcesses:
    """extract splits its chunks into one contiguous share per usable CPU;
    every share but the first runs in a forked child."""

    RANK = 4
    BUDGET = 48 * 4  # CHUNK_ELEMENTS giving 11 chunks of one to three graphs

    @pytest.fixture
    def many(self, tmp_path, monkeypatch):
        """(write, graphs) for a 30-graph dataset that splits into many
        chunks under BUDGET: write(overflow, value) saves it and returns its
        directory, giving node i of the graph rows in `overflow` the
        attribute value(i), by default +-1e300, which overflow the first
        layer's walk steps."""
        monkeypatch.setattr(lowrank, "CHUNK_ELEMENTS", self.BUDGET)
        rng = np.random.default_rng(8)
        graphs = [random_labelled_graph(rng, max_nodes=7, max_dim=1) for _ in range(30)]

        def write(overflow=(), value=lambda i: (-1.0) ** i * 1e300):
            dataset = []
            for row, g in enumerate(graphs):
                if row in overflow:
                    g = g.with_attributes([[value(i)] for i in range(g.n)])
                dataset.append((g, row % 3))
            save_tu_dataset(str(tmp_path), "many", dataset)
            return tmp_path

        return write, graphs

    def run(self, monkeypatch, data_dir, out, procs, **extra):
        monkeypatch.setattr(processes, "usable_cpus", lambda: procs)
        forks = []

        def counted_fork():
            forks.append(1)
            return REAL_FORK()

        monkeypatch.setattr(os, "fork", counted_fork)
        try:
            code = main(extract_args(data_dir, out, name="many", **{"walk_length": 3, **extra}))
        finally:
            assert_no_child_left()
        return code, len(forks)

    def test_shares_are_contiguous_balanced_and_cover_every_chunk(self, many, monkeypatch):
        _, graphs = many
        chunks = cli._chunks(graphs, self.RANK)
        assert len(chunks) >= 10
        costs = {c: sum(2 * g.num_edges + g.n for g in graphs[c[0]:c[1]]) for c in chunks}
        for parts in range(1, len(chunks) + 1):
            shares = cli._shares(graphs, chunks, parts)
            assert len(shares) == parts and all(shares)
            assert [c for share in shares for c in share] == chunks
            for share in shares:
                cost = sum(costs[c] for c in share)
                assert cost <= sum(costs.values()) / parts + max(costs.values())
        # one chunk dominating the cost still leaves every share a chunk
        heavy = [grid_graph(6, seed=1)] + graphs[:3]
        monkeypatch.setattr(lowrank, "CHUNK_ELEMENTS", 0)
        shares = cli._shares(heavy, cli._chunks(heavy, self.RANK), 4)
        assert shares == [[(0, 1)], [(1, 2)], [(2, 3)], [(3, 4)]]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("per_node", [False, True])
    def test_output_bytes_do_not_depend_on_process_count(
        self, many, monkeypatch, tmp_path, fmt, per_node
    ):
        write, graphs = many
        data_dir = write()
        extra = {"format": fmt, "layers": 2, "attention": True}
        if per_node:
            extra["per_node"] = True
        outputs = []
        for procs in (1, 2, 3):
            out = tmp_path / f"p{procs}.{fmt}"
            assert self.run(monkeypatch, data_dir, out, procs, **extra) == (EXIT_OK, procs - 1)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        rows = sum(g.n for g in graphs) if per_node else len(graphs)
        assert outputs[0].count(b"\n") == rows + (fmt == "csv")

    def outputs_with_and_without(self, many, monkeypatch, tmp_path, name, off, on):
        """The bytes of 1- and 3-process runs with processes.<name> replaced by
        off, which leaves one part of processes.set_up_process out, and then
        by on, which keeps it."""
        write, _ = many
        data_dir = write()
        outputs = []
        for rule in (off, on):
            monkeypatch.setattr(processes, name, rule)
            for procs in (1, 3):
                out = tmp_path / f"p{procs}.csv"
                assert self.run(monkeypatch, data_dir, out, procs) == (EXIT_OK, procs - 1)
                outputs.append(out.read_bytes())
        return outputs

    def test_heap_rule_leaves_bytes_unchanged(self, many, monkeypatch, tmp_path):
        """set_up_process writes the same bytes with and without mallopt."""
        real, calls = processes._c_function, []

        def lookup(keep):
            def c_function(path, names, *types):
                if names == ("mallopt",):
                    calls.append(keep)
                    if not keep:
                        return None
                return real(path, names, *types)
            return c_function

        outputs = self.outputs_with_and_without(
            many, monkeypatch, tmp_path, "_c_function", lookup(False), lookup(True))
        assert calls == [False, False, True, True]
        assert len(set(outputs)) == 1

    def test_blas_rule_leaves_bytes_unchanged(self, many, monkeypatch, tmp_path, blas_threads):
        """set_up_process writes the same bytes with and without setting
        BLAS to one thread, and each share computes on one thread with it."""
        counts, log = blas_threads
        real, calls = processes._blas_thread_controls, []

        def counted():
            calls.append(1)
            return real()

        outputs = self.outputs_with_and_without(
            many, monkeypatch, tmp_path, "_blas_thread_controls", lambda: [], counted)
        assert len(calls) == 2
        assert len(set(outputs)) == 1
        # four shares computed on two threads without the rule, four on one with it
        two, one = (str([n] * len(counts())) for n in (2, 1))
        assert log() == [two] * 4 + [one] * 4

    @pytest.fixture
    def blas_threads(self, monkeypatch, tmp_path, blas_at_two):
        """Runs with every loaded OpenBLAS at 2 threads: returns (counts,
        log), where counts() reads each library's thread count here and
        log() the counts each share was computed under, in any process."""
        counts, _ = blas_at_two
        log = tmp_path / "blas.log"
        real = cli._share_rows

        def share_rows(*args):
            with open(log, "a") as fh:
                fh.write(f"{counts()}\n")
            return real(*args)

        monkeypatch.setattr(cli, "_share_rows", share_rows)
        return counts, lambda: log.read_text().splitlines()

    @pytest.mark.parametrize("overflow", [False, True])
    def test_forked_shares_run_on_one_blas_thread(
        self, many, monkeypatch, tmp_path, blas_threads, overflow
    ):
        """Every share of a 3-process run computes on one BLAS thread, and
        BLAS stays at one thread when main returns, also after a failure."""
        counts, log = blas_threads
        write, graphs = many
        shares = cli._shares(graphs, cli._chunks(graphs, self.RANK), 3)
        data_dir = write(overflow=(shares[1][0][0],) if overflow else ())
        code = self.run(monkeypatch, data_dir, tmp_path / "o.csv", 3)
        assert code == (EXIT_DATA if overflow else EXIT_OK, 2)
        ones = str([1] * len(counts()))
        assert log() == [ones] * (4 if overflow else 3)  # the parent reruns share 1
        assert str(counts()) == ones

    def test_output_is_written_whole_or_not_at_all(self, many, monkeypatch, tmp_path, capsys):
        """A write that fails after the first share has been copied leaves
        no output and no other file behind; through a symbolic link it
        empties the file the link names and keeps the link."""
        write, _ = many
        data_dir = write()
        out = tmp_path / "out" / "o.csv"
        out.parent.mkdir()
        real, copies = shutil.copyfileobj, []

        def copy(src, dst):
            copies.append(1)
            if len(copies) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            real(src, dst)

        monkeypatch.setattr(shutil, "copyfileobj", copy)
        full = "hypograph: data error: [Errno 28] No space left on device\n"
        assert self.run(monkeypatch, data_dir, out, 3) == (EXIT_DATA, 2)
        assert capsys.readouterr().err == full
        assert list(out.parent.iterdir()) == []
        link, target = out.parent / "link.csv", out.parent / "target.csv"
        target.write_text("earlier output\n")
        link.symlink_to(target.name)
        copies.clear()
        assert self.run(monkeypatch, data_dir, link, 3) == (EXIT_DATA, 2)
        assert capsys.readouterr().err == full
        assert sorted(out.parent.iterdir()) == [link, target]
        assert link.is_symlink() and target.read_bytes() == b""

    AWKWARD = [3.0, -0.0, 0.1, 1e16, 5e-324, 1.7976931348623157e308, -2.5e-7]

    @pytest.mark.parametrize("labels", [None, [2, -1, 0, -3]])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("per_node", [False, True])
    def test_extract_bytes_match_reference_formatters(
        self, monkeypatch, tmp_path, fmt, per_node, labels
    ):
        """The rows extract writes, with awkward floats in every shape: a
        one-node graph, node ids above 9, a negative or missing label, one
        process or three."""
        sizes = [12, 1, 3, 2]
        starts = np.cumsum([0] + sizes)
        edges = [(a + 1, a + 2) for s, n in zip(starts, sizes) for a in range(s, s + n - 1)]
        indicator = np.repeat(np.arange(1, len(sizes) + 1), sizes).tolist()
        # each node's only attribute is its row in the file, and the model
        # below turns row k into AWKWARD rotated by k
        write_tu_files(tmp_path, "many", edges, indicator,
                       node_attributes=[[k] for k in range(sum(sizes))], graph_labels=labels)

        def awkward(union, model, offsets):
            k = union.attributes[:, 0].astype(int)
            x = np.array(self.AWKWARD)[(k[:, None] + np.arange(self.RANK)) % len(self.AWKWARD)]
            return x if model.pooling is None else x[offsets[:-1]]

        monkeypatch.setattr(cli, "model_forward", awkward)
        monkeypatch.setattr(lowrank, "CHUNK_ELEMENTS", 0)  # one chunk per graph
        names = ["graph", "node"] if per_node else ["graph"]
        header = "graph,node,label,f0,f1,f2,f3" if per_node else "graph,label,f0,f1,f2,f3"
        want = []  # (head, tail, values) per row
        for gi, (start, n) in enumerate(zip(starts, sizes)):
            label = None if labels is None else labels[gi]
            for node in range(n if per_node else 1):
                values = [self.AWKWARD[(start + node + c) % 7] for c in range(self.RANK)]
                ids = [gi, node] if per_node else [gi]
                want.append((csv_head(ids, label), "", values) if fmt == "csv"
                            else (jsonl_head(dict(zip(names, ids)), label), "]}", values))
        for procs in (1, 3):
            out = tmp_path / f"p{procs}.{fmt}"
            extra = {"format": fmt, "per_node": True} if per_node else {"format": fmt}
            assert self.run(monkeypatch, tmp_path, out, procs, **extra) == (EXIT_OK, procs - 1)
            lines = out.read_text().split("\n")
            assert lines.pop() == ""  # every line ends in a newline
            if fmt == "csv":
                assert lines.pop(0) == header
            assert len(lines) == len(want)
            for line, (head, tail, values) in zip(lines, want):
                assert same_bits(row_values(line, head, tail), values)

    # run by a fresh interpreter: main(argv[2:]) on two shares, one graph
    # each, whose forked child writes its pid to argv[1] and then sleeps
    SLOW_CHILD = textwrap.dedent("""
        import os, sys, time
        from hypograph import cli, lowrank, processes
        real, parent = cli._share_rows, os.getpid()
        def share_rows(*args):
            if os.getpid() != parent:
                with open(sys.argv[1] + ".part", "w") as fh:
                    fh.write(str(os.getpid()))
                os.rename(sys.argv[1] + ".part", sys.argv[1])
                time.sleep(60)
            return real(*args)
        cli._share_rows, processes.usable_cpus, lowrank.CHUNK_ELEMENTS = share_rows, lambda: 2, 0
        sys.exit(cli.main(sys.argv[2:]))
    """)

    @pytest.mark.skipif(sys.platform != "linux", reason="the parent-death signal is Linux's prctl")
    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=lambda sig: sig.name)
    def test_child_dies_with_its_parent(self, tiny_dataset, tmp_path, sig):
        """A parent ended by a signal runs no finally block, yet its forked
        child is gone, or a zombie, within 2 s."""
        pid_file = tmp_path / "child.pid"
        argv = [str(a) for a in extract_args(tiny_dataset, tmp_path / "o.csv")]
        proc = subprocess.Popen([sys.executable, "-c", self.SLOW_CHILD, str(pid_file), *argv],
                                env=package_env())
        child = None
        try:
            deadline = time.monotonic() + 60
            while not pid_file.exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            child = int(pid_file.read_text())
            proc.send_signal(sig)
            assert proc.wait(timeout=10) == -sig
            deadline = time.monotonic() + 2
            while process_state(child) not in (None, "Z"):
                assert time.monotonic() < deadline, f"child {child} outlived its parent"
                time.sleep(0.01)
            assert not (tmp_path / "o.csv").exists()
        finally:
            proc.kill()
            proc.wait()
            if child is not None and process_state(child) not in (None, "Z"):
                os.kill(child, signal.SIGKILL)

    def test_one_chunk_never_forks(self, tiny_dataset, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked for a one-chunk dataset")

        monkeypatch.setattr(processes, "usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / "one.csv"
        assert main(extract_args(tiny_dataset, out)) == EXIT_OK
        assert len(out.read_text().splitlines()) == 3

    def test_no_fork_while_another_thread_runs(self):
        assert processes.usable_cpus() == len(os.sched_getaffinity(0))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert processes.usable_cpus() == 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize("procs", [2, 3])
    def test_lowest_overflowing_share_is_reported(self, many, monkeypatch, tmp_path, capsys, procs):
        write, graphs = many
        shares = cli._shares(graphs, cli._chunks(graphs, self.RANK), procs)
        # the first graph of each of the last two shares overflows: with 3
        # processes both are children's, with 2 the parent's and a child's
        first, second = (share[0][0] for share in shares[-2:])
        data_dir = write(overflow=(first, second))
        out = tmp_path / "o.csv"
        assert self.run(monkeypatch, data_dir, out, 1) == (EXIT_DATA, 0)
        alone = capsys.readouterr().err
        assert alone.startswith(f"hypograph: data error: graph row {first}, layer 1: ")
        assert self.run(monkeypatch, data_dir, out, procs) == (EXIT_DATA, procs - 1)
        assert capsys.readouterr().err == alone
        assert not out.exists()

    def test_overflow_in_child_share_only(self, many, monkeypatch, tmp_path, capsys):
        write, graphs = many
        last = cli._shares(graphs, cli._chunks(graphs, self.RANK), 2)[1]
        data_dir = write(overflow=(last[-1][0],))
        out = tmp_path / "o.jsonl"
        code = self.run(monkeypatch, data_dir, out, 2, format="jsonl", per_node=True)
        assert code == (EXIT_DATA, 1)
        err = capsys.readouterr().err
        assert err.startswith(f"hypograph: data error: graph row {last[-1][0]}, layer 1: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("death, why", [
        ("signal", "killed by signal 9"),
        ("raise", "RuntimeError: not a NonFiniteError"),
    ])
    def test_failed_child_exits_nonzero_naming_its_rows(
        self, many, monkeypatch, tmp_path, capsys, death, why
    ):
        """A child killed by a signal exits 4 naming its graph rows and its
        peak RSS; one that raises fails as one process does."""
        write, graphs = many
        data_dir = write()
        shares = cli._shares(graphs, cli._chunks(graphs, self.RANK), 3)
        real = cli._share_rows

        def share_rows(dataset, graphs, share, *rest):
            # the process computing share 1's chunks fails before its first row
            if shares[1][0] in share:
                if death == "signal":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("not a NonFiniteError")
            return real(dataset, graphs, share, *rest)

        monkeypatch.setattr(cli, "_share_rows", share_rows)
        out = tmp_path / "o.csv"
        if death == "raise":
            for procs in (1, 3):
                with pytest.raises(RuntimeError) as info:
                    self.run(monkeypatch, data_dir, out, procs)
                assert f"{type(info.value).__name__}: {info.value}" == why
            assert capsys.readouterr().err == ""
        else:
            assert self.run(monkeypatch, data_dir, out, 3) == (EXIT_WORKER, 2)
            rows = f"{shares[1][0][0]}-{shares[1][-1][1] - 1}"
            assert re.fullmatch(
                rf"hypograph: graph rows {rows}: extract process failed: {why}, "
                r"peak RSS \d+\.\d MB\n", capsys.readouterr().err)
        assert not out.exists()

    def test_child_only_failure_does_not_fail_the_run(self, many, monkeypatch, tmp_path, capsys):
        """A share that fails in its child but not when the parent runs it
        again writes the bytes of a one-process run."""
        write, graphs = many
        data_dir = write()
        parent = os.getpid()
        real = cli.model_forward

        def model_forward(union, model, offsets):
            if os.getpid() != parent:
                np.empty((1 << 45, 16))  # MemoryError, in a child only
            return real(union, model, offsets)

        monkeypatch.setattr(cli, "model_forward", model_forward)
        outputs = []
        for procs in (1, 3):
            out = tmp_path / f"p{procs}.csv"
            assert self.run(monkeypatch, data_dir, out, procs) == (EXIT_OK, procs - 1)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert capsys.readouterr().err == "".join(
            f"wrote {len(graphs)} rows to {tmp_path / f'p{procs}.csv'}\n" for procs in (1, 3))

    MARK = 0.5  # the attribute of the graph whose chunk raises

    @pytest.mark.parametrize("value, extra, fail, end", [
        pytest.param(
            lambda i: (-1.0) ** i * 1e300, {}, None,
            (EXIT_DATA, "hypograph: data error: graph row {row}, layer 1: "
                        "non-finite value at walk step 3, degree 2\n"),
            id="walk-step"),
        pytest.param(
            lambda i: (-1.0) ** i * 1.7e308, {"attention": True, "heads": 2}, None,
            (EXIT_DATA, "hypograph: data error: graph row {row}, layer 1: "
                        "non-finite value in the attention transition\n"),
            id="attention"),
        pytest.param(
            lambda i: 1e308,
            {"walk_length": 1, "max_degree": 1, "no_diff": True, "no_zero_start": True,
             "per_node": True, "seed": 1}, None,
            (EXIT_DATA, "hypograph: data error: graph row {row}, layer 1: "
                        "non-finite value after mixing\n"),
            id="mixing"),
        pytest.param(
            lambda i: 5e307, {"walk_length": 1, "max_degree": 1, "no_diff": True}, None,
            (EXIT_DATA, "hypograph: data error: graph row {row}, "
                        "non-finite value after mean pooling\n"),
            id="pooling"),
        pytest.param(
            lambda i: TestProcesses.MARK, {}, functools.partial(np.empty, (1 << 45, 16)),
            (EXIT_DATA, "hypograph: out of memory: Unable to allocate "),
            id="MemoryError"),
        pytest.param(
            lambda i: TestProcesses.MARK, {}, raiser(OSError, errno.ENOSPC, "No space left on device"),
            (EXIT_DATA, "hypograph: data error: [Errno 28] No space left on device\n"),
            id="OSError"),
        pytest.param(
            lambda i: TestProcesses.MARK, {}, raiser(RuntimeError, "not a data error"),
            (RuntimeError, "not a data error"),
            id="RuntimeError"),
        pytest.param(
            lambda i: TestProcesses.MARK, {}, raiser(RuntimeError, lambda: None),
            (RuntimeError, "<function "),  # a lambda does not pickle
            id="unpicklable"),
        pytest.param(
            lambda i: TestProcesses.MARK, {}, raiser(TwoArgumentError, "one", "two"),
            (TwoArgumentError, "one"),
            id="unloadable"),
    ])
    def test_share_failure_does_not_depend_on_process_count(
        self, many, monkeypatch, tmp_path, capsys, value, extra, fail, end
    ):
        """A failure while computing a chunk of share 1 of 3 ends the run as
        it does in one process: the same exit code and stderr line, or the
        same exception raised from the same frames."""
        write, graphs = many
        shares = cli._shares(graphs, cli._chunks(graphs, self.RANK), 3)
        row = shares[1][0][0]
        data_dir = write(overflow=(row,), value=value)
        if fail is not None:
            real = cli.model_forward

            def model_forward(union, model, offsets):
                if self.MARK in union.attributes:  # the chunk holding graph row
                    fail()
                return real(union, model, offsets)

            monkeypatch.setattr(cli, "model_forward", model_forward)
        out = tmp_path / "o.csv"
        ends = []
        for procs in (1, 3):
            if isinstance(end[0], type):  # the exception leaves main
                with pytest.raises(end[0]) as info:
                    self.run(monkeypatch, data_dir, out, procs, **extra)
                frames = [f.name for f in traceback.extract_tb(info.value.__traceback__)]
                assert frames[-1] == "fail"  # the raising function
                ends.append((type(info.value), str(info.value), frames))
            else:
                code, forks = self.run(monkeypatch, data_dir, out, procs, **extra)
                assert forks == procs - 1
                ends.append((code, capsys.readouterr().err))
            assert not out.exists()
        assert ends[0] == ends[1]
        assert ends[0][0] == end[0] and ends[0][1].startswith(end[1].format(row=row))


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("library", [lambda name: object(), _no_c_library])
def test_heap_rule_without_mallopt_does_nothing(monkeypatch, library):
    """No C library, or none exporting mallopt: the lookup finds nothing,
    and the process setup calls nothing."""
    monkeypatch.setattr(ctypes, "CDLL", library)
    assert processes._c_function(None, ("mallopt",), ctypes.c_int, ()) is None
    assert processes.set_up_process() is None


@pytest.mark.parametrize("library", [lambda name: object(), _no_c_library])
def test_death_signal_without_prctl_does_nothing(monkeypatch, library):
    """No prctl to ask for the signal: the child goes on, even with a
    parent pid that is not the forking process's."""
    monkeypatch.setattr(ctypes, "CDLL", library)
    assert processes._c_function(None, ("prctl",), ctypes.c_int, ()) is None
    assert processes._die_with_parent(os.getppid()) is None


@pytest.mark.parametrize("where, stub", [
    ("open", raiser(FileNotFoundError, errno.ENOENT, "No such file or directory")),
    ("CDLL", lambda name: object()),
    ("CDLL", _no_c_library),
])
def test_blas_rule_without_openblas_setter_does_nothing(monkeypatch, where, stub):
    """No memory map to read, or no library exporting a setter: no BLAS
    thread count is found, and the process setup sets nothing."""
    if where == "open":
        monkeypatch.setattr(processes, "open", lambda *args: stub(), raising=False)
    else:
        monkeypatch.setattr(ctypes, "CDLL", stub)
    assert processes._blas_thread_controls() == []
    assert processes.set_up_process() is None


def test_process_code_lives_in_processes_only():
    """processes holds the code that sets up and supervises extract's
    processes; lowrank and cli hold none of it, under its old names or its
    new ones, and bind nothing from ctypes."""
    moved = {"WorkerError", "usable_cpus", "_BLAS_SETTERS", "_c_function",
             "_blas_thread_controls", "set_up_process", "_die_with_parent", "run_shares"}
    assert moved <= set(vars(processes))
    for module in (lowrank, cli):
        assert not set(vars(module)) & (moved | {"_usable_cpus", "_run_shares"})
        bound = [name for name, value in vars(module).items()
                 if value is ctypes or getattr(value, "__module__", None) == "ctypes"]
        assert bound == []


class TestCheck:
    def test_default_run_passes(self, capsys):
        rc = main(["check", "--cases", "24", "--seed", "3"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "max_rel_err" in out and "transition=" in out
        assert "(nodes 2..8, walks 0..4, degrees 1..3, rank 4)" in out.splitlines()[-1]

    def test_suite_stays_within_oracle_guard(self):
        # the suite calls no guard up front: its own bounds keep the oracle in range
        assert verify.MAX_NODES <= exact.MAX_ORACLE_NODES
        assert verify.MAX_DEGREE <= exact.MAX_ORACLE_DEGREE

    def test_sign_flip_fault_detected(self, monkeypatch):
        real = lowrank._edge_attr_inputs

        def flipped(g, cfg):
            return -real(g, cfg)

        monkeypatch.setattr(lowrank, "_edge_attr_inputs", flipped)
        rc = main(["check", "--cases", "24", "--seed", "3"])
        assert rc == EXIT_CHECK

    def test_operand_swap_fault_detected(self, monkeypatch):
        # the graded product is non-commutative from degree 2 on, so an
        # oracle multiplying in the wrong order must fail the gate
        real = exact.algebra_mul
        monkeypatch.setattr(exact, "algebra_mul", lambda v, w: real(w, v))
        rc = main(["check", "--cases", "24", "--seed", "3"])
        assert rc == EXIT_CHECK

    @pytest.mark.parametrize("fault", ["zero_constant", "zero_last_chain"])
    def test_degree_three_fault_detected(self, monkeypatch, fault):
        # both faults touch only degrees >= 3, which a suite drawing degrees
        # up to 2 never runs
        real = lowrank._step_terms

        def faulty(*args):
            terms = real(*args)
            for m, (chains, const) in enumerate(terms[2:], start=3):
                if fault == "zero_constant":
                    const = np.zeros_like(const)
                else:
                    chains = chains[:-1] + [np.zeros_like(chains[-1])]
                terms[m - 1] = (chains, const)
            return terms

        monkeypatch.setattr(lowrank, "_step_terms", faulty)
        rc = main(["check", "--cases", "24", "--seed", "3"])
        assert rc == EXIT_CHECK

    def test_all_buckets_covered(self):
        report = run_equivalence_suite(cases=24, seed=5)
        assert len(report.buckets) == 24  # 3 transitions x 8 flag combos
        assert report.passed


class TestBench:
    def test_small_ladder_table(self, capsys):
        rc = main(
            ["bench", "--min-exp", "5", "--max-exp", "7", "--repeats", "1",
             "--walk-length", "2", "--rank", "2"]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "ns/edge" in out
        assert out.count("\n") >= 4

    def test_zero_walk_length_reported(self, capsys):
        rc = main(
            ["bench", "--min-exp", "5", "--max-exp", "6", "--repeats", "1",
             "--walk-length", "0", "--rank", "2"]
        )
        assert rc == EXIT_OK
        assert "degree" in capsys.readouterr().out

    def test_grid_topology(self, capsys):
        rc = main(
            ["bench", "--min-exp", "6", "--max-exp", "7", "--repeats", "1",
             "--walk-length", "2", "--rank", "2", "--topology", "grid"]
        )
        assert rc == EXIT_OK
        assert "ns/edge" in capsys.readouterr().out

    def test_growth_above_the_bound_is_noted(self, capsys, monkeypatch):
        ratio = bench.LINEAR_RATIO_BOUND + 0.5
        rows = [bench.BenchRow(32, 1e-5, 312.5, None), bench.BenchRow(64, 3e-5, 468.8, ratio)]
        monkeypatch.setattr(bench, "edge_scaling", lambda *args: rows)
        rc = main(["bench", "--min-exp", "5", "--max-exp", "6", "--repeats", "1",
                   "--walk-length", "1", "--rank", "1"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith("  ")  # the first row has no ratio, so no note
        assert lines[2].endswith(
            f"{ratio:7.2f}  non-linear growth (> {bench.LINEAR_RATIO_BOUND}x per doubling)"
        )

    def test_grid_ladder_that_does_not_grow_is_rejected(self, capsys):
        # exponents 0..3 all give the 2 x 2 grid with 4 edges
        rc = main(["bench", "--min-exp", "0", "--max-exp", "1", "--topology", "grid"])
        assert rc == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "hypograph: usage error: argument --min-exp: grid rungs for exponents 0..1 "
            "have 4, 4 edges, which do not strictly grow\n"
        )

    def test_allocation_failure_is_one_line(self, capsys):
        # 2^45 path edges need 256 TiB, more than a process can address,
        # so the first array of the rung fails at once and allocates nothing
        rc = main(["bench", "--min-exp", "45", "--max-exp", "45"])
        assert rc == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(
            r"hypograph: out of memory: Unable to allocate 256\. TiB for an array [^\n]*\n", err
        )

    def test_grid_rungs_strictly_grow(self):
        edges = bench.ladder_edges(3, 12, "grid")
        assert all(b > a for a, b in zip(edges, edges[1:]))
        rows = bench.edge_scaling(
            FeatureConfig(walk_length=1, rank=1), 3, 6, repeats=1, topology="grid"
        )
        assert [row.edges for row in rows] == edges[:4] == [4, 12, 24, 60]

    def test_ratio_is_per_doubling(self, monkeypatch):
        # time proportional to edges grows 2x per doubling, whatever the rung
        # spacing; on the path ladder the ratio is plain t / t_prev
        monkeypatch.setattr(bench, "_timer", lambda g, cfg: lambda: 1e-9 * g.num_edges)
        grid = bench.edge_scaling(FeatureConfig(), 3, 8, topology="grid")
        assert [row.ratio for row in grid[1:]] == pytest.approx([2.0] * 5, rel=1e-12)
        monkeypatch.setattr(bench, "_timer", lambda g, cfg: lambda: 1e-9 * g.num_edges**1.5)
        path = bench.edge_scaling(FeatureConfig(), 3, 6, topology="path")
        assert [row.ratio for row in path[1:]] == [
            b.seconds / a.seconds for a, b in zip(path, path[1:])
        ]

    def test_rungs_are_timed_in_interleaved_rounds(self, monkeypatch):
        # each round times every rung once, smallest first, so a burst of
        # host load slows one round of every rung rather than one rung
        log = []

        def timer(g, cfg):
            def run():
                log.append(g.num_edges)
                return 1e-9 * g.num_edges
            return run

        monkeypatch.setattr(bench, "_timer", timer)
        rows = bench.edge_scaling(FeatureConfig(), 3, 5, repeats=3)
        assert log == [row.edges for row in rows] * 3

    def test_harness_keeps_the_heap_before_it_runs_the_engine(self, monkeypatch, blas_at_two):
        # bench, criterion 6 and any library caller time the engine in a
        # process set up as extract's: the heap kept, BLAS on one thread
        counts, two = blas_at_two
        calls, setup, real = [], processes.set_up_process, lowrank.batch_features
        monkeypatch.setattr(processes, "set_up_process", lambda: calls.append("setup") or setup())
        monkeypatch.setattr(lowrank, "batch_features",
                            lambda *args: calls.append(counts()) or real(*args))
        cfg = FeatureConfig(walk_length=1, rank=1)
        for scaling in (lambda: bench.edge_scaling(cfg, 3, 4, repeats=1),
                        lambda: bench.degree_scaling(cfg, 3, repeats=1)):
            two()
            calls.clear()
            scaling()
            assert calls[0] == "setup"
            assert [c for c in calls if c != "setup"] == [[1] * len(counts())] * 4


# name -> (the failing call, message)
RAISE_SITES = {
    "ladder_unknown_topology": (lambda: bench.ladder_edges(3, 4, "ring"),
                                r"^topology must be 'path' or 'grid', got 'ring'$"),
    "suite_unknown_transition": (
        lambda: verify.make_transition(grid_graph(2), "lazy", np.random.default_rng(0)),
        r"^unknown transition kind 'lazy'$",
    ),
}


@pytest.mark.parametrize("case", sorted(RAISE_SITES))
def test_raise_site_names_the_fault(case):
    call, message = RAISE_SITES[case]
    with pytest.raises(ValueError, match=message):
        call()


class TestDescribe:
    def test_summary(self, tiny_dataset, capsys):
        rc = main(["describe", "--dataset", str(tiny_dataset), "--name", "tiny"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "graphs:         2" in out
        assert "label 0: 1" in out and "label 1: 1" in out

    def test_exact_echo_for_single_graph(self, tmp_path, capsys):
        write_tu_files(tmp_path, "one", [(1, 2), (2, 1), (2, 3), (3, 2)], [1, 1, 1],
                       node_labels=[0, 0, 1])
        main(["describe", "--dataset", str(tmp_path), "--name", "one"])
        out = capsys.readouterr().out
        assert "graphs:         1" in out
        assert "total 3" in out  # nodes
        assert "total 2" in out  # edges

    def test_empty_directory_is_data_error(self, tmp_path):
        rc = main(["describe", "--dataset", str(tmp_path), "--name", "ghost"])
        assert rc == EXIT_DATA


@pytest.mark.parametrize("command", ["extract", "describe"])
def test_blank_indicator_is_data_error_naming_file(tmp_path, capsys, command):
    (tmp_path / "blank_A.txt").write_text("1, 2\n")
    (tmp_path / "blank_graph_indicator.txt").write_text("\n  \n\n")
    args = [command, "--dataset", str(tmp_path), "--name", "blank"]
    if command == "extract":
        args += ["--out", str(tmp_path / "o.csv")]
    assert main(args) == EXIT_DATA
    indicator = tmp_path / "blank_graph_indicator.txt"
    assert capsys.readouterr().err == f"hypograph: data error: {indicator} is empty\n"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["extract", "describe"])
@pytest.mark.parametrize("top", [10**12, 2**62])
def test_wide_node_label_range_is_data_error_naming_file(tmp_path, capsys, command, top):
    # one-hot width top + 1 cannot be allocated (10**12) or exceeds the
    # largest array numpy can describe (2**62)
    write_tu_files(tmp_path, "wide", [(1, 2), (2, 1)], [1, 1], node_labels=[0, top])
    args = [command, "--dataset", str(tmp_path), "--name", "wide"]
    if command == "extract":
        args += ["--out", str(tmp_path / "o.csv")]
    assert main(args) == EXIT_DATA
    labels = tmp_path / "wide_node_labels.txt"
    assert capsys.readouterr().err == (
        f"hypograph: data error: {labels}: node labels 0..{top} are too wide a range "
        "to one-hot encode for 2 nodes\n"
    )
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["extract", "describe"])
def test_out_of_range_node_id_is_data_error_naming_line_and_id(tmp_path, capsys, command):
    write_tu_files(tmp_path, "far", [(1, 2), (2, 1), (3, 1)], [1, 1], node_labels=[0, 1])
    args = [command, "--dataset", str(tmp_path), "--name", "far"]
    if command == "extract":
        args += ["--out", str(tmp_path / "o.csv")]
    assert main(args) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"hypograph: data error: {tmp_path / 'far_A.txt'}: line 3: "
        "node id out of range 1..2, got 3\n"
    )
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["extract", "describe"])
def test_non_utf8_byte_is_data_error_naming_file_and_line(tmp_path, capsys, command):
    write_tu_files(tmp_path, "bytes", [(1, 2), (2, 1)], [1, 1], node_labels=[0, 1])
    labels = tmp_path / "bytes_node_labels.txt"
    labels.write_bytes(b"0\n\xe9\n")
    args = [command, "--dataset", str(tmp_path), "--name", "bytes"]
    if command == "extract":
        args += ["--out", str(tmp_path / "o.csv")]
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"hypograph: data error: {labels}: line 2: ") and err.count("\n") == 1
    assert not (tmp_path / "o.csv").exists()


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    """The files of a five-graph labelled dataset written by save_tu_dataset:
    {file name: bytes}."""
    rng = np.random.default_rng(23)
    dataset = [(random_labelled_graph(rng, max_nodes=6, max_dim=1), gi % 2) for gi in range(5)]
    path = tmp_path_factory.mktemp("saved")
    save_tu_dataset(str(path), "mut", dataset)
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


# what a field of a line may become: huge, negative, fractional or not a number
ODD_VALUES = [b"99999999999999999999999", b"9223372036854775808", b"1e400", b"-1", b"-7", b"0",
              b"1.5", b"2.0", b"nan", b""]


def mutated(data, blob: bytes) -> bytes:
    """blob with one byte-level mutation drawn from data."""
    lines = blob.split(b"\n")
    line = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(st.sampled_from(
        ["drop", "duplicate", "swap", "truncate", "empty", "byte", "bom", "crlf", "cr", "value",
         "column"]
    ))
    if kind == "drop":
        del lines[line]
    elif kind == "duplicate":
        lines.insert(line, lines[line])
    elif kind == "swap":
        other = data.draw(st.integers(0, len(lines) - 1))
        lines[line], lines[other] = lines[other], lines[line]
    elif kind == "truncate":
        return blob[: data.draw(st.integers(0, len(blob)))]
    elif kind == "empty":
        return b""
    elif kind == "byte":
        at = data.draw(st.integers(0, len(blob)))
        return blob[:at] + data.draw(st.sampled_from([b"\xff", b"\xe9", b"\x80", b"\xc3"])) + blob[at:]
    elif kind == "bom":
        lines[line] = b"\xef\xbb\xbf" + lines[line]
    elif kind in ("crlf", "cr"):
        return blob.replace(b"\n", b"\r\n" if kind == "crlf" else b"\r")
    elif kind == "value":
        fields = lines[line].split(b",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.sampled_from(ODD_VALUES))
        lines[line] = b",".join(fields)
    else:  # "column"
        lines[line] += b", 1"
    return b"\n".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_dataset_loads_or_fails_naming_a_file(saved_dataset, data):
    """One or two byte-level mutations of a saved dataset's files: describe
    and extract exit 0, or exit 2 with one stderr line naming a file of the
    dataset; neither raises."""
    files = dict(saved_dataset)
    for _ in range(data.draw(st.integers(1, 2))):
        name = data.draw(st.sampled_from(sorted(files)))
        files[name] = mutated(data, files[name])
    with tempfile.TemporaryDirectory() as tmp:
        for name, blob in files.items():
            Path(tmp, name).write_bytes(blob)
        out = Path(tmp, "out.csv")
        for command in ("describe", "extract"):
            args = [command, "--dataset", tmp, "--name", "mut"]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(args + (["--out", str(out)] if command == "extract" else []))
            assert code in (EXIT_OK, EXIT_DATA), (command, code)
            if code == EXIT_DATA:
                text = err.getvalue()
                assert text.count("\n") == 1 and text.endswith("\n"), text
                assert any(str(Path(tmp, name)) in text for name in files), text
                assert command == "describe" or not out.exists()


def test_benchmark_trace_targets_resolve(monkeypatch):
    # perfbench's tracer replaces each (module, attribute) in SPANS, some of
    # which nothing in the package calls; a missing one breaks --trace 1
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    worker = importlib.import_module("worker")
    for name, targets in worker.SPANS.items():
        for module, attr in targets:
            assert callable(getattr(module, attr, None)), f"{name}: {module.__name__}.{attr}"
    assert worker.RankOneFunctional is lowrank.RankOneFunctional


class TestFullScalePipeline:
    """End-to-end run of the full extraction configuration (walk length 5,
    degree 2, rank 128, 4 layers) on a synthetic stand-in shaped like the
    NCI datasets.  This checks the code path only; the real-dataset
    acceptance check lives in test_acceptance.py and needs the TU files.
    """

    def test_deep_wide_extract_is_deterministic(self, tmp_path):
        from hypograph.graphs import LabelledGraph, save_tu_dataset

        rng = np.random.default_rng(5)
        graphs = []
        for _ in range(40):
            n = int(rng.integers(20, 42))
            edges = {(i, i + 1) for i in range(n - 1)}
            for _ in range(n // 3):
                i, j = sorted(rng.integers(0, n, 2).tolist())
                if i != j:
                    edges.add((i, j))
            attrs = np.zeros((n, 37))
            attrs[np.arange(n), rng.integers(0, 37, n)] = 1.0
            graphs.append((LabelledGraph(n, sorted(edges), attrs), int(rng.integers(0, 2))))
        data_dir = tmp_path / "fake"
        save_tu_dataset(str(data_dir), "FAKE", graphs)
        args = [
            "extract", "--dataset", str(data_dir), "--name", "FAKE",
            "--walk-length", "5", "--max-degree", "2", "--rank", "128",
            "--layers", "4", "--seed", "0",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        rows = out1.read_text().strip().split("\n")
        assert len(rows) == 41  # header + one row per graph
        assert len(rows[1].split(",")) == 2 + 128


class TestFlags:
    def test_unknown_flag_exits_one(self, tiny_dataset, tmp_path, capsys):
        assert main(extract_args(tiny_dataset, tmp_path / "x.csv") + ["--bogus"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "hypograph: usage error: unrecognized arguments: --bogus\n"

    @pytest.mark.parametrize("argv, flag", [
        (["check", "--nodes", "1"], "--nodes"),
        (["bench", "--min-exp", "-1"], "--min-exp"),
        (["bench", "--repeats", "0"], "--repeats"),
        (["bench", "--min-exp", "5", "--max-exp", "3"], "--max-exp"),
        (["check", "--rank", "128"], "--rank"),
        (["bench", "--no-diff"], "--no-diff"),
        (["describe", "--dataset", "d", "--name", "n", "--rank", "0"], "--rank"),
        (["extract", "--dataset", "d", "--name", "n", "--out", "o", "--seed", "-1"], "--seed"),
        (["bench", "--rank", "eight"], "--rank"),
        (["bench", "--seed", "0"], "--seed"),
    ])
    def test_bad_flag_is_one_usage_line(self, capsys, argv, flag):
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("hypograph: usage error: ")
        assert flag in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, abbrev", [
        (["extract", "--dataset", "d", "--name", "n", "--out", "o", "--wal", "2"], "--wal"),
        (["check", "--case", "1"], "--case"),
        (["bench", "--min-exp", "5", "--max-exp", "5", "--repeats", "1", "--wal", "2"], "--wal"),
        (["describe", "--data", "d", "--name", "n"], "--data"),
    ])
    def test_abbreviated_flag_is_usage_error(self, capsys, argv, abbrev):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        declared = {s for a in sub.choices[argv[0]]._actions for s in a.option_strings}
        assert abbrev not in declared
        assert any(flag.startswith(abbrev) for flag in declared)
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("hypograph: usage error: ")

    def test_heads_without_attention_is_usage_error(self, tiny_dataset, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(extract_args(tiny_dataset, out, heads=8)) == EXIT_USAGE
        stdout, err = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert err == "hypograph: usage error: argument --heads: only valid with --attention\n"
        # with --attention, leaving --heads out means one head
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(extract_args(tiny_dataset, one, attention=True)) == EXIT_OK
        assert main(extract_args(tiny_dataset, two, attention=True, heads=1)) == EXIT_OK
        assert one.read_bytes() == two.read_bytes()

    def test_readme_lists_each_subcommands_flags(self):
        block = (Path(__file__).parents[1] / "README.md").read_text()
        block = block.split("## CLI", 1)[1].split("```")[1]
        readme: dict[str, set[str]] = {}
        for line in block.strip().splitlines():
            if line.startswith("hypograph "):
                flags = readme.setdefault(line.split()[1], set())
            flags.update(re.findall(r"--[a-z][a-z-]*", line))
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(readme) == set(sub.choices)
        for command, subparser in sub.choices.items():
            declared = {s for a in subparser._actions for s in a.option_strings if s[:2] == "--"}
            declared.discard("--help")
            assert readme[command] == declared, command

    def test_readme_library_example_runs_and_exports_resolve(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        example = text.split("## Library example", 1)[1].split("```python", 1)[1]
        exec(example.split("```", 1)[0], {})
        assert len(hypograph.__all__) == 22
        for name in hypograph.__all__:
            assert getattr(hypograph, name) is not None, name

    def test_boolean_flag_pairs(self, tiny_dataset, tmp_path):
        out1, out2 = tmp_path / "d.csv", tmp_path / "nd.csv"
        main(extract_args(tiny_dataset, out1))
        main(
            [
                "extract", "--dataset", str(tiny_dataset), "--name", "tiny",
                "--walk-length", "2", "--max-degree", "2", "--rank", "4",
                "--seed", "11", "--out", str(out2),
                "--no-diff", "--no-zero-start", "--time-param",
            ]
        )
        assert out1.read_bytes() != out2.read_bytes()
