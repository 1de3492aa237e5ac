import argparse
import importlib
import io
import json
import os
import re
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import random_labelled_graph, write_tu_files
import hypograph
from hypograph import bench, cli, exact, lowrank, verify
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
        json_rows = [json.loads(ln) for ln in out_jsonl.read_text().strip().split("\n")]
        assert len(json_rows) == len(csv_rows) == 2
        for csv_row, obj in zip(csv_rows, json_rows):
            parts = csv_row.split(",")
            assert obj["graph"] == int(parts[0])
            assert obj["label"] == int(parts[1])
            np.testing.assert_allclose(
                obj["features"], [float(x) for x in parts[2:]], rtol=1e-16
            )

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
            values = [float(x) for x in csv_line.split(",")[len(ids) + 1:]]
            assert len(values) == 4
            label_field = "" if label is None else str(label)
            assert csv_line == ",".join(
                [str(i) for i in ids] + [label_field] + [f"{v:.17g}" for v in values]
            )
            assert json_line == json.dumps({**dict(zip(names, ids)), "label": label,
                                            "features": values})

    def test_writers_format_awkward_floats(self):
        values = np.array([[3.0, -0.0, 0.1, 1e16, 5e-324, 1.7976931348623157e308, -2.5e-7]])
        # a label holding "%" must pass through the row template untouched
        labels = [7, None, "50%"]
        for per_node in (False, True):
            # per node: graph 0 has two rows, graphs 1 and 2 one each
            results = [np.vstack([values, values[:, ::-1]]) if per_node else values,
                       values[:, ::-1], values]
            rows = list(zip(range(3), labels, results))
            csv, jsonl = io.BytesIO(), io.BytesIO()
            csv.write(cli._csv_header(7, per_node).encode())
            cli._write_rows(csv, iter(rows), "csv", per_node, 7)
            cli._write_rows(jsonl, iter(rows), "jsonl", per_node, 7)
            names = ["graph", "node"] if per_node else ["graph"]
            want_csv = [",".join(names + ["label"] + [f"f{i}" for i in range(7)])]
            want_jsonl = []
            for gi, label, res in rows:
                for node, row in enumerate(res):
                    ids = [gi, node] if per_node else [gi]
                    want_csv.append(",".join([str(i) for i in ids]
                                             + ["" if label is None else str(label)]
                                             + [f"{v:.17g}" for v in row]))
                    want_jsonl.append(json.dumps({**dict(zip(names, ids)), "label": label,
                                                  "features": list(map(float, row))}))
            assert csv.getvalue().decode() == "\n".join(want_csv) + "\n"
            assert jsonl.getvalue().decode() == "\n".join(want_jsonl) + "\n"
            assert '"features": [3.0, -0.0, 0.1, 1e+16, 5e-324, ' in jsonl.getvalue().decode()

    def test_batched_matches_one_graph_per_chunk(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        graphs = [random_labelled_graph(rng, max_nodes=9, max_dim=1) for _ in range(12)]
        graphs.insert(5, grid_graph(6, seed=1))  # 60 edges, 36 nodes: over the budget
        graphs.append(LabelledGraph(1, [], [[0.5]]))
        save_tu_dataset(str(tmp_path), "many", [(g, i % 2) for i, g in enumerate(graphs)])
        budget = 64 * 4
        monkeypatch.setattr(cli, "CHUNK_ELEMENTS", budget)
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
            monkeypatch.setattr(cli, "CHUNK_ELEMENTS", 0)  # every graph alone
            assert main(extract_args(tmp_path, alone, **args)) == EXIT_OK
            monkeypatch.setattr(cli, "CHUNK_ELEMENTS", budget)
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
        monkeypatch.setattr(cli, "CHUNK_ELEMENTS", 0)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: procs)
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


class TestProcesses:
    """extract splits its chunks into one contiguous share per usable CPU;
    every share but the first runs in a forked child."""

    RANK = 4
    BUDGET = 48 * 4  # CHUNK_ELEMENTS giving 11 chunks of one to three graphs

    @pytest.fixture
    def many(self, tmp_path, monkeypatch):
        """(write, graphs) for a 30-graph dataset that splits into many
        chunks under BUDGET: write(overflow) saves it and returns its
        directory, giving the graph rows in `overflow` attributes of
        +-1e300, which overflow the first layer's walk steps."""
        monkeypatch.setattr(cli, "CHUNK_ELEMENTS", self.BUDGET)
        rng = np.random.default_rng(8)
        graphs = [random_labelled_graph(rng, max_nodes=7, max_dim=1) for _ in range(30)]

        def write(overflow=()):
            dataset = []
            for row, g in enumerate(graphs):
                if row in overflow:
                    g = g.with_attributes([[(-1.0) ** i * 1e300] for i in range(g.n)])
                dataset.append((g, row % 3))
            save_tu_dataset(str(tmp_path), "many", dataset)
            return tmp_path

        return write, graphs

    def run(self, monkeypatch, data_dir, out, procs, **extra):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: procs)
        forks = []

        def counted_fork():
            forks.append(1)
            return REAL_FORK()

        monkeypatch.setattr(os, "fork", counted_fork)
        code = main(extract_args(data_dir, out, name="many", walk_length=3, **extra))
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
        monkeypatch.setattr(cli, "CHUNK_ELEMENTS", 0)
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
        monkeypatch.setattr(cli, "CHUNK_ELEMENTS", 0)  # one chunk per graph
        names = ["graph", "node"] if per_node else ["graph"]
        want = ["graph,node,label,f0,f1,f2,f3" if per_node else "graph,label,f0,f1,f2,f3"]
        want = want if fmt == "csv" else []
        for gi, (start, n) in enumerate(zip(starts, sizes)):
            label = None if labels is None else labels[gi]
            for node in range(n if per_node else 1):
                values = [self.AWKWARD[(start + node + c) % 7] for c in range(self.RANK)]
                ids = [gi, node] if per_node else [gi]
                want.append(
                    ",".join([str(i) for i in ids] + ["" if label is None else str(label)]
                             + [f"{v:.17g}" for v in values]) if fmt == "csv"
                    else json.dumps({**dict(zip(names, ids)), "label": label, "features": values})
                )
        for procs in (1, 3):
            out = tmp_path / f"p{procs}.{fmt}"
            extra = {"format": fmt, "per_node": True} if per_node else {"format": fmt}
            assert self.run(monkeypatch, tmp_path, out, procs, **extra) == (EXIT_OK, procs - 1)
            assert out.read_text() == "\n".join(want) + "\n"

    def test_one_chunk_never_forks(self, tiny_dataset, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked for a one-chunk dataset")

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / "one.csv"
        assert main(extract_args(tiny_dataset, out)) == EXIT_OK
        assert len(out.read_text().splitlines()) == 3

    def test_no_fork_while_another_thread_runs(self):
        assert cli._usable_cpus() == len(os.sched_getaffinity(0))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert cli._usable_cpus() == 1
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
        write, graphs = many
        data_dir = write()
        shares = cli._shares(graphs, cli._chunks(graphs, self.RANK), 3)
        real = cli._share_rows

        def share_rows(dataset, graphs, share, *rest):
            # the child computing share 1 fails before its first row
            if share == shares[1]:
                if death == "signal":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("not a NonFiniteError")
            return real(dataset, graphs, share, *rest)

        monkeypatch.setattr(cli, "_share_rows", share_rows)
        out = tmp_path / "o.csv"
        assert self.run(monkeypatch, data_dir, out, 3) == (EXIT_WORKER, 2)
        rows = f"{shares[1][0][0]}-{shares[1][-1][1] - 1}"
        assert capsys.readouterr().err == (
            f"hypograph: graph rows {rows}: extract process failed: {why}\n"
        )
        assert not out.exists()


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
        monkeypatch.setattr(bench, "time_batch", lambda g, cfg, **kw: 1e-9 * g.num_edges)
        grid = bench.edge_scaling(FeatureConfig(), 3, 8, topology="grid")
        assert [row.ratio for row in grid[1:]] == pytest.approx([2.0] * 5, rel=1e-12)
        monkeypatch.setattr(bench, "time_batch", lambda g, cfg, **kw: 1e-9 * g.num_edges**1.5)
        path = bench.edge_scaling(FeatureConfig(), 3, 6, topology="path")
        assert [row.ratio for row in path[1:]] == [
            b.seconds / a.seconds for a, b in zip(path, path[1:])
        ]


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
        assert len(hypograph.__all__) == 25
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
