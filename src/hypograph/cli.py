"""Command-line surface: extract, check, bench, describe."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .config import FeatureConfig
from .exact import OracleScaleError
from .graphs import DatasetError, dataset_summary, disjoint_union, load_tu_dataset
from .layers import LayerParams, ModelConfig, init_params, layer_forward, model_forward
from .lowrank import NonFiniteError
from .verify import TOLERANCE, run_equivalence_suite
from . import bench as bench_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

# extract runs consecutive graphs as one disjoint union while their
# (2 * edges + nodes) * rank stays within this many values; a larger
# graph runs alone
CHUNK_ELEMENTS = 1 << 15


class UsageError(ValueError):
    """Invalid flag combination; maps to exit code 1."""


@dataclass(frozen=True)
class RunSpec:
    """One validated CLI invocation."""

    command: str
    dataset: str | None = None
    name: str | None = None
    walk_length: int = 5
    max_degree: int = 2
    rank: int = 8
    layers: int = 1
    diff: bool = True
    zero_start: bool = True
    time_param: bool = False
    attention: bool = False
    heads: int = 1
    seed: int = 0
    out: str | None = None
    fmt: str = "csv"
    per_node: bool = False
    cases: int = 20
    nodes: int = 8
    min_exp: int = 12
    max_exp: int = 18
    repeats: int = 5
    topology: str = "path"

    def __post_init__(self):
        if self.command not in ("extract", "check", "bench", "describe"):
            raise UsageError(f"unknown command {self.command!r}")
        if self.walk_length < 0:
            raise UsageError("--walk-length must be >= 0")
        if self.max_degree < 1:
            raise UsageError("--max-degree must be >= 1")
        if self.rank < 1:
            raise UsageError("--rank must be >= 1")
        if self.layers < 1:
            raise UsageError("--layers must be >= 1")
        if self.heads < 1:
            raise UsageError("--heads must be >= 1")
        if self.fmt not in ("csv", "jsonl"):
            raise UsageError("--format must be csv or jsonl")
        if self.command in ("extract", "describe"):
            if not self.dataset or not self.name:
                raise UsageError(f"{self.command} requires --dataset and --name")
        if self.command == "extract" and not self.out:
            raise UsageError("extract requires --out")
        if self.cases < 1:
            raise UsageError("--cases must be >= 1")

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            walk_length=self.walk_length,
            max_degree=self.max_degree,
            rank=self.rank,
            diff=self.diff,
            zero_start=self.zero_start,
            time_param=self.time_param,
        )


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse's default is 2, reserved here for data)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypograph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--dataset", help="directory with TU-format files")
        p.add_argument("--name", help="dataset name (file prefix)")
        p.add_argument("--walk-length", type=int, default=5)
        p.add_argument("--max-degree", type=int, default=2)
        p.add_argument("--rank", type=int, default=8)
        p.add_argument("--layers", type=int, default=1)
        p.add_argument("--diff", action=argparse.BooleanOptionalAction, default=True)
        p.add_argument(
            "--zero-start", action=argparse.BooleanOptionalAction, default=True
        )
        p.add_argument("--time-param", action="store_true", default=False)
        p.add_argument("--attention", action="store_true", default=False)
        p.add_argument("--heads", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", dest="fmt", choices=("csv", "jsonl"), default="csv")
        p.add_argument("--per-node", action="store_true", default=False)

    p_extract = sub.add_parser("extract", help="write per-graph (or per-node) features")
    add_common(p_extract)

    p_check = sub.add_parser("check", help="run the low-rank vs. exact oracle suite")
    add_common(p_check)
    p_check.add_argument("--cases", type=int, default=20, help="randomized cases")
    p_check.add_argument("--nodes", type=int, default=8, help="max graph size")

    p_bench = sub.add_parser("bench", help="time the recursion on synthetic graphs")
    add_common(p_bench)
    p_bench.add_argument("--min-exp", type=int, default=12, help="smallest 2^e edges")
    p_bench.add_argument("--max-exp", type=int, default=18, help="largest 2^e edges")
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--topology", choices=("path", "grid"), default="path")

    p_desc = sub.add_parser("describe", help="summarize a TU-format dataset")
    add_common(p_desc)
    return parser


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    fields = {k: v for k, v in vars(args).items() if v is not None}
    return RunSpec(**fields)


def _build_model(spec: RunSpec, attr_dim: int) -> ModelConfig:
    cfg = spec.feature_config()
    master = np.random.SeedSequence(spec.seed)
    layer_seeds = master.spawn(spec.layers)
    layers: list[LayerParams] = []
    width = attr_dim
    for idx in range(spec.layers):
        layers.append(
            init_params(
                width,
                cfg,
                layer_seeds[idx],
                attention=spec.attention,
                heads=spec.heads,
            )
        )
        width = spec.rank
    return ModelConfig(tuple(layers), pooling="mean", seed=spec.seed)


def _chunks(graphs, rank: int) -> list[tuple[int, int]]:
    """Consecutive [start, stop) ranges of graphs, filled greedily in order
    up to CHUNK_ELEMENTS values per R-wide array."""
    bounds, start, size = [], 0, 0
    for row, g in enumerate(graphs):
        cost = (2 * g.num_edges + g.n) * rank
        if row > start and size + cost > CHUNK_ELEMENTS:
            bounds.append((start, row))
            start, size = row, 0
        size += cost
    bounds.append((start, len(graphs)))
    return bounds


def _chunk_rows(graphs, model: ModelConfig, per_node: bool) -> list[np.ndarray]:
    """Per graph, its pooled row or (per_node) its node rows, all computed
    on one disjoint union of the graphs."""
    union, offsets = disjoint_union(graphs)
    if not per_node:
        return list(model_forward(union, model, offsets))
    x = union.attributes
    for idx, layer in enumerate(model.layers):
        try:
            x = layer_forward(union, x, layer)
        except NonFiniteError as exc:
            raise NonFiniteError(f"layer {idx + 1}: {exc}") from exc
    return np.split(x, offsets[1:-1])


def _rows(dataset, results, per_node: bool):
    """Yield (ids, label, values) per output row: ids is (graph,) or
    (graph, node), values a list of floats."""
    for gi, ((_, label), res) in enumerate(zip(dataset, results)):
        if per_node:
            for node, values in enumerate(res.tolist()):
                yield (gi, node), label, values
        else:
            yield (gi,), label, res.tolist()


def _write_csv(fh, rows, width: int, per_node: bool) -> None:
    """Header, then one line per row with 17 significant digits per value;
    a missing label is an empty field."""
    names = ["graph", "node"] if per_node else ["graph"]
    fh.write(",".join(names + ["label"] + [f"f{idx}" for idx in range(width)]) + "\n")
    line = ",".join(["%d"] * len(names) + ["%s"] + ["%.17g"] * width) + "\n"
    fh.writelines(
        line % (*ids, "" if label is None else label, *values) for ids, label, values in rows
    )


def _write_jsonl(fh, rows, per_node: bool) -> None:
    """One JSON object per row, byte for byte what ``json.dumps`` gives for
    finite values: ``str`` of a float list uses the same ``float.__repr__``
    and ``", "`` separators."""
    node = ' "node": %d,' if per_node else ""
    line = '{"graph": %d,' + node + ' "label": %s, "features": %s}\n'
    label_text = functools.cache(json.dumps)  # one call per distinct label
    fh.writelines(line % (*ids, label_text(label), values) for ids, label, values in rows)


def cmd_extract(spec: RunSpec) -> int:
    dataset = load_tu_dataset(spec.dataset, spec.name)
    if not dataset:
        raise DatasetError("dataset is empty")
    model = _build_model(spec, dataset[0][0].attr_dim)
    graphs = [g for g, _ in dataset]
    results = []
    for start, stop in _chunks(graphs, spec.rank):
        try:
            results.extend(_chunk_rows(graphs[start:stop], model, spec.per_node))
        except NonFiniteError:
            # run the chunk one graph at a time to name the graph that failed
            for row in range(start, stop):
                try:
                    results.extend(_chunk_rows(graphs[row : row + 1], model, spec.per_node))
                except NonFiniteError as exc:
                    raise NonFiniteError(f"graph row {row}, {exc}") from exc

    rows = _rows(dataset, results, spec.per_node)
    with open(spec.out, "w", encoding="utf-8") as fh:
        if spec.fmt == "csv":
            _write_csv(fh, rows, results[0].shape[-1], spec.per_node)
        else:
            _write_jsonl(fh, rows, spec.per_node)
    count = sum(map(len, results)) if spec.per_node else len(results)
    print(f"wrote {count} rows to {spec.out}")
    return EXIT_OK


def cmd_check(spec: RunSpec) -> int:
    report = run_equivalence_suite(
        cases=spec.cases,
        seed=spec.seed,
        max_nodes=spec.nodes,
        max_degree=min(spec.max_degree, 3),
        max_walk=min(spec.walk_length, 4),
        rank=min(spec.rank, 4),
    )
    for bucket in report.buckets:
        status = "ok" if bucket.passed else "FAIL"
        print(
            f"{status:4s} transition={bucket.transition:9s} flags={bucket.flags:34s} "
            f"cases={bucket.cases:3d} max_rel_err={bucket.max_rel_err:.3e}"
        )
    print(
        f"checked {report.cases} cases in {report.elapsed:.2f}s; "
        f"max relative error {report.max_rel_err:.3e} (tolerance {TOLERANCE:.0e})"
    )
    return EXIT_OK if report.passed else EXIT_CHECK


def cmd_bench(spec: RunSpec) -> int:
    rows = bench_mod.edge_scaling(
        min_exp=spec.min_exp,
        max_exp=spec.max_exp,
        walk_length=spec.walk_length,
        max_degree=spec.max_degree,
        rank=spec.rank,
        repeats=spec.repeats,
        seed=spec.seed,
        topology=spec.topology,
    )
    print(f"{'edges':>10s} {'seconds':>12s} {'ns/edge':>10s} {'ratio':>7s}  note")
    for row in rows:
        ratio = "" if row.ratio is None else f"{row.ratio:7.2f}"
        note = ""
        if row.linear is False:
            note = f"non-linear growth (> {bench_mod.LINEAR_RATIO_BOUND}x per doubling)"
        print(
            f"{row.edges:>10d} {row.seconds:>12.6f} {row.ns_per_edge:>10.1f} {ratio:>7s}  {note}"
        )
    deg = bench_mod.degree_scaling(
        edges_exp=min(spec.max_exp, 15),
        walk_length=spec.walk_length,
        rank=spec.rank,
        repeats=spec.repeats,
        seed=spec.seed,
    )
    lo, hi = sorted(deg["seconds"])
    print(
        f"degree {lo}->{hi} at {deg['edges']} edges: "
        f"{deg['seconds'][lo]:.6f}s -> {deg['seconds'][hi]:.6f}s "
        f"(ratio {deg['ratio']:.2f})"
    )
    return EXIT_OK


def cmd_describe(spec: RunSpec) -> int:
    dataset = load_tu_dataset(spec.dataset, spec.name)
    if not dataset:
        raise DatasetError("dataset is empty")
    info = dataset_summary(dataset)
    print(f"graphs:         {info['graphs']}")
    print(f"attribute dim:  {info['attr_dim']}")
    print(
        f"nodes:          total {info['nodes_total']}, mean {info['nodes_mean']:.2f}, "
        f"min {info['nodes_min']}, max {info['nodes_max']}"
    )
    print(f"edges:          total {info['edges_total']}, mean {info['edges_mean']:.2f}")
    if info["label_histogram"]:
        print(f"classes:        {len(info['label_histogram'])}")
        for label, count in info["label_histogram"].items():
            print(f"  label {label}: {count}")
    else:
        print("classes:        none (no graph labels)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
        handler = {
            "extract": cmd_extract,
            "check": cmd_check,
            "bench": cmd_bench,
            "describe": cmd_describe,
        }[spec.command]
        return handler(spec)
    except UsageError as exc:
        print(f"hypograph: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OracleScaleError as exc:
        print(f"hypograph: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, NonFiniteError, OSError) as exc:
        print(f"hypograph: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
