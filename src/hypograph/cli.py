"""Command-line surface: extract, check, bench, describe."""

from __future__ import annotations

import argparse
import bisect
import collections
import errno
import functools
import itertools
import os
import shutil
import sys
import tempfile

import numpy as np
import orjson

from .config import FeatureConfig
from .graphs import DatasetError, NonFiniteError, disjoint_union, load_tu_dataset
from .layers import LayerParams, ModelConfig, init_params, model_forward
from .layers import layer_forward  # not called here: perfbench traces cli.layer_forward
from .verify import MAX_DEGREE, MAX_NODES, MAX_WALK, RANK, TOLERANCE, run_equivalence_suite
from . import bench as bench_mod, lowrank, processes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3
EXIT_WORKER = 4


class UsageError(ValueError):
    """Unknown, missing or out-of-range flag; maps to exit code 1."""


def _at_least(lo: int):
    """argparse ``type=`` for an int no smaller than ``lo``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value: ..." message
    return parse


class _Parser(argparse.ArgumentParser):
    # every usage problem reaches main's handler and exits 1 with one line
    # (argparse's default is exit 2, reserved here for data errors); the
    # subparsers share this class, so no parser accepts an abbreviated flag
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """The one place each flag is declared and range-checked; a subcommand
    takes only the flags its handler reads."""
    parser = _Parser(prog="hypograph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset(p):
        p.add_argument("--dataset", required=True, help="directory with TU-format files")
        p.add_argument("--name", required=True, help="dataset name (file prefix)")

    def add_walk(p):
        p.add_argument("--walk-length", type=_at_least(0), default=5)
        p.add_argument("--max-degree", type=_at_least(1), default=2)
        p.add_argument("--rank", type=_at_least(1), default=8)

    p_extract = sub.add_parser("extract", help="write per-graph (or per-node) features")
    add_dataset(p_extract)
    add_walk(p_extract)
    p_extract.add_argument("--seed", type=_at_least(0), default=0)
    p_extract.add_argument("--layers", type=_at_least(1), default=1)
    p_extract.add_argument("--diff", action=argparse.BooleanOptionalAction, default=True)
    p_extract.add_argument(
        "--zero-start", action=argparse.BooleanOptionalAction, default=True
    )
    p_extract.add_argument("--time-param", action="store_true")
    p_extract.add_argument("--attention", action="store_true")
    p_extract.add_argument("--heads", type=_at_least(1), help="with --attention only (default 1)")
    p_extract.add_argument("--out", required=True, help="output file path")
    p_extract.add_argument("--format", dest="fmt", choices=("csv", "jsonl"), default="csv")
    p_extract.add_argument("--per-node", action="store_true")

    p_check = sub.add_parser("check", help="run the low-rank vs. exact oracle suite")
    p_check.add_argument("--cases", type=_at_least(1), default=20, help="randomized cases")
    p_check.add_argument("--seed", type=_at_least(0), default=0)

    p_bench = sub.add_parser("bench", help="time the recursion on synthetic graphs")
    add_walk(p_bench)
    p_bench.add_argument("--min-exp", type=_at_least(0), default=12, help="smallest 2^e edges")
    p_bench.add_argument("--max-exp", type=_at_least(0), default=18, help="largest 2^e edges")
    p_bench.add_argument("--repeats", type=_at_least(1), default=5)
    p_bench.add_argument("--topology", choices=("path", "grid"), default="path")

    p_desc = sub.add_parser("describe", help="summarize a TU-format dataset")
    add_dataset(p_desc)
    return parser


def _build_model(args: argparse.Namespace, attr_dim: int) -> ModelConfig:
    cfg = FeatureConfig(
        walk_length=args.walk_length,
        max_degree=args.max_degree,
        rank=args.rank,
        diff=args.diff,
        zero_start=args.zero_start,
        time_param=args.time_param,
    )
    layer_seeds = np.random.SeedSequence(args.seed).spawn(args.layers)
    layers: list[LayerParams] = []
    width = attr_dim
    for seed in layer_seeds:
        layers.append(init_params(width, cfg, seed, args.attention, args.heads or 1))
        width = args.rank
    return ModelConfig(tuple(layers), pooling=None if args.per_node else "mean")


def _cost(g) -> int:
    """A graph's cost in chunks and shares: its values per unit of rank."""
    return 2 * g.num_edges + g.n


def _chunks(graphs, rank: int) -> list[tuple[int, int]]:
    """Consecutive [start, stop) ranges of graphs, filled greedily in order
    up to lowrank.CHUNK_ELEMENTS values per R-wide array; a larger graph
    runs alone."""
    bounds, start, size = [], 0, 0
    for row, g in enumerate(graphs):
        cost = _cost(g) * rank
        if row > start and size + cost > lowrank.CHUNK_ELEMENTS:
            bounds.append((start, row))
            start, size = row, 0
        size += cost
    bounds.append((start, len(graphs)))
    return bounds


def _shares(graphs, chunks, parts: int) -> list[list[tuple[int, int]]]:
    """Split chunks into `parts` contiguous non-empty runs of about equal
    cost (_cost): a chunk joins the run its cost midpoint falls in."""
    costs = [sum(map(_cost, graphs[a:b])) for a, b in chunks]
    mids = [end - cost / 2 for end, cost in zip(itertools.accumulate(costs), costs)]
    cuts = [0]
    for i in range(1, parts):
        cut = bisect.bisect_left(mids, sum(costs) * i / parts)
        cuts.append(min(max(cut, cuts[-1] + 1), len(chunks) - parts + i))
    cuts.append(len(chunks))
    return [chunks[a:b] for a, b in zip(cuts, cuts[1:])]


def _is_stderr(path: str) -> bool:
    """Whether path is the file stderr writes to: the same device and
    inode.  False where either cannot be stat'ed."""
    try:
        out, err = os.stat(path), os.fstat(sys.stderr.fileno())
    except OSError:  # io.UnsupportedOperation too: a stderr with no descriptor
        return False
    return (out.st_dev, out.st_ino) == (err.st_dev, err.st_ino)


def _check_out(path: str) -> None:
    """Raise the OSError, naming path, that opening it for writing would
    raise: it is a directory, or it cannot be written, or it does not exist
    and its directory is missing or cannot be written.  Creates and
    truncates nothing."""
    parent = os.path.dirname(path) or "."
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise OSError(code, os.strerror(code), path)


def _chunk_rows(graphs, model: ModelConfig) -> list[np.ndarray]:
    """Per graph, its (1, width) pooled row or (pooling None) its (n, width)
    node rows, all computed on one disjoint union of the graphs."""
    union, offsets = disjoint_union(graphs)
    x = model_forward(union, model, offsets)
    return np.split(x, offsets[1:-1]) if model.pooling is None else list(x[:, None])


def _share_rows(dataset, graphs, share, model: ModelConfig):
    """(graph row, label, rows) per graph of the chunks in share, computed
    one chunk at a time."""
    for start, stop in share:
        try:
            results = _chunk_rows(graphs[start:stop], model)
        except NonFiniteError:
            # run the chunk one graph at a time to name the graph that failed
            results = []
            for row in range(start, stop):
                try:
                    results.extend(_chunk_rows(graphs[row : row + 1], model))
                except NonFiniteError as exc:
                    raise NonFiniteError(f"graph row {row}, {exc}") from exc
        labels = (label for _, label in dataset[start:stop])
        yield from zip(range(start, stop), labels, results)


def _csv_header(width: int, per_node: bool) -> str:
    names = ["graph", "node"] if per_node else ["graph"]
    return ",".join(names + ["label"] + [f"f{idx}" for idx in range(width)]) + "\n"


# stand-ins for the graph id and label in a row template
_GRAPH, _LABEL = b"\0", b"\2"


def _row_template(fmt: str, per_node: bool) -> bytes:
    """One output row as a ``%`` template: a node row's ``%d`` takes the
    node id, and then its ``%%s`` is the ``%s`` of the row's values.  CSV
    gives a missing label an empty field; JSONL has ``json.dumps``'s keys
    and ``", "`` separators around the ids and the label."""
    node = (b",%d" if fmt == "csv" else b' "node": %d,') if per_node else b""
    if fmt == "csv":
        return _GRAPH + node + b"," + _LABEL + b",%%s\n"
    return (b'{"graph": ' + _GRAPH + b"," + node + b' "label": ' + _LABEL
            + b', "features": [%%s]}\n')


def _write_rows(fh, rows, fmt: str, per_node: bool) -> None:
    """Write (graph row, label, rows) triples to the binary file fh, each
    graph's rows formatted by one ``%`` on the template of its row count.
    A label is an int or None, as load_tu_dataset gives it.  Every value
    is orjson's text of its float64: the shortest decimal that reads back
    to it, always with a ``.`` or an exponent (``3.0``, ``-0.0``,
    ``1e16``)."""
    row = _row_template(fmt, per_node)
    missing = b"null" if fmt == "jsonl" else b""  # a graph without a label

    @functools.cache
    def block(count: int) -> bytes:
        nodes = range(count) if per_node else [()] * count
        return b"".join(row % node for node in nodes)

    for gi, label, values in rows:
        if not len(values):
            continue  # a graph with no rows writes nothing
        text = missing if label is None else b"%d" % label
        numbers = orjson.dumps(np.ascontiguousarray(values), option=orjson.OPT_SERIALIZE_NUMPY)
        template = block(len(values)).replace(_GRAPH, b"%d" % gi).replace(_LABEL, text)
        fh.write(template % tuple(numbers[2:-2].split(b"],[")))


def cmd_extract(args: argparse.Namespace) -> int:
    if args.heads is not None and not args.attention:
        raise UsageError("argument --heads: only valid with --attention")
    _check_out(args.out)
    dataset = load_tu_dataset(args.dataset, args.name)
    processes.set_up_process()  # after loading, so that its large temporaries still go back when freed
    model = _build_model(args, dataset[0][0].attr_dim)
    graphs = [g for g, _ in dataset]
    chunks = _chunks(graphs, args.rank)
    shares = _shares(graphs, chunks, min(processes.usable_cpus(), len(chunks)))

    def write_share(share, fh):
        rows = _share_rows(dataset, graphs, share, model)
        _write_rows(fh, rows, args.fmt, args.per_node)
        fh.flush()  # a child leaves by os._exit, which flushes nothing

    files = [tempfile.TemporaryFile() for _ in shares]
    try:
        processes.run_shares(shares, files, write_share)
        out = open(args.out, "wb")
        try:
            with out:
                if args.fmt == "csv":
                    out.write(_csv_header(args.rank, args.per_node).encode())
                for fh in files:
                    fh.seek(0)
                    shutil.copyfileobj(fh, out)
        except BaseException:
            if os.path.isfile(args.out):  # no partial output; /dev/null or a pipe stays
                if os.path.islink(args.out):
                    os.truncate(args.out, 0)  # empty the file it names; the link stays
                else:
                    os.remove(args.out)
            raise
    finally:
        for fh in files:
            fh.close()
    if not _is_stderr(args.out):  # neither --out /dev/stdout nor /dev/stderr gets the line
        count = sum(g.n for g in graphs) if args.per_node else len(graphs)
        print(f"wrote {count} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    report = run_equivalence_suite(cases=args.cases, seed=args.seed)
    for bucket in report.buckets:
        status = "ok" if bucket.passed else "FAIL"
        print(
            f"{status:4s} transition={bucket.transition:9s} flags={bucket.flags:34s} "
            f"cases={bucket.cases:3d} max_rel_err={bucket.max_rel_err:.3e}"
        )
    print(
        f"checked {report.cases} cases (nodes 2..{MAX_NODES}, walks 0..{MAX_WALK}, "
        f"degrees 1..{MAX_DEGREE}, rank {RANK}) in {report.elapsed:.2f}s; "
        f"max relative error {report.max_rel_err:.3e} (tolerance {TOLERANCE:.0e})"
    )
    return EXIT_OK if report.passed else EXIT_CHECK


def cmd_bench(args: argparse.Namespace) -> int:
    if args.max_exp < args.min_exp:
        raise UsageError(f"argument --max-exp: must be >= --min-exp ({args.min_exp}), "
                         f"got {args.max_exp}")
    try:
        bench_mod.ladder_edges(args.min_exp, args.max_exp, args.topology)
    except ValueError as exc:
        raise UsageError(f"argument --min-exp: {exc}") from None
    cfg = FeatureConfig(
        walk_length=args.walk_length, max_degree=args.max_degree, rank=args.rank
    )
    rows = bench_mod.edge_scaling(cfg, args.min_exp, args.max_exp, args.repeats, args.topology)
    print(f"{'edges':>10s} {'seconds':>12s} {'ns/edge':>10s} {'ratio':>7s}  note")
    for row in rows:
        ratio = "" if row.ratio is None else f"{row.ratio:7.2f}"
        note = ""
        if row.ratio is not None and row.ratio > bench_mod.LINEAR_RATIO_BOUND:
            note = f"non-linear growth (> {bench_mod.LINEAR_RATIO_BOUND}x per doubling)"
        print(
            f"{row.edges:>10d} {row.seconds:>12.6f} {row.ns_per_edge:>10.1f} {ratio:>7s}  {note}"
        )
    deg = bench_mod.degree_scaling(cfg, edges_exp=min(args.max_exp, 15), repeats=args.repeats)
    lo, hi = sorted(deg["seconds"])
    print(
        f"degree {lo}->{hi} at {deg['edges']} edges: "
        f"{deg['seconds'][lo]:.6f}s -> {deg['seconds'][hi]:.6f}s "
        f"(ratio {deg['ratio']:.2f})"
    )
    return EXIT_OK


def cmd_describe(args: argparse.Namespace) -> int:
    dataset = load_tu_dataset(args.dataset, args.name)
    nodes = np.array([g.n for g, _ in dataset])
    edges = np.array([g.num_edges for g, _ in dataset])
    labels = collections.Counter(label for _, label in dataset if label is not None)
    print(f"graphs:         {len(dataset)}")
    print(f"attribute dim:  {dataset[0][0].attr_dim}")
    print(
        f"nodes:          total {nodes.sum()}, mean {nodes.mean():.2f}, "
        f"min {nodes.min()}, max {nodes.max()}"
    )
    print(f"edges:          total {edges.sum()}, mean {edges.mean():.2f}")
    if labels:
        print(f"classes:        {len(labels)}")
        for label, count in sorted(labels.items()):
            print(f"  label {label}: {count}")
    else:
        print("classes:        none (no graph labels)")
    return EXIT_OK


def main(argv=None) -> int:
    handlers = {
        "extract": cmd_extract,
        "check": cmd_check,
        "bench": cmd_bench,
        "describe": cmd_describe,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"hypograph: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, NonFiniteError, OSError) as exc:
        print(f"hypograph: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"hypograph: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA
    except processes.WorkerError as exc:
        print(f"hypograph: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
