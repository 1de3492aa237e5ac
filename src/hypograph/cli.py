"""Command-line surface: extract, check, bench, describe."""

from __future__ import annotations

import argparse
import bisect
import functools
import io
import itertools
import json
import os
import shutil
import signal
import sys
import tempfile
import threading

import numpy as np

from .config import FeatureConfig
from .graphs import DatasetError, dataset_summary, disjoint_union, load_tu_dataset
from .layers import LayerParams, ModelConfig, init_params, model_forward
from .layers import layer_forward  # not called here: perfbench traces cli.layer_forward
from .lowrank import NonFiniteError
from .verify import MAX_DEGREE, MAX_NODES, MAX_WALK, RANK, TOLERANCE, run_equivalence_suite
from . import bench as bench_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3
EXIT_WORKER = 4

# extract runs consecutive graphs as one disjoint union while their
# (2 * edges + nodes) * rank stays within this many values; a larger
# graph runs alone.  The chunks are then split into one contiguous share
# per usable CPU, each computed and formatted by its own process.
CHUNK_ELEMENTS = 1 << 15


class UsageError(ValueError):
    """Unknown, missing or out-of-range flag; maps to exit code 1."""


class WorkerError(RuntimeError):
    """An extract child process died or raised something other than
    NonFiniteError; names its graph rows and maps to exit code 4."""


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
    p_bench.add_argument("--seed", type=_at_least(0), default=0)
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
    return ModelConfig(tuple(layers), pooling=None if args.per_node else "mean", seed=args.seed)


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


def _shares(graphs, chunks, parts: int) -> list[list[tuple[int, int]]]:
    """Split chunks into `parts` contiguous non-empty runs of about equal
    (2 * edges + nodes) cost: a chunk joins the run its cost midpoint falls
    in."""
    costs = [sum(2 * g.num_edges + g.n for g in graphs[a:b]) for a, b in chunks]
    mids = [end - cost / 2 for end, cost in zip(itertools.accumulate(costs), costs)]
    cuts = [0]
    for i in range(1, parts):
        cut = bisect.bisect_left(mids, sum(costs) * i / parts)
        cuts.append(min(max(cut, cuts[-1] + 1), len(chunks) - parts + i))
    cuts.append(len(chunks))
    return [chunks[a:b] for a, b in zip(cuts, cuts[1:])]


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork, or should not
    because another Python thread might hold a lock the child would need."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        return len(os.sched_getaffinity(0))
    return 1


def _chunk_rows(graphs, model: ModelConfig) -> list[np.ndarray]:
    """Per graph, its pooled row or (pooling None) its node rows, all
    computed on one disjoint union of the graphs."""
    union, offsets = disjoint_union(graphs)
    x = model_forward(union, model, offsets)
    return np.split(x, offsets[1:-1]) if model.pooling is None else list(x)


def _share_rows(dataset, graphs, share, model: ModelConfig):
    """The output rows of the chunks in share, computed one chunk at a time."""
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
        yield from _rows(dataset[start:stop], results, model.pooling is None, start)


def _rows(dataset, results, per_node: bool, first: int = 0):
    """Yield (ids, label, values) per output row: ids is (graph,) or
    (graph, node), values a list of floats; graphs count from first."""
    for gi, ((_, label), res) in enumerate(zip(dataset, results), first):
        if per_node:
            for node, values in enumerate(res.tolist()):
                yield (gi, node), label, values
        else:
            yield (gi,), label, res.tolist()


def _csv_header(width: int, per_node: bool) -> str:
    names = ["graph", "node"] if per_node else ["graph"]
    return ",".join(names + ["label"] + [f"f{idx}" for idx in range(width)]) + "\n"


def _write_csv(fh, rows, width: int, per_node: bool) -> None:
    """One line per row with 17 significant digits per value; a missing
    label is an empty field."""
    line = ",".join(["%d"] * (2 if per_node else 1) + ["%s"] + ["%.17g"] * width) + "\n"
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


def _child(write_share, share, fh, report_fd: int):
    """Body of a forked child: write its share, report a failure through
    the pipe (b"N" and an overflow's message, or b"E" and any other
    exception), and leave by os._exit, never by returning or raising."""
    code = 1
    try:
        try:
            write_share(share, fh)
            code = 0
        except NonFiniteError as exc:
            os.write(report_fd, b"N" + str(exc).encode())
        except BaseException as exc:
            os.write(report_fd, b"E" + f"{type(exc).__name__}: {exc}".encode())
    finally:
        os._exit(code)


def _run_shares(shares, files, write_share) -> None:
    """Call write_share(share, file) per share: share 0 in this process, the
    others in forked children. Returns once every share has succeeded;
    otherwise kills and reaps every child left and raises the error of the
    lowest failing share."""
    children = []  # (pid, read end of its report pipe, share), in share order
    try:
        for share, fh in zip(shares[1:], files[1:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _child(write_share, share, fh, write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb"), share))
        write_share(shares[0], files[0])
        while children:
            pid, pipe, share = children[0]
            report = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            pipe.close()
            if code == 0 and not report:
                continue
            if report[:1] == b"N":
                raise NonFiniteError(report[1:].decode())
            if report:
                why = report[1:].decode()
            elif code < 0:
                why = f"killed by signal {-code}"
            else:
                why = f"exited with status {code}"
            rows = f"{share[0][0]}-{share[-1][1] - 1}"
            raise WorkerError(f"graph rows {rows}: extract process failed: {why}")
    finally:
        for pid, pipe, _ in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
            pipe.close()


def cmd_extract(args: argparse.Namespace) -> int:
    if args.heads is not None and not args.attention:
        raise UsageError("argument --heads: only valid with --attention")
    dataset = load_tu_dataset(args.dataset, args.name)
    model = _build_model(args, dataset[0][0].attr_dim)
    graphs = [g for g, _ in dataset]
    chunks = _chunks(graphs, args.rank)
    shares = _shares(graphs, chunks, min(_usable_cpus(), len(chunks)))

    def write_share(share, fh):
        text = io.TextIOWrapper(fh, encoding="utf-8")
        rows = _share_rows(dataset, graphs, share, model)
        if args.fmt == "csv":
            _write_csv(text, rows, args.rank, args.per_node)
        else:
            _write_jsonl(text, rows, args.per_node)
        text.detach().flush()  # a child leaves by os._exit, which flushes nothing

    files = [tempfile.TemporaryFile() for _ in shares]
    try:
        _run_shares(shares, files, write_share)
        with open(args.out, "wb") as out:
            if args.fmt == "csv":
                out.write(_csv_header(args.rank, args.per_node).encode())
            for fh in files:
                fh.seek(0)
                shutil.copyfileobj(fh, out)
    finally:
        for fh in files:
            fh.close()
    count = sum(g.n for g in graphs) if args.per_node else len(graphs)
    print(f"wrote {count} rows to {args.out}")
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
    rows = bench_mod.edge_scaling(
        cfg, args.min_exp, args.max_exp, args.repeats, args.seed, args.topology
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
        cfg, edges_exp=min(args.max_exp, 15), repeats=args.repeats, seed=args.seed
    )
    lo, hi = sorted(deg["seconds"])
    print(
        f"degree {lo}->{hi} at {deg['edges']} edges: "
        f"{deg['seconds'][lo]:.6f}s -> {deg['seconds'][hi]:.6f}s "
        f"(ratio {deg['ratio']:.2f})"
    )
    return EXIT_OK


def cmd_describe(args: argparse.Namespace) -> int:
    dataset = load_tu_dataset(args.dataset, args.name)
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
    except WorkerError as exc:
        print(f"hypograph: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
