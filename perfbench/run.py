"""Repository benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload nci_extract --seed 1 --seconds 50 --trace 0

Run it from the repository root.  The workloads and the metric names,
units and bounds are listed in BENCHMARK.json.  The inputs are generated
from --seed into a work directory (.perfbench_work) under the root, removed at the
end.  Every program process runs with one BLAS thread:

* setup_s: CLI workloads time a fresh `import hypograph.cli` process
  (interpreter start plus import); large_graph times building the graph,
  its pattern and its transition.  Median of samples the worker takes
  between timed units, spread over the run.
* peak_rss_mb: peak resident memory of one fresh process doing one unit.
  For the CLI workloads that is `python -m hypograph.cli extract`, whose
  output is also the reference the timed units must match byte for byte.
* run_s: median seconds per unit over --seconds of repeated units in one
  worker process (see worker.py).
* ok_frac: operations that succeeded over operations attempted.  Timed
  units, set-up samples, the reference run and every correctness gate are
  operations.

With --trace 1 the worker alternates untraced and traced units and the
metrics are the per-layer ones.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads here and in every child process
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import gen  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
RUN_DEADLINE_S = 170.0  # every run ends within 180 s

CLI_WORKLOADS = {
    "nci_extract": {
        "graphs": 200,
        "flags": ["--walk-length", "5", "--max-degree", "2", "--rank", "128", "--layers", "4",
                  "--format", "csv"],
    },
    "nodes_jsonl": {
        "graphs": 1000,
        "flags": ["--walk-length", "5", "--max-degree", "2", "--rank", "8", "--layers", "1",
                  "--attention", "--heads", "8", "--per-node", "--format", "jsonl"],
    },
}
WORKLOADS = [*CLI_WORKLOADS, "large_graph"]


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("HYPOGRAPH_")}
    env.update(PIN)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(argv, env, log_path, timeout):
    """Run argv to its end; return (exit code, peak RSS in MB)."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: end the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def log_tail(path: str, lines: int = 15) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


class Run:
    """Operation bookkeeping shared by all workloads."""

    def __init__(self, args, root, work):
        self.args, self.work = args, work
        self.env = child_env(root)
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def child(self, argv, tag):
        log = os.path.join(self.work, f"{tag}.log")
        code, rss = run_child(argv, self.env, log, self.remaining())
        if code != 0:
            self.problems.append(f"{tag} exited {code}:\n{log_tail(log)}")
        return code, rss

    def worker(self, conf, once=False):
        """Run worker.py on conf; return its result and peak RSS."""
        tag = "once" if once else "worker"
        config = os.path.join(self.work, f"{tag}.json")
        result = os.path.join(self.work, f"{tag}-result.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(conf, fh)
        argv = [sys.executable, os.path.join(HERE, "worker.py"), config, result]
        code, rss = self.child(argv + (["--once"] if once else []), tag)
        if code != 0:
            raise BenchError(self.problems[-1])
        with open(result, encoding="utf-8") as fh:
            return json.load(fh), rss

    def absorb(self, res):
        """Count the worker's timed units and gates."""
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.problems.extend(res["errors"])
        for gate in res["gates"]:
            self.op(gate["ok"], f"{gate['gate']}: {gate['detail']}")
        if not res["plain_s"]:
            raise BenchError("no timed unit succeeded:\n" + "\n".join(self.problems))


def sha_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_output(path: str, fmt: str, width: int, graphs) -> str | None:
    """Problem with the extract output's shape or values, or None."""
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    if fmt == "csv":
        header, rows = rows[0].split(","), rows[1:]
        if header[:2] != ["graph", "label"] or len(header) != 2 + width:
            return f"unexpected header {rows[0][:60]!r}"
        if len(rows) != len(graphs):
            return f"{len(rows)} rows for {len(graphs)} graphs"
        for gi, (row, (_, _, label)) in enumerate(zip(rows, graphs)):
            fields = row.split(",")
            if fields[:2] != [str(gi), str(label)] or len(fields) != len(header):
                return f"row {gi} is {row[:60]!r}"
            if not all(math.isfinite(float(x)) for x in fields[2:]):
                return f"row {gi} has a non-finite value"
        return None
    expected = [(gi, node, label) for gi, (_, labels, label) in enumerate(graphs)
                for node in range(len(labels))]
    if len(rows) != len(expected):
        return f"{len(rows)} rows for {len(expected)} nodes"
    for row, (gi, node, label) in zip(rows, expected):
        rec = json.loads(row)
        if (rec["graph"], rec["node"], rec["label"]) != (gi, node, label):
            return f"row for graph {gi} node {node} is {row[:60]!r}"
        if len(rec["features"]) != width or not all(map(math.isfinite, rec["features"])):
            return f"graph {gi} node {node} has bad features"
    return None


def cli_workload(run: Run) -> dict:
    args, spec = run.args, CLI_WORKLOADS[run.args.workload]
    graphs = gen.nci_graphs(spec["graphs"], args.seed)
    totals = gen.write_tu(run.work, gen.NCI_NAME, graphs)
    flags = spec["flags"]
    fmt = flags[flags.index("--format") + 1]
    rank = int(flags[flags.index("--rank") + 1])
    base = ["extract", "--dataset", run.work, "--name", gen.NCI_NAME, *flags,
            "--seed", str(args.seed)]
    ref = os.path.join(run.work, f"reference.{fmt}")
    code, rss = run.child([sys.executable, "-m", "hypograph.cli", *base, "--out", ref],
                          "reference")
    run.op(code == 0, "reference extract failed")
    if code != 0:
        raise BenchError("\n".join(run.problems))
    problem = check_output(ref, fmt, rank, graphs)
    run.op(problem is None, f"output check: {problem}")
    out = os.path.join(run.work, f"timed.{fmt}")
    conf = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "argv": [*base, "--out", out], "out": out,
            "dataset": run.work, "name": gen.NCI_NAME}
    res, _ = run.worker(conf)
    run.absorb(res)
    want = sha_file(ref)
    run.op(res["hashes"] == [want],
           "timed outputs differ from the fresh-process reference "
           f"({len(res['hashes'])} distinct digests)")
    run_s = statistics.median(res["plain_s"])
    metrics = {
        "run_s": run_s,
        "graphs_per_s": totals["graphs"] / run_s,
        "ns_per_edge": run_s / totals["edges"] * 1e9,
        "peak_rss_mb": rss,
    }
    return {"metrics": metrics, "worker": res,
            "inputs": {**totals, "out_bytes": os.path.getsize(ref)}}


def large_graph_workload(run: Run) -> dict:
    args = run.args
    conf = {"workload": "large_graph", "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}
    once, rss = run.worker(conf, once=True)
    res, _ = run.worker(conf)
    run.absorb(res)
    run.op(res["hashes"] == once["hashes"],
           f"batch_features outputs differ ({len(set(res['hashes'] + once['hashes']))} digests)")
    run_s = statistics.median(res["plain_s"])
    metrics = {
        "run_s": run_s,
        "graphs_per_s": 1.0 / run_s,
        "ns_per_edge": run_s / gen.LARGE_EDGES * 1e9,
        "peak_rss_mb": rss,
    }
    return {"metrics": metrics, "worker": res,
            "inputs": {"graphs": 1, "nodes": gen.LARGE_NODES, "edges": gen.LARGE_EDGES}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that end children and clean up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "hypograph", "cli.py")):
        print("perfbench: no ./src/hypograph; run from the repository root", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=os.path.join(root, WORK_DIR))
    run = Run(args, root, work)
    try:
        out = large_graph_workload(run) if args.workload == "large_graph" else cli_workload(run)
    except BenchError as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass  # another run is still using it

    res = out["worker"]
    values = res["per_layer"] if args.trace else out["metrics"]
    if not args.trace:
        values["ok_frac"] = 1.0 - run.failed / run.attempted
        if res["setup_s"]:
            values["setup_s"] = statistics.median(res["setup_s"])
    missing = sorted(set(wanted) - set(values))
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 1
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "units_untraced": len(res["plain_s"]), "units_traced": len(res["traced_s"]),
            **out["inputs"], **res["versions"]}
    print("env " + json.dumps(info))
    for name, unit in wanted.items():
        print(f"{name:40s} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
