"""Timed and traced units of one workload, run inside one pinned child process.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the package
sources and BLAS pinned to one thread, passes a JSON config, and reads a
JSON result file back.  A unit is one ``hypograph extract`` from ``main()``
entry to exit (CLI workloads) or one ``batch_features`` call (large_graph).

With ``trace`` set, untraced and traced units alternate, and the traced
ones wrap the package's public entry points, under the names their callers
use, in spans kept in memory.  A span's self time is its duration minus
the durations of the spans it directly contains.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np
import scipy

import gen

import hypograph
import hypograph.cli
import hypograph.layers
from hypograph.config import FeatureConfig
from hypograph.graphs import (
    AttentionParams,
    LabelledGraph,
    attention_transition,
    classic_diffusion,
    load_tu_dataset,
    transition_matrix,
)
from hypograph.lowrank import RankOneFunctional
from hypograph.verify import TOLERANCE, case_error

MIN_UNITS = 3  # timed units per run even when --seconds is short
WORKER_DEADLINE_S = 120.0  # stop starting units after this, to end within 180 s
SETUP_SAMPLES = 7  # set-up samples per untraced run
ORACLE_GRAPHS = 8  # sampled graphs, each checked with two transitions
ORACLE_MAX_NODES = 24  # below the oracle's n <= 64 guard, to keep the gate short
ORACLE_RANK = 2

# k, M, R of the `bench` ladder, used by large_graph
LARGE_CFG = FeatureConfig(walk_length=5, max_degree=2, rank=8, diff=True, zero_start=True)

# span name -> where it is wrapped: (module, attribute) pairs
SPANS = {
    "graphs.load_tu_dataset": [(hypograph.cli, "load_tu_dataset")],
    "layers.model_forward": [(hypograph.cli, "model_forward")],
    # model_forward calls layer_forward through its own module
    "layers.layer_forward": [(hypograph.cli, "layer_forward"), (hypograph.layers, "layer_forward")],
    "graphs.transition_matrix": [(hypograph.layers, "transition_matrix")],
    "graphs.attention_transition": [(hypograph.layers, "attention_transition")],
    "lowrank.batch_features": [(hypograph.layers, "batch_features"), (hypograph, "batch_features")],
}
ROOT_SPAN = {"nci_extract": "cli.main", "nodes_jsonl": "cli.main", "large_graph": "lowrank.batch_features"}
# spans that must record calls in every traced unit of the workload
EXPECTED_SPANS = {
    "nci_extract": [
        "cli.main", "graphs.load_tu_dataset", "layers.model_forward",
        "layers.layer_forward", "graphs.transition_matrix", "lowrank.batch_features",
    ],
    "nodes_jsonl": [
        "cli.main", "graphs.load_tu_dataset", "layers.layer_forward",
        "graphs.attention_transition", "lowrank.batch_features",
    ],
    "large_graph": ["lowrank.batch_features"],
}
ALL_SPANS = ["cli.main", *SPANS]


class Tracer:
    """In-memory spans around wrapped callables, with per-span counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, raised]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None, False])
            self._stack.append(idx)
            self.spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[idx][4] = True
                raise
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name, args, result):
        if name == "graphs.load_tu_dataset":
            self.counts["nodes"] += sum(g.n for g, _ in result)
        elif name == "lowrank.batch_features":
            _, p, functionals, cfg = args
            steps = p.pattern.nnz * cfg.walk_length * len(functionals)
            self.counts["edge_steps"] += steps
            self.counts["bytes_computed"] += steps * (cfg.max_degree + 1) * 8

    def install(self):
        for name, targets in SPANS.items():
            for module, attr in targets:
                original = getattr(module, attr)
                self._patches.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, errors, total and self seconds, durations."""
        out = {
            name: {"calls": 0, "errors": 0, "total": 0.0, "self": 0.0, "durations": []}
            for name in ALL_SPANS
        }
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for idx, (name, start, end, _, raised) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["errors"] += int(raised)
            rec["total"] += end - start
            rec["self"] += end - start - child[idx]
            rec["durations"].append(end - start)
        return out


def _sha(path_or_array) -> str:
    if isinstance(path_or_array, np.ndarray):
        return hashlib.sha256(path_or_array.tobytes()).hexdigest()
    with open(path_or_array, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class CliUnit:
    """One `hypograph extract` from main() entry to exit, output hashed after."""

    def __init__(self, conf):
        self.argv = conf["argv"]
        self.out = conf["out"]

    def run(self, call):
        code = call(self.argv)
        if code != 0:
            raise RuntimeError(f"extract exited {code}")

    def digest(self, _):
        return _sha(self.out)

    def root(self, tracer):
        return tracer.wrap("cli.main", hypograph.cli.main)

    @staticmethod
    def setup():
        """Interpreter start plus `import hypograph.cli` in a fresh process."""
        start = time.perf_counter()
        code = subprocess.run([sys.executable, "-c", "import hypograph.cli"]).returncode
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"import probe exited {code}")
        return elapsed

    @staticmethod
    def plain():
        return hypograph.cli.main


class GraphUnit:
    """One batch_features call on the large graph and a transition built once."""

    def __init__(self, conf):
        self.inputs = gen.large_graph_inputs(conf["seed"])
        self.setup()
        rng = np.random.default_rng([conf["seed"], 1])
        dim = LARGE_CFG.lift_dim(self.g.attr_dim)
        self.functionals = [
            RankOneFunctional(rng.standard_normal((LARGE_CFG.max_degree, dim)))
            for _ in range(LARGE_CFG.rank)
        ]
        self.first = None

    def run(self, call):
        return call(self.g, self.p, self.functionals, LARGE_CFG)

    def digest(self, feats):
        if self.first is None:
            self.first = feats
        return _sha(feats)

    def root(self, tracer):
        # the tracer already wraps this name; the wrapper is the root span
        return hypograph.batch_features

    def setup(self):
        """Build the graph, its pattern and its uniform transition."""
        start = time.perf_counter()
        g = LabelledGraph(*self.inputs)
        g.pattern
        p = transition_matrix(g)
        elapsed = time.perf_counter() - start
        self.g, self.p = g, p
        return elapsed

    @staticmethod
    def plain():
        return hypograph.batch_features


def _attempt(fn, rec: dict):
    """Call fn once; count the attempt, and its failure with the reason."""
    rec["attempted"] += 1
    try:
        return fn()
    except Exception as exc:  # a failed operation counts against ok_frac
        rec["failed"] += 1
        rec["errors"].append(f"{type(exc).__name__}: {exc}")
        return None


def _timed(unit, call, rec: dict):
    """Run one unit; return its seconds and record its output hash."""
    def timed():
        start = time.perf_counter()
        output = unit.run(call)
        elapsed = time.perf_counter() - start
        rec["hashes"].add(unit.digest(output))
        return elapsed

    return _attempt(timed, rec)


def run_units(unit, conf) -> dict:
    """Timed units for conf["seconds"]; untraced runs also take set-up samples
    spread evenly over that time, so that they see the same machine phases."""
    rec = {"attempted": 0, "failed": 0, "errors": [], "hashes": set(),
           "plain_s": [], "traced_s": [], "traces": [], "setup_s": []}
    began = time.perf_counter()
    warm = _timed(unit, unit.plain(), rec)  # caches, lazy imports, page cache
    if not conf["trace"]:
        _attempt(unit.setup, rec)  # a fresh checkout compiles bytecode here
    stride = max(1, round(conf["seconds"] / (warm or 1.0) / SETUP_SAMPLES))
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(rec["plain_s"])
        if (elapsed >= conf["seconds"] and done >= MIN_UNITS) or (
            time.perf_counter() - began > WORKER_DEADLINE_S and done >= 1
        ):
            break
        t = _timed(unit, unit.plain(), rec)
        if t is not None:
            rec["plain_s"].append(t)
        if not conf["trace"] and done % stride == 0:
            t = _attempt(unit.setup, rec)
            if t is not None:
                rec["setup_s"].append(t)
        if conf["trace"]:
            tracer = Tracer()
            tracer.install()
            try:
                t = _timed(unit, unit.root(tracer), rec)
            finally:
                tracer.uninstall()
            # failed traced units are kept too, for the per-span error counts
            rec["traces"].append((tracer.summary(), dict(tracer.counts), t))
            if t is not None:
                rec["traced_s"].append(t)
    return rec


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def per_layer(workload: str, rec: dict, out_bytes: int) -> dict:
    """Per-layer metrics from the traced units; medians over units."""
    ok = [(s, c, t) for s, c, t in rec["traces"] if t is not None]
    summaries = [s for s, _, _ in ok]
    root = ROOT_SPAN[workload]
    for idx, s in enumerate(summaries):
        for name in EXPECTED_SPANS[workload]:
            if s[name]["calls"] == 0:
                raise SystemExit(
                    f"trace: span {name} recorded no calls in traced unit {idx}; "
                    "an entry point is no longer reached under its wrapped name"
                )
        if s[root]["calls"] != 1:
            raise SystemExit(f"trace: root span {root} entered {s[root]['calls']} times")

    def per_unit(fn):
        return _median([fn(s, c, t) for s, c, t in ok])

    def pooled(name):
        return np.concatenate([s[name]["durations"] for s in summaries] or [[]])

    def pct(name, q, scale):
        d = pooled(name)
        return float(np.percentile(d, q) * scale) if d.size else 0.0

    def rate(num, den):
        return num / den if den > 0 else 0.0

    def transition(s):
        return s["graphs.transition_matrix"], s["graphs.attention_transition"]

    load = "graphs.load_tu_dataset"
    bf = "lowrank.batch_features"
    m = {
        "graphs.load_tu_dataset.s": per_unit(lambda s, c, t: s[load]["total"]),
        "graphs.load_tu_dataset.nodes_per_s": per_unit(
            lambda s, c, t: rate(c.get("nodes", 0), s[load]["total"])),
        "graphs.transition.s": per_unit(lambda s, c, t: sum(x["total"] for x in transition(s))),
        "graphs.transition.calls": per_unit(lambda s, c, t: sum(x["calls"] for x in transition(s))),
        "lowrank.batch_features.s": per_unit(lambda s, c, t: s[bf]["total"]),
        "lowrank.batch_features.calls": per_unit(lambda s, c, t: s[bf]["calls"]),
        "lowrank.batch_features.p50_us": pct(bf, 50, 1e6),
        "lowrank.batch_features.p99_us": pct(bf, 99, 1e6),
        "lowrank.edge_steps": per_unit(lambda s, c, t: c.get("edge_steps", 0)),
        "lowrank.ns_per_edge_step": per_unit(
            lambda s, c, t: rate(s[bf]["total"] * 1e9, c.get("edge_steps", 0))),
        "lowrank.bytes_computed": per_unit(lambda s, c, t: c.get("bytes_computed", 0)),
        "layers.layer_forward.self_s": per_unit(lambda s, c, t: s["layers.layer_forward"]["self"]),
        "layers.model_forward.self_s": per_unit(lambda s, c, t: s["layers.model_forward"]["self"]),
        "layers.model_forward.p50_ms": pct("layers.model_forward", 50, 1e3),
        "layers.model_forward.p99_ms": pct("layers.model_forward", 99, 1e3),
        "cli.main.self_s": per_unit(lambda s, c, t: s["cli.main"]["self"]),
        "cli.out_bytes": float(out_bytes),
        "cli.out_mb_per_s": per_unit(
            lambda s, c, t: rate(out_bytes / 1e6, s["cli.main"]["self"])),
    }
    for name in ALL_SPANS:
        m[f"{name}.errors"] = float(sum(s[name]["errors"] for s, _, _ in rec["traces"]))
    traced = _median(rec["traced_s"])
    m["trace.run_s"] = traced
    m["trace.overhead_s"] = traced - _median(rec["plain_s"])
    # self times of all spans cover the root span; the rest is wrapper cost
    m["trace.accounted_frac"] = per_unit(
        lambda s, c, t: sum(x["self"] for x in s.values()) / t)
    return m


def oracle_gate(conf) -> list:
    """case_error on small dataset graphs, uniform and attention transitions."""
    dataset = load_tu_dataset(conf["dataset"], conf["name"])
    sample = [g for g, _ in dataset if g.n <= ORACLE_MAX_NODES][:ORACLE_GRAPHS]
    cfg = FeatureConfig(walk_length=5, max_degree=2, rank=ORACLE_RANK)
    rng = np.random.default_rng([conf["seed"], 2])
    cases = []
    for gi, g in enumerate(sample):
        dim = cfg.lift_dim(g.attr_dim)
        functionals = []
        for _ in range(ORACLE_RANK):
            vec = rng.standard_normal((cfg.max_degree, dim))
            functionals.append(RankOneFunctional(vec / np.linalg.norm(vec, axis=1, keepdims=True)))
        heads = (rng.standard_normal((8, g.attr_dim)), rng.standard_normal((8, g.attr_dim)))
        for kind, p in (
            ("uniform", transition_matrix(g)),
            ("attention", attention_transition(g, AttentionParams(*heads))),
        ):
            err = case_error(g, p, cfg, functionals, cfg.walk_length)
            cases.append({"gate": f"oracle graph#{gi} n={g.n} {kind}", "ok": err <= TOLERANCE,
                          "detail": f"max error {err:.3e}"})
    if len(sample) < ORACLE_GRAPHS:
        cases.append({"gate": "oracle sample size", "ok": False,
                      "detail": f"only {len(sample)} graphs with n <= {ORACLE_MAX_NODES}"})
    return cases


def diffusion_gate(unit: GraphUnit) -> list:
    """Degree 1 with diff and zero_start telescopes to P^k F projected on u_M."""
    if unit.first is None:
        return [{"gate": "diffusion", "ok": False, "detail": "no successful unit"}]
    diffused = classic_diffusion(unit.g, LARGE_CFG.walk_length)
    m_max = LARGE_CFG.max_degree
    cases = []
    for j, f in enumerate(unit.functionals):
        want = diffused @ f.vectors[m_max - 1]
        got = unit.first[:, j * m_max]
        # verify.rel_err, vectorised over nodes
        err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
        cases.append({"gate": f"diffusion functional#{j}", "ok": err <= TOLERANCE,
                      "detail": f"max error {err:.3e}"})
    return cases


def versions() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("config", help="JSON config written by run.py")
    ap.add_argument("result", help="where to write the JSON result")
    ap.add_argument("--once", action="store_true",
                    help="large_graph: set up and run one untimed unit (peak memory probe)")
    args = ap.parse_args()
    with open(args.config, encoding="utf-8") as fh:
        conf = json.load(fh)
    workload = conf["workload"]
    if args.once:
        unit = GraphUnit(conf)
        digest = unit.digest(unit.run(unit.plain()))
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"hashes": [digest]}, fh)
        return 0
    unit = GraphUnit(conf) if workload == "large_graph" else CliUnit(conf)
    rec = run_units(unit, conf)
    result = {
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "errors": rec["errors"][:5],
        "hashes": sorted(rec["hashes"]),
        "plain_s": rec["plain_s"],
        "traced_s": rec["traced_s"],
        "setup_s": rec["setup_s"],
        "versions": versions(),
    }
    if workload == "large_graph":
        result["gates"] = diffusion_gate(unit)
        out_bytes = 0
    else:
        result["gates"] = oracle_gate(conf)
        out_bytes = os.path.getsize(conf["out"])
    if conf["trace"]:
        result["per_layer"] = per_layer(workload, rec, out_bytes)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
