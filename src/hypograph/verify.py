"""Randomized equivalence suite: low-rank recursion vs. the exact oracle.

Each case draws a small random graph, a transition matrix (uniform,
weighted, or attention), a variation-flag combination, and unit-norm
rank-1 functionals, then compares every functional degree per node
between the production recursion and dense-tensor inner products against
the exact features.  The error metric is absolute below magnitude one and
relative above it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .config import FeatureConfig
from .exact import level_tensor, node_features_exact
from .graphs import (
    AttentionParams,
    LabelledGraph,
    attention_transition,
    transition_matrix,
    weighted_transition,
)
from .lowrank import batch_features

TOLERANCE = 1e-10
TRANSITION_KINDS = ("uniform", "weighted", "attention")
# every case draws its node count from 2..MAX_NODES, its walk length from
# 0..MAX_WALK and its degree from 1..MAX_DEGREE; degree 3 is the first to
# run a chain between the shortest and the full-length one
MAX_NODES = 8
MAX_WALK = 4
MAX_DEGREE = 3
RANK = 4


def rel_err(got: float, want: float) -> float:
    """|got - want| scaled by max(1, |want|)."""
    return abs(got - want) / max(1.0, abs(want))


def random_graph(rng: np.random.Generator, max_nodes: int, max_dim: int = 3) -> LabelledGraph:
    """Random labelled graph; may contain isolated nodes."""
    n = int(rng.integers(2, max_nodes + 1))
    d = int(rng.integers(1, max_dim + 1))
    prob = rng.uniform(0.25, 0.8)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob
    ]
    return LabelledGraph(n, edges, rng.standard_normal((n, d)))


def make_transition(g: LabelledGraph, kind: str, rng: np.random.Generator):
    if kind == "uniform":
        return transition_matrix(g)
    if kind == "weighted":
        weights = {tuple(e): float(rng.uniform(0.1, 3.0)) for e in g.edges}
        return weighted_transition(g, weights)
    if kind == "attention":
        params = AttentionParams(
            rng.standard_normal(g.attr_dim), rng.standard_normal(g.attr_dim)
        )
        return attention_transition(g, params)
    raise ValueError(f"unknown transition kind {kind!r}")


def flag_label(cfg: FeatureConfig) -> str:
    bits = [
        "diff" if cfg.diff else "nodiff",
        "zerostart" if cfg.zero_start else "nozerostart",
        "timeparam" if cfg.time_param else "notimeparam",
    ]
    return "+".join(bits)


@dataclass
class ConfigReport:
    """Worst error seen for one (transition kind, flag combo) bucket."""

    transition: str
    flags: str
    cases: int = 0
    max_rel_err: float = 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= TOLERANCE


@dataclass
class SuiteReport:
    cases: int
    elapsed: float
    buckets: list[ConfigReport] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((b.max_rel_err for b in self.buckets), default=0.0)

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.buckets)


def case_error(g: LabelledGraph, p, cfg: FeatureConfig, functionals, k: int) -> float:
    """Worst entry error of the low-rank features against the oracle, for
    an (R, M, dim) array-like of functionals as :func:`batch_features` takes.

    Both sides read the walk length from ``cfg``; ``k`` must repeat it.
    """
    if k != cfg.walk_length:
        raise ValueError(f"k={k} differs from cfg.walk_length={cfg.walk_length}")
    vectors = np.asarray(functionals, dtype=np.float64)
    low = batch_features(g, p, vectors, cfg)
    exact = node_features_exact(g, p, cfg)
    m_max = cfg.max_degree
    worst = 0.0
    for j, u in enumerate(vectors):
        for m in range(1, m_max + 1):
            level = level_tensor(u, m)
            for i in range(g.n):
                want = float(np.vdot(level, exact[i][m]))
                got = float(low[i, j * m_max + (m - 1)])
                worst = max(worst, rel_err(got, want))
    return worst


def run_equivalence_suite(cases: int = 200, seed: int = 0) -> SuiteReport:
    """Run the randomized suite and aggregate errors per configuration.

    Every case cycles through the three transition kinds and all eight
    variation-flag combinations, so each (kind, flags) bucket is hit
    roughly cases/24 times.  Node counts, walk lengths, degrees and the
    rank follow MAX_NODES, MAX_WALK, MAX_DEGREE and RANK.
    """
    rng = np.random.default_rng(seed)
    combos = list(itertools.product([True, False], repeat=3))
    buckets: dict[tuple[str, str], ConfigReport] = {}
    start = time.perf_counter()
    for case in range(cases):
        g = random_graph(rng, MAX_NODES)
        kind = TRANSITION_KINDS[case % len(TRANSITION_KINDS)]
        p = make_transition(g, kind, rng)
        diff, zero_start, time_param = combos[(case // len(TRANSITION_KINDS)) % len(combos)]
        k = int(rng.integers(0, MAX_WALK + 1))
        m_deg = int(rng.integers(1, MAX_DEGREE + 1))
        cfg = FeatureConfig(
            walk_length=k,
            max_degree=m_deg,
            rank=RANK,
            diff=diff,
            zero_start=zero_start,
            time_param=time_param,
        )
        functionals = rng.standard_normal(cfg.functional_shape(g.attr_dim))
        functionals /= np.linalg.norm(functionals, axis=-1, keepdims=True)
        err = case_error(g, p, cfg, functionals, cfg.walk_length)
        key = (kind, flag_label(cfg))
        bucket = buckets.setdefault(key, ConfigReport(kind, flag_label(cfg)))
        bucket.cases += 1
        bucket.max_rel_err = max(bucket.max_rel_err, err)
    elapsed = time.perf_counter() - start
    ordered = [buckets[key] for key in sorted(buckets)]
    return SuiteReport(cases=cases, elapsed=elapsed, buckets=ordered)
