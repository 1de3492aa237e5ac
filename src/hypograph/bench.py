"""Timing harness for the low-rank recursion's edge-linear scaling claim."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import lowrank, processes
from .config import FeatureConfig
from .graphs import LabelledGraph, grid_graph, path_graph, transition_matrix

LINEAR_RATIO_BOUND = 2.5


def _timer(g: LabelledGraph, cfg: FeatureConfig):
    """Zero-argument callable returning the wall-clock seconds of one
    batch_features run in a process set up as extract's
    (processes.set_up_process): freed arrays are not faulted in again on
    every run, and BLAS computes on one thread.  One warm-up run is made
    and discarded here."""
    vectors = np.random.default_rng(0).standard_normal(cfg.functional_shape(g.attr_dim))
    p = transition_matrix(g)
    processes.set_up_process()

    def run() -> float:
        start = time.perf_counter()
        lowrank.batch_features(g, p, vectors, cfg)
        return time.perf_counter() - start

    run()  # warm-up
    return run


def _rounds(runs, repeats: int) -> np.ndarray:
    """The (repeats, len(runs)) seconds of ``repeats`` rounds, each calling
    every run once, in order; a burst of host load then slows one round of
    every run, not every repeat of one."""
    return np.array([[run() for run in runs] for _ in range(repeats)])


@dataclass
class BenchRow:
    edges: int
    seconds: float
    ns_per_edge: float
    ratio: float | None  # time growth per doubling of edges since the previous row


def _grid_side(exp: int) -> int:
    """Side of the square grid with about 2^exp edges (it has 2 s (s - 1))."""
    return max(2, int(round((2**exp / 2) ** 0.5)))


def _ladder(min_exp: int, max_exp: int, topology: str) -> list:
    """(edge count, zero-argument graph builder) of each rung of the ladder.

    Raises ValueError unless the counts strictly grow, so that every rung
    after the first has a per-doubling time ratio.
    """
    exps = range(min_exp, max_exp + 1)
    if topology == "path":
        rungs = [(2**exp, partial(path_graph, 2**exp, seed=0)) for exp in exps]
    elif topology == "grid":
        sides = map(_grid_side, exps)
        rungs = [(2 * s * (s - 1), partial(grid_graph, s, seed=0)) for s in sides]
    else:
        raise ValueError(f"topology must be 'path' or 'grid', got {topology!r}")
    edges = [e for e, _ in rungs]
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError(
            f"{topology} rungs for exponents {min_exp}..{max_exp} have "
            f"{', '.join(map(str, edges))} edges, which do not strictly grow"
        )
    return rungs


def ladder_edges(min_exp: int, max_exp: int, topology: str) -> list[int]:
    """Edge count of each rung of the ladder; raises as :func:`_ladder`."""
    return [edges for edges, _ in _ladder(min_exp, max_exp, topology)]


def edge_scaling(
    cfg: FeatureConfig,
    min_exp: int = 12,
    max_exp: int = 18,
    repeats: int = 5,
    topology: str = "path",
) -> list[BenchRow]:
    """Time a geometric ladder of edge counts at the fixed settings ``cfg``.

    Each rung is built and given its timer in turn, so every rung after
    the first is built in the set-up process; then ``repeats`` interleaved
    rounds time each rung once, and a rung reports its median over the
    rounds.  A row's ratio is the time growth per doubling of the edge
    count, (t / t_prev) ** (1 / log2(E / E_prev)); on the path ladder E
    doubles every rung, so it is t / t_prev.
    """
    rungs = _ladder(min_exp, max_exp, topology)
    medians = np.median(_rounds([_timer(build(), cfg) for _, build in rungs], repeats), axis=0)
    rows: list[BenchRow] = []
    for (edges, _), seconds in zip(rungs, medians.tolist()):
        ratio = None
        if rows:
            doublings = math.log2(edges / rows[-1].edges)
            ratio = (seconds / rows[-1].seconds) ** (1.0 / doublings)
        rows.append(BenchRow(edges, seconds, seconds / edges * 1e9, ratio))
    return rows


def degree_scaling(cfg: FeatureConfig, edges_exp: int = 15, repeats: int = 5) -> dict:
    """Time the recursion at tensor degrees 2 and 4 on one fixed path
    graph, in ``repeats`` interleaved rounds (see :func:`_rounds`); the
    ratio is the median per-round ratio, so a burst of host load slows both
    degrees of a round, not one degree.  Every other setting is taken from
    ``cfg``, whose ``max_degree`` is replaced by each degree in turn."""
    g = path_graph(2**edges_exp, seed=0)
    degrees = (2, 4)
    pairs = _rounds([_timer(g, replace(cfg, max_degree=deg)) for deg in degrees], repeats)
    return {
        "edges": g.num_edges,
        "seconds": dict(zip(degrees, np.median(pairs, axis=0).tolist())),
        "ratio": float(np.median(pairs[:, 1] / pairs[:, 0])),
    }
