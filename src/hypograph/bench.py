"""Timing harness for the low-rank recursion's edge-linear scaling claim."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .config import FeatureConfig
from .graphs import LabelledGraph, grid_graph, path_graph, transition_matrix
from .lowrank import batch_features

LINEAR_RATIO_BOUND = 2.5


def time_batch(
    g: LabelledGraph, cfg: FeatureConfig, seed: int = 0, repeats: int = 5
) -> float:
    """Median wall-clock seconds of batch_features; one warm-up run discarded."""
    rng = np.random.default_rng(seed)
    dim = cfg.lift_dim(g.attr_dim)
    vectors = rng.standard_normal((cfg.rank, cfg.max_degree, dim))
    p = transition_matrix(g)
    batch_features(g, p, vectors, cfg)  # warm-up
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        batch_features(g, p, vectors, cfg)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


@dataclass
class BenchRow:
    edges: int
    seconds: float
    ns_per_edge: float
    ratio: float | None  # time growth per doubling of edges since the previous row
    linear: bool | None  # ratio within the edge-linear bound


def _grid_side(exp: int) -> int:
    """Side of the square grid with about 2^exp edges (it has 2 s (s - 1))."""
    return max(2, int(round((2**exp / 2) ** 0.5)))


def ladder_edges(min_exp: int, max_exp: int, topology: str) -> list[int]:
    """Edge count of each rung of the ladder.

    Raises ValueError unless the counts strictly grow, so that every rung
    after the first has a per-doubling time ratio.
    """
    exps = range(min_exp, max_exp + 1)
    if topology == "path":
        edges = [2**exp for exp in exps]
    elif topology == "grid":
        edges = [2 * side * (side - 1) for side in map(_grid_side, exps)]
    else:
        raise ValueError(f"topology must be 'path' or 'grid', got {topology!r}")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError(
            f"{topology} rungs for exponents {min_exp}..{max_exp} have "
            f"{', '.join(map(str, edges))} edges, which do not strictly grow"
        )
    return edges


def edge_scaling(
    min_exp: int = 12,
    max_exp: int = 18,
    walk_length: int = 5,
    max_degree: int = 2,
    rank: int = 8,
    repeats: int = 5,
    seed: int = 0,
    topology: str = "path",
) -> list[BenchRow]:
    """Time a geometric ladder of edge counts at fixed (k, M, R, d).

    A row's ratio is the time growth per doubling of the edge count,
    (t / t_prev) ** (1 / log2(E / E_prev)); on the path ladder E doubles
    every rung, so it is t / t_prev.
    """
    ladder_edges(min_exp, max_exp, topology)
    cfg = FeatureConfig(
        walk_length=walk_length, max_degree=max_degree, rank=rank, diff=True,
        zero_start=True,
    )
    rows: list[BenchRow] = []
    for exp in range(min_exp, max_exp + 1):
        if topology == "path":
            g = path_graph(2**exp, seed=seed)
        else:
            g = grid_graph(_grid_side(exp), seed=seed)
        seconds = time_batch(g, cfg, seed=seed, repeats=repeats)
        ratio = None
        if rows:
            doublings = math.log2(g.num_edges / rows[-1].edges)
            ratio = (seconds / rows[-1].seconds) ** (1.0 / doublings)
        rows.append(
            BenchRow(
                edges=g.num_edges,
                seconds=seconds,
                ns_per_edge=seconds / g.num_edges * 1e9,
                ratio=ratio,
                linear=None if ratio is None else ratio <= LINEAR_RATIO_BOUND,
            )
        )
    return rows


def degree_scaling(
    edges_exp: int = 15,
    walk_length: int = 5,
    rank: int = 8,
    degrees: tuple[int, int] = (2, 4),
    repeats: int = 5,
    seed: int = 0,
) -> dict:
    """Time the recursion at two tensor degrees on one fixed path graph."""
    g = path_graph(2**edges_exp, seed=seed)
    times = {}
    for deg in degrees:
        cfg = FeatureConfig(
            walk_length=walk_length, max_degree=deg, rank=rank, diff=True,
            zero_start=True,
        )
        times[deg] = time_batch(g, cfg, seed=seed, repeats=repeats)
    lo, hi = degrees
    return {
        "edges": g.num_edges,
        "seconds": times,
        "ratio": times[hi] / times[lo],
    }
