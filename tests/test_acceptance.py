"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 9 needs the NCI1 dataset in TU format; point HYPOGRAPH_DATA at
a directory containing NCI1/ (or place it under tests/data/) to enable
it.  Without the files the test is reported as skipped, not passed.
"""

import itertools
import os
import time

import numpy as np
import pytest

from conftest import random_labelled_graph
from hypograph.bench import degree_scaling, edge_scaling
from hypograph.cli import EXIT_OK, main
from hypograph.config import FeatureConfig
from hypograph.exact import (
    enumerate_walk_expectation,
    forward_diffusion_exact,
    graph_feature_exact,
    level_tensor,
    node_features_exact,
)
from hypograph.graphs import (
    AttentionParams,
    LabelledGraph,
    attention_transition,
    classic_diffusion,
    grid_graph,
    load_tu_dataset,
    transition_matrix,
)
from hypograph.layers import LayerParams, ModelConfig, init_params, l2_penalty, model_forward
from hypograph.lowrank import RankOneFunctional, batch_features
from hypograph.verify import make_transition, rel_err, run_equivalence_suite


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    suite = run_equivalence_suite(cases=216, seed=2024)
    elapsed = time.perf_counter() - start
    combos_covered = len(suite.buckets) == 24 and all(
        b.cases >= 1 for b in suite.buckets
    )
    ok = suite.passed and combos_covered and elapsed <= 60.0
    report(
        "criterion 1: low-rank recursion matches exact oracle",
        ok,
        f"216 cases, max rel err {suite.max_rel_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_walk_enumeration_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for case in range(20):
        g = random_labelled_graph(rng, max_nodes=6, max_dim=2)
        p = make_transition(g, ("uniform", "weighted", "attention")[case % 3], rng)
        k = int(rng.integers(0, 5))
        cfg = FeatureConfig(
            walk_length=k,
            max_degree=int(rng.integers(1, 4)),
            diff=bool(rng.integers(2)),
            zero_start=False,
            time_param=bool(rng.integers(2)),
        )
        feats = node_features_exact(g, p, cfg)
        for i in range(g.n):
            walk_sum = enumerate_walk_expectation(g, p, cfg, i)
            for m in range(cfg.max_degree + 1):
                diff = np.abs(walk_sum[m] - feats[i][m])
                scale = np.maximum(1.0, np.abs(feats[i][m]))
                worst = max(worst, float(np.max(diff / scale)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed <= 30.0
    report(
        "criterion 2: matrix powers equal explicit walk sums",
        ok,
        f"20 graphs, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_zerostart_correction():
    rng = np.random.default_rng(31)
    worst = 0.0
    for case in range(60):
        g = random_labelled_graph(rng, max_nodes=8, max_dim=3)
        p = make_transition(g, ("uniform", "weighted", "attention")[case % 3], rng)
        m_max = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        cfg = FeatureConfig(
            walk_length=k, max_degree=m_max, diff=bool(rng.integers(2)),
            zero_start=True, time_param=bool(rng.integers(2)),
        )
        dim = cfg.lift_dim(g.attr_dim)
        u = rng.standard_normal((m_max, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        ell = RankOneFunctional(u)
        corrected = batch_features(g, p, [ell], cfg)[:, m_max - 1]
        exact = node_features_exact(g, p, cfg)
        level = level_tensor(ell, m_max)
        for i in range(g.n):
            want = float(np.vdot(level, exact[i][m_max]))
            worst = max(worst, rel_err(float(corrected[i]), want))
    report(
        "criterion 3: start-point correction matches exact zero-started features",
        worst <= 1e-10,
        f"60 cases, max rel err {worst:.2e}",
    )


def test_criterion_4_degree1_matches_classic_diffusion():
    rng = np.random.default_rng(41)
    worst = 0.0
    for case in range(41):
        if case < 40:
            g = random_labelled_graph(rng, max_nodes=8, max_dim=3)
        else:
            # a larger graph: nnz = 19320
            g = grid_graph(70, attr_dim=2, seed=42)
        p = transition_matrix(g)
        k = int(rng.integers(1, 5))
        cfg = FeatureConfig(walk_length=k, max_degree=1, diff=True, zero_start=False)
        u = rng.standard_normal(g.attr_dim)
        got = batch_features(g, p, [RankOneFunctional(u[None, :])], cfg)[:, 0]
        want = (classic_diffusion(g, k) - g.attributes) @ u
        for i in range(g.n):
            worst = max(worst, rel_err(float(got[i]), float(want[i])))
    report(
        "criterion 4: degree-1 outputs equal projected classic diffusion",
        worst <= 1e-10,
        f"41 cases, max rel err {worst:.2e}",
    )


def test_criterion_5_invariance_suite():
    rng = np.random.default_rng(51)
    checks = []

    # translation invariance with increments and no start factor
    g = random_labelled_graph(rng, max_nodes=7, max_dim=2)
    shift = rng.integers(-3, 4, size=g.attr_dim).astype(float)
    shifted = g.with_attributes(g.attributes + shift)
    cfg_inv = FeatureConfig(walk_length=3, max_degree=2, rank=2, diff=True, zero_start=False)
    fs = [RankOneFunctional(rng.standard_normal((2, g.attr_dim))) for _ in range(2)]
    a = batch_features(g, transition_matrix(g), fs, cfg_inv)
    b = batch_features(shifted, transition_matrix(shifted), fs, cfg_inv)
    checks.append(("translation invariance", float(np.max(np.abs(a - b))) <= 1e-12))

    # stated witness: path 0-1 with attributes (0, 1) shifted by +1 changes
    # the zero-started features
    witness = LabelledGraph(2, [(0, 1)], [[0.0], [1.0]])
    wit_shift = witness.with_attributes(witness.attributes + 1.0)
    cfg_zs = FeatureConfig(walk_length=2, max_degree=2, diff=True, zero_start=True)
    fw = [RankOneFunctional(np.ones((2, 1)))]
    wa = batch_features(witness, transition_matrix(witness), fw, cfg_zs)
    wb = batch_features(wit_shift, transition_matrix(wit_shift), fw, cfg_zs)
    checks.append(("zero-start breaks translation invariance", float(np.max(np.abs(wa - wb))) > 1e-6))

    # permutation equivariance of node features, invariance of pooled features
    perm = rng.permutation(g.n)
    h = g.permuted(perm)
    cfg_p = FeatureConfig(walk_length=3, max_degree=2, rank=2, diff=True, zero_start=True)
    fa = batch_features(g, transition_matrix(g), fs, cfg_p)
    fb = batch_features(h, transition_matrix(h), fs, cfg_p)
    checks.append(("permutation equivariance", float(np.max(np.abs(fb[perm] - fa))) <= 1e-12))
    ga = graph_feature_exact(g, transition_matrix(g), cfg_p)
    gb = graph_feature_exact(h, transition_matrix(h), cfg_p)
    pooled = max(
        float(np.max(np.abs(ga[m] - gb[m]))) for m in range(3)
    )
    checks.append(("pooled feature invariance", pooled <= 1e-12))

    # forward/backward expectation consistency over all flag combos
    worst_fb = 0.0
    for case, (diff, tp) in enumerate(itertools.product([True, False], repeat=2)):
        gg = random_labelled_graph(rng, max_nodes=6, max_dim=2)
        p = make_transition(gg, ("uniform", "weighted", "attention")[case % 3], rng)
        cfg = FeatureConfig(
            walk_length=3, max_degree=2, diff=diff, zero_start=False, time_param=tp
        )
        back = node_features_exact(gg, p, cfg)
        fwd = forward_diffusion_exact(gg, p, cfg)
        for m in range(3):
            lhs = sum(back[i][m] for i in range(gg.n)) / gg.n
            rhs = sum(fwd[i][m] for i in range(gg.n))
            scale = np.maximum(1.0, np.abs(lhs))
            worst_fb = max(worst_fb, float(np.max(np.abs(lhs - rhs) / scale)))
    checks.append(("forward/backward consistency", worst_fb <= 1e-10))

    # end-distribution mass sums to one
    worst_mass = 0.0
    for _ in range(10):
        gg = random_labelled_graph(rng, max_nodes=7)
        p = transition_matrix(gg)
        cfg = FeatureConfig(walk_length=4, max_degree=1)
        fwd = forward_diffusion_exact(gg, p, cfg)
        mass = sum(float(fwd[i][0]) for i in range(gg.n))
        worst_mass = max(worst_mass, abs(mass - 1.0))
    checks.append(("walk mass conservation", worst_mass <= 1e-12))

    for name, ok in checks:
        report(f"criterion 5: {name}", ok)


def test_criterion_6_edge_linear_complexity():
    cfg = FeatureConfig(walk_length=5, max_degree=2, rank=8)
    rows = edge_scaling(cfg, 12, 18, repeats=5)
    ratios = [row.ratio for row in rows if row.ratio is not None]
    in_range = sum(1 for r in ratios if 1.5 <= r <= 2.5)
    detail = "ratios " + ", ".join(f"{r:.2f}" for r in ratios)
    report(
        "criterion 6: per-doubling time ratio in [1.5, 2.5] for >= 4 of 6",
        in_range >= 4,
        detail,
    )
    deg = degree_scaling(cfg, 15, degrees=(2, 4), repeats=5)
    report(
        "criterion 6: doubling max degree 2 -> 4 costs <= 5x",
        deg["ratio"] <= 5.0,
        f"ratio {deg['ratio']:.2f}",
    )


def test_criterion_7_attention_degeneracy_bit_for_bit():
    rng = np.random.default_rng(71)
    g = random_labelled_graph(rng, max_nodes=8, max_dim=3)
    zeroed = AttentionParams(np.zeros(g.attr_dim), np.zeros(g.attr_dim))
    p_att = attention_transition(g, zeroed)
    p_uni = transition_matrix(g)
    same_matrix = np.array_equal(p_att.values, p_uni.values)
    cfg = FeatureConfig(walk_length=3, max_degree=2, rank=3)
    base = init_params(g.attr_dim, cfg, 7)
    attended = LayerParams(base.vectors, base.mixing, base.bias, cfg, zeroed)
    out_uni = model_forward(g, ModelConfig((base,)))
    out_att = model_forward(g, ModelConfig((attended,)))
    report(
        "criterion 7: zeroed attention reproduces uniform walk bit-for-bit",
        same_matrix and np.array_equal(out_uni, out_att),
    )


def test_criterion_8_l2_penalty_matches_dense_norms():
    rng = np.random.default_rng(81)
    worst = 0.0
    for _ in range(20):
        d, m_max = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        rank = int(rng.integers(1, 4))
        cfg = FeatureConfig(walk_length=1, max_degree=m_max, rank=rank)
        fs = tuple(RankOneFunctional(rng.standard_normal((m_max, d))) for _ in range(rank))
        layer = LayerParams(fs, np.zeros((rank, rank * m_max)), np.zeros(rank), cfg)
        lam = float(rng.uniform(0.1, 2.0))
        dense = lam * sum(
            float(np.sum(level_tensor(f, m) ** 2))
            for f in fs
            for m in range(1, m_max + 1)
        )
        worst = max(worst, rel_err(l2_penalty(layer, lam), dense))
    report(
        "criterion 8: factored penalty equals dense tensor norms",
        worst <= 1e-12,
        f"max rel err {worst:.2e}",
    )


def _find_nci1():
    candidates = []
    env = os.environ.get("HYPOGRAPH_DATA")
    if env:
        candidates.append(env)
    here = os.path.dirname(os.path.abspath(__file__))
    candidates.append(os.path.join(here, "data"))
    for root in candidates:
        for probe in (
            os.path.join(root, "NCI1", "NCI1_A.txt"),
            os.path.join(root, "NCI1_A.txt"),
        ):
            if os.path.exists(probe):
                return root
    return None


def test_criterion_9_nci1_ingestion_and_extraction(tmp_path):
    root = _find_nci1()
    if root is None:
        pytest.skip(
            "criterion 9 SKIPPED: NCI1 dataset not present (set HYPOGRAPH_DATA or "
            "put the TU files under tests/data/NCI1); this sandbox has no network "
            "access to fetch it"
        )
    dataset = load_tu_dataset(root, "NCI1")
    count = len(dataset)
    mean_nodes = float(np.mean([g.n for g, _ in dataset]))
    report(
        "criterion 9: NCI1 loads with expected shape",
        4000 <= count <= 4200 and 25.0 <= mean_nodes <= 35.0,
        f"{count} graphs, mean nodes {mean_nodes:.1f}",
    )
    args = [
        "extract", "--dataset", root, "--name", "NCI1",
        "--walk-length", "5", "--max-degree", "2", "--rank", "128",
        "--layers", "4", "--seed", "0",
    ]
    out1, out2 = tmp_path / "nci1_a.csv", tmp_path / "nci1_b.csv"
    start = time.perf_counter()
    rc1 = main(args + ["--out", str(out1)])
    first = time.perf_counter() - start
    rc2 = main(args + ["--out", str(out2)])
    ok = (
        rc1 == EXIT_OK
        and rc2 == EXIT_OK
        and first <= 600.0
        and out1.read_bytes() == out2.read_bytes()
    )
    report(
        "criterion 9: end-to-end extraction is fast and deterministic",
        ok,
        f"4 layers, rank 128: {first:.0f}s",
    )


def _walk_distribution(g: LabelledGraph, k: int):
    """Enumerate the k-step walk distribution over attribute sequences."""
    p = transition_matrix(g)
    pattern = g.pattern
    dist: dict[tuple, float] = {}

    def descend(node, depth, seq, prob):
        if depth == k:
            key = tuple(seq)
            dist[key] = dist.get(key, 0.0) + prob
            return
        for e in range(pattern.indptr[node], pattern.indptr[node + 1]):
            j = int(pattern.indices[e])
            descend(j, depth + 1, seq + [tuple(g.attributes[j])], float(p.values[e]) * prob)

    for start in range(g.n):
        descend(start, 0, [tuple(g.attributes[start])], 1.0 / g.n)
    return dist


def _distributions_differ(d1: dict, d2: dict, tol=1e-12) -> bool:
    keys = set(d1) | set(d2)
    return any(abs(d1.get(key, 0.0) - d2.get(key, 0.0)) > tol for key in keys)


def test_criterion_10_walk_distribution_characterization():
    attrs = [[0.0], [1.0], [2.0]]
    path3 = LabelledGraph(3, [(0, 1), (1, 2)], attrs)
    tri = LabelledGraph(3, [(0, 1), (0, 2), (1, 2)], attrs)
    k = 2
    differs = _distributions_differ(_walk_distribution(path3, k), _walk_distribution(tri, k))
    report(
        "criterion 10: witness graphs have different 2-step walk distributions",
        differs,
    )
    cfg = FeatureConfig(walk_length=k, max_degree=3, diff=True, zero_start=True,
                        time_param=True)
    fa = graph_feature_exact(path3, transition_matrix(path3), cfg)
    fb = graph_feature_exact(tri, transition_matrix(tri), cfg)
    gap = max(float(np.max(np.abs(fa[m] - fb[m]))) for m in range(4))
    report(
        "criterion 10: pooled features separate the witness graphs",
        gap >= 1e-6,
        f"gap {gap:.2e}",
    )
    rng = np.random.default_rng(101)
    perm = rng.permutation(3)
    iso = tri.permuted(perm)
    fc = graph_feature_exact(iso, transition_matrix(iso), cfg)
    same = max(float(np.max(np.abs(fb[m] - fc[m]))) for m in range(4))
    report(
        "criterion 10: isomorphic copies give equal pooled features",
        same <= 1e-12,
        f"gap {same:.2e}",
    )
