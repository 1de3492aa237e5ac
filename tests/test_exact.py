from functools import reduce

import numpy as np
import pytest

from conftest import random_labelled_graph, seq_allclose
from hypograph.config import FeatureConfig
from hypograph.exact import (
    OracleScaleError,
    add,
    algebra_mul,
    level_tensor,
    lift,
    node_features_exact,
    scale,
    tensor_transition,
    unit,
)
from hypograph.graphs import LabelledGraph, transition_matrix, weighted_transition
from hypograph.graphs import classic_diffusion
from hypograph.verify import make_transition
from oracle_references import (
    WalkBudgetError,
    enumerate_walk_expectation,
    forward_diffusion_exact,
    graph_feature_exact,
    sequence_feature,
)


def cfg_of(**kw):
    defaults = dict(walk_length=1, max_degree=2, diff=True, zero_start=False)
    defaults.update(kw)
    return FeatureConfig(**defaults)


def entry(mat, i, j):
    for col, value in mat[i]:
        if col == j:
            return value
    raise KeyError((i, j))


def degree0(mat):
    """Scalar slice: the degree-0 level of every entry, as dense n x n."""
    out = np.zeros((len(mat), len(mat)))
    for i, row in enumerate(mat):
        for j, value in row:
            out[i, j] = value[0]
    return out


class TestTensorTransition:
    def test_triangle_scaling(self, triangle):
        p = transition_matrix(triangle)
        mat = tensor_transition(triangle, p, cfg_of())
        want = scale(lift(np.array([1.0]), cfg_of()), 0.5)
        for m in range(3):
            np.testing.assert_allclose(entry(mat, 0, 1)[m], want[m])

    def test_isolated_diagonal_is_unit(self):
        g = LabelledGraph(3, [(0, 1)], np.array([[0.0], [1.0], [5.0]]))
        mat = tensor_transition(g, transition_matrix(g), cfg_of())
        one = unit(1, 2)
        for m in range(3):
            np.testing.assert_array_equal(entry(mat, 2, 2)[m], one[m])

    def test_degree0_slice_reproduces_weighted_transition(self):
        rng = np.random.default_rng(1)
        g = random_labelled_graph(rng, edge_prob=0.7)
        if g.num_edges == 0:
            pytest.skip("no edges drawn")
        p = weighted_transition(g, rng.uniform(0.2, 2.0, size=g.num_edges))
        mat = tensor_transition(g, p, cfg_of())
        np.testing.assert_array_equal(degree0(mat), p.matrix.toarray())

    def test_pattern_mismatch_rejected(self, path2, triangle):
        p = transition_matrix(triangle)
        with pytest.raises(ValueError, match="pattern"):
            tensor_transition(path2, p, cfg_of())


class TestWalkEnumeration:
    def test_k0_is_unit(self, triangle):
        p = transition_matrix(triangle)
        out = enumerate_walk_expectation(triangle, p, cfg_of(walk_length=0), 0)
        one = unit(1, 2)
        for m in range(3):
            np.testing.assert_array_equal(out[m], one[m])

    def test_path_cancellation(self, path2):
        # two steps out and back: degree 1 cancels, degree 2 = 0.5 - 1 + 0.5 = 0
        p = transition_matrix(path2)
        out = enumerate_walk_expectation(path2, p, cfg_of(walk_length=2), 0)
        np.testing.assert_allclose(out[1], [0.0], atol=1e-15)
        np.testing.assert_allclose(out[2], [[0.0]], atol=1e-15)
        prod = algebra_mul(lift(np.array([1.0]), cfg_of()), lift(np.array([-1.0]), cfg_of()))
        for m in range(3):
            np.testing.assert_allclose(out[m], prod[m], atol=1e-15)

    def test_matches_matrix_powers_randomized(self):
        rng = np.random.default_rng(2)
        for case in range(20):
            g = random_labelled_graph(rng, max_nodes=6, max_dim=2)
            p = make_transition(g, ("uniform", "weighted", "attention")[case % 3], rng)
            cfg = cfg_of(
                walk_length=int(rng.integers(0, 5)),
                max_degree=int(rng.integers(1, 4)),
                diff=bool(rng.integers(2)),
                time_param=bool(rng.integers(2)),
            )
            feats = node_features_exact(g, p, cfg)
            for start in range(g.n):
                walk_sum = enumerate_walk_expectation(g, p, cfg, start)
                assert seq_allclose(walk_sum, feats[start], rtol=1e-10, atol=1e-12)

    def test_budget_guard(self):
        n = 30
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = LabelledGraph(n, edges, np.zeros((n, 1)))
        p = transition_matrix(g)
        with pytest.raises(WalkBudgetError):
            enumerate_walk_expectation(g, p, cfg_of(max_degree=1, walk_length=5), 0)


class TestNodeFeatures:
    def test_k0_zero_start_gives_lifts(self, triangle):
        p = transition_matrix(triangle)
        out = node_features_exact(triangle, p, cfg_of(walk_length=0, zero_start=True))
        for i in range(3):
            want = lift(triangle.attributes[i], cfg_of())
            for m in range(3):
                np.testing.assert_array_equal(out[i][m], want[m])

    def test_k0_no_zero_start_gives_units(self, triangle):
        p = transition_matrix(triangle)
        out = node_features_exact(triangle, p, cfg_of(walk_length=0, zero_start=False))
        one = unit(1, 2)
        for i in range(3):
            for m in range(3):
                np.testing.assert_array_equal(out[i][m], one[m])

    def test_zero_start_from_origin_attribute(self, path2):
        # start attribute 0 lifts to the unit, so the start factor is invisible
        p = transition_matrix(path2)
        out = node_features_exact(path2, p, cfg_of(walk_length=1, zero_start=True))
        want = lift(np.array([1.0]), cfg_of())
        for m in range(3):
            np.testing.assert_allclose(out[0][m], want[m])

    def test_single_deterministic_step(self, path2):
        p = transition_matrix(path2)
        out = node_features_exact(path2, p, cfg_of(walk_length=1))
        want = lift(np.array([1.0]), cfg_of())
        for m in range(3):
            np.testing.assert_allclose(out[0][m], want[m])

    def test_triangle_hand_values(self, triangle):
        p = transition_matrix(triangle)
        out = node_features_exact(triangle, p, cfg_of(walk_length=1))
        # node 0: (exp[1] + exp[2]) / 2 -> degree 1 = 1.5, degree 2 = 1.25
        np.testing.assert_allclose(out[0][1], [1.5])
        np.testing.assert_allclose(out[0][2], [[1.25]])

    def test_degree0_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = random_labelled_graph(rng, max_nodes=6)
            p = transition_matrix(g)
            out = node_features_exact(g, p, cfg_of(walk_length=3))
            for i in range(g.n):
                assert out[i][0] == pytest.approx(1.0, abs=1e-12)

    def test_degree1_matches_classic_diffusion(self):
        # increments, no start factor: degree 1 telescopes to P^k f - f
        rng = np.random.default_rng(4)
        for _ in range(5):
            g = random_labelled_graph(rng, max_nodes=7)
            p = transition_matrix(g)
            k = int(rng.integers(1, 4))
            out = node_features_exact(g, p, cfg_of(walk_length=k, zero_start=False))
            want = classic_diffusion(g, k) - g.attributes
            got = np.stack([out[i][1] for i in range(g.n)])
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        g = random_labelled_graph(rng, max_nodes=6)
        perm = rng.permutation(g.n)
        h = g.permuted(perm)
        cfg = cfg_of(walk_length=2, zero_start=True)
        fg = node_features_exact(g, transition_matrix(g), cfg)
        fh = node_features_exact(h, transition_matrix(h), cfg)
        for i in range(g.n):
            assert seq_allclose(fh[perm[i]], fg[i], rtol=1e-12, atol=1e-12)


class TestOracleGuard:
    @pytest.mark.parametrize("oracle", [node_features_exact, forward_diffusion_exact])
    @pytest.mark.parametrize("n, max_degree", [(65, 1), (2, 5)])
    def test_beyond_desk_scale_rejected(self, oracle, n, max_degree):
        g = LabelledGraph(n, [(i, i + 1) for i in range(n - 1)], np.zeros((n, 1)))
        with pytest.raises(OracleScaleError, match="oracle guard"):
            oracle(g, transition_matrix(g), cfg_of(walk_length=1, max_degree=max_degree))

    @pytest.mark.parametrize("oracle", [node_features_exact, forward_diffusion_exact])
    @pytest.mark.parametrize("n, max_degree", [(64, 1), (2, 4)])
    def test_desk_scale_bounds_accepted(self, oracle, n, max_degree):
        g = LabelledGraph(n, [(i, i + 1) for i in range(n - 1)], np.zeros((n, 1)))
        out = oracle(g, transition_matrix(g), cfg_of(walk_length=1, max_degree=max_degree))
        assert len(out) == n and len(out[0]) == max_degree + 1


class TestDeterministicWalkConsistency:
    """On a two-node path the walk is deterministic, so the diffusion
    features must equal the sequence feature of the literal attribute
    sequence the walker sees."""

    @pytest.mark.parametrize("diff", [True, False])
    @pytest.mark.parametrize("tp", [True, False])
    @pytest.mark.parametrize("k", [0, 1, 3, 4])
    def test_with_start_factor(self, diff, tp, k):
        rng = np.random.default_rng(17)
        g = LabelledGraph(2, [(0, 1)], rng.standard_normal((2, 2)))
        p = transition_matrix(g)
        cfg = FeatureConfig(
            walk_length=k, max_degree=3, diff=diff, zero_start=True, time_param=tp
        )
        feats = node_features_exact(g, p, cfg)
        for start in (0, 1):
            seen = g.attributes[[(start + t) % 2 for t in range(k + 1)]]
            want = sequence_feature(seen, cfg)
            assert seq_allclose(feats[start], want, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("tp", [True, False])
    def test_without_start_factor_increments(self, tp):
        k = 3
        rng = np.random.default_rng(18)
        g = LabelledGraph(2, [(0, 1)], rng.standard_normal((2, 2)))
        p = transition_matrix(g)
        cfg = FeatureConfig(
            walk_length=k, max_degree=3, diff=True, zero_start=False, time_param=tp
        )
        feats = node_features_exact(g, p, cfg)
        for start in (0, 1):
            seen = g.attributes[[(start + t) % 2 for t in range(k + 1)]]
            want = sequence_feature(seen, cfg)
            assert seq_allclose(feats[start], want, rtol=1e-12, atol=1e-13)


class TestGraphFeature:
    def test_single_isolated_node(self):
        g = LabelledGraph(1, [], np.array([[2.0, -1.0]]))
        p = transition_matrix(g)
        out = graph_feature_exact(g, p, cfg_of(walk_length=3, zero_start=True))
        want = lift(g.attributes[0], cfg_of())
        for m in range(3):
            np.testing.assert_allclose(out[m], want[m])

    def test_vertex_transitive_equal_attributes(self, triangle):
        g = triangle.with_attributes(np.full((3, 1), 2.0))
        p = transition_matrix(g)
        pooled = graph_feature_exact(g, p, cfg_of(walk_length=2, zero_start=True))
        per_node = node_features_exact(g, p, cfg_of(walk_length=2, zero_start=True))
        for i in range(3):
            assert seq_allclose(pooled, per_node[i], rtol=1e-12, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        g = random_labelled_graph(rng, max_nodes=6)
        h = g.permuted(rng.permutation(g.n))
        cfg = cfg_of(walk_length=2, zero_start=True)
        a = graph_feature_exact(g, transition_matrix(g), cfg)
        b = graph_feature_exact(h, transition_matrix(h), cfg)
        assert seq_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestForwardDiffusion:
    def test_k0_uniform_units(self, triangle):
        p = transition_matrix(triangle)
        out = forward_diffusion_exact(triangle, p, cfg_of(walk_length=0))
        for i in range(3):
            assert out[i][0] == pytest.approx(1.0 / 3.0)

    def test_degree0_is_end_distribution(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            g = random_labelled_graph(rng, max_nodes=6)
            p = transition_matrix(g)
            k = int(rng.integers(0, 4))
            out = forward_diffusion_exact(g, p, cfg_of(walk_length=k))
            mass = np.array([out[i][0] for i in range(g.n)])
            dense = np.linalg.matrix_power(p.matrix.toarray(), k)
            want = np.ones(g.n) / g.n @ dense
            np.testing.assert_allclose(mass, want, atol=1e-12)
            assert mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_path_single_step_split(self, path2):
        p = transition_matrix(path2)
        out = forward_diffusion_exact(path2, p, cfg_of(walk_length=1))
        assert out[0][0] == pytest.approx(0.5)
        assert out[1][0] == pytest.approx(0.5)

    def test_forward_backward_consistency(self):
        # mean of start-conditioned features == sum of end-conditioned entries
        rng = np.random.default_rng(8)
        for case in range(8):
            g = random_labelled_graph(rng, max_nodes=6)
            p = make_transition(g, ("uniform", "weighted", "attention")[case % 3], rng)
            cfg = cfg_of(
                zero_start=False,
                diff=bool(rng.integers(2)),
                time_param=bool(rng.integers(2)),
                walk_length=int(rng.integers(0, 4)),
            )
            back = node_features_exact(g, p, cfg)
            fwd = forward_diffusion_exact(g, p, cfg)
            acc_b = reduce(add, back)
            acc_f = reduce(add, fwd)
            assert seq_allclose(scale(acc_b, 1.0 / g.n), acc_f, rtol=1e-10, atol=1e-12)


def _walks_from(start, foreign=False):
    g = LabelledGraph(3, [(0, 1), (1, 2)], [[0.0], [1.0], [2.0]])
    p = transition_matrix(LabelledGraph(3, [(0, 1)], np.zeros((3, 1))) if foreign else g)
    return enumerate_walk_expectation(g, p, cfg_of(), start)


# name -> (the failing call, message)
RAISE_SITES = {
    "walk_start_negative": (lambda: _walks_from(-1), r"^start node -1 out of range$"),
    "walk_start_past_last": (lambda: _walks_from(3), r"^start node 3 out of range$"),
    "walk_foreign_pattern": (lambda: _walks_from(0, foreign=True),
                             r"^transition pattern does not match the graph$"),
    "level_degree_negative": (lambda: level_tensor(np.ones((2, 1)), -1),
                              r"^degree -1 out of range 0\.\.2$"),
    "level_degree_past_functional": (lambda: level_tensor(np.ones((2, 1)), 3),
                                     r"^degree 3 out of range 0\.\.2$"),
}


@pytest.mark.parametrize("case", sorted(RAISE_SITES))
def test_raise_site_names_the_fault(case):
    call, message = RAISE_SITES[case]
    with pytest.raises(ValueError, match=message):
        call()
