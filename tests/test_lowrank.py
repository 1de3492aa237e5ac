import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_labelled_graph
from hypograph.config import FeatureConfig
from hypograph.exact import level_tensor, node_features_exact
from hypograph.graphs import LabelledGraph, disjoint_union, transition_matrix
from hypograph.lowrank import NonFiniteError, RankOneFunctional, batch_features
from hypograph.verify import TOLERANCE, case_error, make_transition


def cfg_of(**kw):
    defaults = dict(walk_length=1, max_degree=1, diff=True, zero_start=False)
    defaults.update(kw)
    return FeatureConfig(**defaults)


class TestRankOneFunctional:
    def test_level_tensor_is_suffix_outer_product(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((3, 2))
        f = RankOneFunctional(u)
        np.testing.assert_allclose(level_tensor(f, 1), u[2])
        np.testing.assert_allclose(level_tensor(f, 2), np.multiply.outer(u[1], u[2]))
        np.testing.assert_allclose(
            level_tensor(f, 3), np.multiply.outer(np.multiply.outer(u[0], u[1]), u[2])
        )
        assert level_tensor(f, 0) == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RankOneFunctional(np.array([[np.inf]]))

    @pytest.mark.parametrize("zero_start", [True, False])
    def test_list_matches_stacked_array(self, zero_start):
        # perfbench/worker.py passes lists of functionals to both entry points
        rng = np.random.default_rng(9)
        g = random_labelled_graph(rng, max_nodes=7)
        p = make_transition(g, "attention", rng)
        cfg = FeatureConfig(walk_length=3, max_degree=2, rank=3, zero_start=zero_start)
        vectors = rng.standard_normal((3, 2, g.attr_dim))
        fs = [RankOneFunctional(u) for u in vectors]
        feats = batch_features(g, p, vectors, cfg)
        assert np.array_equal(batch_features(g, p, fs, cfg), feats)
        err = case_error(g, p, cfg, vectors, cfg.walk_length)
        assert case_error(g, p, cfg, fs, cfg.walk_length) == err <= 1e-10


def _zero_width_batch():
    g = LabelledGraph(2, [(0, 1)], np.zeros((2, 0)))
    batch_features(g, transition_matrix(g), np.ones((1, 1, 0)), cfg_of())


# name -> (the failing call, message)
RAISE_SITES = {
    "functional_1d": (lambda: RankOneFunctional(np.ones(3)),
                      r"^vectors must be \(M, dim\), got \(3,\)$"),
    "functional_without_rows": (lambda: RankOneFunctional(np.ones((0, 2))),
                                r"^vectors must be \(M, dim\), got \(0, 2\)$"),
    "functional_without_columns": (lambda: RankOneFunctional(np.ones((2, 0))),
                                   r"^vectors must be \(M, dim\), got \(2, 0\)$"),
    "functional_3d": (lambda: RankOneFunctional(np.ones((1, 2, 1))),
                      r"^vectors must be \(M, dim\), got \(1, 2, 1\)$"),
    # zero-width attributes leave no lift dimension, so no functional fits
    "batch_zero_width_attributes": (
        _zero_width_batch,
        r"^functionals must be a non-empty \(R, M, dim\) = \(1, 1, 0\) array, got \(1, 1, 0\)$",
    ),
}


@pytest.mark.parametrize("case", sorted(RAISE_SITES))
def test_raise_site_names_the_fault(case):
    call, message = RAISE_SITES[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_case_error_rejects_walk_length_other_than_config():
    # both sides read k from cfg, so a different k would mean two operators
    g = LabelledGraph(2, [(0, 1)], np.zeros((2, 1)))
    cfg = FeatureConfig(walk_length=3)
    with pytest.raises(ValueError, match=r"^k=2 differs from cfg.walk_length=3$"):
        case_error(g, transition_matrix(g), cfg, np.ones((1, 1, 1)), 2)


def features(g, u, cfg, p=None):
    """batch_features for a single functional given by its (M, dim) vectors."""
    p = transition_matrix(g) if p is None else p
    return batch_features(g, p, [RankOneFunctional(u)], cfg)


class TestCuMatrix:
    """Projection values <u, lift input of i->j>, read through one walk step.

    With walk length 1, degree 1 and no start factor, node i's feature is
    sum_j P_ij <u, input i->j>; every row below has one entry or equal ones.
    """

    def test_path_signs(self, path2):
        out = features(path2, np.array([[1.0]]), cfg_of())
        np.testing.assert_array_equal(out[:, 0], [1.0, -1.0])

    def test_zero_vector_gives_zero_matrix(self, triangle):
        out = features(triangle, np.zeros((1, 1)), cfg_of())
        assert triangle.pattern.nnz == 6 and not out.any()

    def test_time_unit_vector_gives_ones_on_pattern(self):
        g = LabelledGraph(3, [(0, 1)], np.array([[0.0], [4.0], [-2.0]]))
        cfg = cfg_of(time_param=True)
        out = features(g, np.array([[1.0, 0.0]]), cfg)
        # every stored entry carries time increment 1, including the
        # isolated node's self-loop
        np.testing.assert_array_equal(out[:, 0], [1.0, 1.0, 1.0])

    def test_nodiff_uses_target_attributes(self, path2):
        out = features(path2, np.array([[2.0]]), cfg_of(diff=False))
        np.testing.assert_array_equal(out[:, 0], [2.0, 0.0])

    def test_isolated_diagonal_values(self):
        g = LabelledGraph(2, [], np.array([[3.0], [5.0]]))
        with_diff = features(g, np.array([[1.0]]), cfg_of())
        np.testing.assert_array_equal(with_diff[:, 0], [0.0, 0.0])
        without = features(g, np.array([[1.0]]), cfg_of(diff=False))
        np.testing.assert_array_equal(without[:, 0], [3.0, 5.0])

    def test_dimension_mismatch(self, path2):
        with pytest.raises(ValueError, match=r"= \(1, 1, 1\) array, got \(1, 1, 2\)$"):
            features(path2, np.array([[1.0, 2.0]]), cfg_of())


class TestLowRankRecursion:
    """Without ``zero_start`` the features are the recursion state after
    ``walk_length`` steps."""

    def test_path_single_step(self, path2):
        out = features(path2, np.array([[1.0]]), cfg_of(walk_length=1))
        np.testing.assert_allclose(out[:, 0], [1.0, -1.0])

    def test_path_two_steps_cancel(self, path2):
        out = features(path2, np.array([[1.0]]), cfg_of(walk_length=2))
        np.testing.assert_allclose(out[:, 0], [0.0, 0.0], atol=1e-15)

    def test_zero_functional_zeroes_higher_degrees(self):
        rng = np.random.default_rng(1)
        g = random_labelled_graph(rng)
        out = features(g, np.zeros((3, g.attr_dim)), cfg_of(walk_length=3, max_degree=3))
        np.testing.assert_array_equal(out, np.zeros((g.n, 3)))

    def test_first_step_matches_chain_formula(self):
        # independent evaluation: f_{1,m} = c_m * (P . C-chain of length m) 1
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = random_labelled_graph(rng)
            p = transition_matrix(g)
            m_max = int(rng.integers(1, 4))
            u = rng.standard_normal((m_max, g.attr_dim))
            cfg = cfg_of(walk_length=1, max_degree=m_max)
            out = features(g, u, cfg, p)
            pattern = g.pattern
            increments = g.attributes[pattern.indices] - g.attributes[pattern.rows]
            ones = np.ones(g.n)
            for m in range(1, m_max + 1):
                vals = p.values.copy()
                for s in range(m_max - m, m_max):
                    vals = vals * (increments @ u[s])
                want = (1.0 / math.factorial(m)) * (pattern.matrix(vals) @ ones)
                np.testing.assert_allclose(out[:, m - 1], want, rtol=1e-12, atol=1e-14)

    def test_column0_stays_one(self):
        # the degree-0 level (unit walk mass) must stay 1 at every step: a
        # functional reading only the time coordinate then sees the time
        # path's signature, k at degree 1 and k^2/2 at degree 2, on any graph
        rng = np.random.default_rng(3)
        g = random_labelled_graph(rng)
        u = np.zeros((2, g.attr_dim + 1))
        u[:, 0] = 1.0
        out = features(g, u, cfg_of(walk_length=6, max_degree=2, time_param=True))
        np.testing.assert_allclose(out, np.tile([6.0, 18.0], (g.n, 1)), rtol=1e-13)

    def test_pattern_mismatch(self, path2, triangle):
        p = transition_matrix(triangle)
        with pytest.raises(ValueError, match="pattern mismatch"):
            features(path2, np.array([[1.0]]), cfg_of(), p)

    def test_non_finite_detection_names_step_and_degree(self):
        g = LabelledGraph(2, [(0, 1)], np.array([[0.0], [1e200]]))
        with pytest.raises(NonFiniteError, match=r"step \d+, degree \d+"):
            features(g, np.ones((2, 1)), cfg_of(walk_length=3, max_degree=2))


class TestZeroStartCorrect:
    def test_zero_attributes_keep_column(self):
        g = LabelledGraph(3, [(0, 1), (1, 2)], np.zeros((3, 2)))
        u = np.ones((2, 2))
        on = features(g, u, cfg_of(walk_length=2, max_degree=2, zero_start=True))
        off = features(g, u, cfg_of(walk_length=2, max_degree=2, zero_start=False))
        np.testing.assert_array_equal(on, off)

    def test_degree_one_expansion(self):
        rng = np.random.default_rng(4)
        g = random_labelled_graph(rng)
        u = rng.standard_normal((1, g.attr_dim))
        on = features(g, u, cfg_of(walk_length=2, max_degree=1, zero_start=True))
        off = features(g, u, cfg_of(walk_length=2, max_degree=1, zero_start=False))
        want = g.attributes @ u[0] + off[:, 0]
        np.testing.assert_allclose(on[:, 0], want, rtol=1e-12)

    def test_zero_start_off_returns_top_column(self):
        # without the start factor the top degree is the bare recursion:
        # after j steps, f_j = c_1 (P . C) 1 + P f_{j-1} at degree 1
        rng = np.random.default_rng(5)
        g = random_labelled_graph(rng)
        p = transition_matrix(g)
        u = rng.standard_normal((1, g.attr_dim))
        pattern = g.pattern
        one_step = pattern.matrix(
            p.values * ((g.attributes[pattern.indices] - g.attributes[pattern.rows]) @ u[0])
        ) @ np.ones(g.n)
        prev = features(g, u, cfg_of(walk_length=2, zero_start=False), p)[:, 0]
        top = features(g, u, cfg_of(walk_length=3, zero_start=False), p)[:, 0]
        np.testing.assert_allclose(top, one_step + p.matrix @ prev, rtol=1e-12, atol=1e-14)

    def test_matches_exact_zero_started_features(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = random_labelled_graph(rng, max_nodes=6)
            p = transition_matrix(g)
            m_max = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            cfg = cfg_of(walk_length=k, max_degree=m_max, zero_start=True)
            u = rng.standard_normal((m_max, g.attr_dim))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            ell = RankOneFunctional(u)
            got = batch_features(g, p, [ell], cfg)[:, m_max - 1]
            exact = node_features_exact(g, p, cfg)
            level = level_tensor(ell, m_max)
            want = [float(np.vdot(level, exact[i][m_max])) for i in range(g.n)]
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_non_finite_correction_names_degree(self):
        g = LabelledGraph(2, [(0, 1)], np.array([[1e200], [-1e200]]))
        cfg = cfg_of(walk_length=0, max_degree=2, zero_start=True)
        with pytest.raises(NonFiniteError, match="start-node correction, degree 2"):
            features(g, np.ones((2, 1)), cfg)

    def test_config_mismatch(self, path2):
        cfg = cfg_of(walk_length=1, max_degree=1, zero_start=True)
        with pytest.raises(ValueError, match=r"= \(1, 1, 1\) array, got \(1, 2, 1\)$"):
            features(path2, np.ones((2, 1)), cfg)


class TestBatchFeatures:
    def test_rank_one_reduces_to_recursion_plus_correction(self):
        # degree 2 with the start factor: the bare state plus the start
        # projections a_s = <u_s, f(i)> paired with the lower degrees
        rng = np.random.default_rng(7)
        g = random_labelled_graph(rng)
        p = transition_matrix(g)
        m_max = 2
        cfg = cfg_of(walk_length=3, max_degree=m_max, zero_start=True)
        u = rng.standard_normal((m_max, g.attr_dim))
        batch = features(g, u, cfg, p)
        state = features(g, u, cfg_of(walk_length=3, max_degree=m_max), p)
        a1, a2 = g.attributes @ u[0], g.attributes @ u[1]
        np.testing.assert_allclose(batch[:, 0], state[:, 0] + a2, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(
            batch[:, 1], state[:, 1] + a1 * state[:, 0] + 0.5 * a1 * a2,
            rtol=1e-12, atol=1e-14,
        )

    def test_duplicated_functional_duplicates_columns(self):
        rng = np.random.default_rng(8)
        g = random_labelled_graph(rng)
        p = transition_matrix(g)
        cfg = cfg_of(walk_length=2, max_degree=2, rank=2, zero_start=True)
        ell = RankOneFunctional(rng.standard_normal((2, g.attr_dim)))
        batch = batch_features(g, p, [ell, ell], cfg)
        np.testing.assert_array_equal(batch[:, :2], batch[:, 2:])

    def test_column_order_is_functional_outer_degree_inner(self):
        rng = np.random.default_rng(9)
        g = random_labelled_graph(rng)
        p = transition_matrix(g)
        m_max = 3
        cfg = cfg_of(walk_length=2, max_degree=m_max, rank=3)
        fs = [RankOneFunctional(rng.standard_normal((m_max, g.attr_dim))) for _ in range(3)]
        batch = batch_features(g, p, fs, cfg)
        for j, f in enumerate(fs):
            single = batch_features(g, p, [f], replace(cfg, rank=1))
            for m in range(1, m_max + 1):
                np.testing.assert_array_equal(
                    batch[:, j * m_max + (m - 1)], single[:, m - 1]
                )

    def test_functionals_must_match_config_rank(self):
        g = LabelledGraph(4, [(0, 1), (1, 2), (2, 3)], np.zeros((4, 1)))
        cfg = FeatureConfig(walk_length=2, max_degree=2, rank=8)
        with pytest.raises(
            ValueError,
            match=r"^functionals must be a non-empty \(R, M, dim\) = \(8, 2, 1\) array, "
            r"got \(3, 2, 1\)$",
        ):
            batch_features(g, transition_matrix(g), np.ones((3, 2, 1)), cfg)

    def test_walk_length_zero(self):
        rng = np.random.default_rng(10)
        g = random_labelled_graph(rng)
        p = transition_matrix(g)
        cfg = cfg_of(walk_length=0, max_degree=2, zero_start=True)
        u = rng.standard_normal((2, g.attr_dim))
        batch = batch_features(g, p, [RankOneFunctional(u)], cfg)
        # length-0 walk: only the start factor survives
        f_u2 = g.attributes @ u[1]
        f_u1 = g.attributes @ u[0]
        np.testing.assert_allclose(batch[:, 0], f_u2, rtol=1e-12)
        np.testing.assert_allclose(batch[:, 1], 0.5 * f_u1 * f_u2, rtol=1e-12)

    def test_translation_invariance_and_witness(self):
        rng = np.random.default_rng(11)
        g = random_labelled_graph(rng, max_dim=2)
        shift = np.array([1.5, -2.0])[: g.attr_dim]
        shifted = g.with_attributes(g.attributes + shift)
        fs = [RankOneFunctional(rng.standard_normal((2, g.attr_dim))) for _ in range(2)]
        inv_cfg = cfg_of(walk_length=3, max_degree=2, rank=2, zero_start=False)
        a = batch_features(g, transition_matrix(g), fs, inv_cfg)
        b = batch_features(shifted, transition_matrix(shifted), fs, inv_cfg)
        np.testing.assert_allclose(a, b, atol=1e-12)
        # the start factor sees absolute positions
        wit_cfg = cfg_of(walk_length=3, max_degree=2, rank=2, zero_start=True)
        a = batch_features(g, transition_matrix(g), fs, wit_cfg)
        b = batch_features(shifted, transition_matrix(shifted), fs, wit_cfg)
        assert np.max(np.abs(a - b)) > 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        g = random_labelled_graph(rng)
        perm = rng.permutation(g.n)
        h = g.permuted(perm)
        cfg = cfg_of(walk_length=3, max_degree=2, rank=2, zero_start=True)
        fs = [RankOneFunctional(rng.standard_normal((2, g.attr_dim))) for _ in range(2)]
        a = batch_features(g, transition_matrix(g), fs, cfg)
        b = batch_features(h, transition_matrix(h), fs, cfg)
        np.testing.assert_allclose(b[perm], a, atol=1e-12)

    def test_explicit_factorial_coefficients_match_default(self):
        rng = np.random.default_rng(13)
        g = random_labelled_graph(rng)
        p = transition_matrix(g)
        coeffs = tuple(1.0 / math.factorial(m) for m in range(4))
        base = cfg_of(walk_length=3, max_degree=3, rank=2, zero_start=True)
        opt = cfg_of(walk_length=3, max_degree=3, rank=2, zero_start=True, lift_coeffs=coeffs)
        fs = [RankOneFunctional(rng.standard_normal((3, g.attr_dim))) for _ in range(2)]
        a = batch_features(g, p, fs, base)
        b = batch_features(g, p, fs, opt)
        np.testing.assert_array_equal(a, b)

    def test_custom_coefficients_against_oracle(self):
        rng = np.random.default_rng(14)
        g = random_labelled_graph(rng, max_nodes=5)
        p = transition_matrix(g)
        cfg = cfg_of(
            walk_length=2, max_degree=2, zero_start=True,
            lift_coeffs=(1.0, 0.7, 0.3),
        )
        u = rng.standard_normal((2, g.attr_dim))
        ell = RankOneFunctional(u)
        got = batch_features(g, p, [ell], cfg)
        exact = node_features_exact(g, p, cfg)
        for m in (1, 2):
            level = level_tensor(ell, m)
            want = [float(np.vdot(level, exact[i][m])) for i in range(g.n)]
            np.testing.assert_allclose(got[:, m - 1], want, rtol=1e-10, atol=1e-12)

    def test_suffix_scaling_linearity(self):
        # scaling u_{M-m+1} by lam scales degrees >= m, fixes degrees < m
        rng = np.random.default_rng(15)
        g = random_labelled_graph(rng)
        p = transition_matrix(g)
        m_max = 3
        cfg = cfg_of(walk_length=2, max_degree=m_max)
        u = rng.standard_normal((m_max, g.attr_dim))
        base = batch_features(g, p, [RankOneFunctional(u)], cfg)
        lam = 2.5
        for m in range(1, m_max + 1):
            scaled = u.copy()
            scaled[m_max - m] *= lam  # this is u_{M-m+1}
            out = batch_features(g, p, [RankOneFunctional(scaled)], cfg)
            for mp in range(1, m_max + 1):
                if mp >= m:
                    np.testing.assert_allclose(
                        out[:, mp - 1], lam * base[:, mp - 1], rtol=1e-12, atol=1e-14
                    )
                else:
                    np.testing.assert_array_equal(out[:, mp - 1], base[:, mp - 1])

    def test_oracle_equivalence_all_flag_combos(self):
        rng = np.random.default_rng(16)
        for case, (diff, zs, tp) in enumerate(
            itertools.product([True, False], repeat=3)
        ):
            g = random_labelled_graph(rng, max_nodes=6)
            p = make_transition(g, ("uniform", "weighted", "attention")[case % 3], rng)
            k, m_max = int(rng.integers(0, 4)), int(rng.integers(1, 4))
            cfg = FeatureConfig(
                walk_length=k, max_degree=m_max, rank=2, diff=diff, zero_start=zs,
                time_param=tp,
            )
            dim = cfg.lift_dim(g.attr_dim)
            fs = [RankOneFunctional(rng.standard_normal((m_max, dim))) for _ in range(2)]
            got = batch_features(g, p, fs, cfg)
            exact = node_features_exact(g, p, cfg)
            for j, f in enumerate(fs):
                for m in range(1, m_max + 1):
                    level = level_tensor(f, m)
                    want = [
                        float(np.vdot(level, exact[i][m])) for i in range(g.n)
                    ]
                    np.testing.assert_allclose(
                        got[:, j * m_max + (m - 1)], want, rtol=1e-9, atol=1e-10
                    )


@pytest.fixture(scope="module")
def molecule_union():
    """50 molecule-like graphs as one union, with (R, M, dim) = (128, 3, 16)
    vectors: random trees on 10..59 nodes plus n // 8 ring-closing edges,
    16 random attributes per node."""
    rng = np.random.default_rng(2022)
    graphs = []
    for n in range(10, 60):
        tree = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        ends = rng.integers(0, n, n // 8)
        rings = zip(ends.tolist(), ((ends + rng.integers(2, n, n // 8)) % n).tolist())
        graphs.append(LabelledGraph(n, tree + list(rings), rng.standard_normal((n, 16))))
    union, _ = disjoint_union(graphs)
    return union, rng.standard_normal((128, 3, 16))


def relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestProductionShapeIdentities:
    """Identities of the lift that need no oracle, at the extract's shape
    (R=128, M=3, k=5, a 1725-node union), within the check gate's
    tolerance relative to the largest entry."""

    def features(self, g, vectors, zero_start):
        cfg = FeatureConfig(walk_length=5, max_degree=3, rank=128, zero_start=zero_start)
        return batch_features(g, transition_matrix(g), vectors, cfg).reshape(g.n, 128, 3)

    def test_start_factor_is_leftmost_walk_factor(self, molecule_union):
        # F1[m] = F0[m] + sum_{r=1..m} c_r prod_{t=M-m}^{M-m+r-1} <u_t, f_i> F0[m-r],
        # with F0[0] = 1: the start projections paired with the walk's lower degrees
        g, vectors = molecule_union
        f0 = self.features(g, vectors, zero_start=False)
        f1 = self.features(g, vectors, zero_start=True)
        proj = np.einsum("id,rtd->irt", g.attributes, vectors)
        lower = np.concatenate([np.ones((g.n, 128, 1)), f0], axis=2)
        want = f0.copy()
        for m in range(1, 4):
            prefix = np.ones((g.n, 128))
            for r in range(1, m + 1):
                prefix = prefix * proj[:, :, 3 - m + r - 1]
                want[:, :, m - 1] += prefix * lower[:, :, m - r] / math.factorial(r)
        assert relative_error(f1, want) <= TOLERANCE

    @pytest.mark.parametrize("zero_start", [False, True])
    def test_degree_m_scales_as_lambda_to_the_m(self, molecule_union, zero_start):
        g, vectors = molecule_union
        base = self.features(g, vectors, zero_start)
        scaled = self.features(g.with_attributes(3.0 * g.attributes), vectors, zero_start)
        assert relative_error(scaled, base * 3.0 ** np.arange(1, 4)) <= TOLERANCE

    def test_increments_ignore_a_constant_offset(self, molecule_union):
        g, vectors = molecule_union
        base = self.features(g, vectors, zero_start=False)
        shifted = self.features(g.with_attributes(g.attributes + 1e3), vectors, zero_start=False)
        assert relative_error(shifted, base) <= TOLERANCE
