import numpy as np
import pytest

from conftest import random_labelled_graph, write_tu_files
from hypograph.graphs import (
    AttentionParams,
    DatasetError,
    LabelledGraph,
    attention_transition,
    classic_diffusion,
    grid_graph,
    load_tu_dataset,
    normalized_laplacian,
    path_graph,
    save_tu_dataset,
    transition_matrix,
    weighted_transition,
)


class TestLabelledGraph:
    def test_dedupes_and_canonicalizes_edges(self):
        g = LabelledGraph(3, [(1, 0), (0, 1), (2, 1)], np.zeros((3, 1)))
        np.testing.assert_array_equal(g.edges, [[0, 1], [1, 2]])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            LabelledGraph(2, [(0, 0)], np.zeros((2, 1)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LabelledGraph(2, [(0, 2)], np.zeros((2, 1)))

    def test_rejects_bad_attributes(self):
        with pytest.raises(ValueError):
            LabelledGraph(2, [(0, 1)], np.zeros((3, 1)))
        with pytest.raises(ValueError):
            LabelledGraph(2, [(0, 1)], [[np.nan], [0.0]])

    def test_pattern_includes_isolated_diagonal(self):
        g = LabelledGraph(3, [(0, 1)], np.zeros((3, 1)))
        pat = g.pattern
        dense = pat.matrix(np.ones(pat.nnz)).toarray()
        np.testing.assert_array_equal(
            dense, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        )

    def test_permuted_preserves_structure(self):
        rng = np.random.default_rng(0)
        g = random_labelled_graph(rng)
        perm = rng.permutation(g.n)
        h = g.permuted(perm)
        assert h.num_edges == g.num_edges
        for i in range(g.n):
            np.testing.assert_array_equal(h.attributes[perm[i]], g.attributes[i])
        np.testing.assert_array_equal(h.degrees[perm], g.degrees)


class TestTransitionMatrix:
    def test_path(self, path2):
        np.testing.assert_array_equal(
            transition_matrix(path2).toarray(), [[0.0, 1.0], [1.0, 0.0]]
        )

    def test_triangle(self, triangle):
        p = transition_matrix(triangle).toarray()
        np.testing.assert_allclose(p, (np.ones((3, 3)) - np.eye(3)) / 2.0)

    def test_isolated_self_loop(self):
        g = LabelledGraph(3, [(0, 1)], np.zeros((3, 1)))
        p = transition_matrix(g).toarray()
        assert p[2, 2] == 1.0

    def test_rows_stochastic_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_labelled_graph(rng)
            p = transition_matrix(g)
            sums = np.asarray(p.matrix.sum(axis=1)).ravel()
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)
            assert p.values.min() >= 0.0 and p.values.max() <= 1.0


class TestWeightedTransition:
    def test_uniform_weights_match_plain(self):
        rng = np.random.default_rng(2)
        g = random_labelled_graph(rng)
        w = {tuple(e): 1.0 for e in g.edges}
        np.testing.assert_array_equal(
            weighted_transition(g, w).values, transition_matrix(g).values
        )

    def test_star_normalization(self):
        g = LabelledGraph(3, [(0, 1), (0, 2)], np.zeros((3, 1)))
        p = weighted_transition(g, {(0, 1): 1.0, (0, 2): 3.0}).toarray()
        np.testing.assert_allclose(p[0], [0.0, 0.25, 0.75])

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        g = random_labelled_graph(rng, edge_prob=0.6)
        w = {tuple(e): float(rng.uniform(0.5, 2.0)) for e in g.edges}
        a = weighted_transition(g, w).values
        b = weighted_transition(g, {k: 7.5 * v for k, v in w.items()}).values
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_rejects_non_positive(self):
        g = LabelledGraph(2, [(0, 1)], np.zeros((2, 1)))
        with pytest.raises(ValueError):
            weighted_transition(g, {(0, 1): 0.0})
        with pytest.raises(ValueError):
            weighted_transition(g, {(0, 1): -1.0})


class TestAttentionTransition:
    def test_zero_weights_reduce_to_uniform(self):
        rng = np.random.default_rng(4)
        g = random_labelled_graph(rng)
        params = AttentionParams(np.zeros(g.attr_dim), np.zeros(g.attr_dim))
        got = attention_transition(g, params)
        want = transition_matrix(g)
        np.testing.assert_array_equal(got.values, want.values)

    def test_single_neighbour_gets_probability_one(self):
        g = LabelledGraph(2, [(0, 1)], [[1.5], [-2.0]])
        params = AttentionParams(np.array([3.0]), np.array([-1.0]))
        p = attention_transition(g, params).toarray()
        np.testing.assert_array_equal(p, [[0.0, 1.0], [1.0, 0.0]])

    def test_hand_softmax(self, triangle):
        params = AttentionParams(np.zeros(1), np.array([1.0]))
        p = attention_transition(triangle, params).toarray()
        # row 0 scores over neighbours (1, 2) are (1, 2)
        want = np.exp([1.0, 2.0])
        want /= want.sum()
        np.testing.assert_allclose(p[0, 1:], want, rtol=1e-12)
        assert p[0, 1] == pytest.approx(0.26894142, abs=1e-8)
        assert p[0, 2] == pytest.approx(0.73105858, abs=1e-8)

    def test_leaky_relu_negative_branch(self):
        g = LabelledGraph(3, [(0, 1), (0, 2)], [[0.0], [-1.0], [1.0]])
        params = AttentionParams(np.zeros(1), np.array([1.0]))
        p = attention_transition(g, params).toarray()
        # scores: leaky(-1) = -0.2, leaky(1) = 1
        want = np.exp([-0.2, 1.0])
        want /= want.sum()
        np.testing.assert_allclose(p[0, 1:], want, rtol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            g = random_labelled_graph(rng)
            params = AttentionParams(
                rng.standard_normal(g.attr_dim), rng.standard_normal(g.attr_dim)
            )
            perm = rng.permutation(g.n)
            pg = attention_transition(g, params).toarray()
            ph = attention_transition(g.permuted(perm), params).toarray()
            np.testing.assert_allclose(ph[np.ix_(perm, perm)], pg, atol=1e-14)

    def test_multi_head_averages(self):
        rng = np.random.default_rng(6)
        g = random_labelled_graph(rng)
        ws = rng.standard_normal((3, g.attr_dim))
        wt = rng.standard_normal((3, g.attr_dim))
        combined = attention_transition(g, AttentionParams(ws, wt)).toarray()
        singles = [
            attention_transition(g, AttentionParams(ws[h], wt[h])).toarray()
            for h in range(3)
        ]
        np.testing.assert_allclose(combined, np.mean(singles, axis=0), atol=1e-14)

    def test_slope_is_pinned(self):
        with pytest.raises(ValueError):
            AttentionParams(np.zeros(2), np.zeros(2), leaky_slope=0.1)

    def test_dimension_mismatch(self):
        g = LabelledGraph(2, [(0, 1)], np.zeros((2, 3)))
        with pytest.raises(ValueError):
            attention_transition(g, AttentionParams(np.zeros(2), np.zeros(2)))


class TestLaplacianAndDiffusion:
    def test_path_laplacian(self, path2):
        np.testing.assert_array_equal(
            normalized_laplacian(path2).toarray(), [[1.0, -1.0], [-1.0, 1.0]]
        )

    def test_triangle_laplacian(self, triangle):
        lap = normalized_laplacian(triangle).toarray()
        np.testing.assert_allclose(np.diag(lap), 1.0)
        off = lap[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, -0.5)

    def test_laplacian_annihilates_ones(self):
        rng = np.random.default_rng(7)
        g = random_labelled_graph(rng, edge_prob=0.9)
        lap = normalized_laplacian(g)
        np.testing.assert_allclose(lap @ np.ones(g.n), 0.0, atol=1e-12)

    def test_classic_diffusion_k0(self, path2):
        np.testing.assert_array_equal(classic_diffusion(path2, 0), path2.attributes)

    def test_classic_diffusion_swaps_path(self, path2):
        np.testing.assert_array_equal(classic_diffusion(path2, 1), [[1.0], [0.0]])
        np.testing.assert_array_equal(classic_diffusion(path2, 2), path2.attributes)

    def test_classic_diffusion_is_matrix_power(self):
        rng = np.random.default_rng(8)
        g = random_labelled_graph(rng)
        p = transition_matrix(g).toarray()
        want = np.linalg.matrix_power(p, 3) @ g.attributes
        np.testing.assert_allclose(classic_diffusion(g, 3), want, atol=1e-12)


class TestSyntheticGraphs:
    def test_path_graph_shape(self):
        g = path_graph(10)
        assert g.n == 11 and g.num_edges == 10

    def test_grid_graph_shape(self):
        g = grid_graph(4)
        assert g.n == 16 and g.num_edges == 2 * 4 * 3


class TestTuLoader:
    def test_minimal_dataset(self, tmp_path):
        write_tu_files(tmp_path, "tiny", [(1, 2), (2, 1)], [1, 1], node_labels=[0, 1])
        data = load_tu_dataset(str(tmp_path), "tiny")
        assert len(data) == 1
        g, label = data[0]
        assert label is None
        assert g.n == 2 and g.num_edges == 1
        np.testing.assert_array_equal(g.attributes, [[1.0, 0.0], [0.0, 1.0]])

    def test_cross_graph_edge_rejected(self, tmp_path):
        write_tu_files(tmp_path, "bad", [(1, 3)], [1, 1, 2], node_labels=[0, 0, 0])
        with pytest.raises(DatasetError, match="crosses graphs"):
            load_tu_dataset(str(tmp_path), "bad")

    def test_missing_files(self, tmp_path):
        with pytest.raises(DatasetError, match="missing required file"):
            load_tu_dataset(str(tmp_path), "nothing")

    def test_needs_labels_or_attributes(self, tmp_path):
        write_tu_files(tmp_path, "noattrs", [(1, 2)], [1, 1])
        with pytest.raises(DatasetError):
            load_tu_dataset(str(tmp_path), "noattrs")

    def test_ragged_attributes_rejected(self, tmp_path):
        (tmp_path / "rag_A.txt").write_text("1, 2\n")
        (tmp_path / "rag_graph_indicator.txt").write_text("1\n1\n")
        (tmp_path / "rag_node_attributes.txt").write_text("1.0, 2.0\n3.0\n")
        with pytest.raises(DatasetError, match="ragged"):
            load_tu_dataset(str(tmp_path), "rag")

    @pytest.mark.parametrize("bad_file", ["graph_indicator", "node_labels", "graph_labels"])
    def test_non_integer_line_names_file_and_line(self, tmp_path, bad_file):
        files = {
            "graph_indicator": [1, 1, 2],
            "node_labels": [0, 1, 0],
            "graph_labels": [1, 0],
        }
        files[bad_file] = [files[bad_file][0], "1.5"] + files[bad_file][2:]
        write_tu_files(tmp_path, "bad", [(1, 2), (2, 1)], files["graph_indicator"],
                       node_labels=files["node_labels"], graph_labels=files["graph_labels"])
        with pytest.raises(DatasetError, match=rf"bad_{bad_file}\.txt: line 2: "):
            load_tu_dataset(str(tmp_path), "bad")

    def test_crlf_and_spaces_accepted(self, tmp_path):
        (tmp_path / "win_A.txt").write_text("1 , 2\r\n2 , 1\r\n")
        (tmp_path / "win_graph_indicator.txt").write_text("1\r\n1\r\n")
        (tmp_path / "win_node_labels.txt").write_text("3\r\n5\r\n")
        data = load_tu_dataset(str(tmp_path), "win")
        g, _ = data[0]
        assert g.attr_dim == 3  # labels 3..5 one-hot
        np.testing.assert_array_equal(g.attributes, [[1, 0, 0], [0, 0, 1]])

    def test_graph_labels_and_multiple_graphs(self, tmp_path):
        write_tu_files(
            tmp_path,
            "two",
            [(1, 2), (2, 1), (3, 4), (4, 3), (4, 5), (5, 4)],
            [1, 1, 2, 2, 2],
            node_labels=[0, 1, 1, 0, 1],
            graph_labels=[1, 0],
        )
        data = load_tu_dataset(str(tmp_path), "two")
        assert [label for _, label in data] == [1, 0]
        assert [g.n for g, _ in data] == [2, 3]
        assert [g.num_edges for g, _ in data] == [1, 2]

    def test_nested_directory_layout(self, tmp_path):
        sub = tmp_path / "tiny"
        sub.mkdir()
        write_tu_files(sub, "tiny", [(1, 2), (2, 1)], [1, 1], node_labels=[0, 0])
        data = load_tu_dataset(str(tmp_path), "tiny")
        assert len(data) == 1

    def test_both_blocks_concatenated(self, tmp_path):
        write_tu_files(
            tmp_path, "mix", [(1, 2), (2, 1)], [1, 1],
            node_labels=[0, 1], node_attributes=[[2.5], [-1.0]],
        )
        g, _ = load_tu_dataset(str(tmp_path), "mix")[0]
        np.testing.assert_array_equal(g.attributes, [[1.0, 0.0, 2.5], [0.0, 1.0, -1.0]])

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        dataset = [
            (random_labelled_graph(rng, max_dim=1), int(rng.integers(0, 2)))
            for _ in range(5)
        ]
        out = tmp_path / "saved"
        save_tu_dataset(str(out), "rt", dataset)
        reloaded = load_tu_dataset(str(out), "rt")
        assert len(reloaded) == len(dataset)
        for (g0, l0), (g1, l1) in zip(dataset, reloaded):
            assert l0 == l1
            assert g0.n == g1.n
            np.testing.assert_array_equal(g0.edges, g1.edges)
            np.testing.assert_array_equal(g0.attributes, g1.attributes)
