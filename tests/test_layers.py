import functools
import re

import numpy as np
import pytest

from conftest import random_labelled_graph
from hypograph.config import FeatureConfig
from hypograph.exact import level_tensor
from hypograph.graphs import (
    AttentionParams, LabelledGraph, disjoint_union, path_graph, transition_matrix,
)
from hypograph.layers import (
    LayerParams,
    ModelConfig,
    init_params,
    l2_penalty,
    layer_forward,
    model_forward,
)
from hypograph.lowrank import batch_features


def make_layer(rng, d, rank=3, max_degree=2, walk_length=2, attention=False, **cfg_kw):
    cfg = FeatureConfig(
        walk_length=walk_length, max_degree=max_degree, rank=rank, **cfg_kw
    )
    return init_params(d, cfg, int(rng.integers(0, 2**31)), attention=attention)


class TestInitParams:
    def test_deterministic_given_seed(self):
        cfg = FeatureConfig(walk_length=2, max_degree=2, rank=4)
        a = init_params(3, cfg, 123, attention=True, heads=2)
        b = init_params(3, cfg, 123, attention=True, heads=2)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        np.testing.assert_array_equal(a.mixing, b.mixing)
        np.testing.assert_array_equal(a.attention.w_source, b.attention.w_source)
        c = init_params(3, cfg, 124)
        assert not np.array_equal(a.mixing, c.mixing)

    def test_component_statistics(self):
        # 200 * 5 * 100 = 1e5 uniform draws with target variance 1/dim
        d = 100
        cfg = FeatureConfig(walk_length=1, max_degree=5, rank=200)
        params = init_params(d, cfg, 0)
        samples = params.vectors.ravel()
        assert samples.size == 100_000
        target_var = 1.0 / d
        sigma_mean = np.sqrt(target_var / samples.size)
        assert abs(samples.mean()) < 3.0 * sigma_mean
        assert abs(samples.var() - target_var) < 0.1 * target_var

    def test_mixing_fan_in_variance(self):
        cfg = FeatureConfig(walk_length=1, max_degree=4, rank=128)
        params = init_params(3, cfg, 1)
        fan_in = 128 * 4
        var = params.mixing.var()
        assert abs(var - 1.0 / fan_in) < 0.1 / fan_in

    def test_time_param_widens_vectors(self):
        cfg = FeatureConfig(walk_length=1, max_degree=2, rank=2, time_param=True)
        params = init_params(3, cfg, 0)
        assert params.vectors.shape == (2, 2, 4)
        assert params.attr_dim == 3


class TestLayerForward:
    def test_identity_mixing_passes_raw_values(self):
        rng = np.random.default_rng(1)
        g = random_labelled_graph(rng)
        cfg = FeatureConfig(walk_length=2, max_degree=1, rank=3)
        base = init_params(g.attr_dim, cfg, 7)
        layer = LayerParams(base.vectors, np.eye(3), cfg)
        out = layer_forward(g, g.attributes, layer)
        raw = batch_features(g, transition_matrix(g), base.vectors, cfg)
        np.testing.assert_array_equal(out, raw)

    def test_disconnected_components_compute_independently(self):
        rng = np.random.default_rng(2)
        g1 = LabelledGraph(3, [(0, 1), (1, 2)], rng.standard_normal((3, 2)))
        g2 = LabelledGraph(2, [(0, 1)], rng.standard_normal((2, 2)))
        union = LabelledGraph(
            5,
            [(0, 1), (1, 2), (3, 4)],
            np.vstack([g1.attributes, g2.attributes]),
        )
        layer = make_layer(rng, 2)
        out = layer_forward(union, union.attributes, layer)
        np.testing.assert_allclose(
            out[:3], layer_forward(g1, g1.attributes, layer), atol=1e-14
        )
        np.testing.assert_allclose(
            out[3:], layer_forward(g2, g2.attributes, layer), atol=1e-14
        )

    def test_dimension_chain_violation(self):
        rng = np.random.default_rng(3)
        g = random_labelled_graph(rng, max_dim=2)
        layer = make_layer(rng, g.attr_dim + 1)
        with pytest.raises(ValueError, match="expected attributes"):
            layer_forward(g, g.attributes, layer)

    def test_zeroed_attention_equals_uniform_bit_for_bit(self):
        rng = np.random.default_rng(4)
        g = random_labelled_graph(rng)
        plain = make_layer(rng, g.attr_dim)
        attn = AttentionParams(np.zeros(g.attr_dim), np.zeros(g.attr_dim))
        attended = LayerParams(plain.vectors, plain.mixing, plain.config, attn)
        a = layer_forward(g, g.attributes, plain)
        b = layer_forward(g, g.attributes, attended)
        np.testing.assert_array_equal(a, b)


class TestModelForward:
    def test_single_layer_mean_pooling(self):
        rng = np.random.default_rng(5)
        g = random_labelled_graph(rng)
        layer = make_layer(rng, g.attr_dim)
        model = ModelConfig((layer,), pooling="mean")
        np.testing.assert_allclose(
            model_forward(g, model),
            layer_forward(g, g.attributes, layer).mean(axis=0),
            atol=1e-15,
        )

    def test_segment_pooling_matches_each_graph(self):
        rng = np.random.default_rng(9)
        graphs = [LabelledGraph(g.n, g.edges, rng.standard_normal((g.n, 2)))
                  for g in (random_labelled_graph(rng) for _ in range(4))]
        graphs.append(LabelledGraph(1, [], [[0.3, -1.0]]))
        model = ModelConfig(
            (make_layer(rng, 2, rank=3, attention=True), make_layer(rng, 3, rank=2))
        )
        union, offsets = disjoint_union(graphs)
        pooled = model_forward(union, model, offsets)
        assert pooled.shape == (len(graphs), 2)
        for row, g in zip(pooled, graphs):
            np.testing.assert_allclose(row, model_forward(g, model), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("offsets", [
        [0, 3], [1, 4], [0, 2, 2, 4], [0, 3, 2, 4], [0], [[0, 4]], [0, 1.5, 4],
    ])
    def test_bad_offsets_rejected(self, offsets):
        # model_forward rejects what split rejects, with split's message
        rng = np.random.default_rng(10)
        g = LabelledGraph(4, [(0, 1), (2, 3)], rng.standard_normal((4, 2)))
        model = ModelConfig((make_layer(rng, 2),))
        with pytest.raises(ValueError) as split_error:
            g.split(offsets)
        with pytest.raises(ValueError, match=f"^{re.escape(str(split_error.value))}$"):
            model_forward(g, model, offsets)

    def test_node_rows_match_each_graph(self):
        # pooling None returns the stack's node rows; a union's rows split
        # into each member's own, isolated node included
        rng = np.random.default_rng(19)
        graphs = [LabelledGraph(g.n, g.edges, rng.standard_normal((g.n, 2)))
                  for g in (random_labelled_graph(rng) for _ in range(2))]
        graphs.append(LabelledGraph(1, [], [[0.3, -1.0]]))
        model = ModelConfig(
            (make_layer(rng, 2, rank=3, attention=True), make_layer(rng, 3, rank=2)), None
        )
        union, offsets = disjoint_union(graphs)
        rows = model_forward(union, model, offsets)
        assert rows.shape == (union.n, 2)
        for a, b, g in zip(offsets[:-1], offsets[1:], graphs):
            np.testing.assert_allclose(rows[a:b], model_forward(g, model), rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="offsets"):
            model_forward(union, model, offsets[1:])

    def test_unknown_pooling_rejected(self):
        layer = make_layer(np.random.default_rng(20), 2)
        with pytest.raises(ValueError, match=r"^pooling must be 'mean' or None, got 'sum'$"):
            ModelConfig((layer,), pooling="sum")

    def test_isomorphic_graphs_give_equal_output(self):
        rng = np.random.default_rng(7)
        g = random_labelled_graph(rng)
        h = g.permuted(rng.permutation(g.n))
        rng2 = np.random.default_rng(7)
        layer1 = make_layer(rng2, g.attr_dim, rank=3)
        layer2 = make_layer(rng2, 3, rank=2)
        model = ModelConfig((layer1, layer2))
        np.testing.assert_allclose(
            model_forward(g, model), model_forward(h, model), atol=1e-12
        )

    def test_dimension_chain_validated(self):
        rng = np.random.default_rng(8)
        layer1 = make_layer(rng, 2, rank=3)
        layer2 = make_layer(rng, 4, rank=2)  # expects width 4, gets 3
        with pytest.raises(ValueError, match="dimension chain"):
            ModelConfig((layer1, layer2))

    def test_stacked_receptive_field_is_additive(self):
        # layers with walk lengths a and b see exactly a + b hops
        a, b = 2, 3
        rng = np.random.default_rng(9)
        n = a + b + 2  # far endpoint at distance a + b + 1 from node 0
        edges = [(i, i + 1) for i in range(n - 1)]
        attrs = rng.standard_normal((n, 1))
        g = LabelledGraph(n, edges, attrs)
        rng2 = np.random.default_rng(10)
        layer_a = make_layer(rng2, 1, rank=2, walk_length=a)
        layer_b = make_layer(rng2, 2, rank=2, walk_length=b)
        model = ModelConfig((layer_a, layer_b))

        def node0_output(perturbed_node, delta):
            mod = attrs.copy()
            mod[perturbed_node] += delta
            x = mod
            gm = LabelledGraph(n, edges, mod)
            for layer in model.layers:
                x = layer_forward(gm, x, layer)
            return x[0]

        base = node0_output(0, 0.0)
        # distance a + b: reachable by the stack
        assert np.max(np.abs(node0_output(a + b, 1.0) - base)) > 1e-12
        # distance a + b + 1: beyond the stacked horizon
        np.testing.assert_array_equal(node0_output(a + b + 1, 1.0), base)
        # a single layer of length a cannot see distance a + 1
        single = ModelConfig((layer_a,))
        y0 = layer_forward(g, g.attributes, layer_a)[0]
        mod = attrs.copy()
        mod[a + 1] += 1.0
        gm = LabelledGraph(n, edges, mod)
        y1 = layer_forward(gm, gm.attributes, layer_a)[0]
        np.testing.assert_array_equal(y0, y1)


class TestL2Penalty:
    def test_zero_vectors(self):
        rng = np.random.default_rng(10)
        cfg = FeatureConfig(walk_length=1, max_degree=2, rank=2)
        layer = LayerParams(np.zeros((2, 2, 3)), np.zeros((2, 4)), cfg)
        assert l2_penalty(layer, 1.0) == 0.0

    def test_hand_value(self):
        cfg = FeatureConfig(walk_length=1, max_degree=2, rank=1)
        layer = LayerParams(np.array([[[1.0, 0.0], [0.0, 2.0]]]), np.zeros((1, 2)), cfg)
        # degree 1: |u2|^2 = 4; degree 2: |u1|^2 |u2|^2 = 4
        assert l2_penalty(layer, 1.0) == pytest.approx(8.0)
        assert l2_penalty(layer, 0.5) == pytest.approx(4.0)

    def test_matches_dense_tensor_norms(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            d, m_max, rank = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 3
            cfg = FeatureConfig(walk_length=1, max_degree=m_max, rank=rank)
            vectors = np.stack([rng.standard_normal((m_max, d)) for _ in range(rank)])
            layer = LayerParams(vectors, np.zeros((rank, rank * m_max)), cfg)
            lam = float(rng.uniform(0.1, 2.0))
            dense = lam * sum(
                float(np.sum(level_tensor(u, m) ** 2))
                for u in vectors
                for m in range(1, m_max + 1)
            )
            assert l2_penalty(layer, lam) == pytest.approx(dense, rel=1e-12)

    def test_invariant_under_rotation_of_each_vector(self):
        rng = np.random.default_rng(12)
        d = 3
        cfg = FeatureConfig(walk_length=1, max_degree=2, rank=1)
        u = rng.standard_normal((2, d))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = LayerParams(u[None], np.zeros((1, 2)), cfg)
        b = LayerParams((u @ q.T)[None], np.zeros((1, 2)), cfg)
        assert l2_penalty(a, 1.3) == pytest.approx(l2_penalty(b, 1.3), rel=1e-12)

    def test_negative_lambda_rejected(self):
        layer = make_layer(np.random.default_rng(13), 2)
        with pytest.raises(ValueError, match=r"^lambda must be a finite number >= 0, got -1\.0$"):
            l2_penalty(layer, -1.0)

    @pytest.mark.parametrize("lam, shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), ([0.5], r"\[0\.5\]"),
    ])
    def test_non_finite_or_array_lambda_rejected(self, lam, shown):
        layer = make_layer(np.random.default_rng(13), 2)
        with pytest.raises(ValueError, match=rf"^lambda must be a finite number >= 0, got {shown}$"):
            l2_penalty(layer, lam)

    @pytest.mark.parametrize("lam", [True, "1", None])
    def test_non_number_lambda_rejected(self, lam):
        layer = make_layer(np.random.default_rng(13), 2)
        with pytest.raises(ValueError, match=rf"^lambda must hold real numbers, got {lam!r}$"):
            l2_penalty(layer, lam)


def _layer_with(**change):
    """A valid (R, M, dim) = (3, 2, 2) layer with some fields replaced."""
    layer = make_layer(np.random.default_rng(29), 2, rank=3)
    fields = {"vectors": layer.vectors, "mixing": layer.mixing, "config": layer.config,
              "attention": None}
    return LayerParams(**{**fields, **change})


# name -> (the failing call, message)
RAISE_SITES = {
    "mixing_shape": (lambda: _layer_with(mixing=np.zeros((3, 5))),
                     r"^mixing must be \(3, 6\), got \(3, 5\)$"),
    "attention_width": (lambda: _layer_with(attention=AttentionParams(np.ones(3), np.ones(3))),
                        r"^attention dim 3 does not match attributes 2$"),
    "vectors_rank_differs": (
        lambda: _layer_with(config=FeatureConfig(walk_length=2, max_degree=2, rank=8)),
        r"^vectors must be \(R, M, dim\) = \(8, 2, 2\), got \(3, 2, 2\)$",
    ),
    "vectors_degree_differs": (
        lambda: _layer_with(config=FeatureConfig(walk_length=2, max_degree=3, rank=3)),
        r"^vectors must be \(R, M, dim\) = \(3, 3, 2\), got \(3, 2, 2\)$",
    ),
    "vectors_two_dims": (lambda: _layer_with(vectors=np.zeros((3, 4))),
                         r"^vectors must be \(R, M, dim\), got \(3, 4\)$"),
    "vectors_empty_dim": (lambda: _layer_with(vectors=np.zeros((3, 2, 0))),
                          r"^vectors must be \(R, M, dim\), got \(3, 2, 0\)$"),
    "vectors_mapping": (lambda: _layer_with(vectors={"a": 1}),
                        r"^component vectors must hold real numbers, got \{'a': 1\}$"),
    "vectors_string": (lambda: _layer_with(vectors="abc"),
                       r"^component vectors must hold real numbers, got 'abc'$"),
    "mixing_nan": (lambda: _layer_with(mixing=[[0.0] * 6] * 2 + [[0.0] * 5 + [np.nan]]),
                   r"^mixing must be finite$"),
    # 70 levels of nesting, past numpy's limit of 64 dimensions
    "mixing_nested_past_numpy_dims": (
        lambda: _layer_with(mixing=functools.reduce(lambda v, _: [v], range(70), 0.5)),
        r"^mixing must hold real numbers, got \[+0\.5\]+$",
    ),
    "model_without_layers": (lambda: ModelConfig(()), r"^need at least one layer$"),
    "mixing_numpy_bool": (lambda: _layer_with(mixing=[[0.0] * 5 + [np.True_]] * 3),
                          r"^mixing must hold real numbers, got (np\.)?True_?$"),
    "mixing_numeric_string": (lambda: _layer_with(mixing=[["0.5"] * 6] * 3),
                              r"^mixing must hold real numbers, got '0\.5'$"),
    "mixing_ragged": (lambda: _layer_with(mixing=[[0.0] * 6, [0.0] * 5, [0.0] * 6]),
                      r"^mixing has ragged rows \[0\.0(, 0\.0){5}\] and \[0\.0(, 0\.0){4}\]$"),
    "forward_string_attribute": (
        lambda: layer_forward(path_graph(1), [[0.0, "1"], [0.0, 0.0]], _layer_with()),
        r"^attributes must hold real numbers, got '1'$",
    ),
    "init_without_attributes": (lambda: init_params(0, FeatureConfig(), 0),
                                r"^d must be an integer >= 1, got 0$"),
    "init_fractional_width": (lambda: init_params(2.0, FeatureConfig(), 0),
                              r"^d must be an integer >= 1, got 2\.0$"),
    "init_bool_width": (lambda: init_params(True, FeatureConfig(), 0),
                        r"^d must be an integer >= 1, got True$"),
    "init_fractional_heads": (lambda: init_params(2, FeatureConfig(), 0, attention=True, heads=2.0),
                              r"^heads must be an integer >= 1, got 2\.0$"),
}


@pytest.mark.parametrize("case", sorted(RAISE_SITES))
def test_raise_site_names_the_fault(case):
    call, message = RAISE_SITES[case]
    with pytest.raises(ValueError, match=message):
        call()
