import json
import re

import numpy as np
import pytest

from conftest import random_labelled_graph
from hypograph.config import FeatureConfig
from hypograph.exact import level_tensor
from hypograph.graphs import AttentionParams, LabelledGraph, disjoint_union, transition_matrix
from hypograph.layers import (
    LayerParams,
    ModelConfig,
    init_params,
    l2_penalty,
    layer_forward,
    load_params,
    model_forward,
    save_params,
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

    def test_bias_starts_zero(self):
        cfg = FeatureConfig(walk_length=1, max_degree=2, rank=3)
        np.testing.assert_array_equal(init_params(2, cfg, 0).bias, np.zeros(3))

    def test_time_param_widens_vectors(self):
        cfg = FeatureConfig(walk_length=1, max_degree=2, rank=2, time_param=True)
        params = init_params(3, cfg, 0)
        assert params.vectors.shape == (2, 2, 4)
        assert params.attr_dim == 3


class TestLayerForward:
    def test_zero_mixing_broadcasts_bias(self):
        rng = np.random.default_rng(0)
        g = random_labelled_graph(rng)
        layer = make_layer(rng, g.attr_dim)
        bias = np.array([1.0, -2.0, 0.5])
        layer = LayerParams(
            layer.vectors, np.zeros_like(layer.mixing), bias, layer.config
        )
        out = layer_forward(g, g.attributes, layer)
        np.testing.assert_array_equal(out, np.tile(bias, (g.n, 1)))

    def test_identity_mixing_passes_raw_values(self):
        rng = np.random.default_rng(1)
        g = random_labelled_graph(rng)
        cfg = FeatureConfig(walk_length=2, max_degree=1, rank=3)
        base = init_params(g.attr_dim, cfg, 7)
        layer = LayerParams(base.vectors, np.eye(3), np.zeros(3), cfg)
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
        attended = LayerParams(
            plain.vectors, plain.mixing, plain.bias, plain.config, attn
        )
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

    def test_sum_pooling(self):
        rng = np.random.default_rng(6)
        g = random_labelled_graph(rng)
        layer = make_layer(rng, g.attr_dim)
        model = ModelConfig((layer,), pooling="sum")
        np.testing.assert_allclose(
            model_forward(g, model),
            layer_forward(g, g.attributes, layer).sum(axis=0),
            atol=1e-15,
        )

    @pytest.mark.parametrize("pooling", ["mean", "sum"])
    def test_segment_pooling_matches_each_graph(self, pooling):
        rng = np.random.default_rng(9)
        graphs = [LabelledGraph(g.n, g.edges, rng.standard_normal((g.n, 2)))
                  for g in (random_labelled_graph(rng) for _ in range(4))]
        graphs.append(LabelledGraph(1, [], [[0.3, -1.0]]))
        model = ModelConfig(
            (make_layer(rng, 2, rank=3, attention=True), make_layer(rng, 3, rank=2)), pooling
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

    def test_numpy_integer_seed_stored_as_int(self, tmp_path):
        layer = make_layer(np.random.default_rng(20), 2)
        model = ModelConfig((layer,), seed=np.int64(7))
        assert type(model.seed) is int
        save_params(str(tmp_path / "model.json"), model)  # json cannot write np.int64
        assert load_params(str(tmp_path / "model.json")).seed == 7

    def test_unknown_pooling_rejected(self):
        layer = make_layer(np.random.default_rng(20), 2)
        with pytest.raises(ValueError, match="pooling must be 'mean', 'sum' or None"):
            ModelConfig((layer,), pooling="max")

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
        layer = LayerParams(
            np.zeros((2, 2, 3)),
            np.zeros((2, 4)),
            np.zeros(2),
            cfg,
        )
        assert l2_penalty(layer, 1.0) == 0.0

    def test_hand_value(self):
        cfg = FeatureConfig(walk_length=1, max_degree=2, rank=1)
        layer = LayerParams(
            np.array([[[1.0, 0.0], [0.0, 2.0]]]), np.zeros((1, 2)), np.zeros(1), cfg
        )
        # degree 1: |u2|^2 = 4; degree 2: |u1|^2 |u2|^2 = 4
        assert l2_penalty(layer, 1.0) == pytest.approx(8.0)
        assert l2_penalty(layer, 0.5) == pytest.approx(4.0)

    def test_matches_dense_tensor_norms(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            d, m_max, rank = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 3
            cfg = FeatureConfig(walk_length=1, max_degree=m_max, rank=rank)
            vectors = np.stack([rng.standard_normal((m_max, d)) for _ in range(rank)])
            layer = LayerParams(vectors, np.zeros((rank, rank * m_max)), np.zeros(rank), cfg)
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
        a = LayerParams(u[None], np.zeros((1, 2)), np.zeros(1), cfg)
        b = LayerParams((u @ q.T)[None], np.zeros((1, 2)), np.zeros(1), cfg)
        assert l2_penalty(a, 1.3) == pytest.approx(l2_penalty(b, 1.3), rel=1e-12)

    def test_negative_lambda_rejected(self):
        rng = np.random.default_rng(13)
        layer = make_layer(rng, 2)
        with pytest.raises(ValueError):
            l2_penalty(layer, -1.0)


# every top-level field of a model file except "layers"
MODEL_HEADER = {"format": "hypograph-model", "version": 1, "pooling": "mean", "seed": 0}
# one valid layer entry: rank 1, degree 1, one attribute
LAYER_ENTRY = {
    "walk_length": 1, "max_degree": 1, "rank": 1, "diff": True, "zero_start": True,
    "time_param": False, "lift_coeffs": None, "u_vectors": [[[0.5]]], "mixing": [[1.0]],
    "bias": [0.0], "attention": None,
}


def _layer_with(**change):
    """A valid (R, M, dim) = (3, 2, 2) layer with some fields replaced."""
    layer = make_layer(np.random.default_rng(29), 2, rank=3)
    fields = {"vectors": layer.vectors, "mixing": layer.mixing, "bias": layer.bias,
              "config": layer.config, "attention": None}
    return LayerParams(**{**fields, **change})


# name -> (the failing call, message)
RAISE_SITES = {
    "mixing_shape": (lambda: _layer_with(mixing=np.zeros((3, 5))),
                     r"^mixing must be \(3, 6\), got \(3, 5\)$"),
    "bias_shape": (lambda: _layer_with(bias=np.zeros(2)), r"^bias must be \(3,\), got \(2,\)$"),
    "attention_width": (lambda: _layer_with(attention=AttentionParams(np.ones(3), np.ones(3))),
                        r"^attention dim 3 does not match attributes 2$"),
    "model_without_layers": (lambda: ModelConfig(()), r"^need at least one layer$"),
}


@pytest.mark.parametrize("case", sorted(RAISE_SITES))
def test_raise_site_names_the_fault(case):
    call, message = RAISE_SITES[case]
    with pytest.raises(ValueError, match=message):
        call()


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        layer1 = make_layer(rng, 3, rank=2, attention=True)
        layer2 = make_layer(rng, 2, rank=3, time_param=True,
                            lift_coeffs=(1.0, 0.9, 0.4))
        model = ModelConfig((layer1, layer2), pooling="sum", seed=42)
        path = tmp_path / "model.json"
        save_params(str(path), model)
        loaded = load_params(str(path))
        assert loaded.pooling == "sum" and loaded.seed == 42
        assert len(loaded.layers) == 2
        for orig, back in zip(model.layers, loaded.layers):
            assert orig.config == back.config
            np.testing.assert_array_equal(orig.vectors, back.vectors)
            np.testing.assert_array_equal(orig.mixing, back.mixing)
            np.testing.assert_array_equal(orig.bias, back.bias)
        assert loaded.layers[0].attention is not None
        np.testing.assert_array_equal(
            model.layers[0].attention.w_source, loaded.layers[0].attention.w_source
        )
        g = random_labelled_graph(np.random.default_rng(15), max_dim=3)
        g = g.with_attributes(np.random.default_rng(16).standard_normal((g.n, 3)))
        np.testing.assert_array_equal(model_forward(g, model), model_forward(g, loaded))

    def test_node_row_model_round_trips_as_null(self, tmp_path):
        rng = np.random.default_rng(21)
        model = ModelConfig((make_layer(rng, 2, rank=3),), pooling=None)
        path = tmp_path / "model.json"
        save_params(str(path), model)
        assert json.loads(path.read_text())["pooling"] is None
        loaded = load_params(str(path))
        assert loaded.pooling is None
        g = LabelledGraph(3, [(0, 1)], rng.standard_normal((3, 2)))
        rows = model_forward(g, loaded)
        assert rows.shape == (3, 3)
        np.testing.assert_array_equal(rows, model_forward(g, model))

    def test_layer_entry_keys_are_pinned(self, tmp_path):
        # the file lists FeatureConfig's fields in declaration order, so
        # reordering or renaming a field changes the model file format
        layer = make_layer(np.random.default_rng(22), 2, lift_coeffs=(1.0, 0.5, 0.25))
        path = tmp_path / "model.json"
        save_params(str(path), ModelConfig((layer,)))
        entry = json.loads(path.read_text())["layers"][0]
        assert list(entry) == [
            "walk_length", "max_degree", "rank", "diff", "zero_start", "time_param",
            "lift_coeffs", "u_vectors", "mixing", "bias", "attention",
        ]
        assert entry["lift_coeffs"] == [1.0, 0.5, 0.25]

    def test_vectors_must_match_config_rank_and_degree(self):
        layer = make_layer(np.random.default_rng(17), 2, rank=4)
        for rank, deg, msg in [
            (8, 2, r"^vectors must be \(R, M, dim\) = \(8, 2, 2\), got \(4, 2, 2\)$"),
            (4, 3, r"^vectors must be \(R, M, dim\) = \(4, 3, 2\), got \(4, 2, 2\)$"),
        ]:
            cfg = FeatureConfig(walk_length=2, max_degree=deg, rank=rank)
            with pytest.raises(ValueError, match=msg):
                LayerParams(layer.vectors, layer.mixing, layer.bias, cfg)

    @pytest.mark.parametrize("name", ["mixing", "bias"])
    def test_non_finite_mixing_and_bias_rejected(self, tmp_path, name):
        layer = make_layer(np.random.default_rng(23), 2, rank=2)
        fields = {"mixing": layer.mixing.copy(), "bias": layer.bias.copy()}
        fields[name].flat[-1] = np.nan
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            LayerParams(layer.vectors, fields["mixing"], fields["bias"], layer.config)
        # JSON's NaN literal loads and is rejected with the layer named
        path = tmp_path / "model.json"
        save_params(str(path), ModelConfig((layer, layer)))
        doc = json.loads(path.read_text())
        doc["layers"][1][name] = fields[name].tolist()
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        pattern = f"^layer 2: {name} must be finite in {re.escape(str(path))}$"
        with pytest.raises(ValueError, match=pattern):
            load_params(str(path))

    @pytest.mark.parametrize("key, value, message", [
        ("walk_length", 2.7, "walk_length must be an integer, got 2.7"),
        ("rank", True, "rank must be an integer, got True"),
        ("max_degree", "2", "max_degree must be an integer, got '2'"),
        ("diff", "no", "diff must be a bool, got 'no'"),
        ("time_param", 0, "time_param must be a bool, got 0"),
        ("zero_start", None, "missing field 'zero_start'"),
        ("mixing", None, "missing field 'mixing'"),
        ("lift_coeffs", 5, "lift_coeffs must be a sequence of numbers, got 5"),
        ("lift_coeffs", [[1.0]], "lift_coeffs must hold real numbers, got [1.0]"),
        ("lift_coeffs", [1.0, None], "lift_coeffs must hold real numbers, got None"),
        ("lift_coeffs", [1.0, 0.5], "lift_coeffs cover degrees <= 1, need 2"),
        ("u_vectors", {"a": 1}, "component vectors must be an array of numbers"),
        ("u_vectors", "abc", "component vectors must be an array of numbers"),
        ("attention", {"w_source": [[1.0]], "w_target": {"x": 1}},
         "attention weights must be an array of numbers"),
    ])
    def test_mistyped_or_missing_field_names_field_and_layer(self, tmp_path, key, value, message):
        layer = make_layer(np.random.default_rng(24), 2, rank=2)
        path = tmp_path / "model.json"
        save_params(str(path), ModelConfig((layer,)))
        doc = json.loads(path.read_text())
        if value is None:
            del doc["layers"][0][key]
        else:
            doc["layers"][0][key] = value
        path.write_text(json.dumps(doc))
        pattern = f"^layer 1: {re.escape(message)} in {re.escape(str(path))}$"
        with pytest.raises(ValueError, match=pattern):
            load_params(str(path))

    @pytest.mark.parametrize("doc, message", [
        ({"format": "hypograph-model", "version": 1, "layers": []}, "missing field 'pooling'"),
        ({"format": "hypograph-model", "version": 1, "pooling": "mean"}, "missing field 'layers'"),
        ([{"format": "hypograph-model"}], "not a hypograph-model file"),
        ({**MODEL_HEADER, "layers": 5}, "field 'layers' must be a list"),
        ({**MODEL_HEADER, "layers": [7]}, "layer 1: not an object"),
        ({**MODEL_HEADER, "layers": ["x"]}, "layer 1: not an object"),
        ({**MODEL_HEADER, "layers": [None]}, "layer 1: not an object"),
        ({**MODEL_HEADER, "layers": [{**LAYER_ENTRY, "attention": 5}]},
         "layer 1: field 'attention' must be null or an object"),
        ({**MODEL_HEADER, "layers": [{**LAYER_ENTRY, "attention": [1, 2]}]},
         "layer 1: field 'attention' must be null or an object"),
        ({**MODEL_HEADER, "seed": "x", "layers": [LAYER_ENTRY]},
         "seed must be None or an integer, got 'x'"),
        ({**MODEL_HEADER, "seed": True, "layers": [LAYER_ENTRY]},
         "seed must be None or an integer, got True"),
        ({**MODEL_HEADER, "seed": 1.5, "layers": [LAYER_ENTRY]},
         "seed must be None or an integer, got 1.5"),
        ({**MODEL_HEADER, "version": 2, "layers": [LAYER_ENTRY]}, "unsupported version 2"),
    ])
    def test_malformed_document_names_key_and_path(self, tmp_path, doc, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}.* {re.escape(str(path))}$"):
            load_params(str(path))

    def test_invalid_json_names_path(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": ')
        with pytest.raises(ValueError, match=f"^Expecting value: .* in {re.escape(str(path))}$"):
            load_params(str(path))

    def test_empty_coefficient_list_rejected(self, tmp_path):
        layer = make_layer(np.random.default_rng(18), 2, lift_coeffs=(1.0, 0.9, 0.4))
        path = tmp_path / "model.json"
        save_params(str(path), ModelConfig((layer,)))
        doc = json.loads(path.read_text())
        doc["layers"][0]["lift_coeffs"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="lift_coeffs must start with c_0 == 1"):
            load_params(str(path))

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValueError, match="not a"):
            load_params(str(path))
