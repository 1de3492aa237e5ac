import ast
import itertools
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_labelled_graph, write_tu_files
from hypograph.config import FeatureConfig
from hypograph.graphs import (
    LEAKY_SLOPE,
    AdjacencyPattern,
    AttentionParams,
    DatasetError,
    LabelledGraph,
    RowStochastic,
    attention_transition,
    classic_diffusion,
    disjoint_union,
    frozen,
    grid_graph,
    load_tu_dataset,
    path_graph,
    save_tu_dataset,
    transition_matrix,
    weighted_transition,
)
from hypograph.layers import LayerParams
from hypograph.lowrank import RankOneFunctional, batch_features
from hypograph.verify import TOLERANCE, case_error


class TestLabelledGraph:
    def test_dedupes_and_canonicalizes_edges(self):
        g = LabelledGraph(3, [(1, 0), (0, 1), (2, 1)], np.zeros((3, 1)))
        np.testing.assert_array_equal(g.edges, [[0, 1], [1, 2]])
        # random pairs, repeated and in both orientations, against np.unique's codes
        n, rng = 40, np.random.default_rng(7)
        pairs = rng.integers(0, n, size=(500, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        pairs = np.concatenate([pairs, pairs[::-1, ::-1], pairs[:100]])
        codes = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))
        got = LabelledGraph(n, pairs, np.zeros((n, 1))).edges
        assert got.tobytes() == np.column_stack(np.divmod(codes, n)).tobytes()

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            LabelledGraph(2, [(0, 0)], np.zeros((2, 1)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LabelledGraph(2, [(0, 2)], np.zeros((2, 1)))

    @pytest.mark.parametrize("edges, shape", [
        ([(0, 1, 2), (1, 2, 3)], (2, 3)),  # would re-pair as (0, 1), (2, 1), (2, 3)
        ([0, 1], (2,)),
        (np.zeros((1, 2, 2)), (1, 2, 2)),
    ])
    def test_rejects_edges_that_are_not_pairs(self, edges, shape):
        message = f"edges must be (m, 2) pairs, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            LabelledGraph(4, edges, np.zeros((4, 1)))

    @pytest.mark.parametrize("edges", [[], np.zeros((0, 2), dtype=np.int64)])
    def test_accepts_empty_edge_array(self, edges):
        assert LabelledGraph(2, edges, np.zeros((2, 1))).edges.shape == (0, 2)

    @pytest.mark.parametrize("n", [3.0, 2.5, True, np.float64(3.0), "3", None])
    def test_rejects_non_integer_node_count(self, n):
        message = f"^n must be an integer >= 1, got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            LabelledGraph(n, [(0, 1)], np.zeros((3, 1)))

    def test_numpy_integer_node_count_stored_as_int(self):
        g = LabelledGraph(np.int64(3), [(0, 1)], np.zeros((3, 1)))
        assert type(g.n) is int and g.degrees.tolist() == [1, 1, 0]

    def test_rejects_bad_attributes(self):
        with pytest.raises(ValueError):
            LabelledGraph(2, [(0, 1)], np.zeros((3, 1)))
        with pytest.raises(ValueError):
            LabelledGraph(2, [(0, 1)], [[np.nan], [0.0]])
        g = LabelledGraph(2, [(0, 1)], np.zeros((2, 1)))
        with pytest.raises(ValueError, match=r"\(n, d\) with n=2, got \(3, 1\)"):
            g.with_attributes(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="finite"):
            g.with_attributes([[np.inf], [0.0]])
        assert not g.with_attributes(np.ones((2, 4))).attributes.flags.writeable

    def test_pattern_includes_isolated_diagonal(self):
        g = LabelledGraph(3, [(0, 1)], np.zeros((3, 1)))
        pat = g.pattern
        dense = pat.matrix(np.ones(pat.nnz)).toarray()
        np.testing.assert_array_equal(
            dense, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        )

    def test_pattern_matches_brute_force_pair_set(self):
        rng = np.random.default_rng(90)
        graphs = [LabelledGraph(1, [], np.zeros((1, 1))), LabelledGraph(4, [], np.zeros((4, 2)))]
        graphs += [random_labelled_graph(rng, max_nodes=9, edge_prob=p)
                   for p in rng.uniform(0.0, 0.6, size=40)]
        assert any(0 in g.degrees and g.num_edges for g in graphs)
        for g in graphs:
            edges = [tuple(e) for e in g.edges.tolist()]
            isolated = [v for v in range(g.n) if not any(v in e for e in edges)]
            pairs = sorted({*edges, *((j, i) for i, j in edges), *((v, v) for v in isolated)})
            pat = g.pattern
            assert list(zip(pat.rows.tolist(), pat.indices.tolist())) == pairs
            assert pat.indptr.tolist() == [sum(i < r for i, _ in pairs) for r in range(g.n + 1)]
            assert g.degrees.tolist() == [sum(v in e for e in edges) for v in range(g.n)]

    def test_permuted_preserves_structure(self):
        rng = np.random.default_rng(0)
        g = random_labelled_graph(rng)
        perm = rng.permutation(g.n)
        h = g.permuted(perm)
        assert h.num_edges == g.num_edges
        for i in range(g.n):
            np.testing.assert_array_equal(h.attributes[perm[i]], g.attributes[i])
        np.testing.assert_array_equal(h.degrees[perm], g.degrees)

    def test_rejects_fractional_node_ids(self):
        # a cast to int64 alone would store the edge (0, 1)
        with pytest.raises(ValueError, match="node ids must be integers"):
            LabelledGraph(3, [(0, 1.7)], np.zeros((3, 1)))
        np.testing.assert_array_equal(LabelledGraph(3, [(0, 1.0)], np.zeros((3, 1))).edges, [[0, 1]])

    @pytest.mark.parametrize("perm, message", [
        ([2.9, 1.2, 0.1], "node ids must be integers"),  # would truncate to [2, 1, 0]
        ([0, 0, 1], "perm must be a permutation"),
        ([[2, 1, 0]], "perm must be a permutation"),
    ])
    def test_permuted_rejects_non_permutation(self, perm, message):
        with pytest.raises(ValueError, match=message):
            path_graph(2).permuted(perm)


def _layer(vectors, mixing):
    return LayerParams(vectors, mixing, FeatureConfig(rank=2, max_degree=1))


# name -> (caller arrays, build the value from them, the value's fields to watch)
OWNERSHIP_CASES = {
    "graph": (lambda: [np.ones((3, 2))], lambda a: LabelledGraph(3, [(0, 1)], a[0]),
              ["attributes"]),
    "graph_from_view": (lambda: [np.ones((5, 2))], lambda a: LabelledGraph(3, [(0, 1)], a[0][:3]),
                        ["attributes"]),
    "with_attributes": (lambda: [np.ones((2, 3))],
                        lambda a: path_graph(1).with_attributes(a[0]), ["attributes"]),
    "layer": (lambda: [np.ones((2, 1, 3)), np.ones((2, 2))],
              lambda a: _layer(*a), ["vectors", "mixing"]),
    "attention": (lambda: [np.ones((2, 3)), np.ones((2, 3))],
                  lambda a: AttentionParams(*a), ["w_source", "w_target"]),
    "attention_1d": (lambda: [np.ones(3), np.ones(3)],
                     lambda a: AttentionParams(*a), ["w_source", "w_target"]),
    "row_stochastic": (lambda: [np.full(2, 1.0)],
                       lambda a: RowStochastic(path_graph(1).pattern, a[0]), ["values"]),
}


@pytest.mark.parametrize("case", sorted(OWNERSHIP_CASES))
def test_value_types_ignore_later_writes_to_the_callers_arrays(case):
    make, build, names = OWNERSHIP_CASES[case]
    arrays = make()
    value = build(arrays)
    before = [getattr(value, name).copy() for name in names]
    for arr in arrays:
        assert arr.flags.writeable
        arr *= 0.5
    for name, want in zip(names, before):
        got = getattr(value, name)
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable and got.flags.c_contiguous


class TestFrozen:
    def test_copies_only_what_a_caller_could_write_through(self):
        owner = frozen(np.arange(6.0).reshape(3, 2))
        assert frozen(owner) is owner
        assert frozen(owner[1:]).base is owner  # read-only view of a read-only owner: shared
        base = np.zeros(3)
        view = base.view()
        view.flags.writeable = False
        assert not np.shares_memory(frozen(view), base)
        assert base.flags.writeable

    def test_keeps_zero_d_and_checks_finite_values(self):
        assert frozen(2.0).shape == () and frozen(np.float64(2.0)).shape == ()
        assert frozen([[1, 2]], np.int32).dtype == np.int32
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^x must be finite$"):
                frozen([[0.0, bad]], what="x")
        frozen([np.nan])  # no check without a name


def assert_same_graph(got, want):
    """got equals a constructor-built want in every stored array."""
    assert got.n == want.n
    assert got.edges.dtype == want.edges.dtype and got.edges.shape == want.edges.shape
    assert got.edges.tobytes() == want.edges.tobytes()
    np.testing.assert_array_equal(got.attributes, want.attributes)
    assert got.attributes.dtype == want.attributes.dtype
    assert not got.edges.flags.writeable and not got.attributes.flags.writeable
    assert got.pattern.same_as(want.pattern)


class TestDisjointUnion:
    def test_blocks_and_offsets(self):
        a = LabelledGraph(2, [(0, 1)], [[0.0], [1.0]])
        b = LabelledGraph(3, [(0, 2)], [[2.0], [3.0], [4.0]])
        union, offsets = disjoint_union([a, b])
        np.testing.assert_array_equal(offsets, [0, 2, 5])
        np.testing.assert_array_equal(union.edges, [[0, 1], [2, 4]])
        np.testing.assert_array_equal(union.attributes[:, 0], [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(union.degrees, [1, 1, 1, 0, 1])

    def test_split_inverts_disjoint_union(self):
        rng = np.random.default_rng(33)
        members = [random_labelled_graph(rng, max_nodes=6, max_dim=1) for _ in range(4)]
        members.append(LabelledGraph(1, [], [[0.5]]))  # one node, no edges
        members.append(LabelledGraph(4, [(2, 0)], rng.standard_normal((4, 1))))  # isolated nodes
        union, offsets = disjoint_union(members)
        parts = union.split(offsets)
        assert len(parts) == len(members)
        for got, want in zip(parts, members):
            assert_same_graph(got, want)
            assert got.attributes.base is union.attributes
        again, again_offsets = disjoint_union(parts)
        np.testing.assert_array_equal(again_offsets, offsets)
        assert_same_graph(again, union)

    @pytest.mark.parametrize("offsets", [
        [0], [1, 5], [0, 4], [0, 6], [0, 2, 2, 5], [0, 3, 2, 5], [[0, 5]],
    ])
    def test_split_rejects_offsets_not_rising_from_zero_to_n(self, offsets):
        g = path_graph(4)
        with pytest.raises(ValueError, match=r"^offsets must rise strictly from 0 to n=5$"):
            g.split(offsets)

    def test_split_rejects_an_edge_across_a_cut(self):
        g = LabelledGraph(4, [(0, 1), (1, 2)], np.zeros((4, 1)))
        with pytest.raises(ValueError, match=r"^edge \(1, 2\) crosses a cut$"):
            g.split([0, 2, 4])
        assert [h.n for h in g.split([0, 3, 4])] == [3, 1]

    def test_union_arrays_equal_the_public_constructors(self):
        # the union trusts its members' arrays; the constructor checks them
        rng = np.random.default_rng(34)
        members = [random_labelled_graph(rng, max_nodes=6, max_dim=1) for _ in range(5)]
        members.append(LabelledGraph(2, [], [[0.0], [1.0]]))
        union, offsets = disjoint_union(members)
        edges = np.concatenate([g.edges + off for g, off in zip(members, offsets)])
        attributes = np.concatenate([g.attributes for g in members])
        assert_same_graph(union, LabelledGraph(int(offsets[-1]), edges, attributes))

    def test_rejects_empty_and_mixed_widths(self):
        with pytest.raises(ValueError, match="^need at least one graph$"):
            disjoint_union([])
        one, two = LabelledGraph(1, [], [[0.0]]), LabelledGraph(1, [], [[0.0, 1.0]])
        message = r"^graphs must share one attribute width, got \[1, 2\]$"
        with pytest.raises(ValueError, match=message):
            disjoint_union([two, one, two])

    @pytest.mark.parametrize("attention", [False, True])
    def test_matches_oracle(self, attention):
        rng = np.random.default_rng(31)
        members = [random_labelled_graph(rng, max_nodes=5, max_dim=2) for _ in range(2)]
        d = members[0].attr_dim
        members = [LabelledGraph(g.n, g.edges, rng.standard_normal((g.n, d))) for g in members]
        members.append(LabelledGraph(3, [(0, 1)], rng.standard_normal((3, d))))  # node 2 isolated
        union, _ = disjoint_union(members)
        if attention:
            p = attention_transition(
                union, AttentionParams(rng.standard_normal(d), rng.standard_normal(d))
            )
        else:
            p = transition_matrix(union)
        cfg = FeatureConfig(walk_length=3, max_degree=2, rank=2, time_param=True)
        functionals = [
            RankOneFunctional(rng.standard_normal((2, cfg.lift_dim(d)))) for _ in range(2)
        ]
        assert case_error(union, p, cfg, functionals, cfg.walk_length) <= TOLERANCE

    def test_member_rows_permutation_invariant(self):
        rng = np.random.default_rng(32)
        members = [LabelledGraph(g.n, g.edges, rng.standard_normal((g.n, 2)))
                   for g in (random_labelled_graph(rng, max_nodes=7) for _ in range(3))]
        cfg = FeatureConfig(walk_length=3, max_degree=3, rank=3)
        vectors = rng.standard_normal((3, 3, cfg.lift_dim(2)))

        def rows(graphs):
            union, offsets = disjoint_union(graphs)
            feats = batch_features(union, transition_matrix(union), vectors, cfg)
            return np.split(feats, offsets[1:-1])

        base = rows(members)
        for idx in range(len(members)):
            perm = rng.permutation(members[idx].n)
            moved = list(members)
            moved[idx] = members[idx].permuted(perm)
            got = rows(moved)
            for other in range(len(members)):
                want = base[other][np.argsort(perm)] if other == idx else base[other]
                np.testing.assert_allclose(got[other], want, rtol=1e-12, atol=1e-12)


@st.composite
def hub_patterns(draw):
    """Patterns with isolated nodes and a hub row of at least 9 entries,
    node ids shuffled so neither sits at a fixed end."""
    n = draw(st.integers(13, 40))
    live = n - draw(st.integers(1, 3))
    hub = draw(st.integers(0, live - 1))
    others = [j for j in range(live) if j != hub]
    spokes = draw(st.permutations(others))[: draw(st.integers(9, len(others)))]
    pairs = st.tuples(st.integers(0, live - 1), st.integers(0, live - 1))
    extra = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=40))
    perm = np.array(draw(st.permutations(range(n))))
    edges = perm[np.array([(hub, j) for j in spokes] + extra)]
    return LabelledGraph(n, edges, np.zeros((n, 1))).pattern


class TestAdjacencyPattern:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(pattern=hub_patterns(), data=st.data())
    def test_gathers_and_row_sums_are_the_index_reads_byte_for_byte(self, pattern, data):
        assert np.diff(pattern.indptr).max() >= 9
        assert (pattern.rows == pattern.indices).any()  # an isolated node's slot
        dtype = data.draw(st.sampled_from([np.float64, np.float32]))

        def operand(rows, ndims):
            trailing = st.lists(st.integers(1, 3), min_size=ndims - 1, max_size=ndims - 1)
            # every float of the dtype: +-0, subnormals, +-inf and NaNs
            return data.draw(arrays(dtype, (rows, *data.draw(trailing))))

        def same(got, want):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

        for ndims in (1, 2, 3):
            x = operand(pattern.n, ndims)
            block = data.draw(st.slices(pattern.nnz))
            same(pattern.sources(x), x[pattern.rows])
            same(pattern.targets(x), x[pattern.indices])
            same(pattern.sources(x, block), x[pattern.rows[block]])
        for ndims in (1, 2):
            x = operand(pattern.nnz, ndims)
            same(pattern.row_sums(x), pattern.incidence @ x)


def test_only_the_pattern_reads_its_csr_arrays():
    # every package module gathers and sums on the walk pattern through
    # AdjacencyPattern's methods, so its storage format is graphs.py's
    # decision alone; exact.py walks the arrays itself, as the independent
    # reference the low-rank engine is checked against
    package = Path(__file__).parents[1] / "src" / "hypograph"
    reads = [f"{path.name}:{node.lineno} .{node.attr}"
             for path in sorted(package.glob("*.py")) if path.name not in ("graphs.py", "exact.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and node.attr in ("indptr", "indices", "rows", "incidence")]
    assert reads == []


class TestTransitionMatrix:
    def test_path(self, path2):
        np.testing.assert_array_equal(
            transition_matrix(path2).matrix.toarray(), [[0.0, 1.0], [1.0, 0.0]]
        )

    def test_triangle(self, triangle):
        p = transition_matrix(triangle).matrix.toarray()
        np.testing.assert_allclose(p, (np.ones((3, 3)) - np.eye(3)) / 2.0)

    def test_isolated_self_loop(self):
        g = LabelledGraph(3, [(0, 1)], np.zeros((3, 1)))
        p = transition_matrix(g).matrix.toarray()
        assert p[2, 2] == 1.0

    def test_rejects_non_finite_values(self, path2):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="transition values must be finite"):
                RowStochastic(path2.pattern, np.full(path2.pattern.nnz, bad))

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
        np.testing.assert_array_equal(
            weighted_transition(g, np.ones(g.num_edges)).values, transition_matrix(g).values
        )

    def test_star_normalization(self):
        g = LabelledGraph(3, [(0, 1), (0, 2)], np.zeros((3, 1)))
        p = weighted_transition(g, [1.0, 3.0]).matrix.toarray()
        np.testing.assert_allclose(p[0], [0.0, 0.25, 0.75])

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        g = random_labelled_graph(rng, edge_prob=0.6)
        w = rng.uniform(0.5, 2.0, size=g.num_edges)
        a = weighted_transition(g, w).values
        b = weighted_transition(g, 7.5 * w).values
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_rejects_non_positive(self):
        g = LabelledGraph(2, [(0, 1)], np.zeros((2, 1)))
        with pytest.raises(ValueError, match=r"weight for edge \(0, 1\) must be positive"):
            weighted_transition(g, [0.0])
        with pytest.raises(ValueError, match="must be positive and finite, got -1.0"):
            weighted_transition(g, [-1.0])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, weight):
        g = LabelledGraph(3, [(0, 1), (1, 2)], np.zeros((3, 1)))
        with pytest.raises(ValueError, match=rf"\(1, 2\) must be positive and finite, got {weight}"):
            weighted_transition(g, [1.0, weight])

    def test_rejects_missing_weight(self):
        # one weight per edge of g.edges: too few, too many, or not one row
        g = LabelledGraph(4, [(0, 1), (1, 3)], np.zeros((4, 1)))
        for weights, shape in (([2.0], "(1,)"), ([], "(0,)"), ([1.0, 2.0, 3.0], "(3,)"),
                               ([[1.0, 2.0]], "(1, 2)"), (2.0, "()")):
            message = rf"^need one weight per edge, shape \(2,\), got {re.escape(shape)}$"
            with pytest.raises(ValueError, match=message):
                weighted_transition(g, weights)
        message = "edge weights must hold real numbers, got {(0, 1): 1.0, (1, 3): 1.0}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            weighted_transition(g, {(0, 1): 1.0, (1, 3): 1.0})

    def test_matches_loop_reference(self):
        def loop_values(g, weights):
            lookup = dict(zip(map(tuple, g.edges.tolist()), weights.tolist()))
            pattern = g.pattern
            raw = np.empty(pattern.nnz)
            for e in range(pattern.nnz):
                i, j = int(pattern.rows[e]), int(pattern.indices[e])
                raw[e] = 1.0 if i == j else lookup[(min(i, j), max(i, j))]
            sums = np.add.reduceat(raw, pattern.indptr[:-1])
            return raw / np.repeat(sums, np.diff(pattern.indptr))

        rng = np.random.default_rng(21)
        for _ in range(30):
            g = random_labelled_graph(rng, max_nodes=12, edge_prob=float(rng.uniform(0.1, 0.6)))
            weights = rng.uniform(0.1, 3.0, size=g.num_edges)
            np.testing.assert_array_equal(
                weighted_transition(g, weights).values, loop_values(g, weights)
            )


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
        p = attention_transition(g, params).matrix.toarray()
        np.testing.assert_array_equal(p, [[0.0, 1.0], [1.0, 0.0]])

    def test_hand_softmax(self, triangle):
        params = AttentionParams(np.zeros(1), np.array([1.0]))
        p = attention_transition(triangle, params).matrix.toarray()
        # row 0 scores over neighbours (1, 2) are (1, 2)
        want = np.exp([1.0, 2.0])
        want /= want.sum()
        np.testing.assert_allclose(p[0, 1:], want, rtol=1e-12)
        assert p[0, 1] == pytest.approx(0.26894142, abs=1e-8)
        assert p[0, 2] == pytest.approx(0.73105858, abs=1e-8)

    def test_leaky_relu_negative_branch(self):
        g = LabelledGraph(3, [(0, 1), (0, 2)], [[0.0], [-1.0], [1.0]])
        params = AttentionParams(np.zeros(1), np.array([1.0]))
        p = attention_transition(g, params).matrix.toarray()
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
            pg = attention_transition(g, params).matrix.toarray()
            ph = attention_transition(g.permuted(perm), params).matrix.toarray()
            np.testing.assert_allclose(ph[np.ix_(perm, perm)], pg, atol=1e-14)

    def test_multi_head_averages(self):
        rng = np.random.default_rng(6)
        g = random_labelled_graph(rng)
        ws = rng.standard_normal((3, g.attr_dim))
        wt = rng.standard_normal((3, g.attr_dim))
        combined = attention_transition(g, AttentionParams(ws, wt)).matrix.toarray()
        singles = [
            attention_transition(g, AttentionParams(ws[h], wt[h])).matrix.toarray()
            for h in range(3)
        ]
        np.testing.assert_allclose(combined, np.mean(singles, axis=0), atol=1e-14)

    @pytest.mark.parametrize("heads", [1, 2, 8, 13])
    def test_one_pass_heads_match_a_per_head_loop_bit_for_bit(self, heads):
        def loop_values(g, params):
            pattern = g.pattern
            rows, cols, counts = pattern.rows, pattern.indices, np.diff(pattern.indptr)
            src = g.attributes @ params.w_source.T
            tgt = g.attributes @ params.w_target.T
            accum = np.zeros(pattern.nnz)
            for h in range(params.heads):
                x = src[rows, h] + tgt[cols, h]
                scores = np.where(x >= 0.0, x, 0.2 * x)
                row_max = np.maximum.reduceat(scores, pattern.indptr[:-1])
                terms = np.exp(scores - np.repeat(row_max, counts))
                accum += terms / np.repeat(np.add.reduceat(terms, pattern.indptr[:-1]), counts)
            return accum / params.heads

        # node 0 is a hub of 59 neighbours; the last 3 nodes are isolated
        rng = np.random.default_rng(heads)
        n = 303
        pairs = rng.integers(0, n - 3, size=(600, 2))
        edges = [(0, j) for j in range(1, 60)] + [(a, b) for a, b in pairs.tolist() if a != b]
        g = LabelledGraph(n, edges, 2.0 * rng.standard_normal((n, 4)))
        assert g.degrees[0] > 8 and g.degrees[-3:].tolist() == [0, 0, 0]
        params = AttentionParams(rng.standard_normal((heads, 4)), rng.standard_normal((heads, 4)))
        got = attention_transition(g, params).values
        assert got.tobytes() == loop_values(g, params).tobytes()

    def test_leaky_rectifier_as_a_maximum_moves_no_bit(self):
        # attention_transition takes max(x, slope * x), which equals
        # x >= 0 ? x : slope * x bit for bit while 0 < slope < 1
        info = np.finfo(float)
        sub, tiny = info.smallest_subnormal, info.tiny
        edge = [0.0, np.inf, sub, 2 * sub, 4 * sub, 5 * sub, tiny - sub, tiny, 1.0, info.max]
        normal = np.random.default_rng(3).standard_normal(64)
        x = np.concatenate([edge, np.negative(edge), normal])
        got = np.maximum(x, LEAKY_SLOPE * x)
        assert got.tobytes() == np.where(x >= 0.0, x, LEAKY_SLOPE * x).tobytes()

    def test_slope_is_pinned(self):
        # the slope is the module constant LEAKY_SLOPE, not a field
        with pytest.raises(TypeError):
            AttentionParams(np.zeros(2), np.zeros(2), leaky_slope=0.1)

    def test_rejects_weights_beyond_two_dimensions(self):
        message = "w_source must be (heads, d), got shape (2, 1, 1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            AttentionParams(np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))

    def test_dimension_mismatch(self):
        g = LabelledGraph(2, [(0, 1)], np.zeros((2, 3)))
        with pytest.raises(ValueError):
            attention_transition(g, AttentionParams(np.zeros(2), np.zeros(2)))


class TestLaplacianAndDiffusion:
    def test_classic_diffusion_k0(self, path2):
        np.testing.assert_array_equal(classic_diffusion(path2, 0), path2.attributes)

    def test_classic_diffusion_swaps_path(self, path2):
        np.testing.assert_array_equal(classic_diffusion(path2, 1), [[1.0], [0.0]])
        np.testing.assert_array_equal(classic_diffusion(path2, 2), path2.attributes)

    def test_classic_diffusion_is_matrix_power(self):
        rng = np.random.default_rng(8)
        g = random_labelled_graph(rng)
        p = transition_matrix(g).matrix.toarray()
        want = np.linalg.matrix_power(p, 3) @ g.attributes
        np.testing.assert_allclose(classic_diffusion(g, 3), want, atol=1e-12)


class TestSyntheticGraphs:
    def test_path_graph_shape(self):
        g = path_graph(10)
        assert g.n == 11 and g.num_edges == 10

    def test_grid_graph_shape(self):
        g = grid_graph(4)
        assert g.n == 16 and g.num_edges == 2 * 4 * 3
        assert grid_graph(3).edges.tolist() == [
            [0, 1], [0, 3], [1, 2], [1, 4], [2, 5], [3, 4],
            [3, 6], [4, 5], [4, 7], [5, 8], [6, 7], [7, 8],
        ]


class TestTuLoader:
    def test_graphs_share_one_read_only_attribute_block(self, tmp_path):
        write_tu_files(tmp_path, "two", [(1, 2), (2, 1)], [1, 1, 2, 2, 2],
                       node_attributes=[[0.5], [1.5], [2.5], [3.5], [4.5]])
        (g1, _), (g2, _) = load_tu_dataset(str(tmp_path), "two")
        assert g1.attributes.base is not None and g1.attributes.base is g2.attributes.base
        assert not g1.attributes.base.flags.writeable
        np.testing.assert_array_equal(g2.attributes, [[2.5], [3.5], [4.5]])

    def test_minimal_dataset(self, tmp_path):
        write_tu_files(tmp_path, "tiny", [(1, 2), (2, 1)], [1, 1], node_labels=[0, 1])
        data = load_tu_dataset(str(tmp_path), "tiny")
        assert len(data) == 1
        g, label = data[0]
        assert label is None
        assert g.n == 2 and g.num_edges == 1
        np.testing.assert_array_equal(g.attributes, [[1.0, 0.0], [0.0, 1.0]])

    def test_one_pass_matches_the_constructor_per_graph(self, tmp_path):
        """Edges listed once in (j, i) order, a repeated edge, isolated
        nodes and graph ids out of file order: each loaded graph equals the
        constructor's graph of its nodes in file order."""
        indicator = [4, 2, 4, 9, 2, 4, 9, 2, 4, 2]
        edges = [(3, 1), (6, 3), (6, 3), (1, 6), (5, 2), (8, 5), (2, 8), (7, 4), (5, 8)]
        attrs = np.arange(20.0).reshape(10, 2)
        write_tu_files(tmp_path, "mix", edges, indicator,
                       node_attributes=attrs.tolist(), graph_labels=[5, -1, 0])
        got = load_tu_dataset(str(tmp_path), "mix")
        want = []
        for gid in sorted(set(indicator)):  # 2, 4, 9
            rows = [v for v, g in enumerate(indicator) if g == gid]
            local = {v + 1: i for i, v in enumerate(rows)}
            pairs = [(local[a], local[b]) for a, b in edges if a in local]
            want.append(LabelledGraph(len(rows), pairs, attrs[rows]))
        assert [label for _, label in got] == [5, -1, 0]
        assert [g.n for g, _ in got] == [4, 4, 2]
        assert [g.degrees.tolist() for g, _ in got] == [[2, 2, 2, 0], [2, 2, 2, 0], [1, 1]]
        for (g, _), h in zip(got, want):
            assert_same_graph(g, h)

    def test_cross_graph_edge_rejected(self, tmp_path):
        write_tu_files(tmp_path, "bad", [(1, 3)], [1, 1, 2], node_labels=[0, 0, 0])
        with pytest.raises(DatasetError, match="crosses graphs"):
            load_tu_dataset(str(tmp_path), "bad")

    def test_missing_files(self, tmp_path):
        # neither layout has the edge file: both paths tried are named
        nested, flat = tmp_path / "nothing" / "nothing_A.txt", tmp_path / "nothing_A.txt"
        message = f"missing required file {nested} or {flat}"
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
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

    def test_line_numbers_count_blank_lines(self, tmp_path):
        (tmp_path / "gap_A.txt").write_text("1, 2\n")
        (tmp_path / "gap_graph_indicator.txt").write_text("1\n\n1\nx\n")
        (tmp_path / "gap_node_labels.txt").write_text("0\n0\n0\n")
        with pytest.raises(DatasetError, match=r"gap_graph_indicator\.txt: line 4: "):
            load_tu_dataset(str(tmp_path), "gap")

    def test_blank_lines_with_spaces_skipped(self, tmp_path):
        (tmp_path / "sp_A.txt").write_text("1, 2\n   \n2, 1\n")
        (tmp_path / "sp_graph_indicator.txt").write_text("1\n \n1\n")
        (tmp_path / "sp_node_attributes.txt").write_text("0.5, 1\n\t\n2, -3e-2\n")
        (g, _), = load_tu_dataset(str(tmp_path), "sp")
        assert g.n == 2 and g.num_edges == 1
        np.testing.assert_array_equal(g.attributes, [[0.5, 1.0], [2.0, -0.03]])

    @pytest.mark.parametrize("a_text, pattern", [
        ("1, 2\n2, 1, 3\n", r"bad_A\.txt: line 2: ragged row of 3 values, expected 2"),
        ("1, 2\n\n2; 1\n", r"bad_A\.txt: line 3: ragged row of 1 values"),
        ("1, 2\n2, x\n", r"bad_A\.txt: line 2: "),
        ("1, 2\n2, 99999999999999999999\n", r"bad_A\.txt: line 2: "),
        ("1, 2\n2, 4\n", r"node id out of range 1\.\.3"),
        ("1, 2\n0, 1\n", r"node id out of range 1\.\.3"),
        ("1, 2\n\n3, 4\n", r"^\S+bad_A\.txt: line 3: node id out of range 1\.\.3, got 4$"),
        ("1, 2\n2, 3\n", r"edge \(2, 3\) crosses graphs 5 and 9"),
        ("1, 2\n\n2, 3\n", r"bad_A\.txt: line 3: edge \(2, 3\) crosses graphs 5 and 9"),
        ("1, 2\n\n1, 1\n", r"bad_A\.txt: line 3: self-loops are not allowed"),
    ])
    def test_bad_edge_file(self, tmp_path, a_text, pattern):
        write_tu_files(tmp_path, "bad", [], [5, 5, 9], node_labels=[0, 1, 0])
        (tmp_path / "bad_A.txt").write_text(a_text)
        with pytest.raises(DatasetError, match=pattern):
            load_tu_dataset(str(tmp_path), "bad")

    @pytest.mark.parametrize("extra, pattern", [
        ({"node_labels": [0, 1]}, r"node_labels\.txt: 2 labels for 3 nodes"),
        ({"node_attributes": [[1.0]] * 4}, r"node_attributes\.txt: 4 rows for 3 nodes"),
        ({"node_labels": [0, 1, 0], "graph_labels": [1]}, r"graph_labels\.txt: 1 labels for 2 graphs"),
        ({"node_attributes": [[1.0], ["nan"], [0.0]]},
         r"bad_node_attributes\.txt: line 2: attributes must be finite"),
    ])
    def test_count_mismatch_and_graph_errors(self, tmp_path, extra, pattern):
        write_tu_files(tmp_path, "bad", [(1, 2), (2, 1)], [1, 1, 2], **extra)
        with pytest.raises(DatasetError, match=pattern):
            load_tu_dataset(str(tmp_path), "bad")

    def test_matches_loop_reference(self, tmp_path):
        """Non-contiguous graph ids, interleaved nodes, edges in random order."""

        def loop_load(directory, name):
            def ints(suffix):
                text = (directory / f"{name}_{suffix}.txt").read_text()
                return [[int(x) for x in ln.split(",")] for ln in text.splitlines() if ln.strip()]

            indicator = [row[0] for row in ints("graph_indicator")]
            graph_ids = sorted(set(indicator))
            index = {gid: gi for gi, gid in enumerate(graph_ids)}
            node_graph = [index[gid] for gid in indicator]
            local, counts = [], [0] * len(graph_ids)
            for gi in node_graph:
                local.append(counts[gi])
                counts[gi] += 1
            labels = [row[0] for row in ints("node_labels")]
            onehot = np.zeros((len(labels), max(labels) - min(labels) + 1))
            onehot[np.arange(len(labels)), np.array(labels) - min(labels)] = 1.0
            attrs = np.hstack([onehot, np.array([
                [float(x) for x in ln.split(",")]
                for ln in (directory / f"{name}_node_attributes.txt").read_text().splitlines()
            ])])
            edges = [[] for _ in graph_ids]
            for a, b in ints("A"):
                edges[node_graph[a - 1]].append((local[a - 1], local[b - 1]))
            graph_labels = [row[0] for row in ints("graph_labels")]
            return [
                (LabelledGraph(counts[gi], edges[gi],
                               attrs[np.array(node_graph) == gi]), graph_labels[gi])
                for gi in range(len(graph_ids))
            ]

        rng = np.random.default_rng(17)
        ids = [7, 3, 12, 40, 8]
        sizes = [5, 1, 4, 6, 3]
        indicator = rng.permutation(np.repeat(ids, sizes)).tolist()
        members = {gid: [v + 1 for v, g in enumerate(indicator) if g == gid] for gid in ids}
        edges = []
        for gid in ids:
            nodes = members[gid]
            for i in range(len(nodes)):
                for j in range(i + 1, len(nodes)):
                    if rng.random() < 0.6:
                        edges += [(nodes[i], nodes[j]), (nodes[j], nodes[i])]
        edges = [edges[k] for k in rng.permutation(len(edges))]
        write_tu_files(
            tmp_path, "mix", edges, indicator,
            node_labels=rng.integers(2, 6, len(indicator)).tolist(),
            node_attributes=rng.standard_normal((len(indicator), 2)).tolist(),
            graph_labels=[0, 1, 1, 0, 1],
        )
        got, want = load_tu_dataset(str(tmp_path), "mix"), loop_load(tmp_path, "mix")
        assert [g.n for g, _ in got] == [1, 5, 3, 4, 6]  # ids 3, 7, 8, 12, 40
        assert [label for _, label in got] == [label for _, label in want]
        for (g, _), (h, _) in zip(got, want):
            assert g.n == h.n
            np.testing.assert_array_equal(g.edges, h.edges)
            np.testing.assert_array_equal(g.attributes, h.attributes)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_fuzzed_files_load_in_file_order_or_fail_named(self, data):
        """Random TU files: graph ids non-contiguous and interleaved, edges in
        any order and direction, optional labels, attributes and graph
        labels, blank lines anywhere.  Without junk lines they must load,
        each graph holding its nodes' file rows in file order; a junk line
        must make the load a DatasetError."""
        ids = data.draw(st.lists(st.integers(-5, 60), min_size=1, max_size=4, unique=True))
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=len(ids), max_size=len(ids)))
        indicator = data.draw(st.permutations(np.repeat(ids, sizes).tolist()))
        members = {gid: [v for v, g in enumerate(indicator) if g == gid] for gid in ids}
        edges, want_edges = [], {}
        for gid in ids:
            local = members[gid]
            pairs = [(i, j) for i in range(len(local)) for j in range(i + 1, len(local))]
            kept = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
            want_edges[gid] = sorted(kept)
            for i, j in kept:
                a, b = local[i] + 1, local[j] + 1
                edges += data.draw(st.sampled_from([[(a, b)], [(b, a)], [(a, b), (b, a)]]))
        edges = data.draw(st.permutations(edges))
        n = len(indicator)
        labels = data.draw(st.none() | st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        width = data.draw(st.integers(1, 2))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        row = st.lists(finite, min_size=width, max_size=width)
        attrs = data.draw(st.none() | st.lists(row, min_size=n, max_size=n))
        graph_labels = data.draw(
            st.none() | st.lists(st.integers(0, 9), min_size=len(ids), max_size=len(ids))
        )
        files = {
            "A": [f"{a}, {b}" for a, b in edges],
            "graph_indicator": [str(g) for g in indicator],
            "node_labels": None if labels is None else [str(v) for v in labels],
            "node_attributes": None if attrs is None else [", ".join(map(repr, r)) for r in attrs],
            "graph_labels": None if graph_labels is None else [str(v) for v in graph_labels],
        }
        present = [suffix for suffix, lines in files.items() if lines is not None]
        junk = data.draw(st.lists(st.tuples(
            st.sampled_from(present), st.integers(0, 100),
            st.sampled_from(["x", "1;2", "--1", "nan", "1e400", "0x1f"]),
        ), max_size=1))
        blanks = data.draw(st.lists(st.tuples(
            st.sampled_from(present), st.integers(0, 100), st.sampled_from(["", "  ", "\t"]),
        ), max_size=3))
        for suffix, pos, text in junk + blanks:
            lines = files[suffix]
            lines.insert(pos % (len(lines) + 1), text)
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        with tempfile.TemporaryDirectory() as tmp:
            for suffix in present:
                Path(tmp, f"fz_{suffix}.txt").write_text(
                    "".join(line + newline for line in files[suffix]), newline=""
                )
            if junk or (labels is None and attrs is None):
                with pytest.raises(DatasetError):
                    load_tu_dataset(tmp, "fz")
                return
            got = load_tu_dataset(tmp, "fz")
        blocks = []
        if labels is not None:
            onehot = np.zeros((n, max(labels) - min(labels) + 1))
            onehot[np.arange(n), np.array(labels) - min(labels)] = 1.0
            blocks.append(onehot)
        if attrs is not None:
            blocks.append(np.array(attrs))
        rows = np.hstack(blocks)
        assert len(got) == len(ids)
        for (g, label), gid in zip(got, sorted(ids)):
            np.testing.assert_array_equal(g.attributes, rows[members[gid]])
            np.testing.assert_array_equal(g.edges.reshape(-1, 2), np.array(want_edges[gid]).reshape(-1, 2))
            assert label == (None if graph_labels is None else graph_labels[sorted(ids).index(gid)])

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
        graphs = [random_labelled_graph(rng, max_dim=1) for _ in range(5)]
        for name, labels in [("rt", rng.integers(0, 2, 5).tolist()), ("bare", [None] * 5)]:
            dataset = list(zip(graphs, labels))
            save_tu_dataset(str(tmp_path), name, dataset)
            reloaded = load_tu_dataset(str(tmp_path), name)
            assert len(reloaded) == len(dataset)
            for (g0, l0), (g1, l1) in zip(dataset, reloaded):
                assert l0 == l1
                assert g0.n == g1.n
                np.testing.assert_array_equal(g0.edges, g1.edges)
                np.testing.assert_array_equal(g0.attributes, g1.attributes)


def assert_same_bits(got, want):
    """got equals want in every stored array, its attributes bit for bit
    and read-only C-contiguous float64."""
    assert_same_graph(got, want)
    assert got.attributes.flags.c_contiguous
    assert got.attributes.tobytes() == want.attributes.tobytes()
    assert got.attr_dim == want.attr_dim


class TestLabelCodes:
    """A dataset with node labels loads them as integer codes, and each
    graph or union builds its one-hot rows only when its attributes are
    read."""

    def test_loader_never_holds_the_whole_block(self, tmp_path):
        graphs, size, width = 300, 20, 1000
        nodes = graphs * size
        block = nodes * width * 8  # the whole dataset's float64 one-hot block
        assert block >= 40e6
        write_tu_files(
            tmp_path, "wide",
            [(a, a + 1) for g in range(graphs) for a in range(g * size + 1, (g + 1) * size)],
            np.repeat(np.arange(1, graphs + 1), size).tolist(),
            node_labels=[v % width for v in range(nodes)],
        )
        tracemalloc.start()
        try:
            dataset = load_tu_dataset(str(tmp_path), "wide")
            loading = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            dims = {g.attr_dim for g, _ in dataset}
            reading = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert loading < block / 10
        assert reading < block / 100
        assert dims == {width}
        g = dataset[1][0]
        assert g.attributes.shape == (size, width)
        np.testing.assert_array_equal(np.argmax(g.attributes, axis=1), np.arange(size, 2 * size))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_coded_and_dense_graphs_agree_bit_for_bit(self, data):
        sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        n = int(offsets[-1])
        labels = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        real = data.draw(arrays(np.float64, (n, data.draw(st.integers(0, 2))), elements=finite))
        edges = []
        for lo, size in zip(offsets.tolist(), sizes):
            pairs = list(itertools.permutations(range(lo + 1, lo + size + 1), 2))
            edges += data.draw(st.lists(st.sampled_from(pairs))) if pairs else []
        onehot = np.zeros((n, max(labels) - min(labels) + 1))
        onehot[np.arange(n), np.array(labels) - min(labels)] = 1.0
        rows = np.hstack([onehot, real])
        with tempfile.TemporaryDirectory() as tmp:
            write_tu_files(Path(tmp), "codes", edges, np.repeat(np.arange(len(sizes)), sizes),
                           node_labels=labels, node_attributes=real.tolist() if real.size else None)
            coded = [g for g, _ in load_tu_dataset(tmp, "codes")]
            dense = [LabelledGraph(g.n, g.edges, rows[a:b])
                     for g, a, b in zip(coded, offsets, offsets[1:])]
            union, union_offsets = disjoint_union(coded)
            blocks = [v for v in vars(union).values()
                      if isinstance(v, np.ndarray) and v.shape == (n, rows.shape[1])]
            assert union.attr_dim == rows.shape[1] and not blocks
            dense_union = disjoint_union(dense)[0]
            mixed = [h if k % 2 else g for k, (g, h) in enumerate(zip(coded, dense))]
            perm = data.draw(st.permutations(range(coded[0].n)))
            pairs = [
                (union, dense_union),
                *zip(union.split(union_offsets), dense),
                (disjoint_union(mixed)[0], dense_union),
                (disjoint_union(mixed[::-1])[0], disjoint_union(dense[::-1])[0]),
                *zip(coded, dense),
                (coded[0].permuted(perm), dense[0].permuted(perm)),
                (coded[-1].with_attributes(coded[-1].attributes), dense[-1]),
            ]
            save_tu_dataset(tmp, "again", [(g, None) for g in coded])
            pairs += zip([g for g, _ in load_tu_dataset(tmp, "again")], dense)
        for got, want in pairs:
            assert_same_bits(got, want)


def _load_with_edge_file_as_directory(tmp_path):
    write_tu_files(tmp_path, "dirA", [(1, 2)], [1, 1], node_labels=[0, 1])
    (tmp_path / "dirA_A.txt").unlink()
    (tmp_path / "dirA_A.txt").mkdir()
    load_tu_dataset(str(tmp_path), "dirA")


def _load_without_indicator(tmp_path):
    write_tu_files(tmp_path, "noind", [(1, 2)], [1, 1], node_labels=[0, 1])
    (tmp_path / "noind_graph_indicator.txt").unlink()
    load_tu_dataset(str(tmp_path), "noind")


# name -> (the failing call, given a scratch directory; error type; message)
RAISE_SITES = {
    "graph_without_nodes": (lambda tmp: LabelledGraph(0, [], np.zeros((0, 1))),
                            ValueError, r"^n must be an integer >= 1, got 0$"),
    "transition_values_misaligned": (lambda tmp: RowStochastic(path_graph(1).pattern, [1.0]),
                                     ValueError, r"^values must align with the pattern entries$"),
    "transition_value_above_one": (lambda tmp: RowStochastic(path_graph(1).pattern, [1.5, 1.0]),
                                   ValueError, r"^transition values must lie in \[0, 1\]$"),
    "transition_rows_off_one": (lambda tmp: RowStochastic(path_graph(1).pattern, [0.5, 1.0]),
                                ValueError, r"^rows must sum to 1$"),
    # rows 0 and 1 of a 2-node pattern, the first or the last one empty
    "transition_first_row_empty": (
        lambda tmp: RowStochastic(AdjacencyPattern(2, [0, 0, 1], [1]), [1.0]),
        ValueError, r"^rows must sum to 1$",
    ),
    "transition_last_row_empty": (
        lambda tmp: RowStochastic(AdjacencyPattern(2, [0, 1, 1], [0]), [1.0]),
        ValueError, r"^rows must sum to 1$",
    ),
    # CSR patterns whose columns or row offsets would read past a vector;
    # 2**32 is checked before the int32 cast, which would wrap it to 0
    "pattern_column_past_n": (
        lambda tmp: RowStochastic(AdjacencyPattern(2, [0, 1, 2], [5, 0]), [1.0, 1.0]),
        ValueError, r"^indices must lie in 0\.\.1$",
    ),
    "pattern_column_past_int32": (lambda tmp: AdjacencyPattern(2, [0, 1, 2], np.array([2**32, 0])),
                                  ValueError, r"^indices must lie in 0\.\.1$"),
    "pattern_negative_column": (lambda tmp: AdjacencyPattern(2, [0, 1, 2], [-1, 0]),
                                ValueError, r"^indices must lie in 0\.\.1$"),
    "pattern_falling_indptr": (lambda tmp: AdjacencyPattern(3, [0, 2, 1, 2], [1, 0]), ValueError,
                               r"^indptr must rise from 0 to nnz=2 in n\+1=4 offsets$"),
    # the int32 cast would truncate a fraction or read a bool as 0 or 1
    "pattern_fractional_indptr": (lambda tmp: AdjacencyPattern(2, [0, 1.5, 2], [1, 0]), ValueError,
                                  r"^indptr: node ids must be integers, got 1\.5$"),
    "pattern_fractional_indices": (lambda tmp: AdjacencyPattern(2, [0, 1, 2], [2.5, 0.9]),
                                   ValueError, r"^indices: node ids must be integers, got 2\.5$"),
    "pattern_bool_indices": (lambda tmp: AdjacencyPattern(2, [0, 1, 2], np.array([True, False])),
                             ValueError, r"^indices must hold real numbers, got True$"),
    "pattern_string_indptr": (lambda tmp: AdjacencyPattern(2, ["0", "1", "2"], [1, 0]),
                              ValueError, r"^indptr must hold real numbers, got '0'$"),
    "pattern_indices_2d": (lambda tmp: AdjacencyPattern(2, [0, 1, 2], [[1], [0]]),
                           ValueError, r"^indices must be 1-d, got shape \(2, 1\)$"),
    "attention_shapes_differ": (lambda tmp: AttentionParams(np.ones((2, 3)), np.ones((1, 3))),
                                ValueError, r"^w_source and w_target must have matching shapes$"),
    "attention_without_heads": (lambda tmp: AttentionParams(np.zeros((0, 2)), np.zeros((0, 2))),
                                ValueError,
                                r"^attention weights need at least one head, got shape \(0, 2\)$"),
    "attention_mapping": (lambda tmp: AttentionParams([[1.0]], {"x": 1}),
                          ValueError, r"^attention weights must hold real numbers, got \{'x': 1\}$"),
    "attention_ragged": (lambda tmp: AttentionParams([[1.0, 2.0], [3.0]], [[1.0, 2.0]]),
                         ValueError,
                         r"^attention weights has ragged rows \[1\.0, 2\.0\] and \[3\.0\]$"),
    "diffusion_negative_steps": (lambda tmp: classic_diffusion(path_graph(1), -1),
                                 ValueError, r"^k must be an integer >= 0, got -1$"),
    "diffusion_fractional_steps": (lambda tmp: classic_diffusion(path_graph(1), 1.5),
                                   ValueError, r"^k must be an integer >= 0, got 1\.5$"),
    "diffusion_bool_steps": (lambda tmp: classic_diffusion(path_graph(1), True),
                             ValueError, r"^k must be an integer >= 0, got True$"),
    "path_fractional_edges": (lambda tmp: path_graph(2.5),
                              ValueError, r"^num_edges must be an integer >= 0, got 2\.5$"),
    "path_bool_edges": (lambda tmp: path_graph(True),
                        ValueError, r"^num_edges must be an integer >= 0, got True$"),
    "path_negative_edges": (lambda tmp: path_graph(-1),
                            ValueError, r"^num_edges must be an integer >= 0, got -1$"),
    "grid_fractional_side": (lambda tmp: grid_graph(2.5),
                             ValueError, r"^side must be an integer >= 1, got 2\.5$"),
    "grid_empty": (lambda tmp: grid_graph(0), ValueError, r"^side must be an integer >= 1, got 0$"),
    "offsets_fractional": (lambda tmp: path_graph(3).split([0, 1.5, 4]),
                           ValueError, r"^offsets: node ids must be integers, got 1\.5$"),
    "perm_strings": (lambda tmp: path_graph(1).permuted(["a", "b"]),
                     ValueError, r"^perm must hold real numbers, got 'a'$"),
    "perm_bool_array": (lambda tmp: path_graph(1).permuted(np.array([True, False])),
                        ValueError, r"^perm must hold real numbers, got True$"),
    "edges_none": (lambda tmp: LabelledGraph(3, [[0, None]], np.zeros((3, 1))),
                   ValueError, r"^edges must hold real numbers, got None$"),
    "edges_beyond_int64": (lambda tmp: LabelledGraph(3, [[0, 2**70]], np.zeros((3, 1))),
                           ValueError, r"^edges: node ids must be integers, got 1\.18059\d+e\+21$"),
    "edges_bool_among_ints": (lambda tmp: LabelledGraph(3, [[0, True]], np.zeros((3, 1))),
                              ValueError, r"^edges must hold real numbers, got True$"),
    "edges_nan": (lambda tmp: LabelledGraph(3, np.array([[0.0, np.nan]]), np.zeros((3, 1))),
                  ValueError, r"^edges: node ids must be integers, got nan$"),
    "edges_ragged": (lambda tmp: LabelledGraph(3, [[0, 1], [2]], np.zeros((3, 1))),
                     ValueError, r"^edges has ragged rows \[0, 1\] and \[2\]$"),
    "edges_beyond_float": (lambda tmp: LabelledGraph(3, [[0, 10**400]], np.zeros((3, 1))),
                           ValueError, r"^edges: int too large to convert to float$"),
    "attributes_bool": (lambda tmp: LabelledGraph(2, [], [[True], [1.0]]),
                        ValueError, r"^attributes must hold real numbers, got True$"),
    "attributes_numeric_string": (lambda tmp: LabelledGraph(2, [], [[1.0], ["2"]]), ValueError,
                                  r"^attributes must hold real numbers, got '2'$"),
    "attributes_bytes": (lambda tmp: LabelledGraph(2, [], [[1.0], [b"2"]]),
                         ValueError, r"^attributes must hold real numbers, got b'2'$"),
    "attributes_ragged": (lambda tmp: LabelledGraph(3, [], [[0.0], [1.0, 2.0], [3.0]]),
                          ValueError, r"^attributes has ragged rows \[0\.0\] and \[1\.0, 2\.0\]$"),
    "weights_bool_and_string": (lambda tmp: weighted_transition(path_graph(2), [True, "2"]),
                                ValueError,
                                r"^edge weights must hold real numbers, got True$"),
    "weights_ragged": (lambda tmp: weighted_transition(path_graph(2), [1.0, [2.0]]),
                       ValueError, r"^edge weights has ragged rows 1\.0 and \[2\.0\]$"),
    "save_mixed_widths": (
        lambda tmp: save_tu_dataset(
            str(tmp), "mix", [(path_graph(1), 0), (path_graph(1, attr_dim=2), 1)]
        ),
        DatasetError, r"^graphs must share one attribute width, got \[1, 2\]$",
    ),
    "save_empty": (lambda tmp: save_tu_dataset(str(tmp), "none", []),
                   DatasetError, r"^cannot save an empty dataset$"),
    "save_none_after_label": (
        lambda tmp: save_tu_dataset(str(tmp), "mix", [(path_graph(1), 1), (path_graph(1), None)]),
        DatasetError, r"^graph 1: label must be an integer, got None$",
    ),
    "save_label_after_none": (
        lambda tmp: save_tu_dataset(str(tmp), "mix", [(path_graph(1), None), (path_graph(1), 1)]),
        DatasetError, r"^graph 1: label must be None as graph 0's is, got 1$",
    ),
    "save_string_label": (lambda tmp: save_tu_dataset(str(tmp), "str", [(path_graph(1), "a")]),
                          DatasetError, r"^graph 0: label must be an integer, got 'a'$"),
    "save_fractional_label": (
        lambda tmp: save_tu_dataset(str(tmp), "frac", [(path_graph(1), 0), (path_graph(1), 2.5)]),
        DatasetError, r"^graph 1: label must be an integer, got 2\.5$",
    ),
    "save_bool_label": (lambda tmp: save_tu_dataset(str(tmp), "bool", [(path_graph(1), True)]),
                        DatasetError, r"^graph 0: label must be an integer, got True$"),
    "indicator_missing": (_load_without_indicator, DatasetError,
                          r"^missing required file \S+noind_graph_indicator\.txt$"),
    "edge_file_is_a_directory": (_load_with_edge_file_as_directory,
                                 DatasetError, r"^cannot read \S+dirA_A\.txt: .*Is a directory"),
}


@pytest.mark.parametrize("case", sorted(RAISE_SITES))
def test_raise_site_names_the_fault(case, tmp_path):
    call, error, message = RAISE_SITES[case]
    with pytest.raises(error, match=message):
        call(tmp_path)
