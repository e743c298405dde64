import dataclasses
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stockalloc import (
    DegenerateWeightsError,
    FeatureTable,
    Forest,
    ForestParams,
    SchemaError,
    ShapeError,
    train_forest,
)
from stockalloc import _levelwise
from stockalloc import forest as forest_module
from stockalloc._levelwise import _best_splits, _Data, _node_sums, _stable_order

from oracles import preorder, reference_forest, reference_node_split, reference_predict


def table(X, y, w=None):
    return FeatureTable.from_arrays(np.asarray(X, float), np.asarray(y, float), weights=w)


def small_params(**kw):
    base = dict(n_trees=10, max_depth=6, min_leaf_weight=1.0)
    base.update(kw)
    return ForestParams(**base)


class TestTraining:
    def test_constant_target_predicts_constant(self):
        rng = np.random.default_rng(0)
        t = table(rng.normal(size=(40, 3)), np.full(40, 7.0))
        f = train_forest(t, small_params(), seed=1)
        x = rng.normal(size=(5, 3))
        assert np.all(f.predict_point(x) == 7.0)
        for tree in f.trees:
            assert np.all(tree.value == 7.0)

    def test_single_binary_split(self):
        # Two copies each of (x=0, y=0) and (x=1, y=10); any tree whose
        # bootstrap saw both target values must split between 0 and 1
        # with pure leaves. Candidate-split enumeration: the only useful
        # boundary is between the two x values, gain = parent SSE > 0.
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        f = train_forest(table(X, y), ForestParams(n_trees=20, max_depth=1, min_leaf_weight=0.5), seed=3)
        mixed = 0
        for tree in f.trees:
            if len(tree.feature) == 1:
                continue  # one-class bootstrap, root stayed a leaf
            mixed += 1
            assert tree.feature[0] == 0
            assert 0.0 < tree.threshold[0] < 1.0
            leaves = sorted(tree.value[1:3])
            assert leaves == [0.0, 10.0]
        assert mixed > 0

    def test_split_between_adjacent_floats(self):
        # The midpoint of these two doubles rounds up to the larger one; the
        # threshold must still send it right, or the right child is empty.
        low, high = 1.0 + 2.0**-52, 1.0 + 2.0**-51
        X = np.array([[low]] * 20 + [[high]] * 20)
        y = np.array([0.0] * 20 + [10.0] * 20)
        f = train_forest(table(X, y), ForestParams(n_trees=5, max_depth=1, min_leaf_weight=0.5))
        for tree in f.trees:
            assert tree.threshold[0] == low
            assert list(tree.value[1:]) == [0.0, 10.0] and np.all(tree.support > 0)
        assert list(f.predict_point(X[[0, -1]])) == [0.0, 10.0]

    def test_zero_weight_rows_change_nothing(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(60, 3))
        y = rng.uniform(0, 10, size=60)
        w = rng.uniform(0.5, 2.0, size=60)
        base = train_forest(table(X, y, w), small_params(), seed=9)

        X2 = np.vstack([X, rng.uniform(0, 1, size=(25, 3))])
        y2 = np.concatenate([y, rng.uniform(50, 99, size=25)])
        w2 = np.concatenate([w, np.zeros(25)])
        padded = train_forest(table(X2, y2, w2), small_params(), seed=9)
        probe = rng.uniform(0, 1, size=(30, 3))
        assert np.array_equal(base.predict_point(probe), padded.predict_point(probe))

    def test_determinism(self):
        rng = np.random.default_rng(6)
        t = table(rng.uniform(size=(80, 4)), rng.uniform(0, 20, 80), rng.uniform(0.1, 2, 80))
        a = train_forest(t, small_params(), seed=42)
        b = train_forest(t, small_params(), seed=42)
        assert a.to_json() == b.to_json()

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(70, 3))
        y = rng.uniform(0, 10, 70)
        w = rng.uniform(0.1, 3.0, 70)
        base = train_forest(table(X, y, w), small_params(), seed=11)
        scaled = train_forest(table(X, y, w * np.pi), small_params(), seed=11)
        for ta, tb in zip(base.trees, scaled.trees):
            # structure is bit-identical; leaf values re-round under scaling
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)
        probe = rng.uniform(size=(20, 3))
        assert np.allclose(base.predict_point(probe), scaled.predict_point(probe), rtol=1e-9)
        # powers of two rescale exactly (pure exponent shifts)
        pow2 = train_forest(table(X, y, w * 4.0), small_params(), seed=11)
        for ta, tb in zip(base.trees, pow2.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)
            assert np.array_equal(ta.value, tb.value)
        assert np.array_equal(base.predict_point(probe), pow2.predict_point(probe))

    @pytest.mark.parametrize("case", ["skewed", "tied"])
    def test_weight_scale_invariance_when_rounding_decides(self, case):
        # Skewed: heavy-tailed targets put nodes of tiny moment next to huge
        # ones, and ties inside them stay ties only if each node's sums are
        # as precise as the node itself. Tied: uniform weights and a few
        # repeated targets make boundaries of one feature tie up to rounding,
        # which only the tolerance resolves the same way at every scale.
        rng = np.random.default_rng(19)
        X = rng.integers(0, 6, size=(400, 4)).astype(float)
        if case == "skewed":
            y = np.round(rng.lognormal(0, 3, 400), 2)
            w = rng.uniform(0.1, 3.0, 400)
        else:
            y = rng.choice([0.1, 0.7, 2.3, 13.9], size=400)
            w = np.ones(400)
        params = ForestParams(n_trees=20, max_depth=10, min_leaf_weight=0.5)
        base = train_forest(table(X, y, w), params, seed=20)
        scaled = train_forest(table(X, y, w * np.pi), params, seed=20)
        for ta, tb in zip(base.trees, scaled.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)

    def test_monotone_step_function_fits_exactly(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, size=(300, 2))
        y = np.floor(X[:, 0] * 4)
        f = train_forest(
            table(X, y),
            ForestParams(n_trees=40, max_depth=10, min_leaf_weight=1.0, features_per_split=2),
            seed=2,
        )
        mse = float(np.mean((f.predict_point(X) - y) ** 2))
        assert mse < 1e-2

    def test_all_zero_weights_error(self):
        with pytest.raises(DegenerateWeightsError):
            train_forest(table(np.ones((4, 2)), np.ones(4), np.zeros(4)), small_params())

    def test_empty_table_error(self):
        with pytest.raises(DegenerateWeightsError):
            train_forest(table(np.ones((0, 2)), np.zeros(0)), small_params())

    def test_mis_shaped_feature_matrix_rejected(self):
        # `FeatureTable` refuses the matrix, so no table reaches training with it.
        for X in (np.ones((3, 2)), np.ones(4), np.ones((4, 2, 1))):
            with pytest.raises(ShapeError, match="feature matrix shape"):
                train_forest(table(X, np.ones(4)), small_params())

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            train_forest(table(np.ones((3, 2)), np.ones(3), np.array([1.0, -1.0, 1.0])))

    def test_non_finite_target_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="targets must be finite"):
                train_forest(table(np.ones((4, 2)), [1.0, bad, 2.0, 3.0]), small_params())

    def test_mae_criterion_rejected(self):
        with pytest.raises(ValueError, match="criterion"):
            ForestParams(criterion="mae")

    @pytest.mark.parametrize("fields", [
        {"n_trees": 0}, {"max_depth": -1}, {"max_depth": 2.5}, {"min_leaf_weight": 0.0},
        {"features_per_split": 0}, {"features_per_split": -2},
    ])
    def test_bad_params_rejected(self, fields):
        with pytest.raises(ValueError):
            ForestParams(**fields)


class TestPrediction:
    def _toy_forest(self):
        # Two stub trees returning constants 4 and 6.
        def leaf(v):
            from stockalloc.forest import Tree

            return Tree(
                feature=np.array([-1]),
                threshold=np.array([0.0]),
                left=np.array([-1]),
                right=np.array([-1]),
                value=np.array([v]),
                support=np.array([1.0]),
            )

        return Forest(trees=[leaf(4.0), leaf(6.0)], feature_dim=2, seed=0, params=ForestParams(n_trees=2))

    def test_point_is_mean_of_trees(self):
        f = self._toy_forest()
        assert f.predict_point(np.zeros(2)) == 5.0

    def test_samples_in_tree_order(self):
        f = self._toy_forest()
        assert np.array_equal(f.predict_samples(np.zeros(2)), [4.0, 6.0])

    def test_single_tree_forest(self):
        f = self._toy_forest()
        f.trees = f.trees[:1]
        assert f.predict_point(np.zeros(2)) == 4.0

    def test_negative_tree_output_clamped_in_samples(self):
        f = self._toy_forest()
        f.trees[0].value[:] = -1.0
        assert np.array_equal(f.predict_samples(np.zeros(2)), [0.0, 6.0])
        assert f.predict_point(np.zeros(2)) == 2.5  # point stays the raw mean

    def test_samples_mean_equals_point_on_nonnegative_targets(self):
        rng = np.random.default_rng(3)
        t = table(rng.uniform(size=(60, 3)), rng.uniform(0, 30, 60))
        f = train_forest(t, small_params(), seed=4)
        probe = rng.uniform(size=(25, 3))
        samples = f.predict_samples(probe)
        assert np.allclose(samples.mean(axis=1), f.predict_point(probe), atol=1e-9)

    def test_shape_errors(self):
        f = self._toy_forest()
        with pytest.raises(ShapeError):
            f.predict_point(np.zeros(3))
        with pytest.raises(ShapeError):
            f.predict_samples(np.zeros((4, 1)))


class TestSerialization:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(12)
        t = table(rng.uniform(size=(50, 3)), rng.uniform(0, 9, 50), rng.uniform(0.2, 2, 50))
        f = train_forest(t, small_params(), seed=13)
        clone = Forest.from_json(f.to_json())
        assert clone.to_json() == f.to_json()
        probe = rng.uniform(size=(10, 3))
        assert np.array_equal(clone.predict_point(probe), f.predict_point(probe))
        assert clone.params == f.params

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        t = table(rng.uniform(size=(30, 2)), rng.uniform(0, 5, 30))
        f = train_forest(t, small_params(n_trees=3), seed=1)
        path = tmp_path / "forest.json"
        f.save(path)
        assert Forest.load(path).to_json() == f.to_json()

    @pytest.mark.parametrize("change, message", [
        (lambda p: p.update(version=2), "unsupported forest version 2"),
        (lambda p: p.pop("params"), "bad forest: KeyError"),
        (lambda p: p["params"].update(depth=3), "unexpected keyword argument 'depth'"),
        (lambda p: p["params"].update(criterion="mae"), "unknown criterion 'mae'"),
        (lambda p: p.update(feature_dim="2"), "feature_dim and seed must be integers"),
        (lambda p: p.update(trees=[]), "trees must be a non-empty list"),
        (lambda p: p["trees"][1]["value"].pop(), "tree 1: node arrays must be"),
        (lambda p: p["trees"][0]["left"].__setitem__(0, 99), "tree 0: child indices"),
        (lambda p: p["trees"][0]["right"].__setitem__(0, 0), "tree 0: child indices"),
        (lambda p: p["trees"][0]["feature"].__setitem__(0, 2), "tree 0: feature indices"),
        # np.array(..., dtype=np.int64) would read these as 0, 1, 1 and 1.
        (lambda p: p["trees"][0]["feature"].__setitem__(0, 0.5),
         "tree 0: feature must hold JSON integers, not 0.5"),
        (lambda p: p["trees"][1]["left"].__setitem__(0, 1.9),
         "tree 1: left must hold JSON integers, not 1.9"),
        (lambda p: p["trees"][0]["feature"].__setitem__(0, "1"),
         "tree 0: feature must hold JSON integers, not '1'"),
        (lambda p: p["trees"][0]["right"].__setitem__(0, True),
         "tree 0: right must hold JSON integers, not True"),
        # np.array(..., dtype=float) would parse these.
        (lambda p: p["trees"][0]["threshold"].__setitem__(0, "0.5"),
         "tree 0: threshold must hold JSON numbers, not '0.5'"),
        (lambda p: p["trees"][1]["value"].__setitem__(0, "2"),
         "tree 1: value must hold JSON numbers, not '2'"),
        (lambda p: p["trees"][0]["support"].__setitem__(0, False),
         "tree 0: support must hold JSON numbers, not False"),
    ], ids=["version", "no_params", "unknown_param", "mae", "feature_dim", "no_trees",
            "unequal_arrays", "child_out_of_range", "child_cycle", "feature_out_of_range",
            "feature_a_fraction", "left_a_fraction", "feature_a_string", "right_a_bool",
            "threshold_a_string", "value_a_string", "support_a_bool"])
    def test_malformed_payload_is_a_schema_error(self, change, message):
        rng = np.random.default_rng(21)
        t = table(rng.uniform(size=(40, 2)), rng.uniform(0, 9, 40))
        forest = train_forest(t, small_params(n_trees=2, max_depth=3), seed=2)
        payload = json.loads(forest.to_json())
        assert payload["trees"][0]["feature"][0] >= 0  # the root of tree 0 splits
        change(payload)
        with pytest.raises(SchemaError, match=re.escape(message)) as info:
            Forest.from_json(json.dumps(payload), source="model.json")
        assert str(info.value).startswith("model.json: ")

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("facility_id,product_id\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}, line 1: ")):
            Forest.load(path)
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(SchemaError, match=re.escape(f"{path}, line 1: 'utf-8' codec can't")):
            Forest.load(path)

    def test_rejects_foreign_payload(self):
        with pytest.raises(SchemaError, match="not a stockalloc forest file"):
            Forest.from_json('{"format": "something-else", "version": 1}')


@st.composite
def forest_inputs(draw):
    """Small tables with tied integer and float features; integer, float,
    few repeated float or constant nonnegative targets; zero-weight rows;
    and uniform weights that put min_leaf exactly on a side's weight."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    columns = [
        draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        if draw(st.booleans())
        else draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
        for _ in range(d)
    ]
    targets = draw(st.sampled_from(["integer", "float", "repeated", "constant"]))
    if targets == "integer":
        y = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    elif targets == "float":
        y = draw(st.lists(st.floats(0, 100), min_size=n, max_size=n))
    elif targets == "repeated":  # ties between splits, up to rounding
        y = draw(st.lists(st.sampled_from([0.1, 0.7, 2.3, 13.9]), min_size=n, max_size=n))
    else:
        y = [draw(st.floats(0, 100))] * n
    weights = draw(st.sampled_from(["ones", "steps", "float"]))
    if weights == "ones":
        w = [1.0] * n
    elif weights == "steps":
        w = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=n, max_size=n))
    else:
        w = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 3.0)), min_size=n, max_size=n))
    w[draw(st.integers(0, n - 1))] = 1.0  # at least one row can be drawn
    params = ForestParams(
        n_trees=draw(st.integers(1, 3)),
        max_depth=draw(st.integers(0, 6)),
        min_leaf_weight=draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])),
        features_per_split=d,
    )
    seed = draw(st.integers(0, 2**32 - 1))
    X = np.array(columns, dtype=float).T.reshape(n, d)
    return X, np.array(y, dtype=float), np.array(w), params, seed


def level_order(tree):
    order, queue = [], [0]
    while queue:
        node = queue.pop(0)
        order.append(node)
        if tree.feature[node] >= 0:
            queue += [int(tree.left[node]), int(tree.right[node])]
    return order


class TestMatchesReferenceBuilder:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(forest_inputs())
    def test_same_trees_with_every_feature_scanned(self, case):
        X, y, w, params, seed = case
        forest = train_forest(table(X, y, w), params, seed=seed)
        reference = reference_forest(
            X, y, w, params.n_trees, params.max_depth, params.min_leaf_weight,
            params.features_per_split, seed,
        )
        # Where a midpoint rounds up to the upper value, the reference sends
        # both sides left and grows an empty child; the level-wise builder
        # keeps the lower value as threshold (test_split_between_adjacent_floats).
        assume(all(np.all(ref["support"] > 0) for ref in reference))
        assert_same_trees(forest, reference)


def reference_trees(X, y, w, params, seed):
    return reference_forest(X, y, w, params.n_trees, params.max_depth, params.min_leaf_weight,
                            params.features_per_split, seed)


def assert_same_trees(forest, reference):
    """The forest's trees split as the reference builder's, node for node,
    with the same leaf values and supports up to rounding."""
    for tree, ref in zip(forest.trees, reference, strict=True):
        assert level_order(tree) == list(range(len(tree.feature)))
        mine, theirs = preorder(vars(tree)), preorder(ref)
        assert [(tree.feature[i], tree.threshold[i]) for i in mine] == [
            (ref["feature"][i], ref["threshold"][i]) for i in theirs
        ]
        for name in ("value", "support"):
            np.testing.assert_allclose(
                getattr(tree, name)[mine], ref[name][theirs], rtol=1e-12, atol=0
            )


def one_pass(X, y, w, nodes, min_leaf):
    """(feature, threshold) that one depth pass picks for each open node, the
    i-th holding the table rows `nodes[i]` (repeats are bootstrap
    duplicates), every feature scanned."""
    X, y, w = (np.asarray(a, dtype=float) for a in (X, y, w))
    data = _Data.of(X, y, w)
    rows = np.concatenate(nodes)
    node = np.repeat(np.arange(len(nodes)), [len(r) for r in nodes])
    weight, wy, wyy, _ = _node_sums(data, rows, node, len(nodes))
    chosen = np.broadcast_to(np.arange(X.shape[1]), (len(nodes), X.shape[1]))
    best_f, best_thr, _ = _best_splits(data, rows, node, chosen, weight, wy, wyy,
                                       np.full(len(nodes), min_leaf))
    return [(int(f), float(t)) for f, t in zip(best_f, best_thr)]


def reference_pass(X, y, w, nodes, min_leaf):
    X, y, w = (np.asarray(a, dtype=float) for a in (X, y, w))
    return [reference_node_split(X[r], y[r], w[r], min_leaf) for r in nodes]


class TestBinnedScanEdges:
    """Where the scan's bins matter most: pairs of one (node, feature, value)
    summed into one bin, and segments of one bin or one pair."""

    X = np.array([[3.0, 0], [3.0, 1], [3.0, 1], [3.0, 2], [3.0, 4], [3.0, 4], [3.0, 7]])
    y = np.array([1.0, 2.0, 9.0, 4.0, 8.0, 5.0, 6.0])
    w = np.array([1.0, 0.5, 2.0, 1.5, 1.0, 3.0, 0.7])

    def test_a_constant_feature_is_one_bin_and_no_cut(self):
        # Feature 0 is constant everywhere; in the second node feature 1 is
        # constant too (rows 1 and 2, and a duplicate), so it cannot split.
        nodes = [np.array([0, 1, 1, 2, 3, 5, 6, 6]), np.array([1, 2, 1]), np.arange(7)]
        picks = one_pass(self.X, self.y, self.w, nodes, 1.0)
        assert picks == reference_pass(self.X, self.y, self.w, nodes, 1.0)
        assert [f for f, _ in picks] == [1, -1, 1]
        params = ForestParams(n_trees=6, max_depth=4, min_leaf_weight=0.5, features_per_split=2)
        forest = train_forest(table(self.X, self.y, self.w), params, seed=3)
        assert_same_trees(forest, reference_trees(self.X, self.y, self.w, params, 3))
        assert all(0 not in tree.feature for tree in forest.trees)

    def test_a_segment_of_one_pair(self):
        # A node of one sample scans one pair per feature and cannot split;
        # the nodes around it in the pass split as the reference does.
        nodes = [np.array([0, 2, 4, 6]), np.array([3]), np.array([1, 2, 5, 5, 6])]
        picks = one_pass(self.X, self.y, self.w, nodes, 0.5)
        assert picks == reference_pass(self.X, self.y, self.w, nodes, 0.5)
        assert [f for f, _ in picks] == [1, -1, 1]

    def test_every_target_tied(self):
        y = np.full(7, 4.2)
        nodes = [np.arange(7), np.array([0, 1, 1, 6])]
        assert one_pass(self.X, y, self.w, nodes, 0.5) == [(-1, 0.0), (-1, 0.0)]
        assert reference_pass(self.X, y, self.w, nodes, 0.5) == [(-1, 0.0), (-1, 0.0)]
        params = ForestParams(n_trees=4, max_depth=4, min_leaf_weight=0.5, features_per_split=2)
        forest = train_forest(table(self.X, y, self.w), params, seed=5)
        assert_same_trees(forest, reference_trees(self.X, y, self.w, params, 5))
        assert all(len(tree.feature) == 1 for tree in forest.trees)

    def test_zero_weight_rows_next_to_tied_values(self):
        # Zero-weight rows share values with weighted ones and sit between
        # them; dropped before training, they change no bin and no cut.
        rng = np.random.default_rng(23)
        X = rng.integers(0, 4, size=(60, 3)).astype(float)
        y = rng.choice([0.5, 2.0, 7.5], size=60)
        w = rng.uniform(0.5, 2.0, 60)
        zero = rng.random(60) < 0.3
        w[zero] = 0.0
        X[zero, 1] += 0.5  # between the tied values of the weighted rows
        params = ForestParams(n_trees=8, max_depth=6, min_leaf_weight=1.0, features_per_split=3)
        forest = train_forest(table(X, y, w), params, seed=7)
        assert_same_trees(forest, reference_trees(X, y, w, params, 7))
        kept = ~zero
        alone = train_forest(table(X[kept], y[kept], w[kept]), params, seed=7)
        assert forest.to_json() == alone.to_json()


    @pytest.mark.parametrize("features_per_split", [None, 1])
    def test_a_table_without_features_grows_one_leaf_per_tree(self, features_per_split):
        # No feature to scan, so no split: each tree is the weighted mean of
        # its bootstrap, drawn as the reference builder draws it.
        rng = np.random.default_rng(29)
        y, w = rng.uniform(0, 9, 12), rng.uniform(0.5, 2.0, 12)
        params = ForestParams(n_trees=5, features_per_split=features_per_split)
        forest = train_forest(table(np.zeros((12, 0)), y, w), params, seed=4)
        for k, tree in enumerate(forest.trees):
            draw = np.random.default_rng(np.random.SeedSequence(4, spawn_key=(k,))).choice(
                12, size=12, replace=True, p=w / w.sum())
            assert list(tree.feature) == [-1]
            np.testing.assert_allclose(tree.support, [w[draw].sum()], rtol=1e-12)
            np.testing.assert_allclose(tree.value, [np.average(y[draw], weights=w[draw])],
                                       rtol=1e-12)
        X = np.zeros((3, 0))
        assert_same_bytes(forest.predict_samples(X),
                          np.tile([tree.value[0] for tree in forest.trees], (3, 1)))
        assert_matches_reference(forest, X)


def benchmark_forest(seed=18):
    """The default forest on a table of the benchmark's shape."""
    rng = np.random.default_rng(17)
    X = rng.uniform(0, 50, size=(300, 3))
    return train_forest(table(X, rng.poisson(X[:, 0] + 5).astype(float)), seed=seed)


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_matches_reference(forest, X):
    point, samples = reference_predict(forest, X)
    assert_same_bytes(forest.predict_point(X), point)
    assert_same_bytes(forest.predict_samples(X), samples)


class TestMatchesReferencePredict:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(forest_inputs(), st.data())
    def test_stacked_walk_equals_the_per_tree_loop(self, case, data):
        X, y, w, params, seed = case
        forest = train_forest(table(X, y, w), params, seed=seed)
        if data.draw(st.booleans(), label="from_json"):
            forest = Forest.from_json(forest.to_json())
        # Probes tie the thresholds (training values and midpoints) and
        # include NaN, which every tree sends right.
        pool = np.concatenate([X.ravel(), [t for tree in forest.trees for t in tree.threshold],
                               [np.nan, -1e9, 1e9]])
        n = data.draw(st.integers(0, 30), label="rows")
        probe = np.array(
            data.draw(st.lists(st.sampled_from(pool.tolist()), min_size=n * X.shape[1],
                               max_size=n * X.shape[1]), label="probe"), dtype=float,
        ).reshape(n, X.shape[1])
        pairs = data.draw(st.integers(1, 4 * forest.n_trees), label="WALK_PAIRS")
        with mock.patch.object(forest_module, "WALK_PAIRS", pairs):
            assert_matches_reference(forest, probe)
            if n:
                assert_matches_reference(forest, probe[0])
                rows = data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="subset")
                assert_same_bytes(forest.predict_point(probe[rows]), forest.predict_point(probe)[rows])
                assert_same_bytes(forest.predict_samples(probe[rows]),
                                  forest.predict_samples(probe)[rows])

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_rows_around_a_chunk_boundary(self, extra):
        forest = benchmark_forest()
        step = forest_module.WALK_PAIRS // forest.n_trees
        rng = np.random.default_rng(extra + 2)
        probe = rng.uniform(-5, 55, size=(2 * step + extra, 3))
        assert_matches_reference(forest, probe)
        rows = rng.permutation(len(probe))[: step + 1]
        assert_same_bytes(forest.predict_samples(probe[rows]), forest.predict_samples(probe)[rows])
        assert_same_bytes(forest.predict_point(probe[rows]), forest.predict_point(probe)[rows])


def golden_forest(case):
    """A fixed forest per case: tied integer and float features, d = 5."""
    rng = np.random.default_rng(31)
    X = rng.integers(0, 12, size=(150, 5)).astype(float)
    X[:, 1] = rng.normal(size=150).round(2)
    y = rng.gamma(2.0, 5.0, 150).round(1)
    w = rng.uniform(0.2, 3.0, 150)
    m = {"subsampled": 2, "every_feature": 5, "zero_weight": None, "tied_targets": 5}[case]
    if case == "zero_weight":
        w[::4] = 0.0
    if case == "tied_targets":
        y = rng.choice([0.1, 0.7, 2.3, 13.9], size=150)
        w = np.ones(150)
    params = ForestParams(n_trees=12, max_depth=8, min_leaf_weight=1.0, features_per_split=m)
    return train_forest(table(X, y, w), params, seed=32)


def ledger_forest():
    """A forest on a tie-heavy table shaped like an ingested ledger's: 10
    many-valued lag columns (-1 where missing), 13 two-valued columns (the
    lags' presence flags and three others) and a 12-valued month, d = 24.
    Here most (node, feature) pairs repeat a value already in their node."""
    rng = np.random.default_rng(33)
    n = 240
    lags = rng.poisson(rng.gamma(2.0, 6.0, size=(n, 1)), size=(n, 10)).astype(float)
    present = rng.random((n, 10)) < 0.85
    lags[~present] = -1.0
    flags = np.hstack([present, rng.random((n, 3)) < 0.5]).astype(float)
    month = rng.integers(1, 13, size=(n, 1)).astype(float)
    X = np.hstack([lags, flags, month])
    y = np.maximum(lags[:, 0], 0) + rng.poisson(3.0, n)
    w = rng.uniform(0.2, 3.0, n)
    params = ForestParams(n_trees=12, max_depth=8, min_leaf_weight=1.0)
    return train_forest(table(X, y, w), params, seed=34)


def ledger_shaped_table(n=6602):
    """A table shaped like the benchmark ledger's training table, n x 23: 10
    many-valued lag columns (-1 where missing), their presence flags, a
    12-valued month, a two-valued year and a 5-valued region, as
    `build_feature_table` lays them out."""
    rng = np.random.default_rng(35)
    lags = rng.poisson(rng.gamma(2.0, 6.0, size=(n, 1)), size=(n, 10)).astype(float)
    present = rng.random((n, 10)) < 0.85
    lags[~present] = -1.0
    calendar = [rng.integers(1, 13, size=(n, 1)), rng.integers(0, 2, size=(n, 1)),
                rng.integers(0, 5, size=(n, 1))]
    X = np.hstack([lags, present, *calendar]).astype(float)
    y = np.maximum(lags[:, 0], 0) + rng.poisson(3.0, n)
    return table(X, y, rng.uniform(0.2, 3.0, n))


# sha256 of each forest's JSON as the builder wrote it when these were
# recorded; any change to the bootstrap, the feature subsets, the split
# scan or the routing changes them.
GOLDEN_DIGESTS = {
    "subsampled": "09cc0b60c51fdf9929bac48d4b4afb155f37e20a3343127df82720440ca356d8",
    "every_feature": "f5d1b2ef7159588ef1e912d2abc73755dd9da5ae37293421a02f81af55be6f22",
    "zero_weight": "83a5c65801ac18fe87ddd52b34486797a24d7e7f0e6827e0b3d4edef213ebe84",
    "tied_targets": "000cf7326539e91891285738a2ef20a3a4d7040096c4d7d8222a229f3cec7e22",
    "benchmark": "c192e7701b168c08fadc1e723800d50b2fd9b46e2765ba9706755a5932b16fe8",
    "ledger_ties": "49003b03f465d5668fbd2f4cba61733c46f5bf75ace038a37c343eb8c1c1264c",
}
SPECIAL_FORESTS = {"benchmark": benchmark_forest, "ledger_ties": ledger_forest}


class TestGoldenForests:
    # The forest must not depend on the block size: one row per block, an
    # intermediate size and the default are all checked.
    @pytest.mark.parametrize("block_rows", sorted({1, 4096, forest_module.BLOCK_ROWS}))
    @pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
    def test_forest_json_digest(self, case, block_rows, monkeypatch):
        monkeypatch.setattr(forest_module, "BLOCK_ROWS", block_rows)
        forest = SPECIAL_FORESTS[case]() if case in SPECIAL_FORESTS else golden_forest(case)
        digest = hashlib.sha256(forest.to_json().encode()).hexdigest()
        assert digest == GOLDEN_DIGESTS[case]


class TestStableOrder:
    # Keys near 2**62 leave too few bits for the positions of two or more
    # keys, which takes the argsort fallback; 2**63 - 1 alone still packs.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from([0, 1, 5, 300, 2**40, 2**56, 2**62, 2**63 - 1]).flatmap(
        lambda high: st.lists(st.integers(0, high), max_size=300)))
    @example([]).via("empty")
    @example([2**63 - 1]).via("one key, no position bits")
    @example([2**62 - 1, 0]).via("63 bits packed")
    @example([2**62, 0]).via("64 bits: the fallback")
    def test_equals_the_stable_argsort(self, values):
        keys = np.array(values, dtype=np.int64)
        order, ordered = _stable_order(keys)
        expected = np.argsort(keys, kind="stable")
        assert_same_bytes(order, expected)
        assert_same_bytes(ordered, keys[expected])
        assert_same_bytes(keys, np.array(values, dtype=np.int64))


class TestBlocks:
    def test_forest_does_not_depend_on_the_block_size(self, monkeypatch):
        rng = np.random.default_rng(15)
        X = rng.integers(0, 8, size=(80, 5)).astype(float)
        y = rng.choice([0.1, 0.7, 2.3, 13.9], size=80)
        t = table(X, y, rng.uniform(0.1, 3.0, 80))
        params = small_params(n_trees=7, max_depth=8)
        monkeypatch.setattr(forest_module, "BLOCK_ROWS", 1)
        one_tree = train_forest(t, params, seed=16).to_json()
        monkeypatch.setattr(forest_module, "BLOCK_ROWS", 80 * 7)
        all_trees = train_forest(t, params, seed=16).to_json()
        assert one_tree == all_trees

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(forest_inputs(), st.data())
    def test_any_block_size_grows_the_forest_of_single_trees(self, case, data):
        # Blocks of any size, down to ones that split the trees unevenly,
        # grow the forest that one tree per block grows. The tables of
        # forest_inputs (ties, zero-weight rows) get duplicate rows, and the
        # features per split range from 1 to d.
        X, y, w, params, seed = case
        copies = data.draw(st.lists(st.integers(0, len(y) - 1), max_size=6), label="duplicates")
        X, y, w = np.vstack([X, X[copies]]), np.append(y, y[copies]), np.append(w, w[copies])
        params = dataclasses.replace(
            params,
            n_trees=data.draw(st.integers(1, 7), label="n_trees"),
            features_per_split=data.draw(st.integers(1, X.shape[1]), label="features_per_split"),
        )
        t = table(X, y, w)
        block_rows = data.draw(st.integers(1, len(y) * params.n_trees + 1), label="BLOCK_ROWS")
        with mock.patch.object(forest_module, "BLOCK_ROWS", 1):
            single_trees = train_forest(t, params, seed=seed).to_json()
        with mock.patch.object(forest_module, "BLOCK_ROWS", block_rows):
            assert train_forest(t, params, seed=seed).to_json() == single_trees

    @staticmethod
    def benchmark_shape_heap_peak(cpus, monkeypatch):
        """tracemalloc's peak over one default forest on the benchmark's
        300 x 3 table with `cpus` usable, and the shares sent to workers;
        the training starts and ends with no worker."""
        monkeypatch.setattr(_levelwise, "_usable_cpus", lambda: cpus)
        rng = np.random.default_rng(17)
        X = rng.uniform(0, 50, size=(300, 3))
        t = table(X, rng.poisson(X[:, 0] + 5).astype(float))
        close_and_assert_nothing_left()
        with mock.patch.object(_levelwise, "_request", wraps=_levelwise._request) as spy:
            tracemalloc.start()
            try:
                train_forest(t, seed=18)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        close_and_assert_nothing_left()
        return peak, spy.call_count

    def test_heap_peak_on_the_benchmark_shape(self, monkeypatch):
        # Serial: the bound holds every depth pass of all four blocks.
        peak, shares_sent = self.benchmark_shape_heap_peak([0], monkeypatch)
        assert shares_sent == 0
        assert peak <= 1.5e6

    def test_parent_heap_peak_of_forked_shares_on_the_benchmark_shape(self, monkeypatch):
        # This process grows one share in the same blocks, then holds the
        # other share's payload and trees beside its own (1.02 MB measured).
        peak, shares_sent = self.benchmark_shape_heap_peak([0, 1], monkeypatch)
        assert shares_sent == 1
        assert peak <= 1.5e6

    def test_working_set_of_one_tree_at_the_ledger_shape(self, monkeypatch):
        # The table's ranks and moments plus one depth pass over up to
        # 6,602 x 5 (sample, feature) pairs, the finished tree aside.
        # 1.79 MB measured; the bound leaves 0.16 MB (9%) for growth.
        t = ledger_shaped_table()
        monkeypatch.setattr(forest_module, "BLOCK_ROWS", 1)
        tracemalloc.start()
        try:
            forest = train_forest(t, ForestParams(n_trees=1), seed=36)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tree_bytes = sum(a.nbytes for a in vars(forest.trees[0]).values())
        assert peak - tree_bytes <= 1.95e6

    def test_prediction_heap_peak_is_its_output_and_one_chunk(self):
        # The walk takes WALK_PAIRS (row, tree) pairs at a time: an unchunked
        # walk of these 2,000,000 pairs would hold several 16 MB index arrays.
        forest = benchmark_forest()
        X = np.random.default_rng(19).uniform(0, 50, size=(20_000, 3))
        output = X.shape[0] * forest.n_trees * 8
        tracemalloc.start()
        try:
            forest.predict_samples(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - output <= 2e6


FORK_ROWS_DEFAULT = forest_module.FORK_ROWS
AFFINITY = os.sched_getaffinity(0)


def assert_nothing_left():
    """This process has no child, and no training left its CPUs changed."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == AFFINITY


def close_and_assert_nothing_left():
    """No worker outlives the close."""
    _levelwise.close_workers()
    assert not _levelwise._workers
    assert_nothing_left()


class TestForkedShares:
    """Forests grown in shares by forked workers, each training forced onto
    two CPUs at any size (`FORK_ROWS` 0) unless a test says otherwise. Every
    test starts and ends with no worker."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(_levelwise, "_usable_cpus", lambda: [0, 1])
        monkeypatch.setattr(forest_module, "FORK_ROWS", 0)
        close_and_assert_nothing_left()
        yield
        close_and_assert_nothing_left()

    @staticmethod
    def trained(t, params, seed, **patches):
        """The forest's JSON and the number of workers forked for it."""
        with mock.patch.object(_levelwise, "_Worker", wraps=_levelwise._Worker) as spy:
            with mock.patch.multiple(forest_module, **patches):
                text = train_forest(t, params, seed=seed).to_json()
        return text, spy.call_count

    @classmethod
    def forest_json(cls, t, params, seed, **patches):
        """The forest's JSON and the number of workers forked for it, every
        worker closed after."""
        trained = cls.trained(t, params, seed, **patches)
        close_and_assert_nothing_left()
        return trained

    @staticmethod
    def case():
        rng = np.random.default_rng(41)
        X = rng.integers(0, 6, size=(60, 4)).astype(float)
        y = rng.choice([0.1, 0.7, 2.3, 13.9], size=60)
        return table(X, y, rng.uniform(0.1, 3.0, 60)), small_params(n_trees=9, max_depth=7)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(forest_inputs(), st.data())
    def test_any_block_size_grows_the_forest_of_single_trees(self, case, data):
        X, y, w, params, seed = case
        params = dataclasses.replace(params, n_trees=data.draw(st.integers(1, 7), label="n_trees"))
        t = table(X, y, w)
        block_rows = data.draw(st.integers(1, len(y) * params.n_trees + 1), label="BLOCK_ROWS")
        single_trees, forks = self.forest_json(t, params, seed, BLOCK_ROWS=1, FORK_ROWS=2**62)
        assert forks == 0
        shared, forks = self.forest_json(t, params, seed, BLOCK_ROWS=block_rows)
        blocks = -(-params.n_trees // max(1, block_rows // int((w > 0).sum())))
        assert forks == (blocks > 1)
        assert shared == single_trees

    def test_one_worker_grows_the_shares_of_every_training(self):
        t, params = self.case()
        serial, _ = self.forest_json(t, params, 40, BLOCK_ROWS=1, FORK_ROWS=2**62)
        assert self.trained(t, params, 40, BLOCK_ROWS=1) == (serial, 1)
        pid = _levelwise._workers[1].pid
        assert self.trained(t, params, 40, BLOCK_ROWS=1) == (serial, 0)
        assert _levelwise._workers[1].pid == pid
        assert _levelwise._workers[1].pending is None

    def test_a_failing_child_share_is_grown_here(self):
        t, params = self.case()
        serial, _ = self.forest_json(t, params, 42, BLOCK_ROWS=1, FORK_ROWS=2**62)
        parent = os.getpid()
        grow_block = _levelwise._grow_block

        def failing_in_children(*args):
            if os.getpid() != parent:
                raise RuntimeError("a child's share fails")
            return grow_block(*args)

        with mock.patch.object(_levelwise, "_grow_block", failing_in_children):
            assert self.trained(t, params, 42, BLOCK_ROWS=1) == (serial, 1)
        assert not _levelwise._workers  # the failed worker was reaped and dropped
        assert_nothing_left()

    def test_a_short_payload_is_grown_here(self):
        t, params = self.case()
        serial, _ = self.forest_json(t, params, 43, BLOCK_ROWS=1, FORK_ROWS=2**62)
        pack = _levelwise._pack

        def short(trees):
            *parts, last = pack(trees)
            return [*parts, last[:-1]]

        with mock.patch.object(_levelwise, "_pack", short):
            assert self.trained(t, params, 43, BLOCK_ROWS=1) == (serial, 1)
        assert not _levelwise._workers
        assert_nothing_left()

    def test_a_stale_reply_is_not_joined(self):
        # A reply left in the pipe by an earlier request, for the same share
        # of another forest, must not be taken for this training's.
        t, params = self.case()
        serial, _ = self.forest_json(t, params, 48, BLOCK_ROWS=1, FORK_ROWS=2**62)
        other, _ = self.forest_json(t, params, 49, BLOCK_ROWS=1, FORK_ROWS=2**62)
        assert other != serial
        rows = (t.X, t.y, t.weights)
        stale = _levelwise._request(1, (params, 49, range(4, 9), 1), rows, _levelwise._prepared(*rows))
        assert stale is not None
        assert self.trained(t, params, 48, BLOCK_ROWS=1) == (serial, 0)
        assert not _levelwise._workers
        assert_nothing_left()

    def test_a_worker_killed_between_trainings_is_replaced(self):
        t, params = self.case()
        serial, _ = self.forest_json(t, params, 39, BLOCK_ROWS=1, FORK_ROWS=2**62)
        assert self.trained(t, params, 39, BLOCK_ROWS=1) == (serial, 1)
        os.kill(_levelwise._workers[1].pid, signal.SIGKILL)
        # The dead worker's share is grown here; the next training forks anew.
        assert self.trained(t, params, 39, BLOCK_ROWS=1) == (serial, 0)
        assert not _levelwise._workers
        assert_nothing_left()
        assert self.trained(t, params, 39, BLOCK_ROWS=1) == (serial, 1)

    def test_no_process_to_fork_grows_every_share_here(self):
        t, params = self.case()
        serial, _ = self.forest_json(t, params, 44, BLOCK_ROWS=1, FORK_ROWS=2**62)
        with mock.patch.object(os, "fork", side_effect=OSError("no process to spare")):
            assert self.forest_json(t, params, 44, BLOCK_ROWS=1) == (serial, 1)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_a_failing_parent_share_reaps_every_child(self, error, monkeypatch):
        # A raise here while a request is out kills and reaps its worker, so
        # no reply of it can be joined to a later forest.
        t, params = self.case()
        serial, _ = self.forest_json(t, params, 45, BLOCK_ROWS=1, FORK_ROWS=2**62)
        monkeypatch.setattr(forest_module, "BLOCK_ROWS", 1)
        parent = os.getpid()
        grow_block = _levelwise._grow_block

        def failing_here(*args):
            if os.getpid() == parent:
                raise error("this share fails")
            return grow_block(*args)

        with mock.patch.object(_levelwise, "_Worker", wraps=_levelwise._Worker) as spy:
            with mock.patch.object(_levelwise, "_grow_block", failing_here):
                with pytest.raises(error, match="this share fails"):
                    train_forest(t, params, seed=45)
        assert spy.call_count == 1
        assert not _levelwise._workers
        assert_nothing_left()
        assert self.trained(t, params, 45, BLOCK_ROWS=1) == (serial, 1)

    def test_a_forked_child_trains_without_the_parents_worker(self):
        t, params = self.case()
        serial, _ = self.forest_json(t, params, 38, BLOCK_ROWS=1, FORK_ROWS=2**62)
        assert self.trained(t, params, 38, BLOCK_ROWS=1) == (serial, 1)
        worker = _levelwise._workers[1]
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child leaves only through os._exit
            status = 1
            try:
                os.close(read_fd)
                # The parent's worker is neither known nor held here.
                closed = []
                for fd in (worker.requests, worker.replies):
                    try:
                        os.fstat(fd)
                    except OSError:
                        closed.append(fd)
                forgotten = not _levelwise._workers
                text, forks = self.trained(t, params, 38, BLOCK_ROWS=1)
                _levelwise.close_workers()
                with open(write_fd, "w") as out:
                    json.dump([len(closed), forgotten, forks, text == serial], out)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        with open(read_fd) as pipe:
            seen = pipe.read()
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        assert json.loads(seen) == [2, True, 1, True]
        # The parent's worker still serves the parent alone.
        assert self.trained(t, params, 38, BLOCK_ROWS=1) == (serial, 0)
        assert _levelwise._workers[1] is worker and worker.pending is None

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_no_worker_outlives_its_process(self):
        script = (
            "import numpy as np\n"
            "from stockalloc import FeatureTable, ForestParams, _levelwise, forest\n"
            "_levelwise._usable_cpus = lambda: [0, 1]\n"
            "forest.FORK_ROWS, forest.BLOCK_ROWS = 0, 1\n"
            "t = FeatureTable.from_arrays(np.arange(40.0).reshape(20, 2), np.arange(20.0) % 7)\n"
            "forest.train_forest(t, ForestParams(n_trees=4), seed=37)\n"
            "print(_levelwise._workers[1].pid)\n"
        )
        src = os.path.dirname(os.path.dirname(_levelwise.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert not os.path.exists(f"/proc/{int(done.stdout)}")

    def test_one_usable_cpu_grows_the_same_bytes_in_this_process(self, monkeypatch):
        t, params = self.case()
        shared, forks = self.forest_json(t, params, 46, BLOCK_ROWS=1)
        assert forks == 1
        monkeypatch.setattr(_levelwise, "_usable_cpus", lambda: [0])
        assert self.forest_json(t, params, 46, BLOCK_ROWS=1) == (shared, 0)

    def test_a_small_forest_stays_in_this_process(self):
        # At the default FORK_ROWS a forest below it is grown serially.
        t, params = self.case()
        assert 60 * params.n_trees < FORK_ROWS_DEFAULT
        assert self.forest_json(t, params, 47, BLOCK_ROWS=1, FORK_ROWS=FORK_ROWS_DEFAULT)[1] == 0

    @pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
    def test_golden_digests_from_shares(self, case, monkeypatch):
        monkeypatch.setattr(forest_module, "BLOCK_ROWS", 1)
        forest = SPECIAL_FORESTS[case]() if case in SPECIAL_FORESTS else golden_forest(case)
        close_and_assert_nothing_left()
        digest = hashlib.sha256(forest.to_json().encode()).hexdigest()
        assert digest == GOLDEN_DIGESTS[case]
