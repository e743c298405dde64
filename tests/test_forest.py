import numpy as np
import pytest

from stockalloc import (
    DegenerateWeightsError,
    FeatureTable,
    Forest,
    ForestParams,
    ShapeError,
    train_forest,
)


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

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            train_forest(table(np.ones((3, 2)), np.ones(3), np.array([1.0, -1.0, 1.0])))

    def test_non_finite_target_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="targets must be finite"):
                train_forest(table(np.ones((4, 2)), [1.0, bad, 2.0, 3.0]), small_params())

    def test_mae_criterion_trains(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(0, 1, size=(50, 2))
        y = 3.0 * X[:, 0] + rng.normal(0, 0.01, 50)
        f = train_forest(table(X, y), small_params(criterion="mae", n_trees=5), seed=1)
        resid = np.abs(f.predict_point(X) - y)
        assert np.median(resid) < 0.5


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

    def test_rejects_foreign_payload(self):
        with pytest.raises(ValueError):
            Forest.from_json('{"format": "something-else", "version": 1}')
