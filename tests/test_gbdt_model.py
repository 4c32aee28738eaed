import numpy as np
import pytest

from channelrank.features import FeatureColumn, FeatureSchema
from channelrank.gbdt.model import Model, TrainingError, TrainParams, train, write_training_log
from channelrank.gbdt.serialize import loads_model, serialize_model
from channelrank.gbdt.tree import AxisSplit, Leaf, ObliqueSplit, Tree
from tests.forest_oracle import has_oblique, walk_model, walk_tree


def generic_schema(n):
    return FeatureSchema(
        columns=tuple(FeatureColumn(f"f{i}", "numeric", "item") for i in range(n))
    )


def ranking_problem(seed, n_groups=30, group_size=8, n_features=5, noise=0.05):
    """Groups whose labels are a noisy function of the first feature."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_groups * group_size, n_features))
    base = X[:, 0] + noise * rng.normal(size=len(X))
    labels = np.zeros(len(X))
    group_ids = np.repeat(np.arange(n_groups), group_size)
    for g in range(n_groups):
        seg = slice(g * group_size, (g + 1) * group_size)
        ranks = np.argsort(np.argsort(base[seg]))
        labels[seg] = 4.0 * ranks / (group_size - 1)
    return X, labels, group_ids


class TestTrainParams:
    def test_zero_trees_rejected(self):
        with pytest.raises(ValueError, match="num_trees"):
            TrainParams(num_trees=0)

    def test_bad_shrinkage_rejected(self):
        with pytest.raises(ValueError, match="shrinkage"):
            TrainParams(shrinkage=0.0)
        with pytest.raises(ValueError, match="shrinkage"):
            TrainParams(shrinkage=1.5)

    def test_defaults_valid(self):
        params = TrainParams()
        assert params.num_trees == 300
        assert params.ndcg_truncation == 8


class TestTrain:
    def test_learns_to_rank_small_problem(self):
        X, labels, group_ids = ranking_problem(101)
        params = TrainParams(num_trees=60, shrinkage=0.15, max_depth=4,
                             min_examples_per_leaf=2, seed=3)
        result = train(X, labels, group_ids, generic_schema(X.shape[1]), params)
        assert result.history[-1].train_ndcg > 0.97
        assert result.history[-1].train_ndcg > result.history[0].train_ndcg

    def test_exact_tree_count(self):
        X, labels, group_ids = ranking_problem(103, n_groups=5)
        params = TrainParams(num_trees=7, max_depth=3, min_examples_per_leaf=2)
        result = train(X, labels, group_ids, generic_schema(X.shape[1]), params)
        assert len(result.model.trees) == 7
        assert len(result.history) == 7

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError, match="empty"):
            train(
                np.empty((0, 3)), np.empty(0), np.empty(0),
                generic_schema(3), TrainParams(num_trees=1),
            )

    def test_all_equal_labels_rejected(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        labels = np.full(20, 2.0)
        group_ids = np.repeat([0, 1], 10)
        with pytest.raises(TrainingError, match="distinct"):
            train(X, labels, group_ids, generic_schema(3), TrainParams(num_trees=1))

    def test_non_contiguous_groups_rejected(self):
        X = np.random.default_rng(0).normal(size=(4, 2))
        labels = np.array([0.0, 4.0, 0.0, 4.0])
        group_ids = np.array([0, 1, 0, 1])
        with pytest.raises(TrainingError, match="contiguous"):
            train(X, labels, group_ids, generic_schema(2), TrainParams(num_trees=1))

    def test_same_seed_byte_identical_models(self):
        X, labels, group_ids = ranking_problem(107, n_groups=12)
        params = TrainParams(num_trees=10, max_depth=4, min_examples_per_leaf=2, seed=5)
        schema = generic_schema(X.shape[1])
        m1 = train(X, labels, group_ids, schema, params).model
        m2 = train(X, labels, group_ids, schema, params).model
        assert serialize_model(m1) == serialize_model(m2)

    def test_thread_count_does_not_change_model(self):
        X, labels, group_ids = ranking_problem(109, n_groups=16)
        params = TrainParams(num_trees=8, max_depth=4, min_examples_per_leaf=2)
        schema = generic_schema(X.shape[1])
        m1 = train(X, labels, group_ids, schema, params, n_threads=1).model
        m4 = train(X, labels, group_ids, schema, params, n_threads=4).model
        assert serialize_model(m1) == serialize_model(m4)

    def test_valid_history_recorded(self, tmp_path):
        X, labels, group_ids = ranking_problem(113, n_groups=12)
        Xv, lv, gv = ranking_problem(991, n_groups=4)
        params = TrainParams(num_trees=5, max_depth=3, min_examples_per_leaf=2)
        result = train(
            X, labels, group_ids, generic_schema(X.shape[1]), params,
            valid=(Xv, lv, gv),
        )
        assert all(r.valid_ndcg is not None for r in result.history)
        log = tmp_path / "train.log"
        write_training_log(result.history, str(log))
        lines = log.read_text().strip().split("\n")
        assert len(lines) == 5
        assert all(len(line.split("\t")) == 3 for line in lines)

    def test_oblique_flag_trains_and_is_deterministic(self):
        X, labels, group_ids = ranking_problem(127, n_groups=10)
        params = TrainParams(
            num_trees=5, max_depth=3, min_examples_per_leaf=2,
            oblique=True, oblique_projections=5, oblique_sparsity=0.6, seed=11,
        )
        schema = generic_schema(X.shape[1])
        m1 = train(X, labels, group_ids, schema, params).model
        m2 = train(X, labels, group_ids, schema, params).model
        assert serialize_model(m1) == serialize_model(m2)


class TestPredict:
    def _manual_model(self, shrinkage=0.1, base=0.0):
        split = AxisSplit(feature=0, threshold=0.5, missing_left=False, gain=1.0)
        split.left = Leaf(value=-1.0, n_samples=1)
        split.right = Leaf(value=2.0, n_samples=1)
        return Model(
            trees=(Tree(root=split),),
            shrinkage=shrinkage,
            base_score=base,
            schema=generic_schema(2),
            params=TrainParams(num_trees=1),
        )

    def test_hand_traced_single_split(self):
        model = self._manual_model()
        assert model.predict(np.array([0.3, 9.0])) == pytest.approx(-0.1)
        assert model.predict(np.array([0.7, 9.0])) == pytest.approx(0.2)

    def test_missing_routed_by_learned_direction(self):
        model = self._manual_model()
        assert model.predict(np.array([np.nan, 1.0])) == pytest.approx(0.2)

    def test_zero_leaf_model_returns_base_score(self):
        split = AxisSplit(feature=0, threshold=0.0, missing_left=True, gain=0.0)
        split.left = Leaf(value=0.0)
        split.right = Leaf(value=0.0)
        model = Model(
            trees=(Tree(root=split),), shrinkage=0.1, base_score=1.25,
            schema=generic_schema(2), params=TrainParams(num_trees=1),
        )
        assert model.predict(np.array([3.0, -1.0])) == 1.25

    def test_all_missing_vector_scores_finite(self):
        X, labels, group_ids = ranking_problem(131, n_groups=10)
        params = TrainParams(num_trees=5, max_depth=3, min_examples_per_leaf=2)
        model = train(X, labels, group_ids, generic_schema(X.shape[1]), params).model
        value = model.predict(np.full(X.shape[1], np.nan))
        assert np.isfinite(value)

    def test_schema_mismatch_rejected(self):
        model = self._manual_model()
        with pytest.raises(ValueError, match="length 2"):
            model.predict(np.array([1.0, 2.0, 3.0]))

    def test_matrix_and_single_agree(self):
        X, labels, group_ids = ranking_problem(137, n_groups=10)
        params = TrainParams(num_trees=6, max_depth=4, min_examples_per_leaf=2)
        model = train(X, labels, group_ids, generic_schema(X.shape[1]), params).model
        rng = np.random.default_rng(4)
        Xq = rng.normal(size=(40, X.shape[1]))
        Xq[rng.random(size=Xq.shape) < 0.2] = np.nan
        batch = model.predict_matrix(Xq)
        single = np.array([model.predict(row) for row in Xq])
        np.testing.assert_array_equal(batch, single)

    def test_forest_equals_tree_walk(self):
        X, labels, group_ids = ranking_problem(139, n_groups=10)
        schema = generic_schema(X.shape[1])
        rng = np.random.default_rng(8)
        Xq = rng.normal(size=(25, X.shape[1]))
        for oblique in (False, True):
            params = TrainParams(
                num_trees=10, max_depth=4, min_examples_per_leaf=2,
                oblique=oblique, oblique_projections=6, oblique_sparsity=0.6, seed=3,
            )
            model = train(X, labels, group_ids, schema, params).model
            np.testing.assert_array_equal(model.predict_matrix(Xq), walk_model(model, Xq))

    def test_base_score_shift_preserves_order(self):
        X, labels, group_ids = ranking_problem(149, n_groups=6)
        params = TrainParams(num_trees=4, max_depth=3, min_examples_per_leaf=2)
        model = train(X, labels, group_ids, generic_schema(X.shape[1]), params).model
        rng = np.random.default_rng(10)
        Xq = rng.normal(size=(30, X.shape[1]))
        s1 = model.predict_matrix(Xq)
        shifted = Model(
            trees=model.trees, shrinkage=model.shrinkage,
            base_score=model.base_score + 10.0, schema=model.schema,
            params=model.params,
        )
        s2 = shifted.predict_matrix(Xq)
        np.testing.assert_array_equal(np.argsort(-s1), np.argsort(-s2))


def queries(n, n_features, seed, nan_frac=0.15, inf_frac=0.05):
    """Normal cells plus NaN, +inf and -inf ones."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    u = rng.random(size=X.shape)
    X[u < nan_frac] = np.nan
    X[(u >= nan_frac) & (u < nan_frac + inf_frac)] = np.inf
    X[(u >= nan_frac + inf_frac) & (u < nan_frac + 2 * inf_frac)] = -np.inf
    return X


def forest_model(trees, n_features=5, shrinkage=0.1, base=0.25):
    return Model(
        trees=tuple(Tree(root=t) if not isinstance(t, Tree) else t for t in trees),
        shrinkage=shrinkage, base_score=base, schema=generic_schema(n_features),
        params=TrainParams(num_trees=len(trees)),
    )


def split(feature, threshold, missing_left, left, right):
    node = AxisSplit(feature=feature, threshold=threshold, missing_left=missing_left, gain=1.0)
    node.left, node.right = left, right
    return node


def oblique_split(features, weights, threshold, missing_left, left, right):
    node = ObliqueSplit(
        features=features, weights=weights, threshold=threshold,
        missing_left=missing_left, gain=1.0,
    )
    node.left, node.right = left, right
    return node


def trained(oblique, seed=151):
    X, labels, group_ids = ranking_problem(seed, n_groups=12)
    params = TrainParams(
        num_trees=12, max_depth=4, min_examples_per_leaf=2,
        oblique=oblique, oblique_projections=6, oblique_sparsity=0.6, seed=4,
    )
    return train(X, labels, group_ids, generic_schema(X.shape[1]), params).model


@pytest.fixture(scope="module")
def axis_model():
    return trained(oblique=False)


@pytest.fixture(scope="module")
def oblique_model():
    model = trained(oblique=True)
    assert any(has_oblique(tree) for tree in model.trees)
    return model


class TestForestParity:
    """``Model.predict_matrix`` equals the per-tree walk bit for bit."""

    def assert_parity(self, model, X):
        np.testing.assert_array_equal(model.predict_matrix(X), walk_model(model, X))

    def test_oblique_model_after_round_trip(self, oblique_model):
        restored = loads_model(serialize_model(oblique_model))
        X = queries(500, 5, seed=3)
        self.assert_parity(restored, X)
        np.testing.assert_array_equal(
            restored.predict_matrix(X), oblique_model.predict_matrix(X)
        )

    def test_oblique_projections_round_like_per_node_products(self):
        rng = np.random.default_rng(12)
        n_features = 24
        X = rng.normal(size=(200, n_features)) * 10.0 ** rng.uniform(-3, 3, size=(200, n_features))
        trees = []
        for k in range(60):
            width = (8, 16)[k % 2]
            feats = tuple(int(f) for f in np.sort(rng.choice(n_features, width, replace=False)))
            weights = tuple(float(w) for w in rng.normal(size=width))
            # Row k sits exactly on the threshold, so a projection rounded
            # one step lower than the per-node product sends it left.
            threshold = float(X[k, list(feats)] @ np.asarray(weights))
            trees.append(oblique_split(feats, weights, threshold, False, Leaf(-1.0 - k), Leaf(1.0 + k)))
        self.assert_parity(forest_model(trees, n_features=n_features), X)

    def test_stump_and_single_leaf(self):
        stump = split(2, 0.1, True, Leaf(-0.5), Leaf(1.5))
        X = queries(200, 5, seed=4)
        self.assert_parity(forest_model([stump]), X)
        self.assert_parity(forest_model([Leaf(0.75)]), X)
        np.testing.assert_array_equal(
            forest_model([Leaf(0.75)], shrinkage=1.0, base=0.0).predict_matrix(X),
            np.full(len(X), 0.75),
        )

    def test_trees_of_unequal_depth(self, axis_model, oblique_model):
        deep = split(
            0, 0.0, False,
            split(1, -0.3, True, Leaf(-1.0), split(4, 0.2, False, Leaf(0.1), Leaf(0.3))),
            Leaf(2.0),
        )
        leaning = oblique_split(
            (0, 3), (1.0, -1.0), 0.05, True,
            Leaf(-0.25), oblique_split((1, 2, 4), (-1.0, 1.0, 1.0), 0.4, False, Leaf(0.5), Leaf(0.9)),
        )
        X = queries(300, 5, seed=5)
        mixed = [Leaf(0.2), split(3, 0.0, False, Leaf(1.0), Leaf(-1.0)), deep,
                 *axis_model.trees[:9]]
        axis_only = forest_model(mixed)
        assert {t.depth() for t in axis_only.trees} >= {0, 1, 3, 4}
        self.assert_parity(axis_only, X)
        self.assert_parity(forest_model([*mixed, leaning, *oblique_model.trees[:4]]), X)

    def test_nan_and_infinite_cells(self, axis_model, oblique_model):
        X = queries(400, 5, seed=6, nan_frac=0.3, inf_frac=0.15)
        X[0] = np.nan
        X[1] = np.inf
        X[2] = -np.inf
        for model in (axis_model, oblique_model):
            self.assert_parity(model, X)

    def test_one_row(self, axis_model, oblique_model):
        X = queries(1, 5, seed=7)
        for model in (axis_model, oblique_model):
            self.assert_parity(model, X)
            assert model.predict(X[0]) == walk_model(model, X)[0]

    def test_batch_longer_than_one_chunk(self, axis_model, oblique_model):
        for model in (axis_model, oblique_model):
            model.predict_matrix(queries(1, 5, seed=8))
            n = 2 * model._forest.chunk + 7
            self.assert_parity(model, queries(n, 5, seed=9))

    def test_single_tree_predict_matrix_matches_walk(self, oblique_model):
        X = queries(300, 5, seed=10)
        for tree in oblique_model.trees:
            np.testing.assert_array_equal(tree.predict_matrix(X), walk_tree(tree, X))
