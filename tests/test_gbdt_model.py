import re

import numpy as np
import pytest

from channelrank.features import FeatureColumn, FeatureSchema
from channelrank.gbdt import model as model_module
from channelrank.gbdt.model import (
    Model,
    TrainingError,
    TrainParams,
    _Forest,
    train,
    write_training_log,
)
from channelrank.gbdt.serialize import loads_model, serialize_model
from channelrank.gbdt.tree import Tree
from channelrank.metrics import GroupedNdcg, QueryGroups
from tests.forest_oracle import (
    AxisSplit,
    Leaf,
    ObliqueSplit,
    depth,
    has_oblique,
    to_nodes,
    to_tree,
    upfront_columns,
    walk_model,
    walk_tree,
)


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

    @pytest.mark.parametrize(
        "field, value",
        [("l2", float("nan")), ("l2", float("inf")), ("l2", -1.0),
         ("sigma", float("nan")), ("sigma", float("inf")), ("sigma", 0.0)],
    )
    def test_non_finite_or_out_of_range_l2_and_sigma_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainParams(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainParams(seed=-1)
        assert TrainParams(seed=0).seed == 0

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

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("where", ["training", "validation"])
    def test_negative_or_non_finite_label_rejected(self, bad, where):
        X, labels, group_ids = ranking_problem(141, n_groups=4)
        Xv, labels_v, ids_v = ranking_problem(143, n_groups=2)
        (labels if where == "training" else labels_v)[3] = bad
        with pytest.raises(TrainingError, match=f"{where} label .* at row 3: labels must be"):
            train(X, labels, group_ids, generic_schema(X.shape[1]),
                  TrainParams(num_trees=1), valid=(Xv, labels_v, ids_v))

    def test_non_contiguous_groups_rejected(self):
        X = np.random.default_rng(0).normal(size=(4, 2))
        labels = np.array([0.0, 4.0, 0.0, 4.0])
        group_ids = np.array([0, 1, 0, 1])
        with pytest.raises(TrainingError, match="contiguous"):
            train(X, labels, group_ids, generic_schema(2), TrainParams(num_trees=1))

    @pytest.mark.parametrize(
        "bad, match",
        [
            (lambda Xv, lv, iv: (np.hstack([Xv, Xv[:, :1]]), lv, iv), "validation feature"),
            (lambda Xv, lv, iv: (Xv[:, :-1], lv, iv), "validation feature"),
            (lambda Xv, lv, iv: (Xv[:-1], lv, iv), "align"),
            (lambda Xv, lv, iv: (Xv, lv[:-1], iv), "align"),
            (lambda Xv, lv, iv: (Xv, lv, iv[:-1]), "align"),
            (lambda Xv, lv, iv: (Xv[0], lv, iv), "validation feature"),
        ],
        ids=["extra-column", "missing-column", "short-X", "short-labels", "short-ids", "1-d"],
    )
    def test_bad_validation_triple_rejected(self, bad, match):
        X, labels, group_ids = ranking_problem(137, n_groups=4)
        Xv, labels_v, ids_v = ranking_problem(139, n_groups=2)
        with pytest.raises(TrainingError, match=match):
            train(X, labels, group_ids, generic_schema(X.shape[1]),
                  TrainParams(num_trees=1), valid=bad(Xv, labels_v, ids_v))

    def test_one_training_sort_per_round(self, monkeypatch):
        # Each round's gradients and logged NDCG share one ranking of the
        # training scores: T + 1 sorts, not 2T. The ideal-DCG sort of the
        # labels is not a score sort and is not counted.
        X, labels, group_ids = ranking_problem(109, n_groups=10)
        Xv, labels_v, ids_v = ranking_problem(113, n_groups=4)
        sorted_scores = []
        original = QueryGroups.rank_discounts

        def spy(self, scores, k):
            if len(self.codes) == len(X) and not np.array_equal(scores, labels):
                sorted_scores.append(np.array(scores))
            return original(self, scores, k)

        monkeypatch.setattr(QueryGroups, "rank_discounts", spy)
        params = TrainParams(num_trees=6, max_depth=3, min_examples_per_leaf=2)
        result = train(X, labels, group_ids, generic_schema(X.shape[1]), params,
                       valid=(Xv, labels_v, ids_v))
        assert len(result.history) == 6
        assert len(sorted_scores) == 6 + 1
        assert not sorted_scores[0].any()

    def test_all_rows_counts_built_once_per_fit(self, monkeypatch):
        # Every tree's root reads the count histogram that bin_features
        # built; no other unweighted bincount covers every row's keys.
        from channelrank.gbdt import model as gmodel
        from channelrank.gbdt import tree as gtree

        X, labels, group_ids = ranking_problem(131, n_groups=10)
        binned_seen, root_counts, full_counts = [], [], []
        bin_features, split_gains, bincount = (
            gmodel.bin_features, gtree._split_gains, np.bincount
        )

        def spy_bin(*args, **kwargs):
            binned_seen.append(bin_features(*args, **kwargs))
            return binned_seen[-1]

        def spy_best(hist_g, hist_h, hist_c, *rest):
            if hist_c.shape[0] == 1 and hist_c[0].sum() == X.size:
                root_counts.append(hist_c)
            return split_gains(hist_g, hist_h, hist_c, *rest)

        def spy_bincount(x, weights=None, minlength=0):
            if weights is None and len(x) == X.size:
                full_counts.append(len(x))
            return bincount(x, weights=weights, minlength=minlength)

        monkeypatch.setattr(gmodel, "bin_features", spy_bin)
        monkeypatch.setattr(gtree, "_split_gains", spy_best)
        monkeypatch.setattr(np, "bincount", spy_bincount)
        params = TrainParams(num_trees=5, max_depth=3, min_examples_per_leaf=2)
        train(X, labels, group_ids, generic_schema(X.shape[1]), params)
        assert len(binned_seen) == 1
        assert len(root_counts) == 5
        assert all(counts is binned_seen[0].counts for counts in root_counts)
        assert full_counts == [X.size]

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

    @pytest.mark.parametrize("n_threads", [0, -1])
    def test_thread_count_below_one_rejected(self, n_threads):
        X, labels, group_ids = ranking_problem(113, n_groups=4)
        params = TrainParams(num_trees=1, max_depth=2, min_examples_per_leaf=2)
        with pytest.raises(ValueError, match=f"n_threads must be >= 1, got {n_threads}"):
            train(X, labels, group_ids, generic_schema(X.shape[1]), params, n_threads=n_threads)

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

    @pytest.mark.parametrize("valid_elements", [None, 100], ids=["one-pass", "tree-blocks"])
    @pytest.mark.parametrize("oblique", [False, True], ids=["axis", "oblique"])
    def test_valid_ndcg_equals_per_round_tree_walks(self, oblique, valid_elements, monkeypatch):
        # Validation scores every tree after the loop; each round's NDCG must
        # still be that of the scores accumulated tree by tree up to it.
        if valid_elements is not None:
            monkeypatch.setattr(model_module, "_VALID_ELEMENTS", valid_elements)
        X, labels, group_ids = ranking_problem(131, n_groups=12)
        Xv, lv, gv = ranking_problem(993, n_groups=6)
        Xv[::5, 1] = np.nan
        Xv[::7, 2] = -np.inf
        params = TrainParams(
            num_trees=9, max_depth=3, min_examples_per_leaf=2,
            oblique=oblique, oblique_projections=5, oblique_sparsity=0.6, seed=11,
        )
        result = train(
            X, labels, group_ids, generic_schema(X.shape[1]), params, valid=(Xv, lv, gv),
        )
        assert any(has_oblique(t) for t in result.model.trees) == oblique
        metric = GroupedNdcg(lv, QueryGroups.from_ids(gv), k=params.ndcg_truncation)
        scores = np.zeros(len(Xv))
        for tree, rec in zip(result.model.trees, result.history, strict=True):
            scores += params.shrinkage * walk_tree(tree, Xv)
            assert rec.valid_ndcg == metric.mean(scores)

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
            trees=(to_tree(split),),
            shrinkage=shrinkage,
            base_score=base,
            schema=generic_schema(2),
            params=TrainParams(num_trees=1),
        )

    def test_hand_traced_single_split(self):
        model = self._manual_model()
        scores = model.predict_matrix(np.array([[0.3, 9.0], [0.7, 9.0]]))
        assert scores.tolist() == pytest.approx([-0.1, 0.2])

    def test_missing_routed_by_learned_direction(self):
        model = self._manual_model()
        assert model.predict_matrix(np.array([[np.nan, 1.0]]))[0] == pytest.approx(0.2)

    def test_zero_leaf_model_returns_base_score(self):
        split = AxisSplit(feature=0, threshold=0.0, missing_left=True, gain=0.0)
        split.left = Leaf(value=0.0)
        split.right = Leaf(value=0.0)
        model = Model(
            trees=(to_tree(split),), shrinkage=0.1, base_score=1.25,
            schema=generic_schema(2), params=TrainParams(num_trees=1),
        )
        assert model.predict_matrix(np.array([[3.0, -1.0]]))[0] == 1.25

    def test_all_missing_vector_scores_finite(self):
        X, labels, group_ids = ranking_problem(131, n_groups=10)
        params = TrainParams(num_trees=5, max_depth=3, min_examples_per_leaf=2)
        model = train(X, labels, group_ids, generic_schema(X.shape[1]), params).model
        value = model.predict_matrix(np.full((1, X.shape[1]), np.nan))[0]
        assert np.isfinite(value)

    def test_schema_mismatch_rejected(self):
        model = self._manual_model()
        with pytest.raises(ValueError, match=re.escape("must be (n, 2), got (1, 3)")):
            model.predict_matrix(np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(ValueError, match=re.escape("must be (n, 2), got (2,)")):
            model.predict_matrix(np.array([1.0, 2.0]))

    def test_matrix_and_single_agree(self):
        X, labels, group_ids = ranking_problem(137, n_groups=10)
        params = TrainParams(num_trees=6, max_depth=4, min_examples_per_leaf=2)
        model = train(X, labels, group_ids, generic_schema(X.shape[1]), params).model
        rng = np.random.default_rng(4)
        Xq = rng.normal(size=(40, X.shape[1]))
        Xq[rng.random(size=Xq.shape) < 0.2] = np.nan
        batch = model.predict_matrix(Xq)
        single = np.array([model.predict_matrix(row[None, :])[0] for row in Xq])
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
        trees=tuple(t if isinstance(t, Tree) else to_tree(t) for t in trees),
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


def rounding_forest():
    """60 stumps over oblique nodes of 8 and 16 features, spanning several
    projection blocks, and 200 rows; stump ``k``'s threshold is row ``k``'s
    projection as a 1-D dot product. The per-node matrix-vector product over
    all 200 rows gives that value exactly for 26 of the 60 stumps, so those
    rows sit exactly on their thresholds; for the rest it is a few ulps
    off."""
    rng = np.random.default_rng(12)
    n_features = 24
    X = rng.normal(size=(200, n_features)) * 10.0 ** rng.uniform(-3, 3, size=(200, n_features))
    trees = []
    for k in range(60):
        width = (8, 16)[k % 2]
        feats = tuple(int(f) for f in np.sort(rng.choice(n_features, width, replace=False)))
        weights = tuple(float(w) for w in rng.normal(size=width))
        # Where the per-node product rounds row k alike, row k sits exactly
        # on the threshold, so a projection rounded one step lower than
        # that product sends it left.
        threshold = float(X[k, list(feats)] @ np.asarray(weights))
        trees.append(oblique_split(feats, weights, threshold, False, Leaf(-1.0 - k), Leaf(1.0 + k)))
    return forest_model(trees, n_features=n_features), X


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
        self.assert_parity(*rounding_forest())

    @pytest.mark.parametrize("kind", ["axis", "oblique", "rounding"])
    def test_workspace_stride_at_chunk_edges(self, kind, axis_model, oblique_model):
        # The workspace is (width, chunk) whatever the row count, so rows
        # are read at ``column * chunk + row``; batches just under, at and
        # over a chunk, and a ragged last chunk, must all read their own rows.
        if kind == "rounding":
            model, base = rounding_forest()
            on_threshold = 60  # rows kept as they are, each on its stump's threshold
        else:
            model = axis_model if kind == "axis" else oblique_model
            base = queries(400, 5, seed=11, nan_frac=0.0, inf_frac=0.0)
            on_threshold = 0
        chunk = _Forest.compile(model.trees, len(model.schema)).chunk
        rng = np.random.default_rng(13)
        for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 7):
            X = base[np.arange(n) % len(base)].copy()
            u = rng.random(size=X.shape)
            u[np.arange(n) % len(base) < on_threshold] = 1.0
            X[u < 0.15] = np.nan
            X[(u >= 0.15) & (u < 0.2)] = np.inf
            X[(u >= 0.2) & (u < 0.25)] = -np.inf
            self.assert_parity(model, X)

    def test_stump_and_single_leaf(self):
        stump = split(2, 0.1, True, Leaf(-0.5), Leaf(1.5))
        X = queries(200, 5, seed=4)
        self.assert_parity(forest_model([stump]), X)
        self.assert_parity(forest_model([Leaf(0.75)]), X)
        np.testing.assert_array_equal(
            forest_model([Leaf(0.75)], shrinkage=1.0, base=0.0).predict_matrix(X),
            np.full(len(X), 0.75),
        )
        np.testing.assert_array_equal(
            forest_model([Leaf(0.75)], n_features=0, shrinkage=1.0, base=0.0)
            .predict_matrix(np.empty((3, 0))),
            np.full(3, 0.75),
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
        assert {depth(t) for t in axis_only.trees} >= {0, 1, 3, 4}
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

    def test_batch_longer_than_one_chunk(self, axis_model, oblique_model):
        for model in (axis_model, oblique_model):
            model.predict_matrix(queries(1, 5, seed=8))
            n = 2 * model._forest.chunk + 7
            self.assert_parity(model, queries(n, 5, seed=9))

    def test_edge_thresholds_and_cells(self):
        # Every pair of edge cells over two features, through axis and
        # oblique splits on edge thresholds with either missing direction,
        # each as a root and below one.
        cells = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]
        X = np.array([(a, b) for a in cells for b in cells])
        thresholds = [np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0]

        def edge(k, threshold, missing_left, weights):
            if weights is None:
                return split(0, threshold, missing_left, Leaf(-1.0 - k), Leaf(1.0 + k))
            return oblique_split(
                (0, 1), weights, threshold, missing_left, Leaf(-1.0 - k), Leaf(1.0 + k)
            )

        trees = {None: [], (1.0, -1.0): [], (2.0, 0.5): []}
        for weights, kind in trees.items():
            for threshold in thresholds:
                for missing_left in (True, False):
                    k = len(kind)
                    kind.append(edge(k, threshold, missing_left, weights))
                    kind.append(split(
                        1, 0.5, not missing_left,
                        edge(k + 0.25, threshold, missing_left, weights),
                        edge(k + 0.5, threshold, missing_left, weights),
                    ))
        for kind in trees.values():
            for tree in kind:
                np.testing.assert_array_equal(
                    to_tree(tree).predict_matrix(X), walk_tree(to_tree(tree), X)
                )
        self.assert_parity(forest_model(trees[None], n_features=2), X)
        self.assert_parity(forest_model([t for k in trees.values() for t in k], n_features=2), X)

    def test_single_tree_predict_matrix_matches_walk(self, oblique_model):
        X = queries(300, 5, seed=10)
        for tree in oblique_model.trees:
            np.testing.assert_array_equal(tree.predict_matrix(X), walk_tree(tree, X))


def breadth_first(roots):
    """Nodes in the compiled order: the roots, then each level's children,
    a split's two side by side in the order its walk takes them."""
    level = list(roots)
    order = []
    while level:
        order.extend(level)
        level = [
            child
            for node in level if not isinstance(node, Leaf)
            for child in ((node.left, node.right) if node.missing_left else (node.right, node.left))
        ]
    return order


def chain(depth, feature=0):
    """A depth-``depth`` tree whose splits alternate their missing direction."""
    node = Leaf(float(depth))
    for k in range(depth):
        node = split((feature + k) % 5, 0.1 * k - 0.2, k % 2 == 0, Leaf(-1.0 - k), node)
    return to_tree(node)


class TestNodeTable:
    """The compiled table numbers siblings consecutively and parks leaves."""

    def test_siblings_adjacent_and_leaves_fixed(self, axis_model, oblique_model):
        trees = [*oblique_model.trees, chain(1), chain(6), to_tree(Leaf(0.5)),
                 *axis_model.trees]
        forest = _Forest.compile(trees, 5)
        roots = [to_nodes(tree) for tree in trees]
        order = breadth_first(roots)
        assert len(forest.left) == len(order) == sum(t.n_nodes() for t in trees)
        assert forest.trees == len(trees)
        assert all(order[t] is root for t, root in enumerate(roots))
        for i, node in enumerate(order):
            if isinstance(node, Leaf):
                assert forest.left[i] == i
                assert np.isnan(forest.threshold[i])
                assert forest.value[i] == node.value
            else:
                first, second = order[forest.left[i]], order[forest.left[i] + 1]
                if not node.missing_left:
                    first, second = second, first
                assert first is node.left and second is node.right
        assert forest.depth == max(depth(t) for t in trees) == 6

    def test_oblique_columns_by_feature_count_then_node_id(self, oblique_model):
        # Oblique nodes are numbered by feature count, then by node id, level
        # by level over all trees; within ``leaning`` that puts the right
        # child ahead of the left subtree's deeper node, as preorder would not.
        leaning = oblique_split(
            (0, 3), (1.0, -1.0), 0.05, True,
            oblique_split(
                (1, 2), (1.0, 1.0), 0.4, False,
                oblique_split((2, 4), (-1.0, 1.0), 0.1, True, Leaf(1.0), Leaf(2.0)), Leaf(3.0),
            ),
            oblique_split((0, 1, 4), (-1.0, 1.0, 1.0), 0.2, False, Leaf(4.0), Leaf(5.0)),
        )
        trees = [*oblique_model.trees, to_tree(leaning)]
        roots = [to_nodes(tree) for tree in trees]
        order = breadth_first(roots)
        nodes = [(i, node) for i, node in enumerate(order) if isinstance(node, ObliqueSplit)]
        mine = {id(node) for node in breadth_first(roots[-1:])}
        assert [node.features for _, node in nodes if id(node) in mine] == [
            (0, 3), (1, 2), (0, 1, 4), (2, 4)
        ]
        nodes.sort(key=lambda item: len(item[1].features))  # stable: node id within a count
        forest = _Forest.compile(trees, 5)
        assert [tuple(f) for feats, _ in forest.projections for f in feats.tolist()] == [
            node.features for _, node in nodes
        ]
        assert [tuple(w) for _, weights in forest.projections for w in weights.tolist()] == [
            tuple(w if node.missing_left else -w for w in node.weights) for _, node in nodes
        ]
        np.testing.assert_array_equal(forest.oblique_node, [i for i, _ in nodes])

    def test_empty_and_leaf_only_forests(self):
        assert _Forest.compile((), 3).depth == 0
        forest = _Forest.compile([to_tree(Leaf(1.0)), to_tree(Leaf(2.0))], 3)
        assert (forest.depth, forest.trees, list(forest.left)) == (0, 2, [0, 1])

    def test_leaves_stay_put_on_any_cell(self):
        # Leaves read column 0; a row whose column-0 cell reaches a leaf's
        # threshold must not move, whatever the cell and however many steps
        # deeper trees leave for it.
        trees = [chain(1), chain(6), chain(6, feature=2), to_tree(Leaf(0.25)), chain(1, 3)]
        X = queries(64, 5, seed=14)
        X[:, 0] = np.resize([np.inf, 0.0, 1e300, np.nan, -0.0, 7.5, -np.inf], len(X))
        model = forest_model(trees)
        np.testing.assert_array_equal(model.predict_matrix(X), walk_model(model, X))
        forest = _Forest.compile(model.trees, 5)
        np.testing.assert_array_equal(
            forest.leaf_values(X), np.stack([walk_tree(t, X) for t in model.trees])
        )

    @pytest.mark.parametrize("kind", ["axis", "oblique", "rounding"])
    def test_leaf_values_at_chunk_edges(self, kind, axis_model, oblique_model):
        if kind == "rounding":
            model, base = rounding_forest()
        else:
            model = axis_model if kind == "axis" else oblique_model
            base = queries(400, 5, seed=15)
        forest = _Forest.compile(model.trees, len(model.schema))
        for n in (1, forest.chunk - 1, forest.chunk, forest.chunk + 1, 2 * forest.chunk + 7):
            X = base[np.arange(n) % len(base)]
            expected = np.stack([walk_tree(t, X) for t in model.trees])
            np.testing.assert_array_equal(forest.leaf_values(X), expected)


@pytest.fixture(scope="module")
def deep_oblique_model():
    """Four depth-6 trees over 8 features whose levels 2 to 5 are projected as reached."""
    X, labels, group_ids = ranking_problem(157, n_groups=40, n_features=8)
    params = TrainParams(
        num_trees=4, max_depth=6, min_examples_per_leaf=2,
        oblique=True, oblique_projections=10, oblique_sparsity=0.6, seed=5,
    )
    model = train(X, labels, group_ids, generic_schema(8), params).model
    forest = model.forest()
    assert forest.depth == 6 and forest.level_cuts.shape == (1, 5)
    assert 0 < forest.level_cuts[0, 0] < forest.level_cuts[0, 1]
    return model


@pytest.fixture
def projected(monkeypatch):
    """Each ``_Forest._project`` call as (oblique columns, their workspace rows, chunk rows)."""
    calls = []
    project = _Forest._project

    def spy(self, ZT, n, feats, weights, picked, first, products):
        project(self, ZT, n, feats, weights, picked, first, products)
        rows = 2 * self.n_features + first + picked
        calls.append((first + picked, ZT[rows, :n].copy(), ZT[: self.n_features, :n].T.copy()))

    monkeypatch.setattr(_Forest, "_project", spy)
    return calls


class TestLazyProjections:
    """Oblique columns are projected only for nodes that rows of the chunk reach."""

    def test_projected_rows_equal_upfront_products(self, deep_oblique_model, projected):
        # Every row a chunk projects has the bits the up-front product over
        # the whole chunk gives, through BLAS's row tails (n % 4) and at
        # chunk edges.
        model = deep_oblique_model
        forest = model.forest()
        F = forest.n_features
        for n in (1, 2, 3, 4, 5, forest.chunk - 1, forest.chunk, forest.chunk + 1,
                  2 * forest.chunk + 7):
            projected.clear()
            X = queries(n, 8, seed=20 + n)
            np.testing.assert_array_equal(model.predict_matrix(X), walk_model(model, X))
            assert len(projected) > len(range(0, n, forest.chunk))  # some lazy level ran
            for columns, rows, chunk_X in projected:
                expected = upfront_columns(forest, chunk_X)[2 * F + columns]
                np.testing.assert_array_equal(rows.view(np.uint64), expected.view(np.uint64))

    def test_few_rows_project_few_nodes_and_axis_models_none(
        self, deep_oblique_model, axis_model, projected, monkeypatch
    ):
        forest = deep_oblique_model.forest()
        forest.raw(queries(1, 8, seed=30))
        columns = np.concatenate([c for c, _, _ in projected])
        assert len(columns) == len(set(columns.tolist())) < len(forest.oblique_node)
        projected.clear()
        marked = []
        monkeypatch.setattr(_Forest, "_project_reached", lambda *args: marked.append(args))
        axis = axis_model.forest()
        assert axis.level_cuts.shape == (0, 1)
        axis.raw(queries(300, 5, seed=31))
        axis.leaf_values(queries(300, 5, seed=32))
        assert projected == [] and marked == []

    def test_chunks_reaching_different_nodes_read_no_stale_rows(
        self, deep_oblique_model, projected
    ):
        # Three chunks that hold different nodes: a workspace row projected
        # for one chunk and left over from it must not be read by the next.
        model = deep_oblique_model
        forest = model.forest()
        assert forest.level_cuts[0, 0] > 0
        rng = np.random.default_rng(33)
        X = rng.normal(size=(2 * forest.chunk + 7, 8))
        X[: forest.chunk] += 2.0
        X[forest.chunk : 2 * forest.chunk] -= 2.0
        X[2 * forest.chunk :] = np.nan
        np.testing.assert_array_equal(model.predict_matrix(X), walk_model(model, X))
        # A chunk starts with its up-front call, the only one that writes column 0.
        per_chunk = []
        for columns, _, _ in projected:
            if columns[:1].tolist() == [0]:
                per_chunk.append(set())
            per_chunk[-1].update(columns.tolist())
        assert len(per_chunk) == 3
        assert per_chunk[0] - per_chunk[1] and per_chunk[1] - per_chunk[0]
        np.testing.assert_array_equal(
            forest.leaf_values(X), np.stack([walk_tree(t, X) for t in model.trees])
        )


class TestObliqueSum:
    """An oblique model adds its trees one at a time, in model order, from +0.0."""

    def gated(self, values):
        # One oblique stump whose leaves agree makes the model oblique.
        gate = oblique_split((0, 1), (1.0, 1.0), 0.0, True, Leaf(values[0]), Leaf(values[0]))
        return forest_model([gate, *map(Leaf, values[1:])], n_features=2).forest()

    @pytest.mark.parametrize("n", [1, 2, 5, 300])
    def test_negative_zero_leaves_sum_to_positive_zero(self, n):
        forest = self.gated([-0.0] * 12)
        raw = forest.raw(queries(n, 2, seed=40))
        np.testing.assert_array_equal(raw.view(np.uint64), np.zeros(n, np.uint64))

    @pytest.mark.parametrize("n", [1, 2, 5, 300])
    def test_mixed_signs_sum_in_tree_order(self, n):
        values = [1e16, *[1.0] * 9, -1e16, -0.0, 0.5, -3.0, 2.5e-17]
        expected = 0.0
        for v in values:
            expected += v
        # Pairwise or reordered sums of these values give other bits.
        assert np.add.reduce(np.array(values)) != expected
        assert sum(sorted(values)) != expected
        raw = self.gated(values).raw(queries(n, 2, seed=41))
        np.testing.assert_array_equal(raw.view(np.uint64), np.full(n, expected).view(np.uint64))
