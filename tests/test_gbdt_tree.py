import numpy as np
import pytest

from channelrank.gbdt.tree import (
    AxisSplit,
    Leaf,
    ObliqueSplit,
    _GrowParams,
    bin_features,
    find_best_split,
    grow_tree,
    leaf_value,
)
from tests.forest_oracle import walk_row


class TestLeafValue:
    def test_zero_gradient(self):
        assert leaf_value(0.0, 5.0, 1.0) == 0.0

    def test_direct_substitution(self):
        assert leaf_value(-2.0, 1.0, 1.0) == 1.0

    def test_floor_guards_degenerate_denominator(self):
        v = leaf_value(-1e-9, 0.0, 0.0)
        assert np.isfinite(v)
        assert v == pytest.approx(1e-9 / 1e-6)


class TestBinFeatures:
    def test_exact_midpoints_when_under_budget(self):
        X = np.array([[0.0], [1.0], [2.0]])
        binned = bin_features(X, max_bins=255)
        np.testing.assert_allclose(binned.thresholds[0], [0.5, 1.5])
        assert list(binned.codes[:, 0]) == [0, 1, 2]

    def test_missing_gets_reserved_bin(self):
        X = np.array([[0.0], [np.nan], [2.0]])
        binned = bin_features(X, max_bins=255)
        assert binned.codes[1, 0] == binned.missing_code

    def test_quantile_fallback_respects_cap(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5000, 1))
        binned = bin_features(X, max_bins=63)
        assert len(binned.thresholds[0]) <= 63
        assert binned.codes[:, 0].max() <= 63

    def test_constant_feature_has_no_candidates(self):
        X = np.full((10, 1), 3.0)
        binned = bin_features(X)
        assert len(binned.thresholds[0]) == 0

    def test_binning_agrees_with_threshold_predicate(self):
        # code <= b must be exactly equivalent to value < thresholds[b].
        rng = np.random.default_rng(1)
        X = rng.choice([0.0, 0.5, 1.0, 2.5, 7.0], size=(200, 1))
        binned = bin_features(X)
        thr = binned.thresholds[0]
        for b in range(len(thr)):
            np.testing.assert_array_equal(
                binned.codes[:, 0] <= b, X[:, 0] < thr[b]
            )


class TestFindBestSplit:
    def test_all_zero_gradients_no_split(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        split = find_best_split(X, np.zeros(4), np.ones(4), l2=1.0, min_examples_per_leaf=1)
        assert split is None

    def test_hand_computed_two_cluster_case(self):
        # x = [0,0,1,1], g = [-1,-1,+1,+1], h = 1 each, l2 = 1:
        # GL=-2, HL=2, GR=2, HR=2, parent 0 -> gain = 4/3 + 4/3 = 8/3,
        # threshold at the midpoint 0.5.
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        split = find_best_split(X, g, np.ones(4), l2=1.0, min_examples_per_leaf=1)
        assert isinstance(split, AxisSplit)
        assert split.feature == 0
        assert split.threshold == 0.5
        assert split.gain == pytest.approx(8.0 / 3.0, abs=1e-12)

    def test_picks_the_separating_feature(self):
        rng = np.random.default_rng(5)
        noise = rng.normal(size=8)
        X = np.column_stack([noise, np.array([0, 0, 0, 0, 1, 1, 1, 1.0])])
        g = np.array([-1.0] * 4 + [1.0] * 4)
        split = find_best_split(X, g, np.ones(8), l2=1.0, min_examples_per_leaf=1)
        assert isinstance(split, AxisSplit)
        assert split.feature == 1
        assert split.threshold == 0.5

    def test_large_l2_drives_gain_to_zero(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        split = find_best_split(X, g, np.ones(4), l2=1e9, min_examples_per_leaf=1)
        if split is not None:
            assert split.gain < 1e-6

    def test_min_leaf_blocks_unbalanced_split(self):
        X = np.array([[0.0], [1.0], [1.0], [1.0], [1.0], [1.0]])
        g = np.array([-5.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        split = find_best_split(X, g, np.ones(6), l2=1.0, min_examples_per_leaf=2)
        assert split is None  # only candidate leaves 1 row on the left

    def test_too_few_instances_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            find_best_split(
                np.zeros((3, 1)), np.zeros(3), np.ones(3),
                l2=1.0, min_examples_per_leaf=2,
            )

    def test_learned_missing_direction(self):
        # Missing rows share the left cluster's gradient sign, so sending
        # them left must win.
        X = np.array([[0.0], [0.0], [1.0], [1.0], [np.nan], [np.nan]])
        g = np.array([-1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        split = find_best_split(X, g, np.ones(6), l2=1.0, min_examples_per_leaf=1)
        assert isinstance(split, AxisSplit)
        assert split.missing_left is True

        g_flipped = np.array([-1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
        split2 = find_best_split(X, g_flipped, np.ones(6), l2=1.0, min_examples_per_leaf=1)
        assert isinstance(split2, AxisSplit)
        assert split2.missing_left is False

    def test_returned_split_has_positive_gain(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            X = rng.normal(size=(30, 4))
            g = rng.normal(size=30)
            split = find_best_split(X, g, np.ones(30), l2=1.0, min_examples_per_leaf=3)
            if split is not None:
                assert split.gain > 0.0

    def test_oblique_candidate_can_beat_axis(self):
        # Gradient sign depends on x0 + x1; a signed projection separates
        # it perfectly while single features cannot.
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, size=(400, 2))
        g = np.where(X[:, 0] + X[:, 1] > 0, 1.0, -1.0)
        split = find_best_split(
            X, g, np.ones(400), l2=1.0, min_examples_per_leaf=5,
            oblique=True, oblique_projections=30, oblique_sparsity=1.0,
            rng=np.random.default_rng(0),
        )
        assert isinstance(split, ObliqueSplit)
        assert set(split.features) == {0, 1}


def _fit_tree(X, g, h, max_depth=4, min_leaf=1, l2=1.0, **kw):
    params = _GrowParams(max_depth=max_depth, min_leaf=min_leaf, l2=l2, **kw)
    binned = bin_features(X)
    return grow_tree(binned, X, g, h, params)


class TestGrowTree:
    def test_row_values_match_tree_predictions(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(300, 5))
        X[rng.random(size=X.shape) < 0.1] = np.nan
        g = rng.normal(size=300)
        h = np.abs(rng.normal(size=300)) + 0.1
        tree, row_values = _fit_tree(X, g, h, max_depth=5, min_leaf=4)
        np.testing.assert_array_equal(tree.predict_matrix(X), row_values)
        for i in range(0, 300, 37):
            assert walk_row(tree, X[i]) == row_values[i]

    def test_depth_and_leaf_size_invariants(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(500, 6))
        g = rng.normal(size=500)
        h = np.ones(500)
        tree, _ = _fit_tree(X, g, h, max_depth=3, min_leaf=10)
        assert tree.depth() <= 3
        for leaf in tree.leaves():
            assert leaf.n_samples >= 10

    def test_pure_gradient_gives_single_leaf(self):
        X = np.random.default_rng(23).normal(size=(50, 3))
        tree, row_values = _fit_tree(X, np.zeros(50), np.ones(50))
        assert isinstance(tree.root, Leaf)
        assert not row_values.any()

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(200, 4))
        g = rng.normal(size=200)
        h = np.ones(200)
        t1, v1 = _fit_tree(X, g, h)
        t2, v2 = _fit_tree(X, g, h)
        np.testing.assert_array_equal(v1, v2)
        assert t1.n_nodes() == t2.n_nodes()

    def test_oblique_growth_consistent_predictions(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(-1, 1, size=(300, 3))
        g = np.where(X[:, 0] - X[:, 2] > 0, 1.0, -1.0) + rng.normal(size=300) * 0.01
        params = _GrowParams(
            max_depth=4, min_leaf=5, l2=1.0,
            oblique=True, oblique_projections=10, oblique_sparsity=0.7,
        )
        binned = bin_features(X)
        tree, row_values = grow_tree(
            binned, X, g, np.ones(300), params, np.random.default_rng(7)
        )
        np.testing.assert_array_equal(tree.predict_matrix(X), row_values)
