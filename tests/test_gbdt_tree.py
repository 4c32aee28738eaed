import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channelrank.gbdt.model import TrainParams
from channelrank.gbdt.serialize import _flatten_tree
from channelrank.gbdt.tree import (
    _batch_histograms,
    _first_best,
    _linear_quantiles,
    _oblique_splits,
    _split_gains,
    bin_features,
    grow_tree,
    leaf_value,
)
from tests.forest_oracle import (
    AxisSplit,
    Leaf,
    ObliqueSplit,
    depth,
    has_oblique,
    leaves,
    preorder,
    split_of,
    to_nodes,
    to_tree,
    walk_row,
)
from tests.split_oracle import (
    dense_best_axis_splits,
    dense_codes,
    dense_histograms,
    find_best_split,
    loop_bin_features,
    node_oblique_split,
    oblique_candidate,
    table_grow_tree,
)


def _one_node_search(X, rows, g, h, params, seed):
    """The oblique search of a level whose one node holds ``rows``."""
    return _oblique_splits(X, [rows], g, h, params, np.random.default_rng(seed))[0]


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
        assert list(binned.keys[:, 0]) == [0, 1, 2]

    def test_missing_gets_reserved_bin(self):
        X = np.array([[0.0], [np.nan], [2.0]])
        binned = bin_features(X, max_bins=255)
        assert binned.keys[1, 0] == binned.plan.n_bins

    def test_quantile_fallback_respects_cap(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5000, 1))
        binned = bin_features(X, max_bins=63)
        assert len(binned.thresholds[0]) <= 63
        assert binned.keys[:, 0].max() == binned.plan.last[0] <= 63

    def test_constant_feature_has_no_candidates(self):
        X = np.full((10, 1), 3.0)
        binned = bin_features(X)
        assert len(binned.thresholds[0]) == 0

    def test_max_bins_above_uint16_cap_rejected(self):
        # MAX_BINS bounds each feature's share of the packed histogram.
        X = np.array([[0.0], [np.nan], [2.0]])
        with pytest.raises(ValueError, match="max_bins"):
            bin_features(X, max_bins=70000)
        with pytest.raises(ValueError, match="max_bins"):
            bin_features(X, max_bins=0)
        binned = bin_features(X, max_bins=60000)
        assert binned.keys[1, 0] == binned.plan.n_bins

    def test_binning_agrees_with_threshold_predicate(self):
        # At every scan candidate, goes_left sends a finite or infinite
        # value left exactly when it is below the candidate's threshold,
        # and NaN to the candidate's missing side.
        rng = np.random.default_rng(1)
        n = 200
        X = np.column_stack([
            rng.choice([0.0, 0.5, 1.0, 2.5, 7.0], size=n),  # ties, no NaN
            rng.choice([-np.inf, 0.0, 0.5, 1.0, 2.5, 7.0, np.inf, np.nan], size=n),
            np.round(rng.normal(size=n), 1),
            rng.choice([-np.inf, np.inf, np.nan], size=n),  # midpoint NaN
            rng.normal(size=n),
            np.where(rng.random(n) < 0.6, np.inf, rng.normal(size=n)),  # quantile NaN
        ])
        X[rng.random(n) < 0.2, 2] = np.nan
        X[rng.random(n) < 0.05, 4] = np.inf
        X[rng.random(n) < 0.1, 5] = -np.inf
        rows = rng.permutation(n)[:150]
        for max_bins in (1, 3, 255):
            binned = bin_features(X, max_bins=max_bins)
            plan = binned.plan
            assert not any(np.isnan(thr).any() for thr in binned.thresholds)
            assert plan.missing_left.any() and not plan.missing_left.all()
            assert set(plan.feature) == {0, 1, 2, 4, 5}
            for k in range(len(plan.pos)):
                x = X[rows, plan.feature[k]]
                threshold = binned.thresholds[plan.feature[k]][plan.bin[k]]
                np.testing.assert_array_equal(
                    binned.goes_left(rows, k),
                    np.where(np.isnan(x), plan.missing_left[k], x < threshold),
                )


def _assert_same_binning(got, want, case):
    """Thresholds, keys, counts and plan equal, dtype and bytes."""
    assert len(got.thresholds) == len(want.thresholds), case
    for a, b in zip(got.thresholds, want.thresholds):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), case
    for a, b in ((got.keys, want.keys), (got.counts, want.counts)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), case
    assert not got.counts.flags.writeable
    assert (got.plan.n_bins, got.plan.classes) == (want.plan.n_bins, want.plan.classes), case
    for name in ("last", "pos", "feature", "bin", "missing_left", "miss_src"):
        a, b = getattr(got.plan, name), getattr(want.plan, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), (case, name)


def _binning_column(rng, n):
    """One column of a kind that stresses binning: signed zeros, ties,
    infinities and NaN, at scales that take the midpoint or quantile rule."""
    kind = int(rng.integers(0, 6))
    if kind == 0:
        col = np.round(rng.normal(size=n), int(rng.integers(0, 3)))  # mixes +0.0 and -0.0
    elif kind == 1:
        col = rng.normal(size=n)
        col[rng.random(n) < rng.uniform(0.05, 0.6)] = -0.0  # its only zeros are -0.0
    elif kind == 2:
        col = rng.choice([-np.inf, np.inf, np.nan, -3.0, 1.0, 2.0], size=n)
    elif kind == 3:
        col = np.round(rng.normal(size=n) * 4.0) / 2.0  # ties
    elif kind == 4:
        col = np.where(rng.random(n) < 0.3, 0.0, rng.normal(size=n))  # only +0.0
    else:
        col = rng.normal(size=n) * 10.0 ** int(rng.integers(-5, 6))
    special = rng.random(n)
    col[special < 0.05] = np.nan
    col[(special >= 0.05) & (special < 0.07)] = np.inf
    col[(special >= 0.07) & (special < 0.09)] = -np.inf
    return col


#: Values that stress binning: signed zeros, the smallest subnormals,
#: the largest finite values, infinities and NaN.
_SPECIAL_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 1e308, -1e308,
                   np.inf, -np.inf, np.nan]


class TestBinningOracle:
    """``bin_features`` returns the per-column loop's binning, byte for byte."""

    def test_random_columns_match_per_column_loop(self):
        rng = np.random.default_rng(4242)
        quantile_columns = zero_read_columns = 0
        for case in range(240):
            n = int(rng.choice([1, 2, 3, 7, 40, 300, int(rng.integers(1, 1500))]))
            X = np.column_stack([_binning_column(rng, n) for _ in range(int(rng.integers(1, 5)))])
            max_bins = int(rng.choice([1, 3, 16, 255]))
            got = bin_features(X, max_bins=max_bins)
            _assert_same_binning(got, loop_bin_features(X, max_bins=max_bins), case)
            for col in X.T:
                finite = col[~np.isnan(col)]
                if len(np.unique(finite)) > max_bins + 1:
                    quantile_columns += 1
                    zero_read_columns += (finite == 0).any()
        assert quantile_columns > 150 and zero_read_columns > 50, (
            quantile_columns, zero_read_columns)

    def test_no_rows_or_no_columns(self):
        for X in (np.empty((5, 0)), np.empty((0, 3))):
            _assert_same_binning(bin_features(X), loop_bin_features(X), X.shape)

    def test_column_whose_only_zeros_are_negative(self):
        rng = np.random.default_rng(8)
        for n in (20, 100, 1000):
            col = rng.normal(size=n)
            col[: n // 2] = -0.0
            X = np.column_stack([rng.permutation(col), col])
            for max_bins in (1, 3, 16, 255):
                got = bin_features(X, max_bins=max_bins)
                _assert_same_binning(got, loop_bin_features(X, max_bins=max_bins), (n, max_bins))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_binning_equals_per_column_loop_property(self, data):
        n = data.draw(st.integers(1, 40))
        n_features = data.draw(st.integers(1, 3))
        max_bins = data.draw(st.sampled_from([1, 3, 16, 255]))
        cells = data.draw(st.lists(
            st.one_of(
                st.sampled_from(_SPECIAL_VALUES),
                st.integers(-3, 3).map(float),
                st.floats(width=64),
            ),
            min_size=n * n_features, max_size=n * n_features,
        ))
        X = np.array(cells, dtype=np.float64).reshape(n, n_features)
        with np.errstate(over="ignore"):  # midpoints of the largest values
            got, want = bin_features(X, max_bins=max_bins), loop_bin_features(X, max_bins=max_bins)
        _assert_same_binning(got, want, X)

    def test_linear_quantiles_equal_numpy_bitwise(self):
        # np.quantile's linear formula, step for step; a numpy whose
        # quantile arithmetic changes fails here by name.
        rng = np.random.default_rng(12)
        runs = []
        for case in range(200):
            x = rng.normal(size=int(rng.integers(1, 400))) * 10.0 ** int(rng.integers(-3, 4))
            if case % 3 == 0:
                x = np.round(x, 1)  # ties, and zeros of both signs
            if case % 4 == 1:
                x[rng.random(len(x)) < 0.1] = rng.choice([-np.inf, np.inf])
            runs.append(x)
        q = np.concatenate([[0.0, 1.0], np.arange(1, 256) / 256, rng.random(20)])
        count = np.array([len(x) for x in runs])
        start = np.cumsum(count) - count
        values = np.concatenate([np.sort(x) for x in runs])
        with np.errstate(invalid="ignore"):
            got, reads_zero = _linear_quantiles(values, start, count, q)
            compared = 0
            for x, row, zero in zip(runs, got, reads_zero):
                if zero:
                    assert (x == 0).any()
                    continue
                want = np.quantile(x, q)
                assert (row.dtype, row.tobytes()) == (want.dtype, want.tobytes())
                compared += 1
        assert compared > 150 and reads_zero.any()


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

    def test_oblique_without_rng_is_an_error(self):
        X = np.random.default_rng(3).uniform(-1, 1, size=(40, 2))
        g = np.where(X[:, 0] + X[:, 1] > 0, 1.0, -1.0)
        with pytest.raises(ValueError, match="rng"):
            find_best_split(X, g, np.ones(40), l2=1.0, min_examples_per_leaf=2, oblique=True)
        params = TrainParams(max_depth=2, oblique=True)
        with pytest.raises(ValueError, match="rng"):
            grow_tree(bin_features(X), X, g, np.ones(40), params)


def _random_oblique_case(seed):
    """A node of a random matrix with NaN cells and, often, rounded ties.

    Gradients lie on a dyadic grid, as training's quantized ones do, so
    every summation order gives the same sums; every other case uses a
    coarse grid, which makes many gains tie exactly.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 200))
    X = rng.normal(size=(n, int(rng.integers(1, 8))))
    if seed % 3:
        X = np.round(X, int(rng.integers(0, 2)))
    X[rng.random(size=X.shape) < rng.uniform(0.0, 0.3)] = np.nan
    if seed % 2:
        g = rng.integers(-3, 4, size=n) / 4.0
        h = rng.integers(0, 3, size=n) / 2.0
    else:
        g = np.round(rng.normal(size=n) * 2.0**40) / 2.0**40
        h = np.round(rng.uniform(size=n) * 2.0**40) / 2.0**40
    rows = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
    params = TrainParams(
        min_examples_per_leaf=int(rng.integers(1, 1 + len(rows) // 2)),
        l2=float(rng.choice([0.0, 1.0])),
        oblique=True,
        oblique_projections=int(rng.integers(1, 25)),
        oblique_sparsity=float(rng.uniform(0.1, 1.0)),
        max_bins=int(rng.choice([3, 255])),
    )
    return X, rows, g, h, params


class TestObliqueSplitSearch:
    def test_candidate_equals_per_projection_loop(self):
        for seed in range(300):
            X, rows, g, h, params = _random_oblique_case(seed)
            expected = oblique_candidate(
                X, rows, g, h, params.l2, params.min_examples_per_leaf,
                params.oblique_projections, params.oblique_sparsity,
                np.random.default_rng(seed), params.max_bins,
            )
            found = _one_node_search(X, rows, g, h, params, seed)
            assert (split_of(found[1]) if found is not None else None) == expected, f"seed {seed}"

    def test_rows_go_left_below_the_projection_threshold(self):
        split_count = 0
        for seed in range(300):
            X, rows, g, h, params = _random_oblique_case(seed)
            found = _one_node_search(X, rows, g, h, params, seed)
            if found is None:
                continue
            split, go_left = split_of(found[1]), found[2]
            z = X[rows][:, list(split.features)] @ np.array(split.weights)
            expected = np.where(np.isnan(z), split.missing_left, z < split.threshold)
            np.testing.assert_array_equal(go_left, expected, err_msg=f"seed {seed}")
            split_count += 1
        assert split_count > 200

    def test_tied_directions_resolve_like_axis_splits(self):
        # Missing-right after 0 and missing-left after 1 both gain 0.75.
        # One scan decides for both split kinds: the lower threshold wins.
        # The oracle scans every missing-left threshold first and keeps 1.5.
        X = np.array([[0.0], [1.0], [2.0], [np.nan]])
        g = np.array([1.0, -1.0, 1.0, -1.0])
        axis = find_best_split(X, g, np.ones(4), l2=1.0, min_examples_per_leaf=1)
        params = TrainParams(min_examples_per_leaf=1, oblique=True, oblique_projections=1)
        oblique = split_of(_one_node_search(X, np.arange(4), g, np.ones(4), params, 0)[1])
        loop = oblique_candidate(
            X, np.arange(4), g, np.ones(4), 1.0, 1, 1, 1.0, np.random.default_rng(0), 255
        )
        assert (axis.threshold, axis.missing_left, axis.gain) == (0.5, False, 0.75)
        assert (oblique.threshold, oblique.missing_left, oblique.gain) == (0.5, False, 0.75)
        assert (loop.threshold, loop.missing_left, loop.gain) == (1.5, True, 0.75)


def _level_case(seed):
    """A level of 1 to 32 nodes over one matrix: NaN cells make NaN
    projections, and nodes drawn from identical rows have no threshold."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 400))
    X = rng.normal(size=(n, int(rng.integers(1, 8))))
    if seed % 3 == 0:
        X = np.round(X, 1)
    X[rng.random(size=X.shape) < rng.uniform(0.0, 0.3)] = np.nan
    X[:8] = 1.0
    level_rows = []
    for _ in range(1 + seed % 32):
        if rng.random() < 0.15:
            level_rows.append(np.arange(int(rng.integers(2, 9))))
        else:
            size = int(rng.integers(2, n // 2))
            level_rows.append(np.sort(rng.choice(n, size=size, replace=False)))
    g = rng.integers(-4, 5, size=n) / 8.0
    h = rng.integers(1, 5, size=n) / 4.0
    params = TrainParams(
        min_examples_per_leaf=int(rng.integers(1, 6)),
        l2=float(rng.choice([0.0, 1.0])),
        oblique=True,
        oblique_projections=int(rng.integers(1, 13)),
        oblique_sparsity=float(rng.uniform(0.1, 1.0)),
        max_bins=int(rng.choice([1, 3, 16, 255])),
    )
    return X, level_rows, g, h, params


class TestObliqueLevelSearch:
    """One search per level gives every node the per-node search's split."""

    def test_level_equals_per_node_oracle(self):
        seen = {"levels_over_16": 0, "no_split": 0, "no_threshold": 0, "nan_projection": 0}
        for seed in range(64):
            X, level_rows, g, h, params = _level_case(seed)
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            found = _oblique_splits(X, level_rows, g, h, params, rng)
            expected = [
                node_oblique_split(X, rows, g, h, params, oracle_rng) for rows in level_rows
            ]
            assert rng.bit_generator.state == oracle_rng.bit_generator.state, seed
            assert len(found) == len(level_rows), seed
            for got, want in zip(found, expected):
                if want is None:
                    assert got is None, seed
                    continue
                gain, record, go_left = got
                assert (np.float64(gain).tobytes(), repr(record)) == (
                    np.float64(want[0]).tobytes(), repr(want[1])), seed
                assert go_left.dtype == want[2].dtype and np.array_equal(go_left, want[2]), seed
            seen["levels_over_16"] += len(level_rows) > 16
            seen["no_split"] += sum(want is None for want in expected)
            seen["no_threshold"] += sum(rows.max() < 8 for rows in level_rows)
            seen["nan_projection"] += np.isnan(X[np.concatenate(level_rows)]).any()
        assert min(seen.values()) >= 10, seen

    def test_an_oblique_level_scans_gains_once(self, monkeypatch):
        from channelrank.gbdt import tree as gtree

        split_gains, oblique_splits = gtree._split_gains, gtree._oblique_splits
        scans, levels, searching = [], [], []

        def spy_gains(hist_g, hist_h, hist_c, plan, *rest):
            scans.append((bool(searching), len(plan.last), hist_g.shape[0]))
            return split_gains(hist_g, hist_h, hist_c, plan, *rest)

        def spy_level(X, level_rows, *rest):
            levels.append(len(level_rows))
            searching.append(True)
            try:
                return oblique_splits(X, level_rows, *rest)
            finally:
                searching.pop()

        monkeypatch.setattr(gtree, "_split_gains", spy_gains)
        monkeypatch.setattr(gtree, "_oblique_splits", spy_level)
        rng = np.random.default_rng(41)
        X = rng.uniform(-1, 1, size=(600, 4))
        g = np.where(X[:, 0] - X[:, 2] > 0, 1.0, -1.0) + rng.integers(-2, 3, size=600) / 8.0
        params = TrainParams(
            max_depth=4, min_examples_per_leaf=5, oblique=True, oblique_projections=6,
            oblique_sparsity=0.7, max_bins=16,
        )
        grow_tree(bin_features(X), X, g, np.ones(600), params, np.random.default_rng(7))
        assert max(levels) >= 4
        assert len(scans) == 2 * len(levels)
        assert [scan[1:] for scan in scans if scan[0]] == [(6 * size, 1) for size in levels]

    def test_quantile_fallback_only_for_zero_order_statistics(self, monkeypatch):
        from channelrank.gbdt import tree as gtree

        quantile, linear_quantiles = np.quantile, gtree._linear_quantiles
        fallback_sizes, quantile_runs = [], []

        def spy_quantile(a, q, **kwargs):
            fallback_sizes.append(len(a))
            return quantile(a, q, **kwargs)

        def spy_linear(values, start, *rest):
            quantile_runs.append(len(start))
            return linear_quantiles(values, start, *rest)

        monkeypatch.setattr(np, "quantile", spy_quantile)
        monkeypatch.setattr(gtree, "_linear_quantiles", spy_linear)
        rng = np.random.default_rng(43)
        X = rng.uniform(1.0, 2.0, size=(600, 4))  # no projection is exactly 0
        g = np.where(X[:, 0] - X[:, 2] > 0, 1.0, -1.0)
        params = TrainParams(
            max_depth=3, min_examples_per_leaf=5, oblique=True, oblique_projections=6,
            max_bins=16,
        )
        grow_tree(bin_features(X), X, g, np.ones(600), params, np.random.default_rng(7))
        assert sum(quantile_runs) > 20
        assert fallback_sizes == []
        # A column whose quantiles read an order statistic of 0 takes np.quantile, once.
        col = np.concatenate([np.full(40, -0.0), rng.normal(size=60), [np.nan]])
        bin_features(np.column_stack([col, rng.normal(size=101)]), max_bins=16)
        assert fallback_sizes == [100]


def _split_tuples(gain, split_at):
    """Each slot's gain, then ``split_at(slot)`` when the slot has a split."""
    return [(g.tobytes(),) + (split_at(s) if np.isfinite(g) else ()) for s, g in enumerate(gain)]


def _packed_and_dense(binned, X, g, h, parent_rows, child_rows, l2, min_leaf):
    """Both scans over a parent, its small child and the sibling derived by subtraction."""

    def stacked(hists):
        return [np.concatenate([hist, hist[:1] - hist[1:]]) for hist in hists]

    node_rows = [parent_rows, child_rows]
    plan = binned.plan
    gains = _split_gains(*stacked(_batch_histograms(binned, g, h, node_rows)), plan, l2, min_leaf)
    best, gain = _first_best(gains)
    packed = _split_tuples(gain, lambda s: (
        int(plan.feature[best[s]]), int(plan.bin[best[s]]), bool(plan.missing_left[best[s]])
    ))
    thr_counts = np.array([len(t) for t in binned.thresholds])
    dense = dense_best_axis_splits(
        *stacked(dense_histograms(*dense_codes(X, binned.thresholds), g, h, node_rows)),
        thr_counts, l2, min_leaf,
    )
    return packed, _split_tuples(dense.gain, lambda s: (
        int(dense.feature[s]), int(dense.bin_idx[s]), bool(dense.missing_left[s])
    ))


class TestPackedSplitScan:
    """The packed histogram scan returns the dense scan's splits byte for byte."""

    def test_matches_dense_scan_on_random_nodes(self):
        rng = np.random.default_rng(2024)
        found = 0
        for case in range(240):
            n = int(rng.integers(2, 150))
            n_features = int(rng.integers(1, 7))
            X = rng.normal(size=(n, n_features))
            if case % 3 == 0:
                X = np.round(X, 1)  # few distinct values, many tied gains
            X[:, rng.random(n_features) < 0.25] = 2.0  # constant features
            nan_cols = rng.random(n_features) < 0.5
            X[(rng.random((n, n_features)) < 0.3) & nan_cols] = np.nan
            binned = bin_features(X, max_bins=int(rng.choice([3, 16, 255])))
            if case % 4 == 0:
                g = rng.integers(-3, 4, size=n).astype(float)  # exact ties
                h = np.ones(n)
            else:
                g = rng.normal(size=n) * 1e3
                h = rng.random(n) * 1e3
            parent_rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            # Rows without missing cells make a child whose missing bins
            # are empty, though its parent's are not.
            complete = ~np.isnan(X[parent_rows]).any(axis=1)
            pool = parent_rows[complete] if case % 2 and complete.any() else parent_rows
            child_rows = np.sort(rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)),
                                            replace=False))
            packed, dense = _packed_and_dense(
                binned, X, g, h, parent_rows, child_rows,
                l2=float(rng.choice([0.0, 1.0])), min_leaf=int(rng.integers(1, 4)),
            )
            assert packed == dense, case
            found += sum(len(t) > 1 for t in dense)
        assert found > 400

    def test_tied_gains_keep_lowest_feature_bin_and_missing_left(self):
        # Features 0 and 1 are copies and feature 2 mirrors them, so many
        # candidates gain exactly the same.
        x = np.array([0.0, 1.0, 2.0, 3.0, np.nan, np.nan])
        X = np.column_stack([x, x, -x])
        g = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
        binned = bin_features(X)
        rows = np.arange(len(x))
        packed, dense = _packed_and_dense(binned, X, g, np.ones(6), rows, rows[:2], 0.0, 1)
        assert packed == dense
        assert packed[0][1:] == (0, 1, True)

    def test_no_thresholds_anywhere(self):
        X = np.full((6, 2), 1.0)
        binned = bin_features(X)
        packed, dense = _packed_and_dense(
            binned, X, np.arange(6.0), np.ones(6), np.arange(6), np.arange(3), 1.0, 1
        )
        assert packed == dense
        assert packed[0] == (np.float64(-np.inf).tobytes(),)


class TestAllRowsHistograms:
    """Every row's histogram, read in place, equals the gathered one byte for byte."""

    def test_equals_gathered_histograms(self):
        rng = np.random.default_rng(77)
        for case in range(40):
            n = int(rng.integers(1, 300))
            n_features = int(rng.integers(1, 8))
            X = rng.normal(size=(n, n_features))
            if case % 2:
                X = np.round(X, 1)
            X[rng.random((n, n_features)) < 0.2] = np.nan
            binned = bin_features(X, max_bins=int(rng.choice([3, 16, 255])))
            g = rng.normal(size=n) * 1e3
            h = rng.random(n) * 1e3
            in_place = _batch_histograms(binned, g, h)
            gathered = _batch_histograms(binned, g, h, [np.arange(n)])
            for got, want in zip(in_place, gathered):
                assert got.shape == want.shape == (1, binned.plan.size)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), case

    def test_counts_built_once_and_read_only(self):
        X = np.random.default_rng(3).normal(size=(50, 3))
        binned = bin_features(X)
        assert not binned.counts.flags.writeable
        g, h = np.ones(50), np.ones(50)
        assert _batch_histograms(binned, g, h)[2] is binned.counts
        with pytest.raises(ValueError):
            binned.counts[0, 0] = 1.0


def _fit_tree(X, g, h, max_depth=4, min_leaf=1, l2=1.0, **kw):
    params = TrainParams(
        max_depth=max_depth, min_examples_per_leaf=min_leaf, l2=l2, **kw
    )
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
        assert depth(tree) <= 3
        for leaf in leaves(tree):
            assert leaf.n_samples >= 10

    def test_pure_gradient_gives_single_leaf(self):
        X = np.random.default_rng(23).normal(size=(50, 3))
        tree, row_values = _fit_tree(X, np.zeros(50), np.ones(50))
        assert isinstance(to_nodes(tree), Leaf)
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
        params = TrainParams(
            max_depth=4, min_examples_per_leaf=5, l2=1.0,
            oblique=True, oblique_projections=10, oblique_sparsity=0.7,
        )
        binned = bin_features(X)
        tree, row_values = grow_tree(
            binned, X, g, np.ones(300), params, np.random.default_rng(7)
        )
        assert has_oblique(tree)
        np.testing.assert_array_equal(tree.predict_matrix(X), row_values)

    def test_preorder_positions_and_statistics(self):
        leaf_nodes = [Leaf(1.0), Leaf(2.0), Leaf(3.0)]
        inner = AxisSplit(1, 0.5, True, 1.0, leaf_nodes[1], leaf_nodes[2])
        root = AxisSplit(0, 0.5, False, 2.0, leaf_nodes[0], inner)
        tree = to_tree(root)
        records = _flatten_tree(tree)
        children = [tuple(rec[4:6]) if rec[0] == "A" else (i, i) for i, rec in enumerate(records)]
        nodes = preorder(to_nodes(tree))
        assert nodes == [root, leaf_nodes[0], inner, leaf_nodes[1], leaf_nodes[2]]
        assert children == [(1, 2), (1, 1), (3, 4), (3, 3), (4, 4)]
        assert (depth(tree), tree.n_nodes(), leaves(tree)) == (2, 5, leaf_nodes)
        assert depth(to_tree(Leaf(0.0))) == 0


def _growth_case(seed):
    """Inputs for one tree: NaN and constant columns, and leaf sizes that
    stop some children while their siblings go on splitting."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    n_features = int(rng.integers(1, 7))
    X = rng.normal(size=(n, n_features))
    if seed % 3 == 0:
        X = np.round(X, 1)  # few distinct values, many tied gains
    X[:, rng.random(n_features) < 0.2] = 1.5  # constant features
    nan_cols = rng.random(n_features) < 0.5
    X[(rng.random((n, n_features)) < 0.3) & nan_cols] = np.nan
    if seed % 10 == 0:
        X[:, 0] = np.nan
    if seed % 2:
        g = rng.integers(-4, 5, size=n) / 8.0  # quantized, as in training
        h = rng.integers(1, 5, size=n) / 4.0
    else:
        g = rng.normal(size=n)
        h = rng.random(n) + 0.1
    if seed % 8 == 7:
        min_leaf = int(rng.integers(n // 2 + 1, n + 2))  # the root is a leaf
    else:
        min_leaf = int(rng.integers(1, max(2, n // 4)))
    params = TrainParams(
        max_depth=1 + seed % 6,
        min_examples_per_leaf=min_leaf,
        l2=float(rng.choice([0.0, 1.0])),
        oblique=seed % 4 == 0,
        oblique_projections=int(rng.integers(1, 6)),
        oblique_sparsity=float(rng.uniform(0.2, 1.0)),
        max_bins=int(rng.choice([3, 16, 255])),
    )
    return X, g, h, params


def _stops_beside_a_split(tree, params):
    """Whether a split above the depth bound has a child too small to split
    and a child that splits."""
    left = tree.left.tolist()
    level = [0] * len(left)
    for i, child in enumerate(left):
        if child == i:
            continue
        level[child] = level[child + 1] = level[i] + 1
        if level[i] + 1 < params.max_depth:
            for a, b in ((child, child + 1), (child + 1, child)):
                if (left[a] == a and left[b] != b
                        and tree.n_samples[a] < 2 * params.min_examples_per_leaf):
                    return True
    return False


class TestGrowTreeOracle:
    """``grow_tree`` returns the node-table grower's tree and row values, byte for byte."""

    def test_random_trees_match_table_grower(self):
        seen = {"root_leaf": 0, "oblique": 0, "stopped_beside_splitting": 0, "depth_6": 0}
        for seed in range(180):
            X, g, h, params = _growth_case(seed)
            binned = bin_features(X, max_bins=params.max_bins)
            rngs = [np.random.default_rng(seed) if params.oblique else None for _ in range(2)]
            tree, row_values = grow_tree(binned, X, g, h, params, rngs[0])
            expected, expected_values = table_grow_tree(binned, X, g, h, params, rngs[1])
            assert repr(_flatten_tree(tree)) == repr(_flatten_tree(expected)), seed
            assert row_values.tobytes() == expected_values.tobytes(), seed
            seen["root_leaf"] += isinstance(to_nodes(tree), Leaf)
            seen["oblique"] += has_oblique(tree)
            seen["stopped_beside_splitting"] += _stops_beside_a_split(tree, params)
            seen["depth_6"] += depth(tree) == 6
        assert min(seen.values()) >= 5, seen
