import math
import re

import numpy as np
import pytest

from channelrank.metrics import (
    GroupedNdcg,
    dcg_at_k,
    ideal_dcg_at_k,
    ndcg_at_k,
    QueryGroups,
    order_from_scores,
    purchase_ndcg_at_k,
)


def ndcg_from_scores(labels, scores, k):
    """NDCG@k of the ranking the scores induce, ties broken by item index."""
    return ndcg_at_k(labels, order_from_scores(scores), k)


def brute_force_ndcg(labels, order, k):
    """Position-by-position loop, independent of the vectorized path."""
    dcg = 0.0
    for pos, idx in enumerate(order[:k], start=1):
        dcg += (2.0 ** labels[idx] - 1.0) / math.log2(pos + 1)
    ideal = sorted(labels, reverse=True)
    idcg = 0.0
    for pos, lab in enumerate(ideal[:k], start=1):
        idcg += (2.0 ** lab - 1.0) / math.log2(pos + 1)
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


class TestNdcg:
    def test_ideal_ordering_is_one(self):
        labels = np.array([3.0, 1.0, 0.0])
        assert ndcg_at_k(labels, np.array([0, 1, 2]), k=3) == pytest.approx(1.0)

    def test_hand_computed_reversed_case(self):
        # labels [3,1,0] ranked worst-first: DCG = 0 + 1/log2(3) + 7/2,
        # IDCG = 7 + 1/log2(3).
        labels = np.array([3.0, 1.0, 0.0])
        value = ndcg_at_k(labels, np.array([2, 1, 0]), k=3)
        dcg = 1.0 / math.log2(3) + 7.0 / 2.0
        idcg = 7.0 + 1.0 / math.log2(3)
        assert value == pytest.approx(dcg / idcg, abs=1e-12)
        assert value == pytest.approx(0.54134, abs=1e-5)

    def test_all_zero_labels_score_zero(self):
        labels = np.zeros(4)
        assert ndcg_at_k(labels, np.arange(4), k=4) == 0.0

    def test_helpers_consistent(self):
        labels = np.array([4.0, 2.0, 0.0])
        assert ideal_dcg_at_k(labels, 3) == pytest.approx(dcg_at_k(labels, 3))

    def test_matches_brute_force_on_random_lists(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 11))
            labels = rng.uniform(0, 4, size=n)
            order = rng.permutation(n)
            k = int(rng.integers(1, 12))
            assert ndcg_at_k(labels, order, k) == pytest.approx(
                brute_force_ndcg(labels, list(order), k), abs=1e-12
            )

    def test_k_beyond_length_equals_untruncated(self):
        rng = np.random.default_rng(3)
        labels = rng.uniform(0, 4, size=6)
        order = rng.permutation(6)
        assert ndcg_at_k(labels, order, k=6) == pytest.approx(
            ndcg_at_k(labels, order, k=50), abs=1e-12
        )

    def test_invariant_under_monotone_score_transform(self):
        rng = np.random.default_rng(5)
        labels = rng.uniform(0, 4, size=8)
        scores = rng.normal(size=8)
        base = ndcg_from_scores(labels, scores, k=8)
        assert ndcg_from_scores(labels, 3.0 * scores + 7.0, k=8) == base
        assert ndcg_from_scores(labels, np.exp(scores), k=8) == base

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            ndcg_at_k(np.array([1.0, 2.0]), np.array([0, 0]), k=2)

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError, match="non-negative"):
            ndcg_at_k(np.array([-1.0, 2.0]), np.array([0, 1]), k=2)
        # A NaN or infinite label used to give a NaN score.
        for bad in (np.nan, np.inf):
            for metric in (ndcg_at_k, purchase_ndcg_at_k):
                with pytest.raises(ValueError, match="finite"):
                    metric(np.array([bad, 2.0]), np.array([0, 1]), k=2)

    @pytest.mark.parametrize(
        "order", [np.array([1.0, 0.0, 2.0]), np.array([True, False, True])], ids=["float", "bool"]
    )
    def test_rejects_non_integer_orders(self, order):
        # A float order used to be cut down to integers and scored.
        for metric in (ndcg_at_k, purchase_ndcg_at_k):
            for given in (order, order[None]):
                with pytest.raises(ValueError, match="integer permutations"):
                    metric(np.array([0.9, 1.2, 2.7]), given, k=3)

    @pytest.mark.parametrize(
        "order",
        [np.array([0, -1]), np.array([0, 2]), np.empty((0, 2), dtype=np.intp),
         [np.arange(2), np.arange(3)], np.zeros((2, 2, 2), dtype=np.intp)],
        ids=["negative-index", "out-of-range", "empty-stack", "ragged", "3-d"],
    )
    def test_rejects_orders_that_are_not_permutations(self, order):
        with pytest.raises(ValueError, match="permutations of range"):
            ndcg_at_k(np.array([1.0, 2.0]), order, k=2)

    @pytest.mark.parametrize("metric", [ndcg_at_k, purchase_ndcg_at_k])
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, metric, k):
        # Such a cut-off used to score: ndcg_at_k read 0.1738 at k = -1 (0.5869
        # at k = 3) and 0.0 at k = 0.
        with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
            metric(np.array([0.0, 1.0, 2.0]), np.array([0, 1, 2]), k)

    def test_stack_scores_each_order_bitwise(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            labels = rng.uniform(0, 4, size=n).round(int(rng.integers(0, 3)))
            if rng.random() < 0.2:
                labels[:] = 0.0
            stack = np.array([rng.permutation(n) for _ in range(int(rng.integers(1, 6)))])
            k = int(rng.integers(1, 12))
            values = ndcg_at_k(labels, stack, k)
            assert isinstance(values, np.ndarray) and values.shape == (len(stack),)
            for value, order in zip(values, stack):
                single = ndcg_at_k(labels, order, k)
                assert isinstance(single, float)
                assert value == single
                assert value == pytest.approx(brute_force_ndcg(labels, list(order), k), abs=1e-12)


def brute_force_purchase_ndcg(purchases, order, k):
    """Linear-gain NDCG@k by a position-by-position loop."""
    dcg = sum(purchases[idx] / math.log2(pos + 1) for pos, idx in enumerate(order[:k], 1))
    ideal = sorted(purchases, reverse=True)[:k]
    idcg = sum(p / math.log2(pos + 1) for pos, p in enumerate(ideal, 1))
    return 0.0 if idcg == 0.0 else dcg / idcg


class TestPurchaseNdcg:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            purchases = rng.integers(0, 12, size=n).astype(np.float64)
            stack = np.array([rng.permutation(n) for _ in range(int(rng.integers(1, 4)))])
            k = int(rng.integers(1, 12))
            values = purchase_ndcg_at_k(purchases, stack, k)
            for value, order in zip(values, stack):
                assert value == purchase_ndcg_at_k(purchases, order, k)
                assert value == pytest.approx(
                    brute_force_purchase_ndcg(purchases, list(order), k), abs=1e-12
                )

    def test_gain_is_linear(self):
        # Counts [5, 1, 0] ranked worst-first: DCG = 1/log2(3) + 5/2,
        # IDCG = 5 + 1/log2(3); exponential gain would use 31 and 1.
        value = purchase_ndcg_at_k(np.array([5.0, 1.0, 0.0]), np.array([2, 1, 0]), k=3)
        assert value == pytest.approx((1 / math.log2(3) + 2.5) / (5 + 1 / math.log2(3)))

    def test_no_purchases_score_zero(self):
        assert purchase_ndcg_at_k(np.zeros(3), np.array([[0, 1, 2], [2, 1, 0]]), k=3).tolist() == [
            0.0, 0.0,
        ]


class TestOrderFromScores:
    def test_ties_break_by_index_ascending(self):
        scores = np.array([1.0, 2.0, 1.0, 2.0])
        assert list(order_from_scores(scores)) == [1, 3, 0, 2]

    def test_equals_two_key_lexsort(self):
        # Ties, signed zeros, infinities and NaN rank as the score-then-index lexsort does.
        rng = np.random.default_rng(29)
        cells = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 0.5])
        for _ in range(500):
            n = int(rng.integers(0, 60))
            scores = rng.choice(cells, size=n) if rng.random() < 0.5 else rng.normal(size=n)
            want = np.lexsort((np.arange(n), -scores))
            np.testing.assert_array_equal(order_from_scores(scores), want)


class TestQueryGroups:
    def test_one_group(self):
        groups = QueryGroups.from_ids(np.array([7, 7, 7]))
        assert groups.count == 1
        np.testing.assert_array_equal(groups.starts, [0, 3])
        np.testing.assert_array_equal(groups.codes, [0, 0, 0])
        np.testing.assert_array_equal(groups.sizes, [3])

    def test_singleton_groups(self):
        groups = QueryGroups.from_ids(np.array([5, 3, 9]))
        assert groups.count == 3
        np.testing.assert_array_equal(groups.starts, [0, 1, 2, 3])
        np.testing.assert_array_equal(groups.codes, [0, 1, 2])
        np.testing.assert_array_equal(groups.sizes, [1, 1, 1])

    def test_codes_follow_run_order(self):
        groups = QueryGroups.from_ids(np.array(["b", "b", "a", "c", "c", "c"]))
        assert groups.count == 3
        np.testing.assert_array_equal(groups.starts, [0, 2, 3, 6])
        np.testing.assert_array_equal(groups.codes, [0, 0, 1, 2, 2, 2])
        np.testing.assert_array_equal(groups.sizes, [2, 1, 3])

    @pytest.mark.parametrize("ids", [[0, 1, 0, 1], [0, 0, 1, 0], ["q", "r", "q"]])
    def test_non_contiguous_ids_rejected(self, ids):
        with pytest.raises(ValueError, match="contiguous"):
            QueryGroups.from_ids(np.array(ids))

    def test_rank_discounts_per_group(self):
        groups = QueryGroups.from_ids(np.array([0, 0, 0, 1, 1]))
        order, disc = groups.rank_discounts(np.array([1.0, 1.0, 0.0, 2.0, 3.0]), 2)
        np.testing.assert_array_equal(order, [0, 1, 2, 4, 3])
        second = 1.0 / math.log2(3.0)
        np.testing.assert_array_equal(disc, [1.0, second, 0.0, 1.0, second])
        order, _ = groups.rank_discounts(np.zeros(5), 2)
        np.testing.assert_array_equal(order, [0, 1, 2, 3, 4])


def lexsort_rank_discounts(groups, scores, k):
    """``rank_discounts`` as one three-key ``lexsort``: group, score descending, row."""
    n = len(groups.codes)
    order = np.lexsort((np.arange(n), -np.asarray(scores, dtype=np.float64), groups.codes))
    pos_in_group = np.arange(n) - groups.starts[groups.codes[order]]
    return order, np.where(pos_in_group < k, 1.0 / np.log2(pos_in_group + 2.0), 0.0)


class TestRankDiscountsOracle:
    """``rank_discounts`` ranks exactly as the three-key ``lexsort`` does."""

    @staticmethod
    def _assert_same(groups, scores, k):
        order, disc = groups.rank_discounts(scores, k)
        want_order, want_disc = lexsort_rank_discounts(groups, scores, k)
        assert order.tolist() == want_order.tolist()
        assert disc.tobytes() == want_disc.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_groups_with_ties_nan_and_signed_zeros(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 30, size=int(rng.integers(1, 60)))
        n = int(sizes.sum())
        # Few distinct values, so many scores tie within a group.
        pool = np.array([np.nan, -0.0, 0.0, 1.0, -1.0, 2.5, np.inf, -np.inf])
        scores = pool[rng.integers(len(pool), size=n)]
        groups = QueryGroups.from_ids(np.repeat(np.arange(len(sizes)), sizes))
        for k in (1, 3, 8, 40):
            self._assert_same(groups, scores, k)

    def test_signed_zeros_tie_by_row(self):
        groups = QueryGroups.from_ids(np.zeros(4, dtype=np.int64))
        order, _ = groups.rank_discounts(np.array([-0.0, 0.0, np.nan, -0.0]), 8)
        assert order.tolist() == [0, 1, 3, 2]
        self._assert_same(groups, np.array([0.0, -0.0, 0.0, np.nan]), 2)

    @pytest.mark.parametrize("n_groups", [1 << 16, 70_000])
    def test_one_row_groups_at_and_past_uint16(self, n_groups):
        # Codes sort as uint16 up to 65,536 groups and as they are past it;
        # a few five-row groups at both ends have ranks to get wrong.
        rng = np.random.default_rng(n_groups)
        sizes = np.ones(n_groups, dtype=np.int64)
        sizes[:3] = sizes[-3:] = 5
        groups = QueryGroups.from_ids(np.repeat(np.arange(n_groups), sizes))
        scores = rng.integers(3, size=int(sizes.sum())).astype(np.float64)
        self._assert_same(groups, scores, 2)


    @pytest.mark.parametrize("seed", range(4))
    def test_one_large_group_among_small_ones(self, seed):
        # The 1,000-row group is a bucket of its own; the 1-3-row groups
        # fill three narrow buckets (1, 2 and 3-4 rows).
        rng = np.random.default_rng(100 + seed)
        sizes = rng.integers(1, 4, size=300)
        sizes[int(rng.integers(len(sizes)))] = 1000
        groups = QueryGroups.from_ids(np.repeat(np.arange(len(sizes)), sizes))
        pool = np.array([np.nan, -0.0, 0.0, 1.0, -1.0, 2.5])
        scores = np.where(
            rng.random(int(sizes.sum())) < 0.5,
            pool[rng.integers(len(pool), size=int(sizes.sum()))],
            rng.normal(size=int(sizes.sum())),
        )
        for k in (1, 8, 1000):
            self._assert_same(groups, scores, k)

    def test_sizes_on_both_sides_of_powers_of_two(self):
        # 2**b and 2**b + 1 rows fall in neighbouring buckets, so each
        # bucket pads its smaller groups to its largest one.
        rng = np.random.default_rng(5)
        sizes = np.array([s for b in range(7) for s in (2**b - 1, 2**b, 2**b + 1) if s > 0])
        sizes = np.concatenate([sizes, rng.permutation(sizes)])
        groups = QueryGroups.from_ids(np.repeat(np.arange(len(sizes)), sizes))
        scores = rng.integers(4, size=int(sizes.sum())).astype(np.float64)
        scores[rng.random(len(scores)) < 0.1] = np.nan
        for k in (1, 3, 64):
            self._assert_same(groups, scores, k)

    def test_later_calls_rank_their_own_scores(self):
        groups = QueryGroups.from_ids(np.repeat(np.arange(3), [2, 5, 1]))
        rng = np.random.default_rng(9)
        for _ in range(3):
            self._assert_same(groups, rng.normal(size=8), 2)

    def test_no_rows(self):
        order, disc = QueryGroups.from_ids(np.array([], dtype=np.int64)).rank_discounts(
            np.array([]), 8
        )
        assert order.shape == disc.shape == (0,)


class TestGroupedNdcg:
    def test_non_contiguous_ids_rejected(self):
        labels = np.array([0.0, 4.0, 0.0, 4.0])
        with pytest.raises(ValueError, match="contiguous"):
            GroupedNdcg(labels, QueryGroups.from_ids(np.array([0, 1, 0, 1])), k=8)

    def test_matches_scalar_path_per_group(self):
        rng = np.random.default_rng(17)
        sizes = [1, 4, 7, 3, 10]
        labels = np.concatenate([rng.uniform(0, 4, size=s) for s in sizes])
        group_ids = np.repeat(np.arange(len(sizes)), sizes)
        scores = rng.normal(size=len(labels))
        grouped = GroupedNdcg(labels, QueryGroups.from_ids(group_ids), k=8)
        per_group = grouped.per_group(scores)
        start = 0
        for gi, size in enumerate(sizes):
            seg = slice(start, start + size)
            expected = ndcg_from_scores(labels[seg], scores[seg], k=8)
            assert per_group[gi] == pytest.approx(expected, abs=1e-12)
            start += size
        assert grouped.mean(scores) == pytest.approx(per_group.mean(), abs=1e-15)

    @pytest.mark.parametrize(
        "labels, message",
        [([-1.0, -1.0, 0.0, -2.0, 0.0], "label -1.0 at row 0"),
         ([1.0, 0.0, 2.0, np.nan, 0.0], "label nan at row 3"),
         ([1.0, 0.0, np.inf, 1.0, 0.0], "label inf at row 2")],
        ids=["negative", "nan", "inf"],
    )
    def test_negative_or_non_finite_labels_rejected(self, labels, message):
        # Such labels used to score silently: mean NDCG@3 read 0.0 for the
        # negative case and 0.5 with the NaN.
        groups = QueryGroups.from_ids(np.array([0, 0, 0, 1, 1]))
        with pytest.raises(ValueError, match=re.escape(message) + ": labels must be finite"):
            GroupedNdcg(np.array(labels), groups, k=3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        groups = QueryGroups.from_ids(np.array([0, 0, 1]))
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            GroupedNdcg(np.array([1.0, 0.0, 2.0]), groups, k=k)

    def test_zero_idcg_group_scores_zero(self):
        labels = np.array([0.0, 0.0, 3.0, 1.0])
        group_ids = np.array([0, 0, 1, 1])
        grouped = GroupedNdcg(labels, QueryGroups.from_ids(group_ids), k=8)
        per_group = grouped.per_group(np.array([1.0, 0.5, 1.0, 2.0]))
        assert per_group[0] == 0.0
        assert per_group[1] > 0.0
