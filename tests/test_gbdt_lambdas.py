import math
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from channelrank.features import FeatureColumn, FeatureSchema
from channelrank.gbdt import lambdas
from channelrank.gbdt import model as model_module
from channelrank.gbdt.lambdas import PairIndex
from channelrank.metrics import QueryGroups, ndcg_at_k
from tests.lambda_oracle import (
    delta_ndcg,
    discordant_pairs,
    full_pair_gradients,
    lambda_gradients,
)


def brute_force_delta_ndcg(labels, order, i, j, k):
    """Full NDCG@k recompute before and after swapping positions i and j."""
    before = ndcg_at_k(labels, order, k)
    swapped = list(order)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    after = ndcg_at_k(labels, np.array(swapped), k)
    return abs(after - before)


def brute_force_lambdas(labels, scores, k, sigma=1.0):
    """Pair enumeration with full-recompute swap deltas; no quantization."""
    n = len(labels)
    order = list(np.lexsort((np.arange(n), -np.asarray(scores, dtype=np.float64))))
    pos = {doc: p for p, doc in enumerate(order)}
    g = np.zeros(n)
    h = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if labels[i] > labels[j]:
                delta = brute_force_delta_ndcg(labels, np.array(order), pos[i], pos[j], k)
                rho = 1.0 / (1.0 + math.exp(sigma * (scores[i] - scores[j])))
                lam = sigma * delta * rho
                g[i] -= lam
                g[j] += lam
                hess = sigma * sigma * delta * rho * (1.0 - rho)
                h[i] += hess
                h[j] += hess
    return g, h


class TestDeltaNdcg:
    def test_both_positions_beyond_k(self):
        labels = np.linspace(0, 4, 12)
        order = np.arange(12)
        assert delta_ndcg(labels, order, 9, 11, k=8) == 0.0

    def test_equal_labels_zero(self):
        labels = np.array([2.0, 2.0, 1.0])
        order = np.array([0, 1, 2])
        assert delta_ndcg(labels, order, 0, 1, k=8) == 0.0

    def test_hand_case_two_docs(self):
        labels = np.array([4.0, 0.0])
        order = np.array([0, 1])
        expected = brute_force_delta_ndcg(labels, order, 0, 1, k=8)
        assert delta_ndcg(labels, order, 0, 1, k=8) == pytest.approx(expected, abs=1e-12)

    def test_matches_full_recompute_on_random_lists(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            labels = rng.choice([0.0, 1.0, 2.0, 3.0, 4.0], size=n)
            order = rng.permutation(n)
            i, j = rng.choice(n, size=2, replace=False)
            k = int(rng.integers(1, 10))
            mine = delta_ndcg(labels, order, int(i), int(j), k)
            oracle = brute_force_delta_ndcg(labels, order, int(i), int(j), k)
            assert mine == pytest.approx(oracle, abs=1e-12)

    def test_invalid_positions_rejected(self):
        with pytest.raises(ValueError):
            delta_ndcg(np.array([1.0, 0.0]), np.array([0, 1]), 0, 0, k=8)


class TestLambdaGradients:
    def test_equal_labels_all_zero(self):
        labels = np.full(5, 2.0)
        g, h = lambda_gradients(labels, np.zeros(5), k=8)
        assert not g.any() and not h.any()

    def test_two_docs_equal_scores_direction(self):
        # Formula convention: the higher-labeled doc accumulates negative
        # gradient, so its Newton step -g/(h+l2) raises its score.
        g, h = lambda_gradients(np.array([4.0, 0.0]), np.zeros(2), k=8)
        assert g[0] < 0.0 < g[1]
        assert g[0] == -g[1]
        assert h[0] > 0 and h[1] > 0
        step_winner = -g[0] / (h[0] + 1.0)
        assert step_winner > 0.0

    def test_gradient_sum_exactly_zero(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            labels = rng.choice([0.0, 1.0, 2.0, 4.0], size=n)
            scores = rng.normal(size=n)
            g, _ = lambda_gradients(labels, scores, k=8)
            assert g.sum() == 0.0

    def test_hessians_non_negative(self):
        rng = np.random.default_rng(43)
        labels = rng.choice([0.0, 2.0, 4.0], size=30)
        g, h = lambda_gradients(labels, rng.normal(size=30), k=8)
        assert (h >= 0).all()

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            labels = rng.choice([0.0, 1.0, 2.0, 3.0, 4.0], size=n)
            scores = rng.normal(size=n)
            g, h = lambda_gradients(labels, scores, k=8)
            g_oracle, h_oracle = brute_force_lambdas(labels, scores, k=8)
            np.testing.assert_allclose(g, g_oracle, atol=1e-9)
            np.testing.assert_allclose(h, h_oracle, atol=1e-9)

    def test_pairwise_push_direction_any_scores(self):
        # For every discordant pair, the pair's contribution lowers the
        # winner's g and raises the loser's, whatever the current scores.
        rng = np.random.default_rng(53)
        labels = np.array([3.0, 1.0])
        for _ in range(50):
            scores = rng.normal(size=2) * 5
            g, _ = lambda_gradients(labels, scores, k=8)
            assert g[0] <= 0.0 <= g[1]

    def test_score_shift_invariance(self):
        rng = np.random.default_rng(59)
        labels = rng.choice([0.0, 2.0, 4.0], size=12)
        scores = rng.normal(size=12)
        g1, h1 = lambda_gradients(labels, scores, k=8)
        g2, h2 = lambda_gradients(labels, scores + 100.0, k=8)
        np.testing.assert_allclose(g1, g2, atol=1e-9)
        np.testing.assert_allclose(h1, h2, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lambda_gradients(np.array([]), np.array([]), k=8)


class TestPairIndex:
    def _random_groups(self, seed, n_groups=40):
        rng = np.random.default_rng(seed)
        labels_parts, scores_parts, sizes = [], [], []
        for _ in range(n_groups):
            size = int(rng.integers(1, 12))
            sizes.append(size)
            labels_parts.append(rng.choice([0.0, 1.0, 2.0, 3.0, 4.0], size=size))
            scores_parts.append(rng.normal(size=size))
        labels = np.concatenate(labels_parts)
        scores = np.concatenate(scores_parts)
        group_ids = np.repeat(np.arange(n_groups), sizes)
        return labels, scores, group_ids, sizes

    def test_matches_single_group_function(self):
        labels, scores, group_ids, sizes = self._random_groups(61)
        index = PairIndex(labels, QueryGroups.from_ids(group_ids), k=8)
        g, h = index.gradients(scores)
        start = 0
        for size in sizes:
            seg = slice(start, start + size)
            g_ref, h_ref = lambda_gradients(labels[seg], scores[seg], k=8)
            np.testing.assert_array_equal(g[seg], g_ref)
            np.testing.assert_array_equal(h[seg], h_ref)
            start += size

    def test_non_contiguous_ids_rejected(self):
        labels = np.array([0.0, 4.0, 0.0, 4.0])
        with pytest.raises(ValueError, match="contiguous"):
            PairIndex(labels, QueryGroups.from_ids(np.array([0, 1, 0, 1])), k=8)

    def test_thread_count_never_changes_result(self):
        labels, scores, group_ids, _ = self._random_groups(67, n_groups=80)
        index = PairIndex(labels, QueryGroups.from_ids(group_ids), k=8)
        g1, h1 = index.gradients(scores, n_threads=1)
        for n_threads in (2, 3, 8):
            gn, hn = index.gradients(scores, n_threads=n_threads)
            np.testing.assert_array_equal(g1, gn)
            np.testing.assert_array_equal(h1, hn)

    @pytest.mark.parametrize("n_threads", [0, -1])
    def test_thread_count_below_one_rejected(self, n_threads):
        labels, scores, group_ids, _ = self._random_groups(67, n_groups=8)
        index = PairIndex(labels, QueryGroups.from_ids(group_ids), k=8)
        with pytest.raises(ValueError, match=f"n_threads must be >= 1, got {n_threads}"):
            index.gradients(scores, n_threads=n_threads)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_thread_pool_capped_at_usable_cpus(self, monkeypatch, cpus):
        pools = []

        class RecordingExecutor(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(lambdas, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(lambdas, "usable_cpus", lambda: cpus)
        labels, scores, group_ids, _ = self._random_groups(67, n_groups=80)
        index = PairIndex(labels, QueryGroups.from_ids(group_ids), k=8)
        g1, h1 = index.gradients(scores, n_threads=1)
        gn, hn = index.gradients(scores, n_threads=64)
        assert pools == ([] if cpus == 1 else [cpus])
        assert (gn.tobytes(), hn.tobytes()) == (g1.tobytes(), h1.tobytes())

    def test_scores_length_mismatch_rejected(self):
        labels, scores, group_ids, _ = self._random_groups(73, n_groups=8)
        index = PairIndex(labels, QueryGroups.from_ids(group_ids), k=8)
        with pytest.raises(ValueError, match="scores must have shape"):
            index.gradients(np.append(scores, 0.0))

    def test_ranked_length_mismatch_rejected(self):
        labels, scores, group_ids, _ = self._random_groups(73, n_groups=8)
        index = PairIndex(labels, QueryGroups.from_ids(group_ids), k=8)
        other = QueryGroups.from_ids(group_ids[:-1])
        with pytest.raises(ValueError, match="ranked must order"):
            index.gradients(scores, ranked=other.rank_discounts(scores[:-1], 8))

    def test_k_below_one_rejected(self):
        labels, _, group_ids, _ = self._random_groups(73, n_groups=8)
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            PairIndex(labels, QueryGroups.from_ids(group_ids), k=0)

    def test_per_group_sum_exactly_zero(self):
        labels, scores, group_ids, sizes = self._random_groups(71)
        index = PairIndex(labels, QueryGroups.from_ids(group_ids), k=8)
        g, _ = index.gradients(scores)
        start = 0
        for size in sizes:
            assert g[start:start + size].sum() == 0.0
            start += size


class TestExactSumBound:
    """g and h sum exactly only while max(sigma, sigma**2 / 4) * (size - 1) < 2**13.

    At sigma = 100 that is 2,500 * (size - 1): a largest group of 4 rows
    (7,500) is inside the bound and one of 5 rows (10,000) is not.
    """

    @staticmethod
    def _fit(size):
        group_ids = np.repeat(np.arange(3), [2, size, 3])
        labels = np.arange(len(group_ids), dtype=np.float64) % 5
        schema = FeatureSchema(columns=(FeatureColumn("f0", "numeric", "item"),))
        params = model_module.TrainParams(num_trees=1, max_depth=1, sigma=100.0)
        return labels, group_ids, (labels[:, None], labels, group_ids, schema, params)

    def test_largest_group_inside_the_bound_accepted(self):
        labels, group_ids, train_args = self._fit(4)
        PairIndex(labels, QueryGroups.from_ids(group_ids), k=8, sigma=100.0)
        model_module.train(*train_args)

    def test_largest_group_past_the_bound_rejected(self):
        labels, group_ids, train_args = self._fit(5)
        message = "^" + re.escape(
            "a group of 5 rows at sigma 100 breaks the exact-sum bound "
            "max(sigma, sigma**2 / 4) * (size - 1) < 2**13"
        )
        with pytest.raises(ValueError, match=message):
            PairIndex(labels, QueryGroups.from_ids(group_ids), k=8, sigma=100.0)
        with pytest.raises(ValueError, match=message):
            model_module.train(*train_args)


class TestTruncatedPairs:
    """Skipping pairs ranked wholly below k leaves g and h bit-identical."""

    @staticmethod
    def _groups(rng, n_groups, max_size):
        sizes = rng.integers(1, max_size + 1, size=n_groups)
        labels = rng.choice([0.0, 1.0, 2.0, 3.0, 4.0], size=int(sizes.sum()))
        scores = rng.normal(size=len(labels))
        if rng.random() < 0.5:
            scores = np.round(scores, 0)  # many tied scores
        return labels, scores, np.repeat(np.arange(n_groups), sizes)

    def test_matches_every_pair_evaluated(self):
        rng = np.random.default_rng(83)
        skipped = 0
        for _ in range(60):
            k = int(rng.choice([1, 2, 5, 8]))
            labels, scores, group_ids = self._groups(rng, int(rng.integers(1, 30)), 25)
            sigma = float(rng.choice([0.5, 1.0, 2.0]))
            groups = QueryGroups.from_ids(group_ids)
            index = PairIndex(labels, groups, k=k, sigma=sigma)
            g_ref, h_ref = full_pair_gradients(labels, groups, k, sigma, scores)
            for n_threads in (1, 3):
                g, h = index.gradients(scores, n_threads=n_threads)
                assert (g.tobytes(), h.tobytes()) == (g_ref.tobytes(), h_ref.tobytes())
            order, disc = groups.rank_discounts(scores, k)
            below = np.empty(len(labels), dtype=bool)
            below[order] = disc == 0.0
            win, lose = discordant_pairs(labels, groups)
            skipped += int(np.count_nonzero(below[win] & below[lose]))
        assert skipped > 1000

    def test_shared_ranking_gives_the_same_gradients(self):
        labels, scores, group_ids = self._groups(np.random.default_rng(89), 20, 15)
        groups = QueryGroups.from_ids(group_ids)
        index = PairIndex(labels, groups, k=3)
        ranked = groups.rank_discounts(scores, 3)
        g, h = index.gradients(scores, ranked=ranked)
        g_ref, h_ref = full_pair_gradients(labels, groups, 3, 1.0, scores)
        assert (g.tobytes(), h.tobytes()) == (g_ref.tobytes(), h_ref.tobytes())

    @pytest.mark.parametrize("k", [1, 3, 8, 40])
    def test_lambda_gradients_one_group(self, k):
        rng = np.random.default_rng(97 + k)
        labels = rng.choice([0.0, 1.0, 2.0, 4.0], size=30)
        scores = np.round(rng.normal(size=30), 1)
        g, h = lambda_gradients(labels, scores, k=k)
        g_ref, h_ref = full_pair_gradients(
            labels, QueryGroups.from_ids(np.zeros(30)), k, 1.0, scores
        )
        assert (g.tobytes(), h.tobytes()) == (g_ref.tobytes(), h_ref.tobytes())


class TestInPlaceChunk:
    """The in-place rank-space cells give the every-pair oracle's bits."""

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.3, 2.0])
    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_bits_match_expression_oracle(self, sigma, n_threads):
        rng = np.random.default_rng(101 + int(10 * sigma) + n_threads)
        sizes = rng.integers(1, 30, size=50)
        labels = rng.choice([0.0, 1.0, 2.0, 3.0, 4.0], size=int(sizes.sum()))
        scores = np.round(rng.normal(scale=3.0, size=len(labels)), 1)  # many ties
        scores[rng.random(len(labels)) < 0.1] = 0.0
        groups = QueryGroups.from_ids(np.repeat(np.arange(len(sizes)), sizes))
        checked = 0
        for k in (3, 8, int(sizes.max()) + 5):
            index = PairIndex(labels, groups, k=k, sigma=sigma)
            g, h = index.gradients(scores, n_threads=n_threads)
            g_ref, h_ref = full_pair_gradients(labels, groups, k, sigma, scores)
            assert (g.tobytes(), h.tobytes()) == (g_ref.tobytes(), h_ref.tobytes())
            checked += int(np.count_nonzero(h))
        assert checked > 1000


def edge_case_groups():
    """Labels, scores and ids for groups at every edge of the rank-space layout.

    Sizes 1, 2, 7, 8 and 9 sit at k - 1, k and k + 1 for k = 8, and 2, 3
    and 4 for k = 3; 32/33 and 64/65 straddle two size-bucket boundaries;
    one group has 300 rows. One group has all labels equal, one all
    labels 0 (zero IDCG), scores are rounded so many tie, and one group's
    scores are spread so far that |sigma * ds| passes the exp clip. In one
    group the last-ranked row's label is one ulp above the others', so
    each of its pairs quantizes to a lambda of 0 signed negative, and its
    g must still read +0.0. The 250 groups of 40-64 rows fill one bucket
    with several cell-budget blocks for k = 8 and 40.
    """
    rng = np.random.default_rng(107)
    sizes = [1, 2, 3, 4, 7, 8, 9, 32, 33, 64, 65, 300, 12, 12, 20, 12]
    sizes += list(rng.integers(40, 65, size=250))
    labels = [rng.choice([0.0, 1.0, 2.0, 3.0, 4.0], size=s) for s in sizes]
    scores = [np.round(rng.normal(scale=2.0, size=s), 1) for s in sizes]
    labels[12][:] = 3.0  # all labels equal
    labels[13][:] = 0.0  # zero IDCG
    scores[14] = rng.choice([-500.0, 0.0, 500.0], size=20)
    labels[15][:] = 1.0
    labels[15][-1] = np.nextafter(1.0, 2.0)
    scores[15] = -np.arange(12.0)
    return (
        np.concatenate(labels),
        np.concatenate(scores),
        np.repeat(np.arange(len(sizes)), sizes),
    )


class TestRankSpaceEdges:
    @pytest.mark.parametrize("k", [1, 3, 8, 40])
    @pytest.mark.parametrize("n_threads", [1, 2, 3])
    def test_bits_match_oracle(self, k, n_threads):
        labels, scores, group_ids = edge_case_groups()
        groups = QueryGroups.from_ids(group_ids)
        sigma = 2.0
        index = PairIndex(labels, groups, k=k, sigma=sigma)
        if k >= 8:
            assert len(index._blocks) > len(groups._padded_layout()[0])
        g, h = index.gradients(scores, n_threads=n_threads)
        g_ref, h_ref = full_pair_gradients(labels, groups, k, sigma, scores)
        assert (g.tobytes(), h.tobytes()) == (g_ref.tobytes(), h_ref.tobytes())
        assert np.count_nonzero(h) > 1000


class TestPairLists:
    """``win`` and ``lose`` are built only when read, for the tracer's counts."""

    def test_gradients_never_build_pair_lists(self):
        labels, scores, group_ids = edge_case_groups()
        index = PairIndex(labels, QueryGroups.from_ids(group_ids), k=8)
        index.gradients(scores, n_threads=2)
        assert "_pair_lists" not in vars(index)

    def test_train_never_builds_pair_lists(self, monkeypatch):
        built = []

        class RecordingIndex(PairIndex):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(model_module, "PairIndex", RecordingIndex)
        rng = np.random.default_rng(109)
        X = rng.normal(size=(240, 3))
        labels = np.clip(np.round(X[:, 0] + 2.0), 0.0, 4.0)
        schema = FeatureSchema(
            columns=tuple(FeatureColumn(f"f{i}", "numeric", "item") for i in range(3))
        )
        params = model_module.TrainParams(num_trees=3, max_depth=3)
        model_module.train(X, labels, np.repeat(np.arange(20), 12), schema, params)
        assert len(built) == 1 and "_pair_lists" not in vars(built[0])

    def test_read_pair_lists_equal_oracle(self):
        labels, _, group_ids = edge_case_groups()
        groups = QueryGroups.from_ids(group_ids)
        index = PairIndex(labels, groups, k=8)
        win, lose = discordant_pairs(labels, groups)
        assert np.array_equal(index.win, win) and np.array_equal(index.lose, lose)
        assert "_pair_lists" in vars(index)
