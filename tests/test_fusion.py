import functools
import itertools
import operator

import numpy as np
import pytest

from channelrank.core import ChannelId, ChannelList
from channelrank.fusion import (
    FusedList,
    InterleaveWeights,
    rrf_fuse,
    weighted_interleave,
    weighted_interleave_batch,
)
from tests import fusion_oracle

C0 = ChannelId(0, "lexical")
C1 = ChannelId(1, "semantic")
C2 = ChannelId(2, "trending")


def cl(channel, items, query="q1", top=1.0):
    pairs = [(item, top - i * 0.01) for i, item in enumerate(items)]
    return ChannelList.from_pairs(channel, query, pairs)


def brute_force_rrf(lists, k_rrf):
    """Independent reference: accumulate 1/(k+rank) per containing list."""
    table = {}
    for lst in lists:
        for rank, (item, _) in enumerate(lst.entries, start=1):
            table[item] = table.get(item, 0.0) + 1.0 / (k_rrf + rank)
    return table


class TestRrf:
    def test_single_list_scores(self):
        fused = rrf_fuse([cl(C0, ["A", "B"])], k_rrf=60)
        assert fused.items == ("A", "B")
        assert fused.scores == (1 / 61, 1 / 62)

    def test_rank_one_in_both_lists(self):
        fused = rrf_fuse([cl(C0, ["A", "B"]), cl(C1, ["A", "C"])], k_rrf=60)
        assert fused.items[0] == "A"
        assert fused.scores[0] == pytest.approx(2 / 61, abs=1e-12)

    def test_duplicate_lists_preserve_order(self):
        base = ["C", "A", "B"]
        fused = rrf_fuse([cl(C0, base), cl(C1, base)], k_rrf=60)
        assert fused.items == tuple(base)

    def test_empty_input_collection(self):
        fused = rrf_fuse([], k_rrf=60)
        assert fused.items == ()

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n_channels = int(rng.integers(1, 4))
            lists = []
            for c in range(n_channels):
                size = int(rng.integers(1, 8))
                items = rng.choice([f"i{j}" for j in range(12)], size=size, replace=False)
                lists.append(cl(ChannelId(c, f"c{c}"), list(items)))
            k_rrf = float(rng.uniform(1, 100))
            fused = rrf_fuse(lists, k_rrf=k_rrf)
            table = brute_force_rrf(lists, k_rrf)
            expected = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
            assert fused.items == tuple(item for item, _ in expected)
            assert fused.scores == tuple(score for _, score in expected)

    def test_order_invariant_under_score_rescaling(self):
        l0 = ChannelList.from_pairs(C0, "q1", [("A", 10.0), ("B", 3.0)])
        l0_scaled = ChannelList.from_pairs(C0, "q1", [("A", 1000.0), ("B", 300.0)])
        l1 = ChannelList.from_pairs(C1, "q1", [("B", 0.9), ("C", 0.1)])
        assert rrf_fuse([l0, l1]).items == rrf_fuse([l0_scaled, l1]).items

    def test_permutation_invariant_in_lists(self):
        l0 = cl(C0, ["A", "B", "C"])
        l1 = cl(C1, ["C", "D"])
        assert rrf_fuse([l0, l1]).items == rrf_fuse([l1, l0]).items
        assert rrf_fuse([l0, l1]).scores == rrf_fuse([l1, l0]).scores

    def test_scores_do_not_depend_on_list_order(self):
        # X's three terms sum to different last bits in different orders;
        # the fused score is the channel-order sum for every list order.
        lists = [cl(C0, ["X"]), cl(C1, ["X"]), cl(C2, ["Y", "X"])]
        in_order = rrf_fuse(lists)
        assert in_order.scores[0] == 0.04891591750396616
        for perm in itertools.permutations(lists):
            fused = rrf_fuse(list(perm))
            assert fused.items == in_order.items and fused.scores == in_order.scores

    def test_two_lists_of_one_channel_rejected(self):
        with pytest.raises(ValueError, match="duplicate channel 'lexical'"):
            rrf_fuse([cl(C0, ["A"]), cl(C0, ["B"])])

    def test_single_channel_returns_input_order(self):
        lst = cl(C0, ["B", "A", "C"])
        assert rrf_fuse([lst]).items == lst.items

    @pytest.mark.parametrize("k_rrf", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_k_rejected(self, k_rrf):
        with pytest.raises(ValueError, match="k_rrf"):
            rrf_fuse([cl(C0, ["A", "B"])], k_rrf=k_rrf)


class TestWeightedInterleave:
    def test_degenerate_weights_follow_channel_zero(self):
        l0 = cl(C0, ["A", "B", "C"])
        l1 = cl(C1, ["B", "D", "E"])
        w = InterleaveWeights({C0: 1.0, C1: 0.0})
        fused = weighted_interleave([l0, l1], w, seed=123)
        assert fused.items == ("A", "B", "C", "D", "E")

    def test_identical_singleton_lists_dedup(self):
        l0 = cl(C0, ["A"])
        l1 = cl(C1, ["A"])
        w = InterleaveWeights({C0: 0.4, C1: 0.6})
        for seed in range(10):
            assert weighted_interleave([l0, l1], w, seed=seed).items == ("A",)

    def test_output_is_permutation_of_union(self):
        l0 = cl(C0, ["A", "B", "C", "D"])
        l1 = cl(C1, ["C", "E", "F"])
        l2 = cl(C2, ["A", "G"])
        w = InterleaveWeights({C0: 0.5, C1: 0.3, C2: 0.2})
        union = {"A", "B", "C", "D", "E", "F", "G"}
        for seed in range(25):
            fused = weighted_interleave([l0, l1, l2], w, seed=seed)
            assert set(fused.items) == union
            assert len(fused.items) == len(union)

    def test_same_seed_same_output(self):
        l0 = cl(C0, [f"a{i}" for i in range(20)])
        l1 = cl(C1, [f"b{i}" for i in range(20)])
        w = InterleaveWeights({C0: 0.7, C1: 0.3})
        first = weighted_interleave([l0, l1], w, seed=99)
        again = weighted_interleave([l0, l1], w, seed=99)
        assert first == again

    def test_single_channel_passthrough(self):
        lst = cl(C0, ["B", "A", "C"])
        w = InterleaveWeights({C0: 2.5})
        assert weighted_interleave([lst], w, seed=5).items == lst.items

    def test_first_pick_frequency_tracks_weights(self):
        # Smaller Monte Carlo here; the acceptance suite runs the full 10k.
        l0 = cl(C0, [f"a{i}" for i in range(10)])
        l1 = cl(C1, [f"b{i}" for i in range(10)])
        w = InterleaveWeights({C0: 0.7, C1: 0.3})
        hits = sum(
            weighted_interleave([l0, l1], w, seed=seed).items[0].startswith("a")
            for seed in range(2000)
        )
        assert 0.7 - 0.04 <= hits / 2000 <= 0.7 + 0.04

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            InterleaveWeights({C0: 0.0, C1: 0.0})

    @pytest.mark.parametrize(
        "weights",
        [
            {C0: float("inf")},
            {C0: float("inf"), C1: 1.0},
            {C0: float("nan"), C1: 1.0},
            {C0: 1.0, C1: float("-inf")},
        ],
    )
    def test_non_finite_weight_rejected(self, weights):
        with pytest.raises(ValueError, match="non-finite weight"):
            InterleaveWeights(weights)

    def test_overflowing_weight_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            InterleaveWeights({C0: 1e308, C1: 1e308})

    def test_missing_channel_weight_rejected(self):
        l0 = cl(C0, ["A"])
        l1 = cl(C1, ["B"])
        w = InterleaveWeights({C0: 1.0})
        with pytest.raises(ValueError, match="no weight"):
            weighted_interleave([l0, l1], w, seed=0)


def random_case(rng, n_channels):
    """Channel lists over a small vocabulary, so items repeat across channels."""
    vocab = [f"i{j}" for j in range(int(rng.integers(3, 40)))]
    lists = []
    for c in range(n_channels):
        size = int(rng.integers(1, min(len(vocab), 15) + 1))
        items = rng.choice(vocab, size=size, replace=False)
        lists.append(cl(ChannelId(c, f"c{c}"), list(items)))
    # A fifth zero, a tenth each 1/3 and 0.1 (not dyadic), the rest uniform.
    weights = rng.uniform(1e-3, 5.0, n_channels)
    kind = rng.random(n_channels)
    weights[kind < 0.4] = 0.1
    weights[kind < 0.3] = 1.0 / 3.0
    weights[kind < 0.2] = 0.0
    if not (weights > 0).any():
        weights[int(rng.integers(n_channels))] = float(rng.uniform(0.01, 2.0))
    order = rng.permutation(n_channels)
    return (
        [lists[i] for i in order],
        InterleaveWeights({lst.channel: float(w) for lst, w in zip(lists, weights)}),
    )


class TestWeightedInterleaveOracle:
    """The package function against the one-draw-per-pick loop in ``fusion_oracle``."""

    @pytest.mark.parametrize("n_channels", [1, 2, 4, 8, 9, 12])
    def test_random_inputs_match_oracle(self, n_channels):
        rng = np.random.default_rng(1000 + n_channels)
        pairwise_differs = zero_weight = 0
        for _ in range(300):
            lists, weights = random_case(rng, n_channels)
            seed = int(rng.integers(2**32))
            assert weighted_interleave(lists, weights, seed) == (
                fusion_oracle.weighted_interleave(lists, weights, seed)
            )
            w = np.array(list(weights.weights.values()))
            pairwise_differs += w.sum() != functools.reduce(operator.add, w.tolist())
            zero_weight += bool((w == 0.0).any())
        if n_channels > 1:
            assert zero_weight > 0
        if n_channels >= 9:
            # numpy sums 8 or more values pairwise, not left to right.
            assert pairwise_differs > 0

    def test_pairwise_total_decides_a_pick(self):
        # Nine weights whose numpy (pairwise) total is one ulp below their
        # left-to-right sum. Seed 0's first uniform times the numpy total
        # falls below channel 0's cumulative weight, so channel 0 is picked;
        # times the sequential sum it reaches that weight, which would pick
        # channel 1.
        weights = [10.995055988527364] + [0.1 * k + 1.0 / 3.0 for k in range(1, 9)]
        channels = [ChannelId(c, f"c{c}") for c in range(9)]
        lists = [cl(ch, [ch.name]) for ch in channels]
        w = InterleaveWeights(dict(zip(channels, weights)))
        fused = weighted_interleave(lists, w, seed=0)
        assert fused == fusion_oracle.weighted_interleave(lists, w, seed=0)
        assert fused.items[0] == "c0"
        u = np.random.default_rng(0).random()
        sequential = functools.reduce(operator.add, weights)
        assert u * sequential >= np.cumsum(weights)[0] > u * float(np.sum(weights))

    def test_channel_left_with_only_emitted_items(self):
        # Once C0 emits "A", C1's queue holds only emitted items but is still
        # drawn: that draw emits nothing and consumes one random number.
        l0 = cl(C0, ["A", "B", "C", "D"])
        l1 = cl(C1, ["A"])
        l2 = cl(C2, ["X", "Y", "Z"])
        w = InterleaveWeights({C0: 0.3, C1: 0.3, C2: 0.4})
        orders = set()
        for seed in range(300):
            fused = weighted_interleave([l0, l1, l2], w, seed)
            assert fused == fusion_oracle.weighted_interleave([l0, l1, l2], w, seed)
            orders.add(fused.items)
        assert len(orders) > 10

    def test_zero_weight_flush_matches_oracle(self):
        lists = [cl(C0, ["A", "B"]), cl(C1, ["C", "A", "D"]), cl(C2, ["E", "B", "F"])]
        w = InterleaveWeights({C0: 0.0, C1: 1.0 / 3.0, C2: 0.0})
        for seed in range(50):
            fused = weighted_interleave(lists, w, seed)
            assert fused == fusion_oracle.weighted_interleave(lists, w, seed)
            assert fused.items[:3] == ("C", "A", "D")

    def test_block_draws_equal_scalar_draws(self):
        for seed in (0, 1, 7, 12345, 2**32 - 1, 2**63 + 11):
            rng = np.random.default_rng(seed)
            scalars = [rng.random() for _ in range(300)]
            block = np.random.default_rng(seed).random(450)
            assert block[:300].tolist() == scalars


def assert_batch_matches(list_sets, weights, seeds):
    """``weighted_interleave_batch`` equals the one-set call and the oracle, instance by instance.

    ``seeds`` holds one seed list per list set.
    """
    result = weighted_interleave_batch(list_sets, weights, seeds)
    assert len(result) == len(list_sets)
    for lists, w, set_seeds, (items, orders) in zip(list_sets, weights, seeds, result):
        assert orders.shape == (len(set_seeds), len(items))
        for seed, row in zip(set_seeds, orders):
            got = tuple(items[j] for j in row)
            assert got == weighted_interleave(lists, w, seed).items
            assert got == fusion_oracle.weighted_interleave(lists, w, seed).items


class TestWeightedInterleaveBatch:
    """One vectorized pass over many (lists, weights, seed) instances."""

    @pytest.mark.parametrize("batch", range(6))
    def test_random_batches_with_mixed_channel_counts(self, batch):
        rng = np.random.default_rng(2000 + batch)
        cases = [
            random_case(rng, int(rng.choice([1, 2, 3, 4, 8, 9, 12])))
            for _ in range(int(rng.integers(5, 25)))
        ]
        seeds = [int(s) for s in rng.integers(2**32, size=int(rng.integers(1, 8)))]
        assert_batch_matches(
            [c[0] for c in cases], [c[1] for c in cases], [seeds] * len(cases)
        )

    @pytest.mark.parametrize("batch", range(4))
    def test_random_batches_with_per_set_seeds(self, batch):
        # Each set draws 0-5 seeds from a pool of 6, so sets differ in seed
        # count, some have none, and most seeds serve several sets.
        rng = np.random.default_rng(3000 + batch)
        cases = [
            random_case(rng, int(rng.choice([1, 2, 3, 4, 9])))
            for _ in range(int(rng.integers(5, 20)))
        ]
        pool = [int(s) for s in rng.integers(2**32, size=6)]
        seeds = [
            [pool[j] for j in rng.choice(6, size=int(rng.integers(0, 6)), replace=False)]
            for _ in cases
        ]
        assert_batch_matches([c[0] for c in cases], [c[1] for c in cases], seeds)

    def test_seed_counts_differ_per_set(self):
        a = [cl(C0, ["A", "B", "C"]), cl(C1, ["C", "D"])]
        b = [cl(C0, ["X", "Y"], query="q2"), cl(C2, ["Y", "Z", "X"], query="q2")]
        w = InterleaveWeights({C0: 0.6, C1: 0.3, C2: 0.1})
        seeds = [[5, 6, 7], [], [8]]
        result = weighted_interleave_batch([a, b, a], [w, w, w], seeds)
        assert [orders.shape for _, orders in result] == [(3, 4), (0, 3), (1, 4)]
        assert_batch_matches([a, b, a], [w, w, w], seeds)

    def test_one_seed_shared_by_many_sets(self):
        rng = np.random.default_rng(4000)
        cases = [random_case(rng, 3) for _ in range(30)]
        lists, weights = [c[0] for c in cases], [c[1] for c in cases]
        assert_batch_matches(lists, weights, [[2**63 + 11]] * len(cases))
        # A shared seed's uniforms are the ones a set alone would read.
        shared = weighted_interleave_batch(lists, weights, [[7]] * len(cases))
        for k, (items, orders) in enumerate(shared):
            alone_items, alone = weighted_interleave_batch([lists[k]], [weights[k]], [[7]])[0]
            assert items == alone_items and (orders == alone).all()

    def test_pairwise_total_beside_other_sets(self):
        # The nine-channel set of test_pairwise_total_decides_a_pick, batched
        # with sets of fewer channels whose totals are sequential sums.
        weights = [10.995055988527364] + [0.1 * k + 1.0 / 3.0 for k in range(1, 9)]
        channels = [ChannelId(c, f"c{c}") for c in range(9)]
        nine = [cl(ch, [ch.name, "shared"]) for ch in channels]
        w9 = InterleaveWeights(dict(zip(channels, weights)))
        two = [cl(C0, ["A", "B"]), cl(C1, ["B", "C"])]
        w2 = InterleaveWeights({C0: 1.0, C1: 1.0 / 3.0})
        result = weighted_interleave_batch([nine, two, nine], [w9, w2, w9], [[0, 1, 2]] * 3)
        items, orders = result[0]
        assert items[orders[0][0]] == "c0"
        assert_batch_matches([nine, two, nine], [w9, w2, w9], [[0, 1, 2, 3]] * 3)

    def test_zero_weight_flush_and_duplicates(self):
        flush = [cl(C0, ["A", "B"]), cl(C1, ["C", "A", "D"]), cl(C2, ["E", "B", "F"])]
        w_flush = InterleaveWeights({C0: 0.0, C1: 1.0 / 3.0, C2: 0.0})
        # Only zero-weight channels are served: flushed before any draw.
        only_zero = [cl(C0, ["A", "B"]), cl(C2, ["B", "C"])]
        w_zero = InterleaveWeights({C0: 0.0, C1: 1.0, C2: 0.0})
        same = [cl(C0, ["A", "B", "C"]), cl(C1, ["A", "B", "C"]), cl(C2, ["C", "B", "A"])]
        w_same = InterleaveWeights({C0: 0.3, C1: 0.3, C2: 0.4})
        assert_batch_matches(
            [flush, only_zero, same], [w_flush, w_zero, w_same], [list(range(40))] * 3
        )
        items, orders = weighted_interleave_batch([only_zero], [w_zero], [[7]])[0]
        assert tuple(items[j] for j in orders[0]) == ("A", "B", "C")

    def test_empty_sets_and_lists(self):
        empty_list = ChannelList(C1, "q1", ())
        lists = [cl(C0, ["A", "B"]), empty_list]
        w = InterleaveWeights({C0: 1.0, C1: 1.0})
        result = weighted_interleave_batch(
            [[], lists, [empty_list]], [w, w, w], [[3, 4]] * 3
        )
        assert result[0][0] == () and result[0][1].shape == (2, 0)
        assert result[2][0] == () and result[2][1].shape == (2, 0)
        assert_batch_matches([[], lists, [empty_list]], [w, w, w], [[3, 4]] * 3)
        assert weighted_interleave_batch([], [], []) == []
        items, orders = weighted_interleave_batch([lists], [w], [[]])[0]
        assert items == ("A", "B") and orders.shape == (0, 2)

    def test_inputs_checked_like_the_loop(self):
        w = InterleaveWeights({C0: 1.0})
        with pytest.raises(ValueError, match="no weight"):
            weighted_interleave_batch([[cl(C0, ["A"]), cl(C1, ["B"])]], [w], [[0]])
        with pytest.raises(ValueError, match="mixed query"):
            weighted_interleave_batch(
                [[cl(C0, ["A"]), cl(C0, ["B"], query="q2")]], [w], [[0]]
            )
        with pytest.raises(ValueError, match="duplicate channel 'lexical'"):
            weighted_interleave_batch([[cl(C0, ["A"]), cl(C0, ["B"])]], [w], [[0]])
        with pytest.raises(ValueError, match="1 list sets but 2 weight maps"):
            weighted_interleave_batch([[cl(C0, ["A"])]], [w, w], [[0]])
        with pytest.raises(ValueError, match="1 list sets but 2 seed lists"):
            weighted_interleave_batch([[cl(C0, ["A"])]], [w], [[0], [1]])


class TestFusedList:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            FusedList(query="q", items=("A", "A"))

    def test_rejects_increasing_scores(self):
        with pytest.raises(ValueError, match="non-increasing"):
            FusedList(query="q", items=("A", "B"), scores=(0.1, 0.2))
