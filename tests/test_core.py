import itertools
import re

import numpy as np
import pytest

from channelrank.core import (
    ChannelId,
    ChannelList,
    TruncationConfig,
    merge_pool,
    read_channel_lists,
    truncate,
    write_channel_lists,
)
from tests.pool_oracle import pool_provenance, reference_provenance

C0 = ChannelId(0, "lexical")
C1 = ChannelId(1, "semantic")
C2 = ChannelId(2, "trending")


def cl(channel, pairs, query="q1"):
    return ChannelList.from_pairs(channel, query, pairs)


def random_lists(rng, channels, universe=12, max_len=8):
    """Lists over a small shared universe, with tied scores and both zeros."""
    values = [1.5, 0.5, 0.0, -0.0, -0.25, 2.0]
    out = []
    for channel in channels:
        size = int(rng.integers(0, max_len + 1))
        picks = rng.choice(universe, size=size, replace=False)
        out.append(cl(channel, [(f"i{p:02d}", values[int(rng.integers(len(values)))])
                                for p in picks]))
    return out


class TestChannelList:
    def test_from_pairs_sorts_desc_with_item_tiebreak(self):
        lst = cl(C0, [("B", 0.5), ("A", 0.9), ("D", 0.5), ("C", 0.1)])
        assert lst.items == ("A", "B", "D", "C")

    def test_rejects_duplicate_items(self):
        with pytest.raises(ValueError, match="duplicate"):
            cl(C0, [("A", 0.9), ("A", 0.5)])

    def test_rejects_non_finite_scores(self):
        with pytest.raises(ValueError, match="non-finite"):
            cl(C0, [("A", float("nan"))])
        with pytest.raises(ValueError, match="non-finite"):
            cl(C0, [("A", float("inf"))])

    def test_rejects_unsorted_entries(self):
        with pytest.raises(ValueError, match="sorted"):
            ChannelList(channel=C0, query="q1", entries=(("A", 0.1), ("B", 0.9)))

    def test_from_pairs_matches_negated_score_key_order(self):
        rng = np.random.default_rng(3)
        values = [1.0, 0.5, 0.0, -0.0, -2.0]
        for _ in range(300):
            size = int(rng.integers(0, 12))
            items = rng.choice(40, size=size, replace=False)
            pairs = [(f"i{i}", values[int(rng.integers(len(values)))]) for i in items]
            expected = sorted(pairs, key=lambda e: (-e[1], e[0]))
            entries = cl(C0, pairs).entries
            assert entries == tuple(expected)
            # Equal scores compare equal, so also pin the sign of each zero.
            assert [repr(s) for _, s in entries] == [repr(s) for _, s in expected]

    @pytest.mark.parametrize(
        "entries, message",
        [((("A", 0.9), ("", 0.5)), "item id must be non-empty"),
         ((("A", 0.9), ("B", float("nan"))), "non-finite score nan for item 'B'"),
         ((("A", 0.9), ("B", float("-inf"))), "non-finite score -inf for item 'B'"),
         ((("A", 0.9), ("A", 0.5)), "duplicate item 'A' in channel list"),
         ((("A", 0.9), ("B", 0.5), ("A", 0.7)), "duplicate item 'A' in channel list"),
         ((("B", 0.5), ("A", 0.5)), "entries must be sorted"),
         ((("A", 0.5), ("B", 0.9), ("", 1.0)), "entries must be sorted"),
         ((("A", 0.5), ("", float("nan"))), "item id must be non-empty"),
         ((("A", 0.9), ("B", 0.9), ("B", 0.1)), "duplicate item 'B' in channel list")],
        ids=["empty-item", "nan", "-inf", "duplicate", "later-duplicate", "tie-order",
             "unsorted-before-empty", "empty-before-nan", "duplicate-before-unsorted"],
    )
    def test_names_the_first_fault(self, entries, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            ChannelList(channel=C0, query="q1", entries=entries)

    def test_zeros_of_either_sign_tie(self):
        lst = ChannelList(channel=C0, query="q1", entries=(("A", 0.0), ("B", -0.0), ("C", 0.0)))
        assert lst.items == ("A", "B", "C")
        with pytest.raises(ValueError, match="sorted"):
            ChannelList(channel=C0, query="q1", entries=(("B", -0.0), ("A", 0.0)))


class TestTruncate:
    def test_prefix_of_sorted_list(self):
        lst = cl(C0, [("A", 0.9), ("B", 0.5), ("C", 0.1)])
        assert truncate(lst, 2).entries == (("A", 0.9), ("B", 0.5))

    def test_n_exceeding_length_returns_all(self):
        lst = cl(C0, [("A", 0.9)])
        assert truncate(lst, 5).entries == (("A", 0.9),)

    def test_empty_input(self):
        lst = cl(C0, [])
        assert truncate(lst, 3).entries == ()


class TestMergePool:
    def test_single_channel_identity(self):
        lst = cl(C0, [("A", 0.9), ("B", 0.5)])
        pool = merge_pool([lst], TruncationConfig.uniform([C0], 2))
        assert pool.items == ("A", "B")
        hits = pool_provenance(pool)
        (hit_a,) = hits["A"]
        assert (hit_a.channel, hit_a.rank, hit_a.score) == (C0, 1, 0.9)
        (hit_b,) = hits["B"]
        assert (hit_b.channel, hit_b.rank, hit_b.score) == (C0, 2, 0.5)

    def test_overlap_union(self):
        l0 = cl(C0, [("A", 0.9), ("B", 0.5)])
        l1 = cl(C1, [("B", 0.8), ("C", 0.2)])
        pool = merge_pool([l0, l1], TruncationConfig.uniform([C0, C1], 2))
        assert pool.items == ("A", "B", "C")
        hits = pool_provenance(pool)["B"]
        assert {(h.channel, h.rank) for h in hits} == {(C0, 2), (C1, 1)}

    def test_truncation_then_union(self):
        l0 = cl(C0, [("A", 0.9), ("B", 0.5), ("C", 0.1)])
        l1 = cl(C1, [("C", 0.7)])
        cfg = TruncationConfig(per_channel_n={C0: 1, C1: 1})
        pool = merge_pool([l0, l1], cfg)
        assert pool.items == ("A", "C")

    def test_mixed_queries_rejected(self):
        l0 = cl(C0, [("A", 0.9)], query="q1")
        l1 = cl(C1, [("B", 0.9)], query="q2")
        with pytest.raises(ValueError, match="mixed query"):
            merge_pool([l0, l1], TruncationConfig.uniform([C0, C1], 5))

    def test_duplicate_channel_rejected(self):
        l0 = cl(C0, [("A", 0.9)])
        l1 = cl(C0, [("B", 0.9)])
        with pytest.raises(ValueError, match="duplicate channel"):
            merge_pool([l0, l1], TruncationConfig.uniform([C0], 5))

    def test_no_lists_give_an_empty_pool(self):
        pool = merge_pool([], TruncationConfig({}))
        assert pool.query == "" and pool.items == () and pool.channels == ()
        assert len(pool) == 0 and pool.hit_row.size == 0 and pool_provenance(pool) == {}

    def test_whole_budget_keeps_every_list_whole(self):
        long = cl(C0, [(f"i{j}", 1.0 - 0.01 * j) for j in range(7)])
        short = cl(C1, [("i3", 0.5)])
        empty = cl(C2, [])
        cfg = TruncationConfig.whole([long, short, empty])
        assert cfg.per_channel_n == {C0: 7, C1: 1, C2: 1}
        pool = merge_pool([long, short, empty], cfg)
        assert pool.items == long.items and pool.channels == (C0, C1, C2)
        assert pool.hit_rank.tolist() == [*range(1, 8), 1]

    @pytest.mark.parametrize("n", [0, -1])
    def test_budget_below_one_rejected(self, n):
        per_channel_n = {C0: 2, C1: 2}
        cfg = TruncationConfig(per_channel_n=per_channel_n)
        per_channel_n[C1] = n  # the config keeps the caller's mapping
        lists = [cl(C0, [("A", 0.9)]), cl(C1, [("B", 0.9), ("C", 0.5)])]
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            merge_pool(lists, cfg)

    def test_list_without_a_budget_rejected(self):
        lists = [cl(C1, [("A", 0.9)])]
        with pytest.raises(ValueError, match="^no budget for channel 'semantic'$"):
            merge_pool(lists, TruncationConfig.uniform([C0], 3))

    def test_pool_size_bound_and_disjoint_equality(self):
        l0 = cl(C0, [("A", 0.9), ("B", 0.5)])
        l1 = cl(C1, [("C", 0.8), ("D", 0.2)])
        cfg = TruncationConfig.uniform([C0, C1], 2)
        pool = merge_pool([l0, l1], cfg)
        assert len(pool) == 4  # disjoint: equality with the sum of mins

        l1_overlap = cl(C1, [("A", 0.8), ("D", 0.2)])
        pool2 = merge_pool([l0, l1_overlap], cfg)
        assert len(pool2) < 4

    def test_order_insensitive_in_channel_argument(self):
        l0 = cl(C0, [("A", 0.9), ("B", 0.5)])
        l1 = cl(C1, [("B", 0.8), ("C", 0.2)])
        l2 = cl(C2, [("A", 0.7)])
        cfg = TruncationConfig.uniform([C0, C1, C2], 2)
        pools = [
            merge_pool(list(perm), cfg)
            for perm in itertools.permutations([l0, l1, l2])
        ]
        first = pools[0]
        for pool in pools[1:]:
            assert pool.items == first.items
            assert pool_provenance(pool) == pool_provenance(first)

    def test_provenance_matches_truncated_positions_exactly(self):
        l0 = cl(C0, [("A", 0.9), ("B", 0.5), ("C", 0.4), ("D", 0.3)])
        cfg = TruncationConfig.uniform([C0], 3)
        pool = merge_pool([l0], cfg)
        truncated = truncate(l0, 3)
        hits = pool_provenance(pool)
        for rank, (item, score) in enumerate(truncated.entries, start=1):
            (hit,) = hits[item]
            assert hit.rank == rank
            assert hit.score == score
        assert "D" not in pool.items


class TestPoolLayout:
    def test_arrays_follow_the_lists_for_every_input_order(self):
        rng = np.random.default_rng(11)
        channels = [ChannelId(i, name) for i, name in
                    ((0, "lexical"), (2, "semantic"), (5, "trending"), (6, "seasonal"))]
        for _ in range(40):
            lists = random_lists(rng, channels)
            cfg = TruncationConfig(per_channel_n={c: int(rng.integers(1, 7)) for c in channels})
            expected = reference_provenance(lists, cfg)
            for perm in itertools.permutations(lists):
                pool = merge_pool(list(perm), cfg)
                assert list(pool.items) == sorted(expected)
                assert pool.channels == tuple(channels)
                kept = [lst.entries[: cfg.n_for(lst.channel)] for lst in lists]
                assert pool.hit_channel.tolist() == [
                    c for c, entries in enumerate(kept) for _ in entries
                ]
                assert pool.hit_rank.tolist() == [
                    r for entries in kept for r in range(1, len(entries) + 1)
                ]
                assert [pool.items[r] for r in pool.hit_row] == [
                    item for entries in kept for item, _ in entries
                ]
                scores = [score for entries in kept for _, score in entries]
                assert pool.hit_score.tobytes() == np.array(scores).tobytes()
                assert pool_provenance(pool) == expected

    def test_arrays_are_read_only(self):
        pool = merge_pool([cl(C0, [("A", 0.9)])], TruncationConfig.uniform([C0], 1))
        for array in (pool.hit_row, pool.hit_channel, pool.hit_rank, pool.hit_score):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_lists_truncated_to_nothing_keep_their_channel(self):
        l0 = cl(C0, [("A", 0.9)])
        l1 = cl(C1, [])
        pool = merge_pool([l1, l0], TruncationConfig.uniform([C0, C1], 3))
        assert pool.channels == (C0, C1)
        assert pool.items == ("A",)
        assert pool.hit_channel.tolist() == [0]


class TestChannelListFile:
    def test_round_trip(self, tmp_path):
        lists = [
            cl(C0, [("A", 0.9), ("B", 0.5)], query="red shoes"),
            cl(C1, [("B", 0.8)], query="red shoes"),
            cl(C0, [("C", 0.7)], query="blue hat"),
        ]
        path = tmp_path / "lists.tsv"
        write_channel_lists(str(path), lists)
        (loaded,), channels = read_channel_lists([str(path)])
        assert channels == (C0, C1)
        assert set(loaded) == {"red shoes", "blue hat"}
        assert loaded["red shoes"][0].entries == (("A", 0.9), ("B", 0.5))
        assert loaded["red shoes"][1].entries == (("B", 0.8),)

    def test_load_sorts_arbitrary_line_order(self, tmp_path):
        path = tmp_path / "lists.tsv"
        path.write_text("q1\tlexical\tB\t0.5\nq1\tlexical\tA\t0.9\n")
        (loaded,), _ = read_channel_lists([str(path)])
        assert loaded["q1"][0].items == ("A", "B")

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "lists.tsv"
        path.write_text("q1\tlexical\tB\n")
        with pytest.raises(ValueError, match="expected 4"):
            read_channel_lists([str(path)])

    @pytest.mark.parametrize(
        "line, message",
        [("q1\tlexical\ti1\tnan", "score 'nan' is not a finite number"),
         ("q1\tlexical\ti1\tinf", "score 'inf' is not a finite number"),
         ("q1\tlexical\ti1\t-inf", "score '-inf' is not a finite number"),
         ("q1\tlexical\ti1\thigh", "score 'high' is not a finite number"),
         ("\tlexical\ti1\t0.5", "empty query id"),
         ("q1\t\ti1\t0.5", "empty channel id"),
         ("q1\tlexical\t\t0.5", "empty item id"),
         ("q1\tlexical\tA\t0.5", "duplicate item 'A' for query 'q1' channel 'lexical'")],
        ids=["nan", "inf", "-inf", "high", "empty-query", "empty-channel", "empty-item",
             "duplicate-item"],
    )
    def test_bad_score_rejected_with_line(self, tmp_path, line, message):
        path = tmp_path / "lists.tsv"
        path.write_text(f"q1\tlexical\tA\t0.9\n{line}\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: {message}")):
            read_channel_lists([str(path)])
