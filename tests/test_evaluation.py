import json
import re

import numpy as np
import pytest

from channelrank.core import ChannelList, TruncationConfig, truncate
from channelrank.dataset import build_dataset
from channelrank.evaluation import (
    AblationConfig,
    Ranker,
    WIRanker,
    ablation_run,
    build_eval_groups,
    evaluate_variant,
)
from channelrank.gbdt.model import TrainParams
from channelrank.metrics import MetricConfig, ndcg_at_k, order_from_scores, purchase_ndcg_at_k
from channelrank.synthgen import WorldConfig, filter_and_split, generate
from tests.eval_oracle import RRFRanker, pool_lists, string_wi_orders

CFG = WorldConfig(
    num_queries=40, num_items=400, universe_size=20, per_channel_n=10,
    sessions_mean=25.0, seed=5,
)


@pytest.fixture(scope="module")
def world():
    return generate(CFG)


@pytest.fixture(scope="module")
def split(world):
    return filter_and_split(world.events, CFG.num_weeks)


@pytest.fixture(scope="module")
def dataset(world, split):
    catalog = world.ground_truth.catalog
    trunc = TruncationConfig.uniform(world.channels, CFG.per_channel_n)
    return build_dataset(
        world.events, world.channel_lists, catalog, world.channels,
        split.all_keys(), trunc,
    )


@pytest.fixture(scope="module")
def groups(dataset, world, split):
    return build_eval_groups(dataset, world.channel_lists, split.test)


class OracleRanker(Ranker):
    """Sorts by the true labels; the attainable upper bound."""

    name = "oracle"

    def orders(self, groups):
        return [[order_from_scores(group.labels)] for group in groups]


class _FixedOrder(Ranker):
    def __init__(self, reverse=False):
        self.name = "fixed-rev" if reverse else "fixed"
        self.reverse = reverse

    def orders(self, groups):
        out = []
        for group in groups:
            order = np.arange(len(group.pool))
            out.append([order[::-1] if self.reverse else order])
        return out


class _RelevanceOracle(Ranker):
    """Ranks by the generator's latent relevance (test-only)."""

    name = "latent-relevance"

    def __init__(self, ground_truth):
        self.gt = ground_truth
        self.q_index = {q: i for i, q in enumerate(ground_truth.query_vocab)}
        self.i_index = {item: i for i, item in enumerate(ground_truth.catalog.item_vocab)}

    def orders(self, groups):
        out = []
        for group in groups:
            q = self.q_index[group.query]
            uni = {int(code): u for u, code in enumerate(self.gt.universe[q])}
            rel = np.array(
                [
                    self.gt.relevance[q, uni[self.i_index[item]], group.week]
                    for item in group.pool.items
                ]
            )
            out.append([np.lexsort((np.arange(len(rel)), -rel))])
        return out


class _ChannelOrder(Ranker):
    """One channel's own ranking; pool items the channel missed go last."""

    def __init__(self, channel_index):
        self.name = f"channel{channel_index}"
        self.channel_index = channel_index

    def orders(self, groups):
        out = []
        for group in groups:
            pool = group.pool
            ranked = pool.hit_row[pool.hit_channel == self.channel_index].tolist()
            rest = sorted(set(range(len(pool))) - set(ranked))
            out.append([np.array(ranked + rest, dtype=np.intp)])
        return out


class TestEvaluateVariant:
    def test_oracle_scores_one_on_label_bearing_groups(self, groups):
        result = evaluate_variant(OracleRanker(), groups, MetricConfig(k=8))
        assert result.group_count == len(groups)
        labeled = [g for g in groups if g.labels.any()]
        for g in labeled:
            order = order_from_scores(g.labels)
            assert ndcg_at_k(g.labels, order, 8) == pytest.approx(1.0)
        expected_mean = len(labeled) / len(groups)
        assert result.mean_ndcg == pytest.approx(expected_mean, abs=1e-9)

    def test_order_sensitivity(self, groups):
        fwd = evaluate_variant(_FixedOrder(), groups, MetricConfig(k=8))
        rev = evaluate_variant(_FixedOrder(reverse=True), groups, MetricConfig(k=8))
        assert fwd.mean_ndcg != rev.mean_ndcg

    def test_deterministic(self, groups):
        ranker = WIRanker(seeds=tuple(range(5)))
        r1 = evaluate_variant(ranker, groups, MetricConfig(k=8))
        r2 = evaluate_variant(ranker, groups, MetricConfig(k=8))
        assert r1 == r2
        assert r1.n_orders == 5

    def test_empty_eval_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            evaluate_variant(OracleRanker(), [], MetricConfig())

    def test_scores_are_means_of_metrics_ndcgs(self, groups):
        # The report's numbers are ndcg_at_k and purchase_ndcg_at_k, bit for bit.
        ranker = WIRanker(seeds=tuple(range(4)))
        stacks = ranker.orders(groups)
        result = evaluate_variant(ranker, groups, MetricConfig(k=8))
        ndcg = [np.mean(ndcg_at_k(g.labels, s, 8)) for g, s in zip(groups, stacks)]
        purchase = [np.mean(purchase_ndcg_at_k(g.purchases, s, 8)) for g, s in zip(groups, stacks)]
        assert result.mean_ndcg == float(np.mean(ndcg))
        assert result.mean_purchase_ndcg == float(np.mean(purchase))

    def test_wi_orders_are_one_stack_per_group(self, groups):
        for group, stack in zip(groups, WIRanker(seeds=(0, 1, 2)).orders(groups)):
            assert stack.shape == (3, len(group.pool))
            assert stack.dtype == np.intp

    @pytest.mark.parametrize("keys", ["test", "all"])
    def test_wi_orders_equal_string_interleaving_bit_for_bit(
        self, dataset, world, split, groups, keys
    ):
        # The parent's path: truncated raw lists, item strings, a dict back to rows.
        if keys == "all":
            groups = build_eval_groups(dataset, world.channel_lists, split.all_keys())
        seeds = tuple(range(20))
        got = WIRanker(seeds=seeds).orders(groups)
        want = string_wi_orders(groups, world.channel_lists, dataset.truncation, seeds)
        assert len(got) == len(want) == len(groups)
        for stack, expected in zip(got, want):
            assert stack.dtype == expected.dtype and stack.shape == expected.shape
            assert stack.tobytes() == expected.tobytes()

    def test_pool_lists_are_the_truncated_channel_lists(self, dataset, world, groups):
        for group in groups:
            lists = sorted(
                world.channel_lists[group.week][group.query], key=lambda c: c.channel.index
            )
            assert pool_lists(group.pool) == [
                truncate(cl, dataset.truncation.n_for(cl.channel)) for cl in lists
            ]

    def test_rrf_ranker_runs(self, groups):
        result = evaluate_variant(RRFRanker(), groups, MetricConfig(k=8))
        assert 0.0 < result.mean_ndcg <= 1.0

    def test_relevance_order_beats_every_single_channel(self, world, groups):
        cfg = MetricConfig(k=8)
        rel = evaluate_variant(_RelevanceOracle(world.ground_truth), groups, cfg)
        for c in range(CFG.num_channels):
            single = evaluate_variant(_ChannelOrder(c), groups, cfg)
            assert rel.mean_ndcg > single.mean_ndcg


@pytest.fixture(scope="module")
def report(dataset, world, split):
    cfg = AblationConfig(
        train_params=TrainParams(
            num_trees=25, shrinkage=0.2, max_depth=4,
            min_examples_per_leaf=5, seed=3,
        ),
        wi_seeds=5,
    )
    return ablation_run(dataset, world.channel_lists, split, cfg)


class TestAblationRun:
    def test_exactly_four_variants_in_ladder_order(self, report):
        assert [v.name for v in report.variants] == ["WI", "UR", "UR+EF", "UR+EF+CL"]

    def test_deltas_consistent(self, report):
        ur = report.variant("UR").mean_ndcg
        wi = report.variant("WI").mean_ndcg
        assert report.deltas["UR-WI"] == pytest.approx(ur - wi)

    def test_group_counts_equal_across_variants(self, report):
        counts = {v.group_count for v in report.variants}
        assert len(counts) == 1

    def test_learned_variants_beat_wi_even_at_toy_scale(self, report):
        assert report.variant("UR").mean_ndcg > report.variant("WI").mean_ndcg

    def test_report_serializes(self, report):
        text = report.render_text()
        assert "UR+EF+CL" in text
        payload = report.to_json()
        assert "dataset_fingerprint" in payload

    def test_variant_records_keep_field_order(self, report):
        payload = json.loads(report.to_json())
        for record in payload["variants"]:
            assert list(record) == [
                "name", "mean_ndcg", "mean_purchase_ndcg", "group_count", "quantiles",
                "n_orders", "zero_idcg_groups", "model_fingerprint",
            ]
        assert payload["variants"][0]["model_fingerprint"] is None

    @pytest.mark.parametrize("wi_seeds", [0, -1])
    def test_config_rejects_wi_seeds_below_one(self, wi_seeds):
        with pytest.raises(ValueError, match=f"wi_seeds must be >= 1, got {wi_seeds}"):
            AblationConfig(wi_seeds=wi_seeds)

    @pytest.mark.parametrize("n_threads", [0, -1])
    def test_config_rejects_threads_below_one(self, n_threads):
        with pytest.raises(ValueError, match=f"n_threads must be >= 1, got {n_threads}"):
            AblationConfig(n_threads=n_threads)

    def test_wi_seed_count_recorded(self, report):
        assert report.wi_seeds == 5
        assert report.variant("WI").n_orders == 5

    def test_model_fingerprints_recorded(self, report):
        for name in ("UR", "UR+EF", "UR+EF+CL"):
            assert report.variant(name).model_fingerprint


class TestBuildEvalGroups:
    def test_groups_align_with_dataset_rows(self, dataset, world, split, groups):
        key_set = {(dataset.query_vocab.index(g.query), g.week) for g in groups}
        assert key_set == split.test
        for g in groups:
            assert len(g.pool) == len(g.labels) == len(g.X)
            assert list(g.pool.items) == sorted(g.pool.items)

    def test_unknown_key_rejected(self, dataset, world):
        with pytest.raises(ValueError, match="not materialized"):
            build_eval_groups(dataset, world.channel_lists, [(999, 4)])

    @pytest.mark.parametrize("missing", ["query", "week"])
    def test_missing_lists_rejected_naming_the_group(self, dataset, world, groups, missing):
        group = groups[0]
        lists = {week: dict(by_query) for week, by_query in world.channel_lists.items()}
        if missing == "query":
            del lists[group.week][group.query]
        else:
            del lists[group.week]
        key = (dataset.query_vocab.index(group.query), group.week)
        with pytest.raises(
            ValueError,
            match=re.escape(f"no channel lists for query {group.query!r} week {group.week}"),
        ):
            build_eval_groups(dataset, lists, [key])

    def test_lists_that_miss_a_row_rejected_naming_the_group(self, dataset, world, groups):
        group = groups[0]
        dropped = group.pool.items[0]
        lists = {week: dict(by_query) for week, by_query in world.channel_lists.items()}
        lists[group.week][group.query] = [
            ChannelList(cl.channel, cl.query, tuple(e for e in cl.entries if e[0] != dropped))
            for cl in lists[group.week][group.query]
        ]
        key = (dataset.query_vocab.index(group.query), group.week)
        with pytest.raises(
            ValueError,
            match=re.escape(
                f"query {group.query!r} week {group.week}: pool differs from dataset rows"
            ),
        ):
            build_eval_groups(dataset, lists, [key])


class _Orders(Ranker):
    """Returns the same given orderings for every group."""

    name = "given"

    def __init__(self, orders):
        self.given = orders

    def orders(self, groups):
        return [self.given(len(group.pool)) for group in groups]


class TestRankerOrdersChecked:
    @pytest.mark.parametrize(
        "given",
        [lambda n: [], lambda n: [np.arange(n - 1)], lambda n: [np.zeros(n, dtype=np.intp)],
         lambda n: [np.arange(n), np.arange(n + 1)]],
        ids=["none", "short", "repeats", "ragged"],
    )
    def test_non_permutations_rejected(self, groups, given):
        with pytest.raises(ValueError, match="permutations of range"):
            evaluate_variant(_Orders(given), groups, MetricConfig(k=8))

    def test_float_orders_rejected(self, groups):
        first = groups[0]
        with pytest.raises(
            ValueError,
            match=re.escape(f"group {first.query!r} week {first.week}: ")
            + ".*integer permutations of range",
        ):
            evaluate_variant(_Orders(lambda n: [np.arange(n, dtype=np.float64)]), groups)

    def test_one_orders_list_per_group(self, groups):
        class _Short(Ranker):
            name = "short"

            def orders(self, groups):
                return [[np.arange(len(g.pool))] for g in groups[1:]]

        with pytest.raises(ValueError, match=f"orders for {len(groups) - 1} of {len(groups)}"):
            evaluate_variant(_Short(), groups, MetricConfig(k=8))
