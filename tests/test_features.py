import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channelrank.core import ChannelId, ChannelList, TruncationConfig, merge_pool
from channelrank.dataset import ItemCatalog
from channelrank.features import (
    FeatureColumn,
    FeatureSchema,
    LookbackConfig,
    build_schema,
    channel_columns,
    fill_channel_block,
    item_feature_block,
)
from tests.feature_oracle import (
    assemble_instance,
    engagement_features,
    lookback_aggregates,
    velocity,
)
from channelrank.labeling import WEEK_SECONDS, Action, LabelWeights
from tests.label_oracle import InteractionEvent
from tests.pool_oracle import reference_provenance

C0 = ChannelId(0, "lexical")
C1 = ChannelId(1, "semantic")
C2 = ChannelId(2, "trending")


def ev(week, action, session="s1", query="q", item="i"):
    return InteractionEvent(
        query=query, item=item, session=session, week=week, action=action,
        timestamp=week * WEEK_SECONDS + 5.0,
    )


class TestLookbackAggregates:
    def test_empty(self):
        out = lookback_aggregates([], as_of=4, cfg=LookbackConfig(windows=(1, 4)))
        assert out[1].purchases == 0 and out[4].impressions == 0

    def test_purchase_last_week_in_both_windows(self):
        events = [ev(3, Action.PURCHASE)]
        out = lookback_aggregates(events, as_of=4, cfg=LookbackConfig(windows=(1, 4)))
        assert out[1].purchases == 1
        assert out[4].purchases == 1

    def test_old_purchase_only_in_long_window(self):
        events = [ev(0, Action.PURCHASE)]
        out = lookback_aggregates(events, as_of=4, cfg=LookbackConfig(windows=(1, 4)))
        assert out[1].purchases == 0
        assert out[4].purchases == 1

    def test_future_events_excluded(self):
        events = [ev(4, Action.CLICK), ev(5, Action.CLICK)]
        out = lookback_aggregates(events, as_of=4, cfg=LookbackConfig(windows=(1, 4)))
        assert out[4].clicks == 0

    def test_counts_events_not_sessions(self):
        events = [ev(3, Action.CLICK, session="s1"), ev(3, Action.CLICK, session="s1")]
        out = lookback_aggregates(events, as_of=4, cfg=LookbackConfig(windows=(1,)))
        assert out[1].clicks == 2


class TestVelocity:
    def test_steady_rate(self):
        assert velocity(5, 20, 1, 4) == pytest.approx(1.0, abs=1e-5)

    def test_zero_numerator(self):
        assert velocity(0, 0, 1, 4) == 0.0

    def test_accelerating(self):
        assert velocity(10, 20, 1, 4) == pytest.approx(2.0, abs=1e-5)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            velocity(1, 1, 0, 4)


class TestEngagementFeatures:
    W = LabelWeights(1.0, 0.25, 0.05, 0.0)
    CFG = LookbackConfig(windows=(1, 4), decay_half_life=2.0)

    def test_no_history_is_zero(self):
        out = engagement_features([], as_of=3, weights=self.W, cfg=self.CFG)
        assert out == {1: 0.0, 4: 0.0}

    def test_half_life_identity(self):
        events = [ev(2, Action.PURCHASE)]
        out = engagement_features(events, as_of=4, weights=self.W, cfg=self.CFG)
        assert out[4] == pytest.approx(0.5, abs=1e-12)

    def test_two_session_hand_case(self):
        events = [
            ev(3, Action.PURCHASE, session="s1"),
            ev(2, Action.CLICK, session="s2"),
        ]
        out = engagement_features(events, as_of=4, weights=self.W, cfg=self.CFG)
        expected = 1.0 * 2 ** (-0.5) + 0.05 * 2 ** (-1.0)
        assert out[4] == pytest.approx(expected, abs=1e-6)
        assert out[4] == pytest.approx(0.732107, abs=1e-6)
        # Window 1 only sees the purchase session.
        assert out[1] == pytest.approx(2 ** (-0.5), abs=1e-12)

    def test_deepest_action_per_session(self):
        events = [
            ev(3, Action.IMPRESSION, session="s1"),
            ev(3, Action.CLICK, session="s1"),
            ev(3, Action.PURCHASE, session="s1"),
        ]
        out = engagement_features(events, as_of=4, weights=self.W, cfg=self.CFG)
        assert out[1] == pytest.approx(1.0 * 2 ** (-0.5), abs=1e-12)

    def test_monotone_in_added_events_and_window_locality(self):
        base = [ev(3, Action.CLICK, session="s1")]
        cfg = LookbackConfig(windows=(1, 2), decay_half_life=2.0)
        before = engagement_features(base, as_of=4, weights=self.W, cfg=cfg)
        more = base + [ev(3, Action.ADD_TO_CART, session="s2")]
        after = engagement_features(more, as_of=4, weights=self.W, cfg=cfg)
        assert after[1] >= before[1] and after[2] >= before[2]
        outside = more + [ev(0, Action.PURCHASE, session="s3")]
        unchanged = engagement_features(outside, as_of=4, weights=self.W, cfg=cfg)
        assert unchanged == after


class TestSchema:
    def test_build_schema_layout(self):
        schema = build_schema([C0, C1], LookbackConfig(windows=(1, 4)))
        names = schema.names
        assert "item_price" in names
        assert "ch_lexical_score" in names and "ch_semantic_rank" in names
        assert "qi_engagement_w4" in names
        assert len(set(names)) == len(names)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FeatureSchema(
                columns=(
                    FeatureColumn("x", "numeric", "item"),
                    FeatureColumn("x", "numeric", "item"),
                )
            )

    def test_json_round_trip(self):
        schema = build_schema([C0], LookbackConfig())
        assert FeatureSchema.from_json(schema.to_json()) == schema

    def test_drop_group(self):
        schema = build_schema([C0], LookbackConfig())
        masked = schema.drop_group("engagement")
        assert all(c.group != "engagement" for c in masked.columns)
        assert len(masked) < len(schema)


class TestAssembleInstance:
    def setup_method(self):
        self.schema = build_schema([C0, C1, C2], LookbackConfig(windows=(1, 4)))
        lists = [
            ChannelList.from_pairs(C0, "q", [("A", 0.9), ("B", 0.4)]),
            ChannelList.from_pairs(C1, "q", [("B", 0.8)]),
            ChannelList.from_pairs(C2, "q", [("B", 0.7), ("C", 0.2)]),
        ]
        cfg = TruncationConfig.uniform([C0, C1, C2], 5)
        self.pool = merge_pool(lists, cfg)
        self.hits = reference_provenance(lists, cfg)
        self.item_values = {
            "item_price": 19.99,
            "item_category": 3,
            "item_age_weeks": 12,
            **{
                f"item_{stat}_w{w}": 0.0
                for w in (1, 4)
                for stat in ("impressions", "clicks", "atcs", "purchases")
            },
            "item_click_velocity": 0.0,
            "item_purchase_velocity": 0.0,
        }

    def test_partial_channel_coverage_leaves_na(self):
        vec = assemble_instance(self.schema, self.hits, "A", self.item_values)
        assert vec[self.schema.index_of("ch_lexical_score")] == 0.9
        assert vec[self.schema.index_of("ch_lexical_rank")] == 1.0
        assert math.isnan(vec[self.schema.index_of("ch_semantic_score")])
        assert math.isnan(vec[self.schema.index_of("ch_trending_rank")])
        assert vec[self.schema.index_of("ch_hit_count")] == 1.0

    def test_full_channel_coverage_has_no_missing_channels(self):
        vec = assemble_instance(self.schema, self.hits, "B", self.item_values)
        channel_mask = self.schema.group_mask("channel")
        assert not np.isnan(vec[channel_mask]).any()
        assert vec[self.schema.index_of("ch_hit_count")] == 3.0

    def test_static_values_identical_across_weeks(self):
        v3 = assemble_instance(self.schema, self.hits, "A", self.item_values)
        v4 = assemble_instance(self.schema, self.hits, "A", self.item_values)
        i = self.schema.index_of("item_price")
        assert v3[i] == v4[i] == 19.99

    def test_item_group_never_missing(self):
        vec = assemble_instance(self.schema, self.hits, "C", self.item_values)
        item_mask = self.schema.group_mask("item")
        assert not np.isnan(vec[item_mask]).any()

    def test_engagement_values_fill_when_present(self):
        vec = assemble_instance(
            self.schema, self.hits, "A", self.item_values,
            engagement_values={"qi_engagement_w1": 0.75},
        )
        assert vec[self.schema.index_of("qi_engagement_w1")] == 0.75
        assert math.isnan(vec[self.schema.index_of("qi_engagement_w4")])

    def test_item_not_in_pool_rejected(self):
        with pytest.raises(ValueError, match="not in candidate pool"):
            assemble_instance(self.schema, self.hits, "Z", self.item_values)

    def test_channel_scores_match_provenance_exactly(self):
        vec = assemble_instance(self.schema, self.hits, "B", self.item_values)
        for hit in self.hits["B"]:
            score_col, rank_col = channel_columns(hit.channel.name)
            assert vec[self.schema.index_of(score_col)] == hit.score
            assert vec[self.schema.index_of(rank_col)] == hit.rank


class TestChannelBlock:
    setup_method = TestAssembleInstance.setup_method

    def test_rows_equal_scalar_assembly(self):
        items = self.pool.items
        assert list(items) == list(self.hits)
        X = np.full((len(items), len(self.schema)), np.nan)
        fill_channel_block(X, self.schema, self.pool)
        channel_mask = self.schema.group_mask("channel")
        for r, item in enumerate(items):
            expected = assemble_instance(self.schema, self.hits, item, self.item_values)
            np.testing.assert_array_equal(X[r, channel_mask], expected[channel_mask])
        assert np.isnan(X[:, ~channel_mask]).all()

    @settings(deadline=None)
    @given(data=st.data())
    def test_rows_equal_scalar_assembly_on_random_pools(self, data):
        # Any non-empty subset of the schema's channels, in any order, with
        # overlapping items, tied scores, zeros of both signs and truncation.
        channels = data.draw(
            st.lists(st.sampled_from([C0, C1, C2]), min_size=1, max_size=3, unique=True)
        )
        lists = []
        for channel in channels:
            items = data.draw(st.lists(st.sampled_from("ABCDEFGH"), max_size=8, unique=True))
            scores = data.draw(st.lists(
                st.sampled_from([2.0, 0.5, 0.0, -0.0, -1.5]),
                min_size=len(items), max_size=len(items),
            ))
            lists.append(ChannelList.from_pairs(channel, "q", zip(items, scores)))
        cfg = TruncationConfig(per_channel_n={c: data.draw(st.integers(1, 5)) for c in channels})
        pool = merge_pool(lists, cfg)
        hits = reference_provenance(lists, cfg)
        assert list(pool.items) == list(hits)
        X = np.full((len(pool), len(self.schema)), np.nan)
        fill_channel_block(X, self.schema, pool)
        channel_mask = self.schema.group_mask("channel")
        for r, item in enumerate(pool.items):
            expected = assemble_instance(self.schema, hits, item, self.item_values)
            assert X[r, channel_mask].tobytes() == expected[channel_mask].tobytes()
        assert np.isnan(X[:, ~channel_mask]).all()

    def test_schema_names_its_channels_in_column_order(self):
        assert self.schema.channel_names == ("lexical", "semantic", "trending")
        no_engagement = self.schema.drop_group("engagement")
        assert no_engagement.channel_names == self.schema.channel_names


class TestItemFeatureBlock:
    def test_unknown_item_column_is_an_error(self):
        catalog = ItemCatalog(("a", "b"), np.array([1.0, 2.0]),
                              np.array([0, 1]), np.array([0, 0]))
        lookback = LookbackConfig(windows=(1,))
        schema = FeatureSchema(columns=(
            FeatureColumn("item_price", "numeric", "item"),
            FeatureColumn("item_colour", "categorical", "item"),
        ))
        with pytest.raises(ValueError, match="item_colour"):
            item_feature_block(schema, lookback, np.zeros((2, 3, 4)), catalog,
                               np.arange(2), 2)

    def test_columns_follow_the_schema(self):
        catalog = ItemCatalog(("a", "b"), np.array([1.5, 2.5]),
                              np.array([3, 4]), np.array([0, 1]))
        lookback = LookbackConfig(windows=(1,))
        schema = FeatureSchema(columns=(
            FeatureColumn("item_age_weeks", "numeric", "item"),
            FeatureColumn("ch_x_score", "numeric", "channel"),
            FeatureColumn("item_price", "numeric", "item"),
        ))
        block = item_feature_block(schema, lookback, np.zeros((2, 3, 4)), catalog,
                                   np.array([1, 0]), 2)
        np.testing.assert_array_equal(block, [[1.0, 2.5], [2.0, 1.5]])


    @settings(deadline=None)
    @given(data=st.data())
    def test_per_row_weeks_equal_per_row_scalar_calls(self, data):
        # Weeks before, at and after each window's reach, with week 0.
        n_items = data.draw(st.integers(1, 5))
        num_weeks = data.draw(st.integers(1, 7))
        raw = data.draw(st.lists(
            st.integers(0, 3), min_size=n_items * num_weeks * 4,
            max_size=n_items * num_weeks * 4,
        ))
        counts = np.cumsum(np.array(raw, dtype=np.float64).reshape(n_items, num_weeks, 4), axis=1)
        windows = tuple(sorted(data.draw(st.sets(st.integers(1, 6), min_size=1, max_size=3))))
        lookback = LookbackConfig(windows=windows)
        catalog = ItemCatalog(
            tuple(f"i{i}" for i in range(n_items)), np.linspace(1.0, 2.0, n_items),
            np.arange(n_items), np.arange(n_items) % 3,
        )
        schema = build_schema([C0], lookback)
        rows = data.draw(st.integers(0, 8))
        items = np.array(data.draw(st.lists(
            st.integers(0, n_items - 1), min_size=rows, max_size=rows)), dtype=np.int64)
        weeks = np.array(data.draw(st.lists(
            st.integers(0, num_weeks), min_size=rows, max_size=rows)), dtype=np.int64)
        block = item_feature_block(schema, lookback, counts, catalog, items, weeks)
        assert block.shape == (rows, int(schema.group_mask("item").sum()))
        for r in range(rows):
            one = item_feature_block(
                schema, lookback, counts, catalog, items[r:r + 1], int(weeks[r])
            )
            assert block[r:r + 1].tobytes() == one.tobytes()


class TestLookbackConfig:
    def test_rejects_non_increasing_windows(self):
        with pytest.raises(ValueError):
            LookbackConfig(windows=(4, 1))

    def test_rejects_bad_half_life(self):
        with pytest.raises(ValueError):
            LookbackConfig(decay_half_life=0.0)

    @pytest.mark.parametrize("half_life", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_non_finite_or_negative_half_life(self, half_life):
        # A NaN half-life used to pass and turn engagement cells into NaN.
        with pytest.raises(ValueError, match="decay_half_life must be finite and > 0"):
            LookbackConfig(decay_half_life=half_life)
