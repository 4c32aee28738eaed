import hashlib

import numpy as np
import pytest

from channelrank.dataset import ItemCatalog
from channelrank.labeling import Action, write_event_log
from channelrank.synthgen import (
    GroundTruth,
    WorldConfig,
    channel_ids,
    filter_and_split,
    generate,
    write_world,
)

SMALL = WorldConfig(
    num_queries=40, num_items=400, universe_size=20, per_channel_n=10,
    sessions_mean=25.0, seed=5,
)


@pytest.fixture(scope="module")
def world():
    return generate(SMALL)


class TestWorldConfig:
    def test_rejects_short_horizon(self):
        with pytest.raises(ValueError, match="num_weeks"):
            WorldConfig(num_weeks=4)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError, match="click_rate"):
            WorldConfig(click_rate=1.5)

    def test_channel_names(self):
        names = [c.name for c in channel_ids(WorldConfig(num_channels=6))]
        assert names[:4] == ["lexical", "semantic", "trending", "seasonal"]
        assert len(set(names)) == 6


class TestGenerate:
    def test_deterministic_byte_identical(self, world, tmp_path):
        again = generate(SMALL)
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        write_event_log(str(a), world.events)
        write_event_log(str(b), again.events)
        assert a.read_bytes() == b.read_bytes()
        for week in world.channel_lists:
            assert world.channel_lists[week] == again.channel_lists[week]

    def test_different_seed_differs(self):
        other = generate(
            WorldConfig(
                num_queries=40, num_items=400, universe_size=20, per_channel_n=10,
                sessions_mean=25.0, seed=6,
            )
        )
        assert len(other.events) != 0
        assert not np.array_equal(
            other.events.timestamp[:200], generate(SMALL).events.timestamp[:200]
        )

    def test_funnel_hierarchy_never_violated(self, world):
        frame = world.events
        key = (
            (frame.session.astype(np.int64) * len(frame.item_vocab)) + frame.item
        )
        stages = {}
        for action in Action:
            stages[action] = set(key[frame.action == int(action)].tolist())
        assert stages[Action.PURCHASE] <= stages[Action.ADD_TO_CART]
        assert stages[Action.ADD_TO_CART] <= stages[Action.CLICK]
        assert stages[Action.CLICK] <= stages[Action.IMPRESSION]

    def test_channel_lists_sorted_and_truncated(self, world):
        for week, by_query in world.channel_lists.items():
            for lists in by_query.values():
                assert len(lists) == SMALL.num_channels
                for cl in lists:
                    assert len(cl) <= SMALL.per_channel_n
                    scores = [s for _, s in cl.entries]
                    assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_corpus_funnel_ordering(self, world):
        frame = world.events
        n_p = int((frame.action == int(Action.PURCHASE)).sum())
        n_a = int((frame.action == int(Action.ADD_TO_CART)).sum())
        n_c = int((frame.action == int(Action.CLICK)).sum())
        assert n_p < n_a < n_c

    def test_zero_concentration_equalizes_channel_quality(self):
        cfg = WorldConfig(
            num_queries=15, num_items=150, universe_size=15, per_channel_n=8,
            sessions_mean=10.0, channel_utility_concentration=0.0, seed=3,
        )
        gt = generate(cfg).ground_truth
        assert float(gt.channel_quality.std(axis=1).max()) == 0.0

        spread = generate(
            WorldConfig(
                num_queries=15, num_items=150, universe_size=15, per_channel_n=8,
                sessions_mean=10.0, channel_utility_concentration=0.7, seed=3,
            )
        ).ground_truth.channel_quality
        assert float(spread.std(axis=1).mean()) > 0.05

    def test_static_world_when_trend_fraction_zero(self):
        cfg = WorldConfig(
            num_queries=10, num_items=100, universe_size=15, per_channel_n=8,
            sessions_mean=10.0, trend_fraction=0.0, seed=9,
        )
        gt = generate(cfg).ground_truth
        # Weekly noise remains, but the deterministic drift component is
        # gone: de-noised relevance is flat across weeks.
        spread = gt.relevance.mean(axis=(0, 1))
        assert np.ptp(spread) < 0.05

    def test_ground_truth_round_trip(self, world, tmp_path):
        path = tmp_path / "gt.npz"
        world.ground_truth.save(str(path))
        loaded = GroundTruth.load(str(path))
        assert loaded.config == SMALL
        np.testing.assert_array_equal(loaded.universe, world.ground_truth.universe)
        np.testing.assert_array_equal(loaded.relevance, world.ground_truth.relevance)
        for gt in (world.ground_truth, loaded):
            assert isinstance(gt.catalog, ItemCatalog)
            assert gt.catalog.item_vocab == world.events.item_vocab
        np.testing.assert_array_equal(loaded.catalog.price, world.ground_truth.catalog.price)
        np.testing.assert_array_equal(loaded.popularity, world.ground_truth.popularity)
        np.testing.assert_array_equal(loaded.conv_quality, world.ground_truth.conv_quality)
        for name in ("query_vocab", "channel_names"):
            assert getattr(loaded, name) == getattr(world.ground_truth, name)
        for words in (loaded.catalog.item_vocab, loaded.query_vocab, loaded.channel_names):
            assert all(type(word) is str for word in words)
        with np.load(str(path), allow_pickle=False) as data:
            assert all(data[name].dtype.kind != "O" for name in data.files)

    def test_ground_truth_object_array_rejected(self, world, tmp_path):
        path = tmp_path / "gt.npz"
        world.ground_truth.save(str(path))
        with np.load(str(path)) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["query_vocab"] = arrays["query_vocab"].astype(object)
        crafted = tmp_path / "crafted.npz"
        np.savez(str(crafted), **arrays)
        with pytest.raises(ValueError, match="allow_pickle"):
            GroundTruth.load(str(crafted))

    def test_write_world_emits_all_files(self, world, tmp_path):
        paths = write_world(world, str(tmp_path / "world"))
        assert "events" in paths and "ground_truth" in paths
        for week in range(SMALL.num_weeks):
            assert f"channel_lists_w{week}" in paths


def event_table_sha256(events) -> str:
    h = hashlib.sha256()
    for name in ("week", "session", "query", "item", "action", "timestamp"):
        col = getattr(events, name)
        h.update(f"{name}:{col.dtype.str}:{col.shape}".encode())
        h.update(col.tobytes())
    for vocab in (events.query_vocab, events.item_vocab):
        h.update("\n".join(vocab).encode())
    return h.hexdigest()


class TestPinnedWorld:
    """The logging policy's presentation order decides every event.

    ``generate`` shows each query's items in a weighted-interleaving order,
    so a change to ``weighted_interleave_batch``'s output, or to how it
    consumes each seed's random stream, changes this digest. So does a
    change to the order in which each query's own stream is drawn.
    """

    def test_event_table_digest(self):
        events = generate(WorldConfig(num_queries=60, seed=11)).events
        assert len(events) == 177_251
        assert event_table_sha256(events) == (
            "5aa83af1552453770d2ce83db7767f49e1c26aca177a77fca9adb3af1f8ea67a"
        )


class TestFilterAndSplit:
    def test_chronology(self, world):
        split = filter_and_split(world.events, SMALL.num_weeks)
        max_train = max(w for _, w in split.train)
        assert max_train < split.valid_week < split.test_week
        assert all(w == split.valid_week for _, w in split.valid)
        assert all(w == split.test_week for _, w in split.test)

    def test_impression_threshold_boundary(self, world):
        frame = world.events
        split = filter_and_split(world.events, SMALL.num_weeks, min_impressions=20)
        n_items = len(frame.item_vocab)
        qw = frame.query.astype(np.int64) * SMALL.num_weeks + frame.week
        imp = frame.action == int(Action.IMPRESSION)
        key = qw[imp] * n_items + frame.item[imp]
        uniq, counts = np.unique(key, return_counts=True)
        max_per_qw = {}
        for k, c in zip(uniq // n_items, counts):
            max_per_qw[int(k)] = max(max_per_qw.get(int(k), 0), int(c))
        for q, w in split.all_keys():
            assert max_per_qw[q * SMALL.num_weeks + w] >= 20

        # A (query, week) with max impressions just under the bar is dropped.
        dropped = {
            k for k, c in max_per_qw.items() if c == 19
        }
        retained_keys = {q * SMALL.num_weeks + w for q, w in split.all_keys()}
        assert not (dropped & retained_keys)

    def test_purchase_clause(self, world):
        frame = world.events
        split = filter_and_split(world.events, SMALL.num_weeks)
        qw = frame.query.astype(np.int64) * SMALL.num_weeks + frame.week
        purchased = set(qw[frame.action == int(Action.PURCHASE)].tolist())
        for q, w in split.all_keys():
            assert q * SMALL.num_weeks + w in purchased

    def test_stats_reported(self, world):
        split = filter_and_split(world.events, SMALL.num_weeks)
        assert 0.0 < split.stats["retention"] <= 1.0
        assert set(split.stats["tertile_retention"]) == {"head", "torso", "tail"}
        assert (
            split.stats["tertile_retention"]["head"]
            >= split.stats["tertile_retention"]["tail"]
        )

    def test_impossible_filter_raises_with_diagnostics(self, world):
        with pytest.raises(ValueError, match="partition is empty"):
            filter_and_split(world.events, SMALL.num_weeks, min_impressions=10_000)
