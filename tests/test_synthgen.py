import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from channelrank import synthgen
from channelrank.dataset import ItemCatalog, read_item_catalog
from channelrank.labeling import Action, read_event_log, write_event_log
from channelrank.synthgen import (
    GroundTruth,
    WorldConfig,
    channel_ids,
    filter_and_split,
    generate,
    write_world,
)
from tests.event_oracle import part_assembly

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

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            WorldConfig(seed=-1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sessions_mean", math.nan, "sessions_mean must be finite and > 0, got nan"),
            ("sessions_mean", math.inf, "sessions_mean must be finite and > 0, got inf"),
            ("sessions_mean", -1.0, "sessions_mean must be finite and > 0, got -1.0"),
            ("channel_utility_concentration", math.nan,
             "channel_utility_concentration must be finite and >= 0, got nan"),
            ("num_queries", 0, "num_queries must be >= 1, got 0"),
            ("num_items", 0, "num_items must be >= 1, got 0"),
            ("universe_size", 0, "universe_size must be >= 1, got 0"),
            ("num_channels", 0, "num_channels must be >= 1, got 0"),
            ("per_channel_n", 0, "per_channel_n must be >= 1, got 0"),
        ],
    )
    def test_rejects_values_generate_cannot_use(self, field, value, message):
        with pytest.raises(ValueError) as err:
            WorldConfig(**{field: value})
        assert str(err.value) == message

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

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda config: {**config, "click_rate": 0.22},
             "has extra keys ['click_rate'] and misses keys []; generate it again"),
            (lambda config: {k: v for k, v in config.items() if k != "seed"},
             "has extra keys [] and misses keys ['seed']; generate it again"),
            (lambda config: list(config), "is not a JSON object"),
        ],
        ids=["removed-setting", "missing-seed", "not-an-object"],
    )
    def test_ground_truth_config_keys_must_match(self, world, tmp_path, edit, problem):
        # A file from a build whose WorldConfig had other fields used to raise
        # TypeError for an extra key and to take the default for a missing one.
        path = tmp_path / "gt.npz"
        world.ground_truth.save(str(path))
        with np.load(str(path)) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["config"] = np.array(json.dumps(edit(json.loads(str(arrays["config"])))))
        crafted = tmp_path / "crafted.npz"
        np.savez(str(crafted), **arrays)
        with pytest.raises(ValueError) as err:
            GroundTruth.load(str(crafted))
        assert str(err.value) == f"{crafted}: stored world config {problem}"

    def test_write_world_emits_all_files(self, world, tmp_path):
        paths = write_world(world, str(tmp_path / "world"))
        assert "events" in paths and "ground_truth" in paths
        for week in range(SMALL.num_weeks):
            assert f"channel_lists_w{week}" in paths
        catalog, expected = read_item_catalog(paths["catalog"]), world.ground_truth.catalog
        assert catalog.item_vocab == expected.item_vocab
        for name in ("price", "category", "intro_week"):
            assert getattr(catalog, name).tobytes() == getattr(expected, name).tobytes(), name


EVENT_DTYPES = {
    "week": np.int32, "session": np.int64, "query": np.int32, "item": np.int32,
    "action": np.int8, "timestamp": np.float64,
}


def event_table_sha256(events) -> str:
    """Hash of every column's values, each cast to int64 (timestamps float64)."""
    h = hashlib.sha256()
    for name in ("week", "session", "query", "item", "action", "timestamp"):
        col = getattr(events, name).astype(np.float64 if name == "timestamp" else np.int64)
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
        assert {name: getattr(events, name).dtype for name in EVENT_DTYPES} == EVENT_DTYPES
        assert event_table_sha256(events) == (
            "5aa83af1552453770d2ce83db7767f49e1c26aca177a77fca9adb3af1f8ea67a"
        )

    def test_event_log_round_trip_keeps_dtypes_and_values(self, world, tmp_path):
        path = str(tmp_path / "events.tsv")
        write_event_log(path, world.events)
        back = read_event_log(path)
        assert len(back) == len(world.events)
        for name, dtype in EVENT_DTYPES.items():
            assert getattr(back, name).dtype == dtype, name
        events = world.events
        assert np.array_equal(back.week, events.week)
        assert np.array_equal(back.action, events.action)
        assert np.array_equal(back.timestamp, events.timestamp)
        for name in ("query", "item"):
            vocab = f"{name}_vocab"
            assert np.array_equal(
                np.array(getattr(back, vocab))[getattr(back, name)],
                np.array(getattr(events, vocab))[getattr(events, name)],
            ), name
        assert [back.session_name(s) for s in back.session.tolist()] == [
            events.session_name(s) for s in events.session.tolist()
        ]


class TestEventAssembly:
    """The event columns, built once over all parts, equal the part-by-part build."""

    @pytest.mark.parametrize(
        "cfg, empty_share",
        [
            (WorldConfig(num_queries=60, seed=11), 0.0),
            (WorldConfig(num_queries=20, num_items=300, universe_size=20, per_channel_n=10,
                         num_channels=1, seed=2), 0.0),
            (WorldConfig(num_queries=40, num_items=300, universe_size=20, per_channel_n=10,
                         sessions_mean=0.4, seed=4), 0.65),
            (WorldConfig(num_queries=3, num_items=30, universe_size=20, per_channel_n=10,
                         sessions_mean=2.0, seed=1), 0.0),
            (WorldConfig(num_queries=3, num_items=30, universe_size=20, per_channel_n=10,
                         sessions_mean=1e-9, seed=1), 1.0),
        ],
        ids=["pinned", "one-channel", "sparse-weeks", "tiny", "no-sessions"],
    )
    def test_columns_equal_part_by_part_oracle(self, cfg, empty_share, monkeypatch):
        captured = []
        assemble = synthgen._assemble_events

        def spy(parts, *args):
            captured.append((list(parts), args))
            return assemble(parts, *args)

        monkeypatch.setattr(synthgen, "_assemble_events", spy)
        events = generate(cfg).events
        (parts, args), = captured
        # A query-week that draws no session has no part.
        assert 1 - len(parts) / (cfg.num_queries * cfg.num_weeks) == pytest.approx(empty_share)
        expected = part_assembly(parts, *args)
        for name in ("week", "session", "query", "item", "action", "timestamp"):
            got, want = getattr(events, name), getattr(expected, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
        assert (events.query_vocab, events.item_vocab) == (
            expected.query_vocab, expected.item_vocab,
        )

    def test_peak_memory_near_what_generate_returns(self):
        # tracemalloc counts numpy's buffers exactly, so the ratio repeats.
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            world = generate(WorldConfig(num_queries=60, seed=11))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        assert len(world.events) == 177_251
        assert peak - base <= 1.4 * (kept - base)


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

    def test_event_week_past_num_weeks_rejected(self):
        # Week 5 of a 6-week log split as 5 weeks used to alias onto week 0 of
        # the next query and land in the training partition.
        six_weeks = generate(WorldConfig(
            num_queries=10, num_items=100, universe_size=15, per_channel_n=8,
            sessions_mean=10.0, num_weeks=6, seed=9,
        ))
        with pytest.raises(ValueError) as err:
            filter_and_split(six_weeks.events, 5)
        assert str(err.value) == "largest event week 5 is not below num_weeks=5"
        split = filter_and_split(six_weeks.events, 6, min_impressions=1)
        assert split.stats["total_groups"] == 60

    def test_impossible_filter_raises_with_diagnostics(self, world):
        with pytest.raises(ValueError, match="partition is empty"):
            filter_and_split(world.events, SMALL.num_weeks, min_impressions=10_000)
