import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from channelrank.labeling import (
    HEURISTIC_WEIGHTS,
    WEEK_SECONDS,
    Action,
    CalibrationError,
    CorpusStats,
    EventFrame,
    LabelWeights,
    calibrate_weights,
    corpus_stats,
    funnel_table,
    max_normalize,
    read_event_log,
    weighted_counts,
    write_event_log,
)
from tests.label_oracle import (
    FunnelCounts,
    InteractionEvent,
    deepest_action,
    funnel_counts,
    normalize_labels,
    raw_label,
    to_events,
    unique_funnel_table,
)


def ev(session, action, query="q", item="i", week=0, offset=10.0):
    return InteractionEvent(
        query=query,
        item=item,
        session=session,
        week=week,
        action=action,
        timestamp=week * WEEK_SECONDS + offset,
    )


class TestDeepestAction:
    def test_singleton(self):
        assert deepest_action([ev("s1", Action.IMPRESSION)]) == Action.IMPRESSION

    def test_hierarchy_order(self):
        events = [
            ev("s1", Action.IMPRESSION),
            ev("s1", Action.CLICK),
            ev("s1", Action.ADD_TO_CART),
        ]
        assert deepest_action(events) == Action.ADD_TO_CART

    def test_order_independence(self):
        events = [ev("s1", Action.PURCHASE), ev("s1", Action.IMPRESSION)]
        assert deepest_action(events) == Action.PURCHASE

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            deepest_action([])

    def test_mixed_sessions_rejected(self):
        with pytest.raises(ValueError, match="share"):
            deepest_action([ev("s1", Action.CLICK), ev("s2", Action.CLICK)])


class TestFunnelCounts:
    def test_three_sessions(self):
        events = [
            ev("s1", Action.IMPRESSION), ev("s1", Action.CLICK),
            ev("s2", Action.IMPRESSION), ev("s2", Action.CLICK),
            ev("s3", Action.IMPRESSION), ev("s3", Action.CLICK),
            ev("s3", Action.ADD_TO_CART), ev("s3", Action.PURCHASE),
        ]
        fc = funnel_counts(events)
        assert (fc.views, fc.clicks, fc.atcs, fc.purchases) == (0, 2, 0, 1)
        assert fc.n_sessions == 3

    def test_impression_only_session(self):
        fc = funnel_counts([ev("s1", Action.IMPRESSION)])
        assert (fc.views, fc.clicks, fc.atcs, fc.purchases) == (1, 0, 0, 0)

    def test_no_events(self):
        fc = funnel_counts([], query="q", item="i", week=0)
        assert fc.n_sessions == 0


class TestCalibrateWeights:
    def test_direct_substitution(self):
        w = calibrate_weights(CorpusStats(100, 400, 2000))
        assert (w.a, w.b, w.c, w.d) == (1.0, 0.25, 0.05, 0.0)

    def test_zero_purchases(self):
        w = calibrate_weights(CorpusStats(0, 400, 2000))
        assert (w.a, w.b, w.c, w.d) == (1.0, 0.0, 0.0, 0.0)

    def test_anomalous_funnel_clamps_b(self):
        w = calibrate_weights(CorpusStats(500, 400, 2000))
        assert w.b == 1.0
        assert w.a >= w.b >= w.c >= w.d >= 0.0

    def test_zero_denominators_are_named(self):
        with pytest.raises(CalibrationError, match="total_atcs"):
            calibrate_weights(CorpusStats(10, 0, 100))
        with pytest.raises(CalibrationError, match="total_clicks"):
            calibrate_weights(CorpusStats(10, 20, 0))

    @given(
        p=st.integers(min_value=0, max_value=10_000),
        a=st.integers(min_value=1, max_value=10_000),
        c=st.integers(min_value=1, max_value=10_000),
    )
    def test_chain_constraint_always_holds(self, p, a, c):
        w = calibrate_weights(CorpusStats(p, a, c))
        assert w.a >= w.b >= w.c >= w.d >= 0.0


class TestRawLabel:
    def test_direct_substitution(self):
        counts = FunnelCounts("q", "i", 0, views=5, clicks=2, atcs=0, purchases=1)
        w = LabelWeights(1.0, 0.25, 0.05, 0.0)
        assert raw_label(counts, w) == pytest.approx(1.10)

    def test_all_zero(self):
        counts = FunnelCounts("q", "i", 0)
        assert raw_label(counts, HEURISTIC_WEIGHTS) == 0.0

    def test_atc_only(self):
        counts = FunnelCounts("q", "i", 0, atcs=2)
        w = LabelWeights(1.0, 0.25, 0.05, 0.0)
        assert raw_label(counts, w) == pytest.approx(0.50)


class TestNormalizeLabels:
    def test_direct_substitution(self):
        out = normalize_labels({"A": 10.0, "B": 5.0, "C": 0.0})
        assert out == {"A": 4.0, "B": 2.0, "C": 0.0}

    def test_singleton_maps_to_max(self):
        assert normalize_labels({"A": 7.0}) == {"A": 4.0}

    def test_all_zero_guard(self):
        assert normalize_labels({"A": 0.0, "B": 0.0}) == {"A": 0.0, "B": 0.0}

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            normalize_labels({"A": -1.0})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_labels({})

    @given(
        raw=st.dictionaries(
            st.text(alphabet="abcdef", min_size=1, max_size=3),
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_range_argmax_and_order_preserved(self, raw):
        out = normalize_labels(raw)
        assert all(0.0 <= v <= 4.0 for v in out.values())
        peak = max(raw.values())
        if peak > 0:
            argmax = {k for k, v in raw.items() if v == peak}
            assert {k for k, v in out.items() if v == 4.0} == argmax
            items = sorted(raw)
            for x in items:
                for y in items:
                    if raw[x] < raw[y]:
                        assert out[x] < out[y]

    def test_weight_scaling_cancels(self):
        counts = {
            "A": FunnelCounts("q", "A", 0, views=3, clicks=2, purchases=1),
            "B": FunnelCounts("q", "B", 0, views=8, clicks=1),
        }
        w1 = LabelWeights(1.0, 0.25, 0.05, 0.0)
        w3 = LabelWeights(3.0, 0.75, 0.15, 0.0)
        out1 = normalize_labels({k: raw_label(v, w1) for k, v in counts.items()})
        out3 = normalize_labels({k: raw_label(v, w3) for k, v in counts.items()})
        for k in counts:
            assert out1[k] == pytest.approx(out3[k], abs=1e-12)


def _frame_from_events(events):
    queries = sorted({e.query for e in events})
    items = sorted({e.item for e in events})
    sessions = sorted({e.session for e in events})
    qidx = {q: i for i, q in enumerate(queries)}
    iidx = {i: j for j, i in enumerate(items)}
    sidx = {s: i for i, s in enumerate(sessions)}
    return EventFrame(
        week=np.array([e.week for e in events], dtype=np.int64),
        session=np.array([sidx[e.session] for e in events], dtype=np.int64),
        query=np.array([qidx[e.query] for e in events], dtype=np.int64),
        item=np.array([iidx[e.item] for e in events], dtype=np.int64),
        action=np.array([int(e.action) for e in events], dtype=np.int64),
        timestamp=np.array([e.timestamp for e in events], dtype=np.float64),
        query_vocab=tuple(queries),
        item_vocab=tuple(items),
        session_vocab=tuple(sessions),
    )


class TestBulkFunnelTable:
    @staticmethod
    def _random_events(seed, n=400):
        rng = np.random.default_rng(seed)
        events = []
        for _ in range(n):
            q = f"q{rng.integers(3)}"
            i = f"i{rng.integers(5)}"
            w = int(rng.integers(3))
            s = f"s{rng.integers(40)}_{q}_{w}"
            action = Action(int(rng.integers(4)))
            events.append(
                InteractionEvent(
                    query=q, item=i, session=s, week=w, action=action,
                    timestamp=w * WEEK_SECONDS + float(rng.uniform(0, 1000)),
                )
            )
        return events

    def test_agrees_with_reference_grouping(self):
        events = self._random_events(23)
        frame = _frame_from_events(events)
        table = funnel_table(frame)

        by_group = {}
        for e in events:
            by_group.setdefault((e.query, e.item, e.week), []).append(e)
        assert len(table) == len(by_group)
        for row in range(len(table)):
            key = (
                frame.query_vocab[table.query[row]],
                frame.item_vocab[table.item[row]],
                int(table.week[row]),
            )
            fc = funnel_counts(by_group[key])
            assert table.views[row] == fc.views
            assert table.clicks[row] == fc.clicks
            assert table.atcs[row] == fc.atcs
            assert table.purchases[row] == fc.purchases

    def test_total_sessions_preserved(self):
        events = self._random_events(29)
        frame = _frame_from_events(events)
        table = funnel_table(frame)
        total = (
            table.views.sum() + table.clicks.sum()
            + table.atcs.sum() + table.purchases.sum()
        )
        distinct = {(e.session, e.query, e.item, e.week) for e in events}
        assert total == len(distinct)

    def test_corpus_stats_nested_and_train_weeks_only(self):
        events = [
            ev("s1", Action.PURCHASE, week=0),
            ev("s2", Action.CLICK, week=0),
            ev("s3", Action.ADD_TO_CART, week=1),
            ev("s4", Action.PURCHASE, week=4),  # outside train weeks
        ]
        frame = _frame_from_events(events)
        stats = corpus_stats(funnel_table(frame), train_weeks=[0, 1, 2])
        assert stats.total_purchases == 1
        assert stats.total_atcs == 2  # purchase session reached atc too
        assert stats.total_clicks == 3


def _random_frame(seed, n_events, n_weeks):
    """Codes drawn from small ranges, so (group, session) pairs repeat.

    The columns have the compact dtypes that ``generate`` builds.
    """
    rng = np.random.default_rng(seed)
    n_queries, n_items, n_sessions = 4, 6, 30
    week = rng.integers(n_weeks, size=n_events, dtype=np.int32)
    return EventFrame(
        week=week,
        session=rng.integers(n_sessions, size=n_events),
        query=rng.integers(n_queries, size=n_events, dtype=np.int32),
        item=rng.integers(n_items, size=n_events, dtype=np.int32),
        action=rng.integers(4, size=n_events, dtype=np.int8),
        timestamp=week * WEEK_SECONDS + rng.uniform(0, 1000, size=n_events),
        query_vocab=tuple(f"q{i}" for i in range(n_queries)),
        item_vocab=tuple(f"i{i}" for i in range(n_items)),
    )


class TestFunnelTableOracle:
    """The sort-grouped ``funnel_table`` equals the ``np.unique`` one array for array."""

    @staticmethod
    def _assert_same(frame):
        got, want = funnel_table(frame), unique_funnel_table(frame)
        for name in ("query", "item", "week", "views", "clicks", "atcs", "purchases"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tolist() == b.tolist(), name

    @pytest.mark.parametrize("seed", range(12))
    def test_random_frames(self, seed):
        rng = np.random.default_rng(1000 + seed)
        frame = _random_frame(seed, int(rng.integers(2, 600)), int(rng.integers(1, 5)))
        self._assert_same(frame)

    def test_frames_repeat_group_session_events(self):
        frame = _random_frame(0, 500, 2)
        keys = list(zip(frame.query, frame.item, frame.week, frame.session))
        assert len(set(keys)) < len(keys)
        self._assert_same(frame)

    def test_single_event(self):
        self._assert_same(_random_frame(5, 1, 1))

    def test_one_week(self):
        frame = _random_frame(7, 300, 1)
        assert set(frame.week.tolist()) == {0}
        self._assert_same(frame)

    def test_late_week_only(self):
        frame = _random_frame(9, 200, 1)
        frame.week = frame.week + 3
        frame.timestamp = frame.timestamp + 3 * WEEK_SECONDS
        self._assert_same(frame)

    def test_empty(self):
        self._assert_same(_random_frame(3, 0, 1))


class TestLabelFormula:
    """``funnel_table`` + ``weighted_counts`` + ``max_normalize`` equal the oracle."""

    @pytest.mark.parametrize("seed", [31, 37, 41])
    def test_columnar_labels_equal_oracle(self, seed):
        rng = np.random.default_rng(seed)
        events = TestBulkFunnelTable._random_events(seed, n=int(rng.integers(50, 400)))
        frame = _frame_from_events(events)
        table = funnel_table(frame)
        by_group = {}
        for e in events:
            by_group.setdefault((e.query, e.item, e.week), []).append(e)
        n_weeks = int(frame.week.max()) + 1
        rows = np.zeros((len(frame.query_vocab), n_weeks, len(frame.item_vocab), 4))
        rows[table.query, table.week, table.item] = np.column_stack(
            [table.views, table.clicks, table.atcs, table.purchases]
        )
        calibrated = calibrate_weights(corpus_stats(table, train_weeks=[0, 1]))
        for weights in (calibrated, HEURISTIC_WEIGHTS, LabelWeights(1.0, 0.3, 0.3, 0.01)):
            for q, query in enumerate(frame.query_vocab):
                for week in range(n_weeks):
                    got = max_normalize(weighted_counts(rows[q, week], weights))
                    raw = {
                        item: raw_label(
                            funnel_counts(by_group.get((query, item, week), []),
                                          query=query, item=item, week=week),
                            weights,
                        )
                        for item in frame.item_vocab
                    }
                    assert got.tolist() == list(normalize_labels(raw).values())


class TestEventLogFile:
    def test_round_trip(self, tmp_path):
        events = [
            ev("s1", Action.IMPRESSION, query="red shoes", item="sku1", week=1),
            ev("s1", Action.CLICK, query="red shoes", item="sku1", week=1),
            ev("s2", Action.PURCHASE, query="blue hat", item="sku2", week=2),
        ]
        frame = _frame_from_events(events)
        path = tmp_path / "events.tsv"
        write_event_log(str(path), frame)
        loaded = read_event_log(str(path))
        assert sorted(to_events(loaded), key=lambda e: (e.session, e.timestamp)) == sorted(
            events, key=lambda e: (e.session, e.timestamp)
        )

    def test_vocabularies_and_codes_match_np_unique(self, tmp_path):
        # Session names s0..s29 sort as strings, not as numbers.
        frame = _random_frame(3, 400, 3)
        path = tmp_path / "events.tsv"
        write_event_log(str(path), frame)
        loaded = read_event_log(str(path))
        for vocab, codes, names, dtype in (
            (loaded.query_vocab, loaded.query, [frame.query_vocab[c] for c in frame.query],
             np.int32),
            (loaded.item_vocab, loaded.item, [frame.item_vocab[c] for c in frame.item], np.int32),
            (loaded.session_vocab, loaded.session, [frame.session_name(c) for c in frame.session],
             np.int64),
        ):
            expected, inverse = np.unique(np.array(names, dtype=object), return_inverse=True)
            assert vocab == tuple(expected)
            assert codes.dtype == dtype
            np.testing.assert_array_equal(codes, inverse)

    def test_largest_week_is_read(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("0.0\t2147483647\ts1\tq\ti\tclick\n")
        assert read_event_log(str(path)).week.tolist() == [2147483647]

    def test_unknown_action_rejected(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("0.0\t0\ts1\tq\ti\tview\n")
        with pytest.raises(ValueError, match="unknown action"):
            read_event_log(str(path))

    def test_negative_week_rejected_with_line(self, tmp_path):
        # Read as-is, the week -1 click on i1 would enter funnel_table as a
        # click on i0 in week 1: the group key's week wraps into the item.
        path = tmp_path / "events.tsv"
        path.write_text(
            f"10.0\t0\ts1\tq\ti0\timpression\n"
            f"{WEEK_SECONDS + 10.0}\t1\ts2\tq\ti0\timpression\n"
            f"{-WEEK_SECONDS + 10.0}\t-1\ts3\tq\ti1\tclick\n"
        )
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: week '-1'")):
            read_event_log(str(path))

    @pytest.mark.parametrize(
        "line, field",
        [("0.0\t1.5\ts1\tq\ti\tclick", "week '1.5'"),
         ("0.0\t\ts1\tq\ti\tclick", "week ''"),
         ("0.0\t2147483648\ts1\tq\ti\tclick", "week 2147483648 is above 2147483647"),
         ("0.0\t99999999999999999999\ts1\tq\ti\tclick",
          "week 99999999999999999999 is above 2147483647"),
         ("later\t0\ts1\tq\ti\tclick", "timestamp 'later' is not a finite number"),
         ("nan\t0\ts1\tq\ti\tclick", "timestamp 'nan' is not a finite number"),
         ("0.0\t0\t\tq\ti\tclick", "empty session id"),
         ("0.0\t0\ts1\t\ti\tclick", "empty query id"),
         ("0.0\t0\ts1\tq\t\tclick", "empty item id")],
        ids=["fractional-week", "empty-week", "week-past-int32", "week-past-int64",
             "word-timestamp", "nan-timestamp",
             "empty-session", "empty-query", "empty-item"],
    )
    def test_bad_number_field_names_line(self, tmp_path, line, field):
        path = tmp_path / "events.tsv"
        path.write_text("10.0\t0\ts1\tq\ti\timpression\n" + line + "\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: {field}")):
            read_event_log(str(path))


class TestEventValidation:
    def test_timestamp_outside_week_rejected(self):
        with pytest.raises(ValueError, match="outside week"):
            InteractionEvent(
                query="q", item="i", session="s", week=1,
                action=Action.CLICK, timestamp=10.0,
            )
