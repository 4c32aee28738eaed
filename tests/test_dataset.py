import dataclasses
import re

import numpy as np
import pytest

from channelrank.core import TruncationConfig
from channelrank.dataset import (
    ItemCatalog,
    build_dataset,
    item_count_table,
    read_dataset,
    read_item_catalog,
    write_dataset,
    write_item_catalog,
)
from channelrank.features import (
    LookbackConfig,
    channel_columns,
    engagement_columns,
    item_feature_block,
)
from channelrank.labeling import (
    HEURISTIC_WEIGHTS,
    WEEK_SECONDS,
    EventFrame,
    LabelWeights,
    funnel_table,
)
from channelrank.synthgen import WorldConfig, filter_and_split, generate
from tests.feature_oracle import (
    engagement_counts,
    engagement_features,
    group_build_dataset,
    lookback_aggregates,
    velocity,
)
from tests.label_oracle import (
    funnel_counts,
    normalize_labels,
    raw_label,
    restrict_weeks,
    to_events,
)
from tests.pool_oracle import reference_provenance

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
def catalog(world):
    return world.ground_truth.catalog


@pytest.fixture(scope="module")
def dataset(world, split, catalog):
    trunc = TruncationConfig.uniform(world.channels, CFG.per_channel_n)
    return build_dataset(
        world.events, world.channel_lists, catalog, world.channels,
        split.all_keys(), trunc,
    )


def _feature_view(dataset, drop_engagement):
    """The feature matrix and schema, without the engagement group if asked."""
    if not drop_engagement:
        return dataset.X, dataset.schema
    keep = ~dataset.schema.group_mask("engagement")
    return dataset.X[:, keep], dataset.schema.drop_group("engagement")


class TestBuildDataset:
    def test_groups_contiguous_and_items_sorted(self, dataset):
        assert (np.diff(dataset.group_ids) >= 0).all()
        for gid in range(len(dataset.group_keys)):
            rows = dataset.group_ids == gid
            items = [dataset.item_vocab[i] for i in dataset.item_codes[rows]]
            assert items == sorted(items)

    def test_labels_normalized_with_max_four(self, dataset):
        for labels_arr in (dataset.labels_conversion, dataset.labels_heuristic):
            assert labels_arr.min() >= 0.0
            assert labels_arr.max() <= 4.0
            for gid in range(len(dataset.group_keys)):
                seg = labels_arr[dataset.group_ids == gid]
                if seg.max() > 0:
                    assert seg.max() == 4.0

    def test_labels_equal_label_oracle(self, world, dataset):
        # Each group's labels are its items' oracle funnel counts, weighted
        # and max-normalized over the group, for both label schemes.
        by_key = {}
        for e in to_events(world.events):
            by_key.setdefault((e.query, e.item, e.week), []).append(e)
        groups = dataset.groups
        for g in np.random.default_rng(4).choice(groups.count, size=40, replace=False):
            rows = slice(groups.starts[g], groups.starts[g + 1])
            q, week = dataset.group_keys[g]
            query = dataset.query_vocab[q]
            counts = [
                funnel_counts(by_key.get((query, item, week), []), query, item, week)
                for item in (dataset.item_vocab[i] for i in dataset.item_codes[rows])
            ]
            for weights, labels in (
                (dataset.conversion_weights, dataset.labels_conversion),
                (HEURISTIC_WEIGHTS, dataset.labels_heuristic),
            ):
                expected = normalize_labels({c.item: raw_label(c, weights) for c in counts})
                assert labels[rows].tolist() == list(expected.values())

    def test_item_columns_never_missing(self, dataset):
        item_mask = dataset.schema.group_mask("item")
        assert not np.isnan(dataset.X[:, item_mask]).any()

    def test_channel_columns_match_pool_provenance(self, world, dataset):
        trunc = TruncationConfig.uniform(world.channels, CFG.per_channel_n)
        col = {name: i for i, name in enumerate(dataset.schema.names)}
        rng = np.random.default_rng(0)
        for ridx in rng.choice(len(dataset), size=40, replace=False):
            q = dataset.query_codes[ridx]
            w = int(dataset.weeks[ridx])
            item = dataset.item_vocab[dataset.item_codes[ridx]]
            lists = world.channel_lists[w][dataset.query_vocab[q]]
            hits = {h.channel.name: h for h in reference_provenance(lists, trunc)[item]}
            for channel in world.channels:
                score_col, rank_col = channel_columns(channel.name)
                score = dataset.X[ridx, col[score_col]]
                rank = dataset.X[ridx, col[rank_col]]
                if channel.name in hits:
                    assert score == hits[channel.name].score
                    assert rank == float(hits[channel.name].rank)
                else:
                    assert np.isnan(score) and np.isnan(rank)
            assert dataset.X[ridx, col["ch_hit_count"]] == len(hits)

    def test_agrees_with_reference_feature_ops(self, world, dataset):
        events = to_events(world.events)
        col = {name: i for i, name in enumerate(dataset.schema.names)}
        lookback = dataset.lookback
        rng = np.random.default_rng(1)
        for ridx in rng.choice(len(dataset), size=15, replace=False):
            qstr = dataset.query_vocab[dataset.query_codes[ridx]]
            istr = dataset.item_vocab[dataset.item_codes[ridx]]
            week = int(dataset.weeks[ridx])
            if week == 0:
                continue
            item_events = [e for e in events if e.item == istr]
            agg = lookback_aggregates(item_events, week, lookback)
            for window in lookback.windows:
                assert dataset.X[ridx, col[f"item_impressions_w{window}"]] == agg[window].impressions
                assert dataset.X[ridx, col[f"item_purchases_w{window}"]] == agg[window].purchases
            qi_events = [e for e in item_events if e.query == qstr]
            eng = engagement_features(
                qi_events, week, dataset.conversion_weights, lookback
            )
            reached = engagement_counts(qi_events, week, lookback)
            for window in lookback.windows:
                eng_col, clicks_col, atcs_col, purchases_col = engagement_columns(window)
                got = dataset.X[ridx, col[eng_col]]
                assert got == pytest.approx(eng[window], abs=1e-9)
                assert dataset.X[ridx, col[clicks_col]] == reached[window].clicks
                assert dataset.X[ridx, col[atcs_col]] == reached[window].atcs
                assert dataset.X[ridx, col[purchases_col]] == reached[window].purchases

    @pytest.mark.parametrize("as_of", [1, 2, 5])
    def test_item_block_agrees_with_scalar_oracle(self, world, catalog, dataset, as_of):
        events = to_events(world.events)
        lookback = dataset.lookback
        counts = item_count_table(world.events, catalog, CFG.num_weeks)
        rng = np.random.default_rng(as_of)
        items = rng.choice(len(catalog.item_vocab), size=25, replace=False)
        block = item_feature_block(dataset.schema, lookback, counts, catalog, items, as_of)
        item_names = [c.name for c in dataset.schema.columns if c.group == "item"]
        short, long_ = lookback.windows[0], lookback.windows[-1]
        for r, i in enumerate(items):
            item = catalog.item_vocab[i]
            agg = lookback_aggregates([e for e in events if e.item == item], as_of, lookback)
            expected = {
                "item_price": catalog.price[i],
                "item_category": catalog.category[i],
                "item_age_weeks": as_of - catalog.intro_week[i],
                "item_click_velocity": velocity(agg[short].clicks, agg[long_].clicks, short, long_),
                "item_purchase_velocity": velocity(
                    agg[short].purchases, agg[long_].purchases, short, long_
                ),
            }
            for window, tally in agg.items():
                for stat in ("impressions", "clicks", "atcs", "purchases"):
                    expected[f"item_{stat}_w{window}"] = getattr(tally, stat)
            assert dict(zip(item_names, block[r].tolist())) == expected

    def test_purchases_column_counts_sessions(self, world, dataset):
        from channelrank.labeling import funnel_table

        table = funnel_table(world.events)
        lookup = {}
        for r in range(len(table)):
            lookup[(int(table.query[r]), int(table.item[r]), int(table.week[r]))] = int(
                table.purchases[r]
            )
        rng = np.random.default_rng(2)
        for ridx in rng.choice(len(dataset), size=30, replace=False):
            key = (
                int(dataset.query_codes[ridx]),
                int(dataset.item_codes[ridx]),
                int(dataset.weeks[ridx]),
            )
            assert dataset.purchases[ridx] == lookup.get(key, 0)

    def test_mask_for_selects_groups(self, dataset, split):
        mask = dataset.mask_for(split.test)
        assert set(dataset.weeks[mask].tolist()) == {split.test_week}
        member = [
            (q, w) in split.test
            for q, w in zip(dataset.query_codes.tolist(), dataset.weeks.tolist())
        ]
        assert 0 < sum(member) < len(member)
        np.testing.assert_array_equal(mask, member)

    def test_feature_view_drops_engagement(self, dataset):
        X_view, schema_view = _feature_view(dataset, drop_engagement=True)
        assert X_view.shape[1] == len(schema_view)
        assert all(c.group != "engagement" for c in schema_view.columns)
        X_full, schema_full = _feature_view(dataset, drop_engagement=False)
        shared = [c.name for c in schema_view.columns]
        for name in shared:
            i_full = schema_full.index_of(name)
            i_view = schema_view.index_of(name)
            np.testing.assert_array_equal(X_full[:, i_full], X_view[:, i_view])


class TestWideKeysOverCompactColumns:
    """Keys over int32 query, item and week codes are built in int64.

    With 30,000 queries, 20,000 items and 5 weeks the (query, item, week)
    key reaches about 3.0e9 and the (query, week, item) key of
    ``filter_and_split`` as far, past the 2**31 that int32 holds.
    """

    N_QUERIES, N_ITEMS, N_WEEKS = 30_000, 20_000, 5

    @classmethod
    def _frames(cls):
        rng = np.random.default_rng(17)
        n = 4000
        week = np.tile(np.arange(cls.N_WEEKS), n // cls.N_WEEKS)
        compact = EventFrame(
            week=week.astype(np.int32),
            session=rng.integers(300, size=n),
            query=rng.integers(cls.N_QUERIES - 20, cls.N_QUERIES, size=n).astype(np.int32),
            item=rng.integers(cls.N_ITEMS - 30, cls.N_ITEMS, size=n).astype(np.int32),
            action=rng.integers(4, size=n).astype(np.int8),
            timestamp=week * WEEK_SECONDS + rng.uniform(0, 1000, size=n),
            query_vocab=tuple(f"q{i}" for i in range(cls.N_QUERIES)),
            item_vocab=tuple(f"i{i}" for i in range(cls.N_ITEMS)),
        )
        wide = dataclasses.replace(compact, **{
            name: getattr(compact, name).astype(np.int64)
            for name in ("week", "query", "item", "action")
        })
        key = (wide.query * cls.N_ITEMS + wide.item) * cls.N_WEEKS + wide.week
        assert key.min() > np.iinfo(np.int32).max
        return compact, wide

    def test_funnel_table_matches_int64_columns(self):
        compact, wide = self._frames()
        got, want = funnel_table(compact), funnel_table(wide)
        for name in ("query", "item", "week", "views", "clicks", "atcs", "purchases"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name

    def test_filter_and_split_matches_int64_columns(self):
        compact, wide = self._frames()
        got = filter_and_split(compact, self.N_WEEKS, min_impressions=2)
        want = filter_and_split(wide, self.N_WEEKS, min_impressions=2)
        assert (got.train, got.valid, got.test) == (want.train, want.valid, want.test)
        assert got.stats == want.stats

    def test_item_count_table_matches_int64_columns(self):
        compact, wide = self._frames()
        catalog = ItemCatalog(
            compact.item_vocab, np.ones(self.N_ITEMS), np.ones(self.N_ITEMS, dtype=np.int64),
            np.zeros(self.N_ITEMS, dtype=np.int64),
        )
        got = item_count_table(compact, catalog, self.N_WEEKS)
        assert np.array_equal(got, item_count_table(wide, catalog, self.N_WEEKS))
        assert got[:, -1].sum() == len(compact)


class TestWholeTableBuilder:
    """``build_dataset`` gives the per-group oracle's bytes."""

    @pytest.mark.parametrize(
        "windows, half_life, weights",
        [
            ((1, 4), 2.0, None),
            ((1, 2, 3), 1.5, None),
            ((2,), 0.75, LabelWeights(1.0, 0.5, 0.25, 0.125)),
            ((1, 4), 3.0, LabelWeights(2.0, 1.0, 1.0, 0.0)),
        ],
    )
    def test_equals_per_group_oracle(self, world, split, catalog, windows, half_life, weights):
        trunc = TruncationConfig.uniform(world.channels, CFG.per_channel_n)
        # Groups at weeks 0 and 1 read lags that fall before week 0.
        keys = [*split.all_keys(), *((q, w) for q in range(0, 40, 3) for w in (0, 1))]
        assert {0, 1} <= {w for _, w in keys}
        args = (world.events, world.channel_lists, catalog, world.channels, keys, trunc)
        kwargs = dict(
            lookback=LookbackConfig(windows=windows, decay_half_life=half_life),
            conversion_weights=weights,
        )
        got = build_dataset(*args, **kwargs)
        want = group_build_dataset(*args, **kwargs)
        for name in (
            "X", "labels_conversion", "labels_heuristic", "purchases",
            "query_codes", "item_codes", "weeks",
        ):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert got.groups.starts.tobytes() == want.groups.starts.tobytes()
        assert got.group_keys == want.group_keys
        assert got.conversion_weights == want.conversion_weights
        assert got.fingerprint() == want.fingerprint()


class TestNoLeakage:
    @pytest.mark.parametrize("audit_week", [3, 4])
    def test_feature_file_byte_identical_after_future_deletion(
        self, world, split, catalog, tmp_path, audit_week
    ):
        trunc = TruncationConfig.uniform(world.channels, CFG.per_channel_n)
        keys = [k for k in split.all_keys() if k[1] == audit_week]
        full = build_dataset(
            world.events, world.channel_lists, catalog, world.channels, keys, trunc
        )
        truncated_events = restrict_weeks(world.events, audit_week)
        rebuilt = build_dataset(
            truncated_events, world.channel_lists, catalog, world.channels, keys, trunc
        )
        a = tmp_path / f"full_w{audit_week}.csv"
        b = tmp_path / f"rebuilt_w{audit_week}.csv"
        write_dataset(full, str(a), include_labels=False)
        write_dataset(rebuilt, str(b), include_labels=False)
        assert a.read_bytes() == b.read_bytes()

    def test_labels_do_depend_on_instance_week_events(self, world, split, catalog):
        # Sanity counterpoint: deleting the instance week's events zeroes
        # labels, proving the audit above is not vacuous.
        trunc = TruncationConfig.uniform(world.channels, CFG.per_channel_n)
        keys = [k for k in split.all_keys() if k[1] == 4]
        full = build_dataset(
            world.events, world.channel_lists, catalog, world.channels, keys, trunc
        )
        rebuilt = build_dataset(
            restrict_weeks(world.events, 4), world.channel_lists, catalog,
            world.channels, keys, trunc,
        )
        assert full.labels_conversion.any()
        assert not rebuilt.labels_conversion.any()


class TestFiles:
    def test_dataset_round_trip(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset(dataset, str(path), label_scheme="conversion")
        loaded = read_dataset(str(path))
        assert loaded.X.shape == dataset.X.shape
        np.testing.assert_array_equal(loaded.labels, dataset.labels_conversion)
        both_nan = np.isnan(loaded.X) & np.isnan(dataset.X)
        np.testing.assert_array_equal(
            np.where(both_nan, 0.0, loaded.X), np.where(both_nan, 0.0, dataset.X)
        )
        np.testing.assert_array_equal(loaded.group_ids, dataset.group_ids)

    def test_bytes_equal_per_cell_formula(self, dataset, tmp_path):
        # Each cell is "NA" or ``repr(float(v))`` of its float64, as the
        # writer once formatted it cell by cell.
        rng = np.random.default_rng(7)
        edge = [np.nan, 0.0, -0.0, 1e308, -1.7976931348623157e308, 5e-324, -2.5e-320,
                1e-300, 0.1, 1 / 3, 123456789.0, -7.0, 1e16, np.inf, -np.inf]
        X = rng.choice(edge, size=dataset.X.shape)
        X[: len(edge)] = np.resize(edge, (len(edge), X.shape[1]))
        labels = rng.choice(edge[1:13], size=len(X))
        table = dataclasses.replace(dataset, X=X, labels_conversion=labels)
        lines = [",".join(["query_id", "item_id", "week", "label", *table.schema.names])]
        for r in range(len(table)):
            fields = [
                table.query_vocab[table.query_codes[r]],
                table.item_vocab[table.item_codes[r]],
                str(int(table.weeks[r])),
                repr(float(labels[r])),
            ]
            fields.extend("NA" if np.isnan(v) else repr(float(v)) for v in X[r])
            lines.append(",".join(fields))
        path = tmp_path / "data.csv"
        write_dataset(table, str(path))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        write_dataset(table, str(path), include_labels=False)
        assert path.read_bytes() == "".join(
            ",".join(line.split(",")[:3] + line.split(",")[4:]) + "\n" for line in lines
        ).encode("utf-8")

    def test_na_literal_written(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset(dataset, str(path))
        body = path.read_text()
        assert ",NA" in body

    def test_item_catalog_round_trip(self, catalog, tmp_path):
        path = tmp_path / "items.tsv"
        write_item_catalog(str(path), catalog)
        loaded = read_item_catalog(str(path))
        assert loaded.item_vocab == catalog.item_vocab
        np.testing.assert_array_equal(loaded.price, catalog.price)
        np.testing.assert_array_equal(loaded.category, catalog.category)
        np.testing.assert_array_equal(loaded.intro_week, catalog.intro_week)

    @pytest.mark.parametrize(
        "line, field",
        [("i1\tabc\t2\t0", "price 'abc' is not a finite number"),
         ("i1\tnan\t2\t0", "price 'nan' is not a finite number"),
         ("i1\t-inf\t2\t0", "price '-inf' is not a finite number"),
         ("i1\t1.0\tshoes\t0", "category 'shoes' is not an integer"),
         ("i1\t1.0\t2\t1.5", "intro_week '1.5' is not an integer"),
         ("\t1.0\t2\t0", "empty item id")],
        ids=["word-price", "nan-price", "inf-price", "word-category", "fractional-week",
             "empty-item"],
    )
    def test_item_catalog_bad_field_names_line(self, tmp_path, line, field):
        path = tmp_path / "items.tsv"
        path.write_text("i0\t10.0\t1\t0\n" + line + "\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: {field}")):
            read_item_catalog(str(path))

    def test_item_catalog_duplicate_id_rejected_with_line(self, tmp_path):
        # Loaded, both rows would enter item_vocab and index() would keep the second.
        path = tmp_path / "items.tsv"
        path.write_text("i1\t10.0\t1\t0\ni2\t5.0\t1\t0\ni1\t7.0\t2\t-3\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: duplicate item id 'i1'")):
            read_item_catalog(str(path))

    def _dataset_file(self, dataset, tmp_path, item="i1", week="1", label="2.0", cell="0.5"):
        """A two-row table whose second row has the given item, week, label and first cell."""
        names = dataset.schema.names
        path = tmp_path / "data.csv"
        (tmp_path / "data.csv.schema.json").write_text(dataset.schema.to_json())
        rest = ["NA"] * (len(names) - 1)
        path.write_text("\n".join([
            ",".join(["query_id", "item_id", "week", "label", *names]),
            ",".join(["q", "i0", "1", "1.0", "0.25", *rest]),
            ",".join(["q", item, week, label, cell, *rest]),
        ]) + "\n")
        return str(path)

    def test_dataset_file_helper_loads(self, dataset, tmp_path):
        loaded = read_dataset(self._dataset_file(dataset, tmp_path))
        assert loaded.labels.tolist() == [1.0, 2.0]
        assert loaded.X[:, 0].tolist() == [0.25, 0.5]
        assert np.isnan(loaded.X[:, 1:]).all()

    def test_same_item_in_another_week_loads(self, dataset, tmp_path):
        loaded = read_dataset(self._dataset_file(dataset, tmp_path, item="i0", week="2"))
        assert loaded.weeks.tolist() == [1, 2]

    def test_repeated_row_names_its_line(self, dataset, tmp_path):
        path = self._dataset_file(dataset, tmp_path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines([*lines, lines[1]])  # a copy of line 2 as line 4
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:4: repeated")):
            read_dataset(path)

    @pytest.mark.parametrize(
        "fields, message",
        [({"week": "1.5"}, "week '1.5' is not a non-negative integer"),
         ({"week": "-1"}, "week '-1' is not a non-negative integer"),
         ({"label": "nan"}, "non-finite label or feature cell"),
         ({"label": "inf"}, "non-finite label or feature cell"),
         ({"label": "high"}, "could not convert string to float: 'high'"),
         ({"label": "-1"}, "label -1.0 is negative"),
         ({"cell": "inf"}, "non-finite label or feature cell"),
         ({"cell": "-inf"}, "non-finite label or feature cell"),
         ({"cell": "nan"}, "non-finite label or feature cell"),
         ({"cell": "x"}, "could not convert string to float: 'x'"),
         ({"item": ""}, "empty item id"),
         ({"item": "i0"}, "repeated (query_id, week, item_id) row")],
        ids=["fractional-week", "negative-week", "nan-label", "inf-label", "word-label",
             "negative-label",
             "inf-cell", "neg-inf-cell", "nan-cell", "word-cell", "empty-item", "repeat"],
    )
    def test_bad_dataset_row_names_line(self, dataset, tmp_path, fields, message):
        path = self._dataset_file(dataset, tmp_path, **fields)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: {message}")):
            read_dataset(path)
