"""Dataset assembly: events + weekly channel lists -> labeled instances.

One instance per (query, item, week) for every item in the query-week's
merged candidate pool. Labels come from that week's funnel counts
(conversion-weighted and heuristic variants are both materialized);
every temporal feature is computed strictly from weeks before the
instance week. Rows are ordered by (query, week) group, items ascending
within a group, which downstream code relies on for deterministic
tie-breaking.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .core import (
    ChannelId,
    ChannelList,
    QueryId,
    TruncationConfig,
    merge_pool,
    parse_finite,
    read_fields,
)
from .features import (
    FeatureSchema,
    LookbackConfig,
    build_schema,
    engagement_columns,
    fill_channel_block,
    item_feature_block,
)
from .labeling import (
    EventFrame,
    HEURISTIC_WEIGHTS,
    LabelWeights,
    calibrate_weights,
    corpus_stats,
    funnel_table,
    max_normalize,
    weighted_counts,
)
from .metrics import QueryGroups


@dataclass(slots=True)
class ItemCatalog:
    """Static item attributes used for item-group features."""

    item_vocab: tuple[str, ...]
    price: np.ndarray
    category: np.ndarray
    intro_week: np.ndarray

    def index(self) -> dict[str, int]:
        return {item: i for i, item in enumerate(self.item_vocab)}


def write_item_catalog(path: str, catalog: ItemCatalog) -> None:
    """Tab-separated: ``item_id<TAB>price<TAB>category<TAB>intro_week``."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, item in enumerate(catalog.item_vocab):
            fh.write(
                f"{item}\t{float(catalog.price[i])!r}\t{int(catalog.category[i])}\t"
                f"{int(catalog.intro_week[i])}\n"
            )


def read_item_catalog(path: str) -> ItemCatalog:
    """Load a catalog written by :func:`write_item_catalog`.

    A non-finite price, a non-integer category or intro week and a
    repeated item id are rejected with ``path:line``.
    """
    items: dict[str, None] = {}
    price: list[float] = []
    category: list[int] = []
    intro: list[int] = []
    for lineno, (item, price_text, category_text, intro_text) in read_fields(
        path, 4, {0: "item"}
    ):
        if item in items:
            raise ValueError(f"{path}:{lineno}: duplicate item id {item!r}")
        items[item] = None
        price.append(parse_finite(price_text, "price", path, lineno))
        for name, text, column in (
            ("category", category_text, category),
            ("intro_week", intro_text, intro),
        ):
            try:
                column.append(int(text))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {name} {text!r} is not an integer") from None
    return ItemCatalog(
        item_vocab=tuple(items),
        price=np.array(price),
        category=np.array(category, dtype=np.int64),
        intro_week=np.array(intro, dtype=np.int64),
    )


@dataclass(slots=True)
class Dataset:
    """Materialized instance table plus everything evaluation needs."""

    schema: FeatureSchema
    X: np.ndarray
    labels_conversion: np.ndarray
    labels_heuristic: np.ndarray
    purchases: np.ndarray
    query_codes: np.ndarray
    item_codes: np.ndarray
    weeks: np.ndarray
    group_keys: list[tuple[int, int]]
    groups: QueryGroups
    query_vocab: tuple[str, ...]
    item_vocab: tuple[str, ...]
    conversion_weights: LabelWeights
    lookback: LookbackConfig
    channels: tuple[ChannelId, ...]
    truncation: TruncationConfig

    def __len__(self) -> int:
        return len(self.X)

    @property
    def group_ids(self) -> np.ndarray:
        """Each row's group, as an index into ``group_keys``."""
        return self.groups.codes

    def mask_for(self, keys: Iterable[tuple[int, int]]) -> np.ndarray:
        """Row mask covering the given (query_code, week) groups."""
        wanted = set(keys)
        group_in = np.array([key in wanted for key in self.group_keys])
        return group_in[self.group_ids]

    def labels(self, scheme: str) -> np.ndarray:
        if scheme == "conversion":
            return self.labels_conversion
        if scheme == "heuristic":
            return self.labels_heuristic
        raise ValueError(f"unknown label scheme {scheme!r}")

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.X.tobytes())
        digest.update(self.labels_conversion.tobytes())
        digest.update(self.labels_heuristic.tobytes())
        digest.update(self.query_codes.tobytes())
        digest.update(self.item_codes.tobytes())
        digest.update(self.weeks.tobytes())
        return digest.hexdigest()


def _recode_items(frame: EventFrame, catalog: ItemCatalog) -> EventFrame:
    """Remap event item codes onto the catalog's code space."""
    if frame.item_vocab == catalog.item_vocab:
        return frame
    index = catalog.index()
    try:
        mapping = np.array([index[item] for item in frame.item_vocab], dtype=np.int32)
    except KeyError as exc:
        raise ValueError(f"event log references unknown item {exc.args[0]!r}") from exc
    return EventFrame(
        week=frame.week,
        session=frame.session,
        query=frame.query,
        item=mapping[frame.item],
        action=frame.action,
        timestamp=frame.timestamp,
        query_vocab=frame.query_vocab,
        item_vocab=catalog.item_vocab,
        session_vocab=frame.session_vocab,
    )


def item_count_table(
    events: EventFrame, catalog: ItemCatalog, num_weeks: int
) -> np.ndarray:
    """Per-item event counts by action, cumulative over weeks.

    Shape (catalog items, num_weeks, 4): entry [i, w, a] counts events of
    action a on catalog item i in weeks 0..w; num_weeks must exceed every
    event week.
    """
    frame = _recode_items(events, catalog)
    counts = np.zeros((len(catalog.item_vocab), num_weeks, 4))
    np.add.at(counts, (frame.item, frame.week, frame.action), 1.0)
    return np.cumsum(counts, axis=1)


def build_dataset(
    events: EventFrame,
    channel_lists: Mapping[int, Mapping[QueryId, list[ChannelList]]],
    catalog: ItemCatalog,
    channels: Sequence[ChannelId],
    keys: Iterable[tuple[int, int]],
    truncation: TruncationConfig,
    lookback: LookbackConfig = LookbackConfig(),
    train_weeks: Sequence[int] = (0, 1, 2),
    conversion_weights: LabelWeights | None = None,
) -> Dataset:
    """Materialize labeled instances for the given (query_code, week) groups.

    ``conversion_weights`` defaults to corpus calibration over
    ``train_weeks`` of the event log. Engagement features always use the
    conversion weights, so all model variants share identical features.

    Only pools and channel cells are made group by group. The item block
    and the funnel rows are whole-table passes, one funnel gather per lag
    (lag 0 gives labels and purchases); a lag before week 0 or an absent
    key reads zeros, which add nothing to the engagement sums.
    """
    frame = _recode_items(events, catalog)
    keys = sorted(set(keys))
    if not keys:
        raise ValueError("no (query, week) groups to materialize")
    n_items = len(catalog.item_vocab)
    num_weeks = int(max(int(frame.week.max(initial=0)), max(w for _, w in keys))) + 1

    funnel = funnel_table(frame)
    if conversion_weights is None:
        conversion_weights = calibrate_weights(corpus_stats(funnel, train_weeks))

    catalog_index = catalog.index()
    pools = []
    for q, week in keys:
        qstr = frame.query_vocab[q]
        try:
            lists = channel_lists[week][qstr]
        except KeyError as exc:
            raise ValueError(f"no channel lists for query {qstr!r} week {week}") from exc
        pools.append(merge_pool(lists, truncation))
        if not len(pools[-1]):
            # Group codes index group_keys only if no group is empty.
            raise ValueError(f"empty candidate pool for query {qstr!r} week {week}")
    groups = QueryGroups.from_ids(np.repeat(np.arange(len(keys)), [len(p) for p in pools]))
    query_weeks = np.array(keys, dtype=np.int64)[groups.codes]
    queries, weeks = query_weeks[:, 0].copy(), query_weeks[:, 1].copy()
    items = np.array([catalog_index[i] for p in pools for i in p.items], dtype=np.int64)

    schema = build_schema(channels, lookback)
    X = np.full((len(items), len(schema)), np.nan)
    for start, pool in zip(groups.starts, pools):
        fill_channel_block(X[start:start + len(pool)], schema, pool)
    X[:, schema.group_mask("item")] = item_feature_block(
        schema, lookback, item_count_table(frame, catalog, num_weeks), catalog, items, weeks
    )

    # Sorted funnel keys of (q, i, w), then a sentinel whose row is all zeros.
    fkey = np.append(
        (funnel.query * n_items + funnel.item) * num_weeks + funnel.week,
        np.iinfo(np.int64).max,
    )
    fvcap = np.zeros((len(fkey), 4))
    fvcap[:-1] = np.column_stack([funnel.views, funnel.clicks, funnel.atcs, funnel.purchases])
    row_key = (queries * n_items + items) * num_weeks + weeks

    def funnel_rows(lag: int) -> np.ndarray:
        """Each row's V,C,A,P session counts ``lag`` weeks back; zeros if absent."""
        want = row_key - lag
        at = np.searchsorted(fkey, want)
        at[(weeks < lag) | (fkey[at] != want)] = len(fkey) - 1
        return fvcap[at]

    max_window = max(lookback.windows)
    decay = np.exp2(-np.arange(1, max_window + 1) / lookback.decay_half_life)
    # Running (engagement, clicks, atcs, purchases) sums over lags 1..window.
    totals = np.zeros((4, len(items)))
    for lag in range(1, max_window + 1):
        rows = funnel_rows(lag)
        totals[0] += decay[lag - 1] * weighted_counts(rows, conversion_weights)
        totals[1] += rows[:, 1] + rows[:, 2] + rows[:, 3]
        totals[2] += rows[:, 2] + rows[:, 3]
        totals[3] += rows[:, 3]
        if lag in lookback.windows:
            X[:, [schema.index_of(name) for name in engagement_columns(lag)]] = totals.T

    now = funnel_rows(0)

    def labels(weights: LabelWeights) -> np.ndarray:
        raw = weighted_counts(now, weights)
        return np.concatenate([max_normalize(raw[a:b]) for a, b in pairwise(groups.starts)])

    return Dataset(
        schema=schema,
        X=X,
        labels_conversion=labels(conversion_weights),
        labels_heuristic=labels(HEURISTIC_WEIGHTS),
        purchases=now[:, 3].copy(),
        query_codes=queries,
        item_codes=items,
        weeks=weeks,
        group_keys=list(keys),
        groups=groups,
        query_vocab=frame.query_vocab,
        item_vocab=catalog.item_vocab,
        conversion_weights=conversion_weights,
        lookback=lookback,
        channels=tuple(sorted(channels, key=lambda c: c.index)),
        truncation=truncation,
    )


# ---------------------------------------------------------------------------
# Columnar text interchange
# ---------------------------------------------------------------------------


def write_dataset(
    dataset: Dataset,
    path: str,
    label_scheme: str = "conversion",
    include_labels: bool = True,
) -> None:
    """Write the instance table as CSV with ``NA`` for missing cells.

    Header: ``query_id,item_id,week,label,<feature columns...>`` (the
    label column is omitted when ``include_labels`` is false). The schema
    sidecar (JSON) lands next to it, at ``path + ".schema.json"``.
    """
    columns = [
        [dataset.query_vocab[q] for q in dataset.query_codes.tolist()],
        [dataset.item_vocab[i] for i in dataset.item_codes.tolist()],
        [str(w) for w in dataset.weeks.tolist()],
    ]
    if include_labels:
        columns.append([repr(v) for v in dataset.labels(label_scheme).tolist()])
    with open(path, "w", encoding="utf-8") as fh:
        head = ["query_id", "item_id", "week"]
        if include_labels:
            head.append("label")
        head.extend(dataset.schema.names)
        fh.write(",".join(head) + "\n")
        # ``tolist`` gives Python floats, whose ``repr`` is the float64's;
        # only NaN differs from itself.
        for keys, row in zip(zip(*columns), dataset.X.tolist()):
            fh.write(",".join([*keys, *("NA" if v != v else repr(v) for v in row)]) + "\n")
    with open(path + ".schema.json", "w", encoding="utf-8") as fh:
        fh.write(dataset.schema.to_json())


@dataclass(slots=True)
class LoadedDataset:
    """Instance table read back from the CSV interchange format."""

    schema: FeatureSchema
    X: np.ndarray
    labels: np.ndarray
    weeks: np.ndarray
    group_ids: np.ndarray


def read_dataset(path: str) -> LoadedDataset:
    """Load an instance table written by :func:`write_dataset` with its labels.

    A malformed schema sidecar is rejected with its path. A header that
    does not match it, a week that is not a non-negative integer, a label
    that is negative, a label or feature cell that is not a finite number
    or ``NA``, and a repeated ``(query_id, week, item_id)`` row are
    rejected with ``path:line``.
    """
    sidecar = path + ".schema.json"
    with open(sidecar, encoding="utf-8") as fh:
        try:
            schema = FeatureSchema.from_json(fh.read())
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{sidecar}: malformed feature schema ({exc!r})") from None
    query_ids: list[str] = []
    item_ids: list[str] = []
    weeks: list[int] = []
    labels: list[float] = []
    rows: list[np.ndarray] = []
    linenos: list[int] = []
    na_counts: list[int] = []
    lines = read_fields(path, ids={0: "query", 1: "item"}, sep=",")
    _, header = next(lines, (1, []))
    if header != ["query_id", "item_id", "week", "label", *schema.names]:
        raise ValueError(f"{path}:1: header does not match schema sidecar")
    for lineno, parts in lines:
        week = parts[2]
        if not (week.isascii() and week.isdigit()):
            raise ValueError(f"{path}:{lineno}: week {week!r} is not a non-negative integer")
        cells = parts[4:]
        try:
            labels.append(float(parts[3]))
            rows.append(
                np.array([np.nan if v == "NA" else float(v) for v in cells], dtype=np.float64)
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        query_ids.append(parts[0])
        item_ids.append(parts[1])
        weeks.append(int(week))
        linenos.append(lineno)
        na_counts.append(cells.count("NA"))
    if not rows:
        raise ValueError(f"{path}: no instances")
    X = np.vstack(rows)
    label_arr = np.array(labels)
    # NA is the only way to write a missing cell, so a row holds exactly
    # as many NaN cells as NA fields.
    bad = ~np.isfinite(label_arr) | np.isinf(X).any(axis=1)
    bad |= np.isnan(X).sum(axis=1) != na_counts
    if bad.any():
        raise ValueError(
            f"{path}:{linenos[int(np.argmax(bad))]}: non-finite label or feature cell "
            "(a missing cell is written NA)"
        )
    negative = np.flatnonzero(label_arr < 0.0)
    if len(negative):
        row = negative[0]
        raise ValueError(f"{path}:{linenos[row]}: label {label_arr[row]} is negative")
    # Each row's id is its (query_id, week) tuple, so an error names the key.
    keys = np.fromiter(zip(query_ids, weeks), dtype=object, count=len(weeks))
    try:
        groups = QueryGroups.from_ids(keys)
    except ValueError as exc:
        raise ValueError(f"{path}: (query_id, week) {exc}") from None
    # Sorted by (group, item) with ties in file order, a repeat sits right
    # after an earlier copy of its row.
    item_codes = np.unique(np.array(item_ids), return_inverse=True)[1]
    order = np.lexsort((item_codes, groups.codes))
    repeat = (np.diff(groups.codes[order]) == 0) & (np.diff(item_codes[order]) == 0)
    if repeat.any():
        raise ValueError(
            f"{path}:{linenos[int(order[1:][repeat].min())]}: repeated "
            "(query_id, week, item_id) row"
        )
    return LoadedDataset(
        schema=schema,
        X=X,
        labels=label_arr,
        weeks=np.array(weeks, dtype=np.int64),
        group_ids=groups.codes,
    )
