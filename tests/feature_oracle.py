"""Scalar reference feature code that the vectorized blocks are tested against.

``lookback_aggregates`` and ``velocity`` count one item's events the slow
way (the item block's oracle); ``engagement_features`` and
``engagement_counts`` walk one (query, item)'s sessions (the dataset
builder's engagement oracles);
``assemble_instance`` builds one feature row from the hits that
``tests.pool_oracle.reference_provenance`` reads from the channel lists,
cell by cell (the channel block's oracle); ``group_build_dataset``
builds the instance table one (query, week) group at a time (the
dataset builder's oracle).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from channelrank.core import (
    ChannelId,
    ChannelList,
    ItemId,
    QueryId,
    TruncationConfig,
    WeekId,
    merge_pool,
)
from channelrank.dataset import Dataset, ItemCatalog, _recode_items, item_count_table
from channelrank.features import (
    VELOCITY_EPS,
    FeatureSchema,
    LookbackConfig,
    build_schema,
    engagement_columns,
    fill_channel_block,
    item_feature_block,
)
from channelrank.labeling import (
    HEURISTIC_WEIGHTS,
    Action,
    EventFrame,
    LabelWeights,
    calibrate_weights,
    corpus_stats,
    funnel_table,
    max_normalize,
    weighted_counts,
)
from channelrank.metrics import QueryGroups
from tests.label_oracle import InteractionEvent
from tests.pool_oracle import Provenance

NA = np.nan


@dataclass(frozen=True, slots=True)
class ActionCounts:
    impressions: int = 0
    clicks: int = 0
    atcs: int = 0
    purchases: int = 0


def lookback_aggregates(
    events: Iterable[InteractionEvent],
    as_of: WeekId,
    cfg: LookbackConfig,
) -> dict[int, ActionCounts]:
    """Raw event counts per action over each trailing window ending at as_of - 1.

    Window L covers weeks [as_of - L, as_of - 1]; events at or after
    ``as_of`` never contribute.
    """
    if as_of < 1:
        raise ValueError(f"as_of must be >= 1, got {as_of}")
    tallies = {w: [0, 0, 0, 0] for w in cfg.windows}
    for ev in events:
        if ev.week >= as_of:
            continue
        age = as_of - ev.week  # >= 1
        for window in cfg.windows:
            if age <= window:
                tallies[window][int(ev.action)] += 1
    return {
        w: ActionCounts(
            impressions=t[int(Action.IMPRESSION)],
            clicks=t[int(Action.CLICK)],
            atcs=t[int(Action.ADD_TO_CART)],
            purchases=t[int(Action.PURCHASE)],
        )
        for w, t in tallies.items()
    }


def velocity(
    short_count: float, long_count: float, short_len: float, long_len: float
) -> float:
    """Short-window rate over long-window rate; ~1 steady, >1 accelerating.

    A small epsilon keeps the ratio finite when the long window is empty;
    an empty short window yields exactly 0.
    """
    if short_len <= 0 or long_len <= 0:
        raise ValueError("window lengths must be positive")
    if short_count == 0:
        return 0.0
    return (short_count / short_len) / ((long_count / long_len) + VELOCITY_EPS)


def decay_factor(age_weeks: np.ndarray | float, half_life: float) -> np.ndarray | float:
    """Exponential decay 2**(-age/half_life); halves every half_life weeks."""
    return np.exp2(-np.asarray(age_weeks, dtype=np.float64) / half_life)


def _deepest_actions(
    events: Sequence[InteractionEvent], as_of: WeekId
) -> dict[tuple[str, int], Action]:
    """The deepest action of each (session, week) before ``as_of``."""
    by_session: dict[tuple[str, int], Action] = {}
    for ev in events:
        if ev.week >= as_of:
            continue
        key = (ev.session, ev.week)
        prev = by_session.get(key)
        if prev is None or ev.action > prev:
            by_session[key] = ev.action
    return by_session


def engagement_counts(
    events: Sequence[InteractionEvent], as_of: WeekId, cfg: LookbackConfig
) -> dict[int, ActionCounts]:
    """Sessions of one (query, item) per window that reached at least each action.

    A session that ended in a purchase counts toward clicks, add-to-carts
    and purchases alike; window L keeps sessions with age <= L.
    ``impressions`` counts every session in the window.
    """
    tallies = {window: [0, 0, 0, 0] for window in cfg.windows}
    for (_, week), action in _deepest_actions(events, as_of).items():
        for window in cfg.windows:
            if as_of - week <= window:
                for reached in range(int(action) + 1):
                    tallies[window][reached] += 1
    return {window: ActionCounts(*t) for window, t in tallies.items()}


def engagement_features(
    events: Sequence[InteractionEvent],
    as_of: WeekId,
    weights: LabelWeights,
    cfg: LookbackConfig,
) -> dict[int, float]:
    """Decayed, weighted session engagement for one (query, item).

    Each session contributes weight(deepest action) * 2**(-age/half_life),
    where age = as_of - session_week. Sessions at or after ``as_of`` are
    excluded; window L keeps sessions with age <= L. No per-query
    normalization is applied.
    """
    # Indexed by Action value: view weight first.
    w_arr = (weights.d, weights.c, weights.b, weights.a)
    out = {window: 0.0 for window in cfg.windows}
    for (_, week), action in _deepest_actions(events, as_of).items():
        age = as_of - week
        contribution = float(w_arr[int(action)]) * float(
            decay_factor(age, cfg.decay_half_life)
        )
        for window in cfg.windows:
            if age <= window:
                out[window] += contribution
    return out


def assemble_instance(
    schema: FeatureSchema,
    provenance: Provenance,
    item: ItemId,
    item_values: Mapping[str, float],
    engagement_values: Mapping[str, float] | None = None,
) -> np.ndarray:
    """Build one feature vector aligned to ``schema``.

    Channel score/rank cells come from the item's hits in ``provenance``;
    channels that did not retrieve the item stay NA. ``item_values`` must cover
    every item-group column (item features are never missing).
    ``engagement_values`` may be None, leaving engagement cells NA (the
    serve-time contract when no engagement map is supplied).
    """
    if item not in provenance:
        raise ValueError(f"item {item!r} not in candidate pool")
    vec = np.full(len(schema), NA, dtype=np.float64)
    for i, col in enumerate(schema.columns):
        if col.group == "item":
            if col.name not in item_values:
                raise ValueError(f"missing item feature {col.name!r}")
            vec[i] = float(item_values[col.name])
        elif col.group == "engagement":
            if engagement_values is not None and col.name in engagement_values:
                vec[i] = float(engagement_values[col.name])
    hits = provenance[item]
    for hit in hits:
        score_col = f"ch_{hit.channel.name}_score"
        rank_col = f"ch_{hit.channel.name}_rank"
        vec[schema.index_of(score_col)] = hit.score
        vec[schema.index_of(rank_col)] = float(hit.rank)
    try:
        vec[schema.index_of("ch_hit_count")] = float(len(hits))
    except KeyError:
        pass
    return vec


def group_build_dataset(
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
    """``build_dataset`` one (query, week) group at a time.

    Each group looks up its funnel rows per lag, sums engagement over
    lags 1..min(window, week) and stacks its own block; the whole-table
    builder must give the same bytes.
    """
    frame = _recode_items(events, catalog)
    keys = sorted(set(keys))
    n_items = len(catalog.item_vocab)
    num_weeks = int(max(int(frame.week.max(initial=0)), max(w for _, w in keys))) + 1

    funnel = funnel_table(frame)
    if conversion_weights is None:
        conversion_weights = calibrate_weights(corpus_stats(funnel, train_weeks))

    fkey = (funnel.query * n_items + funnel.item) * num_weeks + funnel.week
    fvcap = np.column_stack(
        [funnel.views, funnel.clicks, funnel.atcs, funnel.purchases]
    ).astype(np.float64)

    def funnel_lookup(q: int, items: np.ndarray, week: int) -> np.ndarray:
        """Rows (len(items), 4) of V,C,A,P session counts; zeros if absent."""
        out = np.zeros((len(items), 4))
        if week < 0:
            return out
        want = (q * n_items + items) * num_weeks + week
        idx = np.searchsorted(fkey, want)
        ok = idx < len(fkey)
        ok[ok] = fkey[idx[ok]] == want[ok]
        out[ok] = fvcap[idx[ok]]
        return out

    item_counts = item_count_table(frame, catalog, num_weeks)
    schema = build_schema(channels, lookback)
    col = {name: i for i, name in enumerate(schema.names)}
    item_cols = np.flatnonzero(schema.group_mask("item"))
    windows = lookback.windows
    max_window = max(windows)
    decay = np.exp2(-np.arange(1, max_window + 1) / lookback.decay_half_life)
    w_conv = conversion_weights

    X_parts, lab_conv_parts, lab_heur_parts, purchases_parts, icode_parts = [], [], [], [], []
    group_sizes = []
    catalog_index = catalog.index()
    for q, week in keys:
        pool = merge_pool(channel_lists[week][frame.query_vocab[q]], truncation)
        items = np.array([catalog_index[i] for i in pool.items], dtype=np.int64)
        m = len(items)
        block = np.full((m, len(schema)), np.nan)
        block[:, item_cols] = item_feature_block(
            schema, lookback, item_counts, catalog, items, week
        )
        lag_rows = [funnel_lookup(q, items, week - d) for d in range(1, max_window + 1)]
        for window in windows:
            eng = np.zeros(m)
            clicks = np.zeros(m)
            atcs = np.zeros(m)
            purch = np.zeros(m)
            for d in range(1, min(window, week) + 1):
                rows = lag_rows[d - 1]
                eng += decay[d - 1] * weighted_counts(rows, w_conv)
                clicks += rows[:, 1] + rows[:, 2] + rows[:, 3]
                atcs += rows[:, 2] + rows[:, 3]
                purch += rows[:, 3]
            for name, values in zip(engagement_columns(window), (eng, clicks, atcs, purch)):
                block[:, col[name]] = values
        fill_channel_block(block, schema, pool)

        now = funnel_lookup(q, items, week)
        X_parts.append(block)
        lab_conv_parts.append(max_normalize(weighted_counts(now, w_conv)))
        lab_heur_parts.append(max_normalize(weighted_counts(now, HEURISTIC_WEIGHTS)))
        purchases_parts.append(now[:, 3])
        icode_parts.append(items)
        group_sizes.append(m)

    groups = QueryGroups.from_ids(np.repeat(np.arange(len(keys)), group_sizes))
    query_weeks = np.array(keys, dtype=np.int64)[groups.codes]
    return Dataset(
        schema=schema,
        X=np.vstack(X_parts),
        labels_conversion=np.concatenate(lab_conv_parts),
        labels_heuristic=np.concatenate(lab_heur_parts),
        purchases=np.concatenate(purchases_parts),
        query_codes=query_weeks[:, 0].copy(),
        item_codes=np.concatenate(icode_parts),
        weeks=query_weeks[:, 1].copy(),
        group_keys=list(keys),
        groups=groups,
        query_vocab=frame.query_vocab,
        item_vocab=catalog.item_vocab,
        conversion_weights=conversion_weights,
        lookback=lookback,
        channels=tuple(sorted(channels, key=lambda c: c.index)),
        truncation=truncation,
    )
