"""Scalar reference feature code that the vectorized blocks are tested against.

``lookback_aggregates`` and ``velocity`` count one item's events the slow
way (the item block's oracle); ``engagement_features`` and
``engagement_counts`` walk one (query, item)'s sessions (the dataset
builder's engagement oracles);
``assemble_instance`` builds one feature row from a pool's provenance
cell by cell (the channel block's oracle).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from channelrank.core import CandidatePool, ItemId, WeekId
from channelrank.features import VELOCITY_EPS, FeatureSchema, LookbackConfig
from channelrank.labeling import Action, LabelWeights
from tests.label_oracle import InteractionEvent

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
    pool: CandidatePool,
    item: ItemId,
    item_values: Mapping[str, float],
    engagement_values: Mapping[str, float] | None = None,
) -> np.ndarray:
    """Build one feature vector aligned to ``schema``.

    Channel score/rank cells come from the pool's provenance; channels
    that did not retrieve the item stay NA. ``item_values`` must cover
    every item-group column (item features are never missing).
    ``engagement_values`` may be None, leaving engagement cells NA (the
    serve-time contract when no engagement map is supplied).
    """
    if item not in pool.candidates:
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
    hits = pool.provenance[item]
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
