"""Object-level label semantics that the columnar label path is tested against.

``funnel_counts`` reduces one (query, item, week)'s ``InteractionEvent``
list to session counts by deepest action, one session at a time;
``raw_label`` and ``normalize_labels`` apply the label formula to those
counts one item at a time. ``funnel_table`` with ``weighted_counts`` and
``max_normalize`` must give the same labels, exactly. ``to_events``
turns an ``EventFrame`` back into event objects, and ``restrict_weeks``
drops a frame's events from a given week on. ``unique_funnel_table`` is
the columnar ``funnel_table`` as it was built on ``np.unique``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from channelrank.core import ItemId, QueryId, WeekId
from channelrank.labeling import (
    WEEK_SECONDS,
    Action,
    EventFrame,
    FunnelTable,
    LabelWeights,
)


@dataclass(frozen=True, slots=True)
class InteractionEvent:
    """One logged user action on a (query, item) within a session."""

    query: QueryId
    item: ItemId
    session: str
    week: WeekId
    action: Action
    timestamp: float

    def __post_init__(self) -> None:
        if self.week < 0:
            raise ValueError(f"week must be >= 0, got {self.week}")
        lo = self.week * WEEK_SECONDS
        if not lo <= self.timestamp < lo + WEEK_SECONDS:
            raise ValueError(
                f"timestamp {self.timestamp} outside week {self.week} bounds"
            )


@dataclass(frozen=True, slots=True)
class FunnelCounts:
    """Per (query, item, week) session counts by deepest action."""

    query: QueryId
    item: ItemId
    week: WeekId
    views: int = 0
    clicks: int = 0
    atcs: int = 0
    purchases: int = 0

    def __post_init__(self) -> None:
        if min(self.views, self.clicks, self.atcs, self.purchases) < 0:
            raise ValueError("funnel counts must be non-negative")

    @property
    def n_sessions(self) -> int:
        return self.views + self.clicks + self.atcs + self.purchases


def deepest_action(events: Sequence[InteractionEvent]) -> Action:
    """Deepest funnel stage reached by one session on one (query, item)."""
    if not events:
        raise ValueError("deepest_action requires at least one event")
    first = events[0]
    for ev in events:
        if (ev.session, ev.query, ev.item) != (first.session, first.query, first.item):
            raise ValueError("events must share session, query, and item")
    return Action(max(ev.action for ev in events))


def funnel_counts(
    events: Sequence[InteractionEvent],
    query: QueryId | None = None,
    item: ItemId | None = None,
    week: WeekId | None = None,
) -> FunnelCounts:
    """Reduce all events for one (query, item, week) to funnel session counts.

    Each distinct session increments exactly one counter, chosen by its
    deepest action (an impression-only session counts as a view).
    """
    if events:
        first = events[0]
        query, item, week = first.query, first.item, first.week
        for ev in events:
            if (ev.query, ev.item, ev.week) != (query, item, week):
                raise ValueError("events must share query, item, and week")
    elif query is None or item is None or week is None:
        raise ValueError("empty event list requires explicit query/item/week")

    by_session: dict[str, Action] = {}
    for ev in events:
        prev = by_session.get(ev.session)
        if prev is None or ev.action > prev:
            by_session[ev.session] = ev.action
    tally = {action: 0 for action in Action}
    for action in by_session.values():
        tally[action] += 1
    return FunnelCounts(
        query=query,
        item=item,
        week=week,
        views=tally[Action.IMPRESSION],
        clicks=tally[Action.CLICK],
        atcs=tally[Action.ADD_TO_CART],
        purchases=tally[Action.PURCHASE],
    )


def raw_label(counts: FunnelCounts, weights: LabelWeights) -> float:
    """Weighted engagement aggregate a*P + b*A + c*C + d*V."""
    return (
        weights.a * counts.purchases
        + weights.b * counts.atcs
        + weights.c * counts.clicks
        + weights.d * counts.views
    )


def normalize_labels(raw: Mapping[ItemId, float]) -> dict[ItemId, float]:
    """Per-query max normalization onto [0, 4].

    The argmax maps to exactly 4.0; an all-zero group normalizes to all
    zeros rather than erroring (such groups carry no ranking signal but
    must not crash dataset construction).
    """
    if not raw:
        raise ValueError("normalize_labels requires a non-empty mapping")
    for item, value in raw.items():
        if value < 0:
            raise ValueError(f"negative raw label {value} for item {item!r}")
    peak = max(raw.values())
    if peak == 0.0:
        return {item: 0.0 for item in raw}
    return {item: 4.0 * value / peak for item, value in raw.items()}


def to_events(frame: EventFrame) -> list[InteractionEvent]:
    """Materialize a frame as event objects (intended for small frames)."""
    return [
        InteractionEvent(
            query=frame.query_vocab[q],
            item=frame.item_vocab[i],
            session=frame.session_name(s),
            week=int(w),
            action=Action(int(a)),
            timestamp=float(t),
        )
        for q, i, s, w, a, t in zip(
            frame.query, frame.item, frame.session, frame.week, frame.action,
            frame.timestamp,
        )
    ]


def restrict_weeks(frame: EventFrame, max_week_exclusive: int) -> EventFrame:
    """The frame without its events at or after the given week."""
    mask = frame.week < max_week_exclusive
    return EventFrame(
        week=frame.week[mask],
        session=frame.session[mask],
        query=frame.query[mask],
        item=frame.item[mask],
        action=frame.action[mask],
        timestamp=frame.timestamp[mask],
        query_vocab=frame.query_vocab,
        item_vocab=frame.item_vocab,
        session_vocab=frame.session_vocab,
    )


def unique_funnel_table(frame: EventFrame) -> FunnelTable:
    """Compute per (query, item, week) funnel counts for a whole frame."""
    if len(frame) == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return FunnelTable(*(empty_i.copy() for _ in range(7)))
    n_items = len(frame.item_vocab)
    n_weeks = int(frame.week.max()) + 1
    group_key = (
        frame.query.astype(np.int64) * n_items + frame.item
    ) * n_weeks + frame.week
    session_key = np.stack([group_key, frame.session.astype(np.int64)], axis=1)
    # Deepest action per (group, session).
    uniq, inverse = np.unique(
        session_key.view([("g", np.int64), ("s", np.int64)]).ravel(),
        return_inverse=True,
    )
    deepest = np.zeros(len(uniq), dtype=np.int64)
    np.maximum.at(deepest, inverse, frame.action.astype(np.int64))
    sess_group = uniq["g"]
    group_ids, group_inverse = np.unique(sess_group, return_inverse=True)
    counts = np.bincount(
        group_inverse * 4 + deepest, minlength=len(group_ids) * 4
    ).reshape(len(group_ids), 4)
    week = group_ids % n_weeks
    rest = group_ids // n_weeks
    item = rest % n_items
    query = rest // n_items
    return FunnelTable(
        query=query.astype(np.int64),
        item=item.astype(np.int64),
        week=week.astype(np.int64),
        views=counts[:, 0],
        clicks=counts[:, 1],
        atcs=counts[:, 2],
        purchases=counts[:, 3],
    )
