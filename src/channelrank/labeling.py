"""Conversion-funnel label construction.

Sessions interact with a (query, item) in a weekly window through the
hierarchy impression -> click -> add-to-cart -> purchase. Each session is
reduced to its deepest action; per (query, item, week) the view-only /
click / add-to-cart / purchase session counts form the funnel summary.
A scalar engagement label is a weighted sum of those counts with weights
calibrated from corpus-level conversion statistics, then max-normalized
per query onto [0, 4].

:func:`funnel_table` reduces an :class:`EventFrame` to those counts;
:func:`weighted_counts` and :func:`max_normalize` are the one label
formula that the dataset builder applies to them.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import parse_finite, read_fields

WEEK_SECONDS = 7 * 24 * 3600
_MAX_WEEK = int(np.iinfo(np.int32).max)  # the largest week an EventFrame holds


class Action(enum.IntEnum):
    """Funnel stages, ordered by depth."""

    IMPRESSION = 0
    CLICK = 1
    ADD_TO_CART = 2
    PURCHASE = 3


_ACTION_NAMES = {
    Action.IMPRESSION: "impression",
    Action.CLICK: "click",
    Action.ADD_TO_CART: "atc",
    Action.PURCHASE: "purchase",
}
_ACTION_CODES = {name: int(action) for action, name in _ACTION_NAMES.items()}


class CalibrationError(ValueError):
    """Raised when corpus statistics cannot support weight calibration."""


@dataclass(frozen=True, slots=True)
class CorpusStats:
    """Corpus-level funnel totals over the training weeks.

    Totals use nested ("reached at least this stage") session counts, so
    purchases <= atcs <= clicks whenever the log respects the funnel
    hierarchy, and the calibrated weight chain holds without clamping.
    """

    total_purchases: int
    total_atcs: int
    total_clicks: int

    def __post_init__(self) -> None:
        if min(self.total_purchases, self.total_atcs, self.total_clicks) < 0:
            raise ValueError("corpus totals must be non-negative")


@dataclass(frozen=True, slots=True)
class LabelWeights:
    """Funnel-stage weights (purchase, atc, click, view), non-increasing."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not (self.a >= self.b >= self.c >= self.d >= 0.0):
            raise ValueError(
                f"weights must satisfy a >= b >= c >= d >= 0, got "
                f"({self.a}, {self.b}, {self.c}, {self.d})"
            )


#: Fixed graded-relevance weights for the heuristic-label model variant.
HEURISTIC_WEIGHTS = LabelWeights(a=4.0, b=3.0, c=2.0, d=0.0)


def calibrate_weights(stats: CorpusStats) -> LabelWeights:
    """Corpus-calibrated weights: (1, purchases/atcs, purchases/clicks, 0).

    Rarer, higher-value actions get larger weights. If the corpus funnel
    is anomalous (more purchases than add-to-carts), b and then c are
    clamped so the non-increasing chain still holds.
    """
    if stats.total_atcs == 0:
        raise CalibrationError("total_atcs is zero; cannot calibrate b")
    if stats.total_clicks == 0:
        raise CalibrationError("total_clicks is zero; cannot calibrate c")
    b = stats.total_purchases / stats.total_atcs
    c = stats.total_purchases / stats.total_clicks
    b = min(b, 1.0)
    c = min(c, b)
    return LabelWeights(a=1.0, b=b, c=c, d=0.0)


def weighted_counts(rows: np.ndarray, w: LabelWeights) -> np.ndarray:
    """Per row of (views, clicks, atcs, purchases) counts: a*P + b*A + c*C + d*V."""
    return w.a * rows[:, 3] + w.b * rows[:, 2] + w.c * rows[:, 1] + w.d * rows[:, 0]


def max_normalize(raw: np.ndarray) -> np.ndarray:
    """Scale onto [0, 4] by the group's peak; all zeros when nothing engaged."""
    peak = raw.max() if len(raw) else 0.0
    if peak <= 0.0:
        return np.zeros_like(raw)
    return 4.0 * raw / peak


# ---------------------------------------------------------------------------
# Columnar events and funnel counts
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class EventFrame:
    """Columnar event log: parallel arrays plus id vocabularies.

    Both ``generate`` and :func:`read_event_log` build compact columns,
    29 bytes per event: ``week`` int32, ``query`` and ``item`` int32 codes
    into the vocab tuples, ``action`` int8, ``session`` int64 codes unique
    within the frame and ``timestamp`` float64. A consumer that combines
    columns into one key (query, item, week) widens to int64 first. The
    pinned event digest hashes each column cast to int64 (``timestamp``
    to float64), so it pins values, not dtypes. The textual session ids
    are reconstructed as ``s{code}`` when no vocab is kept.
    """

    week: np.ndarray
    session: np.ndarray
    query: np.ndarray
    item: np.ndarray
    action: np.ndarray
    timestamp: np.ndarray
    query_vocab: tuple[str, ...]
    item_vocab: tuple[str, ...]
    session_vocab: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.week)

    def session_name(self, code: int) -> str:
        if self.session_vocab is not None:
            return self.session_vocab[code]
        return f"s{code}"


@dataclass(slots=True)
class FunnelTable:
    """Vectorized funnel summaries: one row per (query, item, week) group."""

    query: np.ndarray
    item: np.ndarray
    week: np.ndarray
    views: np.ndarray
    clicks: np.ndarray
    atcs: np.ndarray
    purchases: np.ndarray

    def __len__(self) -> int:
        return len(self.week)


def funnel_table(frame: EventFrame) -> FunnelTable:
    """Compute per (query, item, week) funnel counts for a whole frame.

    One sort brings each (group, session)'s events together, groups
    ascending; each run's deepest action is its session's, and each
    group's sessions are tallied by that action. Groups come out in
    (query, item, week) order.
    """
    if len(frame) == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return FunnelTable(*(empty_i.copy() for _ in range(7)))
    n_items = len(frame.item_vocab)
    n_weeks = int(frame.week.max()) + 1
    group_key = frame.query.astype(np.int64, copy=False) * n_items
    group_key += frame.item
    group_key *= n_weeks
    group_key += frame.week
    order = np.lexsort((frame.session, group_key))
    group_key = group_key[order]
    session = frame.session[order]
    # A (group, session) run starts where either key changes; a group's
    # first session starts where the group key does.
    new_group = np.empty(len(order), dtype=bool)
    new_group[0] = True
    np.not_equal(group_key[1:], group_key[:-1], out=new_group[1:])
    new_session = new_group.copy()
    new_session[1:] |= session[1:] != session[:-1]
    session_starts = np.flatnonzero(new_session)
    deepest = np.maximum.reduceat(frame.action[order], session_starts)
    group_ids = group_key[new_group]
    group_of_session = np.cumsum(new_group[session_starts]) - 1
    counts = np.bincount(
        group_of_session * 4 + deepest, minlength=len(group_ids) * 4
    ).reshape(len(group_ids), 4)
    week = group_ids % n_weeks
    rest = group_ids // n_weeks
    item = rest % n_items
    query = rest // n_items
    return FunnelTable(
        query=query,
        item=item,
        week=week,
        views=counts[:, 0],
        clicks=counts[:, 1],
        atcs=counts[:, 2],
        purchases=counts[:, 3],
    )


def corpus_stats(table: FunnelTable, train_weeks: Iterable[int]) -> CorpusStats:
    """Nested funnel totals restricted to the training weeks (no leakage)."""
    weeks = np.asarray(sorted(set(int(w) for w in train_weeks)))
    keep = np.isin(table.week, weeks)
    p = int(table.purchases[keep].sum())
    a = p + int(table.atcs[keep].sum())
    c = a + int(table.clicks[keep].sum())
    return CorpusStats(total_purchases=p, total_atcs=a, total_clicks=c)


# ---------------------------------------------------------------------------
# Event log text format
# ---------------------------------------------------------------------------


def write_event_log(path: str, frame: EventFrame) -> None:
    """Write the tab-separated event log.

    One line per event:
    ``timestamp<TAB>week<TAB>session_id<TAB>query_id<TAB>item_id<TAB>action``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for q, i, s, w, a, t in zip(
            frame.query, frame.item, frame.session, frame.week, frame.action,
            frame.timestamp,
        ):
            fh.write(
                f"{float(t)!r}\t{int(w)}\t{frame.session_name(int(s))}\t"
                f"{frame.query_vocab[q]}\t{frame.item_vocab[i]}\t"
                f"{_ACTION_NAMES[Action(int(a))]}\n"
            )


def read_event_log(path: str) -> EventFrame:
    """Load a tab-separated event log into an :class:`EventFrame`."""
    timestamps: list[float] = []
    weeks: list[int] = []
    sessions: list[str] = []
    queries: list[str] = []
    items: list[str] = []
    actions: list[int] = []
    for lineno, (t, w, s, q, i, a) in read_fields(
        path, 6, {2: "session", 3: "query", 4: "item"}
    ):
        if a not in _ACTION_CODES:
            raise ValueError(f"{path}:{lineno}: unknown action {a!r}")
        timestamps.append(parse_finite(t, "timestamp", path, lineno))
        if not (w.isascii() and w.isdigit()):
            raise ValueError(f"{path}:{lineno}: week {w!r} is not a non-negative integer")
        week = int(w)
        if week > _MAX_WEEK:
            raise ValueError(f"{path}:{lineno}: week {w} is above {_MAX_WEEK}")
        weeks.append(week)
        sessions.append(s)
        queries.append(q)
        items.append(i)
        actions.append(_ACTION_CODES[a])

    query_vocab, query_codes = _encode(queries, np.int32)
    item_vocab, item_codes = _encode(items, np.int32)
    session_vocab, session_codes = _encode(sessions, np.int64)
    return EventFrame(
        week=np.array(weeks, dtype=np.int32),
        session=session_codes,
        query=query_codes,
        item=item_codes,
        action=np.array(actions, dtype=np.int8),
        timestamp=np.array(timestamps, dtype=np.float64),
        query_vocab=query_vocab,
        item_vocab=item_vocab,
        session_vocab=session_vocab,
    )


def _encode(values: list[str], dtype: type) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct values, and each value's index among them as ``dtype``."""
    vocab = sorted(set(values))
    index = {value: k for k, value in enumerate(vocab)}
    codes = np.fromiter(map(index.__getitem__, values), dtype=dtype, count=len(values))
    return tuple(vocab), codes
