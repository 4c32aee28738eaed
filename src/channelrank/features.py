"""Feature columns for query-item-week ranking instances and the blocks
that fill them.

Three feature groups:

* ``item`` -- intrinsic attributes (price, category, age) and behavioral
  aggregates over trailing lookback windows, shared across queries. Never
  missing.
* ``channel`` -- per-channel retrieval score and 1-based rank from the
  candidate pool's hits; missing (NA) for channels that did not
  retrieve the item.
* ``engagement`` -- per (query, item) weighted, exponentially decayed
  session engagement over the lookback windows. Unlike labels these are
  NOT max-normalized per query, so they stay comparable across queries.

Column names are spelled only here. Training and serving fill rows with
the same blocks: :func:`item_feature_block` (the dataset builder over
every row at once, each at its own week; ``build-dataset
--item-features-out`` for the whole catalog at one week) and
:func:`fill_channel_block` (the dataset builder per query-week group and
``ScoreService.score``). Serving takes engagement from the request.

Every temporal feature for an instance at week w is computed strictly
from events of weeks < w.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import CandidatePool, ChannelId
from .labeling import Action

if TYPE_CHECKING:
    from .dataset import ItemCatalog

VELOCITY_EPS = 1e-6

_WINDOW_STATS = (
    ("impressions", Action.IMPRESSION),
    ("clicks", Action.CLICK),
    ("atcs", Action.ADD_TO_CART),
    ("purchases", Action.PURCHASE),
)
_VELOCITY_STATS = (("click", Action.CLICK), ("purchase", Action.PURCHASE))
_HIT_COUNT_COLUMN = "ch_hit_count"


def channel_columns(channel_name: str) -> tuple[str, str]:
    """The (score, rank) column names of one retrieval channel."""
    return f"ch_{channel_name}_score", f"ch_{channel_name}_rank"


def engagement_columns(window: int) -> tuple[str, str, str, str]:
    """The (engagement, clicks, atcs, purchases) column names of one lookback window."""
    return (
        f"qi_engagement_w{window}", f"qi_clicks_w{window}",
        f"qi_atcs_w{window}", f"qi_purchases_w{window}",
    )


@dataclass(frozen=True, slots=True)
class FeatureColumn:
    name: str
    kind: str  # "numeric" | "categorical"
    group: str  # "item" | "channel" | "engagement"

    def __post_init__(self) -> None:
        if self.kind not in ("numeric", "categorical"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.group not in ("item", "channel", "engagement"):
            raise ValueError(f"bad group {self.group!r}")


@dataclass(frozen=True, slots=True)
class FeatureSchema:
    """Ordered feature columns; the order is fixed at dataset build time
    and travels with the trained model."""

    columns: tuple[FeatureColumn, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def channel_names(self) -> tuple[str, ...]:
        """Channels with a score column, in column order."""
        return tuple(
            c.name[len("ch_"):-len("_score")]
            for c in self.columns
            if c.group == "channel" and c.name.startswith("ch_") and c.name.endswith("_score")
        )

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(name)

    def group_mask(self, group: str) -> np.ndarray:
        return np.array([c.group == group for c in self.columns], dtype=bool)

    def drop_group(self, group: str) -> FeatureSchema:
        return FeatureSchema(
            columns=tuple(c for c in self.columns if c.group != group)
        )

    def records(self) -> list[dict[str, str]]:
        """One ``{"name", "kind", "group"}`` record per column, the encoding
        that the schema sidecar and the ``.frm`` payload both store."""
        return [asdict(c) for c in self.columns]

    @classmethod
    def from_records(cls, records: list) -> FeatureSchema:
        return cls(
            columns=tuple(FeatureColumn(c["name"], c["kind"], c["group"]) for c in records)
        )

    def to_json(self) -> str:
        return json.dumps({"columns": self.records()}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> FeatureSchema:
        return cls.from_records(json.loads(text)["columns"])


@dataclass(frozen=True, slots=True)
class LookbackConfig:
    """Trailing aggregation windows (weeks) and the engagement decay half-life."""

    windows: tuple[int, ...] = (1, 4)
    decay_half_life: float = 2.0

    def __post_init__(self) -> None:
        if not self.windows:
            raise ValueError("at least one lookback window required")
        if any(w < 1 for w in self.windows):
            raise ValueError("windows must be >= 1 week")
        if any(b <= a for a, b in zip(self.windows, self.windows[1:])):
            raise ValueError("windows must be strictly increasing")
        if not (math.isfinite(self.decay_half_life) and self.decay_half_life > 0):
            raise ValueError(
                f"decay_half_life must be finite and > 0, got {self.decay_half_life}"
            )


def build_schema(
    channels: Sequence[ChannelId], lookback: LookbackConfig
) -> FeatureSchema:
    """The default column layout emitted by the dataset builder."""
    cols: list[FeatureColumn] = [
        FeatureColumn("item_price", "numeric", "item"),
        FeatureColumn("item_category", "categorical", "item"),
        FeatureColumn("item_age_weeks", "numeric", "item"),
    ]
    for window in lookback.windows:
        for stat, _ in _WINDOW_STATS:
            cols.append(FeatureColumn(f"item_{stat}_w{window}", "numeric", "item"))
    if len(lookback.windows) >= 2:
        for stat, _ in _VELOCITY_STATS:
            cols.append(FeatureColumn(f"item_{stat}_velocity", "numeric", "item"))
    for channel in sorted(channels, key=lambda c: c.index):
        for name in channel_columns(channel.name):
            cols.append(FeatureColumn(name, "numeric", "channel"))
    cols.append(FeatureColumn(_HIT_COUNT_COLUMN, "numeric", "channel"))
    for window in lookback.windows:
        for name in engagement_columns(window):
            cols.append(FeatureColumn(name, "numeric", "engagement"))
    return FeatureSchema(columns=tuple(cols))


def item_feature_block(
    schema: FeatureSchema,
    lookback: LookbackConfig,
    counts: np.ndarray,
    catalog: ItemCatalog,
    items: np.ndarray,
    as_of: int | np.ndarray,
) -> np.ndarray:
    """The schema's item-group columns, in schema order, for catalog rows
    ``items`` at week ``as_of``; an item column it does not know raises.

    ``as_of`` is one week for every row or one week per row. ``counts`` is
    :func:`channelrank.dataset.item_count_table` covering at least weeks
    0..as_of - 1. Window L counts events of weeks [as_of - L, as_of - 1].
    Velocity is the shortest window's rate over the longest's, 0 when the
    short window is empty.
    """
    as_of = np.asarray(as_of)

    def through(week: np.ndarray) -> np.ndarray:
        """Each row's counts of weeks 0..week; zero before week 0."""
        return np.where(week[..., None] >= 0, counts[items, np.maximum(week, 0)], 0.0)

    windows = lookback.windows
    upper = through(as_of - 1)
    per_window = {window: upper - through(as_of - window - 1) for window in windows}
    values = {
        "item_price": catalog.price[items],
        "item_category": catalog.category[items],
        "item_age_weeks": as_of - catalog.intro_week[items],
    }
    for window, tallies in per_window.items():
        for stat, action in _WINDOW_STATS:
            values[f"item_{stat}_w{window}"] = tallies[:, action]
    if len(windows) >= 2:
        short, long_ = windows[0], windows[-1]
        for stat, action in _VELOCITY_STATS:
            s = per_window[short][:, action]
            l = per_window[long_][:, action]
            rate = (s / short) / ((l / long_) + VELOCITY_EPS)
            values[f"item_{stat}_velocity"] = np.where(s == 0, 0.0, rate)

    names = [c.name for c in schema.columns if c.group == "item"]
    block = np.empty((len(items), len(names)))
    for j, name in enumerate(names):
        if name not in values:
            raise ValueError(f"no item feature named {name!r}")
        block[:, j] = values[name]
    return block


def fill_channel_block(X: np.ndarray, schema: FeatureSchema, pool: CandidatePool) -> None:
    """Write the channel score/rank and hit-count cells of ``pool`` into ``X``.

    Row r of ``X`` is ``pool.items[r]``. Cells of channels that did not
    retrieve an item are left as they are (NA in a fresh row).
    """
    col = {name: i for i, name in enumerate(schema.names)}
    # Each hit's (score, rank) column pair.
    hit_cols = np.array(
        [[col[name] for name in channel_columns(c.name)] for c in pool.channels], dtype=np.intp
    )[pool.hit_channel]
    X[pool.hit_row, hit_cols[:, 0]] = pool.hit_score
    X[pool.hit_row, hit_cols[:, 1]] = pool.hit_rank
    hit_col = col.get(_HIT_COUNT_COLUMN)
    if hit_col is not None:
        X[:, hit_col] = np.bincount(pool.hit_row, minlength=len(pool))
