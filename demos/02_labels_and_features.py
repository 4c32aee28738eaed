"""From raw interaction logs to training labels and features.

Walks the label pipeline on a handful of hand-written sessions: deepest
action per session, funnel counts, corpus-calibrated weights, the scalar
engagement label, and per-query max normalization onto [0, 4]. Then
shows the temporal features of one query-week row, built by the same
code as training rows: the item block's lookback aggregates and
velocity, and the dataset builder's decayed engagement.

Run: python demos/02_labels_and_features.py
"""

import numpy as np

from channelrank import (
    Action,
    ChannelId,
    ChannelList,
    CorpusStats,
    EventFrame,
    InteractionEvent,
    ItemCatalog,
    LookbackConfig,
    TruncationConfig,
    build_dataset,
    build_schema,
    calibrate_weights,
    deepest_action,
    funnel_counts,
    item_count_table,
    item_feature_block,
    normalize_labels,
    raw_label,
)
from channelrank.labeling import WEEK_SECONDS


def ev(session, action, week=3, item="desk-oak", offset=60.0):
    return InteractionEvent(
        query="standing desk", item=item, session=session, week=week,
        action=action, timestamp=week * WEEK_SECONDS + offset,
    )


print("=== deepest action per session ===")
session_a = [ev("s1", Action.IMPRESSION), ev("s1", Action.CLICK), ev("s1", Action.ADD_TO_CART)]
session_b = [ev("s2", Action.IMPRESSION)]
print("session s1 (imp, click, atc) ->", deepest_action(session_a).name)
print("session s2 (imp only)        ->", deepest_action(session_b).name)

print("\n=== weekly funnel counts for one (query, item) ===")
week_events = (
    session_a + session_b
    + [ev("s3", Action.IMPRESSION), ev("s3", Action.CLICK)]
    + [ev("s4", Action.IMPRESSION), ev("s4", Action.CLICK),
       ev("s4", Action.ADD_TO_CART), ev("s4", Action.PURCHASE)]
)
fc = funnel_counts(week_events)
print(f"views={fc.views} clicks={fc.clicks} atcs={fc.atcs} purchases={fc.purchases} "
      f"({fc.n_sessions} sessions)")

print("\n=== corpus-calibrated label weights ===")
stats = CorpusStats(total_purchases=100, total_atcs=400, total_clicks=2000)
weights = calibrate_weights(stats)
print(f"corpus (P={stats.total_purchases}, A={stats.total_atcs}, C={stats.total_clicks})"
      f" -> weights (a, b, c, d) = ({weights.a}, {weights.b}, {weights.c}, {weights.d})")
print("rarer, deeper actions earn larger weights; views earn zero")

print("\n=== scalar label and per-query normalization ===")
pool_counts = {
    "desk-oak": fc,
    "desk-pro": funnel_counts(
        [ev("t1", Action.IMPRESSION, item="desk-pro"),
         ev("t1", Action.CLICK, item="desk-pro")]
    ),
    "chair-ergo": funnel_counts([], query="standing desk", item="chair-ergo", week=3),
}
raw = {item: raw_label(c, weights) for item, c in pool_counts.items()}
normalized = normalize_labels(raw)
for item in pool_counts:
    print(f"{item:>10}: raw={raw[item]:.3f}  normalized={normalized[item]:.3f}")

print("\n=== item features at week 4: lookback aggregates and velocity ===")
history = [
    ev("h1", Action.PURCHASE, week=0), ev("h2", Action.CLICK, week=1),
    ev("h3", Action.PURCHASE, week=2), ev("h4", Action.PURCHASE, week=3),
    ev("h5", Action.CLICK, week=3), ev("h6", Action.CLICK, week=3, item="desk-pro"),
]
items = ("desk-oak", "desk-pro")
frame = EventFrame(
    week=np.array([e.week for e in history]),
    session=np.arange(len(history)),
    query=np.zeros(len(history), dtype=np.int64),
    item=np.array([items.index(e.item) for e in history]),
    action=np.array([int(e.action) for e in history]),
    timestamp=np.array([e.timestamp for e in history]),
    query_vocab=("standing desk",),
    item_vocab=items,
    session_vocab=tuple(e.session for e in history),
)
catalog = ItemCatalog(
    item_vocab=items, price=np.array([349.0, 499.0]),
    category=np.array([2, 2]), intro_week=np.array([0, 1]),
)
cfg = LookbackConfig(windows=(1, 4), decay_half_life=2.0)
lexical = ChannelId(0, "lexical")
schema = build_schema([lexical], cfg)
as_of = 4
block = item_feature_block(
    schema, cfg, item_count_table(frame, catalog, as_of), catalog, np.arange(len(items)), as_of
)
item_names = [c.name for c in schema.columns if c.group == "item"]
for item, row in zip(items, block):
    values = dict(zip(item_names, row))
    for window in cfg.windows:
        print(f"{item} window {window}w: impressions={values[f'item_impressions_w{window}']:.0f} "
              f"clicks={values[f'item_clicks_w{window}']:.0f} "
              f"purchases={values[f'item_purchases_w{window}']:.0f}")
    print(f"{item} purchase velocity (1w rate vs 4w rate): "
          f"{values['item_purchase_velocity']:.2f}  (>1 means accelerating)")
print("training rows and the serving sidecar both come from item_feature_block")

print("\n=== decayed engagement features (same weights, no normalization) ===")
lists = {as_of: {"standing desk": [
    ChannelList.from_pairs(lexical, "standing desk", [("desk-oak", 0.9), ("desk-pro", 0.7)])
]}}
data = build_dataset(
    frame, lists, catalog, [lexical], keys=[(0, as_of)],
    truncation=TruncationConfig.uniform([lexical], 5), lookback=cfg,
    conversion_weights=weights,
)
for r, code in enumerate(data.item_codes):
    for window in cfg.windows:
        value = data.X[r, data.schema.index_of(f"qi_engagement_w{window}")]
        print(f"{data.item_vocab[code]} window {window}w: decayed engagement = {value:.4f}")
print("a purchase half_life weeks ago contributes weight * 0.5")
