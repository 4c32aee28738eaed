"""From raw interaction logs to training labels and features.

Walks the label pipeline on a handful of hand-written events, with the
same functions the dataset builder uses: an ``EventFrame`` reduced by
``funnel_table`` to per (query, item, week) session counts at each
session's deepest action, corpus-calibrated weights, the weighted
engagement label (``weighted_counts``) and per-query max normalization
onto [0, 4] (``max_normalize``). Then shows the temporal features of one
query-week row, built by the same code as training rows: the item
block's lookback aggregates and velocity, and the dataset builder's
decayed engagement.

Run: python demos/02_labels_and_features.py
"""

import numpy as np

from channelrank import (
    Action,
    ChannelId,
    ChannelList,
    CorpusStats,
    EventFrame,
    ItemCatalog,
    LookbackConfig,
    TruncationConfig,
    build_dataset,
    build_schema,
    calibrate_weights,
    funnel_table,
    item_count_table,
    item_feature_block,
    max_normalize,
    weighted_counts,
)
from channelrank.labeling import WEEK_SECONDS

QUERY = "standing desk"
ITEMS = ("desk-oak", "desk-pro", "chair-ergo")
IMP, CLICK, ATC, BUY = Action.IMPRESSION, Action.CLICK, Action.ADD_TO_CART, Action.PURCHASE

# (session, item, week, action): weeks 0-2 are history, week 3 is labelled.
LOG = [
    ("h1", "desk-oak", 0, BUY), ("h2", "desk-oak", 1, CLICK), ("h3", "desk-oak", 2, BUY),
    ("s1", "desk-oak", 3, IMP), ("s1", "desk-oak", 3, CLICK), ("s1", "desk-oak", 3, ATC),
    ("s2", "desk-oak", 3, IMP),
    ("s3", "desk-oak", 3, IMP), ("s3", "desk-oak", 3, CLICK),
    ("s4", "desk-oak", 3, IMP), ("s4", "desk-oak", 3, CLICK),
    ("s4", "desk-oak", 3, ATC), ("s4", "desk-oak", 3, BUY),
    ("t1", "desk-pro", 3, IMP), ("t1", "desk-pro", 3, CLICK),
]
sessions = sorted({s for s, _, _, _ in LOG})
frame = EventFrame(
    week=np.array([w for _, _, w, _ in LOG], dtype=np.int32),
    session=np.array([sessions.index(s) for s, _, _, _ in LOG], dtype=np.int64),
    query=np.zeros(len(LOG), dtype=np.int32),
    item=np.array([ITEMS.index(i) for _, i, _, _ in LOG], dtype=np.int32),
    action=np.array([int(a) for _, _, _, a in LOG], dtype=np.int8),
    timestamp=np.array([w * WEEK_SECONDS + 60.0 for _, _, w, _ in LOG]),
    query_vocab=(QUERY,),
    item_vocab=ITEMS,
    session_vocab=tuple(sessions),
)
print(f"=== event log: {len(frame)} events, {len(sessions)} sessions ===")
print("session s1 reaches atc; s2 only sees an impression; s4 buys")

print("\n=== funnel_table: each session counted once, at its deepest action ===")
table = funnel_table(frame)
for r in range(len(table)):
    print(f"{ITEMS[table.item[r]]:>10} week {table.week[r]}: views={table.views[r]} "
          f"clicks={table.clicks[r]} atcs={table.atcs[r]} purchases={table.purchases[r]}")

print("\n=== corpus-calibrated label weights ===")
stats = CorpusStats(total_purchases=100, total_atcs=400, total_clicks=2000)
weights = calibrate_weights(stats)
print(f"corpus (P={stats.total_purchases}, A={stats.total_atcs}, C={stats.total_clicks})"
      f" -> weights (a, b, c, d) = ({weights.a}, {weights.b}, {weights.c}, {weights.d})")
print("rarer, deeper actions earn larger weights; views earn zero")

print("\n=== week-3 labels: weighted_counts, then max_normalize over the query ===")
counts = np.zeros((len(ITEMS), 4))  # (views, clicks, atcs, purchases); chair-ergo has none
now = table.week == 3
counts[table.item[now]] = np.column_stack(
    [table.views, table.clicks, table.atcs, table.purchases]
)[now]
raw = weighted_counts(counts, weights)
normalized = max_normalize(raw)
for item, r, n in zip(ITEMS, raw, normalized):
    print(f"{item:>10}: raw={r:.3f}  normalized={n:.3f}")

print("\n=== item features at week 4: lookback aggregates and velocity ===")
catalog = ItemCatalog(
    item_vocab=ITEMS, price=np.array([349.0, 499.0, 189.0]),
    category=np.array([2, 2, 3]), intro_week=np.array([0, 1, 0]),
)
cfg = LookbackConfig(windows=(1, 4), decay_half_life=2.0)
lexical = ChannelId(0, "lexical")
schema = build_schema([lexical], cfg)
as_of = 4
block = item_feature_block(
    schema, cfg, item_count_table(frame, catalog, as_of), catalog, np.arange(2), as_of
)
item_names = [c.name for c in schema.columns if c.group == "item"]
for item, row in zip(ITEMS[:2], block):
    values = dict(zip(item_names, row))
    for window in cfg.windows:
        print(f"{item} window {window}w: impressions={values[f'item_impressions_w{window}']:.0f} "
              f"clicks={values[f'item_clicks_w{window}']:.0f} "
              f"purchases={values[f'item_purchases_w{window}']:.0f}")
    print(f"{item} purchase velocity (1w rate vs 4w rate): "
          f"{values['item_purchase_velocity']:.2f}  (>1 means accelerating)")
print("training rows and the serving sidecar both come from item_feature_block")

print("\n=== decayed engagement features (same weights, no normalization) ===")
lists = {as_of: {QUERY: [
    ChannelList.from_pairs(lexical, QUERY, [("desk-oak", 0.9), ("desk-pro", 0.7)])
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
