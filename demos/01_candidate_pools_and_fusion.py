"""Candidate pools and rank fusion, end to end on a toy query.

Four retrieval channels each rank items for the query "standing desk";
we truncate each channel to its budget, merge the union into a candidate
pool that records each channel's hits, and compare the two non-learned
fusion strategies: reciprocal rank fusion and seeded weighted
interleaving.

Run: python demos/01_candidate_pools_and_fusion.py
"""

from channelrank import (
    ChannelId,
    ChannelList,
    InterleaveWeights,
    TruncationConfig,
    merge_pool,
    rrf_fuse,
    truncate,
    weighted_interleave,
    weighted_interleave_batch,
)

lexical = ChannelId(0, "lexical")
semantic = ChannelId(1, "semantic")
trending = ChannelId(2, "trending")
seasonal = ChannelId(3, "seasonal")

QUERY = "standing desk"

lists = [
    ChannelList.from_pairs(lexical, QUERY, [
        ("desk-oak", 12.1), ("desk-walnut", 11.4), ("desk-mini", 9.8),
        ("desk-pro", 9.1), ("mat-anti-fatigue", 4.2),
    ]),
    ChannelList.from_pairs(semantic, QUERY, [
        ("desk-pro", 0.93), ("desk-oak", 0.91), ("converter-riser", 0.88),
        ("desk-corner", 0.74),
    ]),
    ChannelList.from_pairs(trending, QUERY, [
        ("converter-riser", 880.0), ("desk-mini", 512.0), ("chair-ergo", 343.0),
    ]),
    ChannelList.from_pairs(seasonal, QUERY, [
        ("desk-corner", 3.3), ("desk-oak", 2.9),
    ]),
]

print("=== per-channel lists (top-3 budget) ===")
for cl in lists:
    top = truncate(cl, 3)
    shown = ", ".join(f"{item} ({score:g})" for item, score in top.entries)
    print(f"{cl.channel.name:>9}: {shown}")

cfg = TruncationConfig.uniform([lexical, semantic, trending, seasonal], 3)
pool = merge_pool(lists, cfg)
print(f"\n=== merged candidate pool: {len(pool)} items ===")
# Hit h: channel pool.channels[hit_channel[h]] ranked item pool.items[hit_row[h]]
# at hit_rank[h]; hits run in channel order, then by rank.
hits = [[] for _ in pool.items]
leaders = {}  # item -> the channels that rank it first
for row, c, rank in zip(pool.hit_row.tolist(), pool.hit_channel.tolist(),
                        pool.hit_rank.tolist()):
    name = pool.channels[c].name
    hits[row].append(f"{name}#{rank}")
    if rank == 1:
        leaders.setdefault(pool.items[row], []).append(name)
for item, item_hits in zip(pool.items, hits):
    print(f"{item:>17}: {', '.join(item_hits)}")

print("\n=== reciprocal rank fusion (k_rrf = 60) ===")
fused = rrf_fuse([truncate(cl, 3) for cl in lists])
for rank, (item, score) in enumerate(zip(fused.items, fused.scores), start=1):
    print(f"{rank}. {item:<17} rrf score {score:.5f}")

print("\n=== weighted interleaving, three seeds ===")
weights = InterleaveWeights({lexical: 0.4, semantic: 0.3, trending: 0.2, seasonal: 0.1})
for seed in (1, 2, 3):
    wi = weighted_interleave([truncate(cl, 3) for cl in lists], weights, seed=seed)
    print(f"seed {seed}: {' > '.join(wi.items)}")

print("\nSame seed is reproducible:",
      weighted_interleave([truncate(cl, 3) for cl in lists], weights, seed=1).items
      == weighted_interleave([truncate(cl, 3) for cl in lists], weights, seed=1).items)

print("\nMonte Carlo: how often does each channel supply the first result?")
# One batched call interleaves the lists under all 4,000 seeds.
items, orders = weighted_interleave_batch(
    [[truncate(cl, 3) for cl in lists]], [weights], [range(4000)]
)[0]
counts = {}
for first in (items[j] for j in orders[:, 0]):
    for owner in leaders.get(first, []):
        counts[owner] = counts.get(owner, 0) + 1
total = sum(counts.values())
for name, n in sorted(counts.items(), key=lambda kv: -kv[1]):
    print(f"  {name:>9}: {n / total:.1%}")
