"""A candidate pool one hit at a time.

``merge_pool`` encodes a pool as per-hit arrays. ``reference_provenance``
builds the same hits from the channel lists, one at a time, for tests to
hold the arrays and the feature rows built from them against;
``pool_provenance`` reads a pool's arrays back into that shape.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from channelrank.core import CandidatePool, ChannelId, ChannelList, ItemId, TruncationConfig


@dataclass(frozen=True, slots=True)
class ChannelHit:
    """Where one channel placed an item (rank is 1-based)."""

    channel: ChannelId
    rank: int
    score: float


Provenance = dict[ItemId, tuple[ChannelHit, ...]]


def reference_provenance(lists: Sequence[ChannelList], cfg: TruncationConfig) -> Provenance:
    """Each kept item's hits, items sorted: each list in channel-index
    order, each kept entry with its 1-based rank."""
    hits: dict[ItemId, list[ChannelHit]] = {}
    for lst in sorted(lists, key=lambda c: c.channel.index):
        for rank, (item, score) in enumerate(lst.entries[: cfg.n_for(lst.channel)], start=1):
            hits.setdefault(item, []).append(ChannelHit(lst.channel, rank, score))
    return {item: tuple(h) for item, h in sorted(hits.items())}


def pool_provenance(pool: CandidatePool) -> Provenance:
    """Each of the pool's items with its hits, read from the arrays."""
    hits: dict[ItemId, list[ChannelHit]] = {item: [] for item in pool.items}
    for row, c, rank, score in zip(
        pool.hit_row.tolist(), pool.hit_channel.tolist(),
        pool.hit_rank.tolist(), pool.hit_score.tolist(),
    ):
        hits[pool.items[row]].append(ChannelHit(pool.channels[c], rank, score))
    return {item: tuple(h) for item, h in hits.items()}
