"""Reference rankers for the ablation's evaluation groups.

``string_wi_orders`` is the WI baseline over item strings: it re-truncates
each group's raw channel lists, interleaves the item strings through
``weighted_interleave_batch`` under uniform weights, and maps the items
back to rows through a dict. ``WIRanker``, which interleaves the pool's
row numbers, must give the same orders bit for bit.

``RRFRanker`` scores reciprocal rank fusion of each group's truncated
lists, rebuilt from its pool by ``pool_lists``. It serves as a second
baseline in the tests.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from channelrank.core import CandidatePool, ChannelList, QueryId, TruncationConfig, truncate
from channelrank.evaluation import EvalGroup, Ranker
from channelrank.fusion import InterleaveWeights, rrf_fuse, weighted_interleave_batch


def string_wi_orders(
    groups: Sequence[EvalGroup],
    channel_lists: Mapping[int, Mapping[QueryId, list[ChannelList]]],
    truncation: TruncationConfig,
    seeds: Sequence[int],
) -> list[np.ndarray]:
    """Each group's WI orders over its rows, one row per seed."""
    list_sets = [
        [truncate(cl, truncation.n_for(cl.channel)) for cl in channel_lists[g.week][g.query]]
        for g in groups
    ]
    weights = [InterleaveWeights.uniform([cl.channel for cl in lists]) for lists in list_sets]
    fused = weighted_interleave_batch(list_sets, weights, [seeds] * len(groups))
    out = []
    for group, (items, orders) in zip(groups, fused):
        pos = {item: i for i, item in enumerate(group.pool.items)}
        at = np.array([pos[item] for item in items], dtype=np.intp)
        out.append(at[orders])
    return out


def pool_lists(pool: CandidatePool) -> list[ChannelList]:
    """The truncated channel lists a pool was merged from, in channel-index order."""
    out = []
    for c, channel in enumerate(pool.channels):
        at = pool.hit_channel == c
        entries = tuple(
            (pool.items[row], score)
            for row, score in zip(pool.hit_row[at].tolist(), pool.hit_score[at].tolist())
        )
        out.append(ChannelList(channel=channel, query=pool.query, entries=entries))
    return out


class RRFRanker(Ranker):
    def __init__(self, k_rrf: float = 60.0):
        self.name = "RRF"
        self.k_rrf = k_rrf

    def orders(self, groups):
        out = []
        for group in groups:
            fused = rrf_fuse(pool_lists(group.pool), k_rrf=self.k_rrf)
            pos = {item: i for i, item in enumerate(group.pool.items)}
            out.append([np.array([pos[item] for item in fused.items], dtype=np.intp)])
        return out
