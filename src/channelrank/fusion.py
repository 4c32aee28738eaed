"""Non-learned rank fusion baselines: reciprocal rank fusion and weighted interleaving.

Both operate on the same per-query channel lists the learned ranker sees,
and serve as experimental controls. RRF is deterministic; weighted
interleaving is a seeded stochastic policy, so experiment configs carry
the seed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .core import ChannelId, ChannelList, ItemId, QueryId


@dataclass(frozen=True, slots=True)
class InterleaveWeights:
    """Sampling weights per channel; normalized internally, need not sum to 1."""

    weights: Mapping[ChannelId, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("weights must not be empty")
        for channel, w in self.weights.items():
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight {w} for channel {channel.name!r}")
            if w < 0:
                raise ValueError(f"negative weight {w} for channel {channel.name!r}")
        if not any(w > 0 for w in self.weights.values()):
            raise ValueError("at least one channel weight must be > 0")
        # Interleaving normalizes by the live channels' total; it must not overflow.
        with np.errstate(over="ignore"):
            total = np.array(list(self.weights.values()), dtype=np.float64).sum()
        if not math.isfinite(total):
            raise ValueError(f"channel weights sum to {total}, not a finite value")

    @classmethod
    def uniform(cls, channels: Sequence[ChannelId]) -> InterleaveWeights:
        return cls(weights={c: 1.0 for c in channels})


@dataclass(frozen=True, slots=True)
class FusedList:
    """A fused ranking; scores are present for RRF, absent for interleaving."""

    query: QueryId
    items: tuple[ItemId, ...]
    scores: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if len(set(self.items)) != len(self.items):
            raise ValueError("fused list contains duplicate items")
        if self.scores is not None:
            if len(self.scores) != len(self.items):
                raise ValueError("scores must parallel items")
            for a, b in zip(self.scores, self.scores[1:]):
                if b > a:
                    raise ValueError("scores must be non-increasing")

    def __len__(self) -> int:
        return len(self.items)


def _check_one_query(lists: Sequence[ChannelList]) -> QueryId:
    query = lists[0].query
    for cl in lists[1:]:
        if cl.query != query:
            raise ValueError(f"mixed query ids: {query!r} vs {cl.query!r}")
    return query


def rrf_fuse(lists: Sequence[ChannelList], k_rrf: float = 60.0) -> FusedList:
    """Fuse ranked lists by summed reciprocal rank 1 / (k_rrf + rank).

    Every item appearing in any list accumulates one reciprocal-rank term
    per list that contains it (ranks are 1-based). Output is sorted by
    fused score descending, ties broken by item id ascending. Only ranks
    enter the formula, so channel score scales are irrelevant.
    """
    if not (math.isfinite(k_rrf) and k_rrf > 0):
        raise ValueError(f"k_rrf must be positive and finite, got {k_rrf}")
    if not lists:
        return FusedList(query="", items=(), scores=())
    query = _check_one_query(lists)
    scores: dict[ItemId, float] = {}
    for cl in lists:
        for rank, (item, _) in enumerate(cl.entries, start=1):
            scores[item] = scores.get(item, 0.0) + 1.0 / (k_rrf + rank)
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return FusedList(
        query=query,
        items=tuple(item for item, _ in ordered),
        scores=tuple(score for _, score in ordered),
    )


def weighted_interleave(
    lists: Sequence[ChannelList],
    weights: InterleaveWeights,
    seed: int,
) -> FusedList:
    """Merge lists by repeatedly sampling a channel and emitting its next item.

    Each draw picks a channel with probability proportional to its weight
    among channels that still hold unemitted items, then emits that
    channel's highest-ranked item not yet in the output. Items already
    emitted through another channel are silently consumed while scanning,
    so the output is exactly a permutation of the deduplicated union.
    Channels whose weight is zero are flushed at the end in channel-index
    order. Deterministic for a given seed (PCG64 stream).

    Every draw pops at least one queued entry, so the uniforms are drawn up
    front, one per entry, with ``rng.random(n)``: its first m values are the
    m values that m scalar ``rng.random()`` calls on the same PCG64 stream
    return. The live channels, their total weight and cumulative weights
    change only when a queue empties, and are rebuilt only then. The total
    stays numpy's ``sum``, which adds 8 or more values pairwise, and the
    cumulative weights a sequential ``np.cumsum``; another summation order
    could move a draw across a channel boundary.
    """
    if not lists:
        return FusedList(query="", items=())
    query = _check_one_query(lists)
    for cl in lists:
        if cl.channel not in weights.weights:
            raise ValueError(f"no weight for channel {cl.channel.name!r}")

    ordered_lists = sorted(lists, key=lambda c: c.channel.index)
    queues = [[item for item, _ in reversed(cl.entries)] for cl in ordered_lists]
    w = np.array([weights.weights[cl.channel] for cl in ordered_lists], dtype=np.float64)
    uniforms = np.random.default_rng(seed).random(sum(map(len, queues))).tolist()

    out: dict[ItemId, None] = {}  # insertion-ordered set of emitted items
    alive = [i for i, q in enumerate(queues) if q]
    n_drawn = 0
    while alive:
        probs = w[alive]
        total = float(probs.sum())
        if total <= 0.0:
            # Only zero-weight channels remain: flush deterministically.
            for i in alive:
                out.update(dict.fromkeys(reversed(queues[i])))
            break
        cumulative = np.cumsum(probs).tolist()
        while True:
            chosen = alive[bisect_right(cumulative, uniforms[n_drawn] * total)]
            n_drawn += 1
            # Emit the channel's best item not yet emitted; skip the rest.
            queue = queues[chosen]
            while queue:
                item = queue.pop()
                if item not in out:
                    out[item] = None
                    break
            if not queue:
                alive.remove(chosen)
                break

    return FusedList(query=query, items=tuple(out))
