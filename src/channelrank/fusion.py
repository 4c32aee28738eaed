"""Non-learned rank fusion baselines: reciprocal rank fusion and weighted interleaving.

Both operate on the same per-query channel lists the learned ranker sees,
and serve as experimental controls. RRF is deterministic; weighted
interleaving is a seeded stochastic policy, so experiment configs carry
the seed. Both read a list set as the :class:`CandidatePool` that
:func:`merge_pool` makes of it with every list whole. :func:`interleave_pools`
is the one interleaver: it fuses many pools, each under its own seeds, in
one vectorized pass. :func:`weighted_interleave_batch` merges list sets and
calls it, and :func:`weighted_interleave` is its one-set call, costing
about 1.8 ms for four 25-item lists, so callers with many sets (the
synthetic logging policy, ``channelrank fuse``) batch them.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    CandidatePool,
    ChannelId,
    ChannelList,
    ItemId,
    QueryId,
    TruncationConfig,
    merge_pool,
)
from .metrics import order_from_scores


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


def rrf_fuse(lists: Sequence[ChannelList], k_rrf: float = 60.0) -> FusedList:
    """Fuse ranked lists by summed reciprocal rank 1 / (k_rrf + rank).

    Every item appearing in any list accumulates one reciprocal-rank term
    per list that contains it (ranks are 1-based), summed over the lists'
    pool in channel-index order, so the scores do not depend on the order
    of ``lists``. Output is sorted by fused score descending, ties broken
    by item id ascending. Only ranks enter the formula, so channel score
    scales are irrelevant.
    """
    if not (math.isfinite(k_rrf) and k_rrf > 0):
        raise ValueError(f"k_rrf must be positive and finite, got {k_rrf}")
    pool = merge_pool(lists, TruncationConfig.whole(lists))
    scores = np.bincount(pool.hit_row, 1.0 / (k_rrf + pool.hit_rank), minlength=len(pool))
    # ``pool.items`` is sorted, so the index tie-break orders equal scores by item id.
    order = order_from_scores(scores)
    return FusedList(
        query=pool.query,
        items=tuple(pool.items[r] for r in order.tolist()),
        scores=tuple(scores[order].tolist()),
    )


def weighted_interleave(
    lists: Sequence[ChannelList],
    weights: InterleaveWeights,
    seed: int,
) -> FusedList:
    """One list set under one seed: a one-set call of :func:`weighted_interleave_batch`.

    It costs about 1.8 ms for four 25-item lists; callers with many sets batch them.
    """
    items, orders = weighted_interleave_batch([lists], [weights], [[seed]])[0]
    query = lists[0].query if lists else ""
    return FusedList(query=query, items=tuple(items[j] for j in orders[0]))


def weighted_interleave_batch(
    list_sets: Sequence[Sequence[ChannelList]],
    weights: Sequence[InterleaveWeights],
    seeds: Sequence[Sequence[int]],
) -> list[tuple[tuple[ItemId, ...], np.ndarray]]:
    """Weighted interleaving of every list set under each of its seeds, in one pass.

    Each (set, seed) instance merges its lists by repeatedly sampling a
    channel, with probability proportional to its weight among channels
    that still hold unemitted items, and emitting that channel's
    highest-ranked item not yet out. Emitted items met on the way are
    consumed, so the output is a permutation of the deduplicated union.
    Channels of weight zero are flushed at the end in channel-index order.
    Deterministic per seed (PCG64 stream).

    ``seeds[k]`` lists set ``k``'s seeds. Each set is merged whole into a
    :class:`CandidatePool`. Returns one ``(items, orders)`` pair per set:
    ``items`` is its pool's items (the sorted union of its lists), and row
    ``s`` of the ``(len(seeds[k]), len(items))`` array ``orders`` indexes
    ``items`` in the order seed ``seeds[k][s]`` emits.
    """
    if len(weights) != len(list_sets):
        raise ValueError(f"{len(list_sets)} list sets but {len(weights)} weight maps")
    if len(seeds) != len(list_sets):
        raise ValueError(f"{len(list_sets)} list sets but {len(seeds)} seed lists")
    pools = [merge_pool(lists, TruncationConfig.whole(lists)) for lists in list_sets]
    w = []
    for pool, wmap in zip(pools, weights):
        for channel in pool.channels:
            if channel not in wmap.weights:
                raise ValueError(f"no weight for channel {channel.name!r}")
        w.append([wmap.weights[channel] for channel in pool.channels])
    return [(pool.items, o) for pool, o in zip(pools, interleave_pools(pools, w, seeds))]


def interleave_pools(
    pools: Sequence[CandidatePool],
    weights: Sequence[Sequence[float]],
    seeds: Sequence[Sequence[int]],
) -> list[np.ndarray]:
    """:func:`weighted_interleave_batch` on candidate pools.

    Pool ``k``'s channels are its queues, ranked by its hits, and
    ``weights[k]`` holds one weight per entry of ``pools[k].channels``.
    Returns per pool its ``(len(seeds[k]), len(pools[k]))`` orders of pool
    rows. Renumbering a pool's items renumbers its orders and moves no draw.

    Every step makes one draw for every instance still drawing, as numpy
    operations over all of them. A draw pops at least one entry, so each
    distinct seed's uniforms are drawn once, up front:
    ``default_rng(seed).random(n)`` gives the values n scalar draws would,
    and step t reads uniform t. Queues are read pointers into the set's
    padded rows, and each instance masks the items it has emitted. When a
    queue empties, the instance's cumulative weights are rebuilt as a
    sequential cumsum with dead channels at 0, and its total as numpy's
    ``sum`` over just the live weights (pairwise for 8 or more values):
    another summation order could move a draw across a channel boundary.
    """
    if not pools:
        return []
    n_sets = len(pools)
    n_channels = max(len(pool.channels) for pool in pools)
    hit_set = np.repeat(np.arange(n_sets), [len(pool.hit_row) for pool in pools])
    hit_channel = np.concatenate([pool.hit_channel for pool in pools])
    hit_rank = np.concatenate([pool.hit_rank for pool in pools])
    hit_row = np.concatenate([pool.hit_row for pool in pools])
    queue = hit_set * n_channels + hit_channel
    end = np.bincount(queue, minlength=n_sets * n_channels).reshape(n_sets, n_channels)
    # padded[k, c, r] is the row at rank r + 1 of pool k's c-th channel; one
    # pad column past the longest queue keeps a read at a queue's end in bounds.
    width = int(end.max(initial=0)) + 1
    padded = np.zeros((n_sets, n_channels, width), dtype=np.intp)
    padded[hit_set, hit_channel, hit_rank - 1] = hit_row
    w = np.zeros((n_sets, n_channels))
    for k, set_w in enumerate(weights):
        w[k, : len(set_w)] = set_w
    flat_rows = padded.ravel()
    # Set k's instances are rows first[k]:first[k + 1], one per seed in
    # seeds[k]; instance i reads row seed_of[i] of the uniforms.
    n_per_set = [len(set_seeds) for set_seeds in seeds]
    first = np.cumsum([0, *n_per_set])
    n_inst = int(first[-1])
    set_of = np.repeat(np.arange(n_sets), n_per_set)
    slot: dict[int, int] = {}
    seed_of = np.array(
        [slot.setdefault(seed, len(slot)) for set_seeds in seeds for seed in set_seeds],
        dtype=np.intp,
    )
    most_entries = int(end.sum(axis=1).max(initial=0))
    uniforms = np.array(
        [np.random.default_rng(seed).random(most_entries) for seed in slot]
    ).reshape(len(slot), most_entries)
    head = np.zeros((n_inst, n_channels), dtype=np.intp)
    end = np.repeat(end, n_per_set, axis=0)
    w = np.repeat(w, n_per_set, axis=0)
    most_items = max(map(len, pools))
    # Instance i's emitted-item mask is emitted[i * most_items:][:most_items].
    emitted = np.zeros(n_inst * most_items, dtype=bool)
    out = np.zeros((n_inst, most_items), dtype=np.intp)
    out_len = np.zeros(n_inst, dtype=np.intp)
    cumulative = np.zeros((n_inst, n_channels))
    total = np.zeros(n_inst)

    def emit(inst, item) -> None:
        out[inst, out_len[inst]] = item
        out_len[inst] += 1
        emitted[inst * most_items + item] = True

    def flush(i: int) -> None:
        # Only zero-weight channels are live: emit what they hold, in channel order.
        for c in range(n_channels):
            for item in padded[set_of[i], c, head[i, c]:end[i, c]]:
                if not emitted[i * most_items + item]:
                    emit(i, item)
            head[i, c] = end[i, c]

    active = np.flatnonzero((end > head).any(axis=1))
    rebuild = active
    step = 0
    while active.size:
        if rebuild.size:
            live = head[rebuild] < end[rebuild]
            live_w = np.where(live, w[rebuild], 0.0)
            cumulative[rebuild] = np.cumsum(live_w, axis=1)
            n_live = live.sum(axis=1)
            sums = np.zeros(len(rebuild))
            for m in np.unique(n_live[n_live > 0]):
                at_m = n_live == m
                sums[at_m] = w[rebuild[at_m]][live[at_m]].reshape(-1, m).sum(axis=1)
            total[rebuild] = sums
            stop = n_live == 0
            flushed = ~stop & (sums <= 0.0)
            for i in rebuild[flushed]:
                flush(int(i))
            stop |= flushed
            if stop.any():
                active = np.setdiff1d(active, rebuild[stop], assume_unique=True)
                if not active.size:
                    break
        x = uniforms[seed_of[active], step] * total[active]
        chosen = (cumulative[active] <= x[:, None]).sum(axis=1)
        row_start = (set_of[active] * n_channels + chosen) * width
        seen_start = active * most_items
        at = head[active, chosen]
        stop_at = end[active, chosen]
        # Pop entries whose item is already out.
        while True:
            item = flat_rows[row_start + at]
            skip = (at < stop_at) & emitted[seen_start + item]
            if not skip.any():
                break
            at += skip
        hit = at < stop_at
        emit(active[hit], item[hit])
        at += hit
        head[active, chosen] = at
        rebuild = active[at == stop_at]
        step += 1

    return [out[first[k]:first[k + 1], :len(pool)] for k, pool in enumerate(pools)]
