"""Non-learned rank fusion baselines: reciprocal rank fusion and weighted interleaving.

Both operate on the same per-query channel lists the learned ranker sees,
and serve as experimental controls. RRF is deterministic; weighted
interleaving is a seeded stochastic policy, so experiment configs carry
the seed. :func:`weighted_interleave` fuses one list set under one seed;
:func:`weighted_interleave_batch` gives the same orders for many list sets
under many seeds in one vectorized pass, which the ablation's WI baseline
uses.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .core import ChannelId, ChannelList, ItemId, QueryId, _check_one_query


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


def _encode(
    lists: Sequence[ChannelList], weights: InterleaveWeights
) -> tuple[QueryId, tuple[ItemId, ...], list[list[int]], list[float]]:
    """Check one list set and encode it for interleaving.

    Returns the query, the deduplicated union of the lists' items
    (channel-index order, then rank), and per list, in channel-index
    order, its row of indices into that union and its weight. An empty
    set encodes as query ``""`` with nothing in it.
    """
    if not lists:
        return "", (), [], []
    query = _check_one_query(lists)
    codes: dict[ItemId, int] = {}
    rows: list[list[int]] = []
    w: list[float] = []
    for cl in sorted(lists, key=lambda c: c.channel.index):
        if cl.channel not in weights.weights:
            raise ValueError(f"no weight for channel {cl.channel.name!r}")
        rows.append([codes.setdefault(item, len(codes)) for item, _ in cl.entries])
        w.append(weights.weights[cl.channel])
    return query, tuple(codes), rows, w


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
    query, items, rows, weight_list = _encode(lists, weights)
    queues = [row[::-1] for row in rows]
    w = np.array(weight_list, dtype=np.float64)
    uniforms = np.random.default_rng(seed).random(sum(map(len, queues))).tolist()

    out: dict[int, None] = {}  # insertion-ordered set of emitted items
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

    return FusedList(query=query, items=tuple(items[i] for i in out))


def weighted_interleave_batch(
    list_sets: Sequence[Sequence[ChannelList]],
    weights: Sequence[InterleaveWeights],
    seeds: Sequence[int],
) -> list[tuple[tuple[ItemId, ...], np.ndarray]]:
    """:func:`weighted_interleave` of every list set under every seed, in one pass.

    Returns one ``(items, orders)`` pair per list set: ``items`` is the
    deduplicated union of its lists (channel-index order, then rank), and
    row ``s`` of the ``(len(seeds), len(items))`` array ``orders`` holds
    the indices into ``items`` in the order
    ``weighted_interleave(list_sets[g], weights[g], seeds[s]).items``
    emits them. Inputs are checked as that function checks them.

    Each (set, seed) pair is an instance; every step makes one draw for
    every instance still drawing, as numpy operations over all of them.
    An instance's queues are read pointers into its set's padded rows of
    item indices, and each instance keeps a mask of the items it has
    emitted, so a pick skips emitted items and emits the next one. Step t
    uses uniform t of ``default_rng(seed).random``, the value the loop's
    own t-th draw reads. When a queue empties, the instance's cumulative
    weights are rebuilt over all channels with the dead ones at 0 (a
    sequential cumsum, so each live channel's value is unchanged, and a
    pick never lands on a dead channel), and its total is numpy's ``sum``
    over just its live weights, taken row-wise per live count. Instances
    whose live weights total 0 are flushed one at a time, as in the loop.
    One instance is faster through the loop itself.
    """
    if len(weights) != len(list_sets):
        raise ValueError(f"{len(list_sets)} list sets but {len(weights)} weight maps")
    encoded = [_encode(lists, wmap)[1:] for lists, wmap in zip(list_sets, weights)]
    n_sets, n_seeds = len(encoded), len(seeds)
    n_channels = max((len(set_rows) for _, set_rows, _ in encoded), default=0)
    longest = max((len(row) for _, set_rows, _ in encoded for row in set_rows), default=0)
    # rows[k, c, r] is the item at rank r of set k's c-th list; one pad
    # column past the longest list keeps a read at a queue's end in bounds.
    width = longest + 1
    rows = np.zeros((n_sets, n_channels, width), dtype=np.intp)
    end = np.zeros((n_sets, n_channels), dtype=np.intp)
    w = np.zeros((n_sets, n_channels))
    for k, (_, set_rows, set_w) in enumerate(encoded):
        for c, row in enumerate(set_rows):
            rows[k, c, : len(row)] = row
            end[k, c] = len(row)
        w[k, : len(set_w)] = set_w
    flat_rows = rows.ravel()
    # Instance i is set i // n_seeds under seed i % n_seeds.
    n_inst = n_sets * n_seeds
    set_of = np.repeat(np.arange(n_sets), n_seeds)
    seed_of = np.tile(np.arange(n_seeds), n_sets)
    most_entries = int(end.sum(axis=1).max(initial=0))
    uniforms = np.array(
        [np.random.default_rng(seed).random(most_entries) for seed in seeds]
    ).reshape(n_seeds, most_entries)
    head = np.zeros((n_inst, n_channels), dtype=np.intp)
    end = np.repeat(end, n_seeds, axis=0)
    w = np.repeat(w, n_seeds, axis=0)
    most_items = max((len(items) for items, _, _ in encoded), default=0)
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
            for item in rows[set_of[i], c, head[i, c]:end[i, c]]:
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

    return [
        (items, out[k * n_seeds:(k + 1) * n_seeds, : len(items)])
        for k, (items, _, _) in enumerate(encoded)
    ]
