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
    An instance's queues are read pointers into its set's entries, and an
    entry is dead once its item is out, so a pick skips dead entries and
    emits the next one. Step t uses uniform t of ``default_rng(seed).random``,
    the value the loop's own t-th draw reads. When a queue empties, the
    instance's cumulative weights are rebuilt over all channels with the
    dead ones at 0 (a sequential cumsum, so each live channel's value is
    unchanged, and a pick never lands on a dead channel), and its total is
    numpy's ``sum`` over just its live weights, taken row-wise per live
    count. Instances whose live weights total 0 are flushed one at a time,
    as in the loop. One instance is faster through the loop itself.
    """
    if len(weights) != len(list_sets):
        raise ValueError(f"{len(list_sets)} list sets but {len(weights)} weight maps")
    n_seeds = len(seeds)
    # Encode every set: global item codes, one flat run of entries per
    # list in channel-index order, and each list's entry range and weight.
    set_items: list[tuple[ItemId, ...]] = []
    entry_item: list[int] = []
    set_lists: list[list[tuple[int, int, float]]] = []
    n_items = 0
    for lists, wmap in zip(list_sets, weights):
        codes: dict[ItemId, int] = {}
        spans: list[tuple[int, int, float]] = []
        if lists:
            _check_one_query(lists)
            for cl in lists:
                if cl.channel not in wmap.weights:
                    raise ValueError(f"no weight for channel {cl.channel.name!r}")
            for cl in sorted(lists, key=lambda c: c.channel.index):
                lo = len(entry_item)
                entry_item.extend(
                    n_items + codes.setdefault(item, len(codes)) for item, _ in cl.entries
                )
                spans.append((lo, len(entry_item), wmap.weights[cl.channel]))
        set_items.append(tuple(codes))
        set_lists.append(spans)
        n_items += len(codes)

    n_sets = len(list_sets)
    n_channels = max(map(len, set_lists), default=0)
    n_entries = len(entry_item)
    items_of = np.array(entry_item, dtype=np.intp)
    item_base = np.cumsum([0] + [len(items) for items in set_items])
    # Each item's entries, one per list that holds it; n_entries pads.
    by_item = np.argsort(items_of, kind="stable")
    holders = np.bincount(items_of, minlength=n_items)
    slot = np.arange(n_entries) - (np.cumsum(holders) - holders)[items_of[by_item]]
    entries_of = np.full((n_items, max(n_channels, 1)), n_entries, dtype=np.intp)
    entries_of[items_of[by_item], slot] = by_item

    lo = np.zeros((n_sets, n_channels), dtype=np.intp)
    hi = np.zeros((n_sets, n_channels), dtype=np.intp)
    w = np.zeros((n_sets, n_channels))
    for k, spans in enumerate(set_lists):
        for j, span in enumerate(spans):
            lo[k, j], hi[k, j], w[k, j] = span
    # Instance i is set i // n_seeds under seed i % n_seeds.
    head = np.repeat(lo, n_seeds, axis=0)
    end = np.repeat(hi, n_seeds, axis=0)
    w = np.repeat(w, n_seeds, axis=0)
    seed_of = np.tile(np.arange(n_seeds), n_sets)
    most_entries = int((hi - lo).sum(axis=1).max(initial=0))
    uniforms = np.array(
        [np.random.default_rng(seed).random(most_entries) for seed in seeds]
    ).reshape(n_seeds, most_entries)
    dead = np.zeros((n_seeds, n_entries + 1), dtype=bool)
    most_items = max(map(len, set_items), default=0)
    out = np.zeros((n_sets * n_seeds, most_items), dtype=np.intp)
    out_len = np.zeros(n_sets * n_seeds, dtype=np.intp)
    cumulative = np.zeros((n_sets * n_seeds, n_channels))
    total = np.zeros(n_sets * n_seeds)

    def emit(inst: np.ndarray, entries: np.ndarray) -> None:
        item = items_of[entries]
        out[inst, out_len[inst]] = item
        out_len[inst] += 1
        dead[seed_of[inst, None], entries_of[item]] = True

    def flush(i: int) -> None:
        # Only zero-weight channels are live: emit what they hold, in channel order.
        s = seed_of[i]
        for c in range(n_channels):
            for e in range(head[i, c], end[i, c]):
                if not dead[s, e]:
                    emit(np.array([i]), np.array([e]))
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
                rows = n_live == m
                sums[rows] = w[rebuild[rows]][live[rows]].reshape(-1, m).sum(axis=1)
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
        seeds_now = seed_of[active]
        x = uniforms[seeds_now, step] * total[active]
        chosen = (cumulative[active] <= x[:, None]).sum(axis=1)
        at = head[active, chosen]
        stop_at = end[active, chosen]
        # Pop entries whose item is already out.
        while True:
            skip = (at < stop_at) & dead[seeds_now, at]
            if not skip.any():
                break
            at += skip
        hit = at < stop_at
        emit(active[hit], at[hit])
        at += hit
        head[active, chosen] = at
        rebuild = active[at == stop_at]
        step += 1

    return [
        (items, out[k * n_seeds:(k + 1) * n_seeds, : len(items)] - item_base[k])
        for k, items in enumerate(set_items)
    ]
