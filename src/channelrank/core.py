"""Domain types shared across the toolkit, plus candidate-pool construction.

A query is served by K independent retrieval channels, each producing a
scored, ranked item list. Downstream stages see only the union of the
per-channel top-n truncations; this module owns that merge and the
per-hit arrays (which channel retrieved an item, at what rank, with what
score) that both the fusion baselines and the learned ranker consume.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

QueryId = str
ItemId = str
WeekId = int


@dataclass(frozen=True, slots=True)
class ChannelId:
    """One retrieval channel: a stable index in [0, K) plus a human label."""

    index: int
    name: str

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"channel index must be >= 0, got {self.index}")
        if not self.name:
            raise ValueError("channel name must be non-empty")


_ITEM = itemgetter(0)
_SCORE = itemgetter(1)


@dataclass(frozen=True, slots=True)
class ChannelList:
    """A single channel's ranked output for one query.

    Entries are (item, score) pairs sorted by score descending with ties
    broken by item id ascending; duplicates and non-finite scores are
    rejected. Use :meth:`from_pairs` to build from unordered input.
    """

    channel: ChannelId
    query: QueryId
    entries: tuple[tuple[ItemId, float], ...]

    def __post_init__(self) -> None:
        if not self.query:
            raise ValueError("query id must be non-empty")
        seen: set[ItemId] = set()
        prev_score, prev_item = math.inf, ""
        for item, score in self.entries:
            if not item:
                raise ValueError("item id must be non-empty")
            if not math.isfinite(score):
                raise ValueError(f"non-finite score {score!r} for item {item!r}")
            if item in seen:
                raise ValueError(f"duplicate item {item!r} in channel list")
            seen.add(item)
            # The (-score, item) order, compared without building the key.
            if score > prev_score or (score == prev_score and item < prev_item):
                raise ValueError(
                    "entries must be sorted by score desc, ties by item id asc"
                )
            prev_score, prev_item = score, item

    @classmethod
    def from_pairs(
        cls,
        channel: ChannelId,
        query: QueryId,
        pairs: Iterable[tuple[ItemId, float]],
    ) -> ChannelList:
        """Build a list from unordered (item, score) pairs, sorting on entry.

        Two stable passes, by item and then by score descending, give the
        ``(-score, item)`` order.
        """
        ordered = sorted(pairs, key=_ITEM)
        ordered.sort(key=_SCORE, reverse=True)
        return cls(channel=channel, query=query, entries=tuple(ordered))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def items(self) -> tuple[ItemId, ...]:
        return tuple(item for item, _ in self.entries)


@dataclass(frozen=True, slots=True, eq=False)
class CandidatePool:
    """Deduplicated union of truncated channel lists for one query.

    ``items`` are the distinct items, sorted. Hit ``h`` says that channel
    ``channels[hit_channel[h]]`` placed ``items[hit_row[h]]`` at 1-based
    rank ``hit_rank[h]`` with score ``hit_score[h]``. ``channels`` are the
    merged lists' channels by index, and the hits run in that order, then
    by rank, so the pool does not depend on the order of its input lists.
    The arrays are read-only.
    """

    query: QueryId
    items: tuple[ItemId, ...]
    channels: tuple[ChannelId, ...]
    hit_row: np.ndarray
    hit_channel: np.ndarray
    hit_rank: np.ndarray
    hit_score: np.ndarray

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True, slots=True)
class TruncationConfig:
    """Per-channel candidate budget: how many top items each channel forwards."""

    per_channel_n: Mapping[ChannelId, int]

    def __post_init__(self) -> None:
        for channel, n in self.per_channel_n.items():
            if n < 1:
                raise ValueError(f"n for channel {channel.name!r} must be >= 1, got {n}")

    @classmethod
    def uniform(cls, channels: Iterable[ChannelId], n: int) -> TruncationConfig:
        return cls(per_channel_n={c: n for c in channels})

    @classmethod
    def whole(cls, lists: Iterable[ChannelList]) -> TruncationConfig:
        """The budget that keeps every list whole; an empty list gets 1."""
        return cls(per_channel_n={cl.channel: max(len(cl), 1) for cl in lists})

    def n_for(self, channel: ChannelId) -> int:
        try:
            return self.per_channel_n[channel]
        except KeyError:
            raise ValueError(f"no budget for channel {channel.name!r}") from None


def truncate(channel_list: ChannelList, n: int) -> ChannelList:
    """Keep the first min(n, len) entries of a ranked list, order preserved."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n >= len(channel_list.entries):
        return channel_list
    return ChannelList(
        channel=channel_list.channel,
        query=channel_list.query,
        entries=channel_list.entries[:n],
    )


def _check_one_query(lists: Sequence[ChannelList]) -> QueryId:
    """The one query id of a non-empty run of lists; mixed ids raise ValueError."""
    query = lists[0].query
    for cl in lists[1:]:
        if cl.query != query:
            raise ValueError(f"mixed query ids: {query!r} vs {cl.query!r}")
    return query


def merge_pool(lists: Sequence[ChannelList], cfg: TruncationConfig) -> CandidatePool:
    """Union the truncated channel lists into a candidate pool.

    Items retrieved by several channels appear once, with one hit per
    retrieving channel. No lists give an empty pool with query ``""``.

    Raises
    ------
    ValueError
        If the lists mix query ids, repeat a channel, or have a channel with
        no budget or a budget below 1.
    """
    query = _check_one_query(lists) if lists else ""
    seen_channels: set[int] = set()
    for cl in lists:
        if cl.channel.index in seen_channels:
            raise ValueError(f"duplicate channel {cl.channel.name!r}")
        seen_channels.add(cl.channel.index)

    ordered = sorted(lists, key=lambda c: c.channel.index)
    cuts = [cfg.n_for(cl.channel) for cl in ordered]
    if min(cuts, default=1) < 1:
        raise ValueError(f"n must be >= 1, got {min(cuts)}")
    kept = [cl.entries[:n] for cl, n in zip(ordered, cuts)]
    hits = list(chain.from_iterable(kept))
    ids = list(map(_ITEM, hits))
    items = tuple(sorted(set(ids)))
    row_of = dict(zip(items, range(len(items))))
    lengths = np.fromiter(map(len, kept), np.intp, len(kept))
    starts = np.cumsum(lengths) - lengths
    n = len(hits)
    hit_row = np.fromiter(map(row_of.__getitem__, ids), np.intp, n)
    hit_channel = np.repeat(np.arange(len(kept)), lengths)
    hit_rank = np.arange(1, n + 1) - np.repeat(starts, lengths)
    hit_score = np.fromiter(map(_SCORE, hits), np.float64, n)
    for array in (hit_row, hit_channel, hit_rank, hit_score):
        array.flags.writeable = False
    return CandidatePool(
        query=query,
        items=items,
        channels=tuple(cl.channel for cl in ordered),
        hit_row=hit_row,
        hit_channel=hit_channel,
        hit_rank=hit_rank,
        hit_score=hit_score,
    )


def write_channel_lists(path: str, lists: Iterable[ChannelList]) -> None:
    """Write lists in the tab-separated interchange format.

    One line per entry: ``query_id<TAB>channel_name<TAB>item_id<TAB>score``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for cl in lists:
            for item, score in cl.entries:
                fh.write(f"{cl.query}\t{cl.channel.name}\t{item}\t{score!r}\n")


def read_fields(
    path: str,
    n_fields: int | None = None,
    ids: Mapping[int, str] | None = None,
    sep: str = "\t",
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, fields)`` for each non-blank line of a text file.

    A line must hold ``n_fields`` fields and a non-empty value at each id
    position in ``ids`` (position -> name), or ``ValueError`` names its
    ``path:line``. With ``n_fields`` None the first line is a header,
    yielded as it is, whose length fixes the count.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(sep)
            if len(fields) != n_fields:
                if n_fields is None:
                    n_fields = len(fields)
                elif fields == [""]:
                    continue
                else:
                    raise ValueError(
                        f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}"
                    )
            elif ids and "" in fields:
                for k, name in ids.items():
                    if not fields[k]:
                        raise ValueError(f"{path}:{lineno}: empty {name} id")
            yield lineno, fields


def parse_finite(text: str, field: str, path: str, lineno: int) -> float:
    """``text`` as a float; ``ValueError`` with ``path:line`` unless it is finite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: {field} {text!r} is not a finite number")
    return value


def read_channel_lists(
    paths: Sequence[str],
) -> tuple[list[dict[QueryId, list[ChannelList]]], tuple[ChannelId, ...]]:
    """Load channel-list files: one ``{query: lists in channel order}`` dict
    per file, and the channels, numbered over the sorted names of every
    file. Lines may come in any order; entries are sorted on load.
    """
    raw: dict[tuple[str, int, QueryId], dict[ItemId, float]] = {}
    for f, path in enumerate(paths):
        for lineno, (query, name, item, score) in read_fields(
            path, 4, {0: "query", 1: "channel", 2: "item"}
        ):
            entries = raw.setdefault((name, f, query), {})
            if item in entries:
                raise ValueError(
                    f"{path}:{lineno}: duplicate item {item!r} for query {query!r} "
                    f"channel {name!r}"
                )
            entries[item] = parse_finite(score, "score", path, lineno)
    names = sorted({name for name, _, _ in raw})
    channels = {name: ChannelId(index=i, name=name) for i, name in enumerate(names)}
    files: list[dict[QueryId, list[ChannelList]]] = [{} for _ in paths]
    # Keys lead with the channel name, so each query's lists come out in channel order.
    for (name, f, query), entries in sorted(raw.items()):
        files[f].setdefault(query, []).append(
            ChannelList.from_pairs(channels[name], query, entries.items())
        )
    return files, tuple(channels.values())
