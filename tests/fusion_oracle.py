"""Reference weighted interleaving: one numpy draw and one alive rebuild per pick.

This is the straightforward loop that ``fusion.weighted_interleave`` must
reproduce exactly. Every pick rebuilds the list of channels with items left,
sums their weights with numpy, takes a sequential cumulative sum, draws one
scalar from the seed's PCG64 stream and picks a channel with
``np.searchsorted``. Tests compare the package function against it on
random inputs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from channelrank.core import ChannelList, ItemId
from channelrank.fusion import FusedList, InterleaveWeights, _check_one_query


def weighted_interleave(
    lists: Sequence[ChannelList],
    weights: InterleaveWeights,
    seed: int,
) -> FusedList:
    if not lists:
        return FusedList(query="", items=())
    query = _check_one_query(lists)
    for cl in lists:
        if cl.channel not in weights.weights:
            raise ValueError(f"no weight for channel {cl.channel.name!r}")

    ordered_lists = sorted(lists, key=lambda c: c.channel.index)
    queues: list[list[ItemId]] = [list(cl.items)[::-1] for cl in ordered_lists]
    w = np.array([weights.weights[cl.channel] for cl in ordered_lists], dtype=np.float64)

    rng = np.random.default_rng(seed)
    emitted: set[ItemId] = set()
    out: list[ItemId] = []

    def emit_from(idx: int) -> None:
        queue = queues[idx]
        while queue:
            item = queue.pop()
            if item not in emitted:
                emitted.add(item)
                out.append(item)
                return

    while True:
        alive = [i for i, q in enumerate(queues) if q]
        if not alive:
            break
        probs = w[alive]
        total = probs.sum()
        if total <= 0.0:
            # Only zero-weight channels remain: flush deterministically.
            for i in alive:
                while queues[i]:
                    emit_from(i)
            break
        cumulative = np.cumsum(probs)
        draw = rng.random() * total
        chosen = alive[int(np.searchsorted(cumulative, draw, side="right"))]
        emit_from(chosen)

    return FusedList(query=query, items=tuple(out))
