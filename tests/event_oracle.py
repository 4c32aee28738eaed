"""The event log assembled part by part, six full columns per part.

``part_assembly`` takes the compact (query, week) parts that
``synthgen.generate`` collects and widens each to the values
``np.nonzero`` gave it (intp stage, session and position). It builds
every part's week, session, query, item, action and timestamp columns
with one expression each in intp, int64 and float64, concatenates each
column and casts it to the compact dtype that :class:`EventFrame` names.
``synthgen._assemble_events``, which builds each column once over all
parts, must match it column by column, dtype included.
"""

from __future__ import annotations

import numpy as np

from channelrank.labeling import WEEK_SECONDS, EventFrame
from channelrank.synthgen import _SESSION_STRIDE


def part_assembly(
    parts, num_weeks: int, query_vocab: tuple[str, ...], item_vocab: tuple[str, ...]
) -> EventFrame:
    """The :class:`EventFrame` of ``parts``, in their order."""
    columns: list[tuple[np.ndarray, ...]] = []
    for part in parts:
        q, w = part.query, part.week
        action = part.action.astype(np.intp)
        s_idx = part.s_idx.astype(np.intp)
        pos = part.pos.astype(np.intp)
        base_session = (np.int64(q) * num_weeks + w) * _SESSION_STRIDE
        columns.append((
            np.full(len(action), w, dtype=np.int64),
            base_session + s_idx,
            np.full(len(action), q, dtype=np.int64),
            part.shown[pos],
            action,
            float(w) * WEEK_SECONDS + part.offsets[s_idx] + pos + 800.0 * action,
        ))

    def cat(column: int, dtype) -> np.ndarray:
        if not columns:
            return np.empty(0, dtype=dtype)
        return np.concatenate([part[column] for part in columns]).astype(dtype)

    return EventFrame(
        week=cat(0, np.int32),
        session=cat(1, np.int64),
        query=cat(2, np.int32),
        item=cat(3, np.int32),
        action=cat(4, np.int8),
        timestamp=cat(5, np.float64),
        query_vocab=query_vocab,
        item_vocab=item_vocab,
    )
