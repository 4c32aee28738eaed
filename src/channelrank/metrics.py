"""Ranking quality metrics: truncated DCG / NDCG.

Gain convention: 2**label - 1 with graded labels in [0, 4]; discount
1 / log2(rank + 1) with 1-based ranks. A group whose ideal DCG is zero
(all labels zero) scores 0 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def gain(labels: np.ndarray) -> np.ndarray:
    """Exponential gain 2**label - 1."""
    return np.exp2(np.asarray(labels, dtype=np.float64)) - 1.0


def discounts(n: int, k: int) -> np.ndarray:
    """Per-position discounts 1/log2(rank+1), zero beyond rank k."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    d = 1.0 / np.log2(ranks + 1.0)
    d[k:] = 0.0
    return d


def dcg_at_k(ordered_labels: np.ndarray, k: int) -> float:
    """DCG of labels already arranged in ranked order."""
    ordered_labels = np.asarray(ordered_labels, dtype=np.float64)
    return float(gain(ordered_labels) @ discounts(len(ordered_labels), k))


def ideal_dcg_at_k(labels: np.ndarray, k: int) -> float:
    """DCG of the label-descending arrangement (the normalizer)."""
    ordered = np.sort(np.asarray(labels, dtype=np.float64))[::-1]
    return dcg_at_k(ordered, k)


def check_k(k: int) -> int:
    """``k`` if it is at least 1, else ValueError."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


def _checked(values: np.ndarray, predicted_order: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Float64 ``values``, integer orders and the discounts at k. ValueError unless
    k >= 1, the values are 1-d, finite and non-negative and the orders are one
    integer permutation of ``range(len(values))`` or a 2-d stack of one or more."""
    check_k(k)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or not np.isfinite(values).all() or np.any(values < 0):
        raise ValueError("labels must be 1-d, finite and non-negative")
    n = len(values)
    try:
        order = np.asarray(predicted_order)
    except ValueError:  # a ragged stack
        order = np.empty(0)
    if (
        order.dtype.kind not in "iu" or order.shape[-1:] != (n,) or order.ndim > 2
        or (order.ndim == 2 and len(order) == 0)
        or not (np.sort(order, axis=-1) == np.arange(n)).all()
    ):
        raise ValueError(f"orders must be one or more integer permutations of range({n})")
    return values, order, discounts(n, k)


def _ratios(gains: np.ndarray, ideal: float, order: np.ndarray, disc: np.ndarray):
    """Each order's DCG over ``ideal`` (0 if it is 0), a float for one order. Each
    DCG is one ``gains[order] @ disc``; a stacked product would round differently."""
    stack = np.atleast_2d(order)
    out = np.array([gains[row] @ disc for row in stack]) / ideal if ideal else np.zeros(len(stack))
    return float(out[0]) if order.ndim == 1 else out


def ndcg_at_k(labels: np.ndarray, predicted_order: np.ndarray, k: int) -> float | np.ndarray:
    """NDCG@k of one ordering (a float), or of each row of a 2-d stack (an array).

    ``labels`` are non-negative relevances by item position; an ordering is
    an integer permutation of ``range(len(labels))``, best item first.
    """
    labels, order, disc = _checked(labels, predicted_order, k)
    return _ratios(gain(labels), ideal_dcg_at_k(labels, k), order, disc)


def purchase_ndcg_at_k(
    purchases: np.ndarray, predicted_order: np.ndarray, k: int
) -> float | np.ndarray:
    """:func:`ndcg_at_k` with linear gain, so raw purchase counts cannot overflow."""
    purchases, order, disc = _checked(purchases, predicted_order, k)
    # The ideal is a product over the reversed view: a contiguous copy rounds
    # differently, and the reported values depend on it.
    return _ratios(purchases, float(np.sort(purchases)[::-1] @ disc), order, disc)


def order_from_scores(scores: np.ndarray) -> np.ndarray:
    """Ranking induced by scores (descending); ties break by item index ascending.

    The index tie-break keeps evaluation deterministic when the ranker
    emits equal scores.
    """
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


@dataclass(frozen=True, slots=True)
class QueryGroups:
    """Query groups of a row-ordered table, each one contiguous run of rows.

    Group ``g`` (numbered in run order) is rows ``starts[g]:starts[g+1]``;
    ``codes`` holds each row's group and ``sizes`` each group's row count.
    """

    starts: np.ndarray
    codes: np.ndarray
    sizes: np.ndarray
    # rank_discounts' padded size buckets and each row's position in its
    # group, laid out on its first call.
    _layout: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def count(self) -> int:
        return len(self.sizes)

    @classmethod
    def from_ids(cls, ids: np.ndarray) -> QueryGroups:
        """Groups of rows that share an id; raises ValueError if an id's rows are split."""
        ids = np.asarray(ids)
        if ids.ndim != 1:
            raise ValueError("group ids must be a 1-d array")
        n = len(ids)
        change = np.flatnonzero(ids[1:] != ids[:-1]) + 1
        starts = np.concatenate(([0], change, [n])) if n else np.zeros(1, dtype=np.int64)
        run_ids = ids[starts[:-1]]
        _, first = np.unique(run_ids, return_index=True)
        if len(first) != len(run_ids):
            again = np.setdiff1d(np.arange(len(run_ids)), first)[0]
            raise ValueError(
                f"group {run_ids.tolist()[again]!r} is not one contiguous run of rows"
            )
        sizes = np.diff(starts)
        return cls(starts=starts, codes=np.repeat(np.arange(len(sizes)), sizes), sizes=sizes)

    def _padded_layout(self) -> tuple[list, np.ndarray]:
        """Groups bucketed by the power of two at or above their size, and row positions.

        Each bucket is ``(rows, base, keep, dest)``: ``rows`` is a (groups,
        width) matrix of row indices, padded with the index one past the
        last row; ``base`` is each group's first row; ``keep`` picks the
        real cells of the flattened matrix and ``dest`` gives their rows.
        """
        if self._layout is None:
            n = len(self.codes)
            bucket = np.frexp(np.maximum(self.sizes - 1, 0))[1]
            buckets = []
            for b in np.unique(bucket):
                members = np.flatnonzero(bucket == b)
                base = self.starts[members, None]
                cols = np.arange(int(self.sizes[members].max()))
                real = cols < self.sizes[members, None]
                rows = np.where(real, base + cols, n)
                keep = np.flatnonzero(real)
                buckets.append((rows, base, keep, rows.ravel()[keep]))
            position = np.arange(n) - self.starts[self.codes]
            object.__setattr__(self, "_layout", (buckets, position))
        return self._layout

    def rank_discounts(self, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows in within-group rank order, and the NDCG@k discount at each rank.

        Rows rank by score descending, ties by row index ascending. The
        discount at 0-based rank p of a group is 1/log2(p + 2), and 0 from
        p = k on.

        Each size bucket of ``_padded_layout`` is one stable row-wise
        argsort of its negated scores. Padding cells read NaN, which sorts
        after every score, and the stable sort keeps a real NaN (an earlier
        column) ahead of the padding, so each group's first ``size`` sorted
        cells are its rows in rank order. Rank p of group g lands at
        position ``starts[g] + p``, so the discounts are :func:`discounts`
        of the largest group, read at each row's position.
        """
        n = len(self.codes)
        buckets, position = self._padded_layout()
        negated = np.empty(n + 1)
        np.negative(np.asarray(scores, dtype=np.float64), out=negated[:n])
        negated[n] = np.nan
        order = np.empty(n, dtype=np.intp)
        for rows, base, keep, dest in buckets:
            ranked = np.argsort(negated[rows], axis=1, kind="stable")
            ranked += base
            order[dest] = ranked.ravel()[keep]
        width = int(self.sizes.max()) if self.count else 0
        return order, discounts(width, k)[position]


class GroupedNdcg:
    """Vectorized mean NDCG@k over many contiguous query groups.

    Built once per dataset (labels and grouping are fixed), then evaluated
    for any score vector; used to log per-round training quality without a
    per-group Python loop. A negative or non-finite label raises
    ``ValueError``.
    """

    def __init__(self, labels: np.ndarray, groups: QueryGroups, k: int):
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != groups.codes.shape:
            raise ValueError("labels must have one entry per grouped row")
        bad = np.flatnonzero(~np.isfinite(labels) | (labels < 0.0))
        if len(bad):
            raise ValueError(
                f"label {labels[bad[0]]} at row {bad[0]}: labels must be finite and >= 0"
            )
        self.groups = groups
        self.group_count = groups.count
        self.k = int(check_k(k))
        self.gains = gain(labels)
        # Ranking by label with index tie-breaks gives the ideal DCG.
        self.idcg = self._dcg(*groups.rank_discounts(labels, self.k))
        self._nonzero = self.idcg > 0.0

    def _dcg(self, order: np.ndarray, disc: np.ndarray) -> np.ndarray:
        """Per-group DCG of rows taken in ``order`` with rank discounts ``disc``."""
        return np.bincount(
            self.groups.codes[order], weights=self.gains[order] * disc,
            minlength=self.group_count,
        )

    def mean(
        self, scores: np.ndarray, *, ranked: tuple[np.ndarray, np.ndarray] | None = None
    ) -> float:
        """Mean NDCG@k across groups for the given scores (zero-IDCG groups score 0)."""
        return float(np.mean(self.per_group(scores, ranked=ranked)))

    def per_group(
        self, scores: np.ndarray, *, ranked: tuple[np.ndarray, np.ndarray] | None = None
    ) -> np.ndarray:
        """Per-group NDCG@k; ``ranked`` is ``groups.rank_discounts(scores, k)`` if known."""
        if ranked is None:
            ranked = self.groups.rank_discounts(scores, self.k)
        dcg = self._dcg(*ranked)
        out = np.zeros(self.group_count)
        np.divide(dcg, self.idcg, out=out, where=self._nonzero)
        return out
