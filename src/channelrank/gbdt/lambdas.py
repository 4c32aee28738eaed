"""Pairwise gradients for the listwise ranking objective.

For each within-query pair (i, j) with label_i > label_j the pairwise
loss is |dNDCG@k(i,j)| * log(1 + exp(-sigma * (s_i - s_j))), where
|dNDCG@k(i,j)| is the NDCG@k change from swapping the two documents in
the current score-sorted order. Its first derivative contributes

    lambda_ij = -sigma * |dNDCG@k(i,j)| / (1 + exp(sigma * (s_i - s_j)))

to g_i (and -lambda_ij to g_j), so the document that should rise
accumulates negative gradient and the Newton leaf step -G/(H+l2) moves
its score up. The second derivative contributes
sigma^2 * |dNDCG| * rho * (1 - rho) to both documents' Hessians.

Pair contributions are snapped to a 2**-40 grid before accumulation:
per-document sums then add exactly in any order (they are scaled
integers well below 2**53), which makes the per-query gradient sum
exactly zero and keeps multi-threaded accumulation bit-reproducible.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..metrics import gain, ideal_dcg_at_k

_QUANTUM = 2.0**40


def _quantize(values: np.ndarray) -> np.ndarray:
    return np.round(values * _QUANTUM) / _QUANTUM


def _stable_sigmoid_neg(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(z)); the clip keeps exp finite for any float input."""
    return 1.0 / (1.0 + np.exp(np.clip(z, -709.0, 709.0)))


def _positions(scores: np.ndarray, tiebreak: np.ndarray | None) -> np.ndarray:
    """0-based rank of each document under score-descending order."""
    if tiebreak is None:
        tiebreak = np.arange(len(scores))
    order = np.lexsort((np.asarray(tiebreak), -np.asarray(scores, dtype=np.float64)))
    pos = np.empty(len(scores), dtype=np.int64)
    pos[order] = np.arange(len(scores))
    return pos


def _rank_discounts(pos: np.ndarray, k: int) -> np.ndarray:
    return np.where(pos < k, 1.0 / np.log2(pos + 2.0), 0.0)


def delta_ndcg(
    labels: np.ndarray,
    score_order: np.ndarray,
    i: int,
    j: int,
    k: int,
) -> float:
    """|NDCG@k after swapping ranked positions i and j - NDCG@k before|.

    ``score_order`` is the permutation of document indices induced by the
    current scores (best first); ``i`` and ``j`` are 0-based positions in
    that ranking. Zero when both positions fall beyond the truncation
    depth or the two documents share a label.
    """
    labels = np.asarray(labels, dtype=np.float64)
    order = np.asarray(score_order, dtype=np.intp)
    n = len(labels)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError(f"invalid positions ({i}, {j}) for list of length {n}")
    idcg = ideal_dcg_at_k(labels, k)
    if idcg == 0.0:
        return 0.0
    gains = gain(labels)
    di = 1.0 / np.log2(i + 2.0) if i < k else 0.0
    dj = 1.0 / np.log2(j + 2.0) if j < k else 0.0
    return abs(float(gains[order[i]] - gains[order[j]]) * (di - dj)) / idcg


def lambda_gradients(
    labels: np.ndarray,
    scores: np.ndarray,
    k: int,
    sigma: float = 1.0,
    tiebreak: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulated pairwise gradients and Hessians for one query group.

    Returns ``(g, h)`` arrays; g sums to exactly zero over the group and
    h is non-negative. Documents with equal labels form no pair.
    """
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1 or len(labels) == 0:
        raise ValueError("labels and scores must be equal-length 1-d arrays")
    n = len(labels)
    g = np.zeros(n)
    h = np.zeros(n)
    win, lose = np.nonzero(labels[:, None] > labels[None, :])
    if len(win) == 0:
        return g, h
    pos = _positions(scores, tiebreak)
    disc = _rank_discounts(pos, k)
    idcg = ideal_dcg_at_k(labels, k)
    gains = gain(labels)
    delta = np.abs((gains[win] - gains[lose]) * (disc[win] - disc[lose])) / idcg
    rho = _stable_sigmoid_neg(sigma * (scores[win] - scores[lose]))
    lam = _quantize(sigma * delta * rho)
    hess = _quantize(sigma * sigma * delta * rho * (1.0 - rho))
    g = np.bincount(lose, weights=lam, minlength=n) - np.bincount(
        win, weights=lam, minlength=n
    )
    h = np.bincount(win, weights=hess, minlength=n) + np.bincount(
        lose, weights=hess, minlength=n
    )
    return g, h


class PairIndex:
    """Precomputed label-discordant pairs for contiguous query groups.

    Pair structure depends only on labels and grouping, so it is built
    once per training run; each boosting round re-evaluates the
    score-dependent factors. Groups must occupy contiguous index ranges.
    """

    def __init__(
        self,
        labels: np.ndarray,
        group_ids: np.ndarray,
        k: int,
        sigma: float = 1.0,
    ):
        labels = np.asarray(labels, dtype=np.float64)
        group_ids = np.asarray(group_ids)
        if labels.shape != group_ids.shape:
            raise ValueError("labels and group_ids must match in shape")
        self.n = len(labels)
        self.k = int(k)
        self.sigma = float(sigma)
        change = np.flatnonzero(np.diff(group_ids) != 0)
        starts = np.concatenate(([0], change + 1, [self.n]))
        self.group_starts = starts
        self.group_count = len(starts) - 1
        self.group_codes = np.repeat(np.arange(self.group_count), np.diff(starts))

        gains = gain(labels)
        win_parts: list[np.ndarray] = []
        lose_parts: list[np.ndarray] = []
        pair_group_sizes = np.zeros(self.group_count, dtype=np.int64)
        idcg = np.zeros(self.group_count)
        for gidx in range(self.group_count):
            lo, hi = starts[gidx], starts[gidx + 1]
            lab = labels[lo:hi]
            idcg[gidx] = ideal_dcg_at_k(lab, self.k)
            wi, lo_j = np.nonzero(lab[:, None] > lab[None, :])
            win_parts.append(wi.astype(np.int64) + lo)
            lose_parts.append(lo_j.astype(np.int64) + lo)
            pair_group_sizes[gidx] = len(wi)
        self.win = np.concatenate(win_parts) if win_parts else np.empty(0, np.int64)
        self.lose = np.concatenate(lose_parts) if lose_parts else np.empty(0, np.int64)
        self.pair_starts = np.concatenate(([0], np.cumsum(pair_group_sizes)))
        self.dgain = gains[self.win] - gains[self.lose]
        with np.errstate(divide="ignore"):
            inv = np.where(idcg > 0.0, 1.0 / idcg, 0.0)
        self.pair_inv_idcg = inv[self.group_codes[self.win]]
        self.has_pairs = len(self.win) > 0

    def _chunk(
        self,
        scores: np.ndarray,
        disc: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        group_lo: int,
        group_hi: int,
    ) -> None:
        plo = self.pair_starts[group_lo]
        phi = self.pair_starts[group_hi]
        rlo = self.group_starts[group_lo]
        rhi = self.group_starts[group_hi]
        win = self.win[plo:phi] - rlo
        lose = self.lose[plo:phi] - rlo
        delta = np.abs(
            self.dgain[plo:phi]
            * (disc[self.win[plo:phi]] - disc[self.lose[plo:phi]])
        ) * self.pair_inv_idcg[plo:phi]
        rho = _stable_sigmoid_neg(
            self.sigma * (scores[self.win[plo:phi]] - scores[self.lose[plo:phi]])
        )
        lam = _quantize(self.sigma * delta * rho)
        hess = _quantize(self.sigma * self.sigma * delta * rho * (1.0 - rho))
        width = rhi - rlo
        g[rlo:rhi] = np.bincount(lose, weights=lam, minlength=width) - np.bincount(
            win, weights=lam, minlength=width
        )
        h[rlo:rhi] = np.bincount(win, weights=hess, minlength=width) + np.bincount(
            lose, weights=hess, minlength=width
        )

    def gradients(
        self,
        scores: np.ndarray,
        tiebreak: np.ndarray | None = None,
        n_threads: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-document (g, h) for the current scores.

        Thread count never changes the result: groups are independent and
        each thread writes a disjoint, contiguous row range.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if tiebreak is None:
            tiebreak = np.arange(self.n)
        order = np.lexsort((np.asarray(tiebreak), -scores, self.group_codes))
        pos_in_group = np.arange(self.n) - self.group_starts[self.group_codes[order]]
        disc_sorted = np.where(pos_in_group < self.k, 1.0 / np.log2(pos_in_group + 2.0), 0.0)
        disc = np.empty(self.n)
        disc[order] = disc_sorted
        g = np.zeros(self.n)
        h = np.zeros(self.n)
        if not self.has_pairs:
            return g, h
        if n_threads <= 1 or self.group_count == 1:
            self._chunk(scores, disc, g, h, 0, self.group_count)
            return g, h
        bounds = np.linspace(0, self.group_count, n_threads + 1).astype(int)
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            futures = [
                pool.submit(self._chunk, scores, disc, g, h, bounds[t], bounds[t + 1])
                for t in range(n_threads)
                if bounds[t] < bounds[t + 1]
            ]
            for fut in futures:
                fut.result()
        return g, h
