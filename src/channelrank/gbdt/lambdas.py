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

Pairs whose two documents both rank at or below k are skipped. Both of
their discounts are 0, so |dNDCG@k| is 0 and their quantized lambda and
Hessian are exactly 0; adding 0.0 to a non-negative sum changes no bit,
so the skip leaves g and h bit-identical to evaluating every pair.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..metrics import QueryGroups, gain, ideal_dcg_at_k

_QUANTUM = 2.0**40
#: The sigmoid's exponent is clipped to this magnitude, so exp stays finite.
_EXP_LIMIT = 709.0


def check_threads(n_threads: int) -> int:
    """``n_threads`` if it is at least 1, else ValueError."""
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    return n_threads


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class PairIndex:
    """Precomputed label-discordant pairs for contiguous query groups.

    Pair structure depends only on labels and grouping, so it is built
    once per training run; each boosting round re-evaluates the
    score-dependent factors. ``groups`` gives each query group's row range.
    """

    def __init__(
        self,
        labels: np.ndarray,
        groups: QueryGroups,
        k: int,
        sigma: float = 1.0,
    ):
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != groups.codes.shape:
            raise ValueError("labels must have one entry per grouped row")
        self.n = len(labels)
        self.k = int(k)
        self.sigma = float(sigma)
        self.groups = groups
        self.group_starts = groups.starts
        self.group_count = groups.count
        self.group_codes = groups.codes

        gains = gain(labels)
        win_parts: list[np.ndarray] = []
        lose_parts: list[np.ndarray] = []
        pair_group_sizes = np.zeros(self.group_count, dtype=np.int64)
        idcg = np.zeros(self.group_count)
        for gidx in range(self.group_count):
            lo, hi = groups.starts[gidx], groups.starts[gidx + 1]
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
        top: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        group_lo: int,
        group_hi: int,
    ) -> None:
        plo = self.pair_starts[group_lo]
        phi = self.pair_starts[group_hi]
        rlo = self.group_starts[group_lo]
        rhi = self.group_starts[group_hi]
        # Only pairs with a member in the top k carry nonzero weight.
        live = plo + np.flatnonzero(top[self.win[plo:phi]] | top[self.lose[plo:phi]])
        win = self.win[live]
        lose = self.lose[live]
        # In place, each factor keeps the operation order of
        # |dgain * (d_w - d_l)| * inv_idcg, 1 / (1 + exp(clip(sigma * (s_w - s_l)))),
        # sigma * delta * rho and sigma * sigma * delta * rho * (1 - rho),
        # with only a product's two operands swapped; trained models depend on these bits.
        delta = disc[win]
        delta -= disc[lose]
        delta *= self.dgain[live]
        np.abs(delta, out=delta)
        delta *= self.pair_inv_idcg[live]
        rho = scores[win]
        rho -= scores[lose]
        rho *= self.sigma
        np.clip(rho, -_EXP_LIMIT, _EXP_LIMIT, out=rho)
        np.exp(rho, out=rho)
        rho += 1.0
        np.divide(1.0, rho, out=rho)
        lam = np.multiply(delta, self.sigma)
        lam *= rho
        hess = np.multiply(delta, self.sigma * self.sigma)
        hess *= rho
        np.subtract(1.0, rho, out=rho)
        hess *= rho
        for values in (lam, hess):
            values *= _QUANTUM
            np.round(values, out=values)
            values /= _QUANTUM
        width = rhi - rlo
        win -= rlo
        lose -= rlo
        g[rlo:rhi] = np.bincount(lose, weights=lam, minlength=width) - np.bincount(
            win, weights=lam, minlength=width
        )
        h[rlo:rhi] = np.bincount(win, weights=hess, minlength=width) + np.bincount(
            lose, weights=hess, minlength=width
        )

    def gradients(
        self,
        scores: np.ndarray,
        *,
        n_threads: int = 1,
        ranked: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-document (g, h) for the current scores.

        ``ranked`` is ``self.groups.rank_discounts(scores, k)`` when the
        caller already has it; otherwise it is computed here.
        Thread count never changes the result: groups are independent and
        each thread writes a disjoint, contiguous row range. At most
        :func:`usable_cpus` threads run; ``n_threads`` below 1 raises.
        """
        workers = min(check_threads(n_threads), usable_cpus(), self.group_count)
        scores = np.asarray(scores, dtype=np.float64)
        if ranked is None:
            ranked = self.groups.rank_discounts(scores, self.k)
        order, disc_sorted = ranked
        disc = np.empty(self.n)
        disc[order] = disc_sorted
        top = disc != 0.0  # rows ranked within the top k of their group
        g = np.zeros(self.n)
        h = np.zeros(self.n)
        if not self.has_pairs:
            return g, h
        if workers <= 1:
            self._chunk(scores, disc, top, g, h, 0, self.group_count)
            return g, h
        bounds = np.linspace(0, self.group_count, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(self._chunk, scores, disc, top, g, h, bounds[t], bounds[t + 1])
                for t in range(workers)
            ]
            for fut in futures:
                fut.result()
        return g, h
