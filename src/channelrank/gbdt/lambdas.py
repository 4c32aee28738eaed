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
The sums are exact while every partial sum stays below 2**13: a pair's
|lambda| is at most sigma and its Hessian at most sigma**2 / 4, so a row
of a group of ``size`` rows sums to at most
max(sigma, sigma**2 / 4) * (size - 1), which must be under 2**13.

Pairs are enumerated in rank space, not from stored pair lists. A pair
whose two documents both rank at or below k has both discounts 0, so
its |dNDCG@k| is 0 and its quantized lambda and Hessian are exactly 0;
only pairs with a member among the top k can move g or h. For a size
bucket of groups padded to width W, cell (p, q, g) pairs group g's
rank-p and rank-q rows, for p < min(k, W) and q < W. A per-fit weight is
1/IDCG on cells with p < q < size and 0 on every other cell, so each
unordered pair with a member in the top k is counted once and padding
and repeats add exactly 0. With dg = G_p - G_q and sgn = sign(dg), the
winner is p where sgn is +1 and q where it is -1; |dg * (d_p - d_q)|
and (s_p - s_q) * sgn are then, bit for bit, the winner-minus-loser
values of the label-ordered pair (IEEE products commute, and negating
both factors leaves a product unchanged), and an equal-gain cell, which
is no pair, has dg = 0 and adds exactly 0. This relies on gains that
never fall as labels rise, which ``metrics.gain`` meets. Multiplying the
quantized lambda by sgn gives the signed push: g_q gains it and g_p
loses it. Every cell array keeps the group axis last, so each ufunc's
inner loop runs over groups.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..metrics import QueryGroups, check_k, discounts, gain, ideal_dcg_at_k

_QUANTUM = 2.0**40
#: The sigmoid's exponent is clipped to this magnitude, so exp stays finite.
_EXP_LIMIT = 709.0
#: Cells per block of whole groups; each worker's buffers hold one block.
_CELL_BUDGET = 1 << 16


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
    """Rank-space pair template for contiguous query groups.

    The template depends only on labels and grouping, so it is built once
    per training run; each boosting round re-evaluates the score-dependent
    factors. ``groups`` gives each query group's row range. Each size
    bucket of ``groups`` is cut into blocks of whole groups of at most
    ``_CELL_BUDGET`` cells (one group per block if a group alone is
    larger); a block holds its (W, groups) row positions, the (k', W, 1)
    discount differences d_p - d_q and the (k', W, groups) weights.
    The work buffers are per index, so calls to :meth:`gradients` on one
    index must not overlap.
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
        self.k = int(check_k(k))
        self.sigma = float(sigma)
        size = int(groups.sizes.max(initial=0))
        if max(self.sigma, self.sigma**2 / 4) * (size - 1) >= 2**13:
            raise ValueError(
                f"a group of {size} rows at sigma {self.sigma:g} breaks the exact-sum "
                f"bound max(sigma, sigma**2 / 4) * (size - 1) < 2**13"
            )
        self.groups = groups
        self.group_starts = groups.starts
        self.group_count = groups.count
        self.group_codes = groups.codes
        self._labels = labels

        self._gains = np.zeros(self.n + 1)  # the padding row n has gain 0
        self._gains[: self.n] = gain(labels)
        idcg = np.array([
            ideal_dcg_at_k(labels[groups.starts[g] : groups.starts[g + 1]], self.k)
            for g in range(self.group_count)
        ])
        with np.errstate(divide="ignore"):
            inv_idcg = np.where(idcg > 0.0, 1.0 / idcg, 0.0)
        self.has_pairs = self.group_count > 0 and bool(
            np.any(
                np.maximum.reduceat(labels, groups.starts[:-1])
                > np.minimum.reduceat(labels, groups.starts[:-1])
            )
        )

        self._blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        if not self.has_pairs:
            return
        buckets, _ = groups._padded_layout()
        # The discounts rank_discounts reads, so d_p - d_q has its bits.
        disc = discounts(int(groups.sizes.max()), self.k)
        for rows, base, _, _ in buckets:
            count, width = rows.shape
            top = min(self.k, width)
            ranks = np.arange(width)
            diff = (disc[:top, None] - disc[None, :width])[:, :, None]
            real = ranks[:top, None] < ranks[None, :]  # p < q
            step = max(1, _CELL_BUDGET // (top * width))
            for lo in range(0, count, step):
                members = groups.codes[base[lo : lo + step, 0]]
                weight = np.where(
                    real[:, :, None] & (ranks[None, :, None] < groups.sizes[members]),
                    inv_idcg[members],
                    0.0,
                )
                self._blocks.append((np.ascontiguousarray(rows[lo : lo + step].T), diff, weight))
        self._cells = max(weight.size for _, _, weight in self._blocks)
        self._width_cells = max(pos.size for pos, _, _ in self._blocks)
        self._buffers: list[tuple[np.ndarray, ...]] = []

    @property
    def win(self) -> np.ndarray:
        """Winning (higher-label) row of every label-discordant pair, group by group."""
        return self._pair_lists[0]

    @property
    def lose(self) -> np.ndarray:
        """Losing row of each pair in :attr:`win`."""
        return self._pair_lists[1]

    @functools.cached_property
    def _pair_lists(self) -> tuple[np.ndarray, np.ndarray]:
        # Built on first read only; training never reads them.
        win, lose = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for lo, hi in zip(self.group_starts[:-1], self.group_starts[1:]):
            lab = self._labels[lo:hi]
            wi, lj = np.nonzero(lab[:, None] > lab[None, :])
            win.append(wi + lo)
            lose.append(lj + lo)
        return np.concatenate(win), np.concatenate(lose)

    def _block(
        self,
        block: tuple[np.ndarray, np.ndarray, np.ndarray],
        buffers: tuple[np.ndarray, ...],
        order: np.ndarray,
        scores: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
    ) -> None:
        """Write g and h of one block's rows; ``order`` and ``scores`` end in a padding entry."""
        pos, diff, weight = block
        top = weight.shape[0]
        delta, sgn, rho, lam = (buf[: weight.size].reshape(weight.shape) for buf in buffers[:4])
        rows = order[pos]
        gains = self._gains[rows]
        np.subtract(gains[:top, None], gains[None], out=delta)
        np.sign(delta, out=sgn)
        # In place, each factor keeps the operation order of
        # |dgain * (d_w - d_l)| * inv_idcg, 1 / (1 + exp(clip(sigma * (s_w - s_l)))),
        # sigma * delta * rho and sigma * sigma * delta * rho * (1 - rho),
        # with only a product's two operands swapped; trained models depend on these bits.
        delta *= diff
        np.abs(delta, out=delta)
        delta *= weight
        ranked = scores[rows]
        np.subtract(ranked[:top, None], ranked[None], out=rho)
        rho *= sgn
        rho *= self.sigma
        np.clip(rho, -_EXP_LIMIT, _EXP_LIMIT, out=rho)
        np.exp(rho, out=rho)
        rho += 1.0
        np.divide(1.0, rho, out=rho)
        np.multiply(delta, self.sigma, out=lam)
        lam *= rho
        hess = delta
        hess *= self.sigma * self.sigma
        hess *= rho
        np.subtract(1.0, rho, out=rho)
        hess *= rho
        for values in (lam, hess):
            values *= _QUANTUM
            np.round(values, out=values)
            values /= _QUANTUM
        lam *= sgn
        # Rank q gets the sum over p, and rank p < k' loses the sum over q.
        # The first sum starts at +0.0, so a row whose terms are all -0.0
        # (a zero lambda times sgn -1) reads +0.0, as the bincounts give.
        sums = buffers[4][: 2 * rows.size].reshape((2,) + rows.shape)
        np.add.reduce(lam, axis=0, out=sums[0], initial=0.0)
        sums[0, :top] -= lam.sum(axis=1)
        np.add.reduce(hess, axis=0, out=sums[1])
        sums[1, :top] += hess.sum(axis=1)
        g[rows] = sums[0]
        h[rows] = sums[1]

    def _run(self, worker: int, workers: int, order, scores, g, h) -> None:
        for block in self._blocks[worker::workers]:
            self._block(block, self._buffers[worker], order, scores, g, h)

    def gradients(
        self,
        scores: np.ndarray,
        *,
        n_threads: int = 1,
        ranked: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-document (g, h) for the current scores.

        ``ranked`` is ``self.groups.rank_discounts(scores, k)`` when the
        caller already has it; otherwise it is computed here. ``scores``
        of another length than the labels, or a ``ranked`` of another
        length, raise ValueError.
        Thread count never changes the result: each thread takes whole
        blocks, writes only their rows, and uses its own buffers. At most
        :func:`usable_cpus` threads run; ``n_threads`` below 1 raises.
        """
        check_threads(n_threads)
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (self.n,):
            raise ValueError(f"scores must have shape ({self.n},), got {scores.shape}")
        if ranked is None:
            ranked = self.groups.rank_discounts(scores, self.k)
        if len(ranked[0]) != self.n:
            raise ValueError(f"ranked must order {self.n} rows, got {len(ranked[0])}")
        if not self.has_pairs:
            return np.zeros(self.n), np.zeros(self.n)
        order = np.empty(self.n + 1, dtype=np.intp)
        order[: self.n] = ranked[0]
        order[self.n] = self.n
        padded = np.empty(self.n + 1)
        padded[: self.n] = scores
        padded[self.n] = 0.0  # not NaN: padding cells multiply it by 0
        g = np.empty(self.n + 1)
        h = np.empty(self.n + 1)
        workers = min(n_threads, usable_cpus(), len(self._blocks))
        while len(self._buffers) < workers:
            self._buffers.append(
                tuple(np.empty(self._cells) for _ in range(4)) + (np.empty(2 * self._width_cells),)
            )
        if workers <= 1:
            self._run(0, 1, order, padded, g, h)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(self._run, t, workers, order, padded, g, h)
                    for t in range(workers)
                ]
                for fut in futures:
                    fut.result()
        return g[: self.n], h[: self.n]
