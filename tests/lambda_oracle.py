"""Reference pairwise gradients that evaluate every discordant pair.

``full_pair_gradients`` runs the sigmoid, the exp, both quantizes and the
bincounts over all of a ``PairIndex``'s pairs, including those whose two
documents both rank below k and so carry exactly zero lambda.
``PairIndex.gradients`` skips those pairs and must match this bit for bit.

``expression_chunk`` is ``PairIndex._chunk`` written as whole-array
expressions, each intermediate a fresh array; the in-place ``_chunk``
must match it bit for bit.

``delta_ndcg`` is the swap-one-pair NDCG change of one ranked list, and
``lambda_gradients`` is ``PairIndex`` over a single query group.
"""

from __future__ import annotations

import numpy as np

from channelrank.gbdt.lambdas import _QUANTUM, PairIndex
from channelrank.metrics import QueryGroups, gain, ideal_dcg_at_k


def _quantize(values: np.ndarray) -> np.ndarray:
    return np.round(values * _QUANTUM) / _QUANTUM


def _stable_sigmoid_neg(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(z)); the clip keeps exp finite for any float input."""
    return 1.0 / (1.0 + np.exp(np.clip(z, -709.0, 709.0)))


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
    labels: np.ndarray, scores: np.ndarray, k: int, sigma: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulated pairwise gradients and Hessians for one query group.

    Returns ``(g, h)`` arrays; g sums to exactly zero over the group and
    h is non-negative. Documents with equal labels form no pair.
    """
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1 or len(labels) == 0:
        raise ValueError("labels and scores must be equal-length 1-d arrays")
    one_group = QueryGroups.from_ids(np.zeros(len(labels)))
    return PairIndex(labels, one_group, k, sigma).gradients(scores)


def full_pair_gradients(index: PairIndex, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-document (g, h) with every pair's contribution accumulated."""
    scores = np.asarray(scores, dtype=np.float64)
    order, disc_sorted = index.groups.rank_discounts(scores, index.k)
    disc = np.empty(index.n)
    disc[order] = disc_sorted
    delta = np.abs(index.dgain * (disc[index.win] - disc[index.lose])) * index.pair_inv_idcg
    rho = _stable_sigmoid_neg(index.sigma * (scores[index.win] - scores[index.lose]))
    lam = _quantize(index.sigma * delta * rho)
    hess = _quantize(index.sigma * index.sigma * delta * rho * (1.0 - rho))
    g = np.bincount(index.lose, weights=lam, minlength=index.n) - np.bincount(
        index.win, weights=lam, minlength=index.n
    )
    h = np.bincount(index.win, weights=hess, minlength=index.n) + np.bincount(
        index.lose, weights=hess, minlength=index.n
    )
    return g, h


def expression_chunk(
    index: PairIndex,
    scores: np.ndarray,
    disc: np.ndarray,
    top: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    group_lo: int,
    group_hi: int,
) -> None:
    """``PairIndex._chunk`` for groups ``[group_lo, group_hi)``, one expression per factor."""
    plo = index.pair_starts[group_lo]
    phi = index.pair_starts[group_hi]
    rlo = index.group_starts[group_lo]
    rhi = index.group_starts[group_hi]
    live = plo + np.flatnonzero(top[index.win[plo:phi]] | top[index.lose[plo:phi]])
    win = index.win[live]
    lose = index.lose[live]
    delta = np.abs(index.dgain[live] * (disc[win] - disc[lose])) * index.pair_inv_idcg[live]
    rho = _stable_sigmoid_neg(index.sigma * (scores[win] - scores[lose]))
    lam = _quantize(index.sigma * delta * rho)
    hess = _quantize(index.sigma * index.sigma * delta * rho * (1.0 - rho))
    width = rhi - rlo
    win -= rlo
    lose -= rlo
    g[rlo:rhi] = np.bincount(lose, weights=lam, minlength=width) - np.bincount(
        win, weights=lam, minlength=width
    )
    h[rlo:rhi] = np.bincount(win, weights=hess, minlength=width) + np.bincount(
        lose, weights=hess, minlength=width
    )
