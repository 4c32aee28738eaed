"""Reference pairwise gradients that evaluate every discordant pair.

``discordant_pairs`` lists each group's (winner, loser) rows, label
against label. ``full_pair_gradients`` builds those pairs and each
group's IDCG itself, then runs the sigmoid, the exp, both quantizes and
the bincounts over every pair as whole-array expressions, including
pairs whose two documents both rank below k and so carry exactly zero
lambda. ``PairIndex.gradients``, which walks only rank-space cells with
a member in the top k, must match it bit for bit.

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


def discordant_pairs(labels: np.ndarray, groups: QueryGroups) -> tuple[np.ndarray, np.ndarray]:
    """Every within-group (winner, loser) row pair with label_winner > label_loser."""
    labels = np.asarray(labels, dtype=np.float64)
    win_parts = [np.empty(0, np.int64)]
    lose_parts = [np.empty(0, np.int64)]
    for gidx in range(groups.count):
        lo, hi = groups.starts[gidx], groups.starts[gidx + 1]
        lab = labels[lo:hi]
        wi, lo_j = np.nonzero(lab[:, None] > lab[None, :])
        win_parts.append(wi.astype(np.int64) + lo)
        lose_parts.append(lo_j.astype(np.int64) + lo)
    return np.concatenate(win_parts), np.concatenate(lose_parts)


def full_pair_gradients(
    labels: np.ndarray,
    groups: QueryGroups,
    k: int,
    sigma: float,
    scores: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-document (g, h) with every discordant pair's contribution accumulated."""
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    n = len(labels)
    win, lose = discordant_pairs(labels, groups)
    gains = gain(labels)
    idcg = np.array([
        ideal_dcg_at_k(labels[groups.starts[g] : groups.starts[g + 1]], k)
        for g in range(groups.count)
    ])
    with np.errstate(divide="ignore"):
        inv = np.where(idcg > 0.0, 1.0 / idcg, 0.0)
    order, disc_sorted = groups.rank_discounts(scores, k)
    disc = np.empty(n)
    disc[order] = disc_sorted
    dgain = gains[win] - gains[lose]
    delta = np.abs(dgain * (disc[win] - disc[lose])) * inv[groups.codes[win]]
    rho = _stable_sigmoid_neg(sigma * (scores[win] - scores[lose]))
    lam = _quantize(sigma * delta * rho)
    hess = _quantize(sigma * sigma * delta * rho * (1.0 - rho))
    g = np.bincount(lose, weights=lam, minlength=n) - np.bincount(win, weights=lam, minlength=n)
    h = np.bincount(win, weights=hess, minlength=n) + np.bincount(lose, weights=hess, minlength=n)
    return g, h
