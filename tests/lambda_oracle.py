"""Reference pairwise gradients that evaluate every discordant pair.

``full_pair_gradients`` runs the sigmoid, the exp, both quantizes and the
bincounts over all of a ``PairIndex``'s pairs, including those whose two
documents both rank below k and so carry exactly zero lambda.
``PairIndex.gradients`` skips those pairs and must match this bit for bit.
"""

from __future__ import annotations

import numpy as np

from channelrank.gbdt.lambdas import PairIndex, _quantize, _stable_sigmoid_neg


def full_pair_gradients(
    index: PairIndex, scores: np.ndarray, tiebreak: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-document (g, h) with every pair's contribution accumulated."""
    scores = np.asarray(scores, dtype=np.float64)
    order, disc_sorted = index.groups.rank_discounts(scores, tiebreak, index.k)
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
