"""Reference oblique split search that the derived-column scan is tested against.

``oblique_candidate`` draws each random sparse signed projection, picks
its threshold candidates and scans both missing directions in its own
per-projection loop. Its sums are taken in a different order from the
histogram scan, so the two agree bit for bit when gradients lie on a
dyadic grid, as training's quantized gradients do. They differ on one
kind of exact tie: when a missing-left split and a missing-right split at
a lower threshold of the same projection gain the same, this loop keeps
the missing-left one and the scan the lower threshold, as it does for
axis splits.
"""

from __future__ import annotations

import numpy as np

from channelrank.gbdt.tree import _GAIN_DENOM_FLOOR, ObliqueSplit, _split_score


def oblique_candidate(
    X: np.ndarray,
    rows: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    l2: float,
    min_leaf: int,
    n_projections: int,
    sparsity: float,
    rng: np.random.Generator,
    max_bins: int,
) -> ObliqueSplit | None:
    """Best random sparse-projection split for one node, or None."""
    n_features = X.shape[1]
    n_pick = max(1, int(round(sparsity * n_features)))
    g_rows = g[rows]
    h_rows = h[rows]
    g_tot = g_rows.sum()
    h_tot = h_rows.sum()
    parent = g_tot * g_tot / max(h_tot + l2, _GAIN_DENOM_FLOOR)
    best: ObliqueSplit | None = None
    for _ in range(n_projections):
        feats = np.sort(rng.choice(n_features, size=n_pick, replace=False))
        w = rng.choice(np.array([-1.0, 1.0]), size=n_pick)
        z = X[rows][:, feats] @ w
        nan_mask = np.isnan(z)
        finite_idx = np.flatnonzero(~nan_mask)
        if len(finite_idx) == 0:
            continue
        zf = z[finite_idx]
        uniq = np.unique(zf)
        if len(uniq) < 2:
            continue
        if len(uniq) - 1 <= max_bins:
            thr = (uniq[:-1] + uniq[1:]) / 2.0
        else:
            thr = np.unique(np.quantile(zf, np.arange(1, max_bins + 1) / (max_bins + 1)))
        codes = np.searchsorted(thr, zf, side="right")
        n_bins = len(thr) + 1
        hg = np.bincount(codes, weights=g_rows[finite_idx], minlength=n_bins)
        hh = np.bincount(codes, weights=h_rows[finite_idx], minlength=n_bins)
        hc = np.bincount(codes, minlength=n_bins).astype(np.float64)
        cum_g = np.cumsum(hg)[: len(thr)]
        cum_h = np.cumsum(hh)[: len(thr)]
        cum_c = np.cumsum(hc)[: len(thr)]
        g_miss = g_rows[nan_mask].sum()
        h_miss = h_rows[nan_mask].sum()
        c_miss = float(nan_mask.sum())
        for missing_left in (True, False):
            gl = cum_g + (g_miss if missing_left else 0.0)
            hl = cum_h + (h_miss if missing_left else 0.0)
            cl = cum_c + (c_miss if missing_left else 0.0)
            gr = g_tot - gl
            hr = h_tot - hl
            cr = (len(rows) - cl)
            gains = _split_score(gl, hl, gr, hr, l2) - parent
            ok = (cl >= min_leaf) & (cr >= min_leaf)
            gains = np.where(ok, gains, -np.inf)
            b = int(np.argmax(gains))
            if gains[b] > (best.gain if best is not None else 0.0):
                best = ObliqueSplit(
                    features=tuple(int(f) for f in feats),
                    weights=tuple(float(x) for x in w),
                    threshold=float(thr[b]),
                    missing_left=missing_left,
                    gain=float(gains[b]),
                )
    return best
