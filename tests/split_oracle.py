"""Reference split searches that the packed histogram scan is tested against.

``dense_codes`` bins ``X`` on a ``Binned``'s thresholds into dense codes:
a value's code counts the thresholds at or below it, and NaN takes the
last code of one stride shared by every feature. ``dense_histograms`` and
``dense_best_axis_splits`` lay every feature's histogram out at that
stride, real bins and padding alike, and score both missing directions
of every bin. The packed scan must return the same gains, features, bins
and directions, byte for byte.

``oblique_candidate`` draws each random sparse signed projection, picks
its threshold candidates and scans both missing directions in its own
per-projection loop. Its sums are taken in a different order from the
histogram scan, so the two agree bit for bit when gradients lie on a
dyadic grid, as training's quantized gradients do. They differ on one
kind of exact tie: when a missing-left split and a missing-right split at
a lower threshold of the same projection gain the same, this loop keeps
the missing-left one and the scan the lower threshold, as it does for
axis splits.

``loop_bin_features`` bins one column at a time, with ``np.unique`` and
``np.quantile`` on each column's finite values and a scan plan laid out
feature by feature; ``bin_features``, which bins every column from one
sort, must return the same thresholds, keys, counts and plan, byte for
byte. ``node_oblique_split`` searches one node's projections with a plan, a
histogram and a scan of its own, on ``loop_bin_features``' bins; the
level search must give every node the same gain, record and partition.

``table_grow_tree`` grows a tree the way ``grow_tree`` did before it kept
each level's histograms in arrays: a table of node records, a histogram
per node in a dict, lists of the histograms still owed, and a recursive
pass that links the table into a tree. Its histograms and scans are the
dense ones above, and it sends rows left by comparing each row's value,
or projection, with the split's threshold. ``grow_tree`` must return the
same tree and row values, byte for byte.

``find_best_split`` is ``grow_tree`` at ``max_depth=1`` on one node's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from channelrank.gbdt.model import TrainParams
from channelrank.gbdt.tree import (
    _GAIN_DENOM_FLOOR,
    Binned,
    Tree,
    _batch_histograms,
    _first_best,
    _ScanPlan,
    _split_gains,
    bin_features,
    grow_tree,
    leaf_value,
    node_record,
)
from tests.forest_oracle import AxisSplit, Leaf, Node, ObliqueSplit, split_of, to_nodes, to_tree


def loop_plan(thr_counts: np.ndarray, has_missing: np.ndarray) -> _ScanPlan:
    """The scan plan of features with ``thr_counts`` thresholds, one feature at a time."""
    n_features = len(thr_counts)
    width = np.array([1 << int(t).bit_length() for t in thr_counts], dtype=np.int64)
    by_width = np.argsort(width, kind="stable")
    start = np.empty(n_features, dtype=np.int64)
    start[by_width] = np.cumsum(width[by_width]) - width[by_width]
    classes = []
    for w in np.unique(width):
        members = np.flatnonzero(width == w)
        classes.append((int(start[members[0]]), len(members), int(w)))
    n_dirs = 1 + has_missing
    per_feature = thr_counts * n_dirs
    feature = np.repeat(np.arange(n_features, dtype=np.int64), per_feature)
    within = np.arange(len(feature)) - np.repeat(np.cumsum(per_feature) - per_feature, per_feature)
    bin_idx = within // n_dirs[feature]
    missing_left = within % n_dirs[feature] == 0
    return _ScanPlan(
        n_bins=int(width.sum()),
        classes=classes,
        last=start + thr_counts,
        pos=start[feature] + bin_idx,
        feature=feature,
        bin=bin_idx,
        missing_left=missing_left,
        miss_src=np.where(missing_left, feature, n_features),
    )


def loop_bin_features(X: np.ndarray, max_bins: int = 255) -> Binned:
    """``bin_features`` one column at a time, with ``np.unique`` and ``np.quantile``."""
    X = np.asarray(X, dtype=np.float64)
    n_features = X.shape[1]
    missing = np.isnan(X)
    thresholds: list[np.ndarray] = []
    keys = np.empty(X.shape, dtype=np.int64)
    with np.errstate(invalid="ignore"):  # midpoints or quantiles between infinities
        for f in range(n_features):
            col = X[:, f]
            finite = col[~missing[:, f]]
            uniq = np.unique(finite)
            if len(uniq) <= 1:
                thr = np.empty(0, dtype=np.float64)
            elif len(uniq) - 1 <= max_bins:
                thr = (uniq[:-1] + uniq[1:]) / 2.0
            else:
                qs = np.quantile(finite, np.arange(1, max_bins + 1) / (max_bins + 1))
                thr = np.unique(qs)
            thresholds.append(thr[~np.isnan(thr)])
            keys[:, f] = np.searchsorted(thresholds[f], col, side="right")
    thr_counts = np.array([len(t) for t in thresholds], dtype=np.int64)
    plan = loop_plan(thr_counts, missing.any(axis=0))
    keys += plan.last - thr_counts  # each feature's first real bin
    np.copyto(keys, plan.n_bins + np.arange(n_features), where=missing)
    counts = np.bincount(keys.ravel(), minlength=plan.size).astype(np.float64)[None]
    counts.flags.writeable = False
    return Binned(thresholds=thresholds, keys=keys, plan=plan, counts=counts)


def node_oblique_split(
    X: np.ndarray,
    rows: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    params: TrainParams,
    rng: np.random.Generator,
) -> tuple[float, tuple, np.ndarray] | None:
    """Best random sparse-projection split for one node, or None.

    Each projection is a derived column over the node's rows, binned and
    scanned like a feature. Returns the split's gain, its ``node_record``
    and, for each of ``rows``, whether it goes left.
    """
    n_features = X.shape[1]
    n_pick = max(1, int(round(params.oblique_sparsity * n_features)))
    projections = []
    for _ in range(params.oblique_projections):
        feats = np.sort(rng.choice(n_features, size=n_pick, replace=False))
        projections.append((feats, rng.choice(np.array([-1.0, 1.0]), size=n_pick)))
    node_X = X[rows]
    binned = loop_bin_features(
        np.column_stack([node_X[:, feats] @ w for feats, w in projections]),
        max_bins=params.max_bins,
    )
    (k,), (gain,) = _first_best(_split_gains(
        *_batch_histograms(binned, g[rows], h[rows]),
        binned.plan, params.l2, params.min_examples_per_leaf,
    ))
    if not (np.isfinite(gain) and gain > 0.0):
        return None
    gain = float(gain)
    p = binned.plan.feature[k]
    feats, w = projections[p]
    split = node_record(
        -1, float(binned.thresholds[p][binned.plan.bin[k]]), bool(binned.plan.missing_left[k]),
        gain, features=feats.tolist(), weights=w.tolist(),
    )
    return gain, split, binned.goes_left(slice(None), k)


def _split_score(gl, hl, gr, hr, l2):
    """Sum of per-side score terms G^2/(H+l2) (parent term subtracted later)."""
    return gl * gl / np.maximum(hl + l2, _GAIN_DENOM_FLOOR) + gr * gr / np.maximum(
        hr + l2, _GAIN_DENOM_FLOOR
    )


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


@dataclass(slots=True)
class DenseBest:
    gain: np.ndarray      # (S,)
    feature: np.ndarray   # (S,)
    bin_idx: np.ndarray   # (S,)
    missing_left: np.ndarray  # (S,) bool


def dense_codes(X: np.ndarray, thresholds: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """(n, F) codes of ``X`` on ``thresholds``, and their common stride.

    The stride is two more than the most thresholds of any feature: room
    for its real bins and the missing bin, ``stride - 1``.
    """
    X = np.asarray(X, dtype=np.float64)
    stride = 2 + max((len(t) for t in thresholds), default=0)
    codes = np.column_stack(
        [np.searchsorted(thr, X[:, f], side="right") for f, thr in enumerate(thresholds)]
    )
    codes[np.isnan(X)] = stride - 1
    return codes, stride


def dense_histograms(
    codes: np.ndarray,
    stride: int,
    g: np.ndarray,
    h: np.ndarray,
    node_rows: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hist_g, hist_h, hist_c), each (len(node_rows), F, stride), one bincount pass."""
    n_features = codes.shape[1]
    feat_offsets = np.arange(n_features, dtype=np.int64) * stride
    slot_rows = np.concatenate(node_rows)
    slot_of_row = np.repeat(
        np.arange(len(node_rows)), [len(rows) for rows in node_rows]
    )
    keys = (
        slot_of_row[:, None] * (n_features * stride)
        + feat_offsets[None, :]
        + codes[slot_rows]
    ).ravel()
    minlength = len(node_rows) * n_features * stride
    hist_g = np.bincount(
        keys, weights=np.repeat(g[slot_rows], n_features), minlength=minlength
    ).reshape(len(node_rows), n_features, stride)
    hist_h = np.bincount(
        keys, weights=np.repeat(h[slot_rows], n_features), minlength=minlength
    ).reshape(len(node_rows), n_features, stride)
    hist_c = np.bincount(keys, minlength=minlength).reshape(
        len(node_rows), n_features, stride
    ).astype(np.float64)
    return hist_g, hist_h, hist_c


def dense_best_axis_splits(
    hist_g: np.ndarray,
    hist_h: np.ndarray,
    hist_c: np.ndarray,
    thr_counts: np.ndarray,
    l2: float,
    min_leaf: int,
) -> DenseBest:
    """Best axis-aligned split per histogram slot.

    Histograms are (S, F, stride); the last bin is the missing bin. Ties
    resolve to the lowest feature index, then lowest threshold, then
    missing-left, so results are reproducible.
    """
    n_slots, n_features, stride = hist_g.shape
    n_bins = stride - 1
    g_miss = hist_g[:, :, n_bins]
    h_miss = hist_h[:, :, n_bins]
    c_miss = hist_c[:, :, n_bins]
    cum_g = np.cumsum(hist_g[:, :, :n_bins], axis=2)
    cum_h = np.cumsum(hist_h[:, :, :n_bins], axis=2)
    cum_c = np.cumsum(hist_c[:, :, :n_bins], axis=2)
    g_tot = cum_g[:, :, -1] + g_miss
    h_tot = cum_h[:, :, -1] + h_miss
    c_tot = cum_c[:, :, -1] + c_miss
    parent = g_tot * g_tot / np.maximum(h_tot + l2, _GAIN_DENOM_FLOOR)

    valid_b = np.arange(n_bins)[None, :] < thr_counts[:, None]  # (F, B)

    def side_gains(gl, hl, cl):
        gr = g_tot[:, :, None] - gl
        hr = h_tot[:, :, None] - hl
        cr = c_tot[:, :, None] - cl
        gains = _split_score(gl, hl, gr, hr, l2) - parent[:, :, None]
        ok = (cl >= min_leaf) & (cr >= min_leaf) & valid_b[None, :, :]
        return np.where(ok, gains, -np.inf)

    # Missing rows left vs right of the threshold.
    gains_left = side_gains(
        cum_g + g_miss[:, :, None], cum_h + h_miss[:, :, None], cum_c + c_miss[:, :, None]
    )
    gains_right = side_gains(cum_g, cum_h, cum_c)

    stacked = np.stack([gains_left, gains_right], axis=-1)  # (S, F, B, 2)
    flat = stacked.reshape(n_slots, -1)
    best_flat = np.argmax(flat, axis=1)
    best_gain = flat[np.arange(n_slots), best_flat]
    dirs = best_flat % 2
    rem = best_flat // 2
    bin_idx = rem % n_bins
    feature = rem // n_bins
    return DenseBest(
        gain=best_gain,
        feature=feature,
        bin_idx=bin_idx,
        missing_left=dirs == 0,
    )


def find_best_split(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    l2: float,
    min_examples_per_leaf: int,
    max_bins: int = 255,
    oblique: bool = False,
    oblique_projections: int = 20,
    oblique_sparsity: float = 1.0,
    rng: np.random.Generator | None = None,
) -> AxisSplit | ObliqueSplit | None:
    """Best split for one node's instances, or None when no gain is positive.

    This is ``grow_tree`` at ``max_depth=1``: the root split of that
    stump, whose two children are the stump's leaves. Requires at least
    ``2 * min_examples_per_leaf`` instances. ``oblique=True`` also tries
    ``oblique_projections`` (default 20) random projections drawn from
    ``rng``, and raises ``ValueError`` without one.
    """
    X = np.asarray(X, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if len(X) < 2 * min_examples_per_leaf:
        raise ValueError(
            f"need at least {2 * min_examples_per_leaf} instances, got {len(X)}"
        )
    params = TrainParams(
        max_depth=1,
        min_examples_per_leaf=min_examples_per_leaf,
        l2=l2,
        oblique=oblique,
        oblique_projections=oblique_projections,
        oblique_sparsity=oblique_sparsity,
        max_bins=max_bins,
    )
    tree, _ = grow_tree(bin_features(X, max_bins=max_bins), X, g, h, params, rng)
    root = to_nodes(tree)
    return None if isinstance(root, Leaf) else root


def split_goes_left(split: AxisSplit | ObliqueSplit, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether each of ``rows`` goes left: its value, or its projection,
    is below the threshold; NaN follows the split's missing side."""
    if isinstance(split, AxisSplit):
        z = X[rows, split.feature]
    else:
        z = X[rows][:, list(split.features)] @ np.array(split.weights)
    return np.where(np.isnan(z), split.missing_left, z < split.threshold)


@dataclass(slots=True)
class _NodeRec:
    depth: int
    rows: np.ndarray
    split: AxisSplit | ObliqueSplit | None = None
    left: int = -1
    right: int = -1
    leaf: Leaf | None = None


def _make_leaf(rows: np.ndarray, g: np.ndarray, h: np.ndarray, l2: float) -> Leaf:
    return Leaf(
        value=leaf_value(float(g[rows].sum()), float(h[rows].sum()), l2),
        n_samples=len(rows),
    )


def table_grow_tree(
    binned: Binned,
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    params: TrainParams,
    rng: np.random.Generator | None = None,
) -> tuple[Tree, np.ndarray]:
    """Grow one tree through a node table; returns it plus each row's leaf value.

    Nodes are processed level by level. Each level histograms only the
    smaller child of every split and derives the larger sibling by
    subtracting from the parent histogram. Oblique splits draw their
    projections from ``rng`` in level order.
    """
    if params.oblique and rng is None:
        raise ValueError("oblique splits need an rng")
    thr_counts = np.array([len(t) for t in binned.thresholds], dtype=np.int64)
    codes, stride = dense_codes(X, binned.thresholds)

    def histograms(node_rows):
        return list(zip(*dense_histograms(codes, stride, g, h, node_rows)))

    n = len(g)
    row_values = np.zeros(n, dtype=np.float64)
    table: list[_NodeRec] = [_NodeRec(depth=0, rows=np.arange(n))]
    level = [0]
    hists: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    # (parent, left, right) pairs whose child histograms are still owed.
    pending: list[tuple[int, int, int]] = []

    def is_searching(nid: int) -> bool:
        rec = table[nid]
        return (
            rec.depth < params.max_depth
            and len(rec.rows) >= 2 * params.min_examples_per_leaf
        )

    while level:
        searching = [nid for nid in level if is_searching(nid)]
        searching_set = set(searching)
        for nid in level:
            if nid not in searching_set:
                rec = table[nid]
                rec.leaf = _make_leaf(rec.rows, g, h, params.l2)
                row_values[rec.rows] = rec.leaf.value

        # Fill in missing histograms: direct for the root, small-child
        # plus sibling subtraction below it.
        if searching:
            if not pending:
                for nid, hist in zip(searching, histograms([table[n_].rows for n_ in searching])):
                    hists[nid] = hist
            else:
                to_compute: list[int] = []
                derive: list[tuple[int, int, int]] = []
                for parent, left, right in pending:
                    l_need = is_searching(left)
                    r_need = is_searching(right)
                    if not (l_need or r_need):
                        hists.pop(parent, None)
                        continue
                    if len(table[left].rows) <= len(table[right].rows):
                        small, large = left, right
                    else:
                        small, large = right, left
                    to_compute.append(small)
                    derive.append((parent, small, large))
                if to_compute:
                    for nid, hist in zip(
                        to_compute, histograms([table[n_].rows for n_ in to_compute])
                    ):
                        hists[nid] = hist
                for parent, small, large in derive:
                    pg, ph, pc = hists.pop(parent)
                    sg, sh, sc = hists[small]
                    if is_searching(large):
                        hists[large] = (pg - sg, ph - sh, pc - sc)
                    if not is_searching(small):
                        hists.pop(small, None)
        pending = []

        next_level: list[int] = []
        if searching:
            hist_g = np.stack([hists[nid][0] for nid in searching])
            hist_h = np.stack([hists[nid][1] for nid in searching])
            hist_c = np.stack([hists[nid][2] for nid in searching])
            axis_best = dense_best_axis_splits(
                hist_g, hist_h, hist_c, thr_counts, params.l2,
                params.min_examples_per_leaf,
            )
            for slot, nid in enumerate(searching):
                rec = table[nid]
                split: AxisSplit | ObliqueSplit | None = None
                best_gain = axis_best.gain[slot]
                if np.isfinite(best_gain) and best_gain > 0.0:
                    f = int(axis_best.feature[slot])
                    b = int(axis_best.bin_idx[slot])
                    split = AxisSplit(
                        feature=f,
                        threshold=float(binned.thresholds[f][b]),
                        missing_left=bool(axis_best.missing_left[slot]),
                        gain=float(best_gain),
                    )
                if params.oblique:
                    oblique = node_oblique_split(X, rec.rows, g, h, params, rng)
                    if oblique is not None and oblique[0] > (
                        split.gain if split is not None else 0.0
                    ):
                        split = split_of(oblique[1])
                if split is None:
                    rec.leaf = _make_leaf(rec.rows, g, h, params.l2)
                    row_values[rec.rows] = rec.leaf.value
                    hists.pop(nid, None)
                    continue
                go_left = split_goes_left(split, X, rec.rows)
                rec.split = split
                left_rows = rec.rows[go_left]
                right_rows = rec.rows[~go_left]
                rec.left = len(table)
                table.append(_NodeRec(depth=rec.depth + 1, rows=left_rows))
                rec.right = len(table)
                table.append(_NodeRec(depth=rec.depth + 1, rows=right_rows))
                next_level.extend((rec.left, rec.right))
                pending.append((nid, rec.left, rec.right))
        level = next_level

    def build(nid: int) -> Node:
        rec = table[nid]
        if rec.leaf is not None:
            return rec.leaf
        node = rec.split
        assert node is not None
        node.left = build(rec.left)
        node.right = build(rec.right)
        return node

    return to_tree(build(0)), row_values
