"""Regression tree growing on gradient/Hessian targets.

Trees are grown to a depth bound with second-order split gains

    gain = GL^2/(HL+l2) + GR^2/(HR+l2) - (GL+GR)^2/(HL+HR+l2)

evaluated over per-feature histograms of binned feature values. Candidate
thresholds are midpoints between consecutive unique values, capped at a
quantile-based budget per feature. Missing values occupy a dedicated bin;
each split learns which side missing rows take by trying both directions
and keeping the higher gain. Optional sparse oblique splits project a
random signed subset of features and search a threshold on the projected
value.

Nodes are split level by level for vectorization; with a pure depth bound
and no global leaf budget this yields exactly the tree a depth-first
recursion would produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Floor applied to leaf-value denominators so l2=0 stays finite.
LEAF_DENOM_FLOOR = 1e-6

_GAIN_DENOM_FLOOR = 1e-12


@dataclass(slots=True)
class Leaf:
    value: float
    n_samples: int = 0


@dataclass(slots=True)
class AxisSplit:
    """Single-feature threshold split; missing rows follow ``missing_left``."""

    feature: int
    threshold: float
    missing_left: bool
    gain: float
    left: "Leaf | AxisSplit | ObliqueSplit | None" = None
    right: "Leaf | AxisSplit | ObliqueSplit | None" = None


@dataclass(slots=True)
class ObliqueSplit:
    """Split on a sparse signed projection of several features."""

    features: tuple[int, ...]
    weights: tuple[float, ...]
    threshold: float
    missing_left: bool
    gain: float
    left: "Leaf | AxisSplit | ObliqueSplit | None" = None
    right: "Leaf | AxisSplit | ObliqueSplit | None" = None


Node = Leaf | AxisSplit | ObliqueSplit


@dataclass(slots=True)
class Tree:
    root: Node

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """This tree's leaf value for each row, scored as a one-tree forest."""
        from .model import _Forest

        X = np.asarray(X, dtype=np.float64)
        return _Forest.compile((self,), X.shape[1]).raw(X)

    def depth(self) -> int:
        def d(node: Node) -> int:
            if isinstance(node, Leaf):
                return 0
            return 1 + max(d(node.left), d(node.right))  # type: ignore[arg-type]

        return d(self.root)

    def leaves(self) -> list[Leaf]:
        out: list[Leaf] = []

        def walk(node: Node) -> None:
            if isinstance(node, Leaf):
                out.append(node)
            else:
                walk(node.left)  # type: ignore[arg-type]
                walk(node.right)  # type: ignore[arg-type]

        walk(self.root)
        return out

    def n_nodes(self) -> int:
        def c(node: Node) -> int:
            if isinstance(node, Leaf):
                return 1
            return 1 + c(node.left) + c(node.right)  # type: ignore[arg-type]

        return c(self.root)


@dataclass(slots=True)
class Binned:
    """Pre-binned feature matrix plus the real-valued split candidates."""

    codes: np.ndarray  # (n, F) uint16; missing bin = stride - 1
    thresholds: list[np.ndarray]
    stride: int

    @property
    def n_features(self) -> int:
        return self.codes.shape[1]

    @property
    def missing_code(self) -> int:
        return self.stride - 1


def bin_features(X: np.ndarray, max_bins: int = 255) -> Binned:
    """Bin each feature onto at most ``max_bins`` threshold candidates.

    Midpoints of consecutive unique values are used while they fit the
    budget; denser features fall back to interior quantiles. NaN cells
    map to a reserved missing bin.
    """
    if max_bins < 1:
        raise ValueError("max_bins must be >= 1")
    X = np.asarray(X, dtype=np.float64)
    n, n_features = X.shape
    stride = max_bins + 2
    codes = np.empty((n, n_features), dtype=np.uint16)
    thresholds: list[np.ndarray] = []
    missing_code = stride - 1
    for f in range(n_features):
        col = X[:, f]
        nan_mask = np.isnan(col)
        finite = col[~nan_mask]
        uniq = np.unique(finite)
        if len(uniq) <= 1:
            thr = np.empty(0, dtype=np.float64)
        elif len(uniq) - 1 <= max_bins:
            thr = (uniq[:-1] + uniq[1:]) / 2.0
        else:
            qs = np.quantile(finite, np.arange(1, max_bins + 1) / (max_bins + 1))
            thr = np.unique(qs)
        thresholds.append(thr)
        c = np.searchsorted(thr, col, side="right")
        c[nan_mask] = missing_code
        codes[:, f] = c.astype(np.uint16)
    return Binned(codes=codes, thresholds=thresholds, stride=stride)


def leaf_value(g_sum: float, h_sum: float, l2: float) -> float:
    """Newton step -G / (H + l2), denominator floored for degenerate cases."""
    denom = h_sum + l2
    if denom < LEAF_DENOM_FLOOR:
        denom = LEAF_DENOM_FLOOR
    return -g_sum / denom


def _split_score(gl, hl, gr, hr, l2):
    """Sum of per-side score terms G^2/(H+l2) (parent term subtracted later)."""
    return gl * gl / np.maximum(hl + l2, _GAIN_DENOM_FLOOR) + gr * gr / np.maximum(
        hr + l2, _GAIN_DENOM_FLOOR
    )


@dataclass(slots=True)
class _AxisBest:
    gain: np.ndarray      # (S,)
    feature: np.ndarray   # (S,)
    bin_idx: np.ndarray   # (S,)
    missing_left: np.ndarray  # (S,) bool


def _best_axis_splits(
    hist_g: np.ndarray,
    hist_h: np.ndarray,
    hist_c: np.ndarray,
    thr_counts: np.ndarray,
    l2: float,
    min_leaf: int,
) -> _AxisBest:
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
    return _AxisBest(
        gain=best_gain,
        feature=feature,
        bin_idx=bin_idx,
        missing_left=dirs == 0,
    )


def _oblique_candidate(
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
class _GrowParams:
    max_depth: int
    min_leaf: int
    l2: float
    oblique: bool = False
    oblique_projections: int = 0
    oblique_sparsity: float = 1.0
    max_bins: int = 255


@dataclass(slots=True)
class _NodeRec:
    depth: int
    rows: np.ndarray
    split: AxisSplit | ObliqueSplit | None = None
    left: int = -1
    right: int = -1
    leaf: Leaf | None = None


def _batch_histograms(
    binned: Binned,
    g: np.ndarray,
    h: np.ndarray,
    node_rows: list[np.ndarray],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-node (hist_g, hist_h, hist_c) of shape (F, stride), one bincount pass."""
    n_features = binned.n_features
    stride = binned.stride
    feat_offsets = np.arange(n_features, dtype=np.int64) * stride
    slot_rows = np.concatenate(node_rows)
    slot_of_row = np.repeat(
        np.arange(len(node_rows)), [len(rows) for rows in node_rows]
    )
    keys = (
        slot_of_row[:, None] * (n_features * stride)
        + feat_offsets[None, :]
        + binned.codes[slot_rows].astype(np.int64)
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
    return [(hist_g[i], hist_h[i], hist_c[i]) for i in range(len(node_rows))]


def grow_tree(
    binned: Binned,
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    params: _GrowParams,
    rng: np.random.Generator | None = None,
) -> tuple[Tree, np.ndarray]:
    """Grow one tree; returns it plus each training row's leaf value.

    Nodes are processed level by level. Each level histograms only the
    smaller child of every split and derives the larger sibling by
    subtracting from the parent histogram; gradient quantization keeps
    the derived histograms exact.
    """
    n = len(g)
    thr_counts = np.array([len(t) for t in binned.thresholds], dtype=np.int64)
    row_values = np.zeros(n, dtype=np.float64)
    table: list[_NodeRec] = [_NodeRec(depth=0, rows=np.arange(n))]
    level = [0]
    hists: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    # (parent, left, right) pairs whose child histograms are still owed.
    pending: list[tuple[int, int, int]] = []

    def is_searching(nid: int) -> bool:
        rec = table[nid]
        return rec.depth < params.max_depth and len(rec.rows) >= 2 * params.min_leaf

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
                for nid, hist in zip(
                    searching, _batch_histograms(binned, g, h, [table[n_].rows for n_ in searching])
                ):
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
                        to_compute,
                        _batch_histograms(binned, g, h, [table[n_].rows for n_ in to_compute]),
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
            axis_best = _best_axis_splits(
                hist_g, hist_h, hist_c, thr_counts, params.l2, params.min_leaf
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
                if params.oblique and rng is not None:
                    oblique = _oblique_candidate(
                        X, rec.rows, g, h, params.l2, params.min_leaf,
                        params.oblique_projections, params.oblique_sparsity,
                        rng, params.max_bins,
                    )
                    if oblique is not None and oblique.gain > (
                        split.gain if split is not None else 0.0
                    ):
                        split = oblique
                if split is None:
                    rec.leaf = _make_leaf(rec.rows, g, h, params.l2)
                    row_values[rec.rows] = rec.leaf.value
                    hists.pop(nid, None)
                    continue
                if isinstance(split, AxisSplit):
                    codes = binned.codes[rec.rows, split.feature]
                    is_missing = codes == binned.missing_code
                    go_left = np.where(
                        is_missing,
                        split.missing_left,
                        codes <= axis_best.bin_idx[slot],
                    )
                else:
                    z = X[rec.rows][:, list(split.features)] @ np.asarray(split.weights)
                    go_left = np.where(np.isnan(z), split.missing_left, z < split.threshold)
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

    hists.clear()

    def build(nid: int) -> Node:
        rec = table[nid]
        if rec.leaf is not None:
            return rec.leaf
        node = rec.split
        assert node is not None
        node.left = build(rec.left)
        node.right = build(rec.right)
        return node

    return Tree(root=build(0)), row_values


def _make_leaf(rows: np.ndarray, g: np.ndarray, h: np.ndarray, l2: float) -> Leaf:
    return Leaf(
        value=leaf_value(float(g[rows].sum()), float(h[rows].sum()), l2),
        n_samples=len(rows),
    )


def find_best_split(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    l2: float,
    min_examples_per_leaf: int,
    max_bins: int = 255,
    oblique: bool = False,
    oblique_projections: int = 0,
    oblique_sparsity: float = 1.0,
    rng: np.random.Generator | None = None,
) -> AxisSplit | ObliqueSplit | None:
    """Best split for one node's instances, or None when no gain is positive.

    Requires at least ``2 * min_examples_per_leaf`` instances. Children
    references on the returned node are unset; the trainer grows them.
    """
    X = np.asarray(X, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if len(X) < 2 * min_examples_per_leaf:
        raise ValueError(
            f"need at least {2 * min_examples_per_leaf} instances, got {len(X)}"
        )
    binned = bin_features(X, max_bins=max_bins)
    n, n_features = X.shape
    stride = binned.stride
    feat_offsets = np.arange(n_features, dtype=np.int64) * stride
    keys = (feat_offsets[None, :] + binned.codes.astype(np.int64)).ravel()
    minlength = n_features * stride
    hist_g = np.bincount(keys, weights=np.repeat(g, n_features), minlength=minlength)
    hist_h = np.bincount(keys, weights=np.repeat(h, n_features), minlength=minlength)
    hist_c = np.bincount(keys, minlength=minlength).astype(np.float64)
    thr_counts = np.array([len(t) for t in binned.thresholds], dtype=np.int64)
    best = _best_axis_splits(
        hist_g.reshape(1, n_features, stride),
        hist_h.reshape(1, n_features, stride),
        hist_c.reshape(1, n_features, stride),
        thr_counts,
        l2,
        min_examples_per_leaf,
    )
    split: AxisSplit | ObliqueSplit | None = None
    if np.isfinite(best.gain[0]) and best.gain[0] > 0.0:
        f = int(best.feature[0])
        split = AxisSplit(
            feature=f,
            threshold=float(binned.thresholds[f][int(best.bin_idx[0])]),
            missing_left=bool(best.missing_left[0]),
            gain=float(best.gain[0]),
        )
    if oblique and rng is not None:
        cand = _oblique_candidate(
            X, np.arange(n), g, h, l2, min_examples_per_leaf,
            oblique_projections, oblique_sparsity, rng, max_bins,
        )
        if cand is not None and cand.gain > (split.gain if split is not None else 0.0):
            split = cand
    return split
