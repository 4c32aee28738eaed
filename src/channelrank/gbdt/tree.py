"""Regression tree growing on gradient/Hessian targets.

Trees are grown to a depth bound with second-order split gains

    gain = GL^2/(HL+l2) + GR^2/(HR+l2) - (GL+GR)^2/(HL+HR+l2)

evaluated over per-feature histograms of binned feature values. Candidate
thresholds are midpoints between consecutive unique values, capped at a
quantile-based budget per feature; every column is binned from one sort
of its values. Missing values occupy a dedicated bin; each split learns
which side missing rows take by trying both directions and keeping the
higher gain. Optional sparse oblique splits project a random signed
subset of features; each node's projections become derived columns over
its rows, which are binned and scanned exactly like features. A level's
nodes are searched together: each node's projections are a block of
features in one level-wide plan, with one histogram per statistic and
one gain scan, and each node takes the best of its own candidates.

Each cell is binned once per fit, straight to its histogram key: the
position of its bin in one node's packed histogram, where each feature
keeps only its own real bins (padded to a power of two) and one missing
bin. The split scan scores only real thresholds, in (feature, bin,
direction) order, and scores missing-right only for features that have
missing rows; elsewhere that direction gains exactly what missing-left
does and the argmax keeps missing-left. A split is found as the index of
its scan candidate, and ``Binned.goes_left`` is the one rule that sends
a node's rows left or right by it, for axis and oblique splits alike.
Prefix sums add each feature's bins in the same order a dense full-width
scan would, so the chosen splits are byte-identical. The root's
histogram reads every row's keys in place, and its counts, the same for
every tree of a fit, are built once by ``bin_features``.

Nodes are split level by level for vectorization; with a pure depth bound
and no global leaf budget this yields exactly the tree a depth-first
recursion would produce. ``grow_tree`` writes the tree's breadth-first
node arrays (:class:`Tree`) as it goes; the scorer's compiler and the
``.frm`` loader renumber nodes with the one :func:`breadth_first`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .model import TrainParams

#: Floor applied to leaf-value denominators so l2=0 stays finite.
LEAF_DENOM_FLOOR = 1e-6

_GAIN_DENOM_FLOOR = 1e-12


def node_record(
    feature: int = -1, threshold: float = np.nan, missing_left: bool = True, gain: float = 0.0,
    value: float = 0.0, n_samples: int = 0, features: Sequence[int] = (),
    weights: Sequence[float] = (),
) -> tuple:
    """One node's entries in :class:`Tree`'s fields, in order; the defaults are a leaf's."""
    return feature, threshold, missing_left, gain, value, n_samples, features, weights


@dataclass(slots=True, eq=False)
class Tree:
    """One tree as breadth-first node arrays; node 0 is the root.

    A split's children are ``left[i]`` and ``left[i] + 1``, left child
    first, and a leaf has ``left[i] == i``. Split ``i`` sends a row left
    when its value is below ``threshold[i]``, and a missing one when
    ``missing_left[i]``. An axis split reads feature ``feature[i]``. An
    oblique split has feature -1 and projects ``oblique_feature[s]`` with
    signed weights ``oblique_weight[s]``, where the slice ``s`` runs from
    ``oblique_start[i]`` to ``oblique_start[i + 1]`` and is empty at every
    other node. Fields a node does not use hold :func:`node_record`'s
    defaults.
    """

    left: np.ndarray  # (n,) intp
    feature: np.ndarray  # (n,) intp
    threshold: np.ndarray  # (n,) float64
    missing_left: np.ndarray  # (n,) bool
    gain: np.ndarray  # (n,) float64
    value: np.ndarray  # (n,) float64
    n_samples: np.ndarray  # (n,) int64
    oblique_start: np.ndarray  # (n + 1,) intp
    oblique_feature: np.ndarray  # intp
    oblique_weight: np.ndarray  # float64

    @classmethod
    def from_records(cls, left: Sequence[int], records: Sequence[tuple]) -> Tree:
        """The tree whose node ``i`` has first child ``left[i]`` and fields ``records[i]``."""
        *columns, features, weights = zip(*records)
        dtypes = (np.intp, np.float64, bool, np.float64, np.float64, np.int64)
        return cls(
            np.array(left, dtype=np.intp),
            *(np.array(column, dtype=dtype) for column, dtype in zip(columns, dtypes)),
            np.cumsum([0, *map(len, features)], dtype=np.intp),
            np.array([f for fs in features for f in fs], dtype=np.intp),
            np.array([w for ws in weights for w in ws], dtype=np.float64),
        )

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """This tree's leaf value for each row, scored as a one-tree forest."""
        from .model import _Forest

        X = np.asarray(X, dtype=np.float64)
        return _Forest.compile((self,), X.shape[1]).raw(X)

    def n_nodes(self) -> int:
        return len(self.left)


def breadth_first(child: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Breadth-first renumbering of trees given as an (n, 2) table of each node's children.

    A leaf's row holds its own id twice. Levels start at ``roots`` and take
    each split's children in row order. Returns the old id of each new id,
    each new node's first child as a new id, and the levels.
    """
    levels = []
    level = roots
    while len(level):
        levels.append(level)
        level = child[level[child[level, 0] != level]].ravel()
    order = np.concatenate([roots[:0], *levels])
    renumber = np.empty_like(order)
    renumber[order] = np.arange(len(order))
    return order, renumber[child[order, 0]], levels


#: Largest ``max_bins``: it bounds each feature's share of a node's
#: packed histogram, at most 2**16 real bins.
MAX_BINS = 60000


@dataclass(slots=True)
class _ScanPlan:
    """Where one node's packed histogram keeps each bin, and which splits to score.

    Feature f has T_f thresholds and T_f + 1 real bins, padded to the next
    power of two W_f. Features of equal width form a class: an (F_c, W_c)
    block of real bins, features ascending, so a few ``cumsum`` calls
    cover every feature with at most twice its bins. The blocks, by ascending
    width, fill positions ``[0, n_bins)``; ``n_bins + f`` is feature f's
    missing bin, and the last position, ``n_bins + F``, is never keyed and
    stays 0. Split candidate k sends rows in real bins at or below position
    ``pos[k]`` of ``feature[k]`` left, and missing rows left when
    ``missing_left[k]``; its threshold is the feature's ``bin[k]``-th.
    Candidates run in (feature, bin, direction) order over real thresholds
    only; the missing-right direction exists only for features with
    missing rows, since elsewhere it gains exactly what missing-left does.
    """

    n_bins: int
    classes: list[tuple[int, int, int]]  # (first position, features, width)
    last: np.ndarray  # (F,) position of each feature's last real bin
    pos: np.ndarray  # (K,) position of each candidate's bin
    feature: np.ndarray  # (K,)
    bin: np.ndarray  # (K,)
    missing_left: np.ndarray  # (K,) bool
    miss_src: np.ndarray  # (K,) missing bin added to the left side; F for none

    @property
    def size(self) -> int:
        return self.n_bins + len(self.last) + 1


@dataclass(slots=True)
class Binned:
    """Binned rows: each cell's histogram key and the split candidates.

    Rows come in blocks of C columns, and column c of block s is feature
    ``s * C + c``; :func:`bin_features` makes one block, whose columns
    are its features. ``keys[i, c]`` is the position of row i's bin for
    that feature in one node's packed histogram, which ``plan`` lays
    out, so a row's keys reach only its own block's features. A value's
    real bin counts the ``thresholds[f]`` at or below it; a NaN's key is
    feature f's missing bin, ``plan.n_bins + f``. ``counts`` is the
    read-only count histogram of all rows, the same for every tree of a
    fit.
    """

    thresholds: list[np.ndarray]
    keys: np.ndarray  # (n, C) int64
    plan: _ScanPlan
    counts: np.ndarray  # (1, plan.size) float64

    def goes_left(self, rows: np.ndarray | slice, k: int) -> np.ndarray:
        """Whether each of ``rows`` goes left at plan candidate ``k``.

        ``rows`` must lie in the block of the candidate's feature. A real
        key goes left when it is at most the candidate's position, that
        is when the value is below its threshold; a missing key,
        ``>= plan.n_bins``, takes the candidate's missing side.
        """
        plan = self.plan
        keys = self.keys[rows, plan.feature[k] % self.keys.shape[1]]
        return np.where(keys >= plan.n_bins, plan.missing_left[k], keys <= plan.pos[k])


def _plan(thr_counts: np.ndarray, has_missing: np.ndarray) -> _ScanPlan:
    """Scan plan for features with ``thr_counts`` thresholds (see :class:`_ScanPlan`).

    Features flagged in ``has_missing`` also get missing-right candidates.
    """
    n_features = len(thr_counts)
    # 1 << bit_length(T): frexp's exponent of T > 0 is its bit length, and 0 for T = 0.
    width = np.left_shift(1, np.frexp(thr_counts)[1].astype(np.int64))
    by_width = np.argsort(width, kind="stable")
    start = np.empty(n_features, dtype=np.int64)
    start[by_width] = np.cumsum(width[by_width]) - width[by_width]
    widths, first, n_members = np.unique(width[by_width], return_index=True, return_counts=True)
    classes = list(zip(start[by_width[first]].tolist(), n_members.tolist(), widths.tolist()))
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


def _linear_quantiles(
    values: np.ndarray, start: np.ndarray, count: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``np.quantile``'s default (linear) quantiles ``q`` of sorted runs.

    Run i is ``values[start[i]:start[i] + count[i]]``, ascending, with no
    NaN. Row i of the result is its quantiles by ``np.quantile``'s own
    steps: virtual index ``(n - 1) * q``, floor, the clamps at both ends,
    ``gamma = virtual - floor``, and ``a + (b - a) * gamma``, taken as
    ``b - (b - a) * (1 - gamma)`` where ``gamma >= 0.5``. The order
    statistics a and b have the bits ``np.partition`` gives, except that
    neither it nor ``np.sort`` keeps the sign of a zero; the second result
    flags each run whose quantiles read an order statistic equal to 0.
    """
    n = count[:, None]
    virtual = (n - 1) * q
    prev = np.floor(virtual)
    next_ = prev + 1
    above = virtual >= n - 1
    prev[above] = next_[above] = -1
    below = virtual < 0
    prev[below] = next_[below] = 0
    prev = prev.astype(np.intp)
    next_ = next_.astype(np.intp)
    gamma = virtual - prev
    # Index -1 is the run's last value.
    a = values[start[:, None] + np.where(prev < 0, prev + n, prev)]
    b = values[start[:, None] + np.where(next_ < 0, next_ + n, next_)]
    diff = b - a
    result = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=result, where=gamma >= 0.5)
    return result, ((a == 0) | (b == 0)).any(axis=1)


def _bin_blocks(blocks: Sequence[np.ndarray], max_bins: int) -> Binned:
    """Bin row blocks of one width C; column c of block s is feature ``s * C + c``.

    Every column is sorted once, NaN last, and the sorted columns are laid
    end to end. A feature whose finite values take at most ``max_bins + 1``
    distinct values splits at the midpoints of consecutive ones; a denser
    one at the distinct values of its interior linear quantiles
    (:func:`_linear_quantiles`). Where those quantiles read a zero order
    statistic, whose sign the sort may have changed, ``np.unique`` of
    ``np.quantile`` over the column's finite values gives its thresholds.
    A midpoint or quantile between infinities is NaN and is dropped.
    """
    width = blocks[0].shape[1]
    n_features = len(blocks) * width
    sizes = [len(block) for block in blocks]
    length = np.repeat(sizes, width)
    values = np.empty(sum(sizes) * width)
    # Each finite value that differs from the one before it in its feature.
    changes = np.zeros(len(values), dtype=bool)
    n_finite, n_changes = [], []
    offset = 0
    for block in blocks:
        shape = (width, len(block))
        run = values[offset:offset + block.size].reshape(shape)
        run[...] = block.T
        run.sort(axis=1)
        finite = ~np.isnan(run)
        change = changes[offset:offset + block.size].reshape(shape)
        np.not_equal(run[:, 1:], run[:, :-1], out=change[:, 1:])
        change &= finite
        n_finite.append(finite.sum(axis=1))
        n_changes.append(change.sum(axis=1))
        offset += block.size
    n_finite = np.concatenate(n_finite)
    n_changes = np.concatenate(n_changes)
    n_distinct = n_changes + (n_finite > 0)

    by_midpoint = (n_distinct >= 2) & (n_distinct <= max_bins + 1)
    at = np.flatnonzero(changes & np.repeat(by_midpoint, length))
    thr_feature = [np.repeat(np.arange(n_features), np.where(by_midpoint, n_changes, 0))]
    by_quantile = np.flatnonzero(n_distinct > max_bins + 1)
    with np.errstate(invalid="ignore"):  # midpoints or quantiles between infinities
        thr = [(values[at - 1] + values[at]) / 2.0]
        if len(by_quantile):
            q = np.arange(1, max_bins + 1) / (max_bins + 1)
            start = np.cumsum(length) - length
            quantiles, reads_zero = _linear_quantiles(
                values, start[by_quantile], n_finite[by_quantile], q
            )
            quantiles.sort(axis=1)
            distinct = np.ones(quantiles.shape, dtype=bool)
            distinct[:, 1:] = quantiles[:, 1:] != quantiles[:, :-1]
            distinct[reads_zero] = False
            thr.append(quantiles[distinct])
            thr_feature.append(np.repeat(by_quantile, distinct.sum(axis=1)))
            for f in by_quantile[reads_zero]:
                col = blocks[f // width][:, f % width]
                thr.append(np.unique(np.quantile(col[~np.isnan(col)], q)))
                thr_feature.append(np.full(len(thr[-1]), f))
    thr_values = np.concatenate(thr)
    thr_feature = np.concatenate(thr_feature)
    kept = ~np.isnan(thr_values)
    thr_feature = thr_feature[kept]
    thr_values = thr_values[kept][np.argsort(thr_feature, kind="stable")]
    thr_counts = np.bincount(thr_feature, minlength=n_features)
    thresholds = np.split(thr_values, np.cumsum(thr_counts))[:-1]

    plan = _plan(thr_counts, n_finite < length)
    first_bin = (plan.last - thr_counts).reshape(len(blocks), width)
    missing_bin = (plan.n_bins + np.arange(n_features)).reshape(len(blocks), width)
    keys = np.empty((sum(sizes), width), dtype=np.int64)
    row = 0
    for s, block in enumerate(blocks):
        block_keys = keys[row:row + len(block)]
        for c, feature_thr in enumerate(thresholds[s * width:(s + 1) * width]):
            block_keys[:, c] = feature_thr.searchsorted(block[:, c], side="right")
        block_keys += first_bin[s]
        np.copyto(block_keys, missing_bin[s], where=np.isnan(block))
        row += len(block)
    counts = np.bincount(keys.ravel(), minlength=plan.size).astype(np.float64)[None]
    counts.flags.writeable = False
    return Binned(thresholds=thresholds, keys=keys, plan=plan, counts=counts)


def bin_features(X: np.ndarray, max_bins: int = 255) -> Binned:
    """Bin each feature onto at most ``max_bins`` threshold candidates.

    Midpoints of consecutive unique values are used while they fit the
    budget; denser features fall back to interior quantiles. A midpoint or
    quantile between infinities is NaN and is dropped. Every column is
    binned from one sort of its values (:func:`_bin_blocks`), and each
    cell's key is written straight from its feature's thresholds; NaN
    cells take the feature's missing bin.
    """
    if not 1 <= max_bins <= MAX_BINS:
        raise ValueError(f"max_bins must be in [1, {MAX_BINS}]")
    return _bin_blocks([np.asarray(X, dtype=np.float64)], max_bins)


def leaf_value(g_sum: float, h_sum: float, l2: float) -> float:
    """Newton step -G / (H + l2), denominator floored for degenerate cases."""
    denom = h_sum + l2
    if denom < LEAF_DENOM_FLOOR:
        denom = LEAF_DENOM_FLOOR
    return -g_sum / denom


def _split_gains(
    hist_g: np.ndarray,
    hist_h: np.ndarray,
    hist_c: np.ndarray,
    plan: _ScanPlan,
    l2: float,
    min_leaf: int,
) -> np.ndarray:
    """Each histogram slot's gain at each of the plan's candidates, (S, K).

    Histograms are (S, ``plan.size``) packed rows. Each feature's prefix
    sums run over its own real bins, padded with zeros to its class
    width, so they add in the same order as over a dense
    ``max_bins + 1``-bin row. A candidate that leaves fewer than
    ``min_leaf`` rows on a side gains -inf. :func:`_first_best` picks a
    slot's split, so ties resolve to the lowest feature index, then
    lowest threshold, then missing-left, and results are reproducible.
    """
    n_slots = hist_g.shape[0]
    n_features = len(plan.last)
    cum = np.empty((n_slots, plan.n_bins))

    def side_sums(hist):
        """Each feature's total and each candidate's left and right sums."""
        for lo, n_feat, width in plan.classes:
            hi = lo + n_feat * width
            block = hist[:, lo:hi].reshape(n_slots, n_feat, width)
            cum[:, lo:hi] = np.cumsum(block, axis=2).reshape(n_slots, -1)
        miss = hist[:, plan.n_bins:]  # F missing bins, then an empty one
        total = cum[:, plan.last] + miss[:, :n_features]
        left = np.take(cum, plan.pos, axis=1)
        left += np.take(miss, plan.miss_src, axis=1)
        right = np.take(total, plan.feature, axis=1)
        right -= left
        return total, left, right

    # The gain G_L^2/(H_L+l2) + G_R^2/(H_R+l2) - G^2/(H+l2), each
    # denominator floored, computed in place in the dense scan's order.
    g_tot, gains, g_right = side_sums(hist_g)
    h_tot, h_left, h_right = side_sums(hist_h)
    _, c_left, c_right = side_sums(hist_c)
    for g_side, h_side in ((gains, h_left), (g_right, h_right)):
        h_side += l2
        np.maximum(h_side, _GAIN_DENOM_FLOOR, out=h_side)
        g_side *= g_side
        g_side /= h_side
    gains += g_right
    parent = g_tot * g_tot / np.maximum(h_tot + l2, _GAIN_DENOM_FLOOR)
    gains -= np.take(parent, plan.feature, axis=1)
    too_small = c_left < min_leaf
    too_small |= c_right < min_leaf
    gains[too_small] = -np.inf
    return gains


def _first_best(gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first highest gain and its index; gain -inf in a row with no candidate."""
    n_rows, n_candidates = gains.shape
    if not n_candidates:
        return np.zeros(n_rows, dtype=np.intp), np.full(n_rows, -np.inf)
    best = gains.argmax(axis=1)
    return best, gains[np.arange(n_rows), best]


def _oblique_splits(
    X: np.ndarray,
    level_rows: list[np.ndarray],
    g: np.ndarray,
    h: np.ndarray,
    params: TrainParams,
    rng: np.random.Generator,
) -> list[tuple[float, tuple, np.ndarray] | None]:
    """Best random sparse-projection split of each of a level's nodes, or None.

    Projections are drawn node by node in level order, and each is a
    derived column over its node's rows. The nodes' blocks of projections
    are binned together, one feature per (node, projection), so one
    histogram per statistic and one gain scan serve the level; a node
    takes the first best of its own candidates, in (projection, bin,
    direction) order. Returns, per node, the split's gain, its
    :func:`node_record` and, for each of the node's rows, whether it goes
    left.
    """
    n_features = X.shape[1]
    n_pick = max(1, int(round(params.oblique_sparsity * n_features)))
    n_proj = params.oblique_projections
    signs = np.array([-1.0, 1.0])
    projections, blocks = [], []
    for rows in level_rows:
        node_projections = [
            (np.sort(rng.choice(n_features, size=n_pick, replace=False)),
             rng.choice(signs, size=n_pick))
            for _ in range(n_proj)
        ]
        node_X = X[rows]
        # One matrix-vector product per projection; a batched or dense
        # product rounds some projections differently.
        blocks.append(np.column_stack([node_X[:, feats] @ w for feats, w in node_projections]))
        projections.append(node_projections)
    binned = _bin_blocks(blocks, params.max_bins)
    plan = binned.plan
    rows = np.concatenate(level_rows)
    gains = _split_gains(
        *_batch_histograms(binned, g[rows], h[rows]),
        plan, params.l2, params.min_examples_per_leaf,
    )
    # Node s's candidates are those of its features, s * n_proj onwards.
    bounds = np.searchsorted(plan.feature, np.arange(len(level_rows) + 1) * n_proj)
    row_start = np.cumsum([0, *map(len, level_rows)])
    found = []
    for s, node_projections in enumerate(projections):
        (k,), (gain,) = _first_best(gains[:, bounds[s]:bounds[s + 1]])
        if not (np.isfinite(gain) and gain > 0.0):
            found.append(None)
            continue
        k += bounds[s]
        p = plan.feature[k]
        feats, w = node_projections[p - s * n_proj]
        gain = float(gain)
        split = node_record(
            -1, float(binned.thresholds[p][plan.bin[k]]), bool(plan.missing_left[k]), gain,
            features=feats.tolist(), weights=w.tolist(),
        )
        found.append((gain, split, binned.goes_left(slice(row_start[s], row_start[s + 1]), k)))
    return found


def _batch_histograms(
    binned: Binned,
    g: np.ndarray,
    h: np.ndarray,
    node_rows: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed (hist_g, hist_h, hist_c), each (len(node_rows), ``plan.size``).

    Row i is the histogram of ``node_rows[i]``; each statistic takes one
    bincount pass over all rows. Without ``node_rows`` the one row is
    every row's, in row order: the keys are read in place, with no
    gather, and the counts are ``binned.counts``.
    """
    n_columns = binned.keys.shape[1]
    size = binned.plan.size
    if node_rows is None:
        n_slots, slot_rows = 1, slice(None)
        keys = binned.keys.ravel()
    else:
        n_slots = len(node_rows)
        slot_rows = np.concatenate(node_rows)
        keys = binned.keys[slot_rows]
        if n_slots > 1:
            slot_of_row = np.repeat(np.arange(n_slots), [len(rows) for rows in node_rows])
            keys += (slot_of_row * size)[:, None]
        keys = keys.ravel()
    shape = (n_slots, size)
    minlength = n_slots * size
    hist_g = np.bincount(
        keys, weights=np.repeat(g[slot_rows], n_columns), minlength=minlength
    ).reshape(shape)
    hist_h = np.bincount(
        keys, weights=np.repeat(h[slot_rows], n_columns), minlength=minlength
    ).reshape(shape)
    if node_rows is None:
        hist_c = binned.counts
    else:
        hist_c = np.bincount(keys, minlength=minlength).reshape(shape).astype(np.float64)
    return hist_g, hist_h, hist_c


def grow_tree(
    binned: Binned,
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    params: TrainParams,
    rng: np.random.Generator | None = None,
) -> tuple[Tree, np.ndarray]:
    """Grow one tree; returns it plus each training row's leaf value.

    Nodes are split one level at a time. A level's searching nodes are
    kept as (rows, node id), and row i of the level's histogram arrays is
    node i's. Each split histograms only its smaller child; the larger
    sibling's row is the parent's row minus it, which gradient
    quantization keeps exact. A split's two children take the next two
    ids when it is made, so ids run breadth-first, as :class:`Tree`
    numbers them. Oblique splits, which require ``rng``, are searched
    for a whole level at once (:func:`_oblique_splits`), drawing every
    node's projections in level order.
    """
    if params.oblique and rng is None:
        raise ValueError("oblique splits need an rng")
    min_leaf = params.min_examples_per_leaf
    plan = binned.plan
    row_values = np.zeros(len(g), dtype=np.float64)
    no_rows = np.empty(0, dtype=np.int64)
    # Each node's first child and record, set when it becomes a leaf or a split.
    left = [0]
    records: list[tuple] = [()]

    def make_leaf(node: int, rows: np.ndarray) -> None:
        value = leaf_value(float(g[rows].sum()), float(h[rows].sum()), params.l2)
        row_values[rows] = value
        records[node] = node_record(value=value, n_samples=len(rows))

    root = np.arange(len(g))
    level = []
    if len(root) >= 2 * min_leaf:
        level = [(root, 0)]
        hists = _batch_histograms(binned, g, h)
    else:
        make_leaf(0, root)
    depth = 0
    while level:
        depth += 1
        best, gain = _first_best(_split_gains(*hists, plan, params.l2, min_leaf))
        oblique = [None] * len(level)
        if params.oblique:
            oblique = _oblique_splits(X, [rows for rows, _ in level], g, h, params, rng)
        next_level = []
        # Rows histogrammed into each next-level slot, and the slots that
        # become (parent slot's row) - (smaller sibling's slot's row).
        slot_rows: list[np.ndarray] = []
        derived: list[tuple[int, int, int]] = []  # (slot, small slot, parent slot)
        for s, (rows, node) in enumerate(level):
            split, split_gain = None, 0.0
            if np.isfinite(gain[s]) and gain[s] > 0.0:
                k = best[s]
                f = int(plan.feature[k])
                split_gain = float(gain[s])
                split = node_record(
                    f, float(binned.thresholds[f][plan.bin[k]]), bool(plan.missing_left[k]),
                    split_gain,
                )
                go_left = binned.goes_left(rows, k)
            if oblique[s] is not None and oblique[s][0] > split_gain:
                split_gain, split, go_left = oblique[s]
            if split is None:
                make_leaf(node, rows)
                continue
            records[node] = split
            left[node] = len(left)
            left += [len(left), len(left) + 1]
            records += [(), ()]
            children = (rows[go_left], rows[~go_left])
            searching = []
            for child, child_rows in enumerate(children, start=left[node]):
                if depth < params.max_depth and len(child_rows) >= 2 * min_leaf:
                    searching.append((child_rows, child))
                else:
                    make_leaf(child, child_rows)
            small_is_left = len(children[0]) <= len(children[1])
            small = children[not small_is_left]
            slot = len(next_level)
            next_level += searching
            if len(searching) == 2:
                slot_rows += [small, no_rows] if small_is_left else [no_rows, small]
                derived.append((slot + small_is_left, slot + (not small_is_left), s))
            elif searching:
                # The one slot holds the smaller child's histogram, and
                # becomes the larger sibling's when that is the one searching.
                slot_rows.append(small)
                if searching[0][0] is not small:
                    derived.append((slot, slot, s))
        if next_level:
            new_hists = _batch_histograms(binned, g, h, slot_rows)
            if derived:
                dst, src, par = np.array(derived).T
                for new, old in zip(new_hists, hists):
                    new[dst] = old[par] - new[src]
            hists = new_hists
        level = next_level
    return Tree.from_records(left, records), row_values
