"""Boosted ensemble training and prediction.

The model is an additive ensemble: score(x) = base_score + eta * sum_t
tree_t(x). Each round computes pairwise ranking gradients per query
group, fits one tree to them with second-order gains, and advances the
cumulative scores by the shrunken tree output. Training is deterministic
for a fixed seed and independent of the gradient worker thread count.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..features import FeatureSchema
from ..metrics import GroupedNdcg, QueryGroups
from .lambdas import PairIndex, check_threads
from .tree import MAX_BINS, Tree, bin_features, breadth_first, grow_tree


class TrainingError(ValueError):
    """Raised when a dataset cannot support ranking training."""


@dataclass(frozen=True, slots=True)
class TrainParams:
    """Training hyperparameters.

    ``ndcg_truncation`` is the k of the NDCG@k that drives the pairwise
    gradients; ``sigma`` scales the pairwise sigmoid; ``max_bins`` caps
    the per-feature threshold candidates.
    """

    num_trees: int = 300
    shrinkage: float = 0.1
    max_depth: int = 6
    min_examples_per_leaf: int = 5
    l2: float = 1.0
    ndcg_truncation: int = 8
    sigma: float = 1.0
    oblique: bool = False
    oblique_projections: int = 20
    oblique_sparsity: float = 0.25
    max_bins: int = 255
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_trees < 1:
            raise ValueError(f"num_trees must be >= 1, got {self.num_trees}")
        if not 0.0 < self.shrinkage <= 1.0:
            raise ValueError(f"shrinkage must be in (0, 1], got {self.shrinkage}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_examples_per_leaf < 1:
            raise ValueError("min_examples_per_leaf must be >= 1")
        if not (math.isfinite(self.l2) and self.l2 >= 0.0):
            raise ValueError(f"l2 must be finite and >= 0, got {self.l2}")
        if self.ndcg_truncation < 1:
            raise ValueError("ndcg_truncation must be >= 1")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if self.oblique_projections < 1:
            raise ValueError("oblique_projections must be >= 1")
        if not 0.0 < self.oblique_sparsity <= 1.0:
            raise ValueError("oblique_sparsity must be in (0, 1]")
        if not 1 <= self.max_bins <= MAX_BINS:
            raise ValueError(f"max_bins must be in [1, {MAX_BINS}]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


#: Rows per scoring chunk are capped so that one chunk's workspace and
#: each of a call's walk buffers (row numbers, node ids, offsets, cells,
#: thresholds and branch bits, one entry per tree and row) stay near this
#: many elements; each oblique gather stays near half of it.
_CHUNK_ELEMENTS = 1 << 16

#: Per-round validation scores a block of trees at a time, holding at most
#: about this many (row, tree) leaf values.
_VALID_ELEMENTS = 1 << 20


@dataclass(slots=True)
class _Forest:
    """Every tree of a model joined into one breadth-first node table.

    ``compile`` concatenates the trees' node arrays (see :class:`Tree`),
    rewrites missing-right splits as below and renumbers all trees
    together, with array operations and one pass per level.

    Rows are walked over the columns of ``[X | -X | projections]``, one
    comparison per level: node ``i`` reads some column ``c`` and sends row
    ``r`` to ``left[i] + (value >= threshold[i])``, where ``value`` is row
    ``r`` of column ``c``; the two children of a split have consecutive
    ids. A NaN compares false, so a missing value always takes
    ``left[i]``. A split that sends missing rows left reads its value as it
    is, with its own threshold and children. One that sends them right
    reads the negated value (column ``F + f``, or negated oblique weights;
    negation is exact), compares it with ``nextafter(-t, inf)`` and swaps
    its children, since ``-v >= nextafter(-t, inf)`` holds exactly when
    ``v < t``. With ``t = -inf`` such a split sends every row right, so its
    threshold becomes NaN, which no value reaches. Oblique node ``k`` reads
    derived column ``2F + k``, its projection. Oblique nodes are numbered
    by feature count, then by node id; ``projections`` holds each count's
    features and signed weights, and ``oblique_node`` each oblique
    column's node id. A leaf has ``left[i] == i`` and a NaN threshold, so
    it never moves: every row takes exactly ``depth`` branch-free steps
    and ends on its leaf.

    Nodes are numbered breadth-first over all trees at once: the roots are
    ``0 .. trees - 1`` in model order, then come the children of each
    level's splits, a split's two side by side. So each level is one range
    of node ids, and the nodes of one feature count on one level are one
    run of its columns.

    Projections are computed per chunk, over all the chunk's rows. Those
    of the top levels are computed before the walk; each deeper level's
    are computed as the walk reaches it, for the nodes some row holds.
    ``level_cuts`` has one row per feature count: of the ``depth`` levels
    that hold splits, the last ``level_cuts.shape[1] - 1`` are projected
    as reached, and on the ``j``-th of them count ``g``'s nodes are its
    projections ``level_cuts[g, j]`` up to ``level_cuts[g, j + 1]``
    (positions in ``projections[g]``). Its projections before
    ``level_cuts[g, 0]`` are computed up front.

    The columns live feature-major in a ``(width, chunk)`` workspace, row
    ``c`` holding column ``c`` for every row of a chunk, so row ``r`` of
    column ``c`` sits at flat offset ``c * chunk + r``. ``at[i]`` is that
    offset for node ``i``'s column and row 0; it and each root's column
    are fixed at compile time, so no request passes over the node table.
    A chunk of fewer rows leaves the tail of each workspace row unused.
    The walk is tree-major: node ids are held as ``(trees, rows)``, so the
    rows of one tree that sit at one node read consecutive workspace cells.
    Each ``raw`` or ``leaf_values`` call allocates its own workspace and
    walk buffers and reuses them for all its chunks, so concurrent
    requests share nothing but this read-only table.
    """

    at: np.ndarray
    root_column: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    left: np.ndarray
    trees: int
    depth: int
    n_features: int
    width: int
    projections: list[tuple[np.ndarray, np.ndarray]]
    oblique_node: np.ndarray
    level_cuts: np.ndarray
    chunk: int

    @classmethod
    def compile(cls, trees: Sequence[Tree], n_features: int) -> _Forest:
        def joined(field: str, dtype: type) -> np.ndarray:
            # A model may hold no trees.
            return np.concatenate([np.empty(0, dtype), *(getattr(t, field) for t in trees)])

        sizes = np.array([t.n_nodes() for t in trees], dtype=np.intp)
        roots = np.cumsum(sizes) - sizes
        ids = np.arange(sizes.sum())
        left = joined("left", np.intp) + np.repeat(roots, sizes)
        split = left != ids
        # Splits that send missing rows right walk the negated value.
        flip = split & ~joined("missing_left", bool)
        column = np.maximum(joined("feature", np.intp), 0)
        column[flip] += n_features
        threshold = joined("threshold", np.float64)
        threshold[flip] = np.where(
            threshold[flip] == -np.inf, np.nan, np.nextafter(-threshold[flip], np.inf)
        )
        threshold[~split] = np.nan
        child = np.stack([left, left + split], axis=1)
        child[flip] = child[flip, ::-1]
        order, first_child, levels = breadth_first(child, roots)
        depth = max(len(levels) - 1, 0)
        width = 2 * n_features
        projections = []
        n_weights = np.concatenate([np.diff(t.oblique_start) for t in trees] or [ids[:0]])
        oblique = np.flatnonzero(n_weights)
        oblique_node = oblique
        cuts = np.zeros((0, depth + 1), dtype=np.intp)
        if len(oblique):
            node_id = np.empty_like(order)
            node_id[order] = ids
            # Oblique nodes by feature count, then by node id, so the nodes
            # of one count on one level are one run of columns.
            oblique = oblique[np.argsort(node_id[oblique])]
            oblique = oblique[np.argsort(n_weights[oblique], kind="stable")]
            oblique_node = node_id[oblique]
            column[oblique] = np.arange(width, width + len(oblique))
            width += len(oblique)
            start = np.cumsum(n_weights) - n_weights
            features = joined("oblique_feature", np.intp)
            sign = np.where(flip, -1.0, 1.0)[:, None]  # negation is exact
            weights = joined("oblique_weight", np.float64)
            level_start = np.cumsum([0, *map(len, levels[:-1])])
            counts = n_weights[oblique]
            level_cuts = []
            for size in sorted(set(counts.tolist())):  # np.unique imports numpy.ma
                group = oblique[counts == size]
                at = start[group, None] + np.arange(size)
                projections.append((features[at], weights[at] * sign[group]))
                level_cuts.append(np.searchsorted(oblique_node[counts == size], level_start))
            cuts = np.stack(level_cuts)
        # Every row sits at a root, so the roots are projected up front.
        # Below them, marking the nodes one level's rows hold writes a mark
        # per tree and row and takes some ten calls, which pays only where
        # a level holds more oblique nodes than the forest has trees: the
        # levels from the first such one are projected as rows reach them.
        # (A 40-tree model with 1, 7, 25, 71, 131 and 228 oblique nodes per
        # level scored 98-row requests fastest starting at level 3.)
        crowded = 1 + np.flatnonzero(np.diff(cuts, axis=1).sum(axis=0)[1:] > len(roots))
        lazy_from = crowded[0] if len(crowded) else depth
        width = max(width, 1)  # leaves read column 0, unused, even with no features
        chunk = max(1, _CHUNK_ELEMENTS // max(len(roots), width))
        column = column[order]
        return cls(
            at=column * chunk,
            root_column=column[: len(roots)],
            threshold=threshold[order],
            value=joined("value", np.float64)[order],
            left=first_child,  # a leaf's child is itself
            trees=len(roots),
            depth=depth,
            n_features=n_features,
            width=width,
            projections=projections,
            oblique_node=oblique_node,
            level_cuts=cuts[:, lazy_from:],
            chunk=chunk,
        )

    def raw(self, X: np.ndarray) -> np.ndarray:
        """Sum of the trees' leaf values for each row of ``X``."""
        out = np.empty(len(X), dtype=np.float64)
        buffers = self._buffers(len(X))
        for lo in range(0, len(X), self.chunk):
            total = out[lo : lo + self.chunk]
            leaf, values = self._walk(X[lo : lo + self.chunk], buffers)
            if self.projections:
                # Oblique models have always summed tree by tree from +0.0
                # and axis-only ones pairwise along the row; each keeps its
                # order, so a saved model scores bit-identically to earlier
                # releases. A lone row's reduce would add its trees
                # pairwise, so it accumulates them in order instead.
                values = self.value.take(leaf, out=values)
                if len(total) > 1:
                    np.add.reduce(values, axis=0, initial=0.0, out=total)
                else:
                    np.add(np.add.accumulate(values, axis=0)[-1], 0.0, out=total)
            else:
                values = values.reshape(len(total), self.trees)
                np.sum(self.value.take(leaf.T, out=values), axis=1, out=total)
        return out

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Each tree's leaf value for each row of ``X``, shape ``(trees, n)``."""
        out = np.empty((self.trees, len(X)), dtype=np.float64)
        buffers = self._buffers(len(X))
        for lo in range(0, len(X), self.chunk):
            leaf, _ = self._walk(X[lo : lo + self.chunk], buffers)
            out[:, lo : lo + self.chunk] = self.value.take(leaf)
        return out

    def _buffers(self, rows: int) -> tuple[np.ndarray, ...]:
        """One call's workspace, flat walk buffers, products and marks, for chunks of ``rows``.

        All are views into one allocation. glibc hands freed heap back to
        the system once the free space at its top passes twice the largest
        block freed so far, so separate arrays, each small against their
        sum plus a projection gather, had a wide oblique model's memory
        trimmed and faulted back in on every request.
        """
        rows = min(rows, self.chunk)
        size = self.trees * rows
        cells = self.width * self.chunk
        # One projection block's products (see ``_project``).
        products = max(
            (min(len(w) * rows, max(rows, _CHUNK_ELEMENTS // (2 * f.shape[1])))
             for f, w in self.projections),
            default=0,
        )
        marks = len(self.left) if self.projections else 0
        # Floats, then integers, then bits, so every view starts aligned.
        ints = 8 * (cells + 2 * size + products)
        bits = ints + 8 * 3 * size
        block = np.empty(bits + size + marks, dtype=np.uint8)
        floats = block[:ints].view(np.float64)
        ids = block[ints:bits].view(np.intp)
        return (
            floats[:cells].reshape(self.width, self.chunk),  # workspace
            floats[cells : cells + size],  # cells
            floats[cells + size : cells + 2 * size],  # thresholds
            ids[:size],  # row numbers
            ids[size : 2 * size],  # node ids
            ids[2 * size :],  # cell offsets, then next node ids
            block[bits : bits + size].view(np.bool_),  # branch bits
            floats[cells + 2 * size :],  # projection products
            block[bits + size :].view(np.bool_),  # marks, one per node
        )

    def _columns(self, X: np.ndarray, ZT: np.ndarray, products: np.ndarray) -> None:
        """Fill the feature-major workspace: ``X.T``, ``-X.T``, then the up-front projections.

        ``ZT`` is ``(width, chunk)``; only its first ``len(X)`` columns are
        written. The projections are those of the levels before
        ``level_cuts``' first, the roots' at least, which every row needs.
        """
        n = len(X)
        F = self.n_features
        ZT[:F, :n] = X.T
        np.negative(X.T, out=ZT[F : 2 * F, :n])
        first = 0
        for (feats, weights), cuts in zip(self.projections, self.level_cuts):
            self._project(ZT, n, feats, weights, np.arange(cuts[0]), first, products)
            first += len(weights)

    def _project_reached(
        self, j: int, cur: np.ndarray, ZT: np.ndarray, products: np.ndarray, marks: np.ndarray
    ) -> None:
        """Project the oblique nodes of ``level_cuts``' level ``j`` that some row in ``cur`` holds."""
        marks[:] = False
        marks[cur] = True
        first = 0
        for (feats, weights), cuts in zip(self.projections, self.level_cuts):
            nodes = self.oblique_node[first + cuts[j] : first + cuts[j + 1]]
            picked = cuts[j] + np.flatnonzero(marks[nodes])
            if len(picked):
                self._project(ZT, cur.shape[1], feats, weights, picked, first, products)
            first += len(weights)

    def _project(
        self,
        ZT: np.ndarray,
        n: int,
        feats: np.ndarray,
        weights: np.ndarray,
        picked: np.ndarray,
        first: int,
        products: np.ndarray,
    ) -> None:
        """Write the projections ``picked`` of one feature count into their workspace rows.

        The count's projections start at oblique column ``first``, workspace
        row ``2F + first``. Each is one matrix-vector product per node over
        all the chunk's ``n`` rows. BLAS rounds the last ``n % 4`` rows of a
        call in a separate tail, so a row's value depends on where it sits in
        the call: projecting only the rows that reach a node would move its
        bits, and training's per-node ``X[:, feats] @ w``, over the node's
        training rows, may differ from it in the last bit. A dense
        ``X @ W.T`` or an einsum rounds some projections differently again.
        The gather ``ZT[feats, :n]`` is laid out (node, feature, row), as
        NumPy lays out the gather ``X[:, feats]`` of a row-major ``X``, so
        each node's (row, feature) operand reaches BLAS with the same strides
        either way.
        """
        # Nodes go in blocks so each gather stays within half the budget,
        # small enough that the allocator reuses its memory; ``_buffers``
        # sizes ``products`` for one block.
        block = max(1, _CHUNK_ELEMENTS // (2 * n * feats.shape[1]))
        for k in range(0, len(picked), block):
            part = picked[k : k + block]
            out = products[: len(part) * n].reshape(len(part), n, 1)
            # A NaN projection (missing cell, or inf - inf) routes as missing.
            with np.errstate(invalid="ignore"):
                np.matmul(ZT[feats[part], :n].transpose(0, 2, 1), weights[part, :, None], out=out)
            ZT[2 * self.n_features + first + part, :n] = out[:, :, 0]

    def _walk(
        self, X: np.ndarray, buffers: tuple[np.ndarray, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each tree's leaf for each row of one chunk, as ``(trees, n)`` node ids.

        Also returns a free ``(trees, n)`` float buffer. Both are views into
        ``buffers``, so the next chunk overwrites them. Every id and offset
        is in range by construction (the ``.frm`` loader checks each node's
        indices), so the gathers use ``mode="clip"``, which writes straight
        into ``out`` where the default mode buffers it.

        Before each comparison on a level of ``level_cuts``, the nodes the
        rows hold are marked and that level's marked oblique nodes are
        projected; a workspace row that no row of this chunk reaches keeps
        what an earlier chunk left there, and nothing reads it.
        """
        n = len(X)
        ZT, *flat, products, marks = buffers
        cell, threshold, row, cur, step, right = (
            b[: self.trees * n].reshape(self.trees, n) for b in flat
        )
        self._columns(X, ZT, products)
        lazy_from = self.depth + 1 - self.level_cuts.shape[1]
        # Each tree's row numbers, written out once: adding a whole array
        # runs one flat loop, where adding a broadcast row loops per tree.
        np.copyto(row, np.arange(n, dtype=np.intp))
        # Every row starts at the roots, so their columns come out as whole
        # workspace rows, one contiguous copy per tree.
        roots = slice(0, self.trees)
        np.greater_equal(ZT[self.root_column, :n], self.threshold[roots, None], out=right)
        np.add(self.left[roots, None], right, out=cur)
        cells = ZT.ravel()
        for level in range(1, self.depth):
            if level >= lazy_from:
                self._project_reached(level - lazy_from, cur, ZT, products, marks)
            self.at.take(cur, out=step, mode="clip")
            step += row
            cells.take(step, out=cell, mode="clip")
            self.threshold.take(cur, out=threshold, mode="clip")
            np.greater_equal(cell, threshold, out=right)
            self.left.take(cur, out=step, mode="clip")
            np.add(step, right, out=cur)
        return cur, cell


@dataclass(slots=True)
class Model:
    """Trained ensemble plus everything needed to score a feature vector."""

    trees: tuple[Tree, ...]
    shrinkage: float
    base_score: float
    schema: FeatureSchema
    params: TrainParams
    _forest: _Forest | None = field(default=None, init=False, repr=False, compare=False)

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Scores for a feature matrix aligned to the model schema."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.schema):
            raise ValueError(
                f"feature matrix must be (n, {len(self.schema)}), got {X.shape}"
            )
        return self.base_score + self.shrinkage * self.forest().raw(X)

    def forest(self) -> _Forest:
        """The compiled node table, built on first use."""
        if self._forest is None:
            self._forest = _Forest.compile(self.trees, len(self.schema))
        return self._forest


@dataclass(frozen=True, slots=True)
class RoundStats:
    round: int
    train_ndcg: float
    valid_ndcg: float | None


@dataclass(slots=True)
class TrainResult:
    model: Model
    history: list[RoundStats]


def train(
    X: np.ndarray,
    labels: np.ndarray,
    group_ids: np.ndarray,
    schema: FeatureSchema,
    params: TrainParams,
    valid: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    n_threads: int = 1,
) -> TrainResult:
    """Train a ranking ensemble.

    Parameters
    ----------
    X
        (n, F) float matrix, NaN marking missing cells; column order must
        match ``schema``.
    labels
        Graded relevance per row (normalized labels in [0, 4]); a
        negative or non-finite label, here or in ``valid``, raises
        ``TrainingError``.
    group_ids
        Query-group key per row; rows of one group must be contiguous and
        ordered by the desired tie-break (item id ascending).
    valid
        Optional (X_valid, labels_valid, group_ids_valid) evaluated each
        round for the training log.
    n_threads
        Gradient workers; an execution knob, never part of the model.
        Any value of at least 1 yields bit-identical models; at most the
        process's usable CPUs run.
    """
    check_threads(n_threads)
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    group_ids = np.asarray(group_ids)
    if len(X) == 0:
        raise TrainingError("empty training set")
    if not (len(X) == len(labels) == len(group_ids)):
        raise TrainingError("X, labels and group_ids must align")
    if X.ndim != 2 or X.shape[1] != len(schema):
        raise TrainingError(
            f"feature matrix has shape {X.shape}, schema expects {len(schema)} columns"
        )
    if valid is not None:
        Xv = np.asarray(valid[0], dtype=np.float64)
        if Xv.ndim != 2 or Xv.shape[1] != len(schema):
            raise TrainingError(
                f"validation feature matrix has shape {Xv.shape}, "
                f"schema expects {len(schema)} columns"
            )
        if not (len(Xv) == len(valid[1]) == len(valid[2])):
            raise TrainingError("X_valid, labels_valid and group_ids_valid must align")
    for name, y in (("training", labels), ("validation", () if valid is None else valid[1])):
        y = np.asarray(y, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(y) | (y < 0.0))
        if len(bad):
            raise TrainingError(
                f"{name} label {y[bad[0]]} at row {bad[0]}: labels must be finite and >= 0"
            )
    try:
        groups = QueryGroups.from_ids(group_ids)
        valid_groups = QueryGroups.from_ids(valid[2]) if valid is not None else None
    except ValueError as exc:
        raise TrainingError(str(exc)) from exc

    pairs = PairIndex(labels, groups, k=params.ndcg_truncation, sigma=params.sigma)
    if not pairs.has_pairs:
        raise TrainingError("no query group has two distinct labels; nothing to rank")

    binned = bin_features(X, max_bins=params.max_bins)
    train_metric = GroupedNdcg(labels, groups, k=params.ndcg_truncation)
    if valid is not None:
        valid_metric = GroupedNdcg(valid[1], valid_groups, k=params.ndcg_truncation)

    scores = np.zeros(len(X), dtype=np.float64)
    trees: list[Tree] = []
    train_ndcg: list[float] = []
    # One sort of the training scores per round serves both the next
    # round's gradients and this round's logged NDCG.
    ranked = groups.rank_discounts(scores, params.ndcg_truncation)
    for t in range(params.num_trees):
        g, h = pairs.gradients(scores, n_threads=n_threads, ranked=ranked)
        rng = (
            np.random.default_rng(np.random.SeedSequence([params.seed, t]))
            if params.oblique
            else None
        )
        tree, row_values = grow_tree(binned, X, g, h, params, rng)
        trees.append(tree)
        scores += params.shrinkage * row_values
        ranked = groups.rank_discounts(scores, params.ndcg_truncation)
        train_ndcg.append(train_metric.mean(scores, ranked=ranked))

    valid_ndcg: list[float | None] = [None] * len(trees)
    if valid is not None:
        valid_scores = np.zeros(len(Xv), dtype=np.float64)
        # One forest pass per block of trees gives every tree's values;
        # adding them in round order repeats the per-round sums exactly.
        step = max(1, _VALID_ELEMENTS // max(len(Xv), 1))
        for lo in range(0, len(trees), step):
            values = _Forest.compile(trees[lo : lo + step], len(schema)).leaf_values(Xv)
            for t, row in enumerate(values, start=lo):
                valid_scores += params.shrinkage * row
                valid_ndcg[t] = valid_metric.mean(valid_scores)
    history = [
        RoundStats(round=t, train_ndcg=train_ndcg[t], valid_ndcg=valid_ndcg[t])
        for t in range(len(trees))
    ]

    model = Model(
        trees=tuple(trees),
        shrinkage=params.shrinkage,
        base_score=0.0,
        schema=schema,
        params=params,
    )
    return TrainResult(model=model, history=history)


def write_training_log(history: list[RoundStats], path: str) -> None:
    """One line per round: ``round<TAB>train_ndcg<TAB>valid_ndcg`` (nan if absent)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in history:
            valid = rec.valid_ndcg if rec.valid_ndcg is not None else float("nan")
            fh.write(f"{rec.round}\t{rec.train_ndcg:.6f}\t{valid:.6f}\n")
