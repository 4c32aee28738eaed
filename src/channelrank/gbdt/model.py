"""Boosted ensemble training and prediction.

The model is an additive ensemble: score(x) = base_score + eta * sum_t
tree_t(x). Each round computes pairwise ranking gradients per query
group, fits one tree to them with second-order gains, and advances the
cumulative scores by the shrunken tree output. Training is deterministic
for a fixed seed and independent of the gradient worker thread count.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..features import FeatureSchema
from ..metrics import GroupedNdcg
from .lambdas import PairIndex
from .tree import (
    AxisSplit,
    Leaf,
    Node,
    ObliqueSplit,
    Tree,
    _GrowParams,
    bin_features,
    grow_tree,
)


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
        if self.l2 < 0.0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")
        if self.ndcg_truncation < 1:
            raise ValueError("ndcg_truncation must be >= 1")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.oblique_projections < 1:
            raise ValueError("oblique_projections must be >= 1")
        if not 0.0 < self.oblique_sparsity <= 1.0:
            raise ValueError("oblique_sparsity must be in (0, 1]")
        if not 1 <= self.max_bins <= 60000:
            raise ValueError("max_bins must be in [1, 60000]")


#: Rows per scoring chunk are capped so that one chunk's per-tree node
#: indices and derived columns, and each oblique-feature gather, stay
#: near this many elements.
_CHUNK_ELEMENTS = 1 << 16


@dataclass(slots=True)
class _Forest:
    """Every tree of a model flattened into one node table.

    Node ``i`` routes a row to ``child[2*i + go_right]``. A leaf's two
    children are the leaf itself, so every row takes exactly ``depth``
    branch-free steps and ends on its leaf. Oblique node ``k`` becomes an
    axis split on derived column ``F + k``, its projection; projections
    are computed per chunk, one batched product per group of nodes that
    share a feature count.
    """

    feature: np.ndarray
    threshold: np.ndarray
    missing_left: np.ndarray
    value: np.ndarray
    child: np.ndarray
    roots: np.ndarray
    depth: int
    n_features: int
    projections: list[tuple[np.ndarray, np.ndarray]]
    chunk: int

    @classmethod
    def compile(cls, trees: Sequence[Tree], n_features: int) -> _Forest:
        nodes: list[Node] = []
        child: list[int] = []

        def add(node: Node) -> int:
            idx = len(nodes)
            nodes.append(node)
            child.extend((idx, idx))
            if not isinstance(node, Leaf):
                child[2 * idx] = add(node.left)  # type: ignore[arg-type]
                child[2 * idx + 1] = add(node.right)  # type: ignore[arg-type]
            return idx

        roots = [add(tree.root) for tree in trees]
        feature = [node.feature if isinstance(node, AxisSplit) else 0 for node in nodes]
        by_width: dict[int, list[int]] = {}
        for idx, node in enumerate(nodes):
            if isinstance(node, ObliqueSplit):
                by_width.setdefault(len(node.features), []).append(idx)
        projections = []
        column = n_features
        for width in sorted(by_width):
            group = by_width[width]
            for idx in group:
                feature[idx] = column
                column += 1
            projections.append((
                np.array([nodes[idx].features for idx in group], dtype=np.intp),
                np.array([nodes[idx].weights for idx in group], dtype=np.float64),
            ))
        per_row = max(len(roots), column, 1)
        return cls(
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array([getattr(n, "threshold", 0.0) for n in nodes], dtype=np.float64),
            missing_left=np.array([getattr(n, "missing_left", False) for n in nodes], dtype=bool),
            value=np.array([getattr(n, "value", 0.0) for n in nodes], dtype=np.float64),
            child=np.array(child, dtype=np.intp),
            roots=np.array(roots, dtype=np.intp),
            depth=max((tree.depth() for tree in trees), default=0),
            n_features=n_features,
            projections=projections,
            chunk=max(1, _CHUNK_ELEMENTS // per_row),
        )

    def raw(self, X: np.ndarray) -> np.ndarray:
        """Sum of the trees' leaf values for each row of ``X``."""
        n = len(X)
        out = np.empty(n, dtype=np.float64)
        for lo in range(0, n, self.chunk):
            out[lo:lo + self.chunk] = self._block(X[lo:lo + self.chunk])
        return out

    def _columns(self, X: np.ndarray) -> np.ndarray:
        """``X`` plus one derived column per oblique node."""
        if not self.projections:
            return np.ascontiguousarray(X)
        width = self.n_features + sum(len(w) for _, w in self.projections)
        Z = np.empty((len(X), width), dtype=np.float64)
        Z[:, : self.n_features] = X
        column = self.n_features
        for feats, weights in self.projections:
            # Nodes go in blocks so each gather stays within the budget.
            block = max(1, _CHUNK_ELEMENTS // (len(X) * feats.shape[1]))
            for k in range(0, len(weights), block):
                # One matrix-vector product per node, exactly as a per-node
                # ``X[:, feats] @ w`` computes it; a dense ``X @ W.T`` or an
                # einsum rounds some projections differently. A NaN
                # projection (missing cell, or inf - inf) routes as missing.
                with np.errstate(invalid="ignore"):
                    z = np.matmul(
                        X[:, feats[k : k + block]].transpose(1, 0, 2),
                        weights[k : k + block, :, None],
                    )
                Z[:, column + k : column + k + len(z)] = z[:, :, 0].T
            column += len(weights)
        return Z

    def _block(self, X: np.ndarray) -> np.ndarray:
        Z = self._columns(X)
        n = len(Z)
        flat = Z.ravel()
        row_base = np.arange(n, dtype=np.intp)[:, None] * Z.shape[1]
        cur = np.broadcast_to(self.roots, (n, len(self.roots))).copy()
        for _ in range(self.depth):
            x = flat.take(row_base + self.feature.take(cur))
            go_left = (x < self.threshold.take(cur)) | (
                np.isnan(x) & self.missing_left.take(cur)
            )
            cur = self.child.take(2 * cur + ~go_left)
        values = self.value.take(cur)
        if not self.projections:
            return values.sum(axis=1)
        # Oblique models have always summed tree by tree and axis-only
        # ones pairwise along the row; each keeps its order, so a saved
        # model scores bit-identically to earlier releases.
        out = np.zeros(n, dtype=np.float64)
        for column in values.T:
            out += column
        return out


@dataclass(slots=True)
class Model:
    """Trained ensemble plus everything needed to score a feature vector."""

    trees: tuple[Tree, ...]
    shrinkage: float
    base_score: float
    schema: FeatureSchema
    params: TrainParams
    format_version: int = 1
    _forest: _Forest | None = field(default=None, init=False, repr=False, compare=False)

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Scores for a feature matrix aligned to the model schema."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.schema):
            raise ValueError(
                f"feature matrix must be (n, {len(self.schema)}), got {X.shape}"
            )
        if self._forest is None:
            self._forest = _Forest.compile(self.trees, len(self.schema))
        return self.base_score + self.shrinkage * self._forest.raw(X)

    def predict(self, features: np.ndarray) -> float:
        """Score one feature vector (missing cells as NaN)."""
        features = np.asarray(features, dtype=np.float64)
        if features.shape != (len(self.schema),):
            raise ValueError(
                f"feature vector must have length {len(self.schema)}, got {features.shape}"
            )
        return float(self.predict_matrix(features[None, :])[0])


@dataclass(frozen=True, slots=True)
class RoundStats:
    round: int
    train_ndcg: float
    valid_ndcg: float | None


@dataclass(slots=True)
class TrainResult:
    model: Model
    history: list[RoundStats]


def _check_groups_contiguous(group_ids: np.ndarray) -> None:
    seen: set = set()
    prev = None
    for gid in group_ids:
        if gid != prev:
            if gid in seen:
                raise TrainingError("group ids must occupy contiguous index ranges")
            seen.add(gid)
            prev = gid


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
        Graded relevance per row (normalized labels in [0, 4]).
    group_ids
        Query-group key per row; rows of one group must be contiguous and
        ordered by the desired tie-break (item id ascending).
    valid
        Optional (X_valid, labels_valid, group_ids_valid) evaluated each
        round for the training log.
    n_threads
        Gradient workers; an execution knob, never part of the model.
        Any value yields bit-identical models.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    group_ids = np.asarray(group_ids)
    if len(X) == 0:
        raise TrainingError("empty training set")
    if not (len(X) == len(labels) == len(group_ids)):
        raise TrainingError("X, labels and group_ids must align")
    if X.shape[1] != len(schema):
        raise TrainingError(
            f"feature matrix has {X.shape[1]} columns, schema expects {len(schema)}"
        )
    _check_groups_contiguous(group_ids)

    pairs = PairIndex(labels, group_ids, k=params.ndcg_truncation, sigma=params.sigma)
    if not pairs.has_pairs:
        raise TrainingError("no query group has two distinct labels; nothing to rank")

    binned = bin_features(X, max_bins=params.max_bins)
    grow = _GrowParams(
        max_depth=params.max_depth,
        min_leaf=params.min_examples_per_leaf,
        l2=params.l2,
        oblique=params.oblique,
        oblique_projections=params.oblique_projections,
        oblique_sparsity=params.oblique_sparsity,
        max_bins=params.max_bins,
    )
    train_metric = GroupedNdcg(labels, group_ids, k=params.ndcg_truncation)
    valid_metric = None
    if valid is not None:
        Xv = np.asarray(valid[0], dtype=np.float64)
        valid_metric = GroupedNdcg(valid[1], valid[2], k=params.ndcg_truncation)
        valid_scores = np.zeros(len(Xv), dtype=np.float64)

    scores = np.zeros(len(X), dtype=np.float64)
    trees: list[Tree] = []
    history: list[RoundStats] = []
    for t in range(params.num_trees):
        g, h = pairs.gradients(scores, n_threads=n_threads)
        rng = (
            np.random.default_rng(np.random.SeedSequence([params.seed, t]))
            if params.oblique
            else None
        )
        tree, row_values = grow_tree(binned, X, g, h, grow, rng)
        trees.append(tree)
        scores += params.shrinkage * row_values
        valid_ndcg = None
        if valid_metric is not None:
            valid_scores += params.shrinkage * tree.predict_matrix(Xv)
            valid_ndcg = valid_metric.mean(valid_scores)
        history.append(
            RoundStats(round=t, train_ndcg=train_metric.mean(scores), valid_ndcg=valid_ndcg)
        )

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
