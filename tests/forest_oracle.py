"""Node-object trees, and the reference walks the compiled forest scorer is tested against.

``Leaf``, ``AxisSplit`` and ``ObliqueSplit`` are linked node objects,
the shape hand-made test trees are written in. ``to_tree`` turns one into
the breadth-first array ``Tree`` the package uses, and ``to_nodes`` turns
an array ``Tree`` back. ``walk_tree`` descends one tree by recursive
index partitioning and projects each oblique node over just the rows that
reach it; ``walk_row`` follows one row node by node in plain Python.
``upfront_columns`` projects every oblique column of a compiled forest
over a whole chunk, as the forest did before it projected only reached
nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from channelrank.gbdt.tree import Tree, node_record


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


def to_tree(root: Node) -> Tree:
    """The array ``Tree`` of a node-object tree, numbered breadth-first."""
    nodes = [root]
    left = []
    records = []
    for i, node in enumerate(nodes):  # nodes grows as splits are met
        if isinstance(node, Leaf):
            left.append(i)
            records.append(node_record(value=node.value, n_samples=node.n_samples))
            continue
        left.append(len(nodes))
        nodes += [node.left, node.right]
        if isinstance(node, AxisSplit):
            records.append(node_record(node.feature, node.threshold, node.missing_left, node.gain))
        else:
            records.append(node_record(
                threshold=node.threshold, missing_left=node.missing_left, gain=node.gain,
                features=node.features, weights=node.weights,
            ))
    return Tree.from_records(left, records)


def split_of(record: tuple) -> AxisSplit | ObliqueSplit:
    """The unlinked split node of a split's ``node_record``."""
    feature, threshold, missing_left, gain, _, _, features, weights = record
    if feature >= 0:
        return AxisSplit(int(feature), float(threshold), bool(missing_left), float(gain))
    return ObliqueSplit(
        tuple(int(f) for f in features), tuple(float(w) for w in weights),
        float(threshold), bool(missing_left), float(gain),
    )


def to_nodes(tree: Tree) -> Node:
    """The root of an array ``Tree`` as linked node objects."""
    left = tree.left.tolist()
    start = tree.oblique_start.tolist()
    nodes: list[Node] = []
    for i in range(len(left)):
        if left[i] == i:
            nodes.append(Leaf(float(tree.value[i]), int(tree.n_samples[i])))
            continue
        ragged = slice(start[i], start[i + 1])
        nodes.append(split_of(node_record(
            tree.feature[i], tree.threshold[i], tree.missing_left[i], tree.gain[i],
            features=tree.oblique_feature[ragged], weights=tree.oblique_weight[ragged],
        )))
    for i, node in enumerate(nodes):
        if left[i] != i:
            node.left, node.right = nodes[left[i]], nodes[left[i] + 1]
    return nodes[0]


def preorder(root: Node) -> list[Node]:
    """Nodes in preorder, without recursion."""
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, Leaf):
            stack += (node.right, node.left)
    return nodes


def leaves(tree: Tree) -> list[Leaf]:
    """The tree's leaves, in preorder."""
    return [node for node in preorder(to_nodes(tree)) if isinstance(node, Leaf)]


def depth(tree: Tree) -> int:
    """Edges from the root to the deepest leaf."""
    left = tree.left.tolist()
    level = [0] * len(left)
    for i, child in enumerate(left):  # parents come before their children
        if child != i:
            level[child] = level[child + 1] = level[i] + 1
    return max(level)




def walk_tree(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Each row's leaf value, by recursive index partitioning."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(len(X), dtype=np.float64)

    def descend(node: Node, idx: np.ndarray) -> None:
        if isinstance(node, Leaf):
            out[idx] = node.value
            return
        if isinstance(node, AxisSplit):
            v = X[idx, node.feature]
        else:
            with np.errstate(invalid="ignore"):
                v = X[idx][:, list(node.features)] @ np.asarray(node.weights)
        left = np.where(np.isnan(v), node.missing_left, v < node.threshold)
        descend(node.left, idx[left])
        descend(node.right, idx[~left])

    descend(to_nodes(tree), np.arange(len(X)))
    return out


def walk_row(tree: Tree, x: np.ndarray) -> float:
    """One row's leaf value, one node at a time."""
    node = to_nodes(tree)
    while not isinstance(node, Leaf):
        if isinstance(node, AxisSplit):
            v = float(x[node.feature])
        else:
            v = 0.0
            for f, w in zip(node.features, node.weights):
                v += w * float(x[f])
        go_left = node.missing_left if math.isnan(v) else v < node.threshold
        node = node.left if go_left else node.right
    return node.value


def has_oblique(tree: Tree) -> bool:
    def any_oblique(node: Node) -> bool:
        if isinstance(node, Leaf):
            return False
        return (
            isinstance(node, ObliqueSplit)
            or any_oblique(node.left)
            or any_oblique(node.right)
        )

    return any_oblique(to_nodes(tree))


def walk_model(model, X: np.ndarray) -> np.ndarray:
    """Model scores from per-tree walks, trees summed in the documented order.

    Axis-only models sum each row's tree values pairwise along the row
    (``sum(axis=1)``); a model with any oblique node sums tree by tree.
    """
    per_tree = np.stack([walk_tree(tree, X) for tree in model.trees], axis=1)
    if any(has_oblique(tree) for tree in model.trees):
        raw = np.zeros(len(per_tree), dtype=np.float64)
        for column in per_tree.T:
            raw += column
    else:
        raw = per_tree.sum(axis=1)
    return model.base_score + model.shrinkage * raw


def upfront_columns(forest, X: np.ndarray) -> np.ndarray:
    """The ``(width, len(X))`` workspace with every oblique column projected before any walk.

    ``X`` is at most one chunk. This is how the compiled forest filled its
    workspace before it projected a node only when a row reached it:
    ``X.T``, ``-X.T``, then each feature count's nodes in blocks, one
    matrix-vector product per node over all of ``X``'s rows, written
    straight into a ``(width, chunk)`` workspace.
    """
    n = len(X)
    F = forest.n_features
    ZT = np.full((forest.width, forest.chunk), np.nan)
    ZT[:F, :n] = X.T
    np.negative(X.T, out=ZT[F : 2 * F, :n])
    column = 2 * F
    for feats, weights in forest.projections:
        block = max(1, (1 << 16) // (2 * n * feats.shape[1]))
        for k in range(0, len(weights), block):
            hi = min(k + block, len(weights))
            with np.errstate(invalid="ignore"):
                np.matmul(
                    ZT[feats[k:hi], :n].transpose(0, 2, 1),
                    weights[k:hi, :, None],
                    out=ZT[column + k : column + hi, :n, None],
                )
        column += len(weights)
    return ZT[:, :n]
