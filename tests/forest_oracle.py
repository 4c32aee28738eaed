"""Reference tree walks that the compiled forest scorer is tested against.

``walk_tree`` descends one tree by recursive index partitioning and
projects each oblique node over just the rows that reach it;
``walk_row`` follows one row node by node in plain Python.
"""

from __future__ import annotations

import math

import numpy as np

from channelrank.gbdt.tree import AxisSplit, Leaf, Node, ObliqueSplit, Tree


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

    descend(tree.root, np.arange(len(X)))
    return out


def walk_row(tree: Tree, x: np.ndarray) -> float:
    """One row's leaf value, one node at a time."""
    node = tree.root
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

    return any_oblique(tree.root)


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
