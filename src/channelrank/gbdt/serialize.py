"""Model file format (.frm): canonical JSON with an integrity checksum.

Layout (documented contract):

* UTF-8 JSON object with exactly four keys: ``magic`` ("frm"),
  ``version`` (integer), ``sha256`` (hex digest), ``model`` (payload).
* The digest covers the canonical serialization of ``model``:
  ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``.
* Floats are written with ``repr`` round-trip precision, so a load
  reproduces every threshold, weight and leaf value bit-exactly.
* ``model`` holds ``base_score``, ``shrinkage``, the feature schema, the
  training params, and one record per tree. Trees are flattened in
  preorder; each node is either ``["L", value, n]`` (leaf),
  ``["A", feature, threshold, missing_left, left_idx, right_idx, gain]``
  (axis split) or ``["O", features, weights, threshold, missing_left,
  left_idx, right_idx, gain]`` (oblique split), with child fields
  indexing into the same node list. A split's left child is the next
  record and its right child follows the left subtree; every record is
  reached exactly once.

Any checksum, magic, version, or structural mismatch raises
:class:`ModelFormatError`; no partially constructed model escapes. So
does a node field of the wrong JSON type (``true`` or ``1.7`` as a
feature index, ``"false"`` as ``missing_left``, a string as a number),
and a value that would score wrong: a feature index outside the schema,
a NaN threshold, an oblique split without features, a sample count
outside ``[0, 2**63)``, or a non-finite leaf value, oblique weight,
shrinkage or base score. Thresholds of ``±inf`` are legal. A loaded tree
is renumbered into :class:`Tree`'s breadth-first node arrays.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

from ..features import FeatureSchema
from .model import Model, TrainParams
from .tree import Tree, breadth_first, node_record

MODEL_FORMAT_VERSION = 1
_MAGIC = "frm"


class ModelFormatError(ValueError):
    """Raised for unreadable, corrupt, or version-incompatible model files."""


def _flatten_tree(tree: Tree) -> list[list]:
    """The tree's node records in preorder (see the module docstring)."""
    left, feature, threshold, missing_left, gain, value, n_samples, start, features, weights = (
        getattr(tree, field.name).tolist() for field in dataclasses.fields(tree)
    )
    records: list[list] = []
    stack: list[tuple[int, list | None]] = [(0, None)]  # a node, and its parent if a right child
    while stack:
        i, parent = stack.pop()
        if parent is not None:
            parent[-2] = len(records)
        if left[i] == i:
            records.append(["L", value[i], n_samples[i]])
            continue
        split = [threshold[i], missing_left[i], len(records) + 1, None, gain[i]]
        ragged = slice(start[i], start[i + 1])
        head = ["A", feature[i]] if feature[i] >= 0 else ["O", features[ragged], weights[ragged]]
        records.append(head + split)
        stack += ((left[i] + 1, records[-1]), (left[i], None))
    return records


def _integer(value: object, what: str, where: str) -> int:
    if type(value) is not int:  # a JSON true or 1.0 is not an index or a count
        raise ModelFormatError(f"{where}: {what} {value!r} is not an integer")
    return value


def _flag(value: object, what: str, where: str) -> bool:
    if not isinstance(value, bool):
        raise ModelFormatError(f"{where}: {what} {value!r} is not true or false")
    return value


def _number(value: object, what: str, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{where}: {what} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ModelFormatError(f"{where}: {what} {value} is not finite") from None


def _array(value: object, what: str, where: str) -> list:
    if not isinstance(value, list):
        raise ModelFormatError(f"{where}: {what} {value!r} is not a list")
    return value


def _node(
    rec: object, where: str, n_features: int
) -> tuple[tuple, tuple[int, int] | None]:
    """One record as a :func:`node_record`, with its declared (left, right) children if a split.

    Every field must have its stated JSON type: integers (not ``true``,
    not ``1.0``) for feature indices, sample counts and children, ``true``
    or ``false`` for ``missing_left``, and numbers for thresholds, gains,
    leaf values and weights. A record that would load and then score
    wrong or fail is rejected too: a feature outside the schema, a NaN
    threshold (``±inf`` is fine), a leaf value or oblique weight that is
    not finite, a sample count an int64 cannot hold or below 0, or an
    oblique node without features or without one weight per feature.
    """
    tag = rec[0] if isinstance(rec, list) and rec else None
    if tag == "L" and len(rec) == 3:
        value = _number(rec[1], "leaf value", where)
        n_samples = _integer(rec[2], "sample count", where)
        if not math.isfinite(value):
            raise ModelFormatError(f"{where}: leaf value {value} is not finite")
        if not 0 <= n_samples < 2**63:  # an int64 array holds it
            raise ModelFormatError(f"{where}: sample count {n_samples} is out of range")
        return node_record(value=value, n_samples=n_samples), None
    if tag == "A" and len(rec) == 7:
        feature = _integer(rec[1], "feature", where)
        features: tuple[int, ...] = (feature,)
    elif tag == "O" and len(rec) == 8:
        feature = -1
        features = tuple(
            _integer(f, "feature", where) for f in _array(rec[1], "features", where)
        )
        weights = tuple(_number(w, "weight", where) for w in _array(rec[2], "weights", where))
    else:
        raise ModelFormatError(f"{where} is not a leaf, axis or oblique record")
    # Both split records end with threshold, missing_left, left, right, gain.
    threshold = _number(rec[-5], "threshold", where)
    missing_left = _flag(rec[-4], "missing_left", where)
    gain = _number(rec[-1], "gain", where)
    if tag == "O":
        if not features:
            raise ModelFormatError(f"{where}: an oblique split needs at least one feature")
        if len(weights) != len(features):
            raise ModelFormatError(
                f"{where}: {len(features)} features but {len(weights)} weights"
            )
        if not all(math.isfinite(w) for w in weights):
            raise ModelFormatError(f"{where}: oblique weights {weights} are not finite")
    for f in features:
        if not 0 <= f < n_features:
            raise ModelFormatError(
                f"{where}: feature {f} is outside the schema's [0, {n_features})"
            )
    if math.isnan(threshold):
        raise ModelFormatError(f"{where}: threshold is NaN")
    oblique = (features, weights) if tag == "O" else ((), ())
    return node_record(feature, threshold, missing_left, gain, 0.0, 0, *oblique), (
        _integer(rec[-3], "left child", where), _integer(rec[-2], "right child", where)
    )


def _rebuild_tree(records: list, tree: int, n_features: int) -> Tree:
    """Tree number ``tree`` from its records, in the preorder layout ``_flatten_tree`` writes.

    Records are read in order, without recursion; any other layout (a
    child that is not the next node of the walk, a record no split
    reaches, a split cut off by the end of the list) is rejected, and so
    is any record :func:`_node` rejects. The preorder is then renumbered
    breadth-first, as :class:`Tree` holds its nodes.
    """
    if not isinstance(records, list) or not records:
        raise ModelFormatError(f"tree {tree}: a tree needs at least one node record")
    nodes = []
    child = [[idx, idx] for idx in range(len(records))]  # a leaf's children are itself
    # Splits whose right subtree is still to come: position, declared start.
    pending: list[tuple[int, int]] = []
    open_slot = True  # whether some split, or the root, takes record idx
    for idx, rec in enumerate(records):
        if not open_slot:
            raise ModelFormatError(f"tree {tree}: node record {idx} is not reached from the root")
        node, children = _node(rec, f"tree {tree} node {idx}", n_features)
        nodes.append(node)
        if children is not None:
            if children[0] != idx + 1:
                raise ModelFormatError(
                    f"tree {tree}: left child of node {idx} is not node {idx + 1}"
                )
            pending.append((idx, children[1]))
            child[idx] = children  # the right child is checked when it is reached
        elif pending:
            at, right = pending.pop()
            if right != idx + 1:
                raise ModelFormatError(
                    f"tree {tree}: right child of node {at} is not node {idx + 1}"
                )
        else:
            open_slot = False
    if open_slot:
        raise ModelFormatError(f"tree {tree}: records end before every split has two children")
    order, left, _ = breadth_first(np.array(child), np.zeros(1, dtype=np.intp))
    return Tree.from_records(left, [nodes[i] for i in order.tolist()])


def _payload(model: Model) -> dict:
    return {
        "base_score": model.base_score,
        "shrinkage": model.shrinkage,
        "schema": model.schema.records(),
        "params": dataclasses.asdict(model.params),
        "trees": [_flatten_tree(tree) for tree in model.trees],
    }


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def model_fingerprint(model: Model) -> str:
    """sha256 over the canonical payload; stable id for a trained model."""
    return hashlib.sha256(_canonical(_payload(model)).encode("utf-8")).hexdigest()


def serialize_model(model: Model) -> bytes:
    payload = _payload(model)
    canonical = _canonical(payload)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    doc = {
        "magic": _MAGIC,
        "version": MODEL_FORMAT_VERSION,
        "sha256": digest,
        "model": payload,
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def loads_model(data: bytes) -> Model:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"unreadable model payload: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("magic") != _MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    version = doc.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format version {version!r} (expected {MODEL_FORMAT_VERSION})"
        )
    payload = doc.get("model")
    if not isinstance(payload, dict):
        raise ModelFormatError("missing model payload")
    digest = hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()
    if digest != doc.get("sha256"):
        raise ModelFormatError("checksum mismatch; model file is corrupt")
    try:
        schema = FeatureSchema.from_records(payload["schema"])
        params = TrainParams(**payload["params"])
        trees = tuple(
            _rebuild_tree(records, t, len(schema))
            for t, records in enumerate(payload["trees"])
        )
        shrinkage = float(payload["shrinkage"])
        base_score = float(payload["base_score"])
        if not (math.isfinite(shrinkage) and math.isfinite(base_score)):
            raise ModelFormatError(
                f"shrinkage {shrinkage} and base_score {base_score} must be finite"
            )
        return Model(
            trees=trees,
            shrinkage=shrinkage,
            base_score=base_score,
            schema=schema,
            params=params,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"malformed model payload: {exc}") from exc


def save_model(model: Model, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


def load_model(path: str) -> Model:
    with open(path, "rb") as fh:
        return loads_model(fh.read())
