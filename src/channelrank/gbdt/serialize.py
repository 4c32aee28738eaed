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
a NaN threshold, or a non-finite leaf value, oblique weight, shrinkage
or base score. Thresholds of ``±inf`` are legal.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

from ..features import FeatureSchema
from .model import Model, TrainParams
from .tree import AxisSplit, Leaf, Node, ObliqueSplit, Tree

MODEL_FORMAT_VERSION = 1
_MAGIC = "frm"


class ModelFormatError(ValueError):
    """Raised for unreadable, corrupt, or version-incompatible model files."""


def _flatten_tree(tree: Tree) -> list[list]:
    nodes, children = tree.preorder()
    records: list[list] = []
    for node, (left, right) in zip(nodes, children):
        if isinstance(node, Leaf):
            records.append(["L", node.value, node.n_samples])
        elif isinstance(node, AxisSplit):
            records.append([
                "A", node.feature, node.threshold, node.missing_left, left, right, node.gain,
            ])
        else:
            records.append([
                "O", list(node.features), list(node.weights), node.threshold,
                node.missing_left, left, right, node.gain,
            ])
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
) -> tuple[Node, tuple[int, int] | None]:
    """One record as a node, with its declared (left, right) children if a split.

    Every field must have its stated JSON type: integers (not ``true``,
    not ``1.0``) for feature indices, sample counts and children, ``true``
    or ``false`` for ``missing_left``, and numbers for thresholds, gains,
    leaf values and weights. A record that would load and then score
    wrong or fail is rejected too: a feature outside the schema, a NaN
    threshold (``±inf`` is fine), a leaf value or oblique weight that is
    not finite, or an oblique node without one weight per feature.
    """
    tag = rec[0] if isinstance(rec, list) and rec else None
    if tag == "L" and len(rec) == 3:
        leaf = Leaf(
            value=_number(rec[1], "leaf value", where),
            n_samples=_integer(rec[2], "sample count", where),
        )
        if not math.isfinite(leaf.value):
            raise ModelFormatError(f"{where}: leaf value {leaf.value} is not finite")
        return leaf, None
    if tag == "A" and len(rec) == 7:
        split: AxisSplit | ObliqueSplit = AxisSplit(
            feature=_integer(rec[1], "feature", where),
            threshold=_number(rec[2], "threshold", where),
            missing_left=_flag(rec[3], "missing_left", where),
            gain=_number(rec[6], "gain", where),
        )
        features: tuple[int, ...] = (split.feature,)
        children = (rec[4], rec[5])
    elif tag == "O" and len(rec) == 8:
        split = ObliqueSplit(
            features=tuple(
                _integer(f, "feature", where) for f in _array(rec[1], "features", where)
            ),
            weights=tuple(
                _number(w, "weight", where) for w in _array(rec[2], "weights", where)
            ),
            threshold=_number(rec[3], "threshold", where),
            missing_left=_flag(rec[4], "missing_left", where),
            gain=_number(rec[7], "gain", where),
        )
        features = split.features
        if len(split.weights) != len(features):
            raise ModelFormatError(
                f"{where}: {len(features)} features but {len(split.weights)} weights"
            )
        if not all(math.isfinite(w) for w in split.weights):
            raise ModelFormatError(f"{where}: oblique weights {split.weights} are not finite")
        children = (rec[5], rec[6])
    else:
        raise ModelFormatError(f"{where} is not a leaf, axis or oblique record")
    for f in features:
        if not 0 <= f < n_features:
            raise ModelFormatError(
                f"{where}: feature {f} is outside the schema's [0, {n_features})"
            )
    if math.isnan(split.threshold):
        raise ModelFormatError(f"{where}: threshold is NaN")
    return split, (_integer(children[0], "left child", where),
                   _integer(children[1], "right child", where))


def _rebuild_tree(records: list, tree: int, n_features: int) -> Tree:
    """Tree number ``tree`` from its records, in the preorder layout ``_flatten_tree`` writes.

    Records are read in order, without recursion; any other layout (a
    child that is not the next node of the walk, a record no split
    reaches, a split cut off by the end of the list) is rejected, and so
    is any record :func:`_node` rejects.
    """
    if not isinstance(records, list) or not records:
        raise ModelFormatError(f"tree {tree}: a tree needs at least one node record")
    root: Node | None = None
    # Splits whose right subtree is still to come: split, position, declared start.
    pending: list[tuple[AxisSplit | ObliqueSplit, int, int]] = []
    slot: tuple[AxisSplit | ObliqueSplit, str] | None = None  # where record idx hangs
    for idx, rec in enumerate(records):
        if idx and slot is None:
            raise ModelFormatError(f"tree {tree}: node record {idx} is not reached from the root")
        node, children = _node(rec, f"tree {tree} node {idx}", n_features)
        if slot is None:
            root = node
        else:
            setattr(slot[0], slot[1], node)
        if children is not None:
            if children[0] != idx + 1:
                raise ModelFormatError(
                    f"tree {tree}: left child of node {idx} is not node {idx + 1}"
                )
            pending.append((node, idx, children[1]))
            slot = (node, "left")
        elif pending:
            split, at, right = pending.pop()
            if right != idx + 1:
                raise ModelFormatError(
                    f"tree {tree}: right child of node {at} is not node {idx + 1}"
                )
            slot = (split, "right")
        else:
            slot = None
    if slot is not None:
        raise ModelFormatError(
            f"tree {tree}: records end before every split has two children"
        )
    return Tree(root=root)


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
