import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from channelrank.gbdt.model import TrainParams, train
from channelrank.gbdt.serialize import (
    MODEL_FORMAT_VERSION,
    ModelFormatError,
    load_model,
    loads_model,
    model_fingerprint,
    save_model,
    serialize_model,
)
from tests.forest_oracle import to_nodes, walk_model
from tests.test_gbdt_model import generic_schema, ranking_problem


@pytest.fixture(scope="module")
def trained():
    X, labels, group_ids = ranking_problem(211, n_groups=14)
    params = TrainParams(num_trees=12, max_depth=4, min_examples_per_leaf=2, seed=2)
    return train(X, labels, group_ids, generic_schema(X.shape[1]), params).model


@pytest.fixture(scope="module")
def oblique_trained():
    X, labels, group_ids = ranking_problem(223, n_groups=10)
    params = TrainParams(
        num_trees=4, max_depth=3, min_examples_per_leaf=2,
        oblique=True, oblique_projections=8, oblique_sparsity=0.6, seed=9,
    )
    return train(X, labels, group_ids, generic_schema(X.shape[1]), params).model


def random_queries(n_features, n=1000, seed=77, nan_frac=0.15):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    X[rng.random(size=X.shape) < nan_frac] = np.nan
    return X


class TestRoundTrip:
    def test_bit_identical_scores_after_round_trip(self, trained):
        data = serialize_model(trained)
        restored = loads_model(data)
        Xq = random_queries(len(trained.schema))
        np.testing.assert_array_equal(
            trained.predict_matrix(Xq), restored.predict_matrix(Xq)
        )

    def test_file_round_trip(self, trained, tmp_path):
        path = tmp_path / "model.frm"
        save_model(trained, str(path))
        restored = load_model(str(path))
        Xq = random_queries(len(trained.schema), n=200, seed=5)
        np.testing.assert_array_equal(
            trained.predict_matrix(Xq), restored.predict_matrix(Xq)
        )
        assert restored.schema == trained.schema
        assert restored.params == trained.params

    def test_oblique_round_trip(self, oblique_trained):
        restored = loads_model(serialize_model(oblique_trained))
        Xq = random_queries(len(oblique_trained.schema), n=300, seed=6)
        np.testing.assert_array_equal(
            oblique_trained.predict_matrix(Xq), restored.predict_matrix(Xq)
        )

    def test_serialization_is_stable(self, trained):
        assert serialize_model(trained) == serialize_model(loads_model(serialize_model(trained)))

    def test_fingerprint_stable_and_distinct(self, trained, oblique_trained):
        assert model_fingerprint(trained) == model_fingerprint(
            loads_model(serialize_model(trained))
        )
        assert model_fingerprint(trained) != model_fingerprint(oblique_trained)


class TestCorruption:
    def test_truncated_payload_rejected(self, trained):
        data = serialize_model(trained)
        with pytest.raises(ModelFormatError):
            loads_model(data[: len(data) // 2])

    def test_flipped_byte_rejected(self, trained):
        data = bytearray(serialize_model(trained))
        # Flip a byte inside the payload region (after the header keys).
        idx = len(data) // 2
        data[idx] = ord("5") if data[idx] != ord("5") else ord("6")
        with pytest.raises(ModelFormatError):
            loads_model(bytes(data))

    def test_version_mismatch_rejected(self, trained):
        doc = json.loads(serialize_model(trained))
        doc["version"] = MODEL_FORMAT_VERSION + 1
        with pytest.raises(ModelFormatError, match="version"):
            loads_model(json.dumps(doc).encode())

    def test_bad_magic_rejected(self):
        with pytest.raises(ModelFormatError, match="magic"):
            loads_model(b'{"magic": "nope", "version": 1}')

    def test_non_json_rejected(self):
        with pytest.raises(ModelFormatError):
            loads_model(b"\x00\x01\x02binary-garbage")


def with_trees(model, trees, **fields):
    """A checksum-valid .frm of ``model`` with its tree records and ``fields`` replaced."""
    doc = json.loads(serialize_model(model))
    doc["model"].update(trees=trees, **fields)
    canonical = json.dumps(doc["model"], sort_keys=True, separators=(",", ":"))
    doc["sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return json.dumps(doc, sort_keys=True).encode("utf-8")


LEAF = ["L", 0.5, 3]


def axis(left, right):
    return ["A", 0, 0.25, True, left, right, 1.0]


class TestMalformedTrees:
    """Checksum-valid files whose node records are not the preorder layout."""

    def test_self_reference_rejected(self, trained):
        with pytest.raises(ModelFormatError, match="left child of node 0"):
            loads_model(with_trees(trained, [[axis(0, 2), LEAF, LEAF]]))

    def test_negative_child_rejected(self, trained):
        with pytest.raises(ModelFormatError, match="right child of node 0"):
            loads_model(with_trees(trained, [[axis(1, -1), LEAF, LEAF]]))

    def test_shared_child_rejected(self, trained):
        with pytest.raises(ModelFormatError, match="right child of node 0"):
            loads_model(with_trees(trained, [[axis(1, 1), LEAF]]))

    def test_unreached_record_rejected(self, trained):
        with pytest.raises(ModelFormatError, match="node record 3 is not reached"):
            loads_model(with_trees(trained, [[axis(1, 2), LEAF, LEAF, LEAF]]))

    @pytest.mark.parametrize(
        "records",
        [[], [axis(1, 2), LEAF], [["A", 0, 0.25]], [["X", 1]], [7]],
        ids=["empty", "missing-right", "short-record", "unknown-tag", "not-a-list"],
    )
    def test_incomplete_tree_rejected(self, trained, records):
        with pytest.raises(ModelFormatError):
            loads_model(with_trees(trained, [records]))

    def test_deep_chain_loads_without_recursion(self, trained):
        # A split chain deeper than the interpreter's recursion limit.
        depth = 5000
        records = [rec for d in range(depth) for rec in (axis(2 * d + 1, 2 * d + 2), LEAF)]
        model = loads_model(with_trees(trained, [records + [LEAF]]))
        assert model.trees[0].n_nodes() == 2 * depth + 1


def oblique(features, weights, threshold=0.25, left=1, right=2):
    return ["O", features, weights, threshold, False, left, right, 1.0]


class TestBadValues:
    """Checksum-valid files whose values would score wrong or fail."""

    @pytest.mark.parametrize(
        "records, message",
        [([["A", -1, 0.25, True, 1, 2, 1.0], LEAF, LEAF],
          "tree 1 node 0: feature -1 is outside the schema's [0, 5)"),
         ([["A", 5, 0.25, True, 1, 2, 1.0], LEAF, LEAF],
          "tree 1 node 0: feature 5 is outside the schema's [0, 5)"),
         ([axis(1, 2), LEAF, oblique([0, 7], [1.0, -1.0])],
          "tree 1 node 2: feature 7 is outside the schema's [0, 5)"),
         ([["A", 0, float("nan"), True, 1, 2, 1.0], LEAF, LEAF],
          "tree 1 node 0: threshold is NaN"),
         ([oblique([0, 1], [1.0, -1.0], float("nan")), LEAF, LEAF],
          "tree 1 node 0: threshold is NaN"),
         ([axis(1, 2), LEAF, ["L", float("inf"), 3]],
          "tree 1 node 2: leaf value inf is not finite"),
         ([axis(1, 2), ["L", float("nan"), 3], LEAF],
          "tree 1 node 1: leaf value nan is not finite"),
         ([oblique([0, 1], [1.0, float("-inf")]), LEAF, LEAF],
          "tree 1 node 0: oblique weights (1.0, -inf) are not finite"),
         ([oblique([0, 1], [1.0]), LEAF, LEAF],
          "tree 1 node 0: 2 features but 1 weights"),
         ([oblique([], []), LEAF, LEAF],
          "tree 1 node 0: an oblique split needs at least one feature"),
         ([axis(1, 2), ["L", 0.5, -1], LEAF],
          "tree 1 node 1: sample count -1 is out of range"),
         ([axis(1, 2), LEAF, ["L", 0.5, 2**63]],
          f"tree 1 node 2: sample count {2**63} is out of range")],
        ids=["feature-negative", "feature-past-schema", "oblique-feature-past-schema",
             "nan-threshold", "nan-oblique-threshold", "inf-leaf", "nan-leaf",
             "inf-weight", "weight-count", "oblique-no-features", "negative-samples",
             "samples-past-int64"],
    )
    def test_bad_node_names_tree_and_node(self, trained, records, message):
        assert len(trained.schema) == 5
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            loads_model(with_trees(trained, [[LEAF], records]))

    @pytest.mark.parametrize(
        "fields",
        [{"shrinkage": float("inf")}, {"shrinkage": float("nan")},
         {"base_score": float("-inf")}, {"base_score": float("nan")}],
        ids=["inf-shrinkage", "nan-shrinkage", "inf-base", "nan-base"],
    )
    def test_non_finite_scale_rejected(self, trained, fields):
        with pytest.raises(ModelFormatError, match="must be finite"):
            loads_model(with_trees(trained, [[LEAF]], **fields))

    def test_negative_seed_rejected(self, trained):
        params = {**dataclasses.asdict(trained.params), "seed": -1}
        with pytest.raises(ModelFormatError, match="seed must be >= 0, got -1"):
            loads_model(with_trees(trained, [[LEAF]], params=params))

    def test_infinite_thresholds_load_and_score(self, trained):
        records = [
            ["A", 0, float("-inf"), False, 1, 2, 1.0], LEAF,
            oblique([1, 2], [1.0, -1.0], float("inf"), 3, 4), ["L", -1.0, 1], ["L", 2.0, 1],
        ]
        model = loads_model(with_trees(trained, [records]))
        X = random_queries(5, n=200, seed=5)
        X[:20, 1] = np.inf
        np.testing.assert_array_equal(model.predict_matrix(X), walk_model(model, X))


class TestFieldTypes:
    """Checksum-valid files whose node fields have the wrong JSON type load as nothing."""

    @pytest.mark.parametrize(
        "records, message",
        [([["L", "0.5", 3]], "tree 1 node 0: leaf value '0.5' is not a number"),
         ([["L", True, 3]], "tree 1 node 0: leaf value True is not a number"),
         ([["L", 0.5, 3.0]], "tree 1 node 0: sample count 3.0 is not an integer"),
         ([["L", 0.5, True]], "tree 1 node 0: sample count True is not an integer"),
         ([["A", 1.7, 0.25, True, 1, 2, 1.0], LEAF, LEAF],
          "tree 1 node 0: feature 1.7 is not an integer"),
         ([["A", True, 0.25, True, 1, 2, 1.0], LEAF, LEAF],
          "tree 1 node 0: feature True is not an integer"),
         ([["A", 0, "0.25", True, 1, 2, 1.0], LEAF, LEAF],
          "tree 1 node 0: threshold '0.25' is not a number"),
         ([["A", 0, 0.25, "false", 1, 2, 1.0], LEAF, LEAF],
          "tree 1 node 0: missing_left 'false' is not true or false"),
         ([["A", 0, 0.25, 0, 1, 2, 1.0], LEAF, LEAF],
          "tree 1 node 0: missing_left 0 is not true or false"),
         ([["A", 0, 0.25, True, 1, 2, None], LEAF, LEAF],
          "tree 1 node 0: gain None is not a number"),
         ([["A", 0, 0.25, True, True, 2, 1.0], LEAF, LEAF],
          "tree 1 node 0: left child True is not an integer"),
         ([["A", 0, 0.25, True, 1, 2.0, 1.0], LEAF, LEAF],
          "tree 1 node 0: right child 2.0 is not an integer"),
         ([oblique([0, 1.0], [1.0, -1.0]), LEAF, LEAF],
          "tree 1 node 0: feature 1.0 is not an integer"),
         ([oblique("01", [1.0, -1.0]), LEAF, LEAF],
          "tree 1 node 0: features '01' is not a list"),
         ([oblique([0, 1], [1.0, "-1"]), LEAF, LEAF],
          "tree 1 node 0: weight '-1' is not a number"),
         ([oblique([0, 1], 1.0), LEAF, LEAF],
          "tree 1 node 0: weights 1.0 is not a list"),
         ([["O", [0, 1], [1.0, -1.0], [0.25], False, 1, 2, 1.0], LEAF, LEAF],
          "tree 1 node 0: threshold [0.25] is not a number"),
         ([["O", [0, 1], [1.0, -1.0], 0.25, None, 1, 2, 1.0], LEAF, LEAF],
          "tree 1 node 0: missing_left None is not true or false"),
         ([["O", [0, 1], [1.0, -1.0], 0.25, False, 1, 2, "1"], LEAF, LEAF],
          "tree 1 node 0: gain '1' is not a number"),
         ([axis(1, 2), LEAF, ["L", 10**400, 3]],
          "tree 1 node 2: leaf value " + str(10**400) + " is not finite")],
        ids=["leaf-value-string", "leaf-value-bool", "samples-float", "samples-bool",
             "feature-float", "feature-bool", "threshold-string", "missing-left-string",
             "missing-left-int", "gain-null", "left-child-bool", "right-child-float",
             "oblique-feature-float", "oblique-features-string", "weight-string",
             "weights-number", "oblique-threshold-list", "oblique-missing-left-null",
             "oblique-gain-string", "leaf-value-huge-int"],
    )
    def test_wrong_type_names_tree_and_node(self, trained, records, message):
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            loads_model(with_trees(trained, [[LEAF], records]))

    def test_integral_numbers_load_as_floats(self, trained):
        # JSON numbers without a fraction are still numbers.
        records = [["A", 0, 1, False, 1, 2, 0], ["L", 2, 3], ["L", -1, 4]]
        root = to_nodes(loads_model(with_trees(trained, [records])).trees[0])
        assert (root.threshold, root.gain) == (1.0, 0.0)
        assert (root.left.value, root.right.value) == (2.0, -1.0)
        assert isinstance(root.threshold, float)
