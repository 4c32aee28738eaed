"""Pinned fingerprints of models trained on a small world of their own.

Training speed-ups must leave every fitted model byte-identical. The
benchmark checks its own worlds; this second world (60 queries, seed 11)
checks an axis and an oblique model that no benchmark run trains, both
fitted with a validation set. The training log's last NDCG values are pinned
too, as are the models' scores on validation rows with NaN and infinite
cells, and so is a small ablation on the same world: its dataset, its three
models and its four variants' NDCG and purchase NDCG. A change to any value
below means a change to what labeling, training or evaluation computes.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from channelrank.core import TruncationConfig
from channelrank.dataset import ItemCatalog, build_dataset
from channelrank.evaluation import AblationConfig, ablation_run
from channelrank.gbdt.model import TrainParams, _Forest, train
from channelrank.gbdt.serialize import loads_model, model_fingerprint, serialize_model
from channelrank.gbdt.tree import Tree
from channelrank.synthgen import WorldConfig, filter_and_split, generate

CFG = WorldConfig(num_queries=60, seed=11)

AXIS_PARAMS = TrainParams(num_trees=6, max_depth=5, min_examples_per_leaf=3, seed=3)
OBLIQUE_PARAMS = TrainParams(
    num_trees=3, max_depth=4, min_examples_per_leaf=3, oblique=True, oblique_projections=8,
    seed=3,
)

#: ``model_fingerprint``, the last round's (train, valid) NDCG@8 and the
#: sha256 of ``predict_matrix`` on ``edge_rows`` of the validation matrix.
AXIS = (
    "59cd7ae4770c23e03a14f30cd03c560e279a13e9a9166fe3212cf12a851089f4",
    (0.8492642101959529, 0.7791831014675896),
    "f3961bf673453cd6a0982a4bdb780b90aa5c26957607c164f1d06f0dd39c82a4",
)
OBLIQUE = (
    "9573d5a6d1a62aad031bb7d6ede54e8e701de24cc1b31471090a0facf788dce4",
    (0.8000157262799241, 0.7555097029518704),
    "408c4209f4ce170aa711ef2e9284179ae6125cc96157228ef1006288d206c401",
)

#: ``Dataset.fingerprint()`` of the world's dataset.
DATASET = "b5a5de27add04e5b80f3c3ee6ea6b4c8c51310121c32a9713f736b4b45d8c6ab"

#: Per ablation variant: mean NDCG@8, ``model_fingerprint``, the last
#: logged training NDCG@8 (None for WI, which trains nothing) and the mean
#: purchase NDCG@8.
ABLATION = {
    "WI": (0.7003487294883615, None, None, 0.6216359157013726),
    "UR": (
        0.6789734009438353,
        "4fb09164799a9053dd7ee3b4b49f2bf828b08c8b5f8f2f8bdf4c868a5c7ef073",
        0.7516113561750499,
        0.6113528878868679,
    ),
    "UR+EF": (
        0.693280935680508,
        "bfb956626ed2af9a83c92c63896c0d611a5b84a43f550d8c12a73cb58dad0825",
        0.7609443952934306,
        0.6219081818185446,
    ),
    "UR+EF+CL": (
        0.6989542295220221,
        "343f7bab0ef55f7ae108abd190ce3ad1eb24024e300c091324fcfe65ca3d0ec5",
        0.7380052439265342,
        0.6504653346505206,
    ),
}


@pytest.fixture(scope="module")
def world_data():
    world = generate(CFG)
    split = filter_and_split(world.events, CFG.num_weeks)
    cat = world.ground_truth.catalog
    catalog = ItemCatalog(cat.item_vocab, cat.price, cat.category, cat.intro_week)
    trunc = TruncationConfig.uniform(world.channels, CFG.per_channel_n)
    ds = build_dataset(
        world.events, world.channel_lists, catalog, world.channels,
        split.all_keys(), trunc,
    )
    return world, split, ds


@pytest.fixture(scope="module")
def fit_inputs(world_data):
    _, split, ds = world_data
    tr = ds.mask_for(split.train)
    va = ds.mask_for(split.valid)
    labels = ds.labels("conversion")
    return (
        (ds.X[tr], labels[tr], ds.group_ids[tr], ds.schema),
        (ds.X[va], labels[va], ds.group_ids[va]),
    )


def edge_rows(X):
    """``X`` with a tenth of its cells NaN and a twentieth each +inf and -inf."""
    rng = np.random.default_rng(0)
    X = X.copy()
    u = rng.random(size=X.shape)
    X[u < 0.1] = np.nan
    X[(u >= 0.1) & (u < 0.15)] = np.inf
    X[(u >= 0.15) & (u < 0.2)] = -np.inf
    return X


@pytest.mark.parametrize(
    "params, expected",
    [(AXIS_PARAMS, AXIS), (OBLIQUE_PARAMS, OBLIQUE)],
    ids=["axis", "oblique"],
)
def test_second_world_model_fingerprint(fit_inputs, params, expected):
    (X, labels, group_ids, schema), valid = fit_inputs
    result = train(X, labels, group_ids, schema, params, valid=valid, n_threads=2)
    last = result.history[-1]
    scores = result.model.predict_matrix(edge_rows(valid[0]))
    assert (
        model_fingerprint(result.model),
        (last.train_ndcg, last.valid_ndcg),
        hashlib.sha256(scores.tobytes()).hexdigest(),
    ) == expected


def assert_same_arrays(a, b, fields):
    for name in fields:
        x, y = getattr(a, name), getattr(b, name)
        assert np.asarray(x).dtype == np.asarray(y).dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)


@pytest.mark.parametrize("params", [AXIS_PARAMS, OBLIQUE_PARAMS], ids=["axis", "oblique"])
def test_model_file_keeps_the_tree_arrays(fit_inputs, params):
    # A trained tree and its .frm round trip have one layout, field by
    # field, and so compile to one node table.
    (X, labels, group_ids, schema), valid = fit_inputs
    model = train(X, labels, group_ids, schema, params, valid=valid).model
    restored = loads_model(serialize_model(model))
    assert len(restored.trees) == len(model.trees)
    tree_fields = [f.name for f in dataclasses.fields(Tree)]
    for tree, back in zip(model.trees, restored.trees):
        assert_same_arrays(tree, back, tree_fields)
    table, back = (_Forest.compile(m.trees, len(schema)) for m in (model, restored))
    assert_same_arrays(table, back, [
        f.name for f in dataclasses.fields(_Forest) if f.name != "projections"
    ])
    assert len(table.projections) == len(back.projections) == int(params.oblique)
    for (feats, weights), (back_feats, back_weights) in zip(table.projections, back.projections):
        np.testing.assert_array_equal(feats, back_feats)
        np.testing.assert_array_equal(weights, back_weights)


def test_second_world_ablation(world_data):
    world, split, ds = world_data
    params = TrainParams(
        num_trees=4, shrinkage=0.15, max_depth=3, min_examples_per_leaf=5, seed=7
    )
    report = ablation_run(
        ds, world.channel_lists, split, AblationConfig(train_params=params, wi_seeds=3)
    )
    assert ds.fingerprint() == report.dataset_fingerprint == DATASET
    history = report.train_history
    assert {
        v.name: (
            v.mean_ndcg,
            v.model_fingerprint,
            history[v.name][-1] if v.name in history else None,
            v.mean_purchase_ndcg,
        )
        for v in report.variants
    } == ABLATION
