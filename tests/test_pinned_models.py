"""Pinned fingerprints of models trained on a small world of their own.

Training speed-ups must leave every fitted model byte-identical. The
benchmark checks its own worlds; this second world (60 queries, seed 11)
checks an axis and an oblique model that no benchmark run trains, both
fitted with a validation set. The training log's last NDCG values are pinned
too. A change to any value below means a change to what training computes.
"""

from __future__ import annotations

import pytest

from channelrank.core import TruncationConfig
from channelrank.dataset import ItemCatalog, build_dataset
from channelrank.gbdt.model import TrainParams, train
from channelrank.gbdt.serialize import model_fingerprint
from channelrank.synthgen import WorldConfig, filter_and_split, generate

CFG = WorldConfig(num_queries=60, seed=11)

#: ``model_fingerprint`` and the last round's (train, valid) NDCG@8.
AXIS = (
    "59cd7ae4770c23e03a14f30cd03c560e279a13e9a9166fe3212cf12a851089f4",
    (0.8492642101959529, 0.7791831014675896),
)
OBLIQUE = (
    "9573d5a6d1a62aad031bb7d6ede54e8e701de24cc1b31471090a0facf788dce4",
    (0.8000157262799241, 0.7555097029518704),
)


@pytest.fixture(scope="module")
def fit_inputs():
    world = generate(CFG)
    split = filter_and_split(world.events, CFG.num_weeks)
    cat = world.ground_truth.catalog
    catalog = ItemCatalog(cat.item_vocab, cat.price, cat.category, cat.intro_week)
    trunc = TruncationConfig.uniform(world.channels, CFG.per_channel_n)
    ds = build_dataset(
        world.events, world.channel_lists, catalog, world.channels,
        split.all_keys(), trunc,
    )
    tr = ds.mask_for(split.train)
    va = ds.mask_for(split.valid)
    labels = ds.labels("conversion")
    return (
        (ds.X[tr], labels[tr], ds.group_ids[tr], ds.schema),
        (ds.X[va], labels[va], ds.group_ids[va]),
    )


@pytest.mark.parametrize(
    "params, expected",
    [
        (TrainParams(num_trees=6, max_depth=5, min_examples_per_leaf=3, seed=3),
         AXIS),
        (TrainParams(num_trees=3, max_depth=4, min_examples_per_leaf=3, oblique=True,
                     oblique_projections=8, seed=3),
         OBLIQUE),
    ],
    ids=["axis", "oblique"],
)
def test_second_world_model_fingerprint(fit_inputs, params, expected):
    (X, labels, group_ids, schema), valid = fit_inputs
    result = train(X, labels, group_ids, schema, params, valid=valid, n_threads=2)
    last = result.history[-1]
    assert (model_fingerprint(result.model), (last.train_ndcg, last.valid_ndcg)) == expected
