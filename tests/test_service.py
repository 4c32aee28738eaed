import http.client
import json
import logging
import re
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from channelrank.core import TruncationConfig, truncate
from channelrank.dataset import build_dataset, item_count_table
from channelrank.features import item_feature_block
from channelrank.gbdt import model as gbdt_model
from channelrank.gbdt.model import Model, TrainParams, train
from channelrank.gbdt.serialize import MODEL_FORMAT_VERSION, load_model, save_model
from channelrank.service import (
    DEFAULT_POOL_CAP,
    MAX_BODY_BYTES,
    ItemFeatureTable,
    ScoreService,
    ServiceError,
    bench,
    make_server,
    synth_requests,
    write_item_features,
)
from channelrank.synthgen import WorldConfig, filter_and_split, generate
from tests.forest_oracle import Leaf, has_oblique, to_tree

CFG = WorldConfig(
    num_queries=40, num_items=400, universe_size=20, per_channel_n=10,
    sessions_mean=25.0, seed=5,
)


@pytest.fixture(scope="module")
def trained_world():
    world = generate(CFG)
    split = filter_and_split(world.events, CFG.num_weeks)
    catalog = world.ground_truth.catalog
    trunc = TruncationConfig.uniform(world.channels, CFG.per_channel_n)
    data = build_dataset(
        world.events, world.channel_lists, catalog, world.channels,
        split.all_keys(), trunc,
    )
    train_mask = data.mask_for(split.train)
    params = TrainParams(num_trees=30, shrinkage=0.2, max_depth=4,
                         min_examples_per_leaf=5, seed=1)
    model = train(
        data.X[train_mask], data.labels_conversion[train_mask],
        data.group_ids[train_mask], data.schema, params,
    ).model
    return world, data, model


@pytest.fixture(scope="module")
def service(trained_world):
    _, _, model = trained_world
    return ScoreService(model)


def simple_request(items0=(("A", 0.9), ("B", 0.5)), items1=(("B", 0.8), ("C", 0.2))):
    return {
        "query": "q1",
        "channels": [
            {"name": "lexical", "entries": [list(p) for p in items0]},
            {"name": "semantic", "entries": [list(p) for p in items1]},
        ],
    }


# Each entry is sent as the lexical channel's second entry; each must be a 400.
BAD_ENTRIES = pytest.mark.parametrize(
    "entry",
    [[None, 0.5], [5, 0.5], ["", 0.5], [["B"], 0.5], ["B", True], ["B", "0.5"],
     ["B", None], ["B", [0.5]], ["B", float("nan")], ["B", float("inf")], ["B", 10**400],
     ["B"], ["B", 0.5, 1], "B", None],
    ids=["null-item", "int-item", "empty-item", "list-item", "bool-score",
         "string-score", "null-score", "list-score", "nan-score", "inf-score",
         "huge-int-score", "one-field", "three-fields", "bare-string", "null-entry"],
)


# Each engagement map is sent with simple_request(); each must be a 400 whose
# error names the item and, for a bad cell, the column.
BAD_ENGAGEMENT = pytest.mark.parametrize(
    "engagement, message",
    [({"A": 0}, "engagement for 'A' must be an object"),
     ({"A": []}, "engagement for 'A' must be an object"),
     ({"A": ""}, "engagement for 'A' must be an object"),
     ({"A": False}, "engagement for 'A' must be an object"),
     ({"A": None}, "engagement for 'A' must be an object"),
     ({"A": 5}, "engagement for 'A' must be an object"),
     ({"Z": 0}, "engagement for 'Z' must be an object"),
     ({"A": {"qi_typo": "abc"}}, "engagement 'qi_typo' for 'A' is not an engagement column"),
     ({"A": {"qi_typo": 1.0}}, "engagement 'qi_typo' for 'A' is not an engagement column"),
     ({"Z": {"qi_typo": 1.0}}, "engagement 'qi_typo' for 'Z' is not an engagement column"),
     ({"A": {"item_price": 1.0}}, "engagement 'item_price' for 'A' is not an engagement column"),
     ({"Z": {"qi_engagement_w1": "abc"}}, "engagement 'qi_engagement_w1' for 'Z': 'abc' is not"),
     ({"A": {}, "B": {"qi_engagement_w1": 1.0, "qi_typo": 1.0}, "C": 0},
      "engagement 'qi_typo' for 'B' is not an engagement column")],
    ids=["zero", "empty-list", "empty-string", "false", "null", "five", "zero-off-pool",
         "unknown-word", "unknown-number", "unknown-off-pool", "item-column", "word-off-pool",
         "first-fault"],
)


def bad_entry_request(entry):
    request = simple_request()
    request["channels"][0]["entries"] = [["A", 0.9], entry]
    return request


class TestScoreService:
    def test_identity_model_scores_base_and_breaks_ties_by_item(self, trained_world):
        _, data, model = trained_world
        flat = Model(
            trees=(to_tree(Leaf(value=0.0)),),
            shrinkage=0.1,
            base_score=0.5,
            schema=model.schema,
            params=TrainParams(num_trees=1),
        )
        svc = ScoreService(flat)
        response = svc.score(simple_request())
        assert [r["item"] for r in response["results"]] == ["A", "B", "C"]
        assert all(r["score"] == 0.5 for r in response["results"])

    def test_provenance_passthrough(self, service):
        response = service.score(simple_request())
        by_item = {r["item"]: r["channels"] for r in response["results"]}
        assert by_item["A"] == ["lexical"]
        assert by_item["B"] == ["lexical", "semantic"]
        assert by_item["C"] == ["semantic"]

    def test_scores_non_increasing_and_pool_complete(self, service):
        response = service.score(simple_request())
        scores = [r["score"] for r in response["results"]]
        assert scores == sorted(scores, reverse=True)
        assert {r["item"] for r in response["results"]} == {"A", "B", "C"}

    def test_latency_reported(self, service):
        response = service.score(simple_request())
        assert response["latency_us"] > 0

    def test_repeated_calls_identical_modulo_latency(self, service):
        r1 = service.score(simple_request())
        r2 = service.score(simple_request())
        r1.pop("latency_us"), r2.pop("latency_us")
        assert r1 == r2

    def test_identical_after_model_reload(self, trained_world, tmp_path, service):
        _, _, model = trained_world
        path = tmp_path / "model.frm"
        save_model(model, str(path))
        restarted = ScoreService(load_model(str(path)))
        r1 = service.score(simple_request())
        r2 = restarted.score(simple_request())
        r1.pop("latency_us"), r2.pop("latency_us")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_engagement_map_changes_scores(self, trained_world, service):
        _, data, _ = trained_world
        eng_cols = [c.name for c in data.schema.columns if c.group == "engagement"]
        request = simple_request()
        base = service.score(request)
        request["engagement"] = {"A": {c: 5.0 for c in eng_cols}}
        boosted = service.score(request)
        score_of = lambda resp, item: next(
            r["score"] for r in resp["results"] if r["item"] == item
        )
        assert score_of(boosted, "A") != score_of(base, "A")
        assert score_of(boosted, "C") == score_of(base, "C")

    def test_item_feature_sidecar_used(self, trained_world, tmp_path):
        world, data, model = trained_world
        item_cols = [c.name for c in data.schema.columns if c.group == "item"]
        path = tmp_path / "items.tsv"
        write_item_features(
            str(path),
            item_cols,
            {"A": [1.0] * len(item_cols), "B": [2.0] * len(item_cols)},
        )
        svc = ScoreService(model, item_features=ItemFeatureTable.from_file(str(path)))
        response = svc.score(simple_request())
        assert len(response["results"]) == 3  # unknown item C gets defaults
        assert response["unknown_items"] == 1
        known = svc.score(simple_request(items1=(("B", 0.8),)))
        assert known["unknown_items"] == 0

    def test_sidecar_without_rows_gives_every_item_defaults(self, trained_world, tmp_path, service):
        _, data, model = trained_world
        item_cols = [c.name for c in data.schema.columns if c.group == "item"]
        path = tmp_path / "items.tsv"
        write_item_features(str(path), item_cols, {})
        svc = ScoreService(model, item_features=ItemFeatureTable.from_file(str(path)))
        r1, r2 = svc.score(simple_request()), service.score(simple_request())
        assert r1["results"] == r2["results"]

    def test_pool_cap_enforced(self, trained_world):
        _, _, model = trained_world
        svc = ScoreService(model, pool_cap=2)
        with pytest.raises(ServiceError, match="exceeds cap"):
            svc.score(simple_request())

    def test_forest_compiled_before_first_request(self, trained_world):
        _, _, model = trained_world
        fresh = Model(
            trees=model.trees, shrinkage=model.shrinkage, base_score=model.base_score,
            schema=model.schema, params=model.params,
        )
        assert fresh._forest is None
        svc = ScoreService(fresh)
        assert svc.model._forest is not None
        compiled = svc.model._forest
        svc.score(simple_request())
        assert svc.model._forest is compiled

    @pytest.mark.parametrize("pool_cap", [0, -1])
    def test_pool_cap_below_one_rejected_at_construction(self, trained_world, pool_cap):
        _, _, model = trained_world
        with pytest.raises(ValueError, match=f"pool_cap must be >= 1, got {pool_cap}"):
            ScoreService(model, pool_cap=pool_cap)

    def test_channel_over_cap_rejected_before_parsing(self, trained_world):
        _, _, model = trained_world
        svc = ScoreService(model, pool_cap=2)
        request = simple_request(items0=(("A", 0.9), ("B", 0.5), (None, 0.1)))
        with pytest.raises(ServiceError, match="exceeds cap 2"):
            svc.score(request)

    def test_malformed_requests_rejected(self, service):
        with pytest.raises(ServiceError, match="query"):
            service.score({"channels": []})
        with pytest.raises(ServiceError, match="non-empty"):
            service.score({"query": "q", "channels": []})
        with pytest.raises(ServiceError, match="unknown channel"):
            service.score(
                {"query": "q", "channels": [{"name": "nope", "entries": [["A", 1.0]]}]}
            )
        with pytest.raises(ServiceError, match="bad entries"):
            service.score(
                {"query": "q",
                 "channels": [{"name": "lexical", "entries": [["A", "x"]]}]}
            )

    @pytest.mark.parametrize(
        "value",
        ["abc", "1.5", [1], {"v": 1}, None, True,
         float("nan"), float("inf"), float("-inf"), 10**400],
        ids=["word", "numeric-string", "list", "object", "null", "bool",
             "nan", "inf", "-inf", "huge-int"],
    )
    def test_engagement_value_must_be_finite_number(self, trained_world, service, value):
        _, data, _ = trained_world
        col = next(c.name for c in data.schema.columns if c.group == "engagement")
        request = simple_request()
        request["engagement"] = {"A": {col: value}}
        with pytest.raises(ServiceError, match="finite number"):
            service.score(request)

    @BAD_ENGAGEMENT
    def test_engagement_must_map_items_to_objects_of_model_columns(
        self, service, engagement, message
    ):
        request = simple_request()
        request["engagement"] = engagement
        with pytest.raises(ServiceError, match="^" + re.escape(message)):
            service.score(request)

    def test_empty_engagement_object_scores_like_none(self, service):
        request = simple_request()
        request["engagement"] = {"A": {}, "Z": {}}
        r1, r2 = service.score(request), service.score(simple_request())
        assert r1["results"] == r2["results"]

    def test_engagement_fills_its_cells_and_leaves_the_rest_na(
        self, trained_world, service, monkeypatch
    ):
        _, data, _ = trained_world
        names = [c.name for c in data.schema.columns if c.group == "engagement"]
        request = simple_request()
        request["engagement"] = {"B": {names[-1]: 2.5, names[0]: 1}, "Z": {names[1]: 4.0}}
        seen = []
        original = Model.predict_matrix
        monkeypatch.setattr(
            Model, "predict_matrix", lambda self, X: seen.append(X.copy()) or original(self, X)
        )
        service.score(request)
        (X,) = seen
        cols = data.schema.group_mask("engagement")
        expected = np.full((3, len(names)), np.nan)
        expected[1, 0], expected[1, -1] = 1.0, 2.5
        np.testing.assert_array_equal(X[:, cols], expected)

    @BAD_ENTRIES
    def test_channel_entry_must_be_item_id_and_finite_score(self, service, entry):
        with pytest.raises(ServiceError, match="bad entries for channel 'lexical'"):
            service.score(bad_entry_request(entry))

    def test_integer_score_scores_like_float(self, service):
        r1 = service.score(simple_request(items0=(("A", 1), ("B", 0.5))))
        r2 = service.score(simple_request(items0=(("A", 1.0), ("B", 0.5))))
        assert r1["results"] == r2["results"]

    def test_integer_engagement_value_scores_like_float(self, trained_world, service):
        _, data, _ = trained_world
        col = next(c.name for c in data.schema.columns if c.group == "engagement")
        as_int, as_float = simple_request(), simple_request()
        as_int["engagement"] = {"A": {col: 3}}
        as_float["engagement"] = {"A": {col: 3.0}}
        r1, r2 = service.score(as_int), service.score(as_float)
        assert r1["results"] == r2["results"]

    def test_concurrent_identical_requests_agree(self, service):
        results = [None] * 8

        def work(i):
            r = service.score(simple_request())
            r.pop("latency_us")
            results[i] = json.dumps(r, sort_keys=True)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1

    def test_concurrent_distinct_requests_match_serial(self, trained_world, tmp_path):
        # Each thread scores its own pool through an oblique model, again and
        # again; a workspace shared between calls would mix their rows.
        world, data, _ = trained_world
        train_mask = data.mask_for(filter_and_split(world.events, CFG.num_weeks).train)
        params = TrainParams(num_trees=8, max_depth=4, min_examples_per_leaf=5,
                             oblique=True, oblique_projections=6, seed=2)
        model = train(
            data.X[train_mask], data.labels_conversion[train_mask],
            data.group_ids[train_mask], data.schema, params,
        ).model
        assert any(has_oblique(tree) for tree in model.trees)
        item_cols = [c.name for c in data.schema.columns if c.group == "item"]
        vocab = world.ground_truth.catalog.item_vocab
        rows = np.random.default_rng(4).normal(size=(len(vocab), len(item_cols)))
        path = tmp_path / "items.tsv"
        write_item_features(str(path), item_cols, dict(zip(vocab, rows)))
        svc = ScoreService(model, item_features=ItemFeatureTable.from_file(str(path)))
        requests = synth_requests(svc, n_requests=8, pool_items=100, seed=9, item_ids=vocab)

        def answer(request):
            response = svc.score(request)
            response.pop("latency_us")
            return json.dumps(response, sort_keys=True)

        serial = [answer(r) for r in requests]
        assert len(set(serial)) == len(serial)
        results = [[] for _ in requests]
        start = threading.Barrier(len(requests))

        def work(i):
            start.wait()
            results[i] = [answer(requests[i]) for _ in range(25)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(requests))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, answers in enumerate(results):
            assert answers == [serial[i]] * 25


class TestItemFeatureFile:
    HEADER = "item_id\titem_price\titem_category\n"

    def load(self, tmp_path, body):
        path = tmp_path / "items.tsv"
        path.write_text(self.HEADER + body)
        return str(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "abc", ""])
    def test_bad_cell_rejected_with_line(self, tmp_path, cell):
        path = self.load(tmp_path, f"A\t1.0\t2\nB\t3.0\t{cell}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: item_category {cell!r}")):
            ItemFeatureTable.from_file(path)

    def test_duplicate_item_rejected_with_line(self, tmp_path):
        path = self.load(tmp_path, "A\t1.0\t2\nB\t3.0\t4\nA\t5.0\t6\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: duplicate item id 'A'")):
            ItemFeatureTable.from_file(path)

    def test_empty_item_rejected_with_line(self, tmp_path):
        path = self.load(tmp_path, "A\t1.0\t2\n\t3.0\t4\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: empty item id")):
            ItemFeatureTable.from_file(path)

    @pytest.mark.parametrize(
        "header, message",
        [("item_id\ta\ta", "column name 'a' is empty or repeated"),
         ("item_id\ta\t", "column name '' is empty or repeated"),
         ("item\ta\tb", "first header field must be item_id"),
         ("", "first header field must be item_id")],
        ids=["repeated", "empty", "no-item-id", "blank"],
    )
    def test_bad_header_rejected_with_line_one(self, tmp_path, header, message):
        # Loaded, a repeated column would be served from its first copy only.
        path = tmp_path / "items.tsv"
        path.write_text(header + "\nA\t1.0\t2\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:1: {message}")):
            ItemFeatureTable.from_file(str(path))


def replay_test_split(world, data, model, tmp_path) -> None:
    """Serve every test-split group as a request and check each score against ``data``'s row."""
    split = filter_and_split(world.events, CFG.num_weeks)
    week = split.test_week
    catalog = world.ground_truth.catalog
    sidecar_rows = item_feature_block(
        data.schema, data.lookback,
        item_count_table(world.events, catalog, CFG.num_weeks),
        catalog, np.arange(len(catalog.item_vocab)), week,
    )
    item_mask = data.schema.group_mask("item")
    item_cols = [c.name for c in data.schema.columns if c.group == "item"]
    path = tmp_path / "items.tsv"
    write_item_features(str(path), item_cols, dict(zip(catalog.item_vocab, sidecar_rows)))
    svc = ScoreService(model, item_features=ItemFeatureTable.from_file(str(path)))

    engagement_cols = np.flatnonzero(data.schema.group_mask("engagement"))
    expected = model.predict_matrix(data.X)
    trunc = TruncationConfig.uniform(world.channels, CFG.per_channel_n)
    groups = rows_checked = 0
    for q, w in split.test:
        assert w == week
        rows = np.flatnonzero(data.mask_for([(q, w)]))
        items = [data.item_vocab[i] for i in data.item_codes[rows]]
        np.testing.assert_array_equal(
            sidecar_rows[data.item_codes[rows]], data.X[rows][:, item_mask]
        )
        query = data.query_vocab[q]
        request = {
            "query": query,
            "channels": [
                {"name": cl.channel.name,
                 "entries": [list(e) for e in truncate(cl, trunc.n_for(cl.channel)).entries]}
                for cl in world.channel_lists[w][query]
            ],
            "engagement": {
                item: {data.schema.columns[c].name: float(data.X[r, c])
                       for c in engagement_cols}
                for item, r in zip(items, rows)
            },
        }
        response = svc.score(json.loads(json.dumps(request)))
        served = {r["item"]: r["score"] for r in response["results"]}
        assert list(served) != [] and sorted(served) == items
        assert [served[item] for item in items] == expected[rows].tolist()
        groups += 1
        rows_checked += len(rows)
    assert groups >= 20 and rows_checked >= 300


@pytest.fixture(scope="module")
def oblique_fit(trained_world):
    """An oblique model on ``trained_world``'s training rows, 8 features a projection.

    Returns the training rows, the model and each tree's per-row values
    as ``grow_tree`` returned them, shape ``(trees, rows)``.
    """
    world, data, _ = trained_world
    split = filter_and_split(world.events, CFG.num_weeks)
    train_mask = data.mask_for(split.train)
    X = data.X[train_mask]
    params = TrainParams(num_trees=12, shrinkage=0.2, max_depth=5, min_examples_per_leaf=5,
                         oblique=True, oblique_projections=6,
                         oblique_sparsity=8 / X.shape[1], seed=3)
    grown = []
    grow_tree = gbdt_model.grow_tree

    def recording_grow_tree(*args, **kwargs):
        tree, row_values = grow_tree(*args, **kwargs)
        grown.append(row_values)
        return tree, row_values

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gbdt_model, "grow_tree", recording_grow_tree)
        model = train(X, data.labels_conversion[train_mask], data.group_ids[train_mask],
                      data.schema, params).model
    return X, model, np.array(grown)


def oblique_levels(tree) -> set[int]:
    """The depths at which ``tree`` has an oblique split."""
    depth = np.zeros(tree.n_nodes(), dtype=np.int64)
    levels = set()
    for i, child in enumerate(tree.left):
        if child != i:
            depth[child : child + 2] = depth[i] + 1
            if tree.feature[i] == -1:
                levels.add(int(depth[i]))
    return levels


class TestTrainServeParity:
    """Serving rebuilds the training row: same features, same score, bit for bit."""

    def test_test_split_scores_equal_training_rows(self, trained_world, tmp_path):
        world, data, model = trained_world
        replay_test_split(world, data, model, tmp_path)

    def test_oblique_test_split_scores_equal_training_rows(
        self, trained_world, oblique_fit, tmp_path
    ):
        world, data, _ = trained_world
        replay_test_split(world, data, oblique_fit[1], tmp_path)

    def test_oblique_training_rows_reach_their_grown_leaves(self, oblique_fit):
        X, model, grown = oblique_fit
        levels = set().union(*map(oblique_levels, model.trees))
        assert len(levels) >= 3
        assert all(len(feats) == 8 for tree in model.trees
                   for feats in np.split(tree.oblique_feature, tree.oblique_start[1:-1])
                   if len(feats))
        forest = model.forest()
        assert forest.leaf_values(X).tobytes() == grown.tobytes()
        # Request-sized batches of shuffled rows, every rows % 4 tail.
        order = np.random.default_rng(7).permutation(len(X))
        sizes = np.resize([97, 98, 99, 100, 1, 2, 3], len(X))
        bounds = np.cumsum(sizes)
        batches = np.split(order, bounds[bounds < len(X)])
        assert {len(b) % 4 for b in batches} == {0, 1, 2, 3}
        for rows in batches:
            assert forest.leaf_values(X[rows]).tobytes() == grown[:, rows].tobytes()


@pytest.fixture(scope="module")
def server_url(trained_world):
    _, _, model = trained_world
    service = ScoreService(model)
    server = make_server(service, host="127.0.0.1", port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{port}"
    server.shutdown()
    server.server_close()


class TestHttpServer:
    def _post(self, url, payload):
        req = urllib.request.Request(
            url + "/v1/score",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_health(self, server_url):
        with urllib.request.urlopen(server_url + "/v1/health") as resp:
            body = json.loads(resp.read())
        assert body["status"] == "ok"
        assert len(body["model_fingerprint"]) == 64
        assert body["format_version"] == MODEL_FORMAT_VERSION

    def test_score_round_trip_matches_in_process(self, server_url, service):
        status, body = self._post(server_url, simple_request())
        assert status == 200
        local = service.score(simple_request())
        assert [r["item"] for r in body["results"]] == [
            r["item"] for r in local["results"]
        ]
        assert [r["score"] for r in body["results"]] == [
            r["score"] for r in local["results"]
        ]

    def test_malformed_request_is_400(self, server_url):
        status, body = self._post(server_url, {"query": "q", "channels": []})
        assert status == 400
        assert "error" in body

    def test_channel_over_cap_is_400_before_parsing(self, server_url):
        entries = [[f"item{j}", float(-j)] for j in range(DEFAULT_POOL_CAP)] + [[None, "x"]]
        request = {"query": "q1", "channels": [{"name": "lexical", "entries": entries}]}
        status, body = self._post(server_url, request)
        assert status == 400
        assert f"exceeds cap {DEFAULT_POOL_CAP}" in body["error"]

    def test_unknown_path_is_404(self, server_url):
        status, body = self._post(server_url + "/nope", simple_request())
        assert status == 404

    @pytest.mark.parametrize(
        "value", ["abc", [1], float("nan"), float("inf"), float("-inf")],
        ids=["word", "list", "nan", "inf", "-inf"],
    )
    def test_bad_engagement_value_is_400(self, server_url, trained_world, value):
        _, data, _ = trained_world
        col = next(c.name for c in data.schema.columns if c.group == "engagement")
        request = simple_request()
        request["engagement"] = {"B": {col: value}}
        status, body = self._post(server_url, request)
        assert status == 400
        assert "finite number" in body["error"]

    @BAD_ENGAGEMENT
    def test_bad_engagement_map_is_400(self, server_url, engagement, message):
        request = simple_request()
        request["engagement"] = engagement
        status, body = self._post(server_url, request)
        assert status == 400
        assert body["error"].startswith(message)

    @BAD_ENTRIES
    def test_bad_channel_entry_is_400(self, server_url, entry):
        status, body = self._post(server_url, bad_entry_request(entry))
        assert status == 400
        assert "bad entries for channel 'lexical'" in body["error"]

    def test_oversized_content_length_is_refused_before_reading(self, server_url):
        host, port = server_url.rsplit("/", 1)[-1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        started = time.perf_counter()
        try:
            conn.putrequest("POST", "/v1/score")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()  # headers only: a server that reads the body would hang
            resp = conn.getresponse()
            body = json.loads(resp.read())
        finally:
            conn.close()
        assert time.perf_counter() - started < 5.0
        assert resp.status == 413
        assert str(MAX_BODY_BYTES) in body["error"]

    def test_body_at_the_ceiling_is_read(self, server_url):
        request = json.dumps(simple_request()).encode()
        padded = request + b" " * (MAX_BODY_BYTES - len(request))
        req = urllib.request.Request(
            server_url + "/v1/score", data=padded,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.status == 200

    def test_negative_content_length_is_400_without_reading(self, server_url):
        host, port = server_url.rsplit("/", 1)[-1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/v1/score")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            resp = conn.getresponse()
            body = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 400
        assert "Content-Length" in body["error"]

    def test_deeply_nested_body_is_400(self, server_url):
        req = urllib.request.Request(
            server_url + "/v1/score", data=b"[" * 100_000 + b"]" * 100_000,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        assert "malformed request body" in json.loads(err.value.read())["error"]


class _FailingService(ScoreService):
    def score(self, payload):
        raise RuntimeError("scorer exploded")


def test_unexpected_scoring_error_is_json_500_and_logged(trained_world, caplog):
    _, _, model = trained_world
    server = make_server(_FailingService(model), host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        with caplog.at_level(logging.ERROR, logger="channelrank.service"):
            status, body = TestHttpServer()._post(url, simple_request())
    finally:
        server.shutdown()
        server.server_close()
    assert status == 500
    assert body == {"error": "internal error: RuntimeError"}
    record = next(r for r in caplog.records if r.name == "channelrank.service")
    assert record.exc_info is not None
    assert "scorer exploded" in caplog.text


class TestBench:
    def test_bench_reports_percentiles(self, service):
        requests = synth_requests(service, n_requests=50, pool_items=40, seed=3)
        report = bench(service, requests)
        assert report.request_count == 50
        assert 0 < report.p50_ms <= report.p95_ms <= report.p99_ms
        assert report.max_pool_size <= 40 + len(service.channel_names)
        assert "cpus" in report.hardware
        fields = [
            "request_count", "p50_ms", "p95_ms", "p99_ms", "mean_pool_size",
            "max_pool_size", "hardware",
        ]
        assert list(report.as_dict()) == fields

    def test_zero_tree_model_latency_nonzero(self, trained_world):
        _, _, model = trained_world
        flat = Model(
            trees=(to_tree(Leaf(value=0.0)),), shrinkage=0.1, base_score=0.0,
            schema=model.schema, params=TrainParams(num_trees=1),
        )
        svc = ScoreService(flat)
        report = bench(svc, synth_requests(svc, n_requests=20, pool_items=30, seed=1))
        assert report.p95_ms > 0.0

    def test_more_trees_cost_more(self, trained_world):
        _, data, model = trained_world
        requests = synth_requests(
            ScoreService(model), n_requests=60, pool_items=60, seed=5
        )
        small = Model(
            trees=model.trees[:3], shrinkage=model.shrinkage,
            base_score=model.base_score, schema=model.schema, params=model.params,
        )
        doubled = Model(
            trees=model.trees + model.trees + model.trees + model.trees,
            shrinkage=model.shrinkage, base_score=model.base_score,
            schema=model.schema, params=model.params,
        )
        # The best median of several rounds: one host stall can decide a
        # single round's tail, but not the fastest of three medians.
        def best_p50(model):
            service = ScoreService(model)
            return min(bench(service, requests).p50_ms for _ in range(3))

        assert best_p50(doubled) > best_p50(small)
