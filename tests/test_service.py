import http.client
import json
import logging
import threading
import urllib.error
import urllib.request

import pytest

from channelrank.core import TruncationConfig
from channelrank.dataset import ItemCatalog, build_dataset
from channelrank.gbdt.model import Model, TrainParams, train
from channelrank.gbdt.serialize import load_model, save_model
from channelrank.gbdt.tree import Leaf, Tree
from channelrank.service import (
    ItemFeatureTable,
    ScoreService,
    ServiceError,
    bench,
    make_server,
    synth_requests,
    write_item_features,
)
from channelrank.synthgen import WorldConfig, filter_and_split, generate

CFG = WorldConfig(
    num_queries=40, num_items=400, universe_size=20, per_channel_n=10,
    sessions_mean=25.0, seed=5,
)


@pytest.fixture(scope="module")
def trained_world():
    world = generate(CFG)
    split = filter_and_split(world.events, CFG.num_weeks)
    cat = world.ground_truth.catalog
    catalog = ItemCatalog(cat.item_vocab, cat.price, cat.category, cat.intro_week)
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


class TestScoreService:
    def test_identity_model_scores_base_and_breaks_ties_by_item(self, trained_world):
        _, data, model = trained_world
        flat = Model(
            trees=(Tree(root=Leaf(value=0.0)),),
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

    def test_pool_cap_enforced(self, trained_world):
        _, _, model = trained_world
        svc = ScoreService(model, pool_cap=2)
        with pytest.raises(ServiceError, match="exceeds cap"):
            svc.score(simple_request())

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

    def test_zero_tree_model_latency_nonzero(self, trained_world):
        _, _, model = trained_world
        flat = Model(
            trees=(Tree(root=Leaf(value=0.0)),), shrinkage=0.1, base_score=0.0,
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
        r_small = bench(ScoreService(small), requests)
        r_big = bench(ScoreService(doubled), requests)
        assert r_big.p95_ms > r_small.p95_ms
