"""The serving path: train, save, reload, score requests, measure latency.

Trains a small ranker, round-trips it through the .frm model format,
stands up the scoring service in-process, walks one request through
merge -> featurize -> predict -> sort, and finishes with a latency
benchmark against the production-style budget (p95 under 50 ms;
typically single-digit milliseconds).

Run: python demos/04_scoring_service.py
"""

import json
import os
import tempfile

from channelrank import (
    TrainParams,
    TruncationConfig,
    WorldConfig,
    build_dataset,
    filter_and_split,
    generate,
    load_model,
    save_model,
    train,
)
from channelrank.service import ScoreService, bench, synth_requests

cfg = WorldConfig(
    num_queries=80, num_items=800, universe_size=20, per_channel_n=10,
    sessions_mean=25.0, seed=13,
)
print("building a training world ...")
world = generate(cfg)
split = filter_and_split(world.events, cfg.num_weeks)
catalog = world.ground_truth.catalog
dataset = build_dataset(
    world.events, world.channel_lists, catalog, world.channels,
    split.all_keys(), TruncationConfig.uniform(world.channels, cfg.per_channel_n),
)
mask = dataset.mask_for(split.train)
result = train(
    dataset.X[mask], dataset.labels_conversion[mask], dataset.group_ids[mask],
    dataset.schema,
    TrainParams(num_trees=300, shrinkage=0.1, max_depth=6, min_examples_per_leaf=5, seed=1),
)
model = result.model
print(f"trained {len(model.trees)} trees; "
      f"final train ndcg@8 = {result.history[-1].train_ndcg:.4f}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "ranker.frm")
    save_model(model, path)
    model = load_model(path)
    print(f"model round-tripped through {path} ({os.path.getsize(path):,} bytes)")

service = ScoreService(model)
request = {
    "query": "standing desk",
    "channels": [
        {"name": "lexical", "entries": [["i00004", 2.1], ["i00010", 1.7], ["i00031", 1.1]]},
        {"name": "semantic", "entries": [["i00010", 0.95], ["i00055", 0.81]]},
        {"name": "trending", "entries": [["i00099", 310.0], ["i00004", 120.0]]},
    ],
    "engagement": {
        "i00010": {"qi_engagement_w1": 0.8, "qi_engagement_w4": 1.4,
                   "qi_purchases_w4": 2.0},
    },
}
response = service.score(request)
print("\n=== POST /v1/score ===")
print(json.dumps(response, indent=2)[:900])

print("\n=== GET /v1/health ===")
print(json.dumps(service.health(), indent=2))

print("\nrunning the latency benchmark (2000 requests, ~100-candidate pools) ...")
requests = synth_requests(service, n_requests=2000, pool_items=100, seed=3)
report = bench(service, requests)
print(report.render_text())
print(f"\nproduction budget: p95 < 50 ms; measured p95 = {report.p95_ms:.2f} ms")
