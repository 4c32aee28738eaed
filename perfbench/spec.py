"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-manifest``), so the names printed by a
run and the names in the manifest cannot drift apart.
"""

from __future__ import annotations

import json
import os

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 10
DEFAULT_SEED = 0

WORKLOADS = [
    {
        "name": "ablate_q200",
        "why": "channelrank ablate on a 200-query world: training layers do most of the work, "
               "scoring and HTTP none, so a serving change should leave it flat",
    },
    {
        "name": "score_pool100",
        "why": "closed loop of in-process ScoreService.score calls on ~100-item pools: forest "
               "scoring, featurize and merge, no training; its traced run also serves them over HTTP",
    },
    {
        "name": "score_oblique",
        "why": "like score_pool100 with an oblique-split model, which scores through the "
               "per-tree recursive path that no other workload reaches",
    },
]

# Every workload reports every end-to-end metric; README.md says what each
# means per workload, and why the central latency is a mean, not a median.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "latency_mean_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p95_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _layer(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = [
    _layer("synthgen.generate_s", "s"),
    _layer("synthgen.filter_and_split_s", "s"),
    _layer("synthgen.events", "count"),
    _layer("labeling.funnel_table_s", "s"),
    _layer("dataset.build_dataset_s", "s"),
    _layer("dataset.instances", "count"),
    _layer("core.merge_pool_s", "s"),
    _layer("core.merge_pool_calls", "count"),
    _layer("gbdt.pair_index_s", "s"),
    _layer("gbdt.pairs", "count"),
    _layer("gbdt.gradients_s", "s"),
    _layer("gbdt.gradients_calls", "count"),
    _layer("gbdt.pairs_useful_frac", "ratio", "higher"),
    _layer("gbdt.bin_features_s", "s"),
    _layer("gbdt.grow_tree_s", "s"),
    _layer("gbdt.grow_tree_calls", "count"),
    _layer("gbdt.tree_nodes", "count"),
    _layer("gbdt.tree_predict_s", "s"),
    _layer("gbdt.tree_predict_calls", "count"),
    _layer("gbdt.train_s", "s"),
    _layer("gbdt.train_self_s", "s"),
    _layer("metrics.grouped_ndcg_s", "s"),
    _layer("gbdt.predict_matrix_s", "s"),
    _layer("gbdt.rows_scored", "count"),
    _layer("fusion.weighted_interleave_s", "s"),
    _layer("fusion.weighted_interleave_calls", "count"),
    _layer("evaluation.build_eval_groups_s", "s"),
    _layer("evaluation.evaluate_wi_s", "s"),
    _layer("evaluation.evaluate_models_s", "s"),
    _layer("service.parse_request_s", "s"),
    _layer("service.featurize_self_s", "s"),
    _layer("service.pool_size_mean", "items"),
    _layer("http.latency_mean_ms", "ms"),
    _layer("http.latency_p95_ms", "ms"),
    _layer("http.server_ms", "ms"),
    _layer("http.overhead_ms", "ms"),
    _layer("http.generator_late_ms", "ms"),
    _layer("http.backlog_max", "requests"),
    _layer("http.sent", "count", "higher"),
    _layer("http.ok", "count", "higher"),
    _layer("http.failed", "count"),
    _layer("http.max_rps", "1/s", "higher"),
    _layer("failed_frac", "ratio"),
    _layer("trace.overhead_frac", "ratio"),
    _layer("trace.remainder_frac", "ratio"),
]

UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}
WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


def write_manifest(root: str) -> str:
    path = os.path.join(root, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(manifest_text())
    return path
