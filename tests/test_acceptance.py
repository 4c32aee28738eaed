"""Acceptance gate: ten criteria, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines as
they complete (they also appear in captured output without ``-s``).
The heavyweight fixtures (full benchmark, latency model) are shared
module-wide, so the suite runs end-to-end in roughly ten minutes.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from channelrank.core import ChannelId, ChannelList, TruncationConfig
from channelrank.dataset import build_dataset, write_dataset
from channelrank.evaluation import (
    AblationConfig,
    ModelRanker,
    ablation_run,
    build_eval_groups,
    evaluate_variant,
)
from channelrank.fusion import (
    InterleaveWeights,
    rrf_fuse,
    weighted_interleave,
    weighted_interleave_batch,
)
from channelrank.gbdt.model import TrainParams, train
from channelrank.gbdt.serialize import ModelFormatError, loads_model, serialize_model
from channelrank.labeling import CorpusStats, calibrate_weights, max_normalize, weighted_counts
from channelrank.metrics import ndcg_at_k
from channelrank.service import ScoreService, bench, synth_requests
from channelrank.synthgen import WorldConfig, filter_and_split, generate
from tests.label_oracle import restrict_weeks
from tests.lambda_oracle import lambda_gradients


@contextmanager
def criterion(num: int, name: str):
    info = {"detail": ""}
    t0 = time.perf_counter()
    try:
        yield info
    except BaseException:
        print(f"\n[criterion {num:02d}] FAIL  {name}")
        raise
    dt = time.perf_counter() - t0
    print(f"\n[criterion {num:02d}] PASS  {name}: {info['detail']} ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# Shared worlds / models
# ---------------------------------------------------------------------------

BENCHMARK_SEED = 2024


def _world_to_dataset(cfg, world, split):
    catalog = world.ground_truth.catalog
    trunc = TruncationConfig.uniform(world.channels, cfg.per_channel_n)
    return build_dataset(
        world.events, world.channel_lists, catalog, world.channels,
        split.all_keys(), trunc,
    )


@pytest.fixture(scope="module")
def small_world():
    cfg = WorldConfig(
        num_queries=40, num_items=400, universe_size=20, per_channel_n=10,
        sessions_mean=25.0, seed=5,
    )
    world = generate(cfg)
    split = filter_and_split(world.events, cfg.num_weeks)
    return cfg, world, split


@pytest.fixture(scope="module")
def small_dataset(small_world):
    cfg, world, split = small_world
    return _world_to_dataset(cfg, world, split)


@pytest.fixture(scope="module")
def full_benchmark():
    """The default desk-scale benchmark; timed for criterion 6."""
    t0 = time.perf_counter()
    cfg = WorldConfig(seed=BENCHMARK_SEED)
    world = generate(cfg)
    split = filter_and_split(world.events, cfg.num_weeks)
    dataset = _world_to_dataset(cfg, world, split)
    report = ablation_run(dataset, world.channel_lists, split, AblationConfig())
    elapsed = time.perf_counter() - t0
    return report, elapsed


# ---------------------------------------------------------------------------
# 1. NDCG oracle
# ---------------------------------------------------------------------------


def brute_force_ndcg(labels, order, k):
    dcg = 0.0
    for pos, idx in enumerate(order[:k], start=1):
        dcg += (2.0 ** labels[idx] - 1.0) / math.log2(pos + 1)
    idcg = 0.0
    for pos, lab in enumerate(sorted(labels, reverse=True)[:k], start=1):
        idcg += (2.0 ** lab - 1.0) / math.log2(pos + 1)
    return 0.0 if idcg == 0.0 else dcg / idcg


def test_criterion_1_ndcg_oracle():
    with criterion(1, "NDCG oracle") as info:
        start = time.perf_counter()
        value = ndcg_at_k(np.array([3.0, 1.0, 0.0]), np.array([2, 1, 0]), k=3)
        assert abs(value - 0.54134) < 1e-5

        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(10_000):
            n = int(rng.integers(1, 11))
            labels = rng.uniform(0.0, 4.0, size=n)
            if rng.random() < 0.2:
                labels[rng.random(size=n) < 0.5] = 0.0
            order = rng.permutation(n)
            k = int(rng.integers(1, 12))
            mine = ndcg_at_k(labels, order, k)
            oracle = brute_force_ndcg(list(labels), list(order), k)
            worst = max(worst, abs(mine - oracle))
        assert worst < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        info["detail"] = f"hand case 0.54134 ok; max|diff|={worst:.2e} on 10000 lists"


# ---------------------------------------------------------------------------
# 2. Lambda oracle
# ---------------------------------------------------------------------------


def brute_force_lambda_oracle(labels, scores, k, sigma=1.0):
    """Pair enumeration with a full NDCG@k recompute for every swap."""
    n = len(labels)
    order = list(np.lexsort((np.arange(n), -np.asarray(scores, dtype=np.float64))))
    pos = {doc: p for p, doc in enumerate(order)}
    g = np.zeros(n)
    h = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if labels[i] > labels[j]:
                before = brute_force_ndcg(list(labels), order, k)
                swapped = list(order)
                pi, pj = pos[i], pos[j]
                swapped[pi], swapped[pj] = swapped[pj], swapped[pi]
                after = brute_force_ndcg(list(labels), swapped, k)
                delta = abs(after - before)
                rho = 1.0 / (1.0 + math.exp(sigma * (scores[i] - scores[j])))
                g[i] -= sigma * delta * rho
                g[j] += sigma * delta * rho
                hess = sigma * sigma * delta * rho * (1.0 - rho)
                h[i] += hess
                h[j] += hess
    return g, h


def test_criterion_2_lambda_oracle():
    with criterion(2, "lambda-gradient oracle") as info:
        start = time.perf_counter()
        rng = np.random.default_rng(2002)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            labels = rng.choice([0.0, 1.0, 2.0, 3.0, 4.0], size=n)
            scores = rng.normal(size=n)
            g, h = lambda_gradients(labels, scores, k=8)
            assert g.sum() == 0.0
            g_ref, h_ref = brute_force_lambda_oracle(labels, scores, k=8)
            if n > 1:
                worst = max(
                    worst,
                    float(np.max(np.abs(g - g_ref))),
                    float(np.max(np.abs(h - h_ref))),
                )
        assert worst < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        info["detail"] = f"max|diff|={worst:.2e}, sum(g)=0 exact on 1000 groups"


# ---------------------------------------------------------------------------
# 3. Label formulas
# ---------------------------------------------------------------------------


def test_criterion_3_label_formulas():
    # weighted_counts and max_normalize are the label formula build_dataset
    # applies; a count row is (views, clicks, atcs, purchases).
    with criterion(3, "label construction formulas") as info:
        w = calibrate_weights(CorpusStats(100, 400, 2000))
        assert (w.a, w.b, w.c, w.d) == (1.0, 0.25, 0.05, 0.0)
        counts = np.array([[5.0, 2.0, 0.0, 1.0]])
        assert weighted_counts(counts, w)[0] == pytest.approx(1.10, abs=1e-12)
        assert max_normalize(np.array([10.0, 5.0, 0.0])).tolist() == [4.0, 2.0, 0.0]

        rng = np.random.default_rng(3003)
        for _ in range(10_000):
            rows = np.array(
                [
                    [
                        int(rng.integers(0, 30)),
                        int(rng.integers(0, 10)),
                        int(rng.integers(0, 5)),
                        int(rng.integers(0, 3)),
                    ]
                    for _ in range(int(rng.integers(1, 8)))
                ],
                dtype=np.float64,
            )
            stats = CorpusStats(
                int(rng.integers(0, 1000)),
                int(rng.integers(1, 2000)),
                int(rng.integers(1, 5000)),
            )
            weights = calibrate_weights(stats)
            assert weights.a >= weights.b >= weights.c >= weights.d >= 0.0
            raw = weighted_counts(rows, weights)
            normalized = max_normalize(raw)
            assert (normalized >= 0.0).all() and (normalized <= 4.0).all()
            peak = raw.max()
            if peak > 0:
                assert normalized.max() == 4.0
                np.testing.assert_array_equal(normalized == 4.0, raw == peak)
        info["detail"] = "exact substitutions + 10000 random funnels in range"


# ---------------------------------------------------------------------------
# 4. Fusion baselines
# ---------------------------------------------------------------------------


def test_criterion_4_fusion_baselines():
    with criterion(4, "fusion baselines") as info:
        rng = np.random.default_rng(4004)
        channels = [ChannelId(i, f"c{i}") for i in range(4)]
        for _ in range(1000):
            n_lists = int(rng.integers(1, 5))
            lists = []
            for c in range(n_lists):
                size = int(rng.integers(1, 10))
                items = rng.choice(
                    [f"i{j:02d}" for j in range(20)], size=size, replace=False
                )
                pairs = [(str(it), 1.0 - 0.01 * r) for r, it in enumerate(items)]
                lists.append(ChannelList.from_pairs(channels[c], "q", pairs))
            k_rrf = float(rng.uniform(1.0, 120.0))
            fused = rrf_fuse(lists, k_rrf=k_rrf)
            table = {}
            for lst in lists:
                for rank, (item, _) in enumerate(lst.entries, start=1):
                    table[item] = table.get(item, 0.0) + 1.0 / (k_rrf + rank)
            expected = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
            assert fused.items == tuple(item for item, _ in expected)
            assert fused.scores == tuple(score for _, score in expected)

        # Degenerate weights follow channel 0 exactly.
        l0 = ChannelList.from_pairs(
            channels[0], "q", [(f"a{i:02d}", 1.0 - 0.01 * i) for i in range(50)]
        )
        l1 = ChannelList.from_pairs(
            channels[1], "q", [(f"b{i:02d}", 1.0 - 0.01 * i) for i in range(50)]
        )
        degenerate = weighted_interleave(
            [l0, l1], InterleaveWeights({channels[0]: 1.0, channels[1]: 0.0}), seed=99
        )
        assert degenerate.items == l0.items + l1.items

        # One batched call interleaves the pair under each of the 10,000 seeds.
        weights = InterleaveWeights({channels[0]: 0.7, channels[1]: 0.3})
        items, orders = weighted_interleave_batch([[l0, l1]], [weights], [range(10_000)])[0]
        hits = sum(items[j].startswith("a") for j in orders[:, 0])
        share = hits / 10_000
        assert 0.68 <= share <= 0.72
        info["detail"] = (
            f"RRF exact on 1000 inputs; WI first-pick share {share:.4f} in 0.70±0.02"
        )


# ---------------------------------------------------------------------------
# 5. Overfit sanity
# ---------------------------------------------------------------------------


def test_criterion_5_overfit_sanity():
    with criterion(5, "overfit sanity run") as info:
        start = time.perf_counter()
        cfg = WorldConfig(
            num_queries=50, num_items=500, universe_size=20, per_channel_n=10,
            sessions_mean=25.0, seed=55,
        )
        world = generate(cfg)
        split = filter_and_split(world.events, cfg.num_weeks)
        dataset = _world_to_dataset(cfg, world, split)
        train_mask = dataset.mask_for(split.train)
        # Sharp sigmoid: pairwise gradients vanish once margins open, so
        # the saturated curve freezes instead of jittering around 1.0.
        params = TrainParams(
            num_trees=500, shrinkage=0.3, max_depth=8,
            min_examples_per_leaf=1, l2=1.0, sigma=16.0, seed=5,
        )
        result = train(
            dataset.X[train_mask],
            dataset.labels_conversion[train_mask],
            dataset.group_ids[train_mask],
            dataset.schema,
            params,
        )
        curve = np.array([r.train_ndcg for r in result.history])
        final = curve[-1]
        non_decreasing = float(np.mean(np.diff(curve) >= -1e-12))
        assert final >= 0.99
        assert non_decreasing >= 0.95
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        info["detail"] = (
            f"train ndcg@8={final:.4f} (>=0.99), "
            f"{non_decreasing:.1%} of rounds non-decreasing"
        )


# ---------------------------------------------------------------------------
# 6. Ablation ladder
# ---------------------------------------------------------------------------


def test_criterion_6_ablation_ladder(full_benchmark):
    with criterion(6, "ablation ladder on the default benchmark") as info:
        report, elapsed = full_benchmark
        wi = report.variant("WI").mean_ndcg
        ur = report.variant("UR").mean_ndcg
        ef = report.variant("UR+EF").mean_ndcg
        cl = report.variant("UR+EF+CL").mean_ndcg
        p_ef = report.variant("UR+EF").mean_purchase_ndcg
        p_cl = report.variant("UR+EF+CL").mean_purchase_ndcg
        assert ur >= wi + 0.02
        assert ef >= ur + 0.02
        assert cl >= ef - 0.005
        assert p_cl > p_ef
        assert elapsed < 600.0
        info["detail"] = (
            f"WI={wi:.4f} < UR={ur:.4f} < UR+EF={ef:.4f} <= UR+EF+CL={cl:.4f}; "
            f"purchase {p_ef:.4f}->{p_cl:.4f}; {elapsed:.0f}s end-to-end"
        )


def test_default_ablation_config_hash_pinned(full_benchmark):
    # Recorded before the NDCG cut-off became a constant; the default
    # ablation's report hash and cut-off must not move.
    report, _ = full_benchmark
    assert report.metric_k == 8
    assert report.config_hash == (
        "7bdbf903b6329f96c8b000c5b4a3577728c0c99c0ba1be1561e0e63f0bf99489"
    )


# ---------------------------------------------------------------------------
# 7. No-leakage audit
# ---------------------------------------------------------------------------


def test_criterion_7_no_leakage(small_world, tmp_path):
    with criterion(7, "temporal no-leakage audit") as info:
        cfg, world, split = small_world
        catalog = world.ground_truth.catalog
        trunc = TruncationConfig.uniform(world.channels, cfg.per_channel_n)
        for audit_week in (3, 4):
            keys = [k for k in split.all_keys() if k[1] == audit_week]
            full = build_dataset(
                world.events, world.channel_lists, catalog, world.channels,
                keys, trunc,
            )
            rebuilt = build_dataset(
                restrict_weeks(world.events, audit_week), world.channel_lists,
                catalog, world.channels, keys, trunc,
            )
            a = tmp_path / f"full_{audit_week}.csv"
            b = tmp_path / f"rebuilt_{audit_week}.csv"
            write_dataset(full, str(a), include_labels=False)
            write_dataset(rebuilt, str(b), include_labels=False)
            assert a.read_bytes() == b.read_bytes()
        info["detail"] = "feature files byte-identical after deleting weeks >= w (w=3, 4)"


# ---------------------------------------------------------------------------
# 8. Serialization round-trips
# ---------------------------------------------------------------------------


def test_criterion_8_serialization_round_trips():
    with criterion(8, "serialization round-trips") as info:
        rng = np.random.default_rng(8008)
        n_groups, group_size, n_features = 12, 8, 5
        n = n_groups * group_size
        from channelrank.features import FeatureColumn, FeatureSchema

        schema = FeatureSchema(
            columns=tuple(
                FeatureColumn(f"f{i}", "numeric", "item") for i in range(n_features)
            )
        )
        held_out = rng.normal(size=(50, n_features))
        held_out[rng.random(size=held_out.shape) < 0.2] = np.nan
        for trial in range(100):
            X = rng.normal(size=(n, n_features))
            base = X[:, 0] + 0.1 * rng.normal(size=n)
            labels = np.zeros(n)
            for gidx in range(n_groups):
                seg = slice(gidx * group_size, (gidx + 1) * group_size)
                ranks = np.argsort(np.argsort(base[seg]))
                labels[seg] = 4.0 * ranks / (group_size - 1)
            group_ids = np.repeat(np.arange(n_groups), group_size)
            params = TrainParams(
                num_trees=5, shrinkage=0.2, max_depth=3,
                min_examples_per_leaf=2, seed=trial,
            )
            model = train(X, labels, group_ids, schema, params).model
            data = serialize_model(model)
            restored = loads_model(data)
            np.testing.assert_array_equal(
                model.predict_matrix(held_out), restored.predict_matrix(held_out)
            )
            if trial % 10 == 0:
                with pytest.raises(ModelFormatError):
                    loads_model(data[: len(data) // 2])
                corrupted = bytearray(data)
                idx = len(corrupted) // 2
                corrupted[idx] = ord("5") if corrupted[idx] != ord("5") else ord("6")
                with pytest.raises(ModelFormatError):
                    loads_model(bytes(corrupted))
        info["detail"] = "100 train/serialize/load/score cycles bit-identical; corruption rejected"


# ---------------------------------------------------------------------------
# 9. Latency budget
# ---------------------------------------------------------------------------


def test_criterion_9_latency(small_dataset, small_world):
    with criterion(9, "scoring latency budget") as info:
        cfg, world, split = small_world
        dataset = small_dataset
        train_mask = dataset.mask_for(split.train)
        params = TrainParams(num_trees=300, shrinkage=0.1, max_depth=6,
                             min_examples_per_leaf=5, seed=9)
        model = train(
            dataset.X[train_mask], dataset.labels_conversion[train_mask],
            dataset.group_ids[train_mask], dataset.schema, params,
        ).model
        service = ScoreService(model)
        requests = synth_requests(service, n_requests=10_000, pool_items=100, seed=42)
        report = bench(service, requests)
        assert report.p95_ms < 50.0
        info["detail"] = (
            f"in-process p95={report.p95_ms:.2f} ms (ceiling 50 ms), "
            f"p50={report.p50_ms:.2f} ms over {report.request_count} requests "
            f"of ~{report.mean_pool_size:.0f} candidates [{report.hardware}]"
        )


# ---------------------------------------------------------------------------
# 10. Determinism under parallelism
# ---------------------------------------------------------------------------


def test_criterion_10_parallel_determinism(small_dataset, small_world):
    with criterion(10, "determinism under parallelism") as info:
        cfg, world, split = small_world
        dataset = small_dataset
        train_mask = dataset.mask_for(split.train)
        params = TrainParams(num_trees=40, shrinkage=0.15, max_depth=5,
                             min_examples_per_leaf=3, seed=77)
        args = (
            dataset.X[train_mask], dataset.labels_conversion[train_mask],
            dataset.group_ids[train_mask], dataset.schema, params,
        )
        model_1 = train(*args, n_threads=1).model
        model_4 = train(*args, n_threads=4).model
        model_8 = train(*args, n_threads=8).model
        bytes_1 = serialize_model(model_1)
        assert bytes_1 == serialize_model(model_4) == serialize_model(model_8)

        groups = build_eval_groups(dataset, world.channel_lists, split.test)
        full_idx = np.arange(len(dataset.schema))
        r1 = evaluate_variant(ModelRanker("m", model_1, full_idx), groups)
        r4 = evaluate_variant(ModelRanker("m", model_4, full_idx), groups)
        assert r1 == r4
        info["detail"] = (
            f"1/4/8-thread models byte-identical; eval metrics equal "
            f"(ndcg={r1.mean_ndcg:.4f})"
        )
