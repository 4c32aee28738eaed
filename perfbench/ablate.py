"""ablate_q200: the WI -> UR -> UR+EF -> UR+EF+CL ablation, generate to report.

This is what ``channelrank ablate`` runs (and acceptance criterion 6), on a
200-query world so one ablation takes well under a minute.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

from common import Outcome, Speedometer, import_seconds, percentile, self_peak_rss_mb
from tracer import Tracer, installed, layer_metrics, remainder_frac

SIZES = {
    "full": {
        "world": {"num_queries": 200},
        "train": {"num_trees": 60, "max_depth": 5},
        "wi_seeds": 20,
    },
    "tiny": {
        "world": {"num_queries": 30, "num_items": 600, "universe_size": 24,
                  "per_channel_n": 12, "sessions_mean": 30.0},
        "train": {"num_trees": 6, "max_depth": 3},
        "wi_seeds": 3,
    },
}
VARIANTS = ("WI", "UR", "UR+EF", "UR+EF+CL")


class SegmentClock:
    """Wall time of one long operation, calibrated at checkpoints inside it.

    Each stretch between checkpoints is scaled by the kernel times at its two
    ends; the kernel runs themselves are left out of the wall time.
    """

    def __init__(self, speed: Speedometer, repeats: int = 5):
        self.speed = speed
        self.repeats = repeats
        self.raw = 0.0
        self.scaled = 0.0
        self._kernel: float | None = None
        self._since = 0.0

    def checkpoint(self) -> None:
        now = time.perf_counter()
        # On this thread's CPU, unpinned: the ablation runs where this thread runs.
        kernel = sum(self.speed.kernel() for _ in range(self.repeats)) / self.repeats
        if self._kernel is not None:
            stretch = now - self._since
            self.raw += stretch
            self.scaled += stretch * Speedometer.scale(self._kernel, kernel)
        self._kernel = kernel
        self._since = time.perf_counter()


def _ablation(size: dict, seed: int, checkpoint=lambda: None):
    """One ablation exactly as ``channelrank ablate`` builds it.

    Returns the report, the instance count and the fitted models in the
    order ``ablation_run`` trains them (UR, UR+EF, UR+EF+CL).
    ``checkpoint`` runs before and after each training.
    """
    from channelrank import dataset, evaluation, synthgen
    from channelrank.core import TruncationConfig
    from channelrank.gbdt import TrainParams

    models = []
    fit = evaluation.train

    def capture(*args, **kwargs):
        checkpoint()
        result = fit(*args, **kwargs)
        checkpoint()
        models.append(result.model)
        return result

    evaluation.train = capture
    try:
        cfg = synthgen.WorldConfig(seed=seed, **size["world"])
        world = synthgen.generate(cfg)
        split = synthgen.filter_and_split(world.events, cfg.num_weeks)
        cat = world.ground_truth.catalog
        catalog = dataset.ItemCatalog(cat.item_vocab, cat.price, cat.category, cat.intro_week)
        trunc = TruncationConfig.uniform(world.channels, cfg.per_channel_n)
        data = dataset.build_dataset(
            world.events, world.channel_lists, catalog, world.channels,
            split.all_keys(), trunc,
        )
        params = TrainParams(
            shrinkage=0.15, min_examples_per_leaf=10, l2=1.0, seed=7, **size["train"]
        )
        report = evaluation.ablation_run(
            data, world.channel_lists, split,
            evaluation.AblationConfig(train_params=params, wi_seeds=size["wi_seeds"]),
        )
    finally:
        evaluation.train = fit
    return report, len(data), models


def _check(report, models, recorded: dict | None, out: Outcome) -> dict:
    """Gate each variant: finite NDCG in [0, 1], model sha256 and recorded values."""
    from channelrank.gbdt import model_fingerprint, serialize_model

    found = {"ndcg": {}, "frm_sha256": {}}
    by_name = {v.name: v for v in report.variants}
    trained = dict(zip(VARIANTS[1:], models))
    for name in VARIANTS:
        variant = by_name.get(name)
        ndcg = variant.mean_ndcg if variant else math.nan
        ok = variant is not None and math.isfinite(ndcg) and 0.0 <= ndcg <= 1.0
        found["ndcg"][name] = ndcg
        if name in trained:
            model = trained[name]
            found["frm_sha256"][name] = hashlib.sha256(serialize_model(model)).hexdigest()
            ok = ok and variant.model_fingerprint == model_fingerprint(model)
        if recorded is not None:
            ok = ok and recorded["ndcg"].get(name) == ndcg
            if name in trained:
                ok = ok and recorded["frm_sha256"].get(name) == found["frm_sha256"][name]
        out.gate(ok, f"variant {name}")
    return found


def run(seed: int, seconds: float, trace: bool, size: str, recorded: dict | None,
        import_s: float) -> Outcome:
    out = Outcome()
    cfg = SIZES[size]
    speed = Speedometer()
    k_start = speed.bracket()
    setup_raw = import_seconds()  # the only set-up; repeated, and the median kept
    setup_scale = speed.scale(k_start, speed.bracket())

    walls: list[float] = []
    scaled: list[float] = []
    instances = 0
    found: dict = {}
    started = time.perf_counter()
    while not walls or (not trace and time.perf_counter() - started < seconds):
        clock = SegmentClock(speed)
        clock.checkpoint()
        report, instances, models = _ablation(cfg, seed, clock.checkpoint)
        clock.checkpoint()
        walls.append(clock.raw)
        scaled.append(clock.scaled)
        found = _check(report, models, recorded, out)

    for name in VARIANTS:
        sha = found["frm_sha256"].get(name, "-")
        out.notes.append(f"{name:<9} ndcg@8={found['ndcg'][name]!r} frm_sha256={sha}")
    out.notes.append(f"instances={instances} ablations={len(walls)}")
    out.notes.append("record: " + json.dumps(found, sort_keys=True))

    if not trace:
        wall = sum(scaled) / len(scaled)
        out.notes.append(f"raw: setup {setup_raw:.3f} s, wall mean {sum(walls) / len(walls):.3f} s "
                         f"p50 {percentile(walls, 50):.3f} s over {len(walls)} ablation(s); "
                         f"speed scale setup {setup_scale:.4f} ablation {sum(scaled) / sum(walls):.4f}")
        out.end_to_end = {
            "setup_s": setup_raw * setup_scale,
            "latency_mean_ms": wall * 1e3,
            "latency_p95_ms": percentile(scaled, 95) * 1e3,
            "throughput_per_s": instances / wall,
            "peak_rss_mb": self_peak_rss_mb(),
        }
        return out

    tracer = Tracer()
    with installed(tracer):
        t0 = time.perf_counter()
        report, _, models = tracer.call("bench.ablate", _ablation, cfg, seed)
        traced_wall = time.perf_counter() - t0
    _check(report, models, recorded, out)
    out.per_layer = layer_metrics(tracer)
    out.per_layer["trace.overhead_frac"] = traced_wall / walls[0] - 1.0  # raw against raw
    out.per_layer["trace.remainder_frac"] = remainder_frac(tracer, "bench.ablate")
    return out
