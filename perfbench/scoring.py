"""score_pool100 and score_oblique: closed-loop in-process ScoreService.score.

Set-up runs the operator path (``channelrank generate``, ``build-dataset
--item-features-out``, ``train``) in child processes, then loads the model
and sidecar the way ``channelrank serve`` does. The world and model are
fixed; ``--seed`` picks the requests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from common import (
    BenchError, Outcome, Speedometer, WorkDir, file_sha256, percentile, run_cli,
    self_peak_rss_mb,
)
import http_load
from tracer import Tracer, installed, layer_metrics, remainder_frac

SIZES = {
    "full": {
        "world": ["--queries", "40", "--items", "400", "--n-per-channel", "10", "--seed", "5"],
        "n_per_channel": "10",
        "per_channel": 25,
        "requests": {"pool100": 256, "oblique": 96},
        "models": {
            "pool100": ["--trees", "300", "--depth", "6"],
            "oblique": ["--trees", "40", "--depth", "6", "--oblique"],
        },
    },
    "tiny": {
        "world": ["--queries", "12", "--items", "150", "--n-per-channel", "6", "--seed", "5"],
        "n_per_channel": "6",
        "per_channel": 6,
        "requests": {"pool100": 12, "oblique": 12},
        "models": {
            "pool100": ["--trees", "5", "--depth", "3"],
            "oblique": ["--trees", "3", "--depth", "3", "--oblique"],
        },
    },
}
ENGAGED_SHARE = 1.0 / 3.0
KERNEL_EVERY_S = 0.15  # seconds between calibration kernel samples in the timed loop


def _run_cli_traced(args: list[str]) -> None:
    """Run one CLI step in this process, so the installed wrappers see it."""
    from channelrank import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    if code != 0:
        raise BenchError(f"channelrank {args[0]} exited {code}")


def build_model(work: str, size: str, model: str, traced: bool) -> tuple[str, str]:
    """generate -> build-dataset -> train; returns (model path, sidecar path)."""
    cfg = SIZES[size]
    world = os.path.join(work, "world")
    data = os.path.join(work, "dataset.tsv")
    items = os.path.join(work, "items.tsv")
    model_path = os.path.join(work, f"{model}.frm")
    steps = [
        ["generate", "--out", world, *cfg["world"]],
        ["build-dataset", "--events", os.path.join(world, "events.tsv"),
         "--lists-dir", world, "--catalog", os.path.join(world, "catalog.tsv"),
         "--out", data, "--n-per-channel", cfg["n_per_channel"],
         "--item-features-out", items],
        ["train", "--data", data, "--out", model_path, *cfg["models"][model]],
    ]
    for step in steps:
        if traced:
            _run_cli_traced(step)
        else:
            run_cli(step)
    return model_path, items


def load_service(model_path: str, items_path: str):
    """The in-process service exactly as ``channelrank serve`` builds it."""
    from channelrank.gbdt import load_model
    from channelrank.service import ItemFeatureTable, ScoreService

    table = ItemFeatureTable.from_file(items_path)
    return ScoreService(load_model(model_path), item_features=table), sorted(table.index)


def make_requests(service, item_ids: list[str], n: int, per_channel: int, seed: int) -> list[dict]:
    """Well-formed requests over the sidecar's item ids.

    Each channel lists ``per_channel`` items. Channels share at most
    ``per_channel // 6`` items, so pools hold between about 96% and all of
    the entries, and about a third of each pool carries an engagement map.
    """
    rng = np.random.default_rng([seed, 17])
    names = service.channel_names
    engagement_cols = [c.name for c in service.model.schema.columns if c.group == "engagement"]
    requests = []
    for r in range(n):
        picks = rng.choice(len(item_ids), size=(len(names), per_channel), replace=False)
        shared = int(rng.integers(per_channel // 6 + 1))
        picks[-1, per_channel - shared:] = picks[0, :shared]
        channels = []
        for name, row in zip(names, picks):
            scores = np.round(rng.normal(size=per_channel), 6)
            channels.append({"name": name, "entries": [
                [item_ids[int(i)], float(s)] for i, s in zip(row, scores)
            ]})
        engagement = {}
        for i in sorted(set(picks.ravel().tolist())):
            if rng.random() < ENGAGED_SHARE:
                values = np.round(rng.exponential(1.0, size=len(engagement_cols)), 4)
                engagement[item_ids[i]] = dict(zip(engagement_cols, map(float, values)))
        requests.append({"query": f"bench-{seed}-{r}", "channels": channels,
                         "engagement": engagement})
    return requests


def check_response(request: dict, response: dict) -> str | None:
    """Each pool item once, score desc with item id asc on ties, finite scores."""
    pool = {item for ch in request["channels"] for item, _ in ch["entries"]}
    results = response.get("results", [])
    items = [r["item"] for r in results]
    if len(items) != len(pool) or set(items) != pool:
        return "response does not list each pool item exactly once"
    scores = [r["score"] for r in results]
    if not all(isinstance(s, float) and math.isfinite(s) for s in scores):
        return "non-finite score"
    keys = [(-s, i) for s, i in zip(scores, items)]
    if any(a > b for a, b in zip(keys, keys[1:])):
        return "results not ordered by score desc, item id asc"
    return None


def fingerprint(response: dict) -> bytes:
    h = hashlib.sha256()
    for r in response["results"]:
        h.update(f"{r['item']}\t{float(r['score']).hex()}\n".encode())
    return h.digest()


def digest(fingerprints: list[bytes]) -> str:
    """sha256 over every (item, score) pair of every distinct request, in order."""
    return hashlib.sha256(b"".join(fingerprints)).hexdigest()


@dataclass(slots=True)
class Pass:
    latencies: list[float]
    fingerprints: list[bytes]
    kernel: list[float]  # calibration kernel times, one per window of requests
    window: list[int]    # the window of each latency

    def scaled_latencies(self) -> list[float]:
        """Each latency at reference speed, scaled by the kernel times around its window."""
        return [
            lat * Speedometer.scale(*self.kernel[w:w + 2])
            for lat, w in zip(self.latencies, self.window)
        ]


def score_pass(service, requests, out: Outcome, seconds: float = 0.0,
               tracer: Tracer | None = None, speed: Speedometer | None = None) -> Pass:
    """Closed loop, one caller: every request once, then cycle until ``seconds``.

    Each response is checked outside the timed call; a repeat of a request
    must reproduce its first response exactly. With ``speed``, the
    calibration kernel runs every KERNEL_EVERY_S seconds, between requests.
    """
    latencies: list[float] = []
    kernel: list[float] = []
    window: list[int] = []
    next_kernel = 0.0
    prints: list[bytes | None] = [None] * len(requests)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(requests) or time.perf_counter() < deadline:
        k = i % len(requests)
        req = requests[k]
        if speed is not None and time.perf_counter() >= next_kernel:
            kernel.append(speed.kernel())
            next_kernel = time.perf_counter() + KERNEL_EVERY_S
        try:
            if tracer is None:
                t0 = time.perf_counter()
                response = service.score(req)
                latencies.append(time.perf_counter() - t0)
                window.append(len(kernel) - 1)
            else:
                tracer.request = k + 1
                t0 = time.perf_counter()
                response = tracer.call("bench.request", service.score, req)
                latencies.append(time.perf_counter() - t0)
                tracer.request = 0
        except ValueError as exc:
            out.gate(False, f"request {k} raised {exc}")
            i += 1
            continue
        problem = check_response(req, response)
        fp = fingerprint(response)
        if prints[k] is None:
            prints[k] = fp
        elif problem is None and prints[k] != fp:
            problem = "repeat of a request changed its response"
        out.gate(problem is None, f"request {k}: {problem}")
        i += 1
    return Pass(latencies, [p or b"" for p in prints], kernel, window)


def check_digests(out: Outcome, model_sha: str, responses_digest: str,
                  recorded: dict | None) -> None:
    out.notes.append(f"model frm_sha256={model_sha}")
    out.notes.append(f"response digest={responses_digest}")
    if recorded is not None:
        out.gate(recorded.get("frm_sha256") == model_sha, "model .frm sha256 vs recorded")
        out.gate(recorded.get("digest") == responses_digest, "response digest vs recorded")


def run(model: str, seed: int, seconds: float, trace: bool, size: str,
        recorded: dict | None, import_s: float) -> Outcome:
    """One run of ``score_pool100`` (``model="pool100"``) or ``score_oblique``."""
    out = Outcome()
    cfg = SIZES[size]
    speed = Speedometer()
    k_start = speed.bracket()
    with WorkDir() as work:
        t0 = time.perf_counter()
        tracer = Tracer() if trace else None
        with installed(tracer):
            model_path, items_path = build_model(work, size, model, traced=trace)
        service, item_ids = load_service(model_path, items_path)
        requests = make_requests(service, item_ids, cfg["requests"][model],
                                 cfg["per_channel"], seed)
        for req in requests[:3]:
            service.score(req)  # lazy forest packing happens before timing
        setup_raw = import_s + time.perf_counter() - t0
        k_setup = speed.bracket()
        model_sha = file_sha256(model_path)

        plain = score_pass(service, requests, out, seconds=0.0 if trace else seconds,
                           speed=None if trace else speed)
        check_digests(out, model_sha, digest(plain.fingerprints), recorded)
        pools = [len({i for ch in r["channels"] for i, _ in ch["entries"]}) for r in requests]
        out.notes.append(f"requests={len(plain.latencies)} distinct={len(requests)} "
                         f"pool min/mean/max={min(pools)}/{np.mean(pools):.1f}/{max(pools)}")
        if not trace:
            setup_scale = speed.scale(k_start, k_setup)
            raw = plain.latencies
            scaled = plain.scaled_latencies()
            mean = sum(scaled) / len(scaled)
            out.notes.append(
                f"raw: setup {setup_raw:.3f} s, latency mean {sum(raw) / len(raw) * 1e3:.3f} ms "
                f"p50 {percentile(raw, 50) * 1e3:.3f} ms p95 {percentile(raw, 95) * 1e3:.3f} ms "
                f"p99 {percentile(raw, 99) * 1e3:.3f} ms; speed scale setup {setup_scale:.4f} "
                f"loop {sum(scaled) / sum(raw):.4f}; scaled p50 {percentile(scaled, 50) * 1e3:.3f} ms"
            )
            out.end_to_end = {
                "setup_s": setup_raw * setup_scale,
                "latency_mean_ms": mean * 1e3,
                "latency_p95_ms": percentile(scaled, 95) * 1e3,
                "throughput_per_s": 1.0 / mean,
                "peak_rss_mb": self_peak_rss_mb(),
            }
            return out

        with installed(tracer):
            traced = score_pass(service, requests, out, tracer=tracer)
        out.gate(traced.fingerprints == plain.fingerprints,
                 "traced responses differ from untraced ones")
        out.per_layer = layer_metrics(tracer, requests=len(requests))
        out.per_layer["trace.overhead_frac"] = sum(traced.latencies) / sum(plain.latencies) - 1.0
        out.per_layer["trace.remainder_frac"] = remainder_frac(tracer, "bench.request")
        if model == "pool100":
            out.per_layer.update(
                http_load.measure(work, model_path, items_path, service, requests, seconds,
                                  seed, out)
            )
        return out
