"""The HTTP layer: the pool100 model behind ``channelrank serve``, open-loop load.

Measured in the traced run of ``score_pool100`` (see README.md for why it is
not a workload of its own). Seeded Poisson arrivals go out over at most two
connections at a fixed 40 req/s, then up a fixed ladder of rates until a
rate misses the latency limit. Every request is timed from its due time, so
a stall also charges the requests queued behind it. One request in 25 is
malformed and must be answered 400.
"""

from __future__ import annotations

import bisect
import http.client
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass

import numpy as np

from common import BenchError, Outcome, child_env, percentile

FIXED_RATE = 40                      # req/s
LADDER = (70, 100, 130, 160, 200)    # req/s, climbed until one misses
FIXED_SHARE = 0.5                    # of --seconds at FIXED_RATE
RUNG_SHARE = 0.25                    # of --seconds, each ladder rate
SLO_P95_MS = 50.0                             # the paper's scoring budget
MALFORMED_EVERY = 25                          # one request in 25 is malformed
MALFORMED_KINDS = ("unknown_channel", "over_cap", "bad_entries", "nonnumeric_engagement")
CONNECTIONS = 2
TIMEOUT_S = 10.0


def malformed(kind: str, base: dict, pool_cap: int) -> dict:
    """A request the README says must get a 400."""
    req = json.loads(json.dumps(base))
    if kind == "unknown_channel":
        req["channels"].append({"name": "no_such_channel", "entries": [["x", 1.0]]})
    elif kind == "over_cap":
        per = pool_cap // len(req["channels"]) + 5
        for c, channel in enumerate(req["channels"]):
            channel["entries"] = [[f"overcap{c}-{j}", float(-j)] for j in range(per)]
    elif kind == "bad_entries":
        req["channels"][0]["entries"] = [[req["channels"][0]["entries"][0][0]]]
    elif kind == "nonnumeric_engagement":
        item = req["channels"][0]["entries"][0][0]
        req["engagement"] = {item: {"qi_engagement_w1": "abc"}}
    else:
        raise ValueError(kind)
    return req


@dataclass(slots=True)
class Planned:
    offset: float       # due time after the rung starts, seconds
    kind: str           # "ok" or one of MALFORMED_KINDS
    index: int          # which well-formed request (or its malformed variant)


@dataclass(slots=True)
class Sent:
    plan: Planned
    due: float
    start: float
    end: float
    late: float         # generator lateness: oversleep past the due time
    backlog: int        # requests due but not yet started, this one included
    status: int | None
    body: bytes | None
    error: str | None


def _next(cursor: list[int], phase: int, n_requests: int, offset: float) -> Planned:
    """Number requests across phases so that one in MALFORMED_EVERY is
    malformed, at seeded positions, the kinds in turn."""
    j = cursor[0]
    cursor[0] += 1
    kind = "ok"
    if (j + phase) % MALFORMED_EVERY == 0:
        kind = MALFORMED_KINDS[(j // MALFORMED_EVERY) % len(MALFORMED_KINDS)]
    return Planned(offset, kind, j % n_requests)


def plan_rate(rate: float, duration: float, seed: int, rung: int, n_requests: int,
              cursor: list[int]) -> list[Planned]:
    """Seeded Poisson arrivals at ``rate`` for ``duration`` seconds."""
    rng = np.random.default_rng([seed, 29, rung])
    plan: list[Planned] = []
    offset = rng.exponential(1.0 / rate)
    while offset < duration:
        plan.append(_next(cursor, seed % MALFORMED_EVERY, n_requests, offset))
        offset += rng.exponential(1.0 / rate)
    return plan


def post(port: int, body: bytes) -> tuple[int | None, bytes | None, str | None]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("POST", "/v1/score", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read(), None
    except (OSError, http.client.HTTPException) as exc:
        return None, None, type(exc).__name__
    finally:
        conn.close()


def drive(port: int, plan: list[Planned], bodies: dict[tuple[str, int], bytes]) -> list[Sent]:
    """Send ``plan`` on schedule over CONNECTIONS client threads."""
    offsets = [p.offset for p in plan]
    results: list[Sent | None] = [None] * len(plan)
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= len(plan):
                    return
                cursor[0] += 1
            p = plan[i]
            due = t0 + p.offset
            now = time.perf_counter()
            late = 0.0
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
                late = now - due
            backlog = bisect.bisect_right(offsets, now - t0) - i
            status, body, error = post(port, bodies[(p.kind, p.index)])
            results[i] = Sent(p, due, now, time.perf_counter(), late, backlog,
                              status, body, error)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    last_due = plan[-1].offset if plan else 0.0
    for t in threads:
        t.join(timeout=last_due + 60.0)
        if t.is_alive():
            raise BenchError("client thread did not finish")
    return [r for r in results if r is not None]


def judge(sent: list[Sent], expected: list[dict], out: Outcome) -> dict:
    """Check every answer and summarize one rung."""
    lat_ms: list[float] = []
    good_ms: list[float] = []
    server_ms: list[float] = []
    overhead_ms: list[float] = []
    ok = failed = 0
    for s in sent:
        good = False
        if s.plan.kind == "ok":
            if s.status == 200:
                doc = json.loads(s.body)
                latency_us = doc.pop("latency_us", None)
                good = out.gate(doc == expected[s.plan.index],
                                f"HTTP body for request {s.plan.index} differs from in-process")
                if good:
                    good_ms.append((s.end - s.due) * 1e3)
                    server_ms.append(latency_us / 1e3)
                    overhead_ms.append((s.end - s.start) * 1e3 - latency_us / 1e3)
            else:
                out.op(False, f"well-formed request got {s.status or s.error}")
            # A failed request misses any latency limit.
            lat_ms.append((s.end - s.due) * 1e3 if good else TIMEOUT_S * 1e3)
        else:
            good = s.status == 400 and "error" in json.loads(s.body or b"{}")
            out.op(good, f"{s.plan.kind} got {s.status or s.error}, expected 400")
        ok += good
        failed += not good
    third = max(len(sent) // 3, 1)
    first = np.mean([s.backlog for s in sent[:third]]) if sent else 0.0
    last = np.mean([s.backlog for s in sent[-third:]]) if sent else 0.0
    p95 = percentile(lat_ms, 95)
    return {
        "sent": len(sent), "ok": ok, "failed": failed,
        "mean_ms": float(np.mean(good_ms)) if good_ms else math.nan,
        "p50_ms": percentile(lat_ms, 50), "p95_ms": p95,
        "late_mean_ms": float(np.mean([s.late for s in sent]) * 1e3) if sent else 0.0,
        "late_max_ms": max((s.late for s in sent), default=0.0) * 1e3,
        "backlog_max": max((s.backlog for s in sent), default=0),
        "backlog_first": float(first), "backlog_last": float(last),
        "server_ms": float(np.mean(server_ms)) if server_ms else 0.0,
        "overhead_ms": float(np.mean(overhead_ms)) if overhead_ms else 0.0,
        "passed": bool(lat_ms) and p95 <= SLO_P95_MS and last <= first + 1.0,
    }


def max_rate(rungs: list[tuple[float, dict]]) -> float:
    """Highest rate meeting the limit.

    Between the last passing rung and the next (missing) one, p95 grows
    roughly exponentially with the rate, so the crossing of the limit is
    interpolated on log p95.
    """
    passed = [(r, s) for r, s in rungs if s["passed"]]
    if not passed:
        rate, stats = rungs[0]
        return rate * SLO_P95_MS / max(stats["p95_ms"], SLO_P95_MS)
    r1, s1 = passed[-1]
    after = [(r, s) for r, s in rungs if r > r1]
    if not after:
        return r1
    r2, s2 = after[0]
    lo, hi = math.log(s1["p95_ms"]), math.log(max(s2["p95_ms"], SLO_P95_MS))
    if hi <= lo:
        return r1
    share = (math.log(SLO_P95_MS) - lo) / (hi - lo)
    return r1 + (r2 - r1) * min(max(share, 0.0), 1.0)


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """A scoring server child process; ``start`` returns once it answers."""

    def __init__(self, work: str, model: str, items: str):
        self.port = free_port()
        argv = [sys.executable, "-m", "channelrank.cli", "serve", "--model", model,
                "--items", items, "--bind", f"127.0.0.1:{self.port}"]
        self.log = open(os.path.join(work, f"server-{self.port}.log"), "wb")
        self.proc = subprocess.Popen(argv, env=child_env(), stdout=self.log,
                                     stderr=subprocess.STDOUT)

    @classmethod
    def start(cls, work: str, model: str, items: str) -> Server:
        server = cls(work, model, items)
        try:
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
        return server

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        url = f"http://127.0.0.1:{self.port}/v1/health"
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited {self.proc.returncode} before it was ready")
            try:
                with urllib.request.urlopen(url, timeout=1.0) as resp:
                    if resp.status == 200:
                        return
            except OSError:
                time.sleep(0.02)
        raise BenchError("server not ready in time")

    def stop(self) -> None:
        """SIGINT (``channelrank serve`` exits cleanly on it), then kill if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.log.close()


def _describe(label: str, stats: dict) -> str:
    return (
        f"{label}: sent {stats['sent']} ok {stats['ok']} failed {stats['failed']} "
        f"mean {stats['mean_ms']:.2f} ms p50 {stats['p50_ms']:.2f} ms p95 {stats['p95_ms']:.2f} ms "
        f"late mean {stats['late_mean_ms']:.3f} ms max {stats['late_max_ms']:.2f} ms "
        f"backlog max {stats['backlog_max']} first/last third "
        f"{stats['backlog_first']:.2f}/{stats['backlog_last']:.2f} "
        f"{'pass' if stats['passed'] else 'miss'}"
    )


def run_rates(server: Server, seconds: float, seed: int, bodies, expected,
              out: Outcome) -> list[tuple[float, dict]]:
    """The fixed rate, then each ladder rate until one misses."""
    rates = [(FIXED_RATE, FIXED_SHARE)] + [(r, RUNG_SHARE) for r in LADDER]
    rungs = []
    cursor = [0]
    for rung, (rate, share) in enumerate(rates):
        plan = plan_rate(rate, max(seconds * share, 0.5), seed, rung, len(expected), cursor)
        stats = judge(drive(server.port, plan, bodies), expected, out)
        rungs.append((rate, stats))
        out.notes.append(_describe(f"rate {rate}/s", stats))
        if not stats["passed"]:
            break
    return rungs


def measure(work: str, model_path: str, items_path: str, service, requests: list[dict],
            seconds: float, seed: int, out: Outcome) -> dict[str, float]:
    """Serve the model over HTTP and return the ``http.*`` per-layer metrics.

    Every well-formed answer must equal the in-process response to the same
    request, ``latency_us`` aside.
    """
    expected = []
    for req in requests:
        response = service.score(req)
        response.pop("latency_us")
        expected.append(response)
    bodies = {("ok", k): json.dumps(req).encode() for k, req in enumerate(requests)}
    for kind in MALFORMED_KINDS:
        for k, req in enumerate(requests):
            bodies[(kind, k)] = json.dumps(malformed(kind, req, service.pool_cap)).encode()
    server = Server.start(work, model_path, items_path)
    try:
        rungs = run_rates(server, seconds, seed, bodies, expected, out)
    finally:
        server.stop()
    stats = [s for _, s in rungs]
    return {
        "http.latency_mean_ms": stats[0]["mean_ms"],
        "http.latency_p95_ms": stats[0]["p95_ms"],
        "http.server_ms": stats[0]["server_ms"],
        "http.overhead_ms": stats[0]["overhead_ms"],
        "http.generator_late_ms": float(np.mean([s["late_mean_ms"] for s in stats])),
        "http.backlog_max": float(max(s["backlog_max"] for s in stats)),
        "http.sent": float(sum(s["sent"] for s in stats)),
        "http.ok": float(sum(s["ok"] for s in stats)),
        "http.failed": float(sum(s["failed"] for s in stats)),
        "http.max_rps": max_rate(rungs),
    }
