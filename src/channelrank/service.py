"""Low-latency scoring service over a trained model.

The service is stateless given (model file, item-feature sidecar): a
request carries the query's channel lists inline (same fields as the
text interchange format) plus an optional precomputed engagement map;
item-group features come from a sidecar table loaded at startup, with
neutral defaults for unknown items so item columns are never missing.

Request body (JSON, ``POST /v1/score``)::

    {"query": "...",
     "channels": [{"name": "lexical", "entries": [["item", 0.93], ...]}, ...],
     "engagement": {"item": {"qi_engagement_w1": 0.5, ...}, ...}}   # optional

Response::

    {"query": "...",
     "results": [{"item": "...", "score": 1.23, "channels": ["lexical", ...]}, ...],
     "model_fingerprint": "...",
     "latency_us": 812}

``GET /v1/health`` reports status, model fingerprint, and format version.
Malformed requests (engagement values included: each must be a finite
number) and pools beyond the configured cap return HTTP 400 with an
``{"error": ...}`` body; any other failure while scoring returns 500 with
the same shape and logs its traceback.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import platform
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .core import ChannelId, ChannelList, TruncationConfig, merge_pool
from .gbdt.model import Model
from .gbdt.serialize import model_fingerprint

DEFAULT_POOL_CAP = 500

_log = logging.getLogger(__name__)


class ServiceError(ValueError):
    """Client-side request problem; maps to HTTP 400."""


def _engagement_value(value: object, column: str, item: str) -> float:
    """``value`` as a float if it is a finite real number, else ServiceError."""
    if type(value) is float:
        number = value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
    else:
        number = math.nan
    if not math.isfinite(number):
        raise ServiceError(
            f"engagement {column!r} for {item!r} must be a finite number, got {value!r}"
        )
    return number


@dataclass(slots=True)
class ItemFeatureTable:
    """Per-item values for the model's item-group columns."""

    columns: tuple[str, ...]
    matrix: np.ndarray
    index: dict[str, int]

    @classmethod
    def from_file(cls, path: str) -> ItemFeatureTable:
        """Load the tab-separated sidecar (header: item_id + column names)."""
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split("\t")
            if not header or header[0] != "item_id":
                raise ValueError(f"{path}: first header field must be item_id")
            columns = tuple(header[1:])
            rows: list[list[float]] = []
            index: dict[str, int] = {}
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != len(columns) + 1:
                    raise ValueError(f"{path}:{lineno}: wrong field count")
                index[parts[0]] = len(rows)
                rows.append([float(v) for v in parts[1:]])
        return cls(columns=columns, matrix=np.array(rows, dtype=np.float64), index=index)


def write_item_features(path: str, columns: Sequence[str], items: Mapping[str, Sequence[float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("item_id\t" + "\t".join(columns) + "\n")
        for item in sorted(items):
            values = items[item]
            fh.write(item + "\t" + "\t".join(repr(float(v)) for v in values) + "\n")


class ScoreService:
    """In-process scorer; the HTTP layer is a thin wrapper around it."""

    def __init__(
        self,
        model: Model,
        item_features: ItemFeatureTable | None = None,
        pool_cap: int = DEFAULT_POOL_CAP,
    ):
        self.model = model
        self.pool_cap = pool_cap
        self.fingerprint = model_fingerprint(model)
        schema = model.schema
        self.channel_names: list[str] = []
        for col in schema.columns:
            if col.group == "channel" and col.name.endswith("_score") and col.name.startswith("ch_"):
                self.channel_names.append(col.name[len("ch_"):-len("_score")])
        self.channels = {
            name: ChannelId(i, name) for i, name in enumerate(self.channel_names)
        }
        self._col = {name: i for i, name in enumerate(schema.names)}
        self._item_cols = [
            (i, c.name) for i, c in enumerate(schema.columns) if c.group == "item"
        ]
        self._engagement_cols = [
            (i, c.name) for i, c in enumerate(schema.columns) if c.group == "engagement"
        ]
        self._hit_count_col = self._col.get("ch_hit_count")

        # Align the sidecar to the schema's item columns once, at startup.
        self._item_matrix: np.ndarray | None = None
        self._item_index: dict[str, int] = {}
        if item_features is not None:
            positions = []
            for _, name in self._item_cols:
                if name not in item_features.columns:
                    raise ValueError(f"item feature sidecar lacks column {name!r}")
                positions.append(item_features.columns.index(name))
            self._item_matrix = item_features.matrix[:, positions]
            self._item_index = item_features.index
        self._default_item_row = np.zeros(len(self._item_cols))

    def parse_request(self, payload: dict) -> tuple[str, list[ChannelList], dict]:
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        query = payload.get("query")
        if not isinstance(query, str) or not query:
            raise ServiceError("missing or empty 'query'")
        raw_channels = payload.get("channels")
        if not isinstance(raw_channels, list) or not raw_channels:
            raise ServiceError("'channels' must be a non-empty list")
        lists: list[ChannelList] = []
        seen: set[str] = set()
        for entry in raw_channels:
            if not isinstance(entry, dict):
                raise ServiceError("each channel must be an object")
            name = entry.get("name")
            if name not in self.channels:
                raise ServiceError(
                    f"unknown channel {name!r}; model knows {self.channel_names}"
                )
            if name in seen:
                raise ServiceError(f"duplicate channel {name!r}")
            seen.add(name)
            pairs = entry.get("entries")
            if not isinstance(pairs, list):
                raise ServiceError(f"channel {name!r} needs an 'entries' list")
            try:
                parsed = [(str(item), float(score)) for item, score in pairs]
                lists.append(ChannelList.from_pairs(self.channels[name], query, parsed))
            except (TypeError, ValueError) as exc:
                raise ServiceError(f"bad entries for channel {name!r}: {exc}") from exc
        if all(len(cl) == 0 for cl in lists):
            raise ServiceError("at least one channel list must be non-empty")
        engagement = payload.get("engagement", {})
        if engagement is None:
            engagement = {}
        if not isinstance(engagement, dict):
            raise ServiceError("'engagement' must be an object keyed by item id")
        return query, lists, engagement

    def score(self, payload: dict) -> dict:
        """Merge, featurize, predict, sort; returns the response body."""
        started = time.perf_counter()
        query, lists, engagement = self.parse_request(payload)
        cfg = TruncationConfig(
            per_channel_n={cl.channel: max(len(cl), 1) for cl in lists}
        )
        pool = merge_pool(lists, cfg)
        if len(pool) > self.pool_cap:
            raise ServiceError(
                f"candidate pool of {len(pool)} exceeds cap {self.pool_cap}"
            )
        items = sorted(pool.candidates)
        n = len(items)
        X = np.full((n, len(self.model.schema)), np.nan)

        item_cols = np.array([i for i, _ in self._item_cols])
        if self._item_matrix is not None:
            rows = np.array(
                [self._item_index.get(item, -1) for item in items], dtype=np.int64
            )
            known = rows >= 0
            block = np.tile(self._default_item_row, (n, 1))
            if known.any():
                block[known] = self._item_matrix[rows[known]]
            X[:, item_cols] = block
        else:
            X[:, item_cols] = self._default_item_row

        if engagement:
            for r, item in enumerate(items):
                values = engagement.get(item)
                if not values:
                    continue
                if not isinstance(values, dict):
                    raise ServiceError(f"engagement for {item!r} must be an object")
                for ci, name in self._engagement_cols:
                    if name in values:
                        X[r, ci] = _engagement_value(values[name], name, item)

        item_row = {item: r for r, item in enumerate(items)}
        hit_counts = np.zeros(n)
        provenance_names: list[list[str]] = [[] for _ in range(n)]
        for item, hits in pool.provenance.items():
            r = item_row[item]
            hit_counts[r] = len(hits)
            for hit in hits:
                X[r, self._col[f"ch_{hit.channel.name}_score"]] = hit.score
                X[r, self._col[f"ch_{hit.channel.name}_rank"]] = float(hit.rank)
                provenance_names[r].append(hit.channel.name)
        if self._hit_count_col is not None:
            X[:, self._hit_count_col] = hit_counts

        scores = self.model.predict_matrix(X)
        order = np.lexsort((np.array(items, dtype=object), -scores))
        latency_us = int((time.perf_counter() - started) * 1e6)
        return {
            "query": query,
            "results": [
                {
                    "item": items[i],
                    "score": float(scores[i]),
                    "channels": provenance_names[i],
                }
                for i in order
            ],
            "model_fingerprint": self.fingerprint,
            "latency_us": latency_us,
        }

    def health(self) -> dict:
        return {
            "status": "ok",
            "model_fingerprint": self.fingerprint,
            "format_version": self.model.format_version,
            "channels": self.channel_names,
            "pool_cap": self.pool_cap,
        }


def make_server(service: ScoreService, host: str = "127.0.0.1", port: int = 8351) -> ThreadingHTTPServer:
    """HTTP wrapper; run with ``serve_forever`` (or in a thread for tests)."""

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):  # silence request logging
            pass

        def _send(self, code: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/v1/health":
                self._send(200, service.health())
            else:
                self._send(404, {"error": f"unknown path {self.path}"})

        def do_POST(self):
            if self.path != "/v1/score":
                self._send(404, {"error": f"unknown path {self.path}"})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:
                    raise ValueError(f"negative Content-Length {length}")
                payload = json.loads(self.rfile.read(length).decode("utf-8"))
            except (ValueError, UnicodeDecodeError, RecursionError) as exc:
                self._send(400, {"error": f"malformed request body: {exc}"})
                return
            try:
                response = service.score(payload)
            except ServiceError as exc:
                self._send(400, {"error": str(exc)})
                return
            except Exception as exc:
                _log.exception("scoring failed")
                self._send(500, {"error": f"internal error: {type(exc).__name__}"})
                return
            self._send(200, response)

    return ThreadingHTTPServer((host, port), Handler)


# ---------------------------------------------------------------------------
# Latency benchmark
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class LatencyReport:
    request_count: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_pool_size: float
    max_pool_size: int
    hardware: str
    end_to_end: dict[str, float] | None = None

    def __post_init__(self) -> None:
        if not self.p50_ms <= self.p95_ms <= self.p99_ms:
            raise ValueError("latency percentiles must be non-decreasing")

    def as_dict(self) -> dict:
        out = {
            "request_count": self.request_count,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_pool_size": self.mean_pool_size,
            "max_pool_size": self.max_pool_size,
            "hardware": self.hardware,
        }
        if self.end_to_end is not None:
            out["end_to_end"] = self.end_to_end
        return out

    def render_text(self) -> str:
        lines = [
            f"requests      {self.request_count}",
            f"in-process    p50={self.p50_ms:.3f} ms  p95={self.p95_ms:.3f} ms  "
            f"p99={self.p99_ms:.3f} ms",
            f"pool size     mean={self.mean_pool_size:.1f}  max={self.max_pool_size}",
            f"hardware      {self.hardware}",
        ]
        if self.end_to_end is not None:
            lines.insert(
                2,
                f"end-to-end    p50={self.end_to_end['p50_ms']:.3f} ms  "
                f"p95={self.end_to_end['p95_ms']:.3f} ms  "
                f"p99={self.end_to_end['p99_ms']:.3f} ms",
            )
        return "\n".join(lines)


def hardware_note() -> str:
    import os

    return (
        f"{platform.system()} {platform.machine()}, "
        f"{os.cpu_count()} cpus, python {platform.python_version()}, "
        f"numpy {np.__version__}"
    )


def synth_requests(
    service: ScoreService,
    n_requests: int,
    pool_items: int = 100,
    seed: int = 0,
    item_ids: Sequence[str] | None = None,
) -> list[dict]:
    """Benchmark workload: channel lists drawn over a shared item universe."""
    rng = np.random.default_rng(seed)
    names = service.channel_names
    per_channel = max(1, math.ceil(pool_items / len(names)))
    universe: Sequence[str]
    if item_ids is not None and len(item_ids) >= per_channel:
        universe = list(item_ids)
    else:
        universe = [f"bench{i:05d}" for i in range(max(4 * pool_items, 1000))]
    requests = []
    for r in range(n_requests):
        channels = []
        for name in names:
            picks = rng.choice(len(universe), size=per_channel, replace=False)
            scores = rng.normal(size=per_channel)
            channels.append(
                {
                    "name": name,
                    "entries": [
                        [universe[int(i)], float(s)] for i, s in zip(picks, scores)
                    ],
                }
            )
        requests.append({"query": f"bench-query-{r}", "channels": channels})
    return requests


def bench(
    service: ScoreService,
    requests: Sequence[dict],
    url: str | None = None,
) -> LatencyReport:
    """Replay a workload in-process (and optionally over HTTP at ``url``)."""
    if not requests:
        raise ValueError("bench needs at least one request")
    laps = np.empty(len(requests))
    pools = np.empty(len(requests))
    for i, req in enumerate(requests):
        t0 = time.perf_counter()
        response = service.score(req)
        laps[i] = time.perf_counter() - t0
        pools[i] = len(response["results"])
    end_to_end = None
    if url is not None:
        import urllib.request

        e2e = np.empty(len(requests))
        for i, req in enumerate(requests):
            body = json.dumps(req).encode("utf-8")
            t0 = time.perf_counter()
            http_req = urllib.request.Request(
                url.rstrip("/") + "/v1/score",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(http_req) as resp:
                resp.read()
            e2e[i] = time.perf_counter() - t0
        end_to_end = {
            "p50_ms": float(np.percentile(e2e, 50) * 1000),
            "p95_ms": float(np.percentile(e2e, 95) * 1000),
            "p99_ms": float(np.percentile(e2e, 99) * 1000),
        }
    return LatencyReport(
        request_count=len(requests),
        p50_ms=float(np.percentile(laps, 50) * 1000),
        p95_ms=float(np.percentile(laps, 95) * 1000),
        p99_ms=float(np.percentile(laps, 99) * 1000),
        mean_pool_size=float(pools.mean()),
        max_pool_size=int(pools.max()),
        hardware=hardware_note(),
        end_to_end=end_to_end,
    )
