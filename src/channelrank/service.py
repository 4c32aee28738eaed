"""Low-latency scoring service over a trained model.

The service is stateless given (model file, item-feature sidecar): a
request carries the query's channel lists inline (same fields as the
text interchange format) plus an optional precomputed engagement map;
item-group features come from a sidecar table loaded at startup. An
item the sidecar lacks is scored from an all-zero item row (price 0,
category 0, age 0, no history), which no training row has; the response
counts such items in ``unknown_items``.

Request body (JSON, ``POST /v1/score``)::

    {"query": "...",
     "channels": [{"name": "lexical", "entries": [["item", 0.93], ...]}, ...],
     "engagement": {"item": {"qi_engagement_w1": 0.5, ...}, ...}}   # optional

Response::

    {"query": "...",
     "results": [{"item": "...", "score": 1.23, "channels": ["lexical", ...]}, ...],
     "unknown_items": 0,
     "model_fingerprint": "...",
     "latency_us": 812}

``GET /v1/health`` reports status, model fingerprint, and format version.
Malformed requests and pools beyond the configured cap return HTTP 400
with an ``{"error": ...}`` body. Item ids must be non-empty strings;
channel scores and engagement values must be finite numbers (bools and
numeric strings are rejected). Each engagement entry must be an object
whose keys are engagement columns of the model, whether or not its item
is in the pool. A ``Content-Length`` above
``MAX_BODY_BYTES`` gets 413 before the body is read. Any other failure
while scoring returns 500 with the same shape and logs its traceback.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import platform
import time
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .core import ChannelId, ChannelList, TruncationConfig, merge_pool, parse_finite, read_fields
from .features import fill_channel_block
from .gbdt.model import Model
from .gbdt.serialize import MODEL_FORMAT_VERSION, model_fingerprint
from .metrics import order_from_scores

DEFAULT_POOL_CAP = 500
#: Largest request body read; a longer Content-Length gets 413 before any read.
MAX_BODY_BYTES = 4 << 20

_log = logging.getLogger(__name__)


class ServiceError(ValueError):
    """Client-side request problem; maps to HTTP 400."""


def _finite_number(value: object) -> float:
    """``value`` as a float if it is a finite real number (not a bool), else ValueError."""
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
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _item_id(value: object) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"item id {value!r} is not a non-empty string")
    return value


@dataclass(slots=True)
class ItemFeatureTable:
    """Per-item values for the model's item-group columns."""

    columns: tuple[str, ...]
    matrix: np.ndarray
    index: dict[str, int]

    @classmethod
    def from_file(cls, path: str) -> ItemFeatureTable:
        """Load the tab-separated sidecar (header: item_id + column names)."""
        lines = read_fields(path, ids={0: "item"})
        _, (first, *columns) = next(lines, (1, [""]))
        if first != "item_id":
            raise ValueError(f"{path}:1: first header field must be item_id")
        for name in columns:
            if not name or columns.count(name) > 1:
                raise ValueError(f"{path}:1: column name {name!r} is empty or repeated")
        rows: list[list[float]] = []
        index: dict[str, int] = {}
        for lineno, (item, *cells) in lines:
            if item in index:
                raise ValueError(f"{path}:{lineno}: duplicate item id {item!r}")
            index[item] = len(rows)
            rows.append([parse_finite(v, c, path, lineno) for c, v in zip(columns, cells)])
        matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(columns))
        return cls(columns=tuple(columns), matrix=matrix, index=index)


def write_item_features(path: str, columns: Sequence[str], items: Mapping[str, Sequence[float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("item_id\t" + "\t".join(columns) + "\n")
        for item in sorted(items):
            values = items[item]
            fh.write(item + "\t" + "\t".join(repr(float(v)) for v in values) + "\n")


def check_pool_cap(pool_cap: int) -> int:
    """``pool_cap`` if it is at least 1, else ValueError."""
    if pool_cap < 1:
        raise ValueError(f"pool_cap must be >= 1, got {pool_cap}")
    return pool_cap


class ScoreService:
    """In-process scorer; the HTTP layer is a thin wrapper around it."""

    def __init__(
        self,
        model: Model,
        item_features: ItemFeatureTable | None = None,
        pool_cap: int = DEFAULT_POOL_CAP,
    ):
        self.pool_cap = check_pool_cap(pool_cap)
        self.model = model
        model.forest()  # compiled now, so the first request does not pay for it
        self.fingerprint = model_fingerprint(model)
        schema = model.schema
        self.channel_names = list(schema.channel_names)
        self.channels = {
            name: ChannelId(i, name) for i, name in enumerate(self.channel_names)
        }
        self._engagement_cols = {
            c.name: i for i, c in enumerate(schema.columns) if c.group == "engagement"
        }

        # Align the sidecar to the schema's item columns once, at startup. The
        # last row holds the all-zero defaults for items the sidecar lacks.
        self._item_cols = np.flatnonzero(schema.group_mask("item"))
        names = [schema.columns[i].name for i in self._item_cols]
        matrix = np.zeros((0, len(names)))
        self._item_index: dict[str, int] = {}
        if item_features is not None:
            for name in names:
                if name not in item_features.columns:
                    raise ValueError(f"item feature sidecar lacks column {name!r}")
            matrix = item_features.matrix[:, [item_features.columns.index(n) for n in names]]
            self._item_index = item_features.index
        self._item_matrix = np.vstack([matrix, np.zeros(len(names))])

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
            # A channel list holds distinct items, so more entries than the
            # cap can only make a pool above it; refuse before parsing them.
            if len(pairs) > self.pool_cap:
                raise ServiceError(
                    f"channel {name!r} has {len(pairs)} entries, so its pool "
                    f"exceeds cap {self.pool_cap}"
                )
            try:
                parsed = [(_item_id(item), _finite_number(score)) for item, score in pairs]
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
        pool = merge_pool(lists, TruncationConfig.whole(lists))
        if len(pool) > self.pool_cap:
            raise ServiceError(
                f"candidate pool of {len(pool)} exceeds cap {self.pool_cap}"
            )
        items = pool.items
        X = np.full((len(items), len(self.model.schema)), np.nan)
        default = len(self._item_matrix) - 1
        rows = [self._item_index.get(item, default) for item in items]
        X[:, self._item_cols] = self._item_matrix[rows]
        unknown_items = rows.count(default)
        if engagement:
            self._fill_engagement(X, items, engagement)
        fill_channel_block(X, self.model.schema, pool)

        scores = self.model.predict_matrix(X)
        # ``items`` is sorted, so the index tie-break orders equal scores by item id.
        order = order_from_scores(scores).tolist()
        scores = scores.tolist()
        # Hits run in channel-index order, so each row's names do too.
        names = [c.name for c in pool.channels]
        channels: list[list[str]] = [[] for _ in items]
        for row, c in zip(pool.hit_row.tolist(), pool.hit_channel.tolist()):
            channels[row].append(names[c])
        latency_us = int((time.perf_counter() - started) * 1e6)
        return {
            "query": query,
            "results": [
                {"item": items[i], "score": scores[i], "channels": channels[i]}
                for i in order
            ],
            "unknown_items": unknown_items,
            "model_fingerprint": self.fingerprint,
            "latency_us": latency_us,
        }

    def _fill_engagement(self, X: np.ndarray, items: Sequence[str], engagement: dict) -> None:
        """Write the engagement map's cells into the rows of ``items`` with one
        scatter. Every entry is checked, in the pool or not; the first bad
        one raises ServiceError."""
        row_of = dict(zip(items, range(len(items))))
        rows: list[int] = []
        cols: list[int] = []
        values: list[float] = []
        for item, cells in engagement.items():
            if not isinstance(cells, dict):
                raise ServiceError(f"engagement for {item!r} must be an object")
            row = row_of.get(item)
            for name, value in cells.items():
                col = self._engagement_cols.get(name)
                if col is None:
                    raise ServiceError(
                        f"engagement {name!r} for {item!r} is not an engagement column; "
                        f"model knows {list(self._engagement_cols)}"
                    )
                try:
                    value = _finite_number(value)
                except ValueError as exc:
                    raise ServiceError(f"engagement {name!r} for {item!r}: {exc}") from exc
                if row is not None:
                    rows.append(row)
                    cols.append(col)
                    values.append(value)
        X[rows, cols] = values

    def health(self) -> dict:
        return {
            "status": "ok",
            "model_fingerprint": self.fingerprint,
            "format_version": MODEL_FORMAT_VERSION,
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
                if length > MAX_BODY_BYTES:
                    self.close_connection = True
                    self._send(413, {"error": f"request body of {length} bytes exceeds "
                                              f"{MAX_BODY_BYTES}"})
                    return
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

    def __post_init__(self) -> None:
        if not self.p50_ms <= self.p95_ms <= self.p99_ms:
            raise ValueError("latency percentiles must be non-decreasing")

    def as_dict(self) -> dict:
        return asdict(self)

    def render_text(self) -> str:
        lines = [
            f"requests      {self.request_count}",
            f"in-process    p50={self.p50_ms:.3f} ms  p95={self.p95_ms:.3f} ms  "
            f"p99={self.p99_ms:.3f} ms",
            f"pool size     mean={self.mean_pool_size:.1f}  max={self.max_pool_size}",
            f"hardware      {self.hardware}",
        ]
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


def bench(service: ScoreService, requests: Sequence[dict]) -> LatencyReport:
    """Replay a workload in-process; HTTP latency is ``perfbench/http_load.py``'s."""
    if not requests:
        raise ValueError("bench needs at least one request")
    laps = np.empty(len(requests))
    pools = np.empty(len(requests))
    for i, req in enumerate(requests):
        t0 = time.perf_counter()
        response = service.score(req)
        laps[i] = time.perf_counter() - t0
        pools[i] = len(response["results"])
    return LatencyReport(
        request_count=len(requests),
        p50_ms=float(np.percentile(laps, 50) * 1000),
        p95_ms=float(np.percentile(laps, 95) * 1000),
        p99_ms=float(np.percentile(laps, 99) * 1000),
        mean_pool_size=float(pools.mean()),
        max_pool_size=int(pools.max()),
        hardware=hardware_note(),
    )
