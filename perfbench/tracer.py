"""In-memory spans recorded around calls into channelrank's public functions.

The program itself carries no timers; :func:`installed` swaps module and
class attributes for timing wrappers while a block runs.
Each span records its name, start, end, parent span and request id. Work
the benchmark does to compute counters (for example the useful-pair ratio)
runs inside a ``trace.bookkeeping`` span, so it never inflates the self time
of the layer that called it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

BOOKKEEPING = "trace.bookkeeping"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int
    request: int


class Tracer:
    """Collects spans from any thread; parents are tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request_counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> int:
        return getattr(self._local, "request", 0)

    @request.setter
    def request(self, rid: int) -> None:
        self._local.request = rid

    def call(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(name, start, end, span_id, parent, self.request))

    def count(self, name: str, value: float, request: int | None = None) -> None:
        request = self.request if request is None else request
        with self._count_lock:
            self.counts[name] += value
            if request:
                self.request_counts[name] += value

    def counts_for(self, request_scope: bool) -> dict[str, float]:
        """All counts; with ``request_scope``, in-request counts where any exist."""
        out = dict(self.counts)
        if request_scope:
            out.update(self.request_counts)
        return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent:
            child_time[s.parent] += s.end - s.start
    return {s.span_id: (s.end - s.start) - child_time[s.span_id] for s in spans}


@dataclass(slots=True)
class LayerTotals:
    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0


def summarize(spans: list[Span], request_scope: bool) -> dict[str, LayerTotals]:
    """Per span name: total duration, total self time and call count.

    With ``request_scope`` a name seen inside any request keeps only its
    in-request spans, so set-up calls (training's validation scoring, say)
    do not blur a per-request figure.
    """
    selfs = self_times(spans)
    in_request = {s.name for s in spans if s.request} if request_scope else set()
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s in spans:
        if s.name in in_request and not s.request:
            continue
        agg = out[s.name]
        agg.total_s += s.end - s.start
        agg.self_s += selfs[s.span_id]
        agg.calls += 1
    return out


# ---------------------------------------------------------------------------
# Wrappers around channelrank's public functions
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, fn: Callable, name, after: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(args) if callable(name) else name
        result = tracer.call(span_name, fn, *args, **kwargs)
        if after is not None:
            tracer.call(BOOKKEEPING, after, tracer, result, args, kwargs)
        return result

    return wrapper


def _count_pairs(tracer, result, args, kwargs) -> None:
    tracer.count("gbdt.pairs", len(args[0].win))


def _count_useful_pairs(tracer, result, args, kwargs) -> None:
    """Pairs with a member in the top k under the scores passed to ``gradients``.

    Only those pairs can carry a nonzero lambda; the rest is wasted work.
    """
    index = args[0]
    scores = np.asarray(args[1] if len(args) > 1 else kwargs["scores"], dtype=np.float64)
    tiebreak = args[2] if len(args) > 2 else kwargs.get("tiebreak")
    if tiebreak is None:
        tiebreak = np.arange(index.n)
    order = np.lexsort((np.asarray(tiebreak), -scores, index.group_codes))
    pos = np.empty(index.n, dtype=np.int64)
    pos[order] = np.arange(index.n) - index.group_starts[index.group_codes[order]]
    top = pos < index.k
    tracer.count("gbdt.pairs_seen", len(index.win))
    tracer.count("gbdt.pairs_useful", int(np.count_nonzero(top[index.win] | top[index.lose])))


def _count_nodes(tracer, result, args, kwargs) -> None:
    tree, _ = result
    tracer.count("gbdt.tree_nodes", tree.n_nodes())


def _count_rows(tracer, result, args, kwargs) -> None:
    tracer.count("gbdt.rows_scored", len(result))


def _count_events(tracer, result, args, kwargs) -> None:
    tracer.count("synthgen.events", len(result.events))


def _count_instances(tracer, result, args, kwargs) -> None:
    tracer.count("dataset.instances", len(result))


def _evaluate_name(args) -> str:
    from channelrank.evaluation import WIRanker

    return "evaluation.evaluate_wi" if isinstance(args[0], WIRanker) else "evaluation.evaluate_models"


@contextlib.contextmanager
def installed(tracer: Tracer | None):
    """Wrap every traced call site while the block runs; without a tracer, do nothing.

    Attributes are patched where they are looked up: ``evaluation.train``
    and ``cli.train`` rather than ``gbdt.model.train``, because those
    modules imported the name.
    """
    if tracer is None:
        yield
        return
    from channelrank import cli, dataset, evaluation, service, synthgen
    from channelrank.gbdt import lambdas
    from channelrank.gbdt import model as gmodel
    from channelrank.gbdt import tree as gtree
    from channelrank.metrics import GroupedNdcg

    sites = [
        (synthgen, "generate", "synthgen.generate", _count_events),
        (synthgen, "filter_and_split", "synthgen.filter_and_split", None),
        (dataset, "funnel_table", "labeling.funnel_table", None),
        (dataset, "build_dataset", "dataset.build_dataset", _count_instances),
        (dataset, "merge_pool", "core.merge_pool", None),
        (service, "merge_pool", "core.merge_pool", None),
        (lambdas.PairIndex, "__init__", "gbdt.pair_index", _count_pairs),
        (lambdas.PairIndex, "gradients", "gbdt.gradients", _count_useful_pairs),
        (gmodel, "bin_features", "gbdt.bin_features", None),
        (gmodel, "grow_tree", "gbdt.grow_tree", _count_nodes),
        (gtree.Tree, "predict_matrix", "gbdt.tree_predict", None),
        (gmodel.Model, "predict_matrix", "gbdt.predict_matrix", _count_rows),
        (evaluation, "train", "gbdt.train", None),
        (cli, "train", "gbdt.train", None),
        (GroupedNdcg, "__init__", "metrics.grouped_ndcg", None),
        (GroupedNdcg, "mean", "metrics.grouped_ndcg", None),
        (evaluation, "weighted_interleave", "fusion.weighted_interleave", None),
        (evaluation, "build_eval_groups", "evaluation.build_eval_groups", None),
        (evaluation, "evaluate_variant", _evaluate_name, None),
        (evaluation, "ablation_run", "evaluation.ablation_run", None),
        (service.ScoreService, "parse_request", "service.parse_request", None),
        (service.ScoreService, "score", "service.score", None),
    ]
    saved = []
    try:
        for owner, attr, name, after in sites:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, after))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


_TIMED_LAYERS = [
    "synthgen.generate", "synthgen.filter_and_split", "labeling.funnel_table",
    "dataset.build_dataset", "core.merge_pool", "gbdt.pair_index", "gbdt.gradients",
    "gbdt.bin_features", "gbdt.grow_tree", "gbdt.tree_predict", "gbdt.train",
    "metrics.grouped_ndcg", "gbdt.predict_matrix", "fusion.weighted_interleave",
    "evaluation.build_eval_groups", "evaluation.evaluate_wi", "evaluation.evaluate_models",
    "service.parse_request",
]
_CALL_COUNTS = [
    "core.merge_pool", "gbdt.gradients", "gbdt.grow_tree", "gbdt.tree_predict",
    "fusion.weighted_interleave",
]
_COUNTERS = ["synthgen.events", "dataset.instances", "gbdt.pairs", "gbdt.tree_nodes", "gbdt.rows_scored"]


def layer_metrics(tracer: Tracer, requests: int = 0) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counts.

    With ``requests`` > 0, layers called inside requests report their mean
    time per request; layers seen only outside requests (set-up) report
    totals. Counts are totals either way.
    """
    layers = summarize(tracer.spans, request_scope=requests > 0)
    in_request = {s.name for s in tracer.spans if s.request}
    counts = tracer.counts_for(request_scope=requests > 0)

    def seconds(name: str, value: float) -> float:
        return value / requests if requests and name in in_request else value

    out: dict[str, float] = {}
    for name in _TIMED_LAYERS:
        out[f"{name}_s"] = seconds(name, layers[name].total_s) if name in layers else 0.0
    for name in _CALL_COUNTS:
        out[f"{name}_calls"] = float(layers[name].calls) if name in layers else 0.0
    for name in _COUNTERS:
        out[name] = float(counts.get(name, 0.0))
    seen = counts.get("gbdt.pairs_seen", 0.0)
    out["gbdt.pairs_useful_frac"] = counts.get("gbdt.pairs_useful", 0.0) / seen if seen else 0.0
    out["gbdt.train_self_s"] = layers["gbdt.train"].self_s if "gbdt.train" in layers else 0.0
    score = layers.get("service.score")
    out["service.featurize_self_s"] = seconds("service.score", score.self_s) if score else 0.0
    predicts = layers["gbdt.predict_matrix"].calls if score and "gbdt.predict_matrix" in layers else 0
    out["service.pool_size_mean"] = counts.get("gbdt.rows_scored", 0.0) / predicts if predicts else 0.0
    return out


def remainder_frac(tracer: Tracer, root: str) -> float:
    """Share of the ``root`` spans' time that no child span accounts for."""
    selfs = self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.name == root]
    total = sum(s.end - s.start for s in roots)
    return sum(selfs[s.span_id] for s in roots) / total if total else 0.0
