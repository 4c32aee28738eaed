"""Variant evaluation and the four-way ablation harness.

Variants:

* ``WI`` -- weighted interleaving of each pool's channel lists (stochastic;
  scored as the mean over a set of evaluation seeds);
* ``UR`` -- learned ranker on heuristic labels, engagement features
  masked out of the schema;
* ``UR+EF`` -- learned ranker on heuristic labels with engagement
  features;
* ``UR+EF+CL`` -- learned ranker on conversion-weighted labels with
  engagement features.

Every variant is scored on the identical held-out test groups against
conversion-weighted labels (the production optimization target), plus a
purchase-only NDCG@k that credits nothing but same-week purchase counts
(linear gain, so raw counts cannot overflow the exponential convention).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import CandidatePool, ChannelList, QueryId, merge_pool
from .dataset import Dataset
# Nothing here calls weighted_interleave. The name stays imported because
# perfbench's tracer patches evaluation.weighted_interleave, and raises
# AttributeError if it is missing.
from .fusion import interleave_pools, weighted_interleave  # noqa: F401
from .gbdt.lambdas import check_threads
from .gbdt.model import Model, TrainParams, train
from .gbdt.serialize import model_fingerprint
from .metrics import ndcg_at_k, order_from_scores, purchase_ndcg_at_k
from .synthgen import SplitPlan

_METRIC_K = 8  # the NDCG cut-off every variant is scored at


@dataclass(slots=True)
class EvalGroup:
    """One (query, week) evaluation unit."""

    query: QueryId
    week: int
    pool: CandidatePool             # pool.items ascending; positions index labels/X
    labels: np.ndarray              # conversion-weighted normalized labels
    purchases: np.ndarray           # same-week purchase session counts
    X: np.ndarray                   # full-schema feature rows


def build_eval_groups(
    dataset: Dataset,
    channel_lists: Mapping[int, Mapping[QueryId, list[ChannelList]]],
    keys: Iterable[tuple[int, int]],
) -> list[EvalGroup]:
    """Per-group views of the dataset, each with the pool ``build_dataset`` merged for it."""
    wanted = sorted(set(keys))
    key_to_gid = {key: gid for gid, key in enumerate(dataset.group_keys)}
    groups: list[EvalGroup] = []
    starts = dataset.groups.starts
    for key in wanted:
        if key not in key_to_gid:
            raise ValueError(f"group {key} not materialized in dataset")
        gid = key_to_gid[key]
        lo, hi = int(starts[gid]), int(starts[gid + 1])
        q, week = key
        qstr = dataset.query_vocab[q]
        lists = channel_lists.get(week, {}).get(qstr)
        if not lists:
            raise ValueError(f"no channel lists for query {qstr!r} week {week}")
        pool = merge_pool(lists, dataset.truncation)
        if pool.items != tuple(dataset.item_vocab[i] for i in dataset.item_codes[lo:hi]):
            raise ValueError(f"query {qstr!r} week {week}: pool differs from dataset rows")
        groups.append(
            EvalGroup(
                query=qstr,
                week=week,
                pool=pool,
                labels=dataset.labels_conversion[lo:hi],
                purchases=dataset.purchases[lo:hi],
                X=dataset.X[lo:hi],
            )
        )
    return groups


class Ranker:
    """A scoring strategy: emits one or more orderings per group."""

    name = "ranker"

    def orders(self, groups: Sequence[EvalGroup]) -> list[Sequence[np.ndarray]]:
        """For each group, its orderings: permutations of the group's pool rows,
        as a list of arrays or a 2-d array with one ordering per row."""
        raise NotImplementedError


class ModelRanker(Ranker):
    """Scores with a trained model over a column subset of the full schema."""

    def __init__(self, name: str, model: Model, column_indices: np.ndarray):
        self.name = name
        self.model = model
        self.column_indices = column_indices

    def orders(self, groups: Sequence[EvalGroup]) -> list[Sequence[np.ndarray]]:
        return [
            [order_from_scores(self.model.predict_matrix(group.X[:, self.column_indices]))]
            for group in groups
        ]


class WIRanker(Ranker):
    """Weighted interleaving averaged over a fixed set of seeds.

    Every group under every seed is interleaved in one
    :func:`interleave_pools` call on the groups' pools; each group weighs
    its own channels uniformly.
    """

    def __init__(self, seeds: Sequence[int] = tuple(range(20))):
        self.name = "WI"
        self.seeds = tuple(seeds)

    def orders(self, groups: Sequence[EvalGroup]) -> list[Sequence[np.ndarray]]:
        pools = [group.pool for group in groups]
        weights = [[1.0] * len(pool.channels) for pool in pools]
        return interleave_pools(pools, weights, [self.seeds] * len(groups))


@dataclass(slots=True)
class VariantResult:
    name: str
    mean_ndcg: float
    mean_purchase_ndcg: float
    group_count: int
    quantiles: dict[str, float]
    n_orders: int
    zero_idcg_groups: int
    model_fingerprint: str | None = None


def evaluate_variant(ranker: Ranker, groups: Sequence[EvalGroup]) -> VariantResult:
    """Mean NDCG@8 (and purchase-only NDCG@8) over evaluation groups.

    The ranker orders every group in one call, and each group's orderings
    are scored by :func:`ndcg_at_k` on its labels and
    :func:`purchase_ndcg_at_k` on its purchases. Stochastic rankers
    contribute the per-group mean over their orderings; groups whose
    labels are all zero score 0 and stay in the mean, with the count
    reported for transparency.
    """
    if not groups:
        raise ValueError("evaluate_variant requires a non-empty eval set")
    all_orders = ranker.orders(groups)
    if len(all_orders) != len(groups):
        raise ValueError(
            f"ranker {ranker.name!r} gave orders for {len(all_orders)} of {len(groups)} groups"
        )
    per_group = np.empty(len(groups))
    per_group_purchase = np.empty(len(groups))
    zero_idcg = 0
    n_orders = 0
    for gi, (group, orders) in enumerate(zip(groups, all_orders)):
        try:
            ndcgs = np.atleast_1d(ndcg_at_k(group.labels, orders, _METRIC_K))
            purchase_ndcgs = purchase_ndcg_at_k(group.purchases, orders, _METRIC_K)
        except ValueError as exc:
            raise ValueError(f"group {group.query!r} week {group.week}: {exc}") from exc
        n_orders = max(n_orders, len(ndcgs))
        per_group[gi] = np.mean(ndcgs)
        per_group_purchase[gi] = np.mean(purchase_ndcgs)
        if not group.labels.any():
            zero_idcg += 1
    quantiles = {
        "p25": float(np.quantile(per_group, 0.25)),
        "p50": float(np.quantile(per_group, 0.50)),
        "p75": float(np.quantile(per_group, 0.75)),
    }
    fingerprint = None
    if isinstance(ranker, ModelRanker):
        fingerprint = model_fingerprint(ranker.model)
    return VariantResult(
        name=ranker.name,
        mean_ndcg=float(per_group.mean()),
        mean_purchase_ndcg=float(per_group_purchase.mean()),
        group_count=len(groups),
        quantiles=quantiles,
        n_orders=n_orders,
        zero_idcg_groups=zero_idcg,
        model_fingerprint=fingerprint,
    )


@dataclass(slots=True)
class AblationConfig:
    train_params: TrainParams = field(
        default_factory=lambda: TrainParams(
            num_trees=150, shrinkage=0.15, max_depth=5,
            min_examples_per_leaf=10, l2=1.0, seed=7,
        )
    )
    wi_seeds: int = 20
    n_threads: int = 1

    def __post_init__(self) -> None:
        if self.wi_seeds < 1:
            raise ValueError(f"wi_seeds must be >= 1, got {self.wi_seeds}")
        check_threads(self.n_threads)


@dataclass(slots=True)
class EvalReport:
    """Per-variant scores on the shared eval set plus pairwise deltas."""

    variants: list[VariantResult]
    deltas: dict[str, float]
    metric_k: int
    wi_seeds: int
    dataset_fingerprint: str
    config_hash: str
    train_history: dict[str, list[float]] = field(default_factory=dict)

    def variant(self, name: str) -> VariantResult:
        for v in self.variants:
            if v.name == name:
                return v
        raise KeyError(name)

    def to_json(self) -> str:
        return json.dumps(
            {
                "metric_k": self.metric_k,
                "wi_seeds": self.wi_seeds,
                "dataset_fingerprint": self.dataset_fingerprint,
                "config_hash": self.config_hash,
                "variants": [dataclasses.asdict(v) for v in self.variants],
                "deltas": self.deltas,
            },
            indent=2,
        )

    def render_text(self) -> str:
        lines = [
            f"{'variant':<12} {'ndcg@' + str(self.metric_k):>10} "
            f"{'purch-ndcg':>11} {'groups':>7} {'p50':>8}"
        ]
        for v in self.variants:
            lines.append(
                f"{v.name:<12} {v.mean_ndcg:>10.4f} {v.mean_purchase_ndcg:>11.4f} "
                f"{v.group_count:>7d} {v.quantiles['p50']:>8.4f}"
            )
        lines.append("")
        for name, delta in self.deltas.items():
            lines.append(f"{name}: {delta:+.4f}")
        lines.append("")
        lines.append(f"wi_seeds={self.wi_seeds}  dataset={self.dataset_fingerprint[:12]}")
        lines.append(f"config={self.config_hash[:12]}")
        return "\n".join(lines)


def ablation_run(
    dataset: Dataset,
    channel_lists: Mapping[int, Mapping[QueryId, list[ChannelList]]],
    split: SplitPlan,
    cfg: AblationConfig = AblationConfig(),
) -> EvalReport:
    """Train and evaluate the WI / UR / UR+EF / UR+EF+CL ladder.

    All learned variants share the train/test partitions, the training
    seed, and every non-engagement feature column; they differ only along
    the documented axes (engagement columns, label scheme). Models train
    on the training weeks alone: nothing scores the validation weeks, and
    ``train_history`` logs the training NDCG@k of each round.
    """
    train_mask = dataset.mask_for(split.train)
    full_idx = np.arange(len(dataset.schema))
    no_eng_mask = ~dataset.schema.group_mask("engagement")
    no_eng_idx = np.flatnonzero(no_eng_mask)
    schema_no_eng = dataset.schema.drop_group("engagement")

    def fit(label_scheme: str, column_idx: np.ndarray, schema) -> tuple[Model, list[float]]:
        labels = dataset.labels(label_scheme)
        result = train(
            dataset.X[np.ix_(train_mask, column_idx)],
            labels[train_mask],
            dataset.group_ids[train_mask],
            schema,
            cfg.train_params,
            n_threads=cfg.n_threads,
        )
        return result.model, [r.train_ndcg for r in result.history]

    model_ur, hist_ur = fit("heuristic", no_eng_idx, schema_no_eng)
    model_ef, hist_ef = fit("heuristic", full_idx, dataset.schema)
    model_cl, hist_cl = fit("conversion", full_idx, dataset.schema)

    groups = build_eval_groups(dataset, channel_lists, split.test)
    rankers = [
        WIRanker(seeds=tuple(range(cfg.wi_seeds))),
        ModelRanker("UR", model_ur, no_eng_idx),
        ModelRanker("UR+EF", model_ef, full_idx),
        ModelRanker("UR+EF+CL", model_cl, full_idx),
    ]
    variants = [evaluate_variant(r, groups) for r in rankers]
    by_name = {v.name: v for v in variants}
    deltas = {
        "UR-WI": by_name["UR"].mean_ndcg - by_name["WI"].mean_ndcg,
        "UR+EF-UR": by_name["UR+EF"].mean_ndcg - by_name["UR"].mean_ndcg,
        "UR+EF+CL-UR+EF": by_name["UR+EF+CL"].mean_ndcg - by_name["UR+EF"].mean_ndcg,
        "UR+EF+CL-WI": by_name["UR+EF+CL"].mean_ndcg - by_name["WI"].mean_ndcg,
        "purchase:UR+EF+CL-UR+EF": (
            by_name["UR+EF+CL"].mean_purchase_ndcg - by_name["UR+EF"].mean_purchase_ndcg
        ),
    }
    config_hash = hashlib.sha256(
        json.dumps(
            {
                "train_params": dataclasses.asdict(cfg.train_params),
                "metric_k": _METRIC_K,
                "wi_seeds": cfg.wi_seeds,
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()
    return EvalReport(
        variants=variants,
        deltas=deltas,
        metric_k=_METRIC_K,
        wi_seeds=cfg.wi_seeds,
        dataset_fingerprint=dataset.fingerprint(),
        config_hash=config_hash,
        train_history={"UR": hist_ur, "UR+EF": hist_ef, "UR+EF+CL": hist_cl},
    )
