"""Operator command line: generate, build-dataset, train, evaluate, ablate,
fuse, serve, bench.

Every subcommand validates flags, writes its outputs, and exits 0 on
success; runtime failures print one diagnostic line to stderr and exit 1;
usage errors exit 2 (argparse convention).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import dataset as ds
from . import synthgen
from .core import ChannelId, TruncationConfig, read_channel_lists
from .evaluation import AblationConfig, ablation_run
from .features import LookbackConfig, item_feature_block
from .fusion import InterleaveWeights, rrf_fuse, weighted_interleave_batch
from .gbdt.lambdas import check_threads
from .gbdt.model import TrainParams, train, write_training_log
from .gbdt.serialize import load_model, save_model
from .labeling import read_event_log
from .metrics import GroupedNdcg, QueryGroups
from .service import (
    DEFAULT_POOL_CAP,
    ItemFeatureTable,
    ScoreService,
    bench,
    check_pool_cap,
    make_server,
    synth_requests,
    write_item_features,
)


def _add_world_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--queries", type=int, default=2000)
    p.add_argument("--items", type=int, default=20000)
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--weeks", type=int, default=5)
    p.add_argument("--n-per-channel", type=int, default=25)
    p.add_argument("--sessions-mean", type=float, default=40.0)
    p.add_argument("--trend-fraction", type=float, default=0.15)
    p.add_argument("--channel-concentration", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)


def _world_config(args: argparse.Namespace) -> synthgen.WorldConfig:
    return synthgen.WorldConfig(
        num_queries=args.queries,
        num_items=args.items,
        num_channels=args.channels,
        num_weeks=args.weeks,
        per_channel_n=args.n_per_channel,
        sessions_mean=args.sessions_mean,
        trend_fraction=args.trend_fraction,
        channel_utility_concentration=args.channel_concentration,
        seed=args.seed,
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = _world_config(args)
    world = synthgen.generate(cfg)
    paths = synthgen.write_world(world, args.out)
    catalog_path = os.path.join(args.out, "catalog.tsv")
    ds.write_item_catalog(catalog_path, world.ground_truth.catalog)
    paths["catalog"] = catalog_path
    split = synthgen.filter_and_split(world.events, cfg.num_weeks)
    print(f"events: {len(world.events)} -> {paths['events']}")
    print(f"retention: {split.stats['retention']:.3f} "
          f"(train {split.stats['train_groups']}, valid {split.stats['valid_groups']}, "
          f"test {split.stats['test_groups']})")
    for key in sorted(paths):
        if key != "events":
            print(f"{key}: {paths[key]}")
    return 0


def _load_world_dir(events_path: str, lists_dir: str, catalog_path: str):
    events = read_event_log(events_path)
    catalog = ds.read_item_catalog(catalog_path)
    weeks = sorted(
        int(name.split("_w")[-1].split(".")[0])
        for name in os.listdir(lists_dir)
        if name.startswith("channel_lists_w") and name.endswith(".tsv")
    )
    if not weeks:
        raise ValueError(f"no channel_lists_w*.tsv files under {lists_dir}")
    files, channels = read_channel_lists(
        [os.path.join(lists_dir, f"channel_lists_w{week}.tsv") for week in weeks]
    )
    return events, dict(zip(weeks, files)), catalog, channels


def _lookback(args: argparse.Namespace) -> LookbackConfig:
    """``--windows`` and ``--half-life``; a bad value's error names its flag."""
    try:
        windows = tuple(int(w) for w in args.windows.split(","))
        LookbackConfig(windows=windows)
    except ValueError as exc:
        raise ValueError(f"--windows {args.windows!r}: {exc}") from None
    try:
        return LookbackConfig(windows=windows, decay_half_life=args.half_life)
    except ValueError as exc:
        raise ValueError(f"--half-life {args.half_life}: {exc}") from None


def _cmd_build_dataset(args: argparse.Namespace) -> int:
    lookback = _lookback(args)
    events, lists_by_week, catalog, channels = _load_world_dir(
        args.events, args.lists_dir, args.catalog
    )
    num_weeks = max(lists_by_week) + 1
    split = synthgen.filter_and_split(
        events, num_weeks, min_impressions=args.min_impressions
    )
    trunc = TruncationConfig.uniform(channels, args.n_per_channel)
    data = ds.build_dataset(
        events, lists_by_week, catalog, channels, split.all_keys(), trunc,
        lookback=lookback, train_weeks=split.train_weeks,
    )
    ds.write_dataset(data, args.out, label_scheme=args.labels)
    print(f"instances: {len(data)} ({len(data.group_keys)} groups) -> {args.out}")
    print(f"schema: {args.out}.schema.json ({len(data.schema)} columns)")
    print(f"label weights ({args.labels}): {data.conversion_weights}")
    if args.item_features_out:
        as_of = int(events.week.max()) + 1
        rows = item_feature_block(
            data.schema, lookback, ds.item_count_table(events, catalog, as_of),
            catalog, np.arange(len(catalog.item_vocab)), as_of,
        )
        item_cols = [c.name for c in data.schema.columns if c.group == "item"]
        write_item_features(
            args.item_features_out, item_cols, dict(zip(catalog.item_vocab, rows))
        )
        print(f"item features: {args.item_features_out} (as of week {as_of})")
    return 0


def _train_params(args: argparse.Namespace) -> TrainParams:
    return TrainParams(
        num_trees=args.trees,
        shrinkage=args.shrinkage,
        max_depth=args.depth,
        min_examples_per_leaf=args.min_leaf,
        l2=args.l2,
        ndcg_truncation=args.ndcg_k,
        oblique=args.oblique,
        seed=args.seed,
    )


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trees", type=int, default=300)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--shrinkage", type=float, default=0.1)
    p.add_argument("--min-leaf", type=int, default=5)
    p.add_argument("--l2", type=float, default=1.0)
    p.add_argument("--ndcg-k", type=int, default=8)
    p.add_argument("--oblique", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)


def _cmd_train(args: argparse.Namespace) -> int:
    check_threads(args.threads)
    params = _train_params(args)
    data = ds.read_dataset(args.data)
    max_week = int(data.weeks.max())
    valid_week = args.valid_week if args.valid_week is not None else max_week - 1
    train_mask = data.weeks < valid_week
    valid_mask = data.weeks == valid_week
    if not train_mask.any():
        raise ValueError(f"no training rows before week {valid_week}")
    valid = None
    if valid_mask.any():
        valid = (
            data.X[valid_mask], data.labels[valid_mask], data.group_ids[valid_mask],
        )
    result = train(
        data.X[train_mask], data.labels[train_mask], data.group_ids[train_mask],
        data.schema, params, valid=valid, n_threads=args.threads,
    )
    save_model(result.model, args.out)
    last = result.history[-1]
    print(
        f"trained {params.num_trees} trees on {int(train_mask.sum())} rows; "
        f"train ndcg@{params.ndcg_truncation}={last.train_ndcg:.4f}"
        + (f" valid={last.valid_ndcg:.4f}" if last.valid_ndcg is not None else "")
    )
    print(f"model -> {args.out}")
    if args.log:
        write_training_log(result.history, args.log)
        print(f"training log -> {args.log}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    data = ds.read_dataset(args.data)
    week = args.week if args.week is not None else int(data.weeks.max())
    mask = data.weeks == week
    if not mask.any():
        raise ValueError(f"no rows for week {week}")
    model = load_model(args.model)
    if model.schema != data.schema:
        raise ValueError("model schema does not match dataset schema")
    scores = model.predict_matrix(data.X[mask])
    groups = QueryGroups.from_ids(data.group_ids[mask])
    grouped = GroupedNdcg(data.labels[mask], groups, k=args.k)
    mean = grouped.mean(scores)
    print(f"week {week}: mean ndcg@{args.k} = {mean:.4f} over "
          f"{grouped.group_count} groups")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {"week": week, "k": args.k, "mean_ndcg": mean,
                 "groups": int(grouped.group_count)},
                fh, indent=2,
            )
        print(f"report -> {args.json}")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    ablation = AblationConfig(wi_seeds=args.wi_seeds, n_threads=args.threads)
    if args.config == "default":
        cfg = synthgen.WorldConfig(seed=args.seed)
    elif args.config == "small":
        cfg = synthgen.WorldConfig(
            num_queries=120, num_items=1500, universe_size=24, per_channel_n=12,
            sessions_mean=30.0, seed=args.seed,
        )
        ablation.train_params = TrainParams(
            num_trees=40, shrinkage=0.2, max_depth=4,
            min_examples_per_leaf=5, l2=1.0, seed=7,
        )
    else:
        raise ValueError(f"unknown ablation config {args.config!r}")
    world = synthgen.generate(cfg)
    split = synthgen.filter_and_split(world.events, cfg.num_weeks)
    trunc = TruncationConfig.uniform(world.channels, cfg.per_channel_n)
    data = ds.build_dataset(
        world.events, world.channel_lists, world.ground_truth.catalog, world.channels,
        split.all_keys(), trunc,
    )
    report = ablation_run(data, world.channel_lists, split, ablation)
    print(report.render_text())
    os.makedirs(args.out_dir, exist_ok=True)
    json_path = os.path.join(args.out_dir, "ablation_report.json")
    text_path = os.path.join(args.out_dir, "ablation_report.txt")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(report.render_text() + "\n")
    print(f"report -> {json_path}")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    (by_query,), channels = read_channel_lists([args.lists])
    queries = sorted(by_query)
    out_lines = []
    if args.method == "rrf":
        for query in queries:
            fused = rrf_fuse(by_query[query], k_rrf=args.k_rrf)
            for rank, item in enumerate(fused.items, start=1):
                out_lines.append(f"{query}\t{item}\t{fused.scores[rank - 1]!r}")
    elif queries:
        weights = _parse_weights(args.weight, channels)
        interleaved = weighted_interleave_batch(
            [by_query[query] for query in queries],
            [weights] * len(queries),
            [[args.seed]] * len(queries),
        )
        for query, (items, orders) in zip(queries, interleaved):
            for rank, j in enumerate(orders[0], start=1):
                out_lines.append(f"{query}\t{items[j]}\t{rank}")
    body = "\n".join(out_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
        print(f"fused {len(by_query)} queries -> {args.out}")
    else:
        sys.stdout.write(body)
    return 0


def _parse_weights(flags: list[str] | None, channels: tuple[ChannelId, ...]) -> InterleaveWeights:
    if not flags:
        return InterleaveWeights.uniform(channels)
    by_name = {c.name: c for c in channels}
    weights = dict.fromkeys(channels, 0.0)
    for flag in flags:
        if "=" not in flag:
            raise ValueError(f"--weight expects name=value, got {flag!r}")
        name, value = flag.split("=", 1)
        if name not in by_name:
            raise ValueError(f"unknown channel {name!r} in --weight")
        try:
            weights[by_name[name]] = float(value)
        except ValueError:
            raise ValueError(f"--weight {flag!r}: {value!r} is not a number") from None
    return InterleaveWeights(weights)


def _make_service(args: argparse.Namespace) -> ScoreService:
    raw = os.environ.get("CHANNELRANK_POOL_CAP", args.pool_cap)
    try:
        pool_cap = int(raw)
    except ValueError:
        raise ValueError(f"CHANNELRANK_POOL_CAP {raw!r} is not an integer") from None
    check_pool_cap(pool_cap)
    model = load_model(args.model)
    table = ItemFeatureTable.from_file(args.items) if args.items else None
    return ScoreService(model, item_features=table, pool_cap=pool_cap)


def _parse_bind(bind: str) -> tuple[str, int]:
    """``host[:port]`` as (host, port); an empty host is 127.0.0.1, an empty port 8351."""
    host, _, port = bind.partition(":")
    port = port or "8351"
    if not (port.isascii() and port.isdigit() and 1 <= int(port) <= 65535):
        raise ValueError(f"bind address {bind!r}: port must be an integer in 1..65535")
    return host or "127.0.0.1", int(port)


def _cmd_serve(args: argparse.Namespace) -> int:
    host, port = _parse_bind(os.environ.get("CHANNELRANK_BIND", args.bind))
    service = _make_service(args)
    server = make_server(service, host=host, port=port)
    print(f"serving model {service.fingerprint[:12]} on http://{host}:{port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.pool < 1:
        raise ValueError(f"--pool must be >= 1, got {args.pool}")
    service = _make_service(args)
    item_ids = list(service._item_index) or None
    requests = synth_requests(
        service, args.requests, pool_items=args.pool, seed=args.seed,
        item_ids=item_ids,
    )
    report = bench(service, requests, url=args.url)
    print(report.render_text())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2)
        print(f"report -> {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="channelrank",
        description="Multi-channel learning-to-rank toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic multi-channel search log")
    _add_world_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("build-dataset", help="events + channel lists -> labeled instances")
    p.add_argument("--events", required=True)
    p.add_argument("--lists-dir", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--labels", choices=["conversion", "heuristic"], default="conversion")
    p.add_argument("--windows", default="1,4")
    p.add_argument("--half-life", type=float, default=2.0)
    p.add_argument("--n-per-channel", type=int, default=25)
    p.add_argument("--min-impressions", type=int, default=20)
    p.add_argument("--item-features-out", default=None)
    p.set_defaults(func=_cmd_build_dataset)

    p = sub.add_parser("train", help="train the ranking model on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--valid-week", type=int, default=None)
    p.add_argument("--log", default=None)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a model file on a dataset week")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--week", type=int, default=None)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("ablate", help="run the WI/UR/UR+EF/UR+EF+CL comparison")
    p.add_argument("--config", choices=["default", "small"], default="default")
    p.add_argument("--out-dir", default="ablation")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--wi-seeds", type=int, default=20)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("fuse", help="fuse channel lists with RRF or weighted interleaving")
    p.add_argument("--lists", required=True)
    p.add_argument("--method", choices=["rrf", "wi"], default="rrf")
    p.add_argument("--k-rrf", type=float, default=60.0)
    p.add_argument("--weight", action="append", default=None,
                   metavar="CHANNEL=VALUE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("serve", help="run the HTTP scoring service")
    p.add_argument("--model", required=True)
    p.add_argument("--items", default=None, help="item feature sidecar")
    p.add_argument("--bind", default="127.0.0.1:8351")
    p.add_argument("--pool-cap", type=int, default=DEFAULT_POOL_CAP)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("bench", help="latency benchmark against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--items", default=None)
    p.add_argument("--requests", type=int, default=10000)
    p.add_argument("--pool", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--url", default=None, help="also bench a running server")
    p.add_argument("--json", default=None)
    p.add_argument("--pool-cap", type=int, default=DEFAULT_POOL_CAP)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
