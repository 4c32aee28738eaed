"""Synthetic multi-channel search log generator with known ground truth.

The generated world has:

* a catalog with static attributes, a popularity prior, and a per-item
  conversion-quality dimension deliberately decoupled from click appeal,
  so conversion-weighted labels carry signal that click-heavy labels miss;
* per-query latent relevance over a per-query item universe, drifting
  weekly for a configurable fraction of trending items;
* K channels whose ranking quality mixes true relevance with noise at a
  per-(query, channel) quality level -- the query-dependent channel
  utility knob;
* sessions that examine a weighted-interleaved presentation with a
  geometric position-bias curve, then traverse the funnel
  impression -> click -> add-to-cart -> purchase with logistic
  probabilities in the latent variables.

Generation is deterministic: every query draws from its own PRNG stream
derived from (seed, query), so per-query parallelism cannot change the
output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import ChannelId, ChannelList, QueryId
from .dataset import ItemCatalog
from .fusion import InterleaveWeights, weighted_interleave_batch
from .labeling import WEEK_SECONDS, Action, EventFrame

DEFAULT_CHANNEL_NAMES = ("lexical", "semantic", "trending", "seasonal")

_SESSION_STRIDE = 1 << 20  # max sessions per (query, week)


@dataclass(frozen=True, slots=True)
class WorldConfig:
    """Parameters of the synthetic world; defaults are desk scale."""

    num_queries: int = 2000
    num_items: int = 20000
    num_channels: int = 4
    num_weeks: int = 5
    per_channel_n: int = 25
    universe_size: int = 36
    channel_coverage: float = 0.8
    sessions_mean: float = 40.0
    sessions_power: float = 0.35
    position_decay: float = 0.88
    click_rate: float = 0.22
    atc_rate: float = 0.35
    purchase_rate: float = 0.30
    channel_quality_base: float = 0.40
    channel_utility_concentration: float = 0.7
    trend_fraction: float = 0.15
    n_categories: int = 24
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_weeks < 5:
            raise ValueError("num_weeks must be >= 5 for the 3/1/1 weekly split")
        for name in ("click_rate", "atc_rate", "purchase_rate"):
            rate = getattr(self, name)
            if not 0.0 < rate < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {rate}")
        if not 0.0 < self.position_decay <= 1.0:
            raise ValueError("position_decay must be in (0, 1]")
        if not 0.0 < self.channel_coverage <= 1.0:
            raise ValueError("channel_coverage must be in (0, 1]")
        if self.universe_size > self.num_items:
            raise ValueError("universe_size cannot exceed num_items")
        if self.universe_size < self.per_channel_n // 2:
            raise ValueError("universe_size too small for per_channel_n")
        if not 0.0 <= self.trend_fraction <= 1.0:
            raise ValueError("trend_fraction must be in [0, 1]")
        if self.channel_utility_concentration < 0.0:
            raise ValueError("channel_utility_concentration must be >= 0")


@dataclass(slots=True)
class GroundTruth:
    """Latents persisted for oracle-style tests; never fed to features."""

    config: WorldConfig
    catalog: ItemCatalog
    popularity: np.ndarray       # standardized log-popularity, per catalog item
    conv_quality: np.ndarray     # standardized purchase propensity, per catalog item
    query_vocab: tuple[str, ...]
    channel_names: tuple[str, ...]
    universe: np.ndarray         # (Q, U) item codes
    relevance: np.ndarray        # (Q, U, W) latent relevance
    channel_quality: np.ndarray  # (Q, K)

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            config=json.dumps(asdict(self.config)),
            item_vocab=np.array(self.catalog.item_vocab, dtype=str),
            price=self.catalog.price,
            category=self.catalog.category,
            intro_week=self.catalog.intro_week,
            popularity=self.popularity,
            conv_quality=self.conv_quality,
            query_vocab=np.array(self.query_vocab, dtype=str),
            channel_names=np.array(self.channel_names, dtype=str),
            universe=self.universe,
            relevance=self.relevance,
            channel_quality=self.channel_quality,
        )

    @classmethod
    def load(cls, path: str) -> GroundTruth:
        """Read a :meth:`save` file; an object (pickled) array raises ValueError."""
        with np.load(path, allow_pickle=False) as data:
            catalog = ItemCatalog(
                item_vocab=tuple(data["item_vocab"].tolist()),
                price=data["price"],
                category=data["category"],
                intro_week=data["intro_week"],
            )
            return cls(
                config=WorldConfig(**json.loads(str(data["config"]))),
                catalog=catalog,
                popularity=data["popularity"],
                conv_quality=data["conv_quality"],
                query_vocab=tuple(data["query_vocab"].tolist()),
                channel_names=tuple(data["channel_names"].tolist()),
                universe=data["universe"],
                relevance=data["relevance"],
                channel_quality=data["channel_quality"],
            )


@dataclass(slots=True)
class SynthWorld:
    """Everything `generate` emits: the log, weekly channel lists, latents."""

    events: EventFrame
    channel_lists: dict[int, dict[QueryId, list[ChannelList]]]
    ground_truth: GroundTruth
    channels: tuple[ChannelId, ...]


def _standardize(x: np.ndarray) -> np.ndarray:
    sd = x.std()
    if sd == 0.0:
        return np.zeros_like(x)
    return (x - x.mean()) / sd


def _logit(p: float) -> float:
    return float(np.log(p / (1.0 - p)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _make_catalog(
    cfg: WorldConfig, rng: np.random.Generator
) -> tuple[ItemCatalog, np.ndarray, np.ndarray]:
    """The catalog, with each item's popularity and conversion-quality latents."""
    n = cfg.num_items
    price = np.round(np.exp(rng.normal(3.0, 0.6, size=n)) + 0.99, 2)
    category = rng.integers(1, cfg.n_categories + 1, size=n)
    intro_week = rng.integers(-26, 1, size=n)
    popularity = _standardize(rng.normal(0.0, 1.0, size=n))
    conv_quality = _standardize(rng.normal(0.0, 1.0, size=n))
    item_vocab = tuple(f"i{idx:05d}" for idx in range(n))
    return ItemCatalog(item_vocab, price, category, intro_week), popularity, conv_quality


def channel_ids(cfg: WorldConfig) -> tuple[ChannelId, ...]:
    names = list(DEFAULT_CHANNEL_NAMES[: cfg.num_channels])
    while len(names) < cfg.num_channels:
        names.append(f"channel{len(names)}")
    return tuple(ChannelId(i, name) for i, name in enumerate(names))


def generate(cfg: WorldConfig) -> SynthWorld:
    """Build the full synthetic world for one config + seed."""
    global_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    catalog, popularity, conv_quality = _make_catalog(cfg, global_rng)
    channels = channel_ids(cfg)
    query_vocab = tuple(f"q{idx:05d}" for idx in range(cfg.num_queries))

    # Power-law query traffic, scaled so the mean matches sessions_mean.
    ranks = np.arange(1, cfg.num_queries + 1, dtype=np.float64)
    weight = ranks ** (-cfg.sessions_power)
    session_lambda = cfg.sessions_mean * weight / weight.mean()

    trend_mask = global_rng.random(cfg.num_items) < cfg.trend_fraction
    trend_amp = global_rng.uniform(0.6, 1.6, size=cfg.num_items) * global_rng.choice(
        [-1.0, 1.0], size=cfg.num_items
    )
    trend_amp[~trend_mask] = 0.0

    weeks = np.arange(cfg.num_weeks, dtype=np.float64)
    ramp = 2.0 * (weeks / max(cfg.num_weeks - 1, 1) - 0.5)  # -1 .. +1

    universe = np.empty((cfg.num_queries, cfg.universe_size), dtype=np.int64)
    relevance = np.empty(
        (cfg.num_queries, cfg.universe_size, cfg.num_weeks), dtype=np.float64
    )
    channel_quality = np.empty((cfg.num_queries, cfg.num_channels), dtype=np.float64)

    pop_weights = np.exp(popularity)
    pop_weights /= pop_weights.sum()
    p_click0 = _logit(cfg.click_rate)
    p_atc0 = _logit(cfg.atc_rate)
    p_purchase0 = _logit(cfg.purchase_rate)

    # Each query draws from its own stream: its set-up draws here, then per
    # week its channel noise, then its session draws. The pinned worlds
    # depend on that order.
    rngs: list[np.random.Generator] = []
    seen = np.empty((cfg.num_queries, cfg.num_channels, cfg.universe_size), dtype=bool)
    sessions = np.empty((cfg.num_queries, cfg.num_weeks), dtype=np.int64)
    for q in range(cfg.num_queries):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, q]))
        rngs.append(rng)
        items = rng.choice(
            cfg.num_items, size=cfg.universe_size, replace=False, p=pop_weights
        )
        universe[q] = items
        affinity = rng.normal(0.0, 1.0, size=cfg.universe_size)
        rel0 = 0.8 * affinity + 0.5 * popularity[items]
        weekly_noise = 0.12 * rng.normal(
            0.0, 1.0, size=(cfg.universe_size, cfg.num_weeks)
        )
        relevance[q] = (
            rel0[:, None] + trend_amp[items][:, None] * ramp[None, :] + weekly_noise
        )
        channel_quality[q] = np.clip(
            cfg.channel_quality_base
            + cfg.channel_utility_concentration
            * rng.uniform(-0.5, 0.5, size=cfg.num_channels),
            0.05,
            0.98,
        )
        seen[q] = rng.random((cfg.num_channels, cfg.universe_size)) < cfg.channel_coverage
        seen[q, :, 0] = True  # each channel retrieves at least one item
        sessions[q] = rng.poisson(session_lambda[q], size=cfg.num_weeks)

    lists_by_week: dict[int, dict[QueryId, list[ChannelList]]] = {}
    uniform = InterleaveWeights.uniform(channels)
    events_by_query: list[list[tuple[np.ndarray, ...]]] = [[] for _ in range(cfg.num_queries)]
    for w in range(cfg.num_weeks):
        week_lists: dict[QueryId, list[ChannelList]] = {}
        z_by_query = []
        for q in range(cfg.num_queries):
            z = _standardize(relevance[q, :, w])
            z_by_query.append(z)
            quality = channel_quality[q]
            lists: list[ChannelList] = []
            for c in range(cfg.num_channels):
                noise = rngs[q].normal(0.0, 1.0, size=cfg.universe_size)
                score = quality[c] * z + (1.0 - quality[c]) * noise
                visible = np.flatnonzero(seen[q, c])
                order = visible[np.argsort(-score[visible], kind="stable")]
                top = order[: cfg.per_channel_n]
                lists.append(
                    ChannelList.from_pairs(
                        channels[c],
                        query_vocab[q],
                        [
                            (catalog.item_vocab[universe[q, u]], float(score[u]))
                            for u in top
                        ],
                    )
                )
            week_lists[query_vocab[q]] = lists
        lists_by_week[w] = week_lists

        # Presentation orders the logging policy would have shown, every
        # query's under its own (query, week) seed, in one batched call.
        wi_seeds = [
            [int(np.random.SeedSequence([cfg.seed, 2, q, w]).generate_state(1)[0])]
            for q in range(cfg.num_queries)
        ]
        presented = weighted_interleave_batch(
            list(week_lists.values()), [uniform] * cfg.num_queries, wi_seeds
        )
        for q, (shown, orders) in enumerate(presented):
            n_sessions = int(sessions[q, w])
            if n_sessions == 0:
                continue
            items = universe[q]
            item_code = {catalog.item_vocab[code]: u for u, code in enumerate(items)}
            pres_u = np.array([item_code[shown[j]] for j in orders[0]], dtype=np.int64)
            z = z_by_query[q]
            v = conv_quality[items]
            n_pres = len(pres_u)
            exam_p = cfg.position_decay ** np.arange(n_pres, dtype=np.float64)
            p_click = _sigmoid(p_click0 + 1.3 * z[pres_u])
            p_atc = _sigmoid(p_atc0 + 0.9 * z[pres_u] + 0.7 * v[pres_u])
            p_purchase = _sigmoid(p_purchase0 + 1.6 * v[pres_u])

            draws = rngs[q].random((4, n_sessions, n_pres))
            exam = draws[0] < exam_p[None, :]
            click = exam & (draws[1] < p_click[None, :])
            atc = click & (draws[2] < p_atc[None, :])
            purchase = atc & (draws[3] < p_purchase[None, :])
            offsets = rngs[q].uniform(0.0, WEEK_SECONDS - 3600.0, size=n_sessions)

            # Stages stacked in Action order, so a stage's index is its Action
            # value; nonzero walks them stage by stage, then by session.
            action, s_idx, pos = np.nonzero(np.stack([exam, click, atc, purchase]))
            base_session = (np.int64(q) * cfg.num_weeks + w) * _SESSION_STRIDE
            events_by_query[q].append((
                np.full(len(action), w, dtype=np.int64),
                base_session + s_idx,
                np.full(len(action), q, dtype=np.int64),
                items[pres_u[pos]],
                action.copy(),  # not a view, which would keep s_idx and pos alive
                float(w) * WEEK_SECONDS + offsets[s_idx] + pos + 800.0 * action,
            ))

    # Event parts in (query, week) order.
    parts = [part for query_parts in events_by_query for part in query_parts]

    def cat(column: int, dtype) -> np.ndarray:
        if not parts:
            return np.empty(0, dtype=dtype)
        return np.concatenate([part[column] for part in parts]).astype(dtype)

    events = EventFrame(
        week=cat(0, np.int64),
        session=cat(1, np.int64),
        query=cat(2, np.int64),
        item=cat(3, np.int64),
        action=cat(4, np.int64),
        timestamp=cat(5, np.float64),
        query_vocab=query_vocab,
        item_vocab=catalog.item_vocab,
    )
    ground_truth = GroundTruth(
        config=cfg,
        catalog=catalog,
        popularity=popularity,
        conv_quality=conv_quality,
        query_vocab=query_vocab,
        channel_names=tuple(c.name for c in channels),
        universe=universe,
        relevance=relevance,
        channel_quality=channel_quality,
    )
    return SynthWorld(
        events=events,
        channel_lists=lists_by_week,
        ground_truth=ground_truth,
        channels=channels,
    )


# ---------------------------------------------------------------------------
# Query-week retention filter and chronological split
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SplitPlan:
    """Retained (query_code, week) groups per partition, plus statistics."""

    train: set[tuple[int, int]]
    valid: set[tuple[int, int]]
    test: set[tuple[int, int]]
    train_weeks: tuple[int, ...]
    valid_week: int
    test_week: int
    stats: dict = field(default_factory=dict)

    def all_keys(self) -> set[tuple[int, int]]:
        return self.train | self.valid | self.test


def filter_and_split(
    frame: EventFrame,
    num_weeks: int,
    min_impressions: int = 20,
) -> SplitPlan:
    """Retain query-weeks passing the engagement filter; split by week.

    A (query, week) group is kept when at least one item logged
    ``min_impressions`` impressions and the group saw a purchase that
    week. Weeks [0, num_weeks-2) train, week num_weeks-2 validates, the
    final week is the held-out test.
    """
    if num_weeks < 5:
        raise ValueError("num_weeks must be >= 5")
    n_items = len(frame.item_vocab)
    qw = frame.query.astype(np.int64) * num_weeks + frame.week
    imp_mask = frame.action == int(Action.IMPRESSION)
    key = qw[imp_mask] * n_items + frame.item[imp_mask]
    uniq, counts = np.unique(key, return_counts=True)
    qw_of_key = uniq // n_items
    hit = np.unique(qw_of_key[counts >= min_impressions])

    purchased = np.unique(qw[frame.action == int(Action.PURCHASE)])

    retained = np.intersect1d(hit, purchased)
    train_weeks = tuple(range(num_weeks - 2))
    valid_week = num_weeks - 2
    test_week = num_weeks - 1

    train: set[tuple[int, int]] = set()
    valid: set[tuple[int, int]] = set()
    test: set[tuple[int, int]] = set()
    for key in retained:
        q, w = int(key // num_weeks), int(key % num_weeks)
        if w == test_week:
            test.add((q, w))
        elif w == valid_week:
            valid.add((q, w))
        else:
            train.add((q, w))

    total_groups = len(np.unique(qw))
    stats = {
        "total_groups": int(total_groups),
        "retained_groups": int(len(retained)),
        "retention": float(len(retained) / total_groups) if total_groups else 0.0,
        "train_groups": len(train),
        "valid_groups": len(valid),
        "test_groups": len(test),
        "tertile_retention": _tertile_retention(frame, retained, num_weeks),
    }
    for name, part in (("train", train), ("valid", valid), ("test", test)):
        if not part:
            raise ValueError(
                f"{name} partition is empty after filtering "
                f"(retained {len(retained)}/{total_groups} groups); "
                "lower the thresholds or raise traffic"
            )
    return SplitPlan(
        train=train,
        valid=valid,
        test=test,
        train_weeks=train_weeks,
        valid_week=valid_week,
        test_week=test_week,
        stats=stats,
    )


def _tertile_retention(
    frame: EventFrame, retained_qw: np.ndarray, num_weeks: int
) -> dict[str, float]:
    """Retention by observed query-volume tertile (head / torso / tail)."""
    n_queries = len(frame.query_vocab)
    volume = np.bincount(frame.query, minlength=n_queries)
    order = np.argsort(-volume, kind="stable")
    tertiles = np.array_split(order, 3)
    retained_q = retained_qw // num_weeks
    retained_per_q = np.bincount(retained_q.astype(np.int64), minlength=n_queries)
    out = {}
    for name, tert in zip(("head", "torso", "tail"), tertiles):
        possible = len(tert) * num_weeks
        out[name] = float(retained_per_q[tert].sum() / possible) if possible else 0.0
    return out


def write_world(world: SynthWorld, out_dir: str) -> dict[str, str]:
    """Write the event log, per-week channel lists, and ground truth."""
    import os

    from .core import write_channel_lists
    from .labeling import write_event_log

    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    events_path = os.path.join(out_dir, "events.tsv")
    write_event_log(events_path, world.events)
    paths["events"] = events_path
    for week, by_query in world.channel_lists.items():
        path = os.path.join(out_dir, f"channel_lists_w{week}.tsv")
        lists = [cl for query in sorted(by_query) for cl in by_query[query]]
        write_channel_lists(path, lists)
        paths[f"channel_lists_w{week}"] = path
    gt_path = os.path.join(out_dir, "ground_truth.npz")
    world.ground_truth.save(gt_path)
    paths["ground_truth"] = gt_path
    return paths
