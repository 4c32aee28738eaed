"""channelrank: multi-channel learning-to-rank toolkit.

Merges candidates from heterogeneous retrieval channels, builds
conversion-weighted training labels over the impression -> click ->
add-to-cart -> purchase funnel, trains a pairwise-NDCG gradient-boosted
tree ranker, and compares it against rank-fusion baselines (RRF,
weighted interleaving) under a production-style latency budget.
"""

from .core import (
    CandidatePool,
    ChannelHit,
    ChannelId,
    ChannelList,
    ItemId,
    QueryId,
    TruncationConfig,
    WeekId,
    merge_pool,
    read_channel_lists,
    truncate,
    write_channel_lists,
)
from .fusion import (
    FusedList,
    InterleaveWeights,
    rrf_fuse,
    weighted_interleave,
    weighted_interleave_batch,
)
from .labeling import (
    Action,
    CorpusStats,
    EventFrame,
    HEURISTIC_WEIGHTS,
    LabelWeights,
    calibrate_weights,
    funnel_table,
    max_normalize,
    read_event_log,
    weighted_counts,
    write_event_log,
)
from .features import (
    FeatureColumn,
    FeatureSchema,
    LookbackConfig,
    build_schema,
    fill_channel_block,
    item_feature_block,
)
from .metrics import MetricConfig, ndcg_at_k
from .gbdt import Model, TrainParams, TrainingError, load_model, save_model, train
from .dataset import (
    Dataset,
    ItemCatalog,
    build_dataset,
    item_count_table,
    read_dataset,
    write_dataset,
)
from .evaluation import (
    AblationConfig,
    EvalReport,
    ModelRanker,
    WIRanker,
    ablation_run,
    evaluate_variant,
)
from .synthgen import SplitPlan, WorldConfig, filter_and_split, generate
from .service import LatencyReport, ScoreService, bench, make_server

__version__ = "0.1.0"
