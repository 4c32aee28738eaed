"""Gradient-boosted tree ranker trained with a pairwise NDCG objective."""

from .lambdas import PairIndex, delta_ndcg, lambda_gradients
from .model import Model, TrainingError, TrainParams, train, write_training_log
from .serialize import (
    MODEL_FORMAT_VERSION,
    ModelFormatError,
    load_model,
    loads_model,
    model_fingerprint,
    save_model,
    serialize_model,
)
from .tree import (
    AxisSplit,
    Leaf,
    ObliqueSplit,
    Tree,
    bin_features,
    find_best_split,
    leaf_value,
)

__all__ = [
    "AxisSplit",
    "Leaf",
    "MODEL_FORMAT_VERSION",
    "Model",
    "ModelFormatError",
    "ObliqueSplit",
    "PairIndex",
    "TrainParams",
    "TrainingError",
    "Tree",
    "bin_features",
    "delta_ndcg",
    "find_best_split",
    "lambda_gradients",
    "leaf_value",
    "load_model",
    "loads_model",
    "model_fingerprint",
    "save_model",
    "serialize_model",
    "train",
    "write_training_log",
]
