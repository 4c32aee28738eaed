"""Gradient-boosted tree ranker trained with a pairwise NDCG objective."""

from .lambdas import PairIndex
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
from .tree import Tree, bin_features, leaf_value

__all__ = [
    "MODEL_FORMAT_VERSION",
    "Model",
    "ModelFormatError",
    "PairIndex",
    "TrainParams",
    "TrainingError",
    "Tree",
    "bin_features",
    "leaf_value",
    "load_model",
    "loads_model",
    "model_fingerprint",
    "save_model",
    "serialize_model",
    "train",
    "write_training_log",
]
