"""Spoofing-aware speaker verification: score integration, baselines, benchmarks."""

from .core import (DataError, EmbeddingStore, NumericError, Protocol, ScoreRecord,
                   ScoreTable, Trial, TrialLabel, cosine, length_normalize,
                   load_embeddings, load_protocol, save_embeddings, save_protocol)
from .loss import OneClassSoftmaxConfig, one_class_softmax
from .metrics import EerReport, EerResult, eer, sasv_report
from .model import InputMode, IntegrationModel, score_protocol
from .training import TrainConfig, TrainResult, train

__version__ = "0.1.0"

__all__ = [
    "DataError", "EmbeddingStore", "NumericError", "Protocol",
    "ScoreRecord", "ScoreTable", "Trial", "TrialLabel", "cosine",
    "length_normalize",
    "load_embeddings", "load_protocol", "save_embeddings", "save_protocol",
    "OneClassSoftmaxConfig", "one_class_softmax",
    "EerReport", "EerResult", "eer", "sasv_report",
    "InputMode", "IntegrationModel", "score_protocol",
    "TrainConfig", "TrainResult", "train",
]
