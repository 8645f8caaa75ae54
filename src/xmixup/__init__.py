"""Cross-domain mixup transfer learning on synthetic datasets.

The pipeline: generate a Gaussian-cluster source domain and a target domain
with planted class correspondences; pre-train a small ReLU network on the
source; pair each target class to its most similar source class by feature
centroids; fine-tune with cross-domain mixup against the usual baselines;
diagnose forgetting (linear probes) and feature collapse (tail spectra).
"""

import os

# The lab's matrices are small: a second OpenBLAS thread spins, it saves no time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .dataset import Dataset, Domain, PlantedMapping, gen_source, gen_target
from .errors import ConfigError, DataError, NumericError, ParseError
from .mixup import MixupConfig, sample_beta, sample_beta_batch
from .model import ModelParams, TrainConfig
from .pairing import PairingPlan, expand_until_threshold, greedy_pair, optimal_pair
from .training import RunResult, Strategy, StrategyKind, evaluate, finetune, pretrain

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "Dataset",
    "Domain",
    "MixupConfig",
    "ModelParams",
    "NumericError",
    "PairingPlan",
    "ParseError",
    "PlantedMapping",
    "RunResult",
    "Strategy",
    "StrategyKind",
    "TrainConfig",
    "evaluate",
    "expand_until_threshold",
    "finetune",
    "gen_source",
    "gen_target",
    "greedy_pair",
    "optimal_pair",
    "pretrain",
    "sample_beta",
    "sample_beta_batch",
]
