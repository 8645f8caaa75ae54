"""Cross-domain mixup transfer learning on synthetic datasets.

The pipeline: generate a Gaussian-cluster source domain and a target domain
with planted class correspondences; pre-train a small ReLU network on the
source; pair each target class to its most similar source class by feature
centroids; fine-tune with cross-domain mixup against the usual baselines;
diagnose forgetting (linear probes) and feature collapse (tail spectra).

Importing the package sets one OpenBLAS thread unless the environment says
otherwise, and changes nothing else about the process.
"""

import os

# The lab's matrices are small: a second OpenBLAS thread spins, it saves no time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .dataset import Dataset, Domain, PlantedMapping, gen_source, gen_target
from .errors import ConfigError, DataError, NumericError, ParseError
from .mixup import MixupConfig, sample_beta
from .model import ModelParams, TrainConfig
from .pairing import PairingPlan, expand_until_threshold, greedy_pair, optimal_pair
from .training import Cell, RunResult, Strategy, StrategyKind, evaluate, finetune
from .training import finetune_cells, pretrain

__version__ = "0.1.0"

#: The version of every random stream and every rounding the commands
#: compute. A change that moves any byte of an artifact bumps it, and
#: tests/golden/<STREAM_VERSION>.txt lists the artifacts' checksums under it.
STREAM_VERSION = 1

__all__ = [
    "Cell",
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
    "STREAM_VERSION",
    "Strategy",
    "StrategyKind",
    "TrainConfig",
    "evaluate",
    "expand_until_threshold",
    "finetune",
    "finetune_cells",
    "gen_source",
    "gen_target",
    "greedy_pair",
    "optimal_pair",
    "pretrain",
    "sample_beta",
]
