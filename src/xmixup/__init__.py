"""Cross-domain mixup transfer learning on synthetic datasets.

The pipeline: generate a Gaussian-cluster source domain and a target domain
with planted class correspondences; pre-train a small ReLU network on the
source; pair each target class to its most similar source class by feature
centroids; fine-tune with cross-domain mixup against the usual baselines;
diagnose forgetting (linear probes) and feature collapse (tail spectra).
"""

import ctypes
import os

# The lab's matrices are small: a second OpenBLAS thread spins, it saves no time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

#: glibc's malloc thresholds, set at import: the mmap threshold at the ceiling
#: glibc's own dynamic one stops at on 64-bit, the trim threshold at twice
#: that, as glibc's rule sets it. At glibc's defaults, a training stack's
#: per-step temporaries of 128 KiB and more go back to the kernel when freed,
#: and every step pays page faults to map them again.
MMAP_THRESHOLD, TRIM_THRESHOLD = 32 << 20, 64 << 20

# As with OpenBLAS, a setting in the environment wins; without mallopt
# (outside glibc) nothing changes.
_MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"}
if not _MALLOC_ENV & os.environ.keys():
    try:
        _mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        pass
    else:
        _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        _mallopt(-3, MMAP_THRESHOLD)  # M_MMAP_THRESHOLD in malloc.h
        _mallopt(-1, TRIM_THRESHOLD)  # M_TRIM_THRESHOLD

from .dataset import Dataset, Domain, PlantedMapping, gen_source, gen_target
from .errors import ConfigError, DataError, NumericError, ParseError
from .mixup import MixupConfig, sample_beta
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
]
