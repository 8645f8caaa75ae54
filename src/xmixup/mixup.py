"""Cross-domain mixup: Beta(α, β) coefficients and target/auxiliary blending.

A mixed row is x = λ·x_t + (1−λ)·x_s with the labels blended the same way
over the unified label space (target classes first, then the selected source
classes). λ is drawn fresh per row. The Beta sampler is built from scratch:
an exact inverse-CDF path for β = 1 and a Marsaglia–Tsang Gamma ratio
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import DataError, NumericError, require_finite
from .pairing import PairingPlan

#: Redraws sample_beta allows before it gives up: λ rounds to exactly 0 or 1
#: only for extreme shapes, where every draw would.
MAX_BETA_DRAWS = 1000


@dataclass(frozen=True)
class MixupConfig:
    alpha: float = 2.0
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        require_finite(self)
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError(
                f"Beta shapes must be positive, got alpha={self.alpha} beta={self.beta}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class LabelSpace:
    """Unified label indexing: target classes take [0, n), selected source
    classes take [n, L) in ascending original-id order.

    `source_columns[c]` is the unified column of source class c, or -1 when c
    is not selected; it covers source ids up to the largest selected one.
    """

    n_target: int
    source_classes: tuple[int, ...]
    source_columns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_target < 1:
            raise ValueError("need at least one target class")
        self.source_classes = tuple(self.source_classes)
        if list(self.source_classes) != sorted(set(self.source_classes)):
            raise ValueError("source classes must be sorted and distinct")
        self.source_columns = np.full(max(self.source_classes, default=-1) + 1, -1)
        self.source_columns[list(self.source_classes)] = self.n_target + np.arange(
            len(self.source_classes)
        )

    @property
    def size(self) -> int:
        return self.n_target + len(self.source_classes)


#: (α, β) pairs covered by the sampler's distributional self-checks — spans
#: sub-uniform, uniform, and sharply peaked shapes on both sides of λ = 1/2.
SHAPE_GRID: tuple[tuple[float, float], ...] = tuple(
    (a, b) for a in (0.25, 1.0, 2.0, 8.0) for b in (0.5, 1.0, 2.0)
)


def _open_uniform(rng) -> float:
    """Uniform draw in the open interval (0, 1)."""
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return u


def sample_gamma(shape: float, rng) -> float:
    """Gamma(shape, 1) variate via Marsaglia–Tsang squeeze-and-accept.

    For shape < 1 the standard boost applies: G(a) = G(a+1) · U^{1/a}.
    """
    if not shape > 0:
        raise ValueError(f"shape must be positive, got {shape}")
    if shape < 1.0:
        return sample_gamma(shape + 1.0, rng) * _open_uniform(rng) ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.standard_normal()
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            continue
        u = _open_uniform(rng)
        if u < 1.0 - 0.0331 * x**4:
            return d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def sample_beta(cfg: MixupConfig, rng) -> float:
    """λ ~ Beta(α, β) in (0, 1).

    β = 1 uses the exact inverse CDF λ = U^{1/α} (the CDF is x^α); any other
    β uses λ = G_α / (G_α + G_β). Boundary values from float rounding are
    redrawn so the open interval holds, at most MAX_BETA_DRAWS times.
    """
    for _ in range(MAX_BETA_DRAWS):
        if cfg.beta == 1.0:
            lam = _open_uniform(rng) ** (1.0 / cfg.alpha)
        else:
            g_a = sample_gamma(cfg.alpha, rng)
            g_b = sample_gamma(cfg.beta, rng)
            lam = g_a / (g_a + g_b)
        if 0.0 < lam < 1.0:
            return lam
    raise NumericError(
        f"Beta({cfg.alpha}, {cfg.beta}) gave no draw inside (0, 1) "
        f"in {MAX_BETA_DRAWS} tries"
    )


def make_batch(
    tgt_train: Dataset,
    src: Dataset,
    plan: PairingPlan,
    space: LabelSpace,
    cfg: MixupConfig,
    batch_size: int,
    rng,
) -> tuple[np.ndarray, np.ndarray]:
    """A mini-batch of mixed rows as stacked inputs X and soft labels P.

    Target rows are drawn uniformly with replacement. Then, per row, one
    source class paired to its target class (uniform over all rounds), one
    sample of that class and one fresh λ. The per-row draws stay scalar and
    in this order because every run record depends on the random stream.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if len(tgt_train) == 0:
        raise DataError("cannot draw a batch from an empty target dataset")
    picks = rng.integers(len(tgt_train), size=batch_size)
    targets = tgt_train.y[picks]
    by_class = src.indices_by_class()
    aux = np.empty(batch_size, dtype=int)
    lam = np.empty((batch_size, 1))
    for i, t in enumerate(targets.tolist()):
        paired = plan.per_target[t]
        cls = paired[int(rng.integers(len(paired)))]
        pool = by_class[cls]
        if len(pool) == 0:
            raise DataError(f"source class {cls} has no samples to draw from")
        aux[i] = pool[int(rng.integers(len(pool)))]
        lam[i] = sample_beta(cfg, rng)
    eye = np.eye(space.size)
    X = lam * tgt_train.X[picks] + (1.0 - lam) * src.X[aux]
    P = lam * eye[targets] + (1.0 - lam) * eye[space.source_columns[src.y[aux]]]
    return X, P
