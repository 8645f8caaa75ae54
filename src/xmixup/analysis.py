"""Model diagnostics: forgetting probes and tail singular-value spectra.

A linear probe freezes the extractor, trains a fresh linear classifier on a
source subset's features, and reports held-out accuracy — how much source
knowledge the extractor still carries. The probe is fitted class-major: the
features are transposed once to h x N, so each full-batch step is one k x N
logit matrix whose columns are softmaxed in place; the softmax minus the
one-hot targets is the gradient of the cross-entropy, so no log is taken.

The spectrum diagnostic computes the singular values of a feature matrix
(hand-rolled one-sided Jacobi) and normalizes by the largest; the mean of the
smallest values indicates how much feature-space volume fine-tuning has
collapsed. The Jacobi sweep uses the Brent–Luk round-robin ordering: the
columns (padded with one zero column to an even count n) are paired as in a
round-robin tournament, n - 1 rounds of n / 2 disjoint pairs that together
meet every pair once, so all rotations of a round are applied as one array
operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import Dataset, class_subset, compact_classes, split
from .errors import DataError, NumericError, check_fields
from .model import ModelParams, forward, init_linear
from .pairing import PairingPlan


class ProbeSubset(Enum):
    AUXILIARY = "auxiliary"
    ABA = "aba"  # all but auxiliary
    ALL = "all"


@dataclass(frozen=True)
class ProbeConfig:
    """Fixed probe protocol so probes of different models are comparable."""

    iterations: int = 500
    lr: float = 0.1
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.iterations < 1 or self.lr <= 0:
            raise ValueError("probe needs iterations >= 1 and lr > 0")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ProbeResult:
    subset: ProbeSubset
    accuracy: float

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")


@dataclass
class Spectrum:
    """Singular values divided by the largest, in descending order."""

    normalized: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.normalized, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("spectrum must be a non-empty vector")
        if abs(v[0] - 1.0) > 1e-12:
            raise ValueError("spectrum must be normalized by its largest value")
        if np.any(np.diff(v) > 1e-12) or np.any(v < -1e-12) or np.any(v > 1 + 1e-12):
            raise ValueError("spectrum must be non-increasing within [0, 1]")
        self.normalized = v

    def tail_mean(self, k: int = 10) -> float:
        """Mean of the k smallest normalized values (all of them if fewer)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return float(self.normalized[-k:].mean())


def _train_probe_head(F: np.ndarray, y: np.ndarray, k: int, cfg: ProbeConfig):
    """Full-batch softmax-regression fit on frozen features; returns (W, b)."""
    rng = np.random.default_rng(cfg.seed)
    w, b = init_linear(k, F.shape[1], rng)
    n = len(F)
    Ft = np.ascontiguousarray(F.T)
    target = np.zeros((k, n))
    target[y, np.arange(n)] = 1.0
    step = cfg.lr / n
    for _ in range(cfg.iterations):
        G = w @ Ft
        G += b[:, None]
        G -= G.max(axis=0)
        np.exp(G, out=G)
        G /= G.sum(axis=0)
        G -= target  # softmax - onehot: the cross-entropy gradient per sample
        w -= step * (G @ F)
        b -= step * G.sum(axis=1)
    return w, b


def probe_accuracy(w: np.ndarray, b: np.ndarray, F: np.ndarray, y: np.ndarray) -> float:
    return float(((F @ w.T + b).argmax(axis=1) == y).mean())


def linear_probe(
    params: ModelParams,
    src_subset: Dataset,
    cfg: ProbeConfig,
    kind: ProbeSubset = ProbeSubset.ALL,
) -> ProbeResult:
    """Held-out accuracy of a fresh linear classifier on frozen features."""
    if len(src_subset) == 0:
        raise DataError("cannot probe an empty subset")
    compact, _ = compact_classes(src_subset)
    if compact.class_count < 2:
        raise DataError("degenerate probe: subset has a single class")
    train, test = split(compact, cfg.test_fraction, cfg.seed)
    f_train, _ = forward(params, train.X)
    f_test, _ = forward(params, test.X)
    w, b = _train_probe_head(f_train, train.y, compact.class_count, cfg)
    return ProbeResult(kind, probe_accuracy(w, b, f_test, test.y))


def source_subsets(src: Dataset, plan: PairingPlan) -> dict[ProbeSubset, Dataset]:
    """The three probe subsets: selected (auxiliary) classes, the rest, all."""
    aux = plan.selected_sources()
    rest = [c for c in range(src.class_count) if c not in set(aux)]
    return {
        ProbeSubset.AUXILIARY: class_subset(src, aux),
        ProbeSubset.ABA: class_subset(src, rest),
        ProbeSubset.ALL: src,
    }


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """n - 1 rounds of n / 2 disjoint column pairs (p, q) meeting every pair once.

    The circle method: column 0 stays put, the others rotate one seat per
    round, and seat i plays seat n - 1 - i. n must be even.
    """
    seats = list(range(n))
    rounds = []
    for _ in range(n - 1):
        rounds.append((np.array(seats[: n // 2]), np.array(seats[: n // 2 - 1 : -1])))
        seats = [seats[0], seats[-1], *seats[1:-1]]
    return rounds


def _jacobi_sweep(C: np.ndarray, rounds, tol: float) -> bool:
    """One sweep over the rows of C in place; True if any pair was rotated."""
    rotated = False
    for p, q in rounds:
        ap, aq = C[p], C[q]
        app = np.einsum("ij,ij->i", ap, ap)
        aqq = np.einsum("ij,ij->i", aq, aq)
        apq = np.einsum("ij,ij->i", ap, aq)
        hit = np.abs(apq) > tol * np.sqrt(app * aqq)
        if not hit.any():
            continue
        rotated = True
        if not hit.all():
            p, q, ap, aq = p[hit], q[hit], ap[hit], aq[hit]
            app, aqq, apq = app[hit], aqq[hit], apq[hit]
        tau = (aqq - app) / (2.0 * apq)
        t = np.copysign(1.0, tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
        c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
        s = c * t[:, None]
        C[p] = c * ap - s * aq
        C[q] = s * ap + c * aq
    return rotated


def singular_values(
    A: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60
) -> np.ndarray:
    """All singular values of a dense matrix, descending, via one-sided Jacobi.

    Columns are repeatedly rotated in pairs until every pair satisfies
    |<a_i, a_j>| <= tol * ||a_i|| * ||a_j||; the singular values are then the
    column norms. A sweep visits the pairs in round-robin order (Brent & Luk
    1985), rotating the disjoint pairs of one round together.
    """
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("need a non-empty 2-D matrix")
    if not np.all(np.isfinite(A)):
        raise NumericError("non-finite entries in matrix")
    if A.shape[0] < A.shape[1]:
        A = A.T
    m, n = A.shape
    # Row i of C is column i of A; a zero row pads to an even count and is
    # never rotated, since its inner products are exactly 0.
    C = np.zeros((n + n % 2, m))
    C[:n] = A.T
    rounds = _round_robin(len(C))
    with np.errstate(over="ignore"):  # tau * tau = inf gives t = 0, no rotation
        for _ in range(max_sweeps):
            if not _jacobi_sweep(C, rounds, tol):
                break
        else:
            raise NumericError(f"Jacobi iteration did not settle in {max_sweeps} sweeps")
    return np.sort(np.linalg.norm(C[:n], axis=1))[::-1]


def spectrum(params: ModelParams, ds: Dataset, batch: int, seed: int = 0) -> Spectrum:
    """Normalized singular spectrum of a batch x h feature matrix.

    The batch is a seeded shuffle of ds truncated to `batch` rows, so repeated
    calls with one seed compare different models on identical samples.
    """
    h = params.feature_width
    if batch < h:
        raise ValueError(f"batch {batch} smaller than feature width {h}")
    if len(ds) < batch:
        raise DataError(f"dataset has {len(ds)} samples, need {batch}")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(ds))[:batch]
    feats, _ = forward(params, ds.X[idx])
    svals = singular_values(feats)
    if svals[0] <= 0.0:
        raise NumericError("feature matrix has rank 0; cannot normalize spectrum")
    return Spectrum(svals / svals[0])
