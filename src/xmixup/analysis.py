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

Both diagnostics run for many models at once (linear_probes, spectra), in
chunks of models whose working set stays near model.CHUNK_BYTES. The heads
of the models may differ, so each model runs its own extractor, without the
head, into one preallocated (S, N, h) feature array. Every probe of a chunk
starts from the one head the probe seed draws and fits on (S, k, N) logits,
and each step of the fit writes into the logits, a column and the two
gradient buffers, all built once per chunk. The spectra of a chunk share
one seeded batch, and their Jacobi sweeps rotate the pairs of a round in
every unsettled matrix as one array step. Each model
gets the bits it would get alone; linear_probe and spectrum are the calls
with one model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import Dataset, class_subset, compact_classes, split
from .errors import DataError, NumericError, check_fields
from .model import CHUNK_BYTES, ModelParams, features, init_linear, numeric_error
from .pairing import PairingPlan

#: The most target-train rows a run record's spectrum takes; it needs at
#: least as many as the feature width, which the config checks at load.
SPECTRUM_ROWS = 512


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


def _chunks(count: int, cell_bytes: int) -> list[range]:
    """Consecutive ranges of cell indices whose working sets, cell_bytes
    each, add up to at most CHUNK_BYTES; a cell larger than that is a chunk
    of its own."""
    size = max(1, CHUNK_BYTES // cell_bytes)
    return [range(i, min(i + size, count)) for i in range(0, count, size)]


def _features(models: list[ModelParams], X: np.ndarray) -> np.ndarray:
    """The (S, N, h) extractor features of X under each model; a
    NumericError names the model in `cell`. The heads of the models may
    differ in width, so each model runs its own extractor."""
    F = np.empty((len(models), len(X), models[0].feature_width))
    for s, params in enumerate(models):
        try:
            F[s] = features(params, X)
        except NumericError as e:
            raise NumericError(str(e), cell=s) from None
    return F


@dataclass(frozen=True)
class ProbeData:
    """A probe subset relabeled to [0, k) and split once into train and test
    parts, so every model probed on it sees the same rows."""

    kind: ProbeSubset
    train: Dataset
    test: Dataset

    @property
    def k(self) -> int:
        return self.train.class_count


def probe_data(src_subset: Dataset, cfg: ProbeConfig, kind: ProbeSubset) -> ProbeData:
    """Compact and split a probe subset; a DataError if it cannot be probed."""
    if len(src_subset) == 0:
        raise DataError(f"cannot probe an empty subset ({kind.value})")
    compact, _ = compact_classes(src_subset)
    if compact.class_count < 2:
        raise DataError(f"degenerate probe: subset ({kind.value}) has a single class")
    train, test = split(compact, cfg.test_fraction, cfg.seed)
    if len(test) == 0:
        raise DataError(
            f"probe split of the {kind.value} subset holds out no rows at "
            f"test_fraction {cfg.test_fraction}"
        )
    return ProbeData(kind, train, test)


def _train_probe_head(F: np.ndarray, y: np.ndarray, k: int, cfg: ProbeConfig):
    """Full-batch softmax-regression fits on frozen (S, N, h) features, one
    per model; returns W (S, k, h) and b (S, k).

    Every fit starts from the one head the probe seed draws; the stacked
    matmuls run one gemm per model, so each fit gets the bits of a fit alone.
    Features too large for float64 overflow the logits quietly, and a head
    left non-finite raises NumericError naming its model in `cell`.
    """
    S, n, h = F.shape
    w0, b0 = init_linear(k, h, np.random.default_rng(cfg.seed))
    w = np.broadcast_to(w0, (S, k, h)).copy()
    b = np.broadcast_to(b0, (S, k)).copy()
    Ft = np.ascontiguousarray(F.transpose(0, 2, 1))
    target = np.zeros((k, n))
    target[y, np.arange(n)] = 1.0
    step = cfg.lr / n
    # every step writes into these: logits, their column max or sum, dW, db
    G, col = np.empty((S, k, n)), np.empty((S, 1, n))
    dw, db = np.empty_like(w), np.empty_like(b)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.iterations):
            np.matmul(w, Ft, out=G)
            G += b[:, :, None]
            G -= G.max(axis=1, keepdims=True, out=col)
            np.exp(G, out=G)
            G /= G.sum(axis=1, keepdims=True, out=col)
            G -= target  # softmax - onehot: the cross-entropy gradient per sample
            np.matmul(G, F, out=dw)
            dw *= step
            w -= dw
            G.sum(axis=2, out=db)
            db *= step
            b -= db
    if not (np.isfinite(w).all() and np.isfinite(b).all()):
        head = np.concatenate((w.reshape(S, -1), b), axis=1)
        raise numeric_error("non-finite probe head (features too large?)", head, True)
    return w, b


def probe_accuracy(w: np.ndarray, b: np.ndarray, F: np.ndarray, y: np.ndarray):
    """Held-out accuracy of one head (w (k, h), F (N, h)), or of each head of
    a stack (w (S, k, h), F (S, N, h)) as an (S,) array."""
    logits = F @ w.swapaxes(-1, -2) + b[..., None, :]
    return (logits.argmax(axis=-1) == y).mean(axis=-1)


def linear_probes(
    models: list[ModelParams], data: ProbeData, cfg: ProbeConfig
) -> list[ProbeResult]:
    """Held-out accuracy of a fresh linear classifier on each model's frozen
    features, fitted for all models at once in chunks of about CHUNK_BYTES."""
    n_train, n_test = len(data.train), len(data.test)
    h = models[0].feature_width
    cell_bytes = 8 * (n_train * (2 * h + data.k) + n_test * h)
    results = []
    for chunk in _chunks(len(models), cell_bytes):
        part = [models[i] for i in chunk]
        try:
            w, b = _train_probe_head(
                _features(part, data.train.X), data.train.y, data.k, cfg
            )
            accs = probe_accuracy(w, b, _features(part, data.test.X), data.test.y)
        except NumericError as e:  # name the model of the call
            raise NumericError(str(e), cell=chunk[e.cell]) from None
        results += [ProbeResult(data.kind, float(a)) for a in accs]
    return results


def linear_probe(
    params: ModelParams,
    src_subset: Dataset,
    cfg: ProbeConfig,
    kind: ProbeSubset = ProbeSubset.ALL,
) -> ProbeResult:
    """Held-out accuracy of a fresh linear classifier on frozen features."""
    return linear_probes([params], probe_data(src_subset, cfg, kind), cfg)[0]


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


def _jacobi_sweep(C: np.ndarray, rounds, tol: float) -> np.ndarray:
    """One sweep over the rows of every matrix of a (S, n, m) stack C, in
    place; returns which matrices had a pair rotated.

    The pairs (p, q) of a round are taken in every matrix at once, as rows
    s * n + p and s * n + q of the stack seen as one (S * n, m) matrix.
    """
    S, n, m = C.shape
    rows = C.reshape(S * n, m)
    offsets = np.arange(0, S * n, n)[:, None]
    rotated = np.zeros(S, dtype=bool)
    for p, q in rounds:
        p, q = (offsets + p).ravel(), (offsets + q).ravel()
        ap, aq = rows[p], rows[q]
        app = np.einsum("ij,ij->i", ap, ap)
        aqq = np.einsum("ij,ij->i", aq, aq)
        apq = np.einsum("ij,ij->i", ap, aq)
        hit = np.abs(apq) > tol * np.sqrt(app * aqq)
        if not hit.any():
            continue
        rotated |= hit.reshape(S, -1).any(axis=1)
        if not hit.all():
            p, q, ap, aq = p[hit], q[hit], ap[hit], aq[hit]
            app, aqq, apq = app[hit], aqq[hit], apq[hit]
        tau = (aqq - app) / (2.0 * apq)
        t = np.copysign(1.0, tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
        c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
        s = c * t[:, None]
        rows[p] = c * ap - s * aq
        rows[q] = s * ap + c * aq
    return rotated


def singular_values(
    A: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60
) -> np.ndarray:
    """All singular values of a dense matrix, descending, via one-sided Jacobi;
    given a (S, rows, cols) stack, those of each matrix as an (S, k) array.

    Columns are repeatedly rotated in pairs until every pair satisfies
    |<a_i, a_j>| <= tol * ||a_i|| * ||a_j||; the singular values are then the
    column norms. A sweep visits the pairs in round-robin order (Brent & Luk
    1985), rotating the disjoint pairs of one round, in every matrix of the
    stack, together. A matrix leaves the stack after its first sweep without
    a rotation, so each gets the bits it would get alone; one that has not
    settled in max_sweeps sweeps raises NumericError with its index as cell.
    """
    A = np.array(A, dtype=float)
    stacked = A.ndim == 3
    if A.ndim not in (2, 3) or A.size == 0:
        raise ValueError("need a non-empty 2-D matrix or a stack of them")
    if not np.all(np.isfinite(A)):
        raise numeric_error("non-finite entries in matrix", A, stacked)
    if not stacked:
        A = A[None]
    if A.shape[1] < A.shape[2]:
        A = A.swapaxes(1, 2)
    S, m, n = A.shape
    # Row i of C[s] is column i of A[s]; a zero row pads to an even count and
    # is never rotated, since its inner products are exactly 0.
    C = np.zeros((S, n + n % 2, m))
    C[:, :n] = A.swapaxes(1, 2)
    rounds = _round_robin(C.shape[1])
    norms = np.empty((S, n))
    live = np.arange(S)
    with np.errstate(over="ignore"):  # tau * tau = inf gives t = 0, no rotation
        for _ in range(max_sweeps):
            rotated = _jacobi_sweep(C, rounds, tol)
            if not rotated.all():
                norms[live[~rotated]] = np.linalg.norm(C[~rotated, :n], axis=2)
                live, C = live[rotated], C[rotated]
                if not live.size:
                    break
        else:
            raise NumericError(
                f"Jacobi iteration did not settle in {max_sweeps} sweeps",
                cell=int(live[0]) if stacked else None,
            )
    svals = np.sort(norms, axis=1)[:, ::-1]
    return svals if stacked else svals[0]


def spectra(
    models: list[ModelParams], ds: Dataset, batch: int, seed: int = 0
) -> list[Spectrum]:
    """Normalized singular spectrum of each model's batch x h feature matrix.

    The batch is a seeded shuffle of ds truncated to `batch` rows, drawn once,
    so every model (and repeated calls with one seed) is compared on identical
    samples. The SVDs run stacked, in chunks of about CHUNK_BYTES.
    """
    h = models[0].feature_width
    if batch < h:
        raise ValueError(f"batch {batch} smaller than feature width {h}")
    if len(ds) < batch:
        raise DataError(f"dataset has {len(ds)} samples, need {batch}")
    rng = np.random.default_rng(seed)
    X = ds.X[rng.permutation(len(ds))[:batch]]
    out = []
    # the features, the Jacobi rows and one round's copies of them
    for chunk in _chunks(len(models), 8 * 3 * batch * (h + 1)):
        try:
            svals = singular_values(_features([models[i] for i in chunk], X))
        except NumericError as e:
            raise NumericError(str(e), cell=chunk[e.cell]) from None
        for i, sv in zip(chunk, svals):
            if sv[0] <= 0.0:
                raise NumericError(
                    "feature matrix has rank 0; cannot normalize spectrum", cell=i
                )
            out.append(Spectrum(sv / sv[0]))
    return out


def spectrum(params: ModelParams, ds: Dataset, batch: int, seed: int = 0) -> Spectrum:
    """Normalized singular spectrum of a batch x h feature matrix (see spectra)."""
    return spectra([params], ds, batch, seed)[0]
