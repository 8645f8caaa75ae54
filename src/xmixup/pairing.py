"""Auxiliary class selection: feature centroids, cosine similarity, greedy matching.

Each target class is matched one-to-one to a source class by maximizing the
cosine similarity between per-class feature centroids (features come from a
frozen extractor). Greedy matching repeatedly fixes the globally most similar
unmatched pair; `optimal_pair` is the exhaustive oracle it is tested against.
Multi-round expansion reruns the matching on the not-yet-selected source
classes until the selected source samples reach a size threshold.

Every plan the commands train on is built here, by that one budget loop:
`centroid_similarity` computes both domains' centroids and their similarity
once, and `expand_until_threshold` expands it to a threshold (the
configured one or `default_threshold`); `random_plan`, the similarity-blind
control, runs the same loop over similarities that rank a shuffled source
order. A PairingPlan holds its pairs and nothing derived from them; the
mixup module builds its lookup table once per fine-tune call.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .atomic import write_table
from .dataset import Dataset, read_lines
from .errors import DataError, NumericError, ParseError
from .model import ModelParams, feature_blocks, features

_ZERO_NORM = 1e-12


@dataclass
class SimilarityMatrix:
    """Cosine similarities, one row per target class, one column per source class."""

    sims: np.ndarray

    def __post_init__(self):
        self.sims = np.asarray(self.sims, dtype=float)
        if self.sims.ndim != 2:
            raise ValueError("similarity matrix must be 2-D")
        if not np.all(np.abs(self.sims) <= 1.0 + 1e-12):  # NaN fails it too
            raise ValueError("cosine similarities must lie in [-1, 1]")

    @property
    def n(self) -> int:
        return self.sims.shape[0]

    @property
    def m(self) -> int:
        return self.sims.shape[1]


@dataclass
class PairingPlan:
    """Ordered source classes per target class, one entry per matching round.

    per_target[t][r] is the source class matched to target t in round r+1
    (a target may miss the final round when the source set runs out first);
    scores holds the parallel similarity values. `exhausted` means every
    source class was selected before the sample threshold was reached.
    """

    per_target: dict[int, list[int]]
    scores: dict[int, list[float]]
    n_rounds: int
    exhausted: bool = False

    def __post_init__(self):
        for t, srcs in self.per_target.items():
            if len(srcs) != len(set(srcs)):
                raise ValueError(f"target {t} pairs a source class twice: {srcs}")
            if len(self.scores[t]) != len(srcs):
                raise ValueError(f"target {t}: scores do not parallel sources")
        for r in range(self.n_rounds):
            in_round = [srcs[r] for srcs in self.per_target.values() if len(srcs) > r]
            if len(in_round) != len(set(in_round)):
                raise ValueError(f"round {r + 1} is not injective")

    def selected_sources(self) -> list[int]:
        return sorted({s for srcs in self.per_target.values() for s in srcs})

    def round_map(self, round_index: int) -> dict[int, int]:
        """target -> source assignments of one round (1-based)."""
        r = round_index - 1
        return {
            t: srcs[r] for t, srcs in self.per_target.items() if len(srcs) > r
        }

    def entries(self):
        """(round, target, source, similarity) tuples sorted by round then target."""
        out = []
        for t in sorted(self.per_target):
            for r, (s, score) in enumerate(zip(self.per_target[t], self.scores[t])):
                out.append((r + 1, t, s, score))
        out.sort(key=lambda e: (e[0], e[1]))
        return out


def compute_centroids(ds: Dataset, params: ModelParams) -> np.ndarray:
    """Mean extractor feature per class as a (class_count, h) matrix: row c
    is centroid(c) = (1/|c|) sum_x features(x). A mean too large for float64
    overflows quietly; similarity rejects it.

    The features are summed a block of model.feature_blocks at a time, each
    class's rows in row order, so the pass holds one block's layer outputs
    (at most 2048 rows of the lab's extractor), not the split's features.
    numpy's mean over axis 0 adds a class's rows in that order, so each
    centroid has the bits of `features(params, X)[idx].mean(axis=0)`.
    A single column numpy sums pairwise instead: at feature width 1, where
    the split's features take no more bytes than its labels, each class's
    sum is that of numpy's own reduction over the whole pass.
    """
    sums = np.full((ds.class_count, params.feature_width), -0.0)  # -0.0 + x is x
    with np.errstate(over="ignore", invalid="ignore"):
        if params.feature_width > 1:
            for rows in feature_blocks(params, len(ds)):
                np.add.at(sums, ds.y[rows], features(params, ds.X[rows]))
        else:
            feats = features(params, ds.X)
            for c, idx in ds.indices_by_class().items():
                sums[c] = feats[idx].sum(axis=0)
    sizes = np.bincount(ds.y, minlength=ds.class_count)
    if not sizes.all():
        c = int(sizes.argmin())
        raise DataError(f"class {c} has no samples; cannot form a centroid")
    return sums / sizes[:, None]


def similarity(src: np.ndarray, tgt: np.ndarray) -> SimilarityMatrix:
    """Pairwise cosine similarity between target and source centroids, given
    as compute_centroids' matrices (row c for class c). A centroid whose
    norm is zero or overflows raises NumericError."""
    if src.shape[1] != tgt.shape[1]:
        raise ValueError(f"centroid widths differ: {src.shape[1]} vs {tgt.shape[1]}")

    def unit(mat: np.ndarray, side: str) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(mat, axis=1)
        huge = np.flatnonzero(~np.isfinite(norms))
        if huge.size:
            message = f"{side} class {huge[0]} has a centroid too large to norm"
            raise NumericError(message)
        small = np.flatnonzero(norms <= _ZERO_NORM)
        if small.size:
            raise NumericError(f"{side} class {small[0]} has a zero-norm centroid")
        return mat / norms[:, None]

    return SimilarityMatrix(unit(tgt, "target") @ unit(src, "source").T)


def centroid_similarity(
    params: ModelParams, src: Dataset, tgt: Dataset
) -> SimilarityMatrix:
    """Similarity of the target to the source class centroids under params."""
    return similarity(compute_centroids(src, params), compute_centroids(tgt, params))


def _greedy_round(sims: np.ndarray, avail_sources: np.ndarray) -> list[tuple[int, int]]:
    """Greedily match targets to available sources, best global pair first.

    Ties break toward the smallest target index, then the smallest source
    index. Stops when targets or available sources run out, so the round may
    be partial.
    """
    n, m = sims.shape
    avail_t = np.ones(n, dtype=bool)
    avail_s = avail_sources.copy()
    pairs = []
    for _ in range(min(n, int(avail_s.sum()))):
        masked = np.where(np.outer(avail_t, avail_s), sims, -np.inf)
        t, s = divmod(int(masked.argmax()), m)
        pairs.append((t, s))
        avail_t[t] = False
        avail_s[s] = False
    return pairs


def greedy_pair(sm: SimilarityMatrix) -> dict[int, int]:
    """One-to-one target->source map via global-best-pair-first greedy search."""
    if sm.m < sm.n:
        raise ValueError(
            f"need at least as many source as target classes ({sm.m} < {sm.n})"
        )
    return dict(sorted(_greedy_round(sm.sims, np.ones(sm.m, dtype=bool))))


# optimal_pair holds a column and a total per permutation, so it refuses
# more than this many; the largest in use, 8P6 = 20160, is far below
_MAX_PERMUTATIONS = 1_000_000


@functools.lru_cache(maxsize=16)
def _permutations(m: int, n: int) -> np.ndarray:
    """Every ordered choice of n of m source classes, one per column of an
    (n, m!/(m-n)!) array, in itertools.permutations order."""
    count = math.perm(m, n)
    flat = itertools.chain.from_iterable(itertools.permutations(range(m), n))
    perms = np.fromiter(flat, dtype=np.min_scalar_type(m), count=count * n)
    return np.ascontiguousarray(perms.reshape(count, n).T)


def optimal_pair(sm: SimilarityMatrix) -> dict[int, int]:
    """Exhaustive maximum-total-similarity one-to-one map (test oracle, n <= 8).

    Every permutation's total adds its similarities in target order, so the
    totals are those of Python's sum over each permutation; argmax keeps the
    first maximum in permutation order, so ties break toward the first.
    """
    if sm.m < sm.n:
        raise ValueError(
            f"need at least as many source as target classes ({sm.m} < {sm.n})"
        )
    if sm.n > 8:
        raise ValueError(f"exhaustive search limited to n <= 8, got {sm.n}")
    if math.perm(sm.m, sm.n) > _MAX_PERMUTATIONS:
        raise ValueError(
            f"exhaustive search limited to {_MAX_PERMUTATIONS} permutations, "
            f"got {math.perm(sm.m, sm.n)}"
        )
    cols = _permutations(sm.m, sm.n)
    totals = sm.sims[0][cols[0]]
    for t in range(1, sm.n):
        totals += sm.sims[t][cols[t]]
    best = cols[:, int(totals.argmax())]
    return {t: int(s) for t, s in enumerate(best)}


def expand_until_threshold(
    sm: SimilarityMatrix, src_class_sizes: dict[int, int], threshold: int
) -> PairingPlan:
    """Repeat greedy matching on unselected source classes until the selected
    sample count reaches `threshold` (or the source classes run out)."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    for s in range(sm.m):
        if s not in src_class_sizes:
            raise ValueError(f"missing size for source class {s}")
    if sm.m < sm.n:
        raise ValueError(
            f"need at least as many source as target classes ({sm.m} < {sm.n})"
        )

    per_target: dict[int, list[int]] = {t: [] for t in range(sm.n)}
    scores: dict[int, list[float]] = {t: [] for t in range(sm.n)}
    avail = np.ones(sm.m, dtype=bool)
    total = 0
    n_rounds = 0
    while avail.any():
        for t, s in _greedy_round(sm.sims, avail):
            per_target[t].append(s)
            scores[t].append(float(sm.sims[t, s]))
            avail[s] = False
            total += src_class_sizes[s]
        n_rounds += 1
        if total >= threshold:
            break
    return PairingPlan(per_target, scores, n_rounds, exhausted=not avail.any())


def default_threshold(tgt_train: Dataset) -> int:
    """Auxiliary sample budget when none is configured: 2.5x the target set.

    Sized so the default suite selects a single pairing round; a second round
    drags in weakly-matched source classes that dilute the label mixing.
    """
    return 5 * len(tgt_train) // 2


def random_plan(
    n_target: int, m: int, src_class_sizes: dict[int, int], threshold: int, rng
) -> PairingPlan:
    """Similarity-blind control: deal a shuffled source-class order to the
    targets round-robin until the sample budget is met. Scores are zero.

    Every target ranks the sources alike, earlier in the order higher, so
    expand_until_threshold's rounds, ties broken toward the smaller target,
    hand targets 0, 1, ... the next classes of the order in turn.
    """
    rank = np.empty(m)
    rank[rng.permutation(m)] = np.arange(m)
    sims = SimilarityMatrix(np.tile(-rank / m, (n_target, 1)))
    plan = expand_until_threshold(sims, src_class_sizes, threshold)
    zeros = {t: [0.0] * len(srcs) for t, srcs in plan.per_target.items()}
    return replace(plan, scores=zeros)


_PLAN_HEADER = "round,target_class,source_class,similarity"


def save_plan(plan: PairingPlan, path) -> None:
    """Write a plan as CSV: an `exhausted,true|false` line, then the header
    `round,target_class,source_class,similarity` and one row per pairing."""
    flag = "true" if plan.exhausted else "false"
    write_table(path, f"exhausted,{flag}\n{_PLAN_HEADER}", plan.entries())


def load_plan(path) -> PairingPlan:
    """Read a plan CSV written by save_plan; a malformed one, a round that
    pairs a source class twice included, is a ParseError."""
    lines = read_lines(path)
    flags = {"exhausted,true": True, "exhausted,false": False}
    if not lines or lines[0] not in flags:
        raise ParseError(
            "expected `exhausted,true` or `exhausted,false`", line=1, path=path
        )
    if len(lines) < 2 or lines[1] != _PLAN_HEADER:
        raise ParseError("bad plan header", line=2, path=path)
    rows = []
    for lineno, row in enumerate(lines[2:], start=3):
        cols = row.split(",")
        if len(cols) != 4:
            raise ParseError(
                f"expected 4 columns, got {len(cols)}", line=lineno, path=path
            )
        try:
            rows.append((int(cols[0]), int(cols[1]), int(cols[2]), float(cols[3])))
        except ValueError:
            raise ParseError("non-numeric plan entry", line=lineno, path=path) from None
        if not math.isfinite(rows[-1][3]):
            raise ParseError("non-finite similarity", line=lineno, path=path)
    if not rows:
        raise DataError(f"{path}: plan file has no entries")
    rows.sort(key=lambda e: (e[0], e[1]))
    per_target: dict[int, list[int]] = {}
    scores: dict[int, list[float]] = {}
    for rnd, t, s, score in rows:
        per_target.setdefault(t, []).append(s)
        scores.setdefault(t, []).append(score)
        if len(per_target[t]) != rnd:
            raise ParseError(
                f"target {t} is missing round {len(per_target[t])}", path=path
            )
    try:
        return PairingPlan(per_target, scores, rows[-1][0], flags[lines[0]])
    except ValueError as e:
        raise ParseError(str(e), path=path) from None
