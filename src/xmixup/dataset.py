"""Synthetic Gaussian-cluster classification datasets with planted class correspondences.

Source datasets are unions of isotropic Gaussian clusters whose means are drawn
uniformly in [-1, 1]^d. Target datasets are built *from* a source dataset: each
planted target class copies the samples of one source class (plus optional
noise), so the ground-truth class correspondence is known and pairing quality
is checkable. Everything is a pure function of its arguments including the
seed. A Dataset holds its rows and nothing derived from them:
indices_by_class() and class_sizes() compute the class grouping on each
call, and no caller needs it per step.

A split on disk is a CSV (save_dataset, load_dataset) read and written a
row at a time: load_dataset parses the lines into flat buffers that become
the arrays, so a load holds the arrays and one line, not the text and a
Python list per row.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .atomic import write_table
from .errors import DataError, ParseError

_MAX_MEAN_TRIES = 100_000


class Domain(Enum):
    SOURCE = "source"
    TARGET = "target"


@dataclass(eq=False)
class Dataset:
    """Feature rows `X` (N×d float64) with integer labels `y` in [0, class_count).

    Classes may be empty (subset datasets produced by filtering have gaps).
    The arrays are treated as immutable after construction.
    """

    X: np.ndarray
    y: np.ndarray
    class_count: int
    domain: Domain

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.class_count < 1:
            raise ValueError("class_count must be positive")
        if self.X.ndim != 2 or self.X.shape[1] < 1:
            raise ValueError(f"X must be N×d with d >= 1, got shape {self.X.shape}")
        if self.y.shape != (len(self.X),):
            raise ValueError(f"{self.y.shape} labels for {len(self.X)} feature rows")
        bad = np.flatnonzero((self.y < 0) | (self.y >= self.class_count))
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"sample {i} label {self.y[i]} outside [0, {self.class_count})"
            )

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def __len__(self):
        return len(self.y)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.class_count == other.class_count
            and self.domain is other.domain
            and np.array_equal(self.X, other.X)
            and np.array_equal(self.y, other.y)
        )

    def indices_by_class(self) -> dict[int, np.ndarray]:
        """Sample indices grouped by class, ascending within a class: views
        into one stable argsort of the labels."""
        ends = np.cumsum(np.bincount(self.y, minlength=self.class_count))
        return dict(enumerate(np.split(np.argsort(self.y, kind="stable"), ends[:-1])))

    def class_sizes(self) -> dict[int, int]:
        return dict(enumerate(np.bincount(self.y, minlength=self.class_count).tolist()))


@dataclass(frozen=True)
class PlantedMapping:
    """Ground truth: target class index -> copied source class, or None if novel."""

    mapping: dict[int, int | None]

    def __post_init__(self):
        used = [s for s in self.mapping.values() if s is not None]
        if len(used) != len(set(used)):
            raise ValueError("planted mapping must be injective over non-novel classes")

    def planted_classes(self) -> list[int]:
        return sorted(t for t, s in self.mapping.items() if s is not None)

    def novel_classes(self) -> list[int]:
        return sorted(t for t, s in self.mapping.items() if s is None)


def _draw_means(rng, count, d, min_dist, avoid=()):
    """Draw `count` means uniform in [-1,1]^d, rejecting any pair closer than min_dist.

    Each candidate is tested against every placed mean and every mean of
    `avoid` in one array step. A distance within a relative 1e-9 of min_dist
    is decided again by the scalar norm, so each decision is that of
    `np.linalg.norm(cand - m) >= min_dist` for every m.
    """
    k = len(avoid)
    means = np.empty((k + count, d))
    means[:k] = np.reshape(avoid, (k, d))
    placed = k
    tries = 0
    while placed < len(means):
        tries += 1
        if tries > _MAX_MEAN_TRIES:
            raise DataError(
                f"could not place {count} class means at min distance {min_dist}"
            )
        cand = rng.uniform(-1.0, 1.0, size=d)
        diff = means[:placed] - cand
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        if (dist < min_dist * (1 - 1e-9)).any():
            continue
        near = means[:placed][dist < min_dist * (1 + 1e-9)]
        if all(np.linalg.norm(cand - m) >= min_dist for m in near):
            means[placed] = cand
            placed += 1
    return means[k:]


def _check_gen_args(m, per_class, d, spread):
    if m < 2:
        raise ValueError(f"need at least 2 classes, got {m}")
    if per_class < 2:
        raise ValueError(f"need at least 2 samples per class, got {per_class}")
    if d < 2:
        raise ValueError(f"need dimension >= 2, got {d}")
    if not spread > 0:
        raise ValueError(f"spread must be positive, got {spread}")


def gen_source(m: int, per_class: int, d: int, spread: float, seed: int) -> Dataset:
    """Generate a source dataset of m Gaussian clusters.

    Args:
        m: number of classes (>= 2).
        per_class: samples per class (>= 2).
        d: feature dimension (>= 2).
        spread: isotropic noise stddev around each class mean; means closer
            than 0.5 * spread are rejection-resampled.
        seed: RNG seed; output is a pure function of all arguments.
    """
    _check_gen_args(m, per_class, d, spread)
    rng = np.random.default_rng(seed)
    means = _draw_means(rng, m, d, min_dist=0.5 * spread)
    X = np.concatenate(
        [means[c] + spread * rng.standard_normal((per_class, d)) for c in range(m)]
    )
    return Dataset(X, np.repeat(np.arange(m), per_class), m, Domain.SOURCE)


def source_class_means(m: int, d: int, spread: float, seed: int) -> np.ndarray:
    """Replay the class means gen_source(seed=seed) plants (same draw order)."""
    _check_gen_args(m, 2, d, spread)
    rng = np.random.default_rng(seed)
    return _draw_means(rng, m, d, min_dist=0.5 * spread)


def gen_target(
    src: Dataset,
    planted: list[int],
    novel: int,
    per_class: int,
    noise: float,
    seed: int,
) -> tuple[Dataset, PlantedMapping]:
    """Build a target dataset whose first classes copy planted source classes.

    Target class i < len(planted) draws per_class samples of source class
    planted[i] (without replacement when enough exist) and adds isotropic
    Gaussian noise of the given stddev; at noise=0 the copies are exact.
    Novel classes get fresh means and the same noise scale. The returned
    PlantedMapping records which target class copies which source class.
    """
    planted = [int(c) for c in planted]
    if len(set(planted)) != len(planted):
        raise ValueError(f"duplicate planted source index in {planted}")
    for c in planted:
        if not 0 <= c < src.class_count:
            raise ValueError(f"planted index {c} outside [0, {src.class_count})")
    if per_class < 2:
        raise ValueError(f"need at least 2 samples per class, got {per_class}")
    if novel < 0:
        raise ValueError(f"novel class count must be >= 0, got {novel}")
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    if len(planted) + novel < 1:
        raise ValueError("target needs at least one class")

    rng = np.random.default_rng(seed)
    n = len(planted) + novel
    by_class = src.indices_by_class()
    blocks = []
    for src_cls in planted:
        pool = by_class[src_cls]
        if len(pool) == 0:
            raise DataError(f"source class {src_cls} has no samples to copy")
        chosen = rng.choice(pool, size=per_class, replace=len(pool) < per_class)
        jitter = rng.standard_normal((per_class, src.d))
        blocks.append(src.X[chosen] + noise * jitter)
    if novel:
        anchors = [src.X[idx].mean(axis=0) for idx in by_class.values() if len(idx) > 0]
        means = _draw_means(rng, novel, src.d, min_dist=0.5 * noise, avoid=anchors)
        for k in range(novel):
            blocks.append(means[k] + noise * rng.standard_normal((per_class, src.d)))
    X = np.concatenate(blocks)
    y = np.repeat(np.arange(n), per_class)

    mapping = {t: src_cls for t, src_cls in enumerate(planted)}
    mapping.update({len(planted) + k: None for k in range(novel)})
    return Dataset(X, y, n, Domain.TARGET), PlantedMapping(mapping)


def save_dataset(ds: Dataset, path) -> None:
    """Write a dataset as CSV: header `domain,class_count,d`, then `label,x_0,...`.

    Floats carry 17 significant digits so load(save(ds)) == ds exactly. The
    rows are converted one at a time, so no Python copy of the split is made.
    """
    header = f"{ds.domain.value},{ds.class_count},{ds.d}"
    rows = ([label, *x.tolist()] for label, x in zip(ds.y.tolist(), ds.X))
    write_table(path, header, rows)


def read_lines(path) -> list[str]:
    """The lines of a text artifact, less the empty one after its last
    newline; a file that is not UTF-8 is a ParseError naming it."""
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8: {e}", path=path) from None
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def load_dataset(path) -> Dataset:
    """Read a dataset written by save_dataset; a malformed one is a
    ParseError naming the file and the line.

    The file is parsed as a stream, a line at a time, into one flat buffer
    of labels and one of features, which become the Dataset's arrays
    without a copy. Lines are split as read_lines splits them: "\n",
    "\r\n" and a lone "\r" each end one, and the empty line after the last
    newline is no line. The first malformed line is the one reported,
    unless the file is not UTF-8 anywhere, which is reported as read_lines
    reports it.
    """
    try:
        with open(path, encoding="utf-8") as f:
            return _parse_dataset(f, path)
    except (ParseError, UnicodeDecodeError):
        read_lines(path)  # raises if the file is not UTF-8
        raise


def _parse_dataset(f, path) -> Dataset:
    """The Dataset of the open file `f` (see load_dataset)."""
    first = f.readline()
    if not first:
        raise ParseError("empty file", line=1, path=path)
    header = first.removesuffix("\n").split(",")
    if len(header) != 3:
        raise ParseError("header must be `domain,class_count,d`", line=1, path=path)
    try:
        domain = Domain(header[0])
    except ValueError:
        raise ParseError(f"unknown domain {header[0]!r}", line=1, path=path) from None
    try:
        class_count, d = int(header[1]), int(header[2])
    except ValueError:
        raise ParseError(
            "class_count and d must be integers", line=1, path=path
        ) from None
    if class_count < 1 or d < 1:
        raise ParseError("class_count and d must be positive", line=1, path=path)

    labels, values = array("q"), array("d")
    for lineno, row in enumerate(f, start=2):
        cols = row.removesuffix("\n").split(",")
        if len(cols) != 1 + d:
            raise ParseError(
                f"expected {1 + d} columns, got {len(cols)}", line=lineno, path=path
            )
        try:
            label = int(cols[0])
        except ValueError:
            raise ParseError(
                f"non-numeric label {cols[0]!r}", line=lineno, path=path
            ) from None
        if not 0 <= label < class_count:
            raise ParseError(
                f"label {label} outside [0, {class_count})", line=lineno, path=path
            )
        try:
            x = [float(v) for v in cols[1:]]
        except ValueError:
            raise ParseError(
                "non-numeric feature value", line=lineno, path=path
            ) from None
        if not all(map(math.isfinite, x)):
            raise ParseError("non-finite feature value", line=lineno, path=path)
        labels.append(label)
        values.extend(x)
    if not labels:
        raise DataError(f"{path}: dataset file has no sample rows")
    X = np.frombuffer(values).reshape(len(labels), d)
    return Dataset(X, np.frombuffer(labels, dtype=np.int64), class_count, domain)


def split_test_count(class_size: int, test_fraction: float) -> int:
    """How many of a class's samples split puts in the test part: the
    rounded fraction, leaving at least one train sample."""
    return min(max(int(round(class_size * test_fraction)), 0), class_size - 1)


def split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified train/test split; every class keeps at least one train sample."""
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c, idx in ds.indices_by_class().items():
        if len(idx) < 2:
            raise DataError(
                f"class {c} has {len(idx)} samples; need >= 2 to split"
            )
        perm = rng.permutation(idx)
        n_test = split_test_count(len(idx), test_fraction)
        test_idx.append(perm[:n_test])
        train_idx.append(perm[n_test:])
    return _take(ds, np.concatenate(train_idx)), _take(ds, np.concatenate(test_idx))


def _take(ds: Dataset, idx: np.ndarray) -> Dataset:
    """The rows `idx` of ds, in that order, with ds's label range and domain."""
    return Dataset(ds.X[idx], ds.y[idx], ds.class_count, ds.domain)


def class_subset(ds: Dataset, classes) -> Dataset:
    """The sub-dataset of samples whose label is in `classes` (same label
    range as ds, so the kept classes retain their original ids)."""
    keep = set(classes)
    bad = [c for c in keep if not 0 <= c < ds.class_count]
    if bad:
        raise ValueError(f"classes {sorted(bad)} outside [0, {ds.class_count})")
    return _take(ds, np.flatnonzero(np.isin(ds.y, list(keep))))


def compact_classes(ds: Dataset) -> tuple[Dataset, dict[int, int]]:
    """Relabel the classes present in ds to a dense range [0, k).

    Returns the relabeled dataset and the old->new label map. Used before
    splitting subset datasets whose class range has gaps.
    """
    present = np.flatnonzero(np.bincount(ds.y, minlength=ds.class_count))
    if not present.size:
        raise DataError("cannot compact an empty dataset")
    remap = {old: new for new, old in enumerate(present.tolist())}
    relabeled = np.searchsorted(present, ds.y)
    return Dataset(ds.X, relabeled, len(present), ds.domain), remap
