"""Cross-domain mixup: Beta(α, β) coefficients and target/auxiliary blending.

A mixed row is x = λ·x_t + (1−λ)·x_s with the labels blended the same way
over the unified label space (target classes first, then the selected source
classes); blend is that one rule, for in-domain pairs too. λ is drawn fresh
per row. The Beta sampler is built from scratch: an exact inverse-CDF path
for β = 1 and a Marsaglia–Tsang Gamma ratio otherwise.

Training draws everything a batch needs as arrays, with no per-row Python
loop: make_batch takes the target rows, the paired source classes, the
auxiliary samples and the λ column in one pass each, and a BetaSampler
runs a sampler path over a whole batch, its Gamma draws by _Gamma,
Marsaglia–Tsang as a masked rejection loop. The scalar sample_beta /
sample_gamma are their one-draw reference and are not used in training.

What does not change from step to step is built ahead of the steps: a
CrossDomainPool, built once per fine-tune call, checks the target and source
rows and holds them in one array with the plan as a padded table, and a
BetaSampler, built once per training stack, holds each cell's λ constants.
make_batch(pool, sampler, rngs) is the per-step function.

make_batch and BetaSampler serve the cells of a stack: a BetaSampler is
built from a list of MixupConfigs, one per cell, make_batch takes one, and
both draw from a list of generators, one per cell, and return arrays with
a leading (S,) cell axis; one cell is a stack of one. The cells
may differ in α but share one β, as every stack the harness builds does.
Each generator is called exactly as it would be alone, in the same order
and with the same sizes; only the calls stay per cell. The lookups, gathers,
blends and the Gamma rejection arithmetic run once over all cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataError, NumericError, check_fields
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
        check_fields(self)
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError(
                f"Beta shapes must be positive, got alpha={self.alpha} beta={self.beta}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class LabelSpace:
    """Unified label indexing: target classes take [0, n), selected source
    classes take [n, L) in ascending original-id order. Spaces compare and
    hash by these two fields.
    """

    n_target: int
    source_classes: tuple[int, ...]

    def __post_init__(self):
        if self.n_target < 1:
            raise ValueError("need at least one target class")
        object.__setattr__(self, "source_classes", tuple(self.source_classes))
        if list(self.source_classes) != sorted(set(self.source_classes)):
            raise ValueError("source classes must be sorted and distinct")

    @property
    def size(self) -> int:
        return self.n_target + len(self.source_classes)

    @property
    def source_columns(self) -> np.ndarray:
        """The unified column of each source class, -1 where it is not
        selected, for source ids up to the largest selected one."""
        columns = np.full(max(self.source_classes, default=-1) + 1, -1)
        columns[list(self.source_classes)] = self.n_target + np.arange(
            len(self.source_classes)
        )
        return columns


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


class _Gamma:
    """Gamma(shapes[i], 1) variates, one per entry of the flat `shapes`, the
    next sizes[g] entries drawn from generator g: Marsaglia–Tsang as a
    masked rejection loop (Marsaglia & Tsang 2000, ACM TOMS 26(3)). The
    per-entry constants, d, c and the generator of each entry, are computed
    once, when the sampler is built; each call draws a fresh set.

    Each round gives every pending entry two candidates, (x, u) pairs of a
    normal and a uniform, and keeps the first that passes sample_gamma's
    log test, log u < x²/2 + d(1 − v + log v); at the acceptance rate of at
    least 0.95 that shapes >= 2/3 give, nearly every call takes one round.
    The squeeze test is left out: it only saves the logarithm, which an
    array computes anyway. Shapes below 1 run the loop at shape + 1 and are
    then boosted, G(a) = G(a+1) · U^{1/a}, with uniforms drawn after it.

    Each generator is called exactly as a call with its entries alone would
    call it (the normals and uniforms of each round for its pending
    entries, then its boost uniforms), so its entries of the result are bit
    for bit that call's, while the arithmetic runs once over all entries.
    """

    def __init__(self, shapes: np.ndarray, sizes: list[int]):
        self.sizes = list(sizes)
        self.boost = shapes < 1.0
        self.d = np.where(self.boost, shapes + 1.0, shapes) - 1.0 / 3.0
        self.c = 1.0 / np.sqrt(9.0 * self.d)
        self.owner = np.repeat(np.arange(len(sizes)), sizes)  # each entry's generator
        self.boosted = None
        if self.boost.any():
            counts = np.bincount(self.owner[self.boost], minlength=len(sizes))
            # a subnormal shape's power is inf, every boost 0: λ is redrawn
            with np.errstate(over="ignore"):
                self.boosted = counts.tolist(), 1.0 / shapes[self.boost]

    def __call__(self, rngs) -> np.ndarray:
        c, d = self.c, self.d
        out = np.empty_like(d)
        todo = slice(None)  # the pending entries: all of them in the first round
        pending = self.sizes
        # v <= 0 makes log v NaN or -inf and u = 0 makes log u -inf: the first
        # fails the test and the second passes it, both as they should
        with np.errstate(invalid="ignore", divide="ignore"):
            while True:
                draws = [
                    (rng.standard_normal((2, k)), rng.random((2, k)))
                    for rng, k in zip(rngs, pending)
                    if k
                ]
                x = np.concatenate([x for x, _ in draws], axis=1)
                u = np.concatenate([u for _, u in draws], axis=1)
                v = 1.0 + c[todo] * x
                v = v * v * v  # three products: an array ** 3 takes the slow pow path
                dt = d[todo]
                ok = np.log(u) < 0.5 * x * x + dt * (1.0 - v + np.log(v))
                # entries that fail both candidates are written over next round
                out[todo] = dt * np.where(ok[0], v[0], v[1])
                failed = ~(ok[0] | ok[1])
                if not failed.any():
                    break
                todo = np.arange(d.size)[todo][failed]
                pending = np.bincount(self.owner[todo], minlength=len(rngs)).tolist()
        if self.boosted is not None:
            counts, powers = self.boosted
            # in (0, 1]: never 0
            u = np.concatenate([1.0 - rng.random(k) for rng, k in zip(rngs, counts) if k])
            out[self.boost] *= u**powers
        return out


class _BetaDraws:
    """counts[s] raw Beta(α_s, β) draws of each cell s by sample_beta's
    path for the β the cells share, concatenated in cell order, not yet
    checked for the open interval (a uniform of exactly 0 gives λ = 0 here).

    β = 1 raises each cell's uniforms to its own scalar power: numpy
    computes `u ** 0.5` as a square root, so one power over an array of
    per-entry exponents would round some results differently. Any other β
    runs one _Gamma pass over [α_s…, β…] per cell and one division.
    """

    def __init__(self, cfgs, counts: list[int]):
        self.cells = [s for s, k in enumerate(counts) if k]
        beta = cfgs[0].beta
        self.gamma = None
        if beta == 1.0:
            self.powers = [(counts[s], 1.0 / cfgs[s].alpha) for s in self.cells]
            return
        ks = np.repeat([counts[s] for s in self.cells], 2)
        shapes = np.repeat(np.ravel([(cfgs[s].alpha, beta) for s in self.cells]), ks)
        self.gamma = _Gamma(shapes, (2 * ks[::2]).tolist())
        first = np.repeat(np.arange(ks.size) % 2 == 0, ks)  # the α entries
        self.split = np.flatnonzero(first), np.flatnonzero(~first)

    def __call__(self, rngs) -> np.ndarray:
        rngs = [rngs[s] for s in self.cells]
        if self.gamma is None:
            return np.concatenate(
                [rng.random(k) ** p for rng, (k, p) in zip(rngs, self.powers)]
            )
        g = self.gamma(rngs)
        g_a, g_b = g.take(self.split[0]), g.take(self.split[1])
        with np.errstate(invalid="ignore"):  # 0/0 when both underflow: redrawn
            return g_a / (g_a + g_b)


class BetaSampler:
    """n independent λ ~ Beta(α, β) in (0, 1) for each cell, as an (S, n)
    array whose row s is drawn with cfgs[s] from the cell's generator. The
    cells may differ in α but share one β; configs of different β raise
    ValueError. The constants of every cell's draws are computed once, when
    the sampler is built, so a caller that draws many batches builds one.

    β = 1 uses the inverse CDF λ = U^{1/α}; any other β uses the ratio of
    two _Gamma draws, both shapes in one pass. Entries that round to 0 or 1
    (or are NaN) are redrawn together, at most MAX_BETA_DRAWS draws per
    entry, after which NumericError is raised. This is the sampler training
    uses; sample_beta is its one-draw reference.

    Every generator sees the calls of its own cell in its own order,
    redraws included, so row s is bit for bit what the sampler of cfgs[s]
    alone draws from the same generator. A NumericError names the cell in
    `cell`.
    """

    def __init__(self, cfgs: list[MixupConfig], n: int):
        if n < 1:
            raise ValueError(f"need at least one draw, got n={n}")
        if not cfgs:
            raise ValueError("need at least one cell")
        if any(c.beta != cfgs[0].beta for c in cfgs):
            raise ValueError(f"cells of one stack share β, got {[c.beta for c in cfgs]}")
        self.cfgs, self.n = list(cfgs), n
        self.first = _BetaDraws(self.cfgs, [n] * len(self.cfgs))

    def __call__(self, rngs) -> np.ndarray:
        S, n, cfgs = len(rngs), self.n, self.cfgs
        if S != len(cfgs):
            raise ValueError(f"need one generator per config, got {S} for {len(cfgs)}")
        lam = np.empty(S * n)  # row-major (S, n)
        todo = slice(None)  # the entries drawn in this round, in cell order
        draws = self.first
        for _ in range(MAX_BETA_DRAWS):
            lam[todo] = draws(rngs)
            drawn = lam[todo]
            if drawn.min() > 0.0 and drawn.max() < 1.0:
                return lam.reshape(S, n)
            todo = np.arange(lam.size)[todo][~((drawn > 0.0) & (drawn < 1.0))]
            draws = _BetaDraws(cfgs, np.bincount(todo // n, minlength=S).tolist())
        cell = int(todo[0] // n)
        raise NumericError(
            f"Beta({cfgs[cell].alpha}, {cfgs[cell].beta}) gave no draw inside (0, 1) "
            f"in {MAX_BETA_DRAWS} tries",
            cell=cell,
        )


def _paired_table(plan: PairingPlan, n_target: int) -> tuple[np.ndarray, np.ndarray]:
    """Targets 0..n_target-1 as a padded (n_target, width) table of their
    source classes plus per-target counts: row t holds plan.per_target[t]
    in round order, padded with -1, and counts[t] is its length, 0 for a
    target the plan misses."""
    rows = [plan.per_target.get(t, []) for t in range(n_target)]
    counts = np.array([len(r) for r in rows], dtype=np.intp)
    table = np.full((n_target, counts.max(initial=0)), -1, dtype=np.intp)
    for t, r in enumerate(rows):
        table[t, : len(r)] = r
    return table, counts


def blend(lam, Xa, Xb, cols_a, cols_b, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows λ·Xa + (1−λ)·Xb, one λ a row, and their soft labels of `width`
    columns: λ in column cols_a, then 1−λ added in cols_b, so a pair of one
    class gets λ + (1−λ), bit for bit the blend of two one-hot rows."""
    mu = 1.0 - lam
    X = lam[..., None] * Xa + mu[..., None] * Xb
    P = np.zeros(lam.shape + (width,))
    flat = P.reshape(-1)
    rows = np.arange(0, P.size, width).reshape(lam.shape)  # each row's start
    flat[rows + cols_a] = lam
    flat[rows + cols_b] += mu
    return X, P


@dataclass(frozen=True, eq=False)
class CrossDomainPool:
    """The rows a fine-tune call draws from: X, the target rows, then the
    selected source classes' rows in ascending class order, with unified
    labels y; source class c fills X[starts[c] : starts[c] + sizes[c]]. The
    plan is a padded table with counts (_paired_table). of() checks once
    what make_batch would otherwise check each step."""

    X: np.ndarray
    y: np.ndarray
    tgt_len: int  # how many target rows X starts with
    space: LabelSpace
    table: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray

    @classmethod
    def of(
        cls, tgt_train: Dataset, src: Dataset, plan: PairingPlan, space: LabelSpace
    ) -> "CrossDomainPool":
        if len(tgt_train) == 0:
            raise DataError("cannot draw a batch from an empty target dataset")
        if src.d != tgt_train.d:
            raise ValueError(f"source width {src.d} != target width {tgt_train.d}")
        table, counts = _paired_table(plan, space.n_target)
        missing = sorted(set(tgt_train.y[counts[tgt_train.y] == 0].tolist()))
        if missing:
            msg = f"pairing plan has no source class for target classes {missing}"
            raise KeyError(msg)
        chosen = set(space.source_classes)  # every other class takes no rows
        rows = [i if c in chosen else i[:0] for c, i in src.indices_by_class().items()]
        sizes = np.array([len(i) for i in rows])
        starts = len(tgt_train) + np.cumsum(sizes) - sizes
        empty = [c for c in table[table >= 0].tolist() if not sizes[c]]
        if empty:
            raise DataError(f"source class {empty[0]} has no samples to draw from")
        aux = np.concatenate(rows)
        X = np.concatenate([tgt_train.X, src.X.take(aux, 0)])
        y = np.concatenate([tgt_train.y, space.source_columns[src.y[aux]]])
        return cls(X, y, len(tgt_train), space, table, counts, starts, sizes)


def make_batch(
    pool: CrossDomainPool, sampler: BetaSampler, rngs
) -> tuple[np.ndarray, np.ndarray]:
    """A mini-batch of B = sampler.n mixed rows for each cell: inputs
    X (S, B, d) and soft labels P (S, B, L), cell s drawn with
    sampler.cfgs[s] from rngs[s].

    Every draw is one array per batch and cell, in this order: the target
    rows (uniform with replacement), for each row one source class paired
    to its target class (uniform over all rounds), one sample of that
    class, and the λ column from `sampler`. Each generator makes its cell's
    calls in that order, so cell s is bit for bit what the call with a
    sampler of sampler.cfgs[s] alone and rngs[s] returns; the lookups,
    gathers and the blend run once for all cells.
    """
    X, y, table = pool.X, pool.y, pool.table
    picks = np.array([r.integers(pool.tgt_len, size=sampler.n) for r in rngs])
    targets = y[picks]
    rounds = 0  # with no target paired to two classes every bound is 1: no draw
    if table.shape[1] > 1:
        rounds = np.array([r.integers(k) for r, k in zip(rngs, pool.counts[targets])])
    cls = table[targets, rounds]
    picks_aux = [r.integers(k) for r, k in zip(rngs, pool.sizes[cls])]
    aux = pool.starts[cls] + np.array(picks_aux)
    lam, width = sampler(rngs), pool.space.size
    return blend(lam, X.take(picks, 0), X.take(aux, 0), targets, y[aux], width)
