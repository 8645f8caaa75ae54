"""Pre-training and the seven fine-tuning strategies under comparison.

Every strategy fine-tunes a pre-trained extractor with a fresh head over the
unified label space (target classes first, then any selected source
classes), and every one is the same SGD loop fed a different batch: a
strategy is a list of phases, each a budget and a batch kind (_phases), and
one driver, _run_segments, steps every phase and pretrain alike. _BATCH maps
each strategy to its batch kind, a module-level function:

- target rows: l2, and l2sp, which adds mu * ||theta_ext - theta_0,ext||^2
  with the gradient 2*mu*(theta - theta_0) on the extractor
- in-domain mixed rows; cross-domain mixed rows: xmixup, and
  xmixup-nolabel, which relabels them with the pure target class
- auxiliary source rows: seqtrain's first phase, before target rows
- co-train rows, half target and half auxiliary, under a masked softmax
  (target rows over target logits, source rows over source logits)

finetune trains cells that share a label space (the target classes alone,
or with one plan's auxiliary classes) and a TrainConfig up to its seed,
whatever their strategies, as one stack of S models (see the model module),
one model step per iteration for all of them; a cell alone is a stack of 1.

- Batches. A batch kind draws once a step for all of its draw keys. Cells
  whose draws are the same function of the same generator seeds share a key
  (l2 and l2sp, xmixup and xmixup-nolabel). Each key draws from its own
  generators in the order a lone run would; one that draws only indices
  draws a block of steps per call, with the same values and state
  (_index_blocks). A pure row map, _row_plan, joins the kinds' draws into
  the stack's batch; a stack of one kind, one draw a row, takes them as is.
- Losses. One forward and one backward serve the stack, plus L2-SP's penalty.
- Schedules. At seqtrain's phase switch its row's velocity and learning-rate
  schedule restart; where schedules differ, each row takes its own rate.

So every cell's parameters, loss trace and accuracy are bit for bit those
of the cell trained alone, whichever cells ride with it."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace
from enum import Enum

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError, NumericError
from .mixup import BetaSampler, CrossDomainPool, LabelSpace, MixupConfig, make_batch
from .model import (
    ModelParams,
    TrainConfig,
    backward_from_dlogits,
    check_soft_labels,
    cross_entropy,
    forward,
    forward_cache,
    init,
    init_linear,
    learning_rate,
    log_softmax,
    loss_and_grad_arrays,
    numeric_error,
    sgd_step,
)
from .pairing import PairingPlan


class StrategyKind(Enum):
    L2 = "l2"
    L2SP = "l2sp"
    MIXUP_IN_DOMAIN = "mixup-indomain"
    XMIXUP = "xmixup"
    XMIXUP_NO_LABEL = "xmixup-nolabel"
    SEQ_TRAIN = "seqtrain"
    CO_TRAIN = "cotrain"


NEEDS_MIXUP = {
    StrategyKind.MIXUP_IN_DOMAIN,
    StrategyKind.XMIXUP,
    StrategyKind.XMIXUP_NO_LABEL,
}


@dataclass(frozen=True)
class Strategy:
    """A fine-tuning strategy plus exactly the parameters it needs."""

    kind: StrategyKind
    sp_weight: float | None = None
    mixup: MixupConfig | None = None
    midtune_iterations: int | None = None

    def __post_init__(self):
        if (self.sp_weight is not None) != (self.kind is StrategyKind.L2SP):
            raise ConfigError(f"sp_weight is for L2SP only, got {self.kind.value}")
        if (self.mixup is not None) != (self.kind in NEEDS_MIXUP):
            raise ConfigError(
                f"mixup config required by mixing strategies only, got {self.kind.value}"
            )
        if self.midtune_iterations is not None:
            if self.kind is not StrategyKind.SEQ_TRAIN:
                raise ConfigError("midtune_iterations is for SeqTrain only")
            if self.midtune_iterations < 0:
                raise ConfigError("midtune_iterations must be >= 0")
        if self.sp_weight is not None and self.sp_weight < 0:
            raise ConfigError(f"sp_weight must be >= 0, got {self.sp_weight}")

    @classmethod
    def l2(cls) -> "Strategy":
        return cls(StrategyKind.L2)

    @classmethod
    def l2sp(cls, sp_weight: float) -> "Strategy":
        return cls(StrategyKind.L2SP, sp_weight=sp_weight)

    @classmethod
    def mixup_indomain(cls, mixup: MixupConfig) -> "Strategy":
        return cls(StrategyKind.MIXUP_IN_DOMAIN, mixup=mixup)

    @classmethod
    def xmixup(cls, mixup: MixupConfig) -> "Strategy":
        return cls(StrategyKind.XMIXUP, mixup=mixup)

    @classmethod
    def xmixup_nolabel(cls, mixup: MixupConfig) -> "Strategy":
        return cls(StrategyKind.XMIXUP_NO_LABEL, mixup=mixup)

    @classmethod
    def seqtrain(cls, midtune_iterations: int | None = None) -> "Strategy":
        return cls(StrategyKind.SEQ_TRAIN, midtune_iterations=midtune_iterations)

    @classmethod
    def cotrain(cls) -> "Strategy":
        return cls(StrategyKind.CO_TRAIN)

    @property
    def needs_source(self) -> bool:
        """Whether the strategy's batch kind draws source rows."""
        return _BATCH[self.kind] in (_mixed, _auxiliary_rows, _cotrain)

    def to_config(self) -> dict:
        cfg = {"kind": self.kind.value}
        if self.sp_weight is not None:
            cfg["sp_weight"] = self.sp_weight
        if self.mixup is not None:
            cfg["mixup"] = asdict(self.mixup)
        if self.midtune_iterations is not None:
            cfg["midtune_iterations"] = self.midtune_iterations
        return cfg


@dataclass
class RunResult:
    """One fine-tuning run: final parameters, loss trace, held-out accuracy."""

    params: ModelParams
    trace: list[float]
    accuracy: float
    seed: int
    config: dict

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")
        want = self.config.get("train", {}).get("iterations")
        if want is not None and len(self.trace) != want:
            raise ValueError(
                f"trace has {len(self.trace)} entries for {want} iterations"
            )


def result_to_json(result: RunResult) -> dict:
    """JSON-able summary: config, seed, every-100th-iteration loss, accuracy."""
    return {
        "seed": result.seed,
        "accuracy": result.accuracy,
        "loss_every_100": [float(v) for v in result.trace[::100]],
        "config": result.config,
    }


def _run_segments(params, cfg, loss_fn, segments, cells=None) -> np.ndarray:
    """Drive SGD through `segments`, updating params in place; returns the
    loss trace, shaped (iterations,) for one model and (iterations, S) for
    a stack.

    A segment is (batch_fn, lrs, reset) and takes len(lrs) steps. Each step
    draws a batch, a tuple of arrays, from batch_fn(), takes
    loss_fn(params, *batch, out) -> (loss, grads), which writes the
    gradients into the run's one buffer `out`, and makes one sgd_step at the
    step's entry of lrs: a float, or an (S, 1) column of one rate per model.
    The velocity of the rows in `reset` restarts from zero when the segment
    starts.

    A diverging run overflows quietly: the checks of logits and gradients
    raise NumericError at the step they find a non-finite value, and a loss
    no check reads (L2-SP's penalty) is checked in the trace once the loop
    ends. Either is raised with the iteration, counted over all segments,
    and the name of its cell when `cells` names the models.
    """

    def failed(it: int, message: str, cell: int | None) -> NumericError:
        where = f"iteration {it}: {message}"
        if cells is not None:
            who = cells[cell] if cell is not None else ", ".join(cells)
            where = f"{who}: {where}"
        return NumericError(where, cell=cell)

    velocity = ModelParams.zeros_like(params)
    out = ModelParams.zeros_like(params)
    steps = sum(len(lrs) for _, lrs, _ in segments)
    trace = np.empty((steps,) + params.flat.shape[:-1])
    it = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for batch_fn, lrs, reset in segments:
            if reset:
                velocity.flat[reset] = 0.0
            for lr in lrs:
                try:
                    loss, grads = loss_fn(params, *batch_fn(), out)
                    sgd_step(params, grads, velocity, cfg, it, lr)
                except NumericError as e:
                    raise failed(it, str(e), e.cell) from None
                trace[it] = loss
                it += 1
    finite = np.isfinite(trace)
    if not finite.all():
        it, *cell = np.argwhere(~finite)[0].tolist()  # the first, and its cell
        raise failed(it, "non-finite loss", cell[0] if cell else None)
    return trace


def _run_sgd(
    params, cfg, batch_fn, loss_fn, cells: list[str] | None = None
) -> np.ndarray:
    """`cfg.iterations` steps of one batch function under cfg's schedule:
    one segment of _run_segments."""
    lrs = [learning_rate(cfg, it) for it in range(cfg.iterations)]
    return _run_segments(params, cfg, loss_fn, [(batch_fn, lrs, [])], cells)


#: Steps of index draws that _index_blocks takes in one call per generator.
DRAW_BLOCK = 64


def _index_blocks(rngs: list, high, shape: tuple, steps: int):
    """For each of `steps` steps, the indices below `high` that one
    rng.integers(high, size=shape) call per step would draw from each
    generator, as one (len(rngs),) + shape array. `high` is one bound or
    an array of them that broadcasts against `shape`, one per column say.

    Each generator draws a block of up to DRAW_BLOCK steps in one call.
    numpy draws the entries of one integers call one after another from
    the generator's stream, by one method for a scalar bound or an entry of
    an array, keeping an unused half word in the generator, so one call of
    size (T,) + shape gives what T calls of size `shape` give, or two of a
    half each, values and generator state alike. A generator read this way
    must draw nothing else in between.
    """
    for start in range(0, steps, DRAW_BLOCK):
        size = (min(DRAW_BLOCK, steps - start),) + shape
        yield from np.stack([rng.integers(high, size=size) for rng in rngs], axis=1)


def pretrain(src_train: Dataset, cfg: TrainConfig, hidden: list[int]) -> ModelParams:
    """Train extractor + source head from scratch on the source dataset."""
    if src_train.class_count < 2:
        raise ValueError("pre-training needs at least 2 source classes")
    if len(src_train) == 0:
        raise DataError("cannot pre-train on an empty dataset")
    params = init(src_train.d, list(hidden), src_train.class_count, cfg.seed)
    rng = [np.random.default_rng([cfg.seed, 1])]
    X, y = src_train.X, src_train.y
    eye = np.eye(src_train.class_count)
    draws = _index_blocks(rng, len(X), (cfg.batch_size,), cfg.iterations)

    def batch():
        (idx,) = next(draws)
        return X.take(idx, 0), eye.take(y[idx], 0)

    _run_sgd(params, cfg, batch, loss_and_grad_arrays)
    return params


def evaluate(params: ModelParams, test: Dataset) -> float:
    """Top-1 accuracy with the argmax restricted to target label indices [0, n)."""
    if len(test) == 0:
        raise DataError("cannot evaluate on an empty dataset")
    if params.label_count < test.class_count:
        raise ValueError(
            f"head has {params.label_count} outputs for {test.class_count} classes"
        )
    _, logits = forward(params, test.X)
    pred = logits[:, : test.class_count].argmax(axis=1)
    return float((pred == test.y).mean())


def sp_penalty(
    params: ModelParams,
    reference: ModelParams,
    mu: float,
    out: ModelParams | None = None,
) -> tuple[float, ModelParams]:
    """mu * squared L2 distance of the extractor from a reference, plus its
    gradient 2*mu*(theta - theta_ref); the head contributes nothing.

    For a stack, every model is measured against the one reference and the
    value is an (S,) array. The gradient goes into `out` when given, a
    ModelParams shaped like params whose head part is zero (as zeros_like
    leaves it; only the extractor part is written), and into a new one
    otherwise.
    """
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    if len(params.layers) != len(reference.layers):
        raise ValueError("extractor depths differ")
    for (w, _), (w0, _) in zip(params.layers, reference.layers):
        if w.shape[-2:] != w0.shape:
            raise ValueError(f"layer shapes differ: {w.shape[-2:]} vs {w0.shape}")
    # the extractor difference, in place in the gradient's buffer, becomes
    # the gradient once scaled; the head part stays zero
    grads = ModelParams.zeros_like(params) if out is None else out
    np.subtract(params.extractor, reference.extractor, out=grads.extractor)
    value = 0.0
    for dw, db in grads.layers:
        w_part = (dw * dw).reshape(dw.shape[:-2] + (-1,)).sum(axis=-1)
        value += w_part + (db * db).sum(axis=-1)
    grads.extractor *= 2.0 * mu
    return mu * value, grads


def masked_loss_and_grad(
    params: ModelParams,
    X: np.ndarray,
    labels: np.ndarray,
    n_target: int,
    split: int,
    out: ModelParams | None = None,
) -> tuple[float, ModelParams]:
    """Joint-batch loss where rows [0, split) softmax over target logits
    [0, n_target) and the remaining rows over source logits [n_target, L).
    The gradients go into `out` as in backward_from_dlogits. A stack takes
    (S, B, d) inputs and (S, B) labels and returns an (S,) array of losses."""
    acts, pres, _, logits = forward_cache(params, X)
    if not np.all(np.isfinite(logits)):
        message = "non-finite logits in masked loss"
        raise numeric_error(message, logits, params.stacked)
    loss, dlogits = masked_dlogits(logits, labels, n_target, split)
    grads = backward_from_dlogits(params, acts, pres, dlogits, out)
    return (loss if params.stacked else float(loss)), grads


def masked_dlogits(
    logits: np.ndarray, labels: np.ndarray, n_target: int, split: int
) -> tuple[np.ndarray, np.ndarray]:
    """The masked loss of each batch of logits (see masked_loss_and_grad)
    and d(loss)/d(logits); every row is computed on its own."""
    total_rows, label_count = logits.shape[-2:]
    if not 0 <= split <= total_rows:
        raise ValueError(f"split {split} outside batch of {total_rows}")
    dlogits = np.zeros_like(logits)
    total = np.zeros(logits.shape[:-2])
    for rows, lo, hi in (
        (slice(0, split), 0, n_target),
        (slice(split, total_rows), n_target, label_count),
    ):
        sub = logits[..., rows, lo:hi]
        if sub.shape[-2] == 0:
            continue
        li = labels[..., rows] - lo
        if np.any((li < 0) | (li >= hi - lo)):
            raise ValueError("label outside its softmax block")
        logp = log_softmax(sub)
        # every row's own label entry, through one (rows, width) view
        at = (np.arange(li.size), li.ravel())
        total -= logp.reshape(-1, hi - lo)[at].reshape(li.shape).sum(axis=-1)
        dsub = np.exp(logp)
        dsub.reshape(-1, hi - lo)[at] -= 1.0
        dlogits[..., rows, lo:hi] = dsub / total_rows
    return total / total_rows, dlogits


def stack_loss_and_grad(
    params: ModelParams,
    X: np.ndarray,
    P: np.ndarray | None,
    labels: np.ndarray | None,
    n_target: int,
    split: int,
    out: ModelParams | None = None,
) -> tuple[np.ndarray, ModelParams]:
    """The losses of a stack whose first len(P) models take the soft-target
    cross-entropy of P (see loss_and_grad_arrays) and whose other models
    take the masked loss of `labels` (see masked_loss_and_grad), with one
    forward and one backward for all of them. X is (S, B, d), P
    (len(P), B, L) or None when no model takes soft labels, and labels
    (S - len(P), B) or None when none takes the masked loss; returns an
    (S,) array of losses and the gradients, written into `out` as in
    backward_from_dlogits. Every model gets the bits of its own loss alone."""
    if not np.isfinite(X).all():
        raise numeric_error("non-finite values in batch", X, True)
    if P is not None:
        check_soft_labels(P, True)
    acts, pres, _, logits = forward_cache(params, X)
    if not np.isfinite(logits).all():
        message = "non-finite logits (diverged parameters?)"
        raise numeric_error(message, logits, True)
    soft = 0 if P is None else len(P)
    halves = [] if P is None else [cross_entropy(logits[:soft], P)]
    if labels is not None:
        halves.append(masked_dlogits(logits[soft:], labels, n_target, split))
    loss, dlogits = (_cat(parts) for parts in zip(*halves))
    return loss, backward_from_dlogits(params, acts, pres, dlogits, out)


def _budget(cfg: TrainConfig, iterations: int) -> TrainConfig:
    """cfg cut to `iterations`, its learning-rate drop moved in proportion."""
    drop = round(iterations * cfg.lr_drop_at / cfg.iterations) if cfg.iterations else 0
    return replace(cfg, iterations=iterations, lr_drop_at=drop)


def _cell_name(strategy: Strategy, cfg: TrainConfig) -> str:
    name = f"{strategy.kind.value} seed {cfg.seed}"
    if strategy.mixup is not None:
        name += f" alpha {strategy.mixup.alpha:g}"
    return name


def _midtune(strategy: Strategy, cfg: TrainConfig) -> int:
    """SeqTrain's first-phase budget: its midtune_iterations, or half."""
    mid = strategy.midtune_iterations
    if mid is None:
        mid = cfg.iterations // 2
    if mid > cfg.iterations:
        raise ConfigError(
            f"midtune budget {mid} exceeds total iterations {cfg.iterations}"
        )
    return mid



@dataclass(frozen=True, eq=False)
class _Context:
    """What the batch kinds of one finetune call draw from: its data, the
    auxiliary pool (the selected source classes' inputs, unified labels),
    the identity whose rows are one-hot labels, B, and the generators of
    each draw key (batch kind, seed, MixupConfig, first iteration), kept for
    the call: a key whose phase spans another row's phase switch draws on."""

    tgt: Dataset
    src: Dataset | None
    plan: PairingPlan | None
    space: LabelSpace
    pool_X: np.ndarray | None
    pool_labels: np.ndarray | None
    eye: np.ndarray
    B: int
    rngs: dict = field(default_factory=dict)

    @classmethod
    def of(cls, tgt, src, plan, space, batch_size) -> "_Context":
        """The context of a call on `space`; src is None for no-source cells."""
        pool = (None, None)
        if src is not None:
            by_class = src.indices_by_class()
            idx = np.concatenate([by_class[c] for c in space.source_classes])
            pool = src.X.take(idx, 0), space.source_columns[src.y[idx]]
        return cls(tgt, src, plan, space, *pool, np.eye(space.size), batch_size)

    def generators(self, keys: list[tuple], stream: int) -> list:
        """Each key's generator of a stream: 1 target rows, 2 mixing, 3 auxiliary."""
        for key in keys:
            if (key, stream) not in self.rngs:
                _, seed, mixup, _ = key
                entropy = [seed, 2, mixup.seed] if stream == 2 else [seed, stream]
                self.rngs[key, stream] = np.random.default_rng(entropy)
        return [self.rngs[key, stream] for key in keys]


# The batch kinds: (ctx, keys, steps) -> a function that draws one step's
# batches of every key, (X, P, labels) with a leading (keys,) axis and None
# for the labels the kind lacks: soft labels P, or cotrain's hard labels.


def _uniform_rows(ctx, X, labels, stream, keys, steps):
    eye, rngs = ctx.eye, ctx.generators(keys, stream)
    draws = _index_blocks(rngs, len(X), (ctx.B,), steps)

    def draw():
        idx = next(draws)
        return X.take(idx, 0), eye.take(labels[idx], 0), None

    return draw


def _target_rows(ctx: _Context, keys: list[tuple], steps: int):
    """Target rows drawn uniformly, with their one-hot labels."""
    return _uniform_rows(ctx, ctx.tgt.X, ctx.tgt.y, 1, keys, steps)


def _auxiliary_rows(ctx: _Context, keys: list[tuple], steps: int):
    """Auxiliary source rows drawn uniformly, under their unified labels."""
    return _uniform_rows(ctx, ctx.pool_X, ctx.pool_labels, 3, keys, steps)


def _in_domain(ctx: _Context, keys: list[tuple], steps: int):
    """Pairs of target rows, inputs and one-hot labels mixed by one λ a row."""
    tgt_X, tgt_y, eye, B = ctx.tgt.X, ctx.tgt.y, ctx.eye, ctx.B
    draws = _index_blocks(ctx.generators(keys, 1), len(tgt_X), (2, B), steps)
    lam, rng_mix = BetaSampler([key[2] for key in keys], B), ctx.generators(keys, 2)

    def draw():
        i1, i2 = next(draws).swapaxes(0, 1)
        lams = lam(rng_mix)[..., None]
        X = lams * tgt_X.take(i1, 0) + (1.0 - lams) * tgt_X.take(i2, 0)
        P = lams * eye.take(tgt_y[i1], 0) + (1.0 - lams) * eye.take(tgt_y[i2], 0)
        return X, P, None

    return draw


def _mixed(ctx: _Context, keys: list[tuple], steps: int):
    """Target rows mixed with rows of their paired source classes (make_batch)."""
    pool = CrossDomainPool.of(ctx.tgt, ctx.src, ctx.plan, ctx.space)
    lam, rng_mix = BetaSampler([key[2] for key in keys], ctx.B), ctx.generators(keys, 2)

    def draw():
        X, P = make_batch(pool, lam, rng_mix)
        return X, P, None

    return draw


def _cotrain(ctx: _Context, keys: list[tuple], steps: int):
    """B // 2 target rows, then auxiliary rows, under hard labels; one bound
    a column, the pool's rows offset past the target's in one joint array."""
    tgt_X, B, half = ctx.tgt.X, ctx.B, ctx.B // 2
    high = np.repeat([len(tgt_X), len(ctx.pool_X)], [half, B - half])
    offset = np.repeat([0, len(tgt_X)], [half, B - half])
    joint_X = np.concatenate([tgt_X, ctx.pool_X])
    joint_y = np.concatenate([ctx.tgt.y, ctx.pool_labels])
    draws = _index_blocks(ctx.generators(keys, 1), high, (B,), steps)

    def draw():
        idx = next(draws) + offset
        return joint_X.take(idx, 0), None, joint_y[idx]

    return draw


#: The batch kind each strategy trains on; SeqTrain's is that of its first
#: phase, its second phase trains on target rows.
_BATCH = {
    StrategyKind.L2: _target_rows,
    StrategyKind.L2SP: _target_rows,
    StrategyKind.MIXUP_IN_DOMAIN: _in_domain,
    StrategyKind.XMIXUP: _mixed,
    StrategyKind.XMIXUP_NO_LABEL: _mixed,
    StrategyKind.SEQ_TRAIN: _auxiliary_rows,
    StrategyKind.CO_TRAIN: _cotrain,
}


def _phases(strategy: Strategy, cfg: TrainConfig) -> list[tuple]:
    """A cell's phases that take any step, as (first iteration, the phase's
    TrainConfig, batch kind)."""
    phases = [(0, cfg, _BATCH[strategy.kind])]
    if strategy.kind is StrategyKind.SEQ_TRAIN:
        mid = _midtune(strategy, cfg)
        phases = [
            (0, _budget(cfg, mid), _auxiliary_rows),
            (mid, _budget(cfg, cfg.iterations - mid), _target_rows),
        ]
    return [phase for phase in phases if phase[1].iterations]


def _row_plan(keys: list[tuple], nolabel: list[bool]):
    """How a segment's rows take their batches, from each row's draw key
    and whether it is xmixup-nolabel. Returns (draws, take, relabel): each
    batch kind with its distinct keys and the first row of each, kinds and
    keys in first-row order, the order in which they draw and join; None
    when the joined draws are the rows' own, else the gathers (rows, soft,
    hard) of each row's draw among all joined ones, of each soft-label row's
    among the soft ones and of each cotrain row's among cotrain's, which
    join last as its rows come last (_stack_order); the rows to relabel."""
    firsts: dict = {}  # each kind's keys, and each key's first row
    for r, key in enumerate(keys):
        firsts.setdefault(key[0], {}).setdefault(key, r)
    draws = [(kind, list(ks), list(ks.values())) for kind, ks in firsts.items()]
    joined = [key for _, kind_keys, _ in draws for key in kind_keys]
    rows = [joined.index(key) for key in keys]
    take = None
    if rows != list(range(len(joined))):
        soft = sum(key[0] is not _cotrain for key in keys)
        split = sum(key[0] is not _cotrain for key in joined)
        rows = np.array(rows)
        take = rows, rows[:soft], rows[soft:] - split
    return draws, take, [r for r, flag in enumerate(nolabel) if flag]


def _joined(draws: list[tuple], take, relabel: list[int], eye, n_target: int):
    """Each step, call every (draw, first rows) of `draws`, join the
    batches, gather the rows' own and relabel in place (see _row_plan). A
    draw's NumericError names the first row of its key."""

    def batch():
        parts = []
        for draw, first in draws:
            try:
                parts.append(draw())
            except NumericError as e:
                cell = None if e.cell is None else first[e.cell]
                raise NumericError(str(e), cell=cell) from None
        X, P, labels = (_cat([a for a in arr if a is not None]) for arr in zip(*parts))
        if take is not None:
            rows, soft, hard = take
            X = X.take(rows, 0)
            P = None if P is None else P.take(soft, 0)
            labels = None if labels is None else labels.take(hard, 0)
        if relabel:
            P[relabel] = eye.take(P[relabel, :, :n_target].argmax(axis=-1), 0)
        return X, P, labels

    return batch


def _segment(ctx: _Context, cells: list[tuple], first: int, stop: int, phases):
    """The (batch_fn, lrs, reset) of iterations [first, stop) of a stack
    whose row r is the cell (strategy, cfg) cells[r], in phase phases[r]."""
    keys = [(kind, c.seed, s.mixup, at) for (at, _, kind), (s, c) in zip(phases, cells)]
    nolabel = [s.kind is StrategyKind.XMIXUP_NO_LABEL for s, _ in cells]
    kinds, take, relabel = _row_plan(keys, nolabel)
    draws = [(kind(ctx, ks, stop - first), rows) for kind, ks, rows in kinds]
    if len(draws) == 1 and take is None and not relabel:
        batch_fn = draws[0][0]  # one kind's draws are the stack's batches
    else:
        batch_fn = _joined(draws, take, relabel, ctx.eye, ctx.space.n_target)

    # each row's learning rates; the rows' phases differ only in their
    # budget, so (start, drop) tells their schedules apart
    begun = {(start, ph.lr_drop_at): (start, ph) for start, ph, _ in phases}
    rates = {
        key: [learning_rate(ph, i - start) for i in range(first, stop)]
        for key, (start, ph) in begun.items()
    }
    if len(rates) == 1:
        (lrs,) = rates.values()
    else:  # one column of rates per step
        lrs = np.array([rates[at, ph.lr_drop_at] for at, ph, _ in phases]).T[..., None]
    reset = [r for r, (start, _, _) in enumerate(phases) if 0 < start == first]
    return batch_fn, lrs, reset


def _stack_order(strategy: Strategy) -> tuple:
    """Where a cell sits in its stack: by strategy kind, so that cotrain's
    masked rows come last, and the L2SP cells of one weight together."""
    return list(StrategyKind).index(strategy.kind), strategy.sp_weight or 0.0


def _cat(arrays: Sequence[np.ndarray]) -> np.ndarray | None:
    """The arrays joined along their first axis; None when there are none."""
    if len(arrays) < 2:
        return arrays[0] if arrays else None
    return np.concatenate(arrays)


def finetune(
    pretrained: ModelParams,
    tgt_train: Dataset,
    src: Dataset | None,
    plan: PairingPlan | None,
    strategy: Strategy | Sequence[Strategy],
    cfg: TrainConfig | Sequence[TrainConfig],
    tgt_test: Dataset,
) -> RunResult | list[RunResult]:
    """Fine-tune from a pre-trained extractor under one strategy.

    The extractor starts from `pretrained`; the head is freshly initialized
    over the unified label space (just the target classes for strategies that
    never touch source samples). `src` and `plan` are required by the
    source-using strategies and ignored otherwise.

    `strategy` and `cfg` are one Strategy and one TrainConfig, giving one
    RunResult, or equal-length sequences, one entry per cell, giving one
    RunResult per cell in order. The cells may differ in strategy, but must
    share a label space (all use source data or none does) and every
    TrainConfig field but the seed, and the mixing cells of one batch kind
    the β of their MixupConfig; they train as one stack (see the module
    docstring). A NumericError names the cell and the iteration.
    """
    if isinstance(strategy, Strategy) != isinstance(cfg, TrainConfig):
        raise ValueError("give one strategy and one config, or a sequence of each")
    if isinstance(strategy, Strategy):
        return finetune(
            pretrained, tgt_train, src, plan, [strategy], [cfg], tgt_test
        )[0]
    strategies, cfgs = list(strategy), list(cfg)
    if not strategies or len(strategies) != len(cfgs):
        raise ValueError("need one TrainConfig per strategy, and at least one")
    if len({s.needs_source for s in strategies}) > 1:
        raise ValueError(
            "stacked cells must share a label space: all use source data or none"
        )
    if any(replace(c, seed=cfgs[0].seed) != cfgs[0] for c in cfgs):
        raise ValueError("stacked cells must share the TrainConfig but for the seed")
    cfg = cfgs[0]
    n = tgt_train.class_count
    if len(tgt_train) == 0:
        raise DataError("cannot fine-tune on an empty target dataset")
    if tgt_train.d != pretrained.d:
        raise ValueError(
            f"target dimension {tgt_train.d} != model input {pretrained.d}"
        )
    if tgt_test.class_count != n or tgt_test.d != tgt_train.d:
        raise ValueError("test split does not match the training split")

    if strategies[0].needs_source:
        if plan is None or src is None:
            kind = strategies[0].kind.value
            raise ConfigError(
                f"strategy {kind} requires source data and a pairing plan"
            )
        missing = [t for t in range(n) if t not in plan.per_target]
        if missing:
            raise ConfigError(f"pairing plan misses target classes {missing}")
        space = LabelSpace(n, tuple(plan.selected_sources()))
    else:
        space, src = LabelSpace(n, ()), None
    ctx = _Context.of(tgt_train, src, plan, space, cfg.batch_size)
    half = cfg.batch_size // 2

    # the stack's rows: the cells in _stack_order; `order` maps a row to its cell
    order = sorted(range(len(cfgs)), key=lambda i: _stack_order(strategies[i]))
    cells = [(strategies[i], cfgs[i]) for i in order]
    rngs = [np.random.default_rng([c.seed, 0]) for _, c in cells]
    heads = [init_linear(space.size, pretrained.feature_width, rng) for rng in rngs]
    # the stack copies the pre-trained layers in
    stack = ModelParams.stack([ModelParams(pretrained.layers, head) for head in heads])

    # the losses: cross-entropy on soft labels and the masked loss on
    # cotrain's rows, then the L2-SP penalty of each weight added on its rows
    penalties = []  # (rows, mu, the rows' parameters, their penalty gradient)
    weights = [s.sp_weight for s, _ in cells]
    for mu in dict.fromkeys(w for w in weights if w is not None):
        at = [r for r, w in enumerate(weights) if w == mu]
        rows = slice(at[0], at[-1] + 1)
        view = ModelParams._over(stack, stack.flat[rows])
        penalties.append((rows, mu, view, ModelParams.zeros_like(view)))

    def loss_fn(p, X, P, labels, out):
        loss, grads = stack_loss_and_grad(p, X, P, labels, n, half, out)
        for rows, mu, view, pen_grads in penalties:
            pen, _ = sp_penalty(view, pretrained, mu, pen_grads)
            grads.flat[rows] += pen_grads.flat
            loss[rows] += pen
        return loss, grads

    # the segments: runs of iterations in which no row changes phase; a
    # row's phases follow each other, so its phase is the last one begun
    phases = [_phases(s, c) for s, c in cells]
    bounds = sorted({ph[0] for row in phases for ph in row} | {cfg.iterations})
    segments = []
    for first, stop in zip(bounds, bounds[1:]):
        current = [[ph for ph in row if ph[0] <= first][-1] for row in phases]
        segments.append(_segment(ctx, cells, first, stop, current))
    names = [_cell_name(s, c) for s, c in cells]
    trace = _run_segments(stack, cfg, loss_fn, segments, names)

    label_space = {"n_target": n, "source_classes": list(space.source_classes)}
    results: list[RunResult | None] = [None] * len(cfgs)
    for r, (s, c) in enumerate(cells):
        config = {"strategy": s.to_config(), "train": asdict(c)}
        config["label_space"] = label_space
        if s.kind is StrategyKind.SEQ_TRAIN:
            config["strategy"]["midtune_iterations"] = _midtune(s, c)
        model = stack.row(r)
        try:
            accuracy = evaluate(model, tgt_test)
        except NumericError as e:
            raise NumericError(f"{names[r]}: {e}", cell=r) from None
        result = RunResult(model, trace[:, r].tolist(), accuracy, c.seed, config)
        results[order[r]] = result
    return results
