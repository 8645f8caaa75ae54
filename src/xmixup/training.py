"""Pre-training and the seven fine-tuning strategies under comparison.

Every strategy fine-tunes a pre-trained extractor with a fresh head over the
unified label space (target classes first, then any selected source
classes), and every one is the same SGD loop fed a different batch: a
strategy is a list of phases (a budget and a batch kind), and one driver,
_run_segments, steps every phase and pretrain alike. The batches are target
rows, in-domain mixed rows, cross-domain mixed rows, auxiliary source rows
and co-train rows; the losses are soft-target cross-entropy, L2-SP and the
masked softmax. The non-trivial strategies:

- L2SP adds mu * ||theta_ext - theta_pretrain,ext||^2 on the extractor, with
  the gradient 2*mu*(theta - theta_0) added analytically.
- XMixup trains on cross-domain mixed batches; the no-label variant keeps the
  identical mixed inputs but uses the pure target label.
- SeqTrain is two phases: first tune on auxiliary source samples under
  their own labels, then fine-tune on target data.
- CoTrain trains half-target/half-auxiliary batches with a masked softmax:
  target rows normalize over target logits only, source rows over source
  logits only (equivalent to separate heads on a shared extractor).

finetune trains one cell or a list of cells that share a label space (the
target classes alone, or with one plan's auxiliary classes) and a
TrainConfig up to its seed, whatever their strategies. The cells train as
one stack of S models (see the model module), one model step per iteration
for all of them:

- Batches. Each batch kind is drawn by one call over all of its cells.
  Cells whose draws are the same function of the same generator seeds
  share one draw: l2 and l2sp draw the same target rows, and xmixup and
  xmixup-nolabel the same mixed batch, which nolabel then relabels. Every
  distinct draw keeps its own generators and calls them in the order a
  lone run would. A generator that draws only indices, under the same
  bounds at every step, draws a block of steps in one call, which gives
  the same values and leaves the same state (_index_blocks).
- Losses. A batch is (X, P, labels), None for the labels it lacks. One
  forward and one backward serve the stack (stack_loss_and_grad):
  cross-entropy on the rows with soft labels P, the masked softmax on
  cotrain's rows, and the L2-SP penalty added on l2sp's rows into a buffer
  kept for the run.
- Schedules. Each row follows its own phases. At seqtrain's phase switch
  its row's velocity restarts and so does its learning-rate schedule; where
  the rows' schedules differ, the update takes one learning rate per row.

So every cell's parameters, loss trace and accuracy are bit for bit those
of the cell trained alone, whichever cells ride with it. A cell trained
alone is a stack of one."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError, NumericError
from .mixup import LabelSpace, MixupConfig, make_batch, sample_beta_batch
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
_NEEDS_SOURCE = {
    StrategyKind.XMIXUP,
    StrategyKind.XMIXUP_NO_LABEL,
    StrategyKind.SEQ_TRAIN,
    StrategyKind.CO_TRAIN,
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
        return self.kind in _NEEDS_SOURCE

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
    gradients into `out`, and makes one sgd_step under cfg's momentum and
    weight decay at the step's entry of lrs: a float, or an (S, 1) column
    with one learning rate per model. The velocity of the stack rows listed
    in `reset` restarts from zero when the segment starts. One gradient
    buffer `out` and one velocity live for the whole run. A NumericError is
    raised again with the iteration, counted over all segments, and, when
    `cells` names the models, the name of the cell it concerns.
    """
    velocity = ModelParams.zeros_like(params)
    out = ModelParams.zeros_like(params)
    steps = sum(len(lrs) for _, lrs, _ in segments)
    trace = np.empty((steps,) + params.flat.shape[:-1])
    it = 0
    for batch_fn, lrs, reset in segments:
        if reset:
            velocity.flat[reset] = 0.0
        for lr in lrs:
            try:
                loss, grads = loss_fn(params, *batch_fn(), out)
                sgd_step(params, grads, velocity, cfg, it, lr)
            except NumericError as e:
                where = f"iteration {it}: {e}"
                if cells is not None:
                    who = cells[e.cell] if e.cell is not None else ", ".join(cells)
                    where = f"{who}: {where}"
                raise NumericError(where, cell=e.cell) from None
            trace[it] = loss
            it += 1
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
    backward_from_dlogits. Every model gets the bits the loss of its own
    kind gives it alone, so a stack of one gets those of its model alone."""
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


def _aux_pool(src: Dataset, space: LabelSpace):
    """The inputs of all selected-class source samples and their unified labels."""
    by_class = src.indices_by_class()
    idx = np.concatenate([by_class[c] for c in space.source_classes])
    return src.X.take(idx, 0), space.source_columns[src.y[idx]]


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


#: The batch kind each strategy trains on; SeqTrain's is that of its first
#: phase, its second phase trains on target rows.
_BATCH = {
    StrategyKind.L2: "target",
    StrategyKind.L2SP: "target",
    StrategyKind.MIXUP_IN_DOMAIN: "in_domain",
    StrategyKind.XMIXUP: "mixed",
    StrategyKind.XMIXUP_NO_LABEL: "mixed",
    StrategyKind.SEQ_TRAIN: "auxiliary",
    StrategyKind.CO_TRAIN: "cotrain",
}


def _phases(strategy: Strategy, cfg: TrainConfig) -> list[tuple[int, TrainConfig, str]]:
    """A cell's phases that take any step, as (first iteration, the phase's
    TrainConfig, batch kind)."""
    phases = [(0, cfg, _BATCH[strategy.kind])]
    if strategy.kind is StrategyKind.SEQ_TRAIN:
        mid = _midtune(strategy, cfg)
        phases = [
            (0, _budget(cfg, mid), "auxiliary"),
            (mid, _budget(cfg, cfg.iterations - mid), "target"),
        ]
    return [phase for phase in phases if phase[1].iterations]


def _stack_order(strategy: Strategy) -> tuple:
    """Where a cell sits in its stack: by strategy kind, so that cotrain's
    masked rows come last, and the L2SP cells of one weight next to each
    other."""
    return list(StrategyKind).index(strategy.kind), strategy.sp_weight or 0.0


def stack_cell_bytes(pretrained: ModelParams, label_count: int, batch_size: int) -> int:
    """About the bytes one cell adds to the working set of a training stack
    over `pretrained` with a head of label_count outputs: its parameters,
    gradients and velocity, and its batch's inputs, pre-activations,
    activations and logits."""
    widths = [w.shape[-2] for w, _ in pretrained.layers]
    params = pretrained.extractor.shape[-1] + label_count * (widths[-1] + 1)
    rows = pretrained.d + 2 * sum(widths) + label_count
    return 8 * (3 * params + batch_size * rows)


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
        pool_X, pool_labels = _aux_pool(src, space)
    else:
        space = LabelSpace(n, ())

    # the stack's rows: the cells in _stack_order; `order` maps a row to its cell
    order = sorted(range(len(cfgs)), key=lambda i: _stack_order(strategies[i]))
    strategies = [strategies[i] for i in order]
    cfgs = [cfgs[i] for i in order]
    stack = ModelParams.stack(  # copies the pre-trained layers in
        [
            ModelParams(
                pretrained.layers,
                init_linear(
                    space.size,
                    pretrained.feature_width,
                    np.random.default_rng([c.seed, 0]),
                ),
            )
            for c in cfgs
        ]
    )
    eye = np.eye(space.size)
    tgt_X, tgt_y = tgt_train.X, tgt_train.y
    B = cfg.batch_size
    half = B // 2
    cells = [_cell_name(s, c) for s, c in zip(strategies, cfgs)]

    # A draw key (batch kind, seed, MixupConfig, first iteration) names a
    # stream of batches: cells of one key draw the same batches, so they
    # share one set of generators and one draw per step. Its generators
    # are made when it first draws and kept while it draws.
    rngs: dict[tuple, np.random.Generator] = {}

    def generators(keys: list[tuple], stream: int) -> list:
        for key in keys:
            if (key, stream) not in rngs:
                _, seed, mixup, _ = key
                entropy = [seed, 2, mixup.seed] if stream == 2 else [seed, stream]
                rngs[key, stream] = np.random.default_rng(entropy)
        return [rngs[key, stream] for key in keys]

    # the batch kinds: each takes the draw keys of its cells and the number
    # of steps to draw, and returns a function that draws one step's
    # batches of every key, (X, P, labels) with a leading (keys,) axis
    def uniform_rows(X, labels, stream, keys, steps):
        # rows of X drawn uniformly with their one-hot labels: the target
        # rows (stream 1) and the auxiliary source rows (stream 3)
        draws = _index_blocks(generators(keys, stream), len(X), (B,), steps)

        def draw():
            idx = next(draws)
            return X.take(idx, 0), eye.take(labels[idx], 0), None

        return draw

    def in_domain(keys, steps):
        draws = _index_blocks(generators(keys, 1), len(tgt_X), (2, B), steps)
        mixups, rng_mix = [key[2] for key in keys], generators(keys, 2)

        def draw():
            i1, i2 = next(draws).swapaxes(0, 1)
            lams = sample_beta_batch(mixups, B, rng_mix)[..., None]
            X = lams * tgt_X.take(i1, 0) + (1.0 - lams) * tgt_X.take(i2, 0)
            P = lams * eye.take(tgt_y[i1], 0) + (1.0 - lams) * eye.take(tgt_y[i2], 0)
            return X, P, None

        return draw

    def mixed(keys, steps):
        mixups, rng_mix = [key[2] for key in keys], generators(keys, 2)

        def draw():
            X, P = make_batch(tgt_train, src, plan, space, mixups, B, rng_mix)
            return X, P, None

        return draw

    def cotrain(keys, steps):
        # half target rows, then auxiliary rows: one bound per column, and
        # the pool's rows offset past the target's in one joint array
        high = np.repeat([len(tgt_X), len(pool_X)], [half, B - half])
        offset = np.repeat([0, len(tgt_X)], [half, B - half])
        joint_X = np.concatenate([tgt_X, pool_X])
        joint_y = np.concatenate([tgt_y, pool_labels])
        draws = _index_blocks(generators(keys, 1), high, (B,), steps)

        def draw():
            idx = next(draws) + offset
            return joint_X.take(idx, 0), None, joint_y[idx]

        return draw

    batch_kinds = {
        "target": lambda *draws: uniform_rows(tgt_X, tgt_y, 1, *draws),
        "in_domain": in_domain,
        "mixed": mixed,
        "auxiliary": lambda *draws: uniform_rows(pool_X, pool_labels, 3, *draws),
        "cotrain": cotrain,
    }

    def relabel(P):
        # keep the mixed inputs, relabel with the pure target class (the lone
        # nonzero in the target block)
        return eye.take(P[..., :n].argmax(axis=-1), 0)

    def segment(first: int, stop: int, current: list[tuple]):
        """The (batch_fn, lrs, reset) of iterations [first, stop), in which
        row r is in phase current[r]."""
        keys = [
            (batch, c.seed, s.mixup, start)
            for (start, _, batch), s, c in zip(current, strategies, cfgs)
        ]
        by_kind: dict[str, list[tuple]] = {}
        owner: dict[str, list[int]] = {}  # each key's first row
        for r, key in enumerate(keys):
            if key not in by_kind.setdefault(key[0], []):
                by_kind[key[0]].append(key)
                owner.setdefault(key[0], []).append(r)
        draws = {
            kind: batch_kinds[kind](kind_keys, stop - first)
            for kind, kind_keys in by_kind.items()
        }
        # runs of adjacent rows of one batch kind and label use, each with
        # the indices of its rows' keys, None when they are all, in order
        pieces = []
        for key, s in zip(keys, strategies):
            kind, nolabel = key[0], s.kind is StrategyKind.XMIXUP_NO_LABEL
            if not pieces or pieces[-1][:2] != (kind, nolabel):
                pieces.append((kind, nolabel, []))
            pieces[-1][2].append(by_kind[kind].index(key))
        pieces = [
            (kind, nolabel, None if idx == list(range(len(by_kind[kind]))) else idx)
            for kind, nolabel, idx in pieces
        ]
        if len(pieces) == 1 and pieces[0][1:] == (False, None):
            batch_fn = draws[pieces[0][0]]
        else:

            def batch_fn():
                parts = {}
                for kind, draw in draws.items():
                    try:
                        parts[kind] = draw()
                    except NumericError as e:
                        if e.cell is None:
                            raise
                        raise NumericError(str(e), cell=owner[kind][e.cell]) from None
                inputs, soft, hard = [], [], []
                for kind, nolabel, idx in pieces:
                    batch = parts[kind]
                    if idx is not None:
                        batch = [a if a is None else a.take(idx, 0) for a in batch]
                    X, P, labels = batch
                    inputs.append(X)
                    if labels is not None:
                        hard.append(labels)
                    else:
                        soft.append(relabel(P) if nolabel else P)
                return _cat(inputs), _cat(soft), _cat(hard)

        # the learning rates of each row's schedule; the phases of the
        # rows differ only in their budget, so (start, drop) tells them apart
        schedules = {}
        for start, phase, _ in current:
            if (start, phase.lr_drop_at) not in schedules:
                lrs = [learning_rate(phase, i - start) for i in range(first, stop)]
                schedules[start, phase.lr_drop_at] = lrs
        if len(schedules) == 1:
            (lrs,) = schedules.values()
        else:  # one column of rates per step
            columns = [schedules[start, ph.lr_drop_at] for start, ph, _ in current]
            lrs = np.array(columns).T[..., None]
        reset = [r for r, (start, _, _) in enumerate(current) if 0 < start == first]
        return batch_fn, lrs, reset

    # the losses: cross-entropy on soft labels and the masked loss on
    # cotrain's rows, then the L2-SP penalty added on L2SP's rows
    penalties = []  # (rows, mu, the rows' parameters, their penalty gradient)
    weights = [s.sp_weight for s in strategies]
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
    phases = [_phases(s, c) for s, c in zip(strategies, cfgs)]
    bounds = sorted({ph[0] for row in phases for ph in row} | {cfg.iterations})
    segments = []
    for first, stop in zip(bounds, bounds[1:]):
        current = [[ph for ph in row if ph[0] <= first][-1] for row in phases]
        segments.append(segment(first, stop, current))
    trace = _run_segments(stack, cfg, loss_fn, segments, cells)

    label_space = {"n_target": n, "source_classes": list(space.source_classes)}
    results: list[RunResult | None] = [None] * len(cfgs)
    for r, (s, c) in enumerate(zip(strategies, cfgs)):
        config = {"strategy": s.to_config(), "train": asdict(c)}
        config["label_space"] = label_space
        if s.kind is StrategyKind.SEQ_TRAIN:
            config["strategy"]["midtune_iterations"] = _midtune(s, c)
        model = stack.row(r)
        accuracy = evaluate(model, tgt_test)
        result = RunResult(model, trace[:, r].tolist(), accuracy, c.seed, config)
        results[order[r]] = result
    return results
