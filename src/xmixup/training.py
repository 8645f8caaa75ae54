"""Pre-training and the seven fine-tuning strategies under comparison.

Every strategy fine-tunes a pre-trained extractor with a fresh head over the
unified label space (target classes first, then any selected source
classes), and every one is the same SGD loop fed a different batch: one
trainer, _train, steps every stack through one loop, _run_stack, for
fine-tuning and pretrain alike. Each strategy draws by one batch kind
(_row_kind), a module-level function or, for seqtrain, a small frozen
callable keyed by its first-phase budget; those that draw source rows read
one CrossDomainPool, and the mixing ones mix by blend:

- target rows: l2, and l2sp, which adds mu * ||theta_ext - theta_0,ext||^2
  with the gradient 2*mu*(theta - theta_0) on the extractor
- in-domain mixed rows; cross-domain mixed rows: xmixup, and
  xmixup-nolabel, which relabels them with the pure target class
- seqtrain's auxiliary source rows, then target rows (_Sequential)
- co-train rows, half target and half auxiliary, under a masked softmax
  (target rows over target logits, source rows over source logits)

finetune_cells takes a grid of cells (a strategy, a seed and the plan its
source draws follow) and one TrainConfig. It is the one place that groups
cells into stacks: those that share a label space (the target classes
alone, or with one plan's auxiliary classes) train, whatever their
strategies, as one stack of S models (see the model module), one model step
per iteration for all of them, and each stack row's result and NumericError
go back to the cell's index in the grid. finetune is a grid of one cell,
and pretrain's model a stack of one, drawing l2's target rows from the
source classes.

- Batches. A batch kind draws once a step for all of its draw keys. Cells
  whose draws are the same function of the same generator seeds share a key
  (l2 and l2sp, xmixup and xmixup-nolabel). Each key draws from its own
  generators in the order a lone run would; one that draws only indices
  draws a block of steps per call, with the same values and state
  (_index_blocks). A pure row map, _row_plan, joins the kinds' draws into
  the stack's batch; a stack of one kind, one draw a row, takes them as is.
- Losses. One call of model.stack_loss_and_grad, one forward and one
  backward, serves the stack, plus L2-SP's penalty.
- Schedules. Seqtrain's velocity and schedule restart at its first-phase
  budget; where schedules differ, each row takes its own rate.

So every cell's parameters, loss trace and accuracy are bit for bit those
of the cell trained alone, whichever cells ride with it."""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, repeat
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError, NumericError
from .mixup import BetaSampler, CrossDomainPool, LabelSpace, MixupConfig
from .mixup import blend, make_batch
from .model import (
    ModelParams,
    TrainConfig,
    _cat,
    forward,
    init,
    init_linear,
    learning_rate,
    sgd_step,
    stack_loss_and_grad,
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

NEEDS_SOURCE = {
    StrategyKind.XMIXUP, StrategyKind.XMIXUP_NO_LABEL,
    StrategyKind.SEQ_TRAIN, StrategyKind.CO_TRAIN,
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
        return self.kind in NEEDS_SOURCE

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


def _run_stack(params, cfg, loss_fn, batch_fn, lrs, resets, cells=None) -> np.ndarray:
    """Drive SGD for len(lrs) steps, updating the stack params in place;
    returns the (iterations, S) loss trace.

    Each step draws a batch, a tuple of arrays, from batch_fn(), takes
    loss_fn(params, *batch, out) -> (loss, grads), which writes the
    gradients into the run's one buffer `out`, and makes one sgd_step at the
    step's entry of lrs: a float, or an (S, 1) column of one rate per model.
    `resets` maps an iteration to the rows whose velocity restarts from
    zero before it.

    A diverging run overflows quietly: the checks of logits and gradients
    raise NumericError at the step they find a non-finite value, and a loss
    no check reads (L2-SP's penalty) is checked in the trace once the loop
    ends. Either is raised with the iteration and the name of its cell when
    `cells` names the models.
    """

    def failed(it: int, message: str, cell: int | None) -> NumericError:
        where = f"iteration {it}: {message}"
        if cells is not None:
            who = cells[cell] if cell is not None else ", ".join(cells)
            where = f"{who}: {where}"
        return NumericError(where, cell=cell)

    velocity = ModelParams.zeros_like(params)
    out = ModelParams.zeros_like(params)
    trace = np.empty((len(lrs),) + params.flat.shape[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for it, lr in enumerate(lrs):
            if it in resets:
                velocity.flat[resets[it]] = 0.0
            try:
                loss, grads = loss_fn(params, *batch_fn(), out)
                sgd_step(params, grads, velocity, cfg, lr)
            except NumericError as e:
                raise failed(it, str(e), e.cell) from None
            trace[it] = loss
    finite = np.isfinite(trace)
    if not finite.all():
        it, cell = np.argwhere(~finite)[0].tolist()  # the first, and its cell
        raise failed(it, "non-finite loss", cell)
    return trace


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
    """Train extractor + source head from scratch on the source dataset:
    one l2 cell, named "pretrain", on uniformly drawn source rows, trained
    by _train as a stack of one."""
    if src_train.class_count < 2:
        raise ValueError("pre-training needs at least 2 source classes")
    if len(src_train) == 0:
        raise DataError("cannot pre-train on an empty dataset")
    params = init(src_train.d, list(hidden), src_train.class_count, cfg.seed)
    ctx = _Context.of(src_train, None, None, cfg.batch_size)
    one = ModelParams._over(params, params.flat[None])  # trains params in place
    _train(one, ctx, [(Strategy.l2(), cfg.seed)], cfg, ["pretrain"], None)
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


def _budget(cfg: TrainConfig, iterations: int) -> TrainConfig:
    """cfg cut to `iterations`, its learning-rate drop moved in proportion."""
    drop = round(iterations * cfg.lr_drop_at / cfg.iterations) if cfg.iterations else 0
    return replace(cfg, iterations=iterations, lr_drop_at=drop)


def _cell_name(strategy: Strategy, seed: int) -> str:
    name = f"{strategy.kind.value} seed {seed}"
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
    """What the batch kinds of one stack draw from: its target data,
    label space and CrossDomainPool (None with no source), the identity
    whose rows are one-hot labels, and B."""

    tgt: Dataset
    space: LabelSpace
    pool: CrossDomainPool | None
    eye: np.ndarray
    B: int

    @classmethod
    def of(cls, tgt, src, plan, batch_size) -> "_Context":
        """The context of cells that draw rows of `src` by `plan`, or, with
        plan None, target rows alone."""
        sources = () if plan is None else tuple(plan.selected_sources())
        space = LabelSpace(tgt.class_count, sources)
        pool = None if plan is None else CrossDomainPool.of(tgt, src, plan, space)
        return cls(tgt, space, pool, np.eye(space.size), batch_size)


def _generators(keys: list[tuple], stream: int) -> list:
    """Each draw key's generator of a stream: 1 target rows, 2 mixing, 3 auxiliary."""
    entropy = ([s, 2, mix.seed] if stream == 2 else [s, stream] for _, s, mix in keys)
    return [np.random.default_rng(e) for e in entropy]


# The batch kinds, built once per stack: (ctx, keys, steps) -> a function
# that draws one step's batches of every draw key (kind, seed, MixupConfig)
# from generators the kind makes, (X, P, labels) with a leading (keys,)
# axis and None for the labels it lacks: soft P or cotrain's hard labels.


def _uniform_rows(ctx, X, labels, stream, keys, steps):
    eye = ctx.eye
    draws = _index_blocks(_generators(keys, stream), len(X), (ctx.B,), steps)

    def draw():
        idx = next(draws)
        return X.take(idx, 0), eye.take(labels[idx], 0), None

    return draw


def _target_rows(ctx: _Context, keys: list[tuple], steps: int):
    """Target rows drawn uniformly, with their one-hot labels."""
    return _uniform_rows(ctx, ctx.tgt.X, ctx.tgt.y, 1, keys, steps)


def _auxiliary_rows(ctx: _Context, keys: list[tuple], steps: int):
    """Auxiliary source rows, the pool's past the target's, drawn uniformly."""
    X, y, n = ctx.pool.X, ctx.pool.y, ctx.pool.tgt_len
    return _uniform_rows(ctx, X[n:], y[n:], 3, keys, steps)


@dataclass(frozen=True)
class _Sequential:
    """SeqTrain's batch kind at first-phase budget `mid`: auxiliary rows for
    the first mid steps, then target rows from generators of its own. Equal
    budgets compare equal, so their rows share one kind."""

    mid: int

    def __call__(self, ctx: _Context, keys: list[tuple], steps: int):
        first = _auxiliary_rows(ctx, keys, self.mid)
        then = _target_rows(ctx, keys, steps - self.mid)
        draws = chain(repeat(first, self.mid), repeat(then, steps - self.mid))
        return (draw() for draw in draws).__next__


def _in_domain(ctx: _Context, keys: list[tuple], steps: int):
    """Pairs of target rows, inputs and labels mixed by one λ a row (blend)."""
    tgt_X, tgt_y, B, width = ctx.tgt.X, ctx.tgt.y, ctx.B, ctx.space.size
    draws = _index_blocks(_generators(keys, 1), len(tgt_X), (2, B), steps)
    lam, rng_mix = BetaSampler([key[2] for key in keys], B), _generators(keys, 2)

    def draw():
        i1, i2 = next(draws).swapaxes(0, 1)
        Xa, Xb = tgt_X.take(i1, 0), tgt_X.take(i2, 0)
        X, P = blend(lam(rng_mix), Xa, Xb, tgt_y[i1], tgt_y[i2], width)
        return X, P, None

    return draw


def _mixed(ctx: _Context, keys: list[tuple], steps: int):
    """Target rows mixed with rows of their paired source classes (make_batch)."""
    lam, rng_mix = BetaSampler([key[2] for key in keys], ctx.B), _generators(keys, 2)

    def draw():
        X, P = make_batch(ctx.pool, lam, rng_mix)
        return X, P, None

    return draw


def _cotrain(ctx: _Context, keys: list[tuple], steps: int):
    """B // 2 target rows, then auxiliary rows, under hard labels, from the
    pool's one array: one bound a column, offset past the target rows."""
    pool, n, B, half = ctx.pool, ctx.pool.tgt_len, ctx.B, ctx.B // 2
    high = np.repeat([n, len(pool.X) - n], [half, B - half])
    offset = np.repeat([0, n], [half, B - half])
    draws = _index_blocks(_generators(keys, 1), high, (B,), steps)

    def draw():
        idx = next(draws) + offset
        return pool.X.take(idx, 0), None, pool.y[idx]

    return draw


#: The batch kind of each strategy but SeqTrain, whose kind depends on its
#: budget (_row_kind).
_BATCH = {
    StrategyKind.L2: _target_rows,
    StrategyKind.L2SP: _target_rows,
    StrategyKind.MIXUP_IN_DOMAIN: _in_domain,
    StrategyKind.XMIXUP: _mixed,
    StrategyKind.XMIXUP_NO_LABEL: _mixed,
    StrategyKind.CO_TRAIN: _cotrain,
}


def _row_kind(strategy: Strategy, cfg: TrainConfig) -> tuple:
    """A row's batch kind and the iteration at which its velocity and
    learning-rate schedule restart: SeqTrain's first-phase budget, else 0."""
    if strategy.kind is StrategyKind.SEQ_TRAIN:
        mid = _midtune(strategy, cfg)
        return _Sequential(mid), mid
    return _BATCH[strategy.kind], 0


def _row_plan(keys: list[tuple], nolabel: list[bool]):
    """How a stack's rows take their batches, from each row's draw key
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


def _stack_order(strategy: Strategy) -> tuple:
    """Where a cell sits in its stack: by strategy kind, so that cotrain's
    masked rows come last, and the L2SP cells of one weight together."""
    return list(StrategyKind).index(strategy.kind), strategy.sp_weight or 0.0


def _train(stack, ctx, cells, cfg: TrainConfig, names, reference) -> np.ndarray:
    """Train `stack`, whose row r is the cell (strategy, seed) cells[r] named
    names[r], in place under cfg on the batches its cells draw from ctx;
    returns the (iterations, S) loss trace. L2-SP cells are pulled toward the
    extractor of `reference`, which a stack without them may leave None."""
    n, half, T = ctx.space.n_target, ctx.B // 2, cfg.iterations

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
            pen, _ = sp_penalty(view, reference, mu, pen_grads)
            grads.flat[rows] += pen_grads.flat
            loss[rows] += pen
        return loss, grads

    # the batches: each row's draw key, and one batch function for the stack
    kinds, starts = zip(*(_row_kind(s, cfg) for s, _ in cells))
    keys = [(kind, seed, s.mixup) for kind, (s, seed) in zip(kinds, cells)]
    nolabel = [s.kind is StrategyKind.XMIXUP_NO_LABEL for s, _ in cells]
    plan, take, relabel = _row_plan(keys, nolabel)
    draws = [(kind(ctx, ks, T), rows) for kind, ks, rows in plan]
    if len(draws) == 1 and take is None and not relabel:
        batch_fn = draws[0][0]  # one kind's draws are the stack's batches
    else:
        batch_fn = _joined(draws, take, relabel, ctx.eye, n)

    # the schedules: a row that restarts at `at` runs _budget(cfg, at), then
    # _budget(cfg, T - at) from iteration at, its velocity restarting there
    rates = {}
    for at in dict.fromkeys(starts):
        first, then = _budget(cfg, at), _budget(cfg, T - at)
        rates[at] = [
            learning_rate(first, i) if i < at else learning_rate(then, i - at)
            for i in range(T)
        ]
    if len(rates) == 1:
        (lrs,) = rates.values()
    else:  # one column of rates per step
        lrs = np.array([rates[at] for at in starts]).T[..., None]
    resets = {at: [r for r, a in enumerate(starts) if a == at] for at in rates if at}
    return _run_stack(stack, cfg, loss_fn, batch_fn, lrs, resets, names)


@dataclass(frozen=True)
class Cell:
    """One fine-tuning run: a strategy, a fine-tuning seed and the pairing
    plan its source draws follow."""

    strategy: Strategy
    seed: int
    plan: PairingPlan | None


def finetune(
    pretrained: ModelParams,
    tgt_train: Dataset,
    src: Dataset | None,
    plan: PairingPlan | None,
    strategy: Strategy,
    cfg: TrainConfig,
    tgt_test: Dataset,
) -> RunResult:
    """Fine-tune one cell, `strategy` under `cfg` with source draws by
    `plan`: finetune_cells of a grid of one."""
    return finetune_cells(
        pretrained, tgt_train, src, [Cell(strategy, cfg.seed, plan)], cfg, tgt_test
    )[0]


def finetune_cells(
    pretrained: ModelParams,
    tgt_train: Dataset,
    src: Dataset | None,
    cells: Sequence[Cell],
    cfg: TrainConfig,
    tgt_test: Dataset,
) -> list[RunResult]:
    """Fine-tune every cell under cfg with the cell's seed; one RunResult
    per cell, in cell order.

    The extractor starts from `pretrained`; the head is freshly initialized
    over the cell's label space: the target classes, then the classes its
    plan selects for the strategies that draw source rows (`src` and the
    cell's plan are required by those, and ignored otherwise).

    The cells that share a label space train as one stack, whatever their
    strategies: the cells that use no source data form one stack, and the
    cells that use source data one stack per plan object. Within a stack the
    cells sit in _stack_order, and cells whose batches are the same draws of
    the same generators share them (l2 and l2sp, xmixup and xmixup-nolabel
    of one seed). So the seven strategies train as two stacks at any number
    of seeds. A cell's result does not depend on which cells share its
    stack (see the module docstring). Mixing cells of one batch kind must
    share the β of their MixupConfig. A NumericError names the cell and the
    iteration, and its `cell` is the cell's index in `cells`.
    """
    n = tgt_train.class_count
    if len(tgt_train) == 0:
        raise DataError("cannot fine-tune on an empty target dataset")
    if tgt_train.d != pretrained.d:
        raise ValueError(
            f"target dimension {tgt_train.d} != model input {pretrained.d}"
        )
    if tgt_test.class_count != n or tgt_test.d != tgt_train.d:
        raise ValueError("test split does not match the training split")
    stacks: dict[int | None, list[int]] = {}
    for i, cell in enumerate(cells):
        key = None
        if cell.strategy.needs_source:
            if cell.plan is None or src is None:
                raise ConfigError(
                    f"strategy {cell.strategy.kind.value} requires source data "
                    "and a pairing plan"
                )
            missing = [t for t in range(n) if t not in cell.plan.per_target]
            if missing:
                raise ConfigError(f"pairing plan misses target classes {missing}")
            key = id(cell.plan)
        if cell.strategy.kind is StrategyKind.SEQ_TRAIN:
            _midtune(cell.strategy, cfg)  # a bad budget fails before any stack trains
        stacks.setdefault(key, []).append(i)

    results: list[RunResult | None] = [None] * len(cells)
    for key, group in stacks.items():
        plan = None if key is None else cells[group[0]].plan
        ctx = _Context.of(tgt_train, src, plan, cfg.batch_size)
        # the stack's rows: the group in _stack_order; order[r] is row r's cell
        order = sorted(group, key=lambda i: _stack_order(cells[i].strategy))
        rows = [(cells[i].strategy, cells[i].seed) for i in order]
        rngs = [np.random.default_rng([seed, 0]) for _, seed in rows]
        heads = [init_linear(ctx.space.size, pretrained.feature_width, r) for r in rngs]
        # the stack copies the pre-trained layers in
        stack = ModelParams.stack([ModelParams(pretrained.layers, h) for h in heads])
        names = [_cell_name(s, seed) for s, seed in rows]
        try:
            trace = _train(stack, ctx, rows, cfg, names, pretrained)
            accuracies = []
            for r, name in enumerate(names):
                try:
                    accuracies.append(evaluate(stack.row(r), tgt_test))
                except NumericError as e:
                    raise NumericError(f"{name}: {e}", cell=r) from None
        except NumericError as e:  # name the caller's cell, not its stack row
            cell = None if e.cell is None else order[e.cell]
            raise NumericError(str(e), cell=cell) from None
        space = {"n_target": n, "source_classes": list(ctx.space.source_classes)}
        for r, (s, seed) in enumerate(rows):
            train = asdict(replace(cfg, seed=seed))
            config = {"strategy": s.to_config(), "train": train, "label_space": space}
            if s.kind is StrategyKind.SEQ_TRAIN:
                config["strategy"]["midtune_iterations"] = _midtune(s, cfg)
            results[order[r]] = RunResult(
                stack.row(r), trace[:, r].tolist(), accuracies[r], seed, config
            )
    return results
