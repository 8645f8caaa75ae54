"""Pre-training and the seven fine-tuning strategies under comparison.

Every strategy fine-tunes a pre-trained extractor with a fresh head over the
unified label space (target classes first, then any selected source
classes), and every one is the same SGD loop fed a different batch: a
strategy is a list of phases (TrainConfig, batch, loss), and one driver,
_run_sgd, runs every phase and pretrain alike. The batches are target rows,
in-domain mixed rows, cross-domain mixed rows, auxiliary source rows and
co-train rows; the losses are soft-target cross-entropy, L2-SP and the
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

finetune trains one cell or a list of cells that share a strategy kind, a
pairing plan and a TrainConfig up to its seed (mixing cells may differ in
the α and seed of their MixupConfig, not in β). The cells train as one stack of S models (see
the model module): every cell keeps its own generators and draws from them
in the order a lone run would, and everything after the draws (lookups,
gathers, blends, forward, backward, the checks and the SGD update) runs
once per step for the stack. So every cell's parameters, loss trace and
accuracy are bit for bit those of the cell trained alone, whichever cells
ride with it. Every batch carries the leading (S,) cell axis; a lone cell
trains the arrays of one model, and the driver drops that axis from its
batches."""

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
    forward,
    forward_cache,
    init,
    init_linear,
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


def _run_sgd(
    params, cfg, batch_fn, loss_fn, cells: list[str] | None = None
) -> np.ndarray:
    """Drive `cfg.iterations` SGD steps, updating params in place; returns
    the loss trace, shaped (iterations,) for one model and (iterations, S)
    for a stack.

    Each step draws a batch, a tuple of arrays with a leading stack axis,
    from batch_fn() and takes loss_fn(params, *batch, out) -> (loss, grads),
    which writes the gradients into `out`. When params is one model, not a
    stack, the driver drops the stack axis from every batch array: numpy
    spends about 6 % more per loss call on a stack of one. One gradient
    buffer `out` and one velocity live for the whole run. A NumericError is
    raised again with the iteration and, when `cells` names the models, the
    name of the cell it concerns.
    """
    velocity = ModelParams.zeros_like(params)
    out = ModelParams.zeros_like(params)
    trace = np.empty((cfg.iterations,) + params.flat.shape[:-1])
    for it in range(cfg.iterations):
        try:
            batch = batch_fn()
            if not params.stacked:
                batch = [a[0] for a in batch]
            loss, grads = loss_fn(params, *batch, out)
            sgd_step(params, grads, velocity, cfg, it)
        except NumericError as e:
            where = f"iteration {it}: {e}"
            if cells is not None:
                who = cells[e.cell] if e.cell is not None else ", ".join(cells)
                where = f"{who}: {where}"
            raise NumericError(where, cell=e.cell) from None
        trace[it] = loss
    return trace


def _draw(rngs: list, high, size: int) -> np.ndarray:
    """`size` indices below `high` from each generator: the (S, size) index
    array, one row per cell."""
    return np.array([rng.integers(high, size=size) for rng in rngs])


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

    def batch():
        idx = _draw(rng, len(X), cfg.batch_size)
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
    params: ModelParams, reference: ModelParams, mu: float
) -> tuple[float, ModelParams]:
    """mu * squared L2 distance of the extractor from a reference, plus its
    gradient 2*mu*(theta - theta_ref); the head contributes nothing.

    For a stack, every model is measured against the one reference and the
    value is an (S,) array.
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
    grads = ModelParams.zeros_like(params)
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
    loss = total / total_rows
    grads = backward_from_dlogits(params, acts, pres, dlogits, out)
    return (loss if params.stacked else float(loss)), grads


def _aux_pool(src: Dataset, space: LabelSpace):
    """Indices of all selected-class source samples and their unified labels."""
    by_class = src.indices_by_class()
    idx = np.concatenate([by_class[c] for c in space.source_classes])
    return idx, space.source_columns[src.y[idx]]


def _budget(cfg: TrainConfig, iterations: int) -> TrainConfig:
    """cfg cut to `iterations`, its learning-rate drop moved in proportion."""
    drop = round(iterations * cfg.lr_drop_at / cfg.iterations) if cfg.iterations else 0
    return replace(cfg, iterations=iterations, lr_drop_at=drop)


def _cell_name(strategy: Strategy, cfg: TrainConfig) -> str:
    name = f"{strategy.kind.value} seed {cfg.seed}"
    if strategy.mixup is not None:
        name += f" alpha {strategy.mixup.alpha:g}"
    return name


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
    RunResult per cell in order. The cells must share the strategy kind and
    every strategy parameter but the α and seed of the MixupConfig, and
    every TrainConfig field but the seed; they train as one stack (see the
    module docstring). A NumericError names the cell and the iteration.
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
    first = strategies[0]
    if any(replace(s, mixup=first.mixup) != first for s in strategies):
        raise ValueError("stacked cells must share the strategy but for its mixup")
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

    kind = first.kind
    if first.needs_source:
        if plan is None or src is None:
            raise ConfigError(
                f"strategy {kind.value} requires source data and a pairing plan"
            )
        missing = [t for t in range(n) if t not in plan.per_target]
        if missing:
            raise ConfigError(f"pairing plan misses target classes {missing}")
        space = LabelSpace(n, tuple(plan.selected_sources()))
    else:
        space = LabelSpace(n, ())

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
    params = stack if len(cfgs) > 1 else stack.row(0)  # see _run_sgd
    rng_batch = [np.random.default_rng([c.seed, 1]) for c in cfgs]
    eye = np.eye(space.size)
    tgt_X, tgt_y = tgt_train.X, tgt_train.y
    B = cfg.batch_size
    half = B // 2
    cells = [_cell_name(s, c) for s, c in zip(strategies, cfgs)]
    if first.mixup is not None:
        mixups = [s.mixup for s in strategies]
        rng_mix = [
            np.random.default_rng([c.seed, 2, s.mixup.seed])
            for s, c in zip(strategies, cfgs)
        ]
    if kind in (StrategyKind.SEQ_TRAIN, StrategyKind.CO_TRAIN):
        pool, pool_labels = _aux_pool(src, space)

    # the batches: each returns arrays with a leading (S,) cell axis
    def target():
        idx = _draw(rng_batch, len(tgt_X), B)
        return tgt_X.take(idx, 0), eye.take(tgt_y[idx], 0)

    def in_domain():
        i1 = _draw(rng_batch, len(tgt_X), B)
        i2 = _draw(rng_batch, len(tgt_X), B)
        lams = sample_beta_batch(mixups, B, rng_mix)[..., None]
        X = lams * tgt_X.take(i1, 0) + (1.0 - lams) * tgt_X.take(i2, 0)
        P = lams * eye.take(tgt_y[i1], 0) + (1.0 - lams) * eye.take(tgt_y[i2], 0)
        return X, P

    def mixed():
        X, P = make_batch(tgt_train, src, plan, space, mixups, B, rng_mix)
        if kind is StrategyKind.XMIXUP_NO_LABEL:
            # keep the mixed inputs, relabel with the pure target class (the
            # lone nonzero in the target block)
            P = eye.take(P[..., :n].argmax(axis=-1), 0)
        return X, P

    def auxiliary():
        idx = _draw(rng_aux, len(pool), B)
        return src.X.take(pool[idx], 0), eye.take(pool_labels[idx], 0)

    def cotrain():
        ti = _draw(rng_batch, len(tgt_X), half)
        si = _draw(rng_batch, len(pool), B - half)
        X = np.concatenate([tgt_X.take(ti, 0), src.X.take(pool[si], 0)], axis=-2)
        return X, np.concatenate([tgt_y[ti], pool_labels[si]], axis=-1)

    # the losses besides plain cross-entropy, loss_and_grad_arrays
    def l2sp(p, X, P, out):
        loss, grads = loss_and_grad_arrays(p, X, P, out)
        pen, pgrads = sp_penalty(p, pretrained, first.sp_weight)
        grads.flat += pgrads.flat
        return loss + pen, grads

    def masked(p, X, labels, out):
        return masked_loss_and_grad(p, X, labels, n, half, out)

    label_space = {"n_target": n, "source_classes": list(space.source_classes)}
    configs = [
        {"strategy": s.to_config(), "train": asdict(c), "label_space": label_space}
        for s, c in zip(strategies, cfgs)
    ]
    # every strategy is a list of phases (budget, batch, loss)
    if kind is StrategyKind.SEQ_TRAIN:
        mid = first.midtune_iterations
        if mid is None:
            mid = cfg.iterations // 2
        if mid > cfg.iterations:
            raise ConfigError(
                f"midtune budget {mid} exceeds total iterations {cfg.iterations}"
            )
        for config in configs:
            config["strategy"]["midtune_iterations"] = mid
        rng_aux = [np.random.default_rng([c.seed, 3]) for c in cfgs]
        phases = [
            (_budget(cfg, mid), auxiliary, loss_and_grad_arrays),
            (_budget(cfg, cfg.iterations - mid), target, loss_and_grad_arrays),
        ]
    else:
        batch, loss = {
            StrategyKind.L2: (target, loss_and_grad_arrays),
            StrategyKind.L2SP: (target, l2sp),
            StrategyKind.MIXUP_IN_DOMAIN: (in_domain, loss_and_grad_arrays),
            StrategyKind.XMIXUP: (mixed, loss_and_grad_arrays),
            StrategyKind.XMIXUP_NO_LABEL: (mixed, loss_and_grad_arrays),
            StrategyKind.CO_TRAIN: (cotrain, masked),
        }[kind]
        phases = [(cfg, batch, loss)]
    trace = np.concatenate(
        [_run_sgd(params, c, batch, loss, cells) for c, batch, loss in phases]
    ).reshape(-1, len(cfgs))  # (iterations, S), a lone cell too
    results = []
    for s, (c, config) in enumerate(zip(cfgs, configs)):
        model = stack.row(s)
        accuracy = evaluate(model, tgt_test)
        results.append(RunResult(model, trace[:, s].tolist(), accuracy, c.seed, config))
    return results
