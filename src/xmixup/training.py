"""Pre-training and the seven fine-tuning strategies under comparison.

All strategies share the SGD loop from the model module and a head over the
unified label space (target classes first, then any selected source classes).
The non-trivial ones:

- L2SP adds mu * ||theta_ext - theta_pretrain,ext||^2 on the extractor, with
  the gradient 2*mu*(theta - theta_0) added analytically.
- XMixup trains on cross-domain mixed batches; the no-label variant keeps the
  identical mixed inputs but uses the pure target label.
- SeqTrain splits the budget: first tune on auxiliary source samples under
  their own labels, then fine-tune on target data.
- CoTrain trains half-target/half-auxiliary batches with a masked softmax:
  target rows normalize over target logits only, source rows over source
  logits only (equivalent to separate heads on a shared extractor).
"""

from __future__ import annotations

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


_NEEDS_MIXUP = {
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
        if (self.mixup is not None) != (self.kind in _NEEDS_MIXUP):
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


def _run_sgd(params, cfg, step_fn):
    """Drive `cfg.iterations` steps of step_fn(params, it, out) -> (loss,
    grads), updating params in place; returns the loss trace.

    One gradient buffer `out` and one velocity live for the whole run;
    step_fn writes the gradients into `out`.
    """
    velocity = ModelParams.zeros_like(params)
    out = ModelParams.zeros_like(params)
    trace = []
    for it in range(cfg.iterations):
        try:
            loss, grads = step_fn(params, it, out)
            sgd_step(params, grads, velocity, cfg, it)
        except NumericError as e:
            raise NumericError(f"iteration {it}: {e}") from None
        trace.append(float(loss))
    return trace


def pretrain(src_train: Dataset, cfg: TrainConfig, hidden: list[int]) -> ModelParams:
    """Train extractor + source head from scratch on the source dataset."""
    if src_train.class_count < 2:
        raise ValueError("pre-training needs at least 2 source classes")
    if len(src_train) == 0:
        raise DataError("cannot pre-train on an empty dataset")
    params = init(src_train.d, list(hidden), src_train.class_count, cfg.seed)
    rng = np.random.default_rng([cfg.seed, 1])
    X, y = src_train.X, src_train.y
    eye = np.eye(src_train.class_count)

    def step(p, it, out):
        idx = rng.integers(len(X), size=cfg.batch_size)
        return loss_and_grad_arrays(p, X.take(idx, 0), eye.take(y[idx], 0), out)

    _run_sgd(params, cfg, step)
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
    gradient 2*mu*(theta - theta_ref); the head contributes nothing."""
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    if len(params.layers) != len(reference.layers):
        raise ValueError("extractor depths differ")
    for (w, _), (w0, _) in zip(params.layers, reference.layers):
        if w.shape != w0.shape:
            raise ValueError(f"layer shapes differ: {w.shape} vs {w0.shape}")
    # the extractor difference, in place in the gradient's buffer, becomes
    # the gradient once scaled; the head part stays zero
    grads = ModelParams.zeros_like(params)
    np.subtract(params.extractor, reference.extractor, out=grads.extractor)
    value = 0.0
    for dw, db in grads.layers:
        value += float((dw * dw).sum() + (db * db).sum())
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
    The gradients go into `out` as in backward_from_dlogits."""
    acts, pres, _, logits = forward_cache(params, X)
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits in masked loss")
    total_rows, label_count = logits.shape
    if not 0 <= split <= total_rows:
        raise ValueError(f"split {split} outside batch of {total_rows}")
    dlogits = np.zeros_like(logits)
    total = 0.0
    for rows, lo, hi in (
        (slice(0, split), 0, n_target),
        (slice(split, total_rows), n_target, label_count),
    ):
        sub = logits[rows, lo:hi]
        if sub.shape[0] == 0:
            continue
        li = labels[rows] - lo
        if np.any((li < 0) | (li >= hi - lo)):
            raise ValueError("label outside its softmax block")
        logp = log_softmax(sub)
        rows_idx = np.arange(sub.shape[0])
        total -= float(logp[rows_idx, li].sum())
        dsub = np.exp(logp)
        dsub[rows_idx, li] -= 1.0
        dlogits[rows, lo:hi] = dsub / total_rows
    return total / total_rows, backward_from_dlogits(params, acts, pres, dlogits, out)


def _aux_pool(src: Dataset, space: LabelSpace):
    """Indices of all selected-class source samples and their unified labels."""
    by_class = src.indices_by_class()
    idx = np.concatenate([by_class[c] for c in space.source_classes])
    return idx, space.source_columns[src.y[idx]]


def _rescale_drop(cfg: TrainConfig, iterations: int) -> int:
    if cfg.iterations == 0:
        return 0
    return int(round(iterations * cfg.lr_drop_at / cfg.iterations))


def finetune(
    pretrained: ModelParams,
    tgt_train: Dataset,
    src: Dataset | None,
    plan: PairingPlan | None,
    strategy: Strategy,
    cfg: TrainConfig,
    tgt_test: Dataset,
) -> RunResult:
    """Fine-tune from a pre-trained extractor under one strategy.

    The extractor starts from `pretrained`; the head is freshly initialized
    over the unified label space (just the target classes for strategies that
    never touch source samples). `src` and `plan` are required by the
    source-using strategies and ignored otherwise.
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

    kind = strategy.kind
    if strategy.needs_source:
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

    head_rng = np.random.default_rng([cfg.seed, 0])
    params = ModelParams(  # copies the pre-trained layers in
        pretrained.layers, init_linear(space.size, pretrained.feature_width, head_rng)
    )
    rng_batch = np.random.default_rng([cfg.seed, 1])
    eye = np.eye(space.size)
    tgt_X, tgt_y = tgt_train.X, tgt_train.y

    def target_step(p, it, out):
        idx = rng_batch.integers(len(tgt_X), size=cfg.batch_size)
        return loss_and_grad_arrays(p, tgt_X.take(idx, 0), eye.take(tgt_y[idx], 0), out)

    config = {
        "strategy": strategy.to_config(),
        "train": asdict(cfg),
        "label_space": {"n_target": n, "source_classes": list(space.source_classes)},
    }

    if kind in (StrategyKind.L2, StrategyKind.L2SP):
        if kind is StrategyKind.L2:
            step = target_step
        else:

            def step(p, it, out):
                loss, grads = target_step(p, it, out)
                pen, pgrads = sp_penalty(p, pretrained, strategy.sp_weight)
                grads.flat += pgrads.flat
                return loss + pen, grads

        trace = _run_sgd(params, cfg, step)

    elif kind is StrategyKind.MIXUP_IN_DOMAIN:
        rng_mix = np.random.default_rng([cfg.seed, 2, strategy.mixup.seed])

        def step(p, it, out):
            i1 = rng_batch.integers(len(tgt_X), size=cfg.batch_size)
            i2 = rng_batch.integers(len(tgt_X), size=cfg.batch_size)
            lams = sample_beta_batch(strategy.mixup, cfg.batch_size, rng_mix)[:, None]
            X = lams * tgt_X.take(i1, 0) + (1.0 - lams) * tgt_X.take(i2, 0)
            P = lams * eye.take(tgt_y[i1], 0) + (1.0 - lams) * eye.take(tgt_y[i2], 0)
            return loss_and_grad_arrays(p, X, P, out)

        trace = _run_sgd(params, cfg, step)

    elif kind in (StrategyKind.XMIXUP, StrategyKind.XMIXUP_NO_LABEL):
        rng_mix = np.random.default_rng([cfg.seed, 2, strategy.mixup.seed])
        drop_label = kind is StrategyKind.XMIXUP_NO_LABEL

        def step(p, it, out):
            X, P = make_batch(
                tgt_train, src, plan, space, strategy.mixup, cfg.batch_size, rng_mix
            )
            if drop_label:
                # keep the mixed inputs, relabel with the pure target class
                # (the lone nonzero in the target block)
                P = eye.take(P[:, :n].argmax(axis=1), 0)
            return loss_and_grad_arrays(p, X, P, out)

        trace = _run_sgd(params, cfg, step)

    elif kind is StrategyKind.SEQ_TRAIN:
        mid = strategy.midtune_iterations
        if mid is None:
            mid = cfg.iterations // 2
        if mid > cfg.iterations:
            raise ConfigError(
                f"midtune budget {mid} exceeds total iterations {cfg.iterations}"
            )
        config["strategy"]["midtune_iterations"] = mid
        pool, pool_labels = _aux_pool(src, space)
        rng_aux = np.random.default_rng([cfg.seed, 3])

        def aux_step(p, it, out):
            idx = rng_aux.integers(len(pool), size=cfg.batch_size)
            return loss_and_grad_arrays(
                p, src.X.take(pool[idx], 0), eye.take(pool_labels[idx], 0), out
            )

        cfg1 = replace(cfg, iterations=mid, lr_drop_at=_rescale_drop(cfg, mid))
        rest = cfg.iterations - mid
        cfg2 = replace(cfg, iterations=rest, lr_drop_at=_rescale_drop(cfg, rest))
        trace = _run_sgd(params, cfg1, aux_step) + _run_sgd(params, cfg2, target_step)

    elif kind is StrategyKind.CO_TRAIN:
        pool, pool_labels = _aux_pool(src, space)
        half = cfg.batch_size // 2

        def step(p, it, out):
            ti = rng_batch.integers(len(tgt_X), size=half)
            si = rng_batch.integers(len(pool), size=cfg.batch_size - half)
            X = np.vstack([tgt_X.take(ti, 0), src.X.take(pool[si], 0)])
            labels = np.concatenate([tgt_y[ti], pool_labels[si]])
            return masked_loss_and_grad(p, X, labels, n, half, out)

        trace = _run_sgd(params, cfg, step)

    else:  # pragma: no cover - exhaustive over StrategyKind
        raise ConfigError(f"unknown strategy kind {kind!r}")

    return RunResult(params, trace, evaluate(params, tgt_test), cfg.seed, config)
