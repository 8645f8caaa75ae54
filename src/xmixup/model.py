"""Small feed-forward network with hand-derived gradients and SGD momentum.

The extractor is a stack of fully connected layers with ReLU after every
layer (features are the post-ReLU output of the last one); a linear head
maps features to logits over the unified label space. Everything runs in
64-bit numpy; there is no autodiff anywhere.

All parameters of a model live in one flat buffer (see ModelParams), so the
training loop keeps one gradient buffer and one velocity per run:
backpropagation writes into the gradient buffer and sgd_step updates
velocity and parameters in place, in the rounding order of the out-of-place
formula.

A stack of S models (ModelParams.stack) is one (S, P) buffer: every weight
is an (S, out, in) view and every bias an (S, out) view, and row(s) is model
s. forward_cache, backward_from_dlogits, cross_entropy, masked_dlogits and
sgd_step take a single model or a stack alike, a stack with (S, B, ·)
batches, and run each operation once for the whole stack as batched matmuls
and reductions over the last axes. Each model of a stack gets exactly the
bits it would get alone: numpy computes every matrix of a batched matmul as
its own 2-D product, and the reductions add in the same order. Every model
trained, pretrain included, takes its loss step through stack_loss_and_grad;
loss_and_grad_arrays is that step for one model, as a stack of one.

features, the extractor alone, runs a large batch in the row blocks of
feature_blocks, so a pass over a source split holds its output and one
block's layer outputs, not the split at every layer's width (see
CHUNK_BYTES); it writes its output into an array the caller gives, and a
caller that only reduces the features, as pairing's centroids do, runs
feature_blocks itself and holds one block.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import NumericError, ParseError, check_fields

Layer = tuple[np.ndarray, np.ndarray]  # (W: out x in, b: out)

# The working set of a pass over many rows stays near this many bytes: a
# features pass runs its rows in blocks of it, and analysis stacks its
# probes and spectra in chunks of it. On the default data (bench `pipeline`,
# 7 cells, 2-core x86 VM) 1 MiB chunks raised the process's peak RSS from
# 40.0 to 40.5 MB, where one chunk per probe subset raised it to 41.3 MB;
# the all-but-auxiliary probe then runs as 4 + 3 cells. On `large-source`
# every probe is a chunk of one, and a features pass over the source split
# runs as blocks of 2048 rows.
CHUNK_BYTES = 1 << 20


@dataclass
class TrainConfig:
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    iterations: int = 3000
    lr_drop_at: int = 2000
    lr_drop_factor: float = 0.1
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not 0 <= self.lr_drop_at <= self.iterations:
            raise ValueError("lr_drop_at must be in [0, iterations]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(eq=False)
class ModelParams:
    """Extractor layers plus a linear classification head in one flat buffer.

    `flat` is a float64 vector holding the extractor biases b0, b1, ..., then
    the extractor weights W0, W1, ..., then the head weight and the head bias,
    each row-major. `layers`, `head`, `arrays()` and the two segments
    `extractor` (every extractor parameter) and `weights` (every weight
    matrix, the arrays weight decay applies to) are views into it, so a write
    through any of them is a write to `flat`. The constructor copies the
    given arrays into a new buffer.

    A stack of S models has a (S, P) `flat`, one row per model in the layout
    above; every view then has a leading axis of length S.
    """

    layers: list[Layer]
    head: Layer
    flat: np.ndarray = field(init=False, repr=False)
    extractor: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("extractor must have at least one layer")
        given = self.layers + [self.head]
        prev = self.layers[0][0].shape[1]
        for i, (w, b) in enumerate(given):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: inconsistent shapes {w.shape}, {b.shape}")
            if w.shape[1] != prev:
                raise ValueError(
                    f"layer {i}: fan-in {w.shape[1]} does not chain from {prev}"
                )
            prev = w.shape[0]
        shapes = [w.shape for w, _ in given]
        self._bind(shapes, np.empty(sum(o * i + o for o, i in shapes)))
        for (w, b), (w2, b2) in zip(given, self.layers + [self.head]):
            w2[...] = w
            b2[...] = b

    def _bind(self, shapes: list[tuple[int, int]], flat: np.ndarray) -> None:
        """Point every view at `flat`, laid out as the class docstring says."""
        lead = flat.shape[:-1]
        offset = 0
        biases = []
        for out_dim, _ in shapes[:-1]:
            biases.append(flat[..., offset : offset + out_dim])
            offset += out_dim
        first_weight = offset
        weights = []
        for out_dim, in_dim in shapes:
            size = out_dim * in_dim
            segment = flat[..., offset : offset + size]
            # splitting the unit-stride last axis: a view, never a copy
            weights.append(segment.reshape(lead + (out_dim, in_dim)))
            offset += size
        self.flat = flat
        self.layers = list(zip(weights[:-1], biases))
        self.head = (weights[-1], flat[..., offset:])
        self.extractor = flat[..., : offset - size]
        self.weights = flat[..., first_weight:offset]

    @classmethod
    def _over(cls, template: "ModelParams", flat: np.ndarray) -> "ModelParams":
        """Views over `flat` (not copied) with the shapes of template."""
        params = cls.__new__(cls)
        shapes = [w.shape[-2:] for w, _ in template.layers + [template.head]]
        params._bind(shapes, flat)
        return params

    @staticmethod
    def stack(models: list["ModelParams"]) -> "ModelParams":
        """A stack of copies of equally shaped single models, in order."""
        return ModelParams._over(models[0], np.stack([m.flat for m in models]))

    @property
    def stacked(self) -> bool:
        return self.flat.ndim == 2

    def row(self, s: int) -> "ModelParams":
        """Model s of a stack, as views into the stack's buffer."""
        return ModelParams._over(self, self.flat[s])

    @property
    def d(self) -> int:
        return self.layers[0][0].shape[-1]

    @property
    def feature_width(self) -> int:
        return self.layers[-1][0].shape[-2]

    @property
    def label_count(self) -> int:
        return self.head[0].shape[-2]

    def arrays(self) -> list[np.ndarray]:
        """All parameter arrays in fixed order: W0, b0, ..., W_head, b_head."""
        out = []
        for w, b in self.layers + [self.head]:
            out.extend((w, b))
        return out

    def copy(self) -> "ModelParams":
        return ModelParams._over(self, self.flat.copy())

    @staticmethod
    def zeros_like(p: "ModelParams") -> "ModelParams":
        return ModelParams._over(p, np.zeros_like(p.flat))

    @staticmethod
    def from_arrays(template: "ModelParams", arrays: list[np.ndarray]) -> "ModelParams":
        n = len(template.layers)
        layers = [(arrays[2 * i], arrays[2 * i + 1]) for i in range(n)]
        return ModelParams(layers, (arrays[2 * n], arrays[2 * n + 1]))


def init_linear(out_dim: int, in_dim: int, rng) -> Layer:
    """Glorot-uniform weight matrix and zero bias."""
    s = math.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-s, s, size=(out_dim, in_dim)), np.zeros(out_dim)


def init(d: int, hidden: list[int], label_count: int, seed: int) -> ModelParams:
    """Initialize extractor + head; weights uniform(-s, s) with s = sqrt(6/(fan_in+fan_out))."""
    if not hidden:
        raise ValueError("extractor must have at least one hidden layer")
    widths = [d] + list(hidden)
    if any(w < 1 for w in widths + [label_count]):
        raise ValueError("all layer widths must be >= 1")
    rng = np.random.default_rng(seed)
    layers = [
        init_linear(widths[i + 1], widths[i], rng) for i in range(len(hidden))
    ]
    head = init_linear(label_count, widths[-1], rng)
    return ModelParams(layers, head)


def _rows(b: np.ndarray) -> np.ndarray:
    """A bias that broadcasts over the rows of a batch: (out,) as it is, a
    stack's (S, out) as (S, 1, out)."""
    return b if b.ndim == 1 else b[:, None, :]


def _extract(
    params: ModelParams, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The extractor's output for the rows of x, one new array per layer
    but the last, which is written into `out` when one is given: each
    layer's bias and ReLU are applied in place."""
    last = len(params.layers) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (w, b) in enumerate(params.layers):
            z = np.matmul(x, w.swapaxes(-1, -2), out=out if i == last else None)
            z += _rows(b)
            x = np.maximum(z, 0.0, out=z)
    return x


def feature_blocks(params: ModelParams, n: int) -> Iterator[slice]:
    """The row blocks of a features pass over n rows, in order, as slices:
    CHUNK_BYTES // (8 * widest layer) rows each, the last block also taking
    the rows left over, so fewer than two blocks' rows are one block."""
    step = _block_rows(params)
    starts = range(0, max(n - step + 1, 1), step)
    return map(slice, starts, [*starts[1:], n])


def _block_rows(params: ModelParams) -> int:
    return max(1, CHUNK_BYTES // (8 * max(w.shape[-2] for w, _ in params.layers)))


def features(
    params: ModelParams, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The extractor's output for a single vector (d,) or a batch (N, d); a
    stack takes one batch per model, (S, N, d), or one shared (N, d). The
    output of a batch is written into `out` when one is given.

    A batch runs in the blocks of feature_blocks, each block's last layer
    written straight into the output, so a pass holds its output and the
    other layer outputs of two blocks at a time. Each row gets the bits of
    one pass over the whole batch as long as every block's gemm takes
    BLAS's large-matrix path, as it does on the lab's shapes (tests check
    the block edges). A short tail block would not: OpenBLAS gives a small
    gemm (here, up to about 1200 outputs) a kernel that rounds differently,
    and so it does for a 256-row block of a width-4 layer under a width-512
    one.

    Parameters too large for float64 overflow quietly and raise
    NumericError here, naming the model of a stack in `cell`.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != params.d:
        raise ValueError(f"input dimension {x.shape[-1]} != model d {params.d}")
    if x.ndim == 1 or out is None and x.shape[-2] < 2 * _block_rows(params):
        a = _extract(params, x)
    else:
        n = x.shape[-2]
        if out is None:
            lead = np.broadcast_shapes(x.shape[:-2], params.flat.shape[:-1])
            out = np.empty(lead + (n, params.feature_width))
        for rows in feature_blocks(params, n):
            _extract(params, x[..., rows, :], out[..., rows, :])
        a = out
    if not np.isfinite(a).all():
        message = "non-finite features (diverged parameters?)"
        raise numeric_error(message, a, params.stacked)
    return a


def forward(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (features, logits), with the inputs of features(); non-finite
    logits raise NumericError as non-finite features do."""
    a = features(params, x)
    wh, bh = params.head
    with np.errstate(over="ignore", invalid="ignore"):
        logits = a @ wh.swapaxes(-1, -2) + _rows(bh)
    if not np.isfinite(logits).all():
        message = "non-finite logits (diverged parameters?)"
        raise numeric_error(message, logits, params.stacked)
    return a, logits


def forward_cache(params: ModelParams, X: np.ndarray):
    """Batch forward keeping pre-activations for backprop.

    Returns (activations, preacts, features, logits); activations[i] is the
    input to extractor layer i.
    """
    acts = [np.asarray(X, dtype=float)]
    pres = []
    for w, b in params.layers:
        z = acts[-1] @ w.swapaxes(-1, -2) + _rows(b)
        pres.append(z)
        acts.append(np.maximum(z, 0.0))
    features = acts[-1]
    wh, bh = params.head
    return acts, pres, features, features @ wh.swapaxes(-1, -2) + _rows(bh)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with max subtraction for stability."""
    m = logits.max(axis=-1, keepdims=True)
    shifted = logits - m
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def backward_from_dlogits(
    params: ModelParams, acts, pres, dlogits: np.ndarray, out: ModelParams | None = None
) -> ModelParams:
    """Backpropagate gradients of a scalar loss given d(loss)/d(logits).

    The gradients are written into `out` (a ModelParams shaped like params,
    new when None) and returned.
    """
    if out is None:
        out = ModelParams.zeros_like(params)
    np.matmul(dlogits.swapaxes(-1, -2), acts[-1], out=out.head[0])
    dlogits.sum(axis=-2, out=out.head[1])
    da = dlogits @ params.head[0]
    for i in reversed(range(len(params.layers))):
        dz = da * (pres[i] > 0)
        gw, gb = out.layers[i]
        np.matmul(dz.swapaxes(-1, -2), acts[i], out=gw)
        dz.sum(axis=-2, out=gb)
        if i:
            da = dz @ params.layers[i][0]
    return out


def numeric_error(message: str, values: np.ndarray, stacked: bool) -> NumericError:
    """A NumericError about non-finite `values`; for a stack (values with a
    leading model axis) it carries the index of the first model whose part
    holds one, so the caller can name the cell."""
    cell = None
    if stacked:
        finite = np.isfinite(values.reshape(len(values), -1)).all(axis=1)
        cell = int(finite.argmin())
    return NumericError(message, cell=cell)


def check_soft_labels(P: np.ndarray):
    """P must be finite and non-negative with rows summing to 1 within 1e-9.

    Two comparisons decide the common case; only a failing batch is looked
    at again to name the rule it breaks. A NaN or infinity fails both.
    """
    if P.min() >= -1e-12 and np.abs(P.sum(axis=-1) - 1.0).max() <= 1e-9:
        return
    if not np.isfinite(P).all():
        raise numeric_error("non-finite values in batch", P, True)
    if P.min() < -1e-12:
        raise ValueError("soft labels must be non-negative")
    raise ValueError("soft label rows must sum to 1 within 1e-9")


def loss_and_grad_arrays(
    params: ModelParams, X: np.ndarray, P: np.ndarray
) -> tuple[float, ModelParams]:
    """Soft-target cross-entropy loss and exact gradients of one model for a
    batch X (B, d) with soft labels P (B, L): stack_loss_and_grad on the
    model as a stack of one. Weight decay is *not* part of the loss; the
    optimizer applies it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if params.stacked or X.ndim != 2:
        raise ValueError(f"expected one model and a 2-D batch, got shape {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if X.shape[:-1] != P.shape[:-1]:
        raise ValueError("inputs and labels disagree on batch size")
    if P.shape[-1] != params.label_count:
        raise ValueError(
            f"label width {P.shape[-1]} != head size {params.label_count}"
        )
    one = ModelParams._over(params, params.flat[None])
    loss, grads = stack_loss_and_grad(one, X[None], P[None], None, 0, 0)
    return float(loss[0]), grads.row(0)


def cross_entropy(logits: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The soft-target cross-entropy of each batch of logits, mean_i -sum_k
    P[i,k] * log softmax(logits[i])_k over its rows, and d(loss)/d(logits).
    Every row is computed on its own, so a batch of a stack gets the bits it
    gets alone."""
    logp = log_softmax(logits)
    # the mean as sum / N, negated after: the same bits as -(P * logp)...mean()
    n = logits.shape[-2]
    loss = -(P * logp).sum(axis=-1).sum(axis=-1) / n
    dlogits = np.exp(logp)
    dlogits -= P
    dlogits /= n
    return loss, dlogits


def masked_dlogits(
    logits: np.ndarray, labels: np.ndarray, n_target: int, split: int
) -> tuple[np.ndarray, np.ndarray]:
    """The joint-batch masked loss of each batch of logits and
    d(loss)/d(logits): rows [0, split) softmax over the target logits
    [0, n_target) and the other rows over the source logits [n_target, L),
    each against its hard label, averaged over all rows. Every row is
    computed on its own."""
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
    cross-entropy of P (cross_entropy) and whose other models take the
    masked loss of `labels` (masked_dlogits), with one forward and one
    backward for all of them. X is (S, B, d), P (len(P), B, L) or None when
    no model takes soft labels, and labels (S - len(P), B) or None when none
    takes the masked loss; returns an (S,) array of losses and the
    gradients, written into `out` as in backward_from_dlogits. Every model
    gets the bits of its own loss alone."""
    if not np.isfinite(X).all():
        raise numeric_error("non-finite values in batch", X, True)
    if P is not None:
        check_soft_labels(P)
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


def _cat(arrays: Sequence[np.ndarray]) -> np.ndarray | None:
    """The arrays joined along their first axis; None when there are none."""
    if len(arrays) < 2:
        return arrays[0] if arrays else None
    return np.concatenate(arrays)


def learning_rate(cfg: TrainConfig, iteration: int) -> float:
    """The effective learning rate of step `iteration` under cfg's schedule."""
    return cfg.lr * (cfg.lr_drop_factor if iteration >= cfg.lr_drop_at else 1.0)


def sgd_step(
    params: ModelParams,
    grads: ModelParams,
    velocity: ModelParams,
    cfg: TrainConfig,
    lr,
) -> None:
    """One SGD-with-momentum update of params and velocity, in place, at
    the step's effective learning rate `lr` (learning_rate gives it under
    cfg's schedule): a float, or for a stack an (S, 1) column of one rate
    per model.

    g <- g + weight_decay*w on the weight segment only (biases are not
    decayed; this writes into grads); v <- momentum*v - lr*g; w <- w + v.
    Each line rounds as the out-of-place formula does, so the result is
    bit-identical to it. A stack takes one step for every model; they share
    cfg's momentum and weight decay.
    """
    if not np.isfinite(grads.flat).all():
        raise numeric_error("non-finite gradient", grads.flat, grads.stacked)
    grads.weights += cfg.weight_decay * params.weights
    v = velocity.flat
    v *= cfg.momentum
    v -= lr * grads.flat
    params.flat += v


_CKPT_MAGIC = b"XMIXUP-CKPT-1"


def save_params(params: ModelParams, path) -> None:
    """Write a checkpoint: ASCII shape header, then raw little-endian float64.

    Layout: magic line; layer count; one `out in` line per layer (head last);
    then the arrays of ModelParams.arrays() concatenated row-major. The file
    is a pure function of the parameter values, so round-trips are bit-exact.
    """
    if params.stacked:
        raise ValueError("a checkpoint holds one model, not a stack")
    with atomic_open(path, binary=True) as f:
        f.write(_CKPT_MAGIC + b"\n")
        f.write(f"{len(params.layers)}\n".encode())
        for w, _ in params.layers + [params.head]:
            f.write(f"{w.shape[0]} {w.shape[1]}\n".encode())
        for arr in params.arrays():
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_params(path) -> ModelParams:
    """Read a checkpoint written by save_params. A malformed one is a
    ParseError naming the file: a bad header, layers that do not chain, a
    payload of the wrong size or a non-finite parameter."""
    data = Path(path).read_bytes()
    head, _, rest = data.partition(b"\n")
    if head != _CKPT_MAGIC:
        raise ParseError("not a checkpoint file", line=1, path=path)
    count_line, _, rest = rest.partition(b"\n")
    try:
        n_layers = int(count_line)
    except ValueError:
        raise ParseError("bad layer count", line=2, path=path) from None
    if n_layers < 1:
        raise ParseError(f"need at least one layer, got {n_layers}", line=2, path=path)
    shapes = []
    for i in range(n_layers + 1):
        line, _, rest = rest.partition(b"\n")
        try:
            out_dim, in_dim = (int(v) for v in line.split())
        except ValueError:
            raise ParseError("bad shape line", line=3 + i, path=path) from None
        if out_dim < 1 or in_dim < 1:
            raise ParseError("layer widths must be positive", line=3 + i, path=path)
        if shapes and in_dim != shapes[-1][0]:
            raise ParseError(f"layer {i} does not chain", line=3 + i, path=path)
        shapes.append((out_dim, in_dim))

    try:
        buf = np.frombuffer(rest, dtype="<f8")
    except ValueError:
        raise ParseError("payload is not float64-aligned", path=path) from None
    if buf.size != sum(o * i + o for o, i in shapes):
        raise ParseError("payload size mismatch", path=path)
    if not np.isfinite(buf).all():
        raise ParseError("non-finite parameter", path=path)
    arrays = []  # views into buf; the constructor copies them out
    offset = 0
    for out_dim, in_dim in shapes:
        w = buf[offset : offset + out_dim * in_dim].reshape(out_dim, in_dim)
        offset += out_dim * in_dim
        b = buf[offset : offset + out_dim]
        offset += out_dim
        arrays.extend((w, b))
    layers = [(arrays[2 * i], arrays[2 * i + 1]) for i in range(n_layers)]
    return ModelParams(layers, (arrays[2 * n_layers], arrays[2 * n_layers + 1]))
