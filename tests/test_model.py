"""Forward pass, analytic gradients, the SGD update rule, and checkpoints.

Expected values marked "precomputed" were produced by an independent plain
numpy transcription of the same formulas (matmul + relu + logsumexp and the
momentum recursion) and are frozen here.
"""
import tracemalloc

import numpy as np
import pytest

from tests.conftest import flat, numeric_gradient
from xmixup.errors import ConfigError, NumericError
from xmixup.model import (
    CHUNK_BYTES,
    ModelParams,
    TrainConfig,
    forward,
    forward_cache,
    features,
    init,
    init_linear,
    learning_rate,
    load_params,
    log_softmax,
    loss_and_grad_arrays,
    save_params,
    sgd_step,
    stack_loss_and_grad,
)
from xmixup.training import _run_stack

GRAD_CHECK_EPS = 1e-6
GRAD_CHECK_TOL = 1e-7
KINK_MARGIN = 1e-3

# precomputed: 2-3-2 net with fixed weights on x=(0.3, -1.2), y=(0.25, 0.75)
FROZEN_HIDDEN = (0.23, 0.0, 0.0)
FROZEN_LOGITS = (0.23, -0.111)
FROZEN_LOSS = 0.7928624234269206

# precomputed: momentum recursion on f(w) = 0.5 (w - w*)^T diag(1,3) (w - w*)
# from w0 = 0, lr=0.2, momentum=0.6
QUAD_W1 = (0.14, -0.24)
QUAD_W2 = (0.336, -0.48)
QUAD_W25 = (0.7002769918317668, -0.40068089217024005)
QUAD_WSTAR = (0.7, -0.4)


def fixed_tiny_net() -> ModelParams:
    w1 = np.array([[0.2, -0.1], [0.4, 0.3], [-0.5, 0.6]])
    b1 = np.array([0.05, -0.02, 0.1])
    w2 = np.array([[1.0, -0.2, 0.3], [-0.7, 0.8, 0.1]])
    b2 = np.array([0.0, 0.05])
    return ModelParams([(w1, b1)], (w2, b2))


def test_forward_matches_frozen_values():
    params = fixed_tiny_net()
    x = np.array([0.3, -1.2])
    features, logits = forward(params, x)
    assert np.allclose(features, FROZEN_HIDDEN, atol=1e-15)
    assert np.allclose(logits, FROZEN_LOGITS, atol=1e-15)


def test_loss_matches_frozen_value():
    params = fixed_tiny_net()
    X = np.array([[0.3, -1.2]])
    P = np.array([[0.25, 0.75]])
    loss, _ = loss_and_grad_arrays(params, X, P)
    assert loss == pytest.approx(FROZEN_LOSS, abs=1e-14)


def test_log_softmax_is_shift_invariant_and_stable():
    z = np.array([[1e4, 1e4 - 3.0], [-1e4, 0.0]])
    lp = log_softmax(z)
    assert np.all(np.isfinite(lp))
    assert np.allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-12)
    shifted = log_softmax(z + 123.456)
    assert np.allclose(lp, shifted, atol=1e-9)


def test_init_is_deterministic_with_glorot_scaled_weights():
    a = init(6, [8, 4], 3, seed=12)
    b = init(6, [8, 4], 3, seed=12)
    assert all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))
    c = init(6, [8, 4], 3, seed=13)
    assert not all(np.array_equal(x, y) for x, y in zip(a.arrays(), c.arrays()))
    (w1, b1) = a.layers[0]
    bound = np.sqrt(6.0 / (6 + 8))
    assert np.abs(w1).max() <= bound
    assert np.array_equal(b1, np.zeros(8))
    assert a.d == 6 and a.feature_width == 4 and a.label_count == 3


def _kink_margin(params, X):
    _, pres, _, _ = forward_cache(params, X)
    return min(float(np.abs(p).min()) for p in pres) if pres else np.inf


@pytest.mark.parametrize("arch", [(3, [5], 2), (4, [6, 5], 3), (2, [4, 3, 3], 4)])
def test_gradients_match_finite_differences(arch):
    d, hidden, k = arch
    rng = np.random.default_rng(31)
    params = init(d, hidden, k, seed=31)
    X = rng.normal(size=(4, d))
    while _kink_margin(params, X) < KINK_MARGIN:  # keep relu kinks out of reach
        X = rng.normal(size=(4, d))
    P = rng.dirichlet(np.ones(k), size=4)
    _, analytic = loss_and_grad_arrays(params, X, P)
    numeric = numeric_gradient(
        lambda p: loss_and_grad_arrays(p, X, P)[0], params, eps=GRAD_CHECK_EPS
    )
    a, n = flat(analytic.arrays()), flat(numeric)
    assert np.linalg.norm(a - n) <= GRAD_CHECK_TOL * max(np.linalg.norm(n), 1.0)


def test_loss_and_grad_rejects_bad_batches():
    params = init(3, [5], 2, seed=1)
    with pytest.raises(ValueError):
        loss_and_grad_arrays(params, np.empty((0, 3)), np.empty((0, 2)))
    with pytest.raises(ValueError):
        loss_and_grad_arrays(params, np.zeros((2, 3)), np.full((2, 3), 1 / 3))
    with pytest.raises(NumericError):
        loss_and_grad_arrays(
            params, np.array([[np.nan, 0, 0]]), np.array([[0.5, 0.5]])
        )
    with pytest.raises(ValueError):  # labels must lie on the simplex
        loss_and_grad_arrays(params, np.zeros((1, 3)), np.array([[0.9, 0.5]]))
    with pytest.raises(ValueError):  # ... with no negative entry
        loss_and_grad_arrays(params, np.zeros((1, 3)), np.array([[1.5, -0.5]]))
    with pytest.raises(NumericError):  # and non-finite labels are numeric errors
        loss_and_grad_arrays(params, np.zeros((1, 3)), np.array([[np.nan, 1.0]]))


def _quadratic_params(w):
    # the 2-vector being optimized lives in the lone extractor layer; the
    # 1x1 head is inert (zero gradient, zero decay in these tests)
    layer = (np.asarray(w, dtype=float).reshape(1, 2), np.zeros(1))
    return ModelParams([layer], (np.zeros((1, 1)), np.zeros(1)))


def _quadratic_grads(w):
    g = np.diag([1.0, 3.0]) @ (np.asarray(w) - np.array(QUAD_WSTAR))
    return ModelParams([(g.reshape(1, 2), np.zeros(1))], (np.zeros((1, 1)), np.zeros(1)))


def test_sgd_momentum_follows_frozen_quadratic_trajectory():
    cfg = TrainConfig(
        lr=0.2, momentum=0.6, weight_decay=0.0, iterations=200, lr_drop_at=200
    )
    params = _quadratic_params([0.0, 0.0])
    velocity = ModelParams.zeros_like(params)
    snaps = {}
    for it in range(200):
        grads = _quadratic_grads(params.layers[0][0].ravel())
        sgd_step(params, grads, velocity, cfg, learning_rate(cfg, it))
        snaps[it + 1] = params.layers[0][0].ravel().copy()
    assert np.allclose(snaps[1], QUAD_W1, atol=1e-15)
    assert np.allclose(snaps[2], QUAD_W2, atol=1e-15)
    assert np.allclose(snaps[25], QUAD_W25, atol=1e-12)
    assert np.allclose(snaps[200], QUAD_WSTAR, atol=1e-6)


def test_sgd_weight_decay_skips_biases():
    params = init(3, [4], 2, seed=5)
    # force nonzero biases so "unchanged" is meaningful
    params.layers[0][1][:] = 0.3
    params.head[1][:] = -0.2
    zero_grads = ModelParams.zeros_like(params)
    velocity = ModelParams.zeros_like(params)
    cfg = TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.5, iterations=10, lr_drop_at=10)
    after = params.copy()  # sgd_step updates in place
    sgd_step(after, zero_grads, velocity, cfg, learning_rate(cfg, 0))
    for (w0, b0), (w1, b1) in zip(
        params.layers + [params.head], after.layers + [after.head]
    ):
        assert np.allclose(w1, w0 * (1 - 0.1 * 0.5), atol=1e-15)
        assert np.array_equal(b1, b0)


def test_sgd_learning_rate_drop_applies_at_boundary():
    cfg = TrainConfig(lr=1.0, momentum=0.0, weight_decay=0.0, iterations=10, lr_drop_at=5)
    params = _quadratic_params([0.0, 0.0])
    velocity = ModelParams.zeros_like(params)
    grads = _quadratic_grads([1.0 + QUAD_WSTAR[0], QUAD_WSTAR[1] + 1.0 / 3.0])
    # each step starts from its own copy of params and velocity: sgd_step
    # updates both in place
    before_drop = params.copy()
    sgd_step(before_drop, grads, velocity.copy(), cfg, learning_rate(cfg, 4))
    after_drop = params.copy()
    sgd_step(after_drop, grads, velocity.copy(), cfg, learning_rate(cfg, 5))
    assert np.allclose(before_drop.layers[0][0], -1.0)
    assert np.allclose(after_drop.layers[0][0], -0.1)


def test_sgd_zero_lr_keeps_params_fixed():
    params = init(3, [4], 2, seed=5)
    grads = ModelParams.from_arrays(params, [np.ones_like(a) for a in params.arrays()])
    cfg = TrainConfig(lr=0.0, momentum=0.9, weight_decay=0.1, iterations=5, lr_drop_at=5)
    after = params.copy()  # sgd_step updates in place
    sgd_step(after, grads, ModelParams.zeros_like(params), cfg, learning_rate(cfg, 0))
    assert all(np.array_equal(a, b) for a, b in zip(params.arrays(), after.arrays()))


def _functional_sgd(arrays, grads, velocity, cfg, iteration):
    """The out-of-place update sgd_step replaced, one array at a time:
    decay on weights (even positions), never on biases."""
    eff_lr = cfg.lr * (cfg.lr_drop_factor if iteration >= cfg.lr_drop_at else 1.0)
    new_w, new_v = [], []
    for i, (w, g, v) in enumerate(zip(arrays, grads, velocity)):
        step_g = g + cfg.weight_decay * w if i % 2 == 0 else g
        v2 = cfg.momentum * v - eff_lr * step_g
        new_v.append(v2)
        new_w.append(w + v2)
    return new_w, new_v


def test_sgd_in_place_steps_are_bit_equal_to_the_functional_formula():
    cfg = TrainConfig(
        lr=0.05, momentum=0.9, weight_decay=0.01, iterations=50, lr_drop_at=25
    )
    params = init(3, [5, 4], 3, seed=7)
    for _, b in params.layers + [params.head]:
        b[:] = np.linspace(-0.3, 0.4, b.size)  # biases that decay would move
    velocity = ModelParams.zeros_like(params)
    ref_w = [a.copy() for a in params.arrays()]
    ref_v = [np.zeros_like(a) for a in ref_w]
    rng = np.random.default_rng(8)
    for it in range(50):
        grads = ModelParams.from_arrays(
            params, [rng.normal(size=a.shape) for a in ref_w]
        )
        ref_w, ref_v = _functional_sgd(
            ref_w, [a.copy() for a in grads.arrays()], ref_v, cfg, it
        )
        sgd_step(params, grads, velocity, cfg, learning_rate(cfg, it))
        for got, want in zip(params.arrays() + velocity.arrays(), ref_w + ref_v):
            assert got.tobytes() == want.tobytes(), it


def test_sgd_rejects_a_non_finite_gradient_before_touching_params():
    params = init(3, [4], 2, seed=5)
    before = params.copy()
    grads = ModelParams.zeros_like(params)
    grads.head[1][0] = np.nan
    cfg = TrainConfig(iterations=5, lr_drop_at=5)
    with pytest.raises(NumericError, match="non-finite gradient"):
        zero = ModelParams.zeros_like(params)
        sgd_step(params, grads, zero, cfg, learning_rate(cfg, 0))
    assert params.flat.tobytes() == before.flat.tobytes()


def test_training_names_the_iteration_of_a_non_finite_gradient():
    params = init(3, [4], 2, seed=5)
    steps = iter(range(10))

    def loss(p, X, out):
        out.flat[:] = np.inf if next(steps) == 3 else 0.0
        return 0.0, out

    def batch():
        return (np.zeros((2, 3)),)

    with pytest.raises(NumericError, match="^iteration 3: non-finite gradient"):
        cfg = TrainConfig(iterations=10, lr_drop_at=10)
        _run_stack(params, cfg, loss, batch, [0.01] * 10, {})


def test_params_views_share_one_flat_buffer():
    params = init(3, [5, 4], 2, seed=3)
    sizes = [a.size for a in params.arrays()]
    assert params.flat.size == sum(sizes)
    for a in params.arrays():
        assert np.shares_memory(a, params.flat)
    # weights: every weight matrix, contiguous; extractor: everything but the head
    assert params.weights.size == sum(sizes[0::2])
    assert params.extractor.size == sum(sizes[:-2])
    params.weights[:] = 1.0
    assert all(np.all(w == 1.0) for w, _ in params.layers + [params.head])
    assert not any(b.any() for _, b in params.layers + [params.head])
    # construction copies, so the source arrays stay independent
    w = np.ones((2, 3))
    built = ModelParams([(w, np.zeros(2))], (np.ones((1, 2)), np.zeros(1)))
    w[:] = 5.0
    assert np.all(built.layers[0][0] == 1.0)


def test_a_stack_is_one_buffer_of_model_rows():
    models = [init(3, [5, 4], 2, seed=s) for s in (1, 2, 3)]
    stack = ModelParams.stack(models)
    assert stack.stacked and stack.flat.shape == (3, models[0].flat.size)
    assert stack.layers[0][0].shape == (3, 5, 3)
    assert stack.head[1].shape == (3, 2)
    assert (stack.d, stack.feature_width, stack.label_count) == (3, 4, 2)
    for a in stack.arrays() + [stack.weights, stack.extractor]:
        assert np.shares_memory(a, stack.flat)
    for s, model in enumerate(models):
        row = stack.row(s)
        assert not row.stacked
        assert row.flat.tobytes() == model.flat.tobytes()
        assert np.shares_memory(row.flat, stack.flat)
        assert all(np.array_equal(a, b) for a, b in zip(row.arrays(), model.arrays()))
    stack.weights[1] = 0.0  # a write through a stacked view lands in row 1 only
    assert not stack.row(1).layers[0][0].any() and stack.row(0).layers[0][0].any()
    with pytest.raises(ValueError):
        save_params(stack, "unused.ckpt")


def test_stacked_step_is_bit_equal_to_each_model_alone():
    models = [init(3, [6, 5], 4, seed=s) for s in (4, 5, 6)]
    stack = ModelParams.stack(models)
    rng = np.random.default_rng(9)
    X = rng.normal(size=(3, 8, 3))
    P = rng.dirichlet(np.ones(4), size=(3, 8))
    losses, grads = stack_loss_and_grad(stack, X, P, None, 0, 0)
    before_step = grads.flat.copy()  # sgd_step adds the decay into grads
    cfg = TrainConfig(
        lr=0.05, momentum=0.9, weight_decay=0.01, iterations=3, lr_drop_at=3
    )
    sgd_step(stack, grads, ModelParams.zeros_like(stack), cfg, learning_rate(cfg, 0))
    _, logits = forward(stack, X)
    assert losses.shape == (3,)
    for s, model in enumerate(models):
        loss, g = loss_and_grad_arrays(model, X[s], P[s])
        assert np.float64(loss).tobytes() == losses[s].tobytes()
        assert g.flat.tobytes() == before_step[s].tobytes()
        sgd_step(model, g, ModelParams.zeros_like(model), cfg, learning_rate(cfg, 0))
        assert model.flat.tobytes() == stack.row(s).flat.tobytes()
        assert forward(model, X[s])[1].tobytes() == logits[s].tobytes()


def test_stacked_checks_name_the_failing_model():
    models = [init(3, [4], 2, seed=s) for s in (1, 2, 3)]
    stack = ModelParams.stack(models)
    X = np.zeros((3, 2, 3))
    P = np.full((3, 2, 2), 0.5)
    bad = X.copy()
    bad[1, 0, 2] = np.nan
    with pytest.raises(NumericError, match="non-finite values in batch") as info:
        stack_loss_and_grad(stack, bad, P, None, 0, 0)
    assert info.value.cell == 1
    stack.row(2).head[1][:] = np.inf  # logits of model 2 only
    with pytest.raises(NumericError, match="non-finite logits") as info:
        stack_loss_and_grad(stack, X + 1.0, P, None, 0, 0)
    assert info.value.cell == 2
    grads = ModelParams.zeros_like(stack)
    grads.flat[0, -1] = np.nan
    with pytest.raises(NumericError, match="non-finite gradient") as info:
        cfg = TrainConfig()
        sgd_step(stack, grads, ModelParams.zeros_like(stack), cfg, learning_rate(cfg, 0))
    assert info.value.cell == 0


def test_training_names_the_cell_of_a_stacked_failure():
    stack = ModelParams.stack([init(3, [4], 2, seed=s) for s in (1, 2, 3)])

    steps = iter(range(10))

    def loss(p, X, out):
        assert X.shape == (3, 2, 3)
        out.flat[:] = 0.0
        if next(steps) == 3:
            out.flat[2, 0] = np.inf
        return np.zeros(3), out

    def batch():
        return (np.zeros((3, 2, 3)),)

    with pytest.raises(NumericError, match="^c2: iteration 3: non-finite gradient"):
        cfg = TrainConfig(iterations=10, lr_drop_at=10)
        _run_stack(stack, cfg, loss, batch, [0.01] * 10, {}, ["c0", "c1", "c2"])


def test_training_names_the_cell_of_a_non_finite_loss_no_check_reads():
    # L2-SP's penalty joins the loss after every check: a run whose penalty
    # overflows trains on, then stops at the end, naming where it diverged
    stack = ModelParams.stack([init(3, [4], 2, seed=s) for s in (1, 2, 3)])
    steps = iter(range(10))

    def loss(p, X, out):
        out.flat[:] = 0.0
        at = next(steps)
        return np.array([0.0, np.inf if at >= 6 else 0.0, np.inf if at >= 4 else 0.0]), out

    def batch():
        return (np.zeros((3, 2, 3)),)

    with pytest.raises(NumericError, match="^c2: iteration 4: non-finite loss") as info:
        cfg = TrainConfig(iterations=10, lr_drop_at=10)
        _run_stack(stack, cfg, loss, batch, [0.01] * 10, {}, ["c0", "c1", "c2"])
    assert info.value.cell == 2
    assert next(steps, None) is None  # every iteration ran


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lr=-0.1),
        dict(momentum=1.0),
        dict(momentum=-0.1),
        dict(weight_decay=-1e-4),
        dict(iterations=-1),
        dict(iterations=10, lr_drop_at=11),
        dict(batch_size=0),
        dict(seed=-1),
    ],
)
def test_train_config_validation(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [dict(batch_size=2.5), dict(iterations=True), dict(seed="0"), dict(lr=None)],
)
def test_train_config_rejects_badly_typed_fields(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


def test_train_config_allows_zero_budget():
    cfg = TrainConfig(lr=0.0, iterations=0, lr_drop_at=0)
    assert cfg.iterations == 0


def test_init_linear_shapes():
    w, b = init_linear(4, 7, np.random.default_rng(0))
    assert w.shape == (4, 7)
    assert np.array_equal(b, np.zeros(4))


def test_checkpoint_round_trip_is_exact(tmp_path):
    params = init(5, [7, 6], 4, seed=9)
    path = tmp_path / "model.ckpt"
    save_params(params, path)
    back = load_params(path)
    assert all(
        np.array_equal(a, b) for a, b in zip(params.arrays(), back.arrays())
    )
    # byte-stable: saving the loaded params reproduces the file
    again = tmp_path / "model2.ckpt"
    save_params(back, again)
    assert path.read_bytes() == again.read_bytes()


def test_checkpoint_rejects_foreign_or_truncated_files(tmp_path):
    from xmixup.errors import ParseError

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ParseError):
        load_params(bad)
    params = init(3, [4], 2, seed=0)
    good = tmp_path / "good.ckpt"
    save_params(params, good)
    clipped = tmp_path / "clipped.ckpt"
    clipped.write_bytes(good.read_bytes()[:-7])
    with pytest.raises(ParseError):
        load_params(clipped)


# The default extractor: rows of width 4 through layers of 64 and 32, so a
# features pass runs in blocks of CHUNK_BYTES // (8 * 64) rows.
BLOCK = CHUNK_BYTES // (8 * 64)


def one_pass_features(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The extractor over every row at once, each layer out of place."""
    a = x
    for w, b in params.layers:
        b = b if b.ndim == 1 else b[:, None, :]
        a = np.maximum(a @ w.swapaxes(-1, -2) + b, 0.0)
    return a


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_blocked_features_are_the_bytes_of_one_pass(n):
    models = [init(4, [64, 32], 6, seed=s) for s in (1, 2, 3)]
    stack = ModelParams.stack(models)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 4))
    xs = rng.normal(size=(3, n, 4))
    got = features(models[0], x)
    assert got.shape == (n, 32)
    assert got.tobytes() == one_pass_features(models[0], x).tobytes()
    for inputs in (x, xs):  # one batch for every model, and one batch each
        want = one_pass_features(stack, inputs)
        assert features(stack, inputs).tobytes() == want.tobytes()


def test_a_features_pass_holds_its_output_and_two_blocks():
    params = init(4, [64, 32], 6, seed=0)
    x = np.random.default_rng(0).normal(size=(4 * BLOCK, 4))
    tracemalloc.start()
    try:
        out = features(params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one pass over the rows held two arrays of 4 * BLOCK x 64
    assert peak < out.nbytes + 2 * (BLOCK * 64 * 8)


def test_a_blocked_pass_names_the_first_model_with_a_non_finite_feature():
    # model 0's only bad row is in the last block, model 1's in the first:
    # the check covers the whole pass, so it names model 0
    stack = ModelParams.stack([init(4, [64, 32], 6, seed=s) for s in (1, 2, 3)])
    xs = np.random.default_rng(4).normal(size=(3, 2 * BLOCK + 3, 4))
    xs[0, -1], xs[1, 0] = np.inf, np.nan
    with pytest.raises(NumericError, match="non-finite features") as info:
        features(stack, xs)
    assert info.value.cell == 0
