"""Fine-tuning strategies: validation, per-strategy post-conditions, the
source-preservation penalty, the joint-batch masked loss, and evaluation.
"""
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import flat, numeric_gradient
from xmixup import training
from xmixup.dataset import Dataset, Domain, split
from xmixup.errors import ConfigError, DataError, NumericError
from xmixup.mixup import CrossDomainPool, MixupConfig
from xmixup.model import (
    ModelParams,
    TrainConfig,
    backward_from_dlogits,
    cross_entropy,
    forward_cache,
    init,
    init_linear,
    learning_rate,
    loss_and_grad_arrays,
    sgd_step,
)
from xmixup.pairing import PairingPlan
from xmixup.training import (
    DRAW_BLOCK,
    NEEDS_MIXUP,
    Cell,
    RunResult,
    Strategy,
    StrategyKind,
    _auxiliary_rows,
    _budget,
    _Context,
    _cotrain,
    _in_domain,
    _index_blocks,
    _mixed,
    _row_plan,
    _Sequential,
    _target_rows,
    evaluate,
    finetune,
    finetune_cells,
    pretrain,
    result_to_json,
    sp_penalty,
    stack_loss_and_grad,
)

MIX = MixupConfig(alpha=2.0, beta=1.0, seed=0)
FAST = TrainConfig(iterations=40, lr_drop_at=30, lr=0.02, batch_size=8, seed=0)


@pytest.fixture(scope="module")
def world(toy_source, toy_target, toy_pretrained, toy_plan):
    tgt, _ = toy_target
    tgt_train, tgt_test = split(tgt, 0.25, seed=3)
    return dict(
        src=toy_source,
        pre=toy_pretrained,
        plan=toy_plan,
        train=tgt_train,
        test=tgt_test,
    )


def train_cells(world, strategies, cfgs, source=True):
    """finetune_cells of the cells (strategy, cfg), whose configs differ
    only in their seeds; with source=False, without source data or plan."""
    src, plan = (world["src"], world["plan"]) if source else (None, None)
    cells = [Cell(s, c.seed, plan) for s, c in zip(strategies, cfgs)]
    return finetune_cells(
        world["pre"], world["train"], src, cells, cfgs[0], world["test"]
    )


def run(world, strategy, cfg=FAST):
    return finetune(
        world["pre"], world["train"], world["src"], world["plan"],
        strategy, cfg, world["test"],
    )


# ---------------------------------------------------------------- validation

def test_strategy_parameter_coupling():
    with pytest.raises(ConfigError):
        Strategy(StrategyKind.L2, mixup=MIX)
    with pytest.raises(ConfigError):
        Strategy(StrategyKind.L2SP)
    with pytest.raises(ConfigError):
        Strategy(StrategyKind.XMIXUP)
    with pytest.raises(ConfigError):
        Strategy(StrategyKind.L2, midtune_iterations=5)
    with pytest.raises(ConfigError):
        Strategy.l2sp(-0.1)
    assert Strategy.l2().kind is StrategyKind.L2
    assert Strategy.seqtrain().midtune_iterations is None
    assert not Strategy.l2().needs_source
    assert Strategy.cotrain().needs_source


def test_source_strategies_require_plan_and_source(world):
    for strat in (Strategy.xmixup(MIX), Strategy.seqtrain(), Strategy.cotrain()):
        with pytest.raises(ConfigError):
            finetune(world["pre"], world["train"], None, None, strat, FAST, world["test"])


def test_finetune_rejects_a_plan_that_misses_a_target_class(world, monkeypatch):
    plan = world["plan"]
    kept = {t: list(srcs) for t, srcs in plan.per_target.items() if t != 0}
    partial = PairingPlan(kept, {t: plan.scores[t] for t in kept}, plan.n_rounds)
    steps = []
    monkeypatch.setattr(training, "sgd_step", lambda *args: steps.append(args))
    with pytest.raises(ConfigError, match=r"plan misses target classes \[0\]"):
        finetune(
            world["pre"], world["train"], world["src"], partial,
            Strategy.xmixup(MIX), FAST, world["test"],
        )
    assert steps == []


def test_finetune_rejects_mismatched_shapes(world):
    wrong_d = Dataset(
        [np.zeros(7), np.ones(7)], [0, 1], world["train"].class_count, Domain.TARGET
    )
    with pytest.raises(ValueError):
        finetune(world["pre"], wrong_d, None, None, Strategy.l2(), FAST, world["test"])
    bad_test = Dataset(
        world["test"].X, world["test"].y, world["test"].class_count + 1, Domain.TARGET
    )
    with pytest.raises(ValueError):
        finetune(world["pre"], world["train"], None, None, Strategy.l2(), FAST, bad_test)
    empty = Dataset(np.empty((0, 4)), [], world["train"].class_count, Domain.TARGET)
    with pytest.raises(DataError):
        finetune(world["pre"], empty, None, None, Strategy.l2(), FAST, world["test"])


# ------------------------------------------------------- strategy behaviors

def test_every_strategy_trains_and_traces(world):
    strategies = [
        Strategy.l2(),
        Strategy.l2sp(0.05),
        Strategy.mixup_indomain(MIX),
        Strategy.xmixup(MIX),
        Strategy.xmixup_nolabel(MIX),
        Strategy.seqtrain(),
        Strategy.cotrain(),
    ]
    for strat in strategies:
        res = run(world, strat)
        assert len(res.trace) == FAST.iterations
        assert 0.0 <= res.accuracy <= 1.0
        assert res.config["strategy"]["kind"] == strat.kind.value
        assert np.all(np.isfinite(res.trace))


def test_head_width_follows_label_space(world):
    n = world["train"].class_count
    aux = len(world["plan"].selected_sources())
    assert run(world, Strategy.l2()).params.label_count == n
    assert run(world, Strategy.mixup_indomain(MIX)).params.label_count == n
    for strat in (Strategy.xmixup(MIX), Strategy.cotrain(), Strategy.seqtrain()):
        assert run(world, strat).params.label_count == n + aux


def test_zero_lr_keeps_the_extractor_at_pretrained(world):
    frozen = TrainConfig(iterations=5, lr_drop_at=5, lr=0.0, batch_size=8, seed=0)
    res = run(world, Strategy.l2(), frozen)
    for (w, b), (w0, b0) in zip(res.params.layers, world["pre"].layers):
        assert np.array_equal(w, w0)
        assert np.array_equal(b, b0)
    # the head is fresh, not the pre-training head
    assert res.params.label_count == world["train"].class_count


def test_l2sp_with_zero_weight_is_exactly_l2(world):
    a = run(world, Strategy.l2())
    b = run(world, Strategy.l2sp(0.0))
    assert all(np.array_equal(x, y) for x, y in zip(a.params.arrays(), b.params.arrays()))
    assert a.trace == b.trace


def test_l2sp_pull_keeps_extractor_closer(world):
    cfg = TrainConfig(iterations=120, lr_drop_at=90, lr=0.05, batch_size=8, seed=0)
    free = run(world, Strategy.l2(), cfg)
    tied = run(world, Strategy.l2sp(1.0), cfg)

    def drift(params):
        return sum(
            float(np.linalg.norm(w - w0) ** 2 + np.linalg.norm(b - b0) ** 2)
            for (w, b), (w0, b0) in zip(params.layers, world["pre"].layers)
        )

    assert drift(tied.params) < drift(free.params)


def test_nolabel_sees_same_inputs_but_learns_differently(world):
    a = run(world, Strategy.xmixup(MIX))
    b = run(world, Strategy.xmixup_nolabel(MIX))
    assert a.params.label_count == b.params.label_count
    assert not all(
        np.array_equal(x, y) for x, y in zip(a.params.arrays(), b.params.arrays())
    )


def test_seqtrain_budget_split(world):
    res = run(world, Strategy.seqtrain())
    assert res.config["strategy"]["midtune_iterations"] == FAST.iterations // 2
    assert len(res.trace) == FAST.iterations
    explicit = run(world, Strategy.seqtrain(midtune_iterations=10))
    assert explicit.config["strategy"]["midtune_iterations"] == 10
    zero = run(world, Strategy.seqtrain(midtune_iterations=0))
    assert len(zero.trace) == FAST.iterations
    with pytest.raises(ConfigError):
        run(world, Strategy.seqtrain(midtune_iterations=FAST.iterations + 1))


def test_a_bad_seqtrain_budget_fails_before_any_stack_trains(world, monkeypatch):
    # the l2 stack comes first in the grid; a budget past the run stops the
    # call before it trains
    real_train, entered = training._train, []

    def counted_train(*args):
        entered.append(args)
        return real_train(*args)

    monkeypatch.setattr(training, "_train", counted_train)
    cells = [Cell(Strategy.l2(), 0, None), Cell(Strategy.seqtrain(41), 0, world["plan"])]
    with pytest.raises(ConfigError, match="midtune budget 41 exceeds"):
        finetune_cells(
            world["pre"], world["train"], world["src"], cells, FAST, world["test"]
        )
    assert entered == []


def source_stack(world, cfg, cells):
    """_train of the (strategy, seed) rows `cells` under cfg, as one stack in
    the plan's label space, with each row's head as finetune_cells draws it;
    returns the stack, its trace and the context."""
    ctx = _Context.of(world["train"], world["src"], world["plan"], cfg.batch_size)
    pre, width = world["pre"], ctx.space.size
    heads = [
        init_linear(width, pre.feature_width, np.random.default_rng([seed, 0]))
        for _, seed in cells
    ]
    stack = ModelParams.stack([ModelParams(pre.layers, h) for h in heads])
    names = [f"row {r}" for r in range(len(cells))]
    return stack, training._train(stack, ctx, cells, cfg, names, pre), ctx


@pytest.mark.parametrize("mid", [0, 15, FAST.iterations])
def test_seqtrain_is_its_first_phase_then_l2_trained_in_place(world, mid):
    # the oracle of the phase switch: seqtrain over its first-phase budget,
    # then l2 over the rest on the same parameters, with a fresh velocity
    # and a fresh schedule
    cfg = replace(FAST, seed=3)
    got = run(world, Strategy.seqtrain(mid), cfg)
    first = [(Strategy.seqtrain(mid), cfg.seed)]
    stack, head, ctx = source_stack(world, _budget(cfg, mid), first)
    rest = _budget(cfg, cfg.iterations - mid)
    tail = training._train(stack, ctx, [(Strategy.l2(), cfg.seed)], rest, ["l2"], None)
    assert stack.flat[0].tobytes() == got.params.flat.tobytes()
    assert np.concatenate([head, tail])[:, 0].tobytes() == np.array(got.trace).tobytes()
    assert evaluate(stack.row(0), world["test"]) == got.accuracy


def test_seqtrain_at_every_budget_edge_rides_a_stack_with_its_lone_bytes(world):
    # budgets 0 and T, which the stack-invariance draws miss, beside a switch
    # mid-run and l2 and xmixup rows of the same seed
    cfg = replace(FAST, seed=3)
    cells = [(Strategy.l2(), 3), (Strategy.xmixup(MIX), 3)] + [
        (Strategy.seqtrain(mid), 3) for mid in (0, 15, cfg.iterations)
    ]
    stack, trace, _ = source_stack(world, cfg, cells)
    for r, cell in enumerate(cells):
        alone, alone_trace, _ = source_stack(world, cfg, [cell])
        assert stack.flat[r].tobytes() == alone.flat[0].tobytes()
        assert trace[:, r].tobytes() == alone_trace[:, 0].tobytes()


def test_finetune_is_deterministic_and_seed_sensitive(world):
    a = run(world, Strategy.xmixup(MIX))
    b = run(world, Strategy.xmixup(MIX))
    c = run(world, Strategy.xmixup(MIX), TrainConfig(
        iterations=40, lr_drop_at=30, lr=0.02, batch_size=8, seed=1
    ))
    assert all(np.array_equal(x, y) for x, y in zip(a.params.arrays(), b.params.arrays()))
    assert a.trace == b.trace
    assert a.trace != c.trace


# ---------------------------------------------------------- stacked cells
# A cell's result must not depend on which cells train in its stack: three
# cells (different seeds and, for the mixing kinds, different alpha) trained
# as one stack must equal each cell trained alone, byte for byte.

STACK_SEEDS = (0, 3, 7)
STACK_ALPHAS = (2.0, 0.5, 16.0)


def stack_cells(kind, beta=1.0):
    if kind is StrategyKind.L2SP:
        strategies = [Strategy.l2sp(0.05)] * 3
    elif kind in (
        StrategyKind.MIXUP_IN_DOMAIN, StrategyKind.XMIXUP, StrategyKind.XMIXUP_NO_LABEL
    ):
        strategies = [
            Strategy(kind, mixup=MixupConfig(alpha=a, beta=beta, seed=1))
            for a in STACK_ALPHAS
        ]
    elif kind is StrategyKind.SEQ_TRAIN:
        strategies = [Strategy.seqtrain(15)] * 3
    else:
        strategies = [Strategy(kind)] * 3
    return strategies, [replace(FAST, seed=s) for s in STACK_SEEDS]


def assert_same_run(a: RunResult, b: RunResult):
    assert a.params.flat.tobytes() == b.params.flat.tobytes()
    assert np.array(a.trace).tobytes() == np.array(b.trace).tobytes()
    assert a.accuracy == b.accuracy
    assert a.seed == b.seed and a.config == b.config


@pytest.mark.parametrize(
    "kind,beta",
    [(kind, 1.0) for kind in StrategyKind]
    + [
        (StrategyKind.XMIXUP, 2.0),          # the gamma-ratio path
        (StrategyKind.XMIXUP_NO_LABEL, 0.5),  # gamma with the boost for shape < 1
        (StrategyKind.MIXUP_IN_DOMAIN, 2.0),
    ],
)
def test_stacked_cells_equal_cells_trained_alone(world, kind, beta):
    strategies, cfgs = stack_cells(kind, beta)
    stacked = train_cells(world, strategies, cfgs)
    assert len(stacked) == 3
    for strategy, cfg, got in zip(strategies, cfgs, stacked):
        assert_same_run(got, run(world, strategy, cfg))
    # the cells do differ, so the comparison above has something to find
    assert stacked[0].trace != stacked[1].trace


def test_a_cell_does_not_depend_on_its_stack_order(world):
    strategies, cfgs = stack_cells(StrategyKind.XMIXUP, 2.0)
    forward = train_cells(world, strategies, cfgs)
    backward = train_cells(world, strategies[::-1], cfgs[::-1])
    for a, b in zip(forward, backward[::-1]):
        assert_same_run(a, b)


@pytest.mark.parametrize("cells", [1, 3])
def test_zero_iterations_leave_empty_traces(world, cells):
    # a lone cell and a stack alike; seqtrain has two empty phases
    cfgs = [replace(FAST, iterations=0, lr_drop_at=0, seed=s) for s in STACK_SEEDS]
    for strategy in (Strategy.l2(), Strategy.seqtrain()):
        results = train_cells(world, [strategy] * cells, cfgs[:cells])
        for res in results:
            assert res.trace == []
            assert res.params.extractor.tobytes() == world["pre"].extractor.tobytes()


def test_a_diverging_cell_is_named_with_its_iteration(world):
    # at alpha = 1e300 every lambda rounds to 1, so the middle cell's first
    # batch fails while its neighbours are fine
    strategies = [
        Strategy.xmixup(MixupConfig(alpha=a, beta=1.0, seed=0))
        for a in (2.0, 1e300, 4.0)
    ]
    cfgs = [replace(FAST, seed=s) for s in STACK_SEEDS]
    named = r"^xmixup seed 3 alpha 1e\+300: iteration 0: "
    with pytest.raises(NumericError, match=named):
        train_cells(world, strategies, cfgs)
    # a diverging learning rate: the first failing check names a cell too
    wild = [replace(c, lr=1e9) for c in cfgs]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"^l2 seed \d: iteration \d+: "):
            train_cells(world, [Strategy.l2()] * 3, wild, source=False)


# ------------------------------------------------ stacks of mixed strategies
# Cells of one label space train as one stack whatever their strategies;
# cells whose batches are the same draws share them.

def test_a_mixed_stack_equals_its_cells_trained_alone(world):
    mix = MixupConfig(alpha=2.0, beta=2.0, seed=1)
    strategies = [
        Strategy.cotrain(),
        Strategy.xmixup(mix),
        Strategy.seqtrain(15),
        Strategy.xmixup_nolabel(mix),
        Strategy.seqtrain(25),  # a second phase switch, and mixed schedules
        Strategy.xmixup(replace(mix, alpha=0.5)),
    ]
    cfgs = [replace(FAST, seed=s) for s in (0, 3, 3, 3, 0, 3)]
    stacked = train_cells(world, strategies, cfgs)
    for strategy, cfg, got in zip(strategies, cfgs, stacked):
        assert_same_run(got, run(world, strategy, cfg))


def test_a_diverging_l2sp_row_of_a_mixed_stack_is_named(world):
    # the huge pull throws the L2SP row off within a few steps; its
    # neighbours of other strategies stay finite
    strategies = [Strategy.l2(), Strategy.l2sp(1e300), Strategy.mixup_indomain(MIX)]
    cfgs = [replace(FAST, seed=3)] * 3
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"^l2sp seed 3: iteration \d+: "):
            train_cells(world, strategies, cfgs, source=False)


def test_a_diverging_cell_is_reported_by_the_callers_index(world):
    # the stack puts l2's row before l2sp's; the error gives l2sp's place in
    # the caller's list, not its row
    strategies = [Strategy.l2sp(1e300), Strategy.l2()]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"^l2sp seed 0: iteration \d+: ") as info:
            train_cells(world, strategies, [FAST] * 2, source=False)
    assert info.value.cell == 0


def test_a_diverging_draw_names_its_first_row_where_rows_share_draws(world):
    # the nolabel row of alpha 2 shares the draw of the xmixup row of alpha 2,
    # so the third draw, alpha 1e300's, is the fourth row's
    strategies = [
        Strategy(kind, mixup=MixupConfig(alpha=a, beta=1.0, seed=0))
        for kind, a in (
            (StrategyKind.XMIXUP, 2.0),
            (StrategyKind.XMIXUP, 3.0),
            (StrategyKind.XMIXUP_NO_LABEL, 2.0),
            (StrategyKind.XMIXUP_NO_LABEL, 1e300),
        )
    ]
    named = r"^xmixup-nolabel seed 3 alpha 1e\+300: iteration 0: "
    with pytest.raises(NumericError, match=named):
        train_cells(world, strategies, [replace(FAST, seed=3)] * 4)


# -------------------------------------------------------- stack invariance
# Any mix of cells of one label space trains, as one stack, to the bytes of
# each cell trained alone: strategies, seeds, alphas, L2-SP weights and
# seqtrain's phase switches drawn at random, duplicates included.

SPACES = (
    (StrategyKind.L2, StrategyKind.L2SP, StrategyKind.MIXUP_IN_DOMAIN),
    (
        StrategyKind.XMIXUP, StrategyKind.XMIXUP_NO_LABEL,
        StrategyKind.SEQ_TRAIN, StrategyKind.CO_TRAIN,
    ),
)
SHORT = replace(FAST, iterations=20, lr_drop_at=15)


@st.composite
def one_space_cells(draw):
    """1 to 8 (strategy, seed) cells of one label space; its mixing cells
    share one beta."""
    kinds, beta = draw(st.sampled_from(SPACES)), draw(st.sampled_from([1.0, 2.0]))
    cells = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=8)):
        if kind is StrategyKind.L2SP:
            strategy = Strategy.l2sp(draw(st.sampled_from([0.01, 1.0])))
        elif kind in NEEDS_MIXUP:
            alpha = draw(st.sampled_from([0.5, 2.0, 8.0]))
            strategy = Strategy(kind, mixup=MixupConfig(alpha=alpha, beta=beta, seed=1))
        elif kind is StrategyKind.SEQ_TRAIN:
            strategy = Strategy.seqtrain(draw(st.sampled_from([None, 5, 15])))
        else:
            strategy = Strategy(kind)
        cells.append((strategy, draw(st.sampled_from([0, 3]))))
    return cells


@pytest.fixture(scope="module")
def lone_run(world):
    """Each (strategy, seed) cell of SHORT trained alone, computed once."""
    runs = {}

    def lone(strategy, seed):
        if (strategy, seed) not in runs:
            runs[strategy, seed] = run(world, strategy, replace(SHORT, seed=seed))
        return runs[strategy, seed]

    return lone


@settings(
    max_examples=50,
    deadline=timedelta(seconds=10),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cells=one_space_cells())
def test_any_stack_of_one_label_space_gives_each_cell_its_lone_bytes(
    world, lone_run, cells
):
    strategies = [strategy for strategy, _ in cells]
    cfgs = [replace(SHORT, seed=seed) for _, seed in cells]
    stacked = train_cells(world, strategies, cfgs)
    for (strategy, seed), got in zip(cells, stacked):
        assert_same_run(got, lone_run(strategy, seed))


# ----------------------------------------------- batch kinds and row plan

@pytest.mark.parametrize(
    "kind, strategy, start, stop",
    [
        (_target_rows, Strategy.l2(), 0, 40),
        (_in_domain, Strategy.mixup_indomain(replace(MIX, beta=2.0)), 0, 40),
        (_mixed, Strategy.xmixup(MIX), 0, 40),
        (_auxiliary_rows, Strategy.seqtrain(15), 0, 15),
        (_Sequential(15), Strategy.seqtrain(15), 0, 40),  # both phases
        (_cotrain, Strategy.cotrain(), 0, 40),
    ],
    ids=["target", "in-domain", "mixed", "auxiliary", "seqtrain", "cotrain"],
)
def test_a_batch_kind_with_one_key_draws_the_batches_of_a_lone_run(
    world, monkeypatch, kind, strategy, start, stop
):
    cfg = replace(FAST, seed=3)
    lone = []

    def record(params, cfg, loss_fn, batch_fn, lrs, resets, cells=None):
        lone.extend(batch_fn() for _ in lrs)
        return np.zeros((cfg.iterations, 1))

    with monkeypatch.context() as patch:
        patch.setattr(training, "_run_stack", record)
        run(world, strategy, cfg)
    plan = world["plan"] if strategy.needs_source else None
    ctx = _Context.of(world["train"], world["src"], plan, cfg.batch_size)
    draw = kind(ctx, [(kind, cfg.seed, strategy.mixup)], stop - start)
    for want in lone[start:stop]:
        for a, b in zip(draw(), want):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_row_plan_maps_rows_to_their_draws():
    mix2, mix3 = MixupConfig(alpha=2.0), MixupConfig(alpha=3.0)
    t0, t1 = (_target_rows, 0, None), (_target_rows, 1, None)
    t2 = (_target_rows, 2, None)
    m2, m3 = (_mixed, 3, mix2), (_mixed, 3, mix3)
    c0, i0 = (_cotrain, 0, None), (_in_domain, 0, mix2)
    # the identity plan: every row its own draw, in row order
    draws, take, relabel = _row_plan([t0, t1, m2], [False] * 3)
    assert draws == [(_target_rows, [t0, t1], [0, 1]), (_mixed, [m2], [2])]
    assert take is None and relabel == []
    # a nolabel row sharing a draw, and cotrain's rows sharing one, last
    draws, take, relabel = _row_plan(
        [m2, m3, m2, m3, c0, c0], [False, False, True, True, False, False]
    )
    assert draws == [(_mixed, [m2, m3], [0, 1]), (_cotrain, [c0], [4])]
    assert [t.tolist() for t in take] == [[0, 1, 0, 1, 2, 2], [0, 1, 0, 1], [0, 0]]
    assert relabel == [2, 3]
    # a kind's later row: the draws join kind by kind, not in row order
    draws, take, relabel = _row_plan([t0, i0, t2], [False] * 3)
    assert draws == [(_target_rows, [t0, t2], [0, 2]), (_in_domain, [i0], [1])]
    assert [t.tolist() for t in take] == [[0, 2, 1], [0, 2, 1], []]
    assert relabel == []


def test_a_lone_kind_without_shared_draws_hands_its_draws_straight_to_sgd(
    world, monkeypatch
):
    # alpha-sweep's shape: no per-step join on the path of a single-kind stack
    seen = []

    def record(params, cfg, loss_fn, batch_fn, lrs, resets, cells=None):
        seen.append(batch_fn)
        return np.zeros((cfg.iterations, len(cells)))

    monkeypatch.setattr(training, "_run_stack", record)
    strategies = [
        Strategy.xmixup(replace(MIX, alpha=a)) for a in (1.0, 2.0, 4.0, 8.0)
    ]
    train_cells(world, strategies, [FAST] * 4)
    (batch_fn,) = seen
    assert batch_fn.__qualname__ == "_mixed.<locals>.draw"


def test_a_finetune_call_builds_one_pool_for_every_source_kind(world, monkeypatch):
    # xmixup's rows draw across seqtrain's phase switch, beside seqtrain's
    # auxiliary then target rows and cotrain's joint rows
    real, built = CrossDomainPool.of, []

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(CrossDomainPool, "of", counted)
    strategies = [Strategy.xmixup(MIX), Strategy.seqtrain(15), Strategy.cotrain()]
    train_cells(world, strategies, [FAST] * 3)
    assert len(built) == 1


BOUNDS = (1, 7, 60, 640, 2**31 + 3, 2**32 - 5)
# cotrain's (target, pool) bound pairs, drawn as one bound per column
COLUMN_BOUNDS = ((1, 2**32 - 5), (2**32 - 5, 1), (7, 60), (2**31 + 3, 640))


@pytest.mark.parametrize("shape", [(1,), (16,), (31,), (32,), (2, 31)])
def test_index_blocks_equal_one_integers_call_per_step(shape):
    # values and generator state, across block boundaries, with several
    # generators at once; a bound of 1 draws nothing, odd sizes leave a half
    # word. A batch of B columns is also drawn as cotrain draws it: its
    # first B // 2 columns below the target bound and the others below the
    # pool bound, in one call against two scalar-bound calls per step.
    cases = [(high, [(high, shape)]) for high in BOUNDS]
    if len(shape) == 1:
        halves = (shape[0] // 2, shape[0] - shape[0] // 2)
        for pair in COLUMN_BOUNDS:
            calls = [(high, (size,)) for high, size in zip(pair, halves)]
            cases.append((np.repeat(pair, halves), calls))
    for steps in (1, DRAW_BLOCK - 1, DRAW_BLOCK + 1, 2 * DRAW_BLOCK + 3):
        for high, calls in cases:
            seeds = [[steps, int(np.max(high)) % 1000, k] for k in range(3)]
            alone = [np.random.default_rng(s) for s in seeds]
            blocked = [np.random.default_rng(s) for s in seeds]
            got = list(_index_blocks(blocked, high, shape, steps))
            assert len(got) == steps
            for step in got:
                want = np.array([
                    np.concatenate([rng.integers(h, size=size) for h, size in calls])
                    for rng in alone
                ])
                assert step.shape == want.shape and np.array_equal(step, want)
            for a, b in zip(alone, blocked):
                assert a.bit_generator.state == b.bit_generator.state


# ------------------------------------------------------------------ pretrain

def test_pretrain_learns_the_source_task(toy_source, toy_pretrained):
    assert evaluate(toy_pretrained, toy_source) > 0.8


def test_pretrain_validation(toy_source):
    one_class = Dataset([np.zeros(4), np.ones(4)], [0, 0], 1, Domain.SOURCE)
    with pytest.raises(ValueError):
        pretrain(one_class, FAST, [6])
    with pytest.raises(DataError):
        pretrain(Dataset(np.empty((0, 4)), [], 3, Domain.SOURCE), FAST, [6])


def test_pretrain_zero_iterations_returns_the_init(toy_source):
    cfg = TrainConfig(iterations=0, lr_drop_at=0, seed=4)
    params = pretrain(toy_source, cfg, [6, 5])
    fresh = init(toy_source.d, [6, 5], toy_source.class_count, seed=4)
    assert all(np.array_equal(a, b) for a, b in zip(params.arrays(), fresh.arrays()))


def test_pretrain_matches_an_unstacked_reference_loop(toy_source):
    # the reference steps one model on 2-D arrays with one integers call a
    # step. Batches of 7 leave a 32-bit half in the generator between steps,
    # 100 steps span two draw blocks, and the learning rate drops halfway.
    cfg = TrainConfig(iterations=100, lr_drop_at=50, lr=0.05, batch_size=7, seed=2)
    got = pretrain(toy_source, cfg, [6, 5])
    X, y = toy_source.X, toy_source.y
    eye = np.eye(toy_source.class_count)
    params = init(toy_source.d, [6, 5], toy_source.class_count, seed=cfg.seed)
    velocity = ModelParams.zeros_like(params)
    rng = np.random.default_rng([cfg.seed, 1])
    for it in range(cfg.iterations):
        idx = rng.integers(len(X), size=cfg.batch_size)
        acts, pres, _, logits = forward_cache(params, X[idx])
        _, dlogits = cross_entropy(logits, eye[y[idx]])
        grads = backward_from_dlogits(params, acts, pres, dlogits)
        sgd_step(params, grads, velocity, cfg, learning_rate(cfg, it))
    assert not params.stacked and got.flat.tobytes() == params.flat.tobytes()


def test_a_diverging_pretrain_names_its_cell_and_iteration(toy_source):
    cfg = TrainConfig(iterations=20, lr_drop_at=20, lr=1e9, batch_size=8)
    with pytest.raises(NumericError, match=r"^pretrain: iteration \d+: non-finite"):
        pretrain(toy_source, cfg, [6, 5])


# ------------------------------------------------------------------ evaluate

def _constant_logit_params(biases):
    # one dead layer: relu(0 x + 0) = 0 features, so logits are just biases
    layer = (np.zeros((2, 2)), np.zeros(2))
    head = (np.zeros((len(biases), 2)), np.asarray(biases, dtype=float))
    return ModelParams([layer], head)


def _two_class_ds(labels):
    return Dataset(np.zeros((len(labels), 2)), labels, 2, Domain.TARGET)


def test_evaluate_ignores_source_logits():
    params = _constant_logit_params([0.1, 0.5, 9.0, 9.0, 9.0])
    ds = _two_class_ds([0, 1, 1, 1])
    assert evaluate(params, ds) == 0.75   # always predicts class 1


def test_evaluate_breaks_ties_toward_lower_index():
    params = _constant_logit_params([0.5, 0.5])
    ds = _two_class_ds([0, 0, 1])
    assert evaluate(params, ds) == pytest.approx(2 / 3)


def test_evaluate_validation():
    params = _constant_logit_params([0.0])
    with pytest.raises(ValueError):
        evaluate(params, _two_class_ds([0, 1]))
    with pytest.raises(DataError):
        evaluate(
            _constant_logit_params([0.0, 0.0]),
            Dataset(np.empty((0, 2)), [], 2, Domain.TARGET),
        )


# ------------------------------------------------- penalties and masked loss

def test_sp_penalty_value_and_gradient():
    ref = init(3, [5, 4], 2, seed=20)
    params = init(3, [5, 4], 2, seed=21)
    mu = 0.3
    value, grads = sp_penalty(params, ref, mu)
    manual = sum(
        float(((w - w0) ** 2).sum() + ((b - b0) ** 2).sum())
        for (w, b), (w0, b0) in zip(params.layers, ref.layers)
    )
    assert value == pytest.approx(mu * manual, rel=1e-12)
    assert sp_penalty(ref, ref, mu)[0] == 0.0
    wh, bh = grads.head
    assert not wh.any() and not bh.any()
    numeric = numeric_gradient(lambda p: sp_penalty(p, ref, mu)[0], params)
    assert np.allclose(flat(grads.arrays()), flat(numeric), atol=1e-6)


def masked_one(params, X, labels, n_target, split):
    """The masked loss and gradients of one model, as a stack of one."""
    one = ModelParams.stack([params])
    loss, grads = stack_loss_and_grad(one, X[None], None, labels[None], n_target, split)
    return loss[0], grads.row(0)


def test_stacked_penalty_and_masked_loss_match_each_model():
    ref = init(3, [5, 4], 5, seed=20)
    models = [init(3, [5, 4], 5, seed=s) for s in (21, 22, 23)]
    stack = ModelParams.stack(models)
    values, grads = sp_penalty(stack, ref, 0.3)
    rng = np.random.default_rng(31)
    X = rng.normal(size=(3, 6, 3))
    labels = np.array([[0, 1, 1, 3, 2, 4]] * 3)
    losses, mgrads = stack_loss_and_grad(stack, X, None, labels, 2, 3)
    for s, model in enumerate(models):
        value, g = sp_penalty(model, ref, 0.3)
        assert np.float64(value).tobytes() == values[s].tobytes()
        assert g.flat.tobytes() == grads.row(s).flat.tobytes()
        loss, mg = masked_one(model, X[s], labels[s], 2, 3)
        assert np.float64(loss).tobytes() == losses[s].tobytes()
        assert mg.flat.tobytes() == mgrads.row(s).flat.tobytes()


@pytest.mark.parametrize(
    "size, soft",
    [(3, 3), (3, 0), (3, 1), (1, 1), (1, 0)],
    ids=["soft", "masked", "mixed", "soft-one", "masked-one"],
)
def test_stack_loss_matches_each_model_alone(size, soft):
    # the stack's first `soft` models take cross-entropy, the others the
    # masked loss; every row is byte for byte that model alone, a stack of
    # one (test_pretrain_matches_an_unstacked_reference_loop ties a stack of
    # one to the unstacked math)
    models = [init(3, [5, 4], 5, seed=s) for s in range(21, 21 + size)]
    stack = ModelParams.stack(models)
    rng = np.random.default_rng(31)
    X = rng.normal(size=(size, 6, 3))
    P = rng.dirichlet(np.ones(5), size=(soft, 6))
    labels = np.array([[0, 1, 1, 3, 2, 4]] * (size - soft))
    losses, grads = stack_loss_and_grad(
        stack, X, P if soft else None, labels if size > soft else None, 2, 3
    )
    assert losses.shape == (size,)
    for s, model in enumerate(models):
        if s < soft:
            loss, g = loss_and_grad_arrays(model, X[s], P[s])
        else:
            loss, g = masked_one(model, X[s], labels[s - soft], 2, 3)
        assert np.float64(loss).tobytes() == losses[s].tobytes()
        assert g.flat.tobytes() == grads.row(s).flat.tobytes()


def test_sp_penalty_validation():
    ref = init(3, [5], 2, seed=0)
    with pytest.raises(ValueError):
        sp_penalty(ref, ref, -0.5)
    with pytest.raises(ValueError):
        sp_penalty(init(3, [4], 2, seed=0), ref, 0.1)


def _masked_case(seed=30):
    rng = np.random.default_rng(seed)
    params = init(3, [6], 5, seed=seed)     # 2 target + 3 source logits
    X = rng.normal(size=(5, 3))
    labels = np.array([0, 1, 2, 4, 3])      # rows 0-1 target, rows 2-4 source
    return params, X, labels


def test_masked_loss_matches_manual_blocks():
    params, X, labels = _masked_case()
    loss, _ = masked_one(params, X, labels, 2, 2)
    _, _, _, logits = forward_cache(params, X)

    def block_nll(z, label):
        z = z - z.max()
        return float(np.log(np.exp(z).sum()) - z[label])

    manual = (
        block_nll(logits[0, :2], 0)
        + block_nll(logits[1, :2], 1)
        + sum(block_nll(logits[r, 2:], labels[r] - 2) for r in (2, 3, 4))
    ) / 5.0
    assert loss == pytest.approx(manual, rel=1e-12)


def test_masked_loss_gradient_check():
    params, X, labels = _masked_case()
    _, analytic = masked_one(params, X, labels, 2, 2)
    numeric = numeric_gradient(
        lambda p: masked_one(p, X, labels, 2, 2)[0], params
    )
    a, n = flat(analytic.arrays()), flat(numeric)
    assert np.linalg.norm(a - n) <= 1e-7 * max(np.linalg.norm(n), 1.0)


def test_masked_loss_degenerate_splits_and_bad_labels():
    params, X, labels = _masked_case()
    loss_all_target, _ = masked_one(params, X[:2], labels[:2], 2, 2)
    assert np.isfinite(loss_all_target)
    loss_all_source, _ = masked_one(params, X[2:], labels[2:], 2, 0)
    assert np.isfinite(loss_all_source)
    with pytest.raises(ValueError):
        masked_one(params, X, labels, 2, 9)
    bad = labels.copy()
    bad[0] = 4   # source label in a target row
    with pytest.raises(ValueError):
        masked_one(params, X, bad, 2, 2)


# ------------------------------------------------------------------- results

def test_run_result_validation():
    with pytest.raises(ValueError):
        RunResult(None, [0.1], 1.2, 0, {})
    with pytest.raises(ValueError):
        RunResult(None, [0.1, 0.2], 0.5, 0, {"train": {"iterations": 3}})


def test_result_to_json_thins_the_trace(world):
    res = run(world, Strategy.l2())
    out = result_to_json(res)
    assert out["accuracy"] == res.accuracy
    assert out["loss_every_100"] == [res.trace[0]]
    assert out["config"]["strategy"]["kind"] == "l2"
