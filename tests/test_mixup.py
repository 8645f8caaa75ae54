"""Beta sampling, the unified label space, and cross-domain batch mixing."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from xmixup.dataset import Dataset, Domain, gen_source, gen_target
from xmixup.errors import DataError, NumericError
from xmixup.mixup import (
    MAX_BETA_DRAWS,
    SHAPE_GRID,
    BetaSampler,
    CrossDomainPool,
    LabelSpace,
    MixupConfig,
    _Gamma,
    _paired_table,
    blend,
    make_batch,
    sample_beta,
    sample_gamma,
)
from xmixup.pairing import PairingPlan

ALPHA_GRID = tuple(dict.fromkeys(a for a, _ in SHAPE_GRID))
BETA_GRID = tuple(dict.fromkeys(b for _, b in SHAPE_GRID))


def beta_raw_moment(a: float, b: float, k: int) -> float:
    value = 1.0
    for r in range(k):
        value *= (a + r) / (a + b + r)
    return value


@pytest.mark.parametrize("alpha", ALPHA_GRID)
@pytest.mark.parametrize("beta", BETA_GRID)
def test_sample_beta_stays_in_open_interval(alpha, beta):
    cfg = MixupConfig(alpha=alpha, beta=beta, seed=0)
    rng = np.random.default_rng([5, int(alpha * 100), int(beta * 100)])
    draws = np.array([sample_beta(cfg, rng) for _ in range(2000)])
    assert np.all(draws > 0.0)
    assert np.all(draws < 1.0)


@pytest.mark.parametrize("alpha", ALPHA_GRID)
@pytest.mark.parametrize("beta", BETA_GRID)
def test_sample_beta_moments_match_closed_form(alpha, beta):
    n = 20_000
    cfg = MixupConfig(alpha=alpha, beta=beta, seed=0)
    rng = np.random.default_rng([6, int(alpha * 100), int(beta * 100)])
    x = np.array([sample_beta(cfg, rng) for _ in range(n)])
    mean = beta_raw_moment(alpha, beta, 1)
    var = beta_raw_moment(alpha, beta, 2) - mean**2
    assert abs(x.mean() - mean) < 4.0 * np.sqrt(var / n)
    m3, m4 = (beta_raw_moment(alpha, beta, k) for k in (3, 4))
    mu4 = m4 - 4 * m3 * mean + 6 * beta_raw_moment(alpha, beta, 2) * mean**2 - 3 * mean**4
    assert abs(x.var() - var) < 4.0 * np.sqrt(max(mu4 - var * var, 0.0) / n)


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_beta_one_uses_exact_power_law(alpha):
    # Beta(a, 1) has CDF t^a; the inverse-CDF branch must sample exactly that
    cfg = MixupConfig(alpha=alpha, beta=1.0, seed=0)
    rng = np.random.default_rng([7, int(alpha * 100)])
    x = np.array([sample_beta(cfg, rng) for _ in range(4000)])
    stat = stats.kstest(x, lambda t: np.clip(t, 0.0, 1.0) ** alpha).statistic
    assert stat < 1.628 * np.sqrt(1.0 / 4000)


@pytest.mark.parametrize("shape", [0.4, 1.0, 2.5, 7.0])
def test_sample_gamma_matches_reference_distribution(shape):
    rng = np.random.default_rng([8, int(shape * 10)])
    x = np.array([sample_gamma(shape, rng) for _ in range(4000)])
    assert np.all(x > 0)
    stat = stats.kstest(x, stats.gamma(shape).cdf).statistic
    assert stat < 1.628 * np.sqrt(1.0 / 4000)


def test_sample_beta_is_deterministic_per_rng_state():
    cfg = MixupConfig(alpha=2.0, beta=0.5, seed=0)
    a = [sample_beta(cfg, np.random.default_rng(3)) for _ in range(1)]
    b = [sample_beta(cfg, np.random.default_rng(3)) for _ in range(1)]
    assert a == b


@pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
def test_mixup_config_rejects_non_positive_shapes(alpha, beta):
    with pytest.raises(ValueError):
        MixupConfig(alpha=alpha, beta=beta, seed=0)


@pytest.mark.parametrize("shape", [0.0, -1.0, float("nan")])
def test_sample_gamma_rejects_non_positive_shapes(shape):
    with pytest.raises(ValueError):
        sample_gamma(shape, np.random.default_rng(0))


@pytest.mark.parametrize("beta", [1.0, 2.0])  # inverse-CDF and gamma-ratio paths
def test_sample_beta_gives_up_when_every_draw_rounds_to_one(beta):
    # at alpha = 1e300 every lambda rounds to exactly 1.0 and is redrawn
    cfg = MixupConfig(alpha=1e300, beta=beta, seed=0)
    with pytest.raises(NumericError):
        sample_beta(cfg, np.random.default_rng(0))


# ------------------------------------------------- the batched sampler
# The oracles of criterion 4 and of the scalar tests above, with criterion
# 4's sample sizes, levels and seeds, applied to BetaSampler and its
# batched Gamma kernel _Gamma, which training uses.


def test_sample_beta_batch_moments_within_three_standard_errors():
    n = 100_000
    for a, b in SHAPE_GRID:
        cfg = MixupConfig(alpha=a, beta=b, seed=0)
        rng = np.random.default_rng([17, int(a * 100), int(b * 100)])
        x = BetaSampler([cfg], n)([rng])[0]
        m1, m2, m3, m4 = (beta_raw_moment(a, b, k) for k in (1, 2, 3, 4))
        mean, var = m1, m2 - m1 * m1
        mu4 = m4 - 4 * m3 * m1 + 6 * m2 * m1**2 - 3 * m1**4
        assert abs(x.mean() - mean) <= 3.0 * np.sqrt(var / n), (a, b)
        assert abs(x.var() - var) <= 3.0 * np.sqrt(max(mu4 - var * var, 0.0) / n)


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_sample_beta_batch_paths_agree_in_distribution(alpha):
    # the inverse-CDF path (beta = 1) against the gamma ratio built from
    # _Gamma at shapes (alpha, 1): two-sample KS at the 1% level
    m = 10_000
    cfg = MixupConfig(alpha=alpha, beta=1.0, seed=0)
    rng1 = np.random.default_rng([23, int(alpha * 100), 1])
    rng2 = np.random.default_rng([23, int(alpha * 100), 2])
    inverse_cdf = BetaSampler([cfg], m)([rng1])[0]
    g = _Gamma(np.repeat((alpha, 1.0), m), [2 * m])([rng2])
    ratio = g[:m] / (g[:m] + g[m:])
    assert stats.ks_2samp(inverse_cdf, ratio).statistic < 1.628 * np.sqrt(2.0 / m)


def test_sample_gamma_batch_matches_reference_distribution():
    # one call over mixed shapes: the boost must reach exactly the shapes < 1
    shapes = (0.4, 1.0, 2.5, 7.0)
    m = 4000
    x = _Gamma(np.repeat(shapes, m), [len(shapes) * m])([np.random.default_rng(33)])
    assert np.all(x > 0)
    for i, shape in enumerate(shapes):
        stat = stats.kstest(x[i * m : (i + 1) * m], stats.gamma(shape).cdf).statistic
        assert stat < 1.628 * np.sqrt(1.0 / m), shape


@pytest.mark.parametrize("alpha,beta", SHAPE_GRID + ((1e-3, 1e-3), (1e-3, 1.0)))
def test_sample_beta_batch_stays_in_open_interval(alpha, beta):
    # at shape 1e-3 about half of the draws (U^1000 or the gamma boost)
    # underflow to 0, so many lambdas are 0, 1 or 0/0 and must be redrawn
    cfg = MixupConfig(alpha=alpha, beta=beta, seed=0)
    rng = np.random.default_rng([37, int(alpha * 1000)])
    x = BetaSampler([cfg], 5000)([rng])
    assert x.shape == (1, 5000)
    assert np.all(x > 0.0) and np.all(x < 1.0)


@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_sample_beta_batch_is_deterministic_per_rng_state(beta):
    cfg = MixupConfig(alpha=2.0, beta=beta, seed=0)
    a = BetaSampler([cfg], 64)([np.random.default_rng(3)])
    b = BetaSampler([cfg], 64)([np.random.default_rng(3)])
    assert np.array_equal(a, b)
    c = BetaSampler([cfg], 64)([np.random.default_rng(4)])
    assert not np.array_equal(a, c)


class CountingRng:
    """A Generator stand-in that counts the uniform draws asked of it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.random_calls = 0

    def random(self, size=None):
        self.random_calls += 1
        return self.rng.random(size)

    def standard_normal(self, size=None):
        return self.rng.standard_normal(size)


@pytest.mark.parametrize("beta", [1.0, 2.0])  # inverse-CDF and gamma-ratio paths
def test_sample_beta_batch_gives_up_after_max_draws(beta):
    # at alpha = 1e300 every lambda rounds to exactly 1.0 and is redrawn;
    # the inverse-CDF path asks for one uniform array per draw
    cfg = MixupConfig(alpha=1e300, beta=beta, seed=0)
    rng = CountingRng(0)
    with pytest.raises(NumericError):
        BetaSampler([cfg], 8)([rng])
    if beta == 1.0:
        assert rng.random_calls == MAX_BETA_DRAWS


def test_sample_beta_batch_rejects_an_empty_request():
    with pytest.raises(ValueError):
        BetaSampler([MixupConfig()], 0)([np.random.default_rng(0)])


def test_label_space_indexing():
    space = LabelSpace(3, (2, 5, 7))
    assert space.size == 6
    assert space.source_columns.tolist() == [-1, -1, 3, -1, -1, 4, -1, 5]
    assert LabelSpace(3, ()).source_columns.size == 0
    with pytest.raises(ValueError):
        LabelSpace(0, (2,))
    with pytest.raises(ValueError):
        LabelSpace(3, (5, 2))
    with pytest.raises(ValueError):
        LabelSpace(3, (2, 2))


def test_label_spaces_compare_and_hash_by_value():
    space = LabelSpace(3, (1, 4))
    assert space == LabelSpace(3, [1, 4])
    assert hash(space) == hash(LabelSpace(3, (1, 4)))
    assert space != LabelSpace(3, (1, 5))
    assert space != LabelSpace(4, (1, 4))
    assert len({space, LabelSpace(3, (1, 4)), LabelSpace(3, ())}) == 2


@pytest.fixture(scope="module")
def mix_world():
    src = gen_source(6, 8, 3, 0.4, seed=10)
    tgt, _ = gen_target(src, [0, 2], 0, 8, 0.1, seed=11)
    plan = PairingPlan(
        {0: [0, 4], 1: [2]},
        {0: [0.9, 0.4], 1: [0.8]},
        2,
        False,
    )
    return src, tgt, plan


def reference_batch(tgt, src, plan, space, cfg, batch_size, rng):
    """Row-at-a-time mixing from make_batch's draws, each one array per
    batch: the target rows, then each row's round of the plan, then a
    sample of that source class, then the lambda column. The integer draws
    are taken with the per-row bounds the loop computes; each row and its
    one-hot labels are then blended."""
    by_class = src.indices_by_class()
    rows = rng.integers(len(tgt), size=batch_size)
    paired = [plan.per_target[int(tgt.y[i])] for i in rows]
    rounds = rng.integers([len(p) for p in paired])
    pools = [by_class[p[r]] for p, r in zip(paired, rounds)]
    picks = rng.integers([len(pool) for pool in pools])
    lams = BetaSampler([cfg], batch_size)([rng])[0]
    xs, ps = [], []
    for i, pool, k, lam in zip(rows, pools, picks, lams.tolist()):
        t = int(tgt.y[i])
        j = int(pool[k])
        y_t = np.zeros(space.size)
        y_t[t] = 1.0
        y_s = np.zeros(space.size)
        y_s[space.n_target + space.source_classes.index(int(src.y[j]))] = 1.0
        xs.append(lam * tgt.X[i] + (1.0 - lam) * src.X[j])
        ps.append(lam * y_t + (1.0 - lam) * y_s)
    return np.stack(xs), np.stack(ps)


def mix_space(tgt, plan):
    return LabelSpace(tgt.class_count, tuple(plan.selected_sources()))


def test_mix_convex_combination(mix_world):
    # the gathered batch is bit-for-bit the per-row convex combination,
    # from the same draws taken in the same order
    src, tgt, plan = mix_world
    one_each = PairingPlan({0: [0], 1: [2]}, {0: [0.9], 1: [0.8]}, 1, False)
    for plan, (alpha, beta) in zip(
        (plan, plan, plan, one_each), ((2.0, 1.0), (2.0, 2.0), (0.5, 0.5), (2.0, 2.0))
    ):
        space = mix_space(tgt, plan)
        cfg = MixupConfig(alpha=alpha, beta=beta, seed=0)
        rng_a, rng_b = np.random.default_rng(15), np.random.default_rng(15)
        pool = CrossDomainPool.of(tgt, src, plan)
        for _ in range(20):
            X, P = make_batch(pool, BetaSampler([cfg], 8), [rng_a])
            X_ref, P_ref = reference_batch(tgt, src, plan, space, cfg, 8, rng_b)
            assert np.array_equal(X[0], X_ref)
            assert np.array_equal(P[0], P_ref)
        assert _same_state(rng_a, rng_b)


def test_mix_validates_inputs(mix_world):
    src, tgt, plan = mix_world
    wide = Dataset(np.hstack([src.X, src.X]), src.y, src.class_count, Domain.SOURCE)
    with pytest.raises(ValueError):
        CrossDomainPool.of(tgt, wide, plan)


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(min_value=0.1, max_value=50.0),
    beta=st.floats(min_value=0.1, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mix_outputs_stay_on_the_label_simplex(mix_world, alpha, beta, seed):
    src, tgt, plan = mix_world
    lam = BetaSampler([MixupConfig(alpha=alpha, beta=beta, seed=0)], 16)
    rng = np.random.default_rng(seed)
    pool = CrossDomainPool.of(tgt, src, plan)
    _, P = make_batch(pool, lam, [rng])
    assert P.min() >= 0.0
    assert np.allclose(P.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_draw_auxiliary_only_uses_planned_classes(mix_world):
    # the auxiliary source class of each row comes only from the classes
    # paired to that row's target class, over all rounds
    src, tgt, plan = mix_world
    cfg = MixupConfig(alpha=2.0, beta=1.0, seed=0)
    space = mix_space(tgt, plan)
    rng = np.random.default_rng(12)

    def aux_classes(target_class, batch_size, which_plan=plan):
        keep = tgt.y == target_class
        only = Dataset(tgt.X[keep], tgt.y[keep], tgt.class_count, Domain.TARGET)
        lam = BetaSampler([cfg], batch_size)
        _, P = make_batch(CrossDomainPool.of(only, src, which_plan), lam, [rng])
        cols = np.argmax(P[0, :, space.n_target :], axis=1)
        return {space.source_classes[c] for c in cols.tolist()}

    assert aux_classes(0, 200) == {0, 4}  # both rounds contribute
    assert aux_classes(1, 50) == {2}
    unknown = PairingPlan({1: [2]}, {1: [0.8]}, 1, False)
    with pytest.raises(KeyError):  # target class 0 is not in the plan
        aux_classes(0, 4, unknown)


def test_make_batch_shapes_and_label_structure(mix_world):
    src, tgt, plan = mix_world
    cfg = MixupConfig(alpha=2.0, beta=1.0, seed=0)
    space = mix_space(tgt, plan)
    rng = np.random.default_rng(13)
    seen = {t: set() for t in plan.per_target}
    pool = CrossDomainPool.of(tgt, src, plan)
    for _ in range(10):
        X, P = make_batch(pool, BetaSampler([cfg], 32), [rng])
        assert X.shape == (1, 32, 3)
        assert P.shape == (1, 32, space.size)
        for row in P[0]:
            nz = np.nonzero(row)[0]
            assert len(nz) == 2
            t, s_pos = int(nz[0]), int(nz[1])
            assert t < tgt.class_count <= s_pos < space.size
            src_cls = space.source_classes[s_pos - tgt.class_count]
            assert src_cls in plan.per_target[t]
            seen[t].add(src_cls)
            assert row[t] + row[s_pos] == pytest.approx(1.0, abs=1e-12)
            assert 0.0 < row[t] < 1.0
    assert seen == {0: {0, 4}, 1: {2}}  # both rounds contribute


def test_make_batch_is_deterministic(mix_world):
    src, tgt, plan = mix_world
    lam = BetaSampler([MixupConfig(alpha=1.0, beta=2.0, seed=0)], 8)
    pool = CrossDomainPool.of(tgt, src, plan)
    a = make_batch(pool, lam, [np.random.default_rng(14)])
    b = make_batch(pool, lam, [np.random.default_rng(14)])
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_make_batch_rejects_empty_or_silly_inputs(mix_world):
    src, tgt, plan = mix_world
    cfg = MixupConfig(alpha=1.0, beta=1.0, seed=0)
    empty = Dataset(np.empty((0, 3)), [], tgt.class_count, Domain.TARGET)
    pool = CrossDomainPool.of(tgt, src, plan)
    lam, rng = BetaSampler([cfg], 4), [np.random.default_rng(0)]
    with pytest.raises(DataError):
        CrossDomainPool.of(empty, src, plan)
    with pytest.raises(ValueError):  # no rows to draw
        make_batch(pool, BetaSampler([cfg], 0), rng)
    with pytest.raises(ValueError):  # one config per generator
        make_batch(pool, lam, _generators((1, 2)))
    partial = PairingPlan({0: [0, 4]}, {0: [0.9, 0.4]}, 2, False)
    with pytest.raises(KeyError):  # target class 1 has no paired source
        pool = CrossDomainPool.of(tgt, src, partial)
        make_batch(pool, BetaSampler([cfg], 32), rng)


def test_a_pool_rejects_a_paired_source_class_with_no_rows(mix_world):
    src, tgt, plan = mix_world
    keep = src.y != 4  # source class 4, paired to target 0, loses its rows
    gap = Dataset(src.X[keep], src.y[keep], src.class_count, Domain.SOURCE)
    with pytest.raises(DataError, match="source class 4 has no samples"):
        CrossDomainPool.of(tgt, gap, plan)


def test_blend_is_the_dense_mixup_rule_bit_for_bit():
    # the dense rule: λ·eye[a] + (1−λ)·eye[b] and λ·Xa + (1−λ)·Xb, on
    # stacked (S, B) rows, some of them in-domain pairs of one class
    rng = np.random.default_rng(21)
    S, B, d, width = 3, 40, 5, 7
    lam = rng.uniform(0.01, 0.99, size=(S, B))
    Xa, Xb = rng.normal(size=(S, B, d)), rng.normal(size=(S, B, d))
    a, b = rng.integers(width, size=(S, B)), rng.integers(width, size=(S, B))
    b[:, ::3] = a[:, ::3]
    X, P = blend(lam, Xa, Xb, a, b, width)
    eye, lams = np.eye(width), lam[..., None]
    assert X.tobytes() == (lams * Xa + (1.0 - lams) * Xb).tobytes()
    assert P.tobytes() == (lams * eye[a] + (1.0 - lams) * eye[b]).tobytes()
    assert (a == b).any() and (a != b).any()


# ------------------------------------------- one generator per cell
# The multi-generator forms must give every cell exactly what its own
# generator gives alone, and leave each generator in the same state.


def _generators(seeds):
    return [np.random.default_rng([41, s]) for s in seeds]


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize(
    "shapes,beta",
    [
        ((2.0, 0.5, 16.0), 1.0),   # inverse CDF, one power per cell
        ((2.0, 0.5, 16.0), 2.0),   # gamma ratio
        ((0.3, 2.0, 0.7), 0.5),    # gamma with the boost on both sides
        ((1e-3, 2.0, 1e-3), 1.0),  # forced redraws: U ** 1000 underflows to 0
        ((1e-3, 1e-3, 5.0), 1e-3), # forced redraws on the gamma path (0 / 0)
    ],
)
def test_sample_beta_batch_per_cell_matches_each_generator_alone(shapes, beta):
    cfgs = [MixupConfig(alpha=a, beta=beta, seed=0) for a in shapes]
    together, alone = _generators((1, 2, 3)), _generators((1, 2, 3))
    for _ in range(5):
        lam = BetaSampler(cfgs, 64)(together)
        assert lam.shape == (3, 64)
        for s, (cfg, rng) in enumerate(zip(cfgs, alone)):
            assert lam[s].tobytes() == BetaSampler([cfg], 64)([rng]).tobytes()
    assert all(_same_state(a, b) for a, b in zip(together, alone))


def test_sample_gamma_batch_per_generator_matches_each_generator_alone():
    # the batched Gamma kernel _Gamma; enough entries that every generator
    # has some left for a second round, and runs of different lengths
    runs = [[0.4, 2.5, 7.0] * 200, [1.0] * 300, [0.2] * 500]
    together, alone = _generators((4, 5, 6)), _generators((4, 5, 6))
    for _ in range(5):
        got = _Gamma(np.concatenate(runs), [len(r) for r in runs])(together)
        parts = np.split(got, np.cumsum([len(r) for r in runs])[:-1])
        for g, r, rng in zip(parts, runs, alone):
            assert g.tobytes() == _Gamma(np.array(r), [len(r)])([rng]).tobytes()
    assert all(_same_state(a, b) for a, b in zip(together, alone))


def test_sample_beta_batch_rejects_cells_of_different_beta():
    cfgs = [MixupConfig(alpha=2.0, beta=b, seed=0) for b in (1.0, 2.0, 1.0)]
    with pytest.raises(ValueError, match="share"):
        BetaSampler(cfgs, 8)(_generators((1, 2, 3)))


def test_sample_beta_batch_names_the_cell_that_gives_up():
    cfgs = [MixupConfig(alpha=a, beta=1.0, seed=0) for a in (2.0, 2.0, 1e300)]
    with pytest.raises(NumericError) as info:
        BetaSampler(cfgs, 8)(_generators((1, 2, 3)))
    assert info.value.cell == 2
    with pytest.raises(ValueError):  # one config per generator
        BetaSampler(cfgs[:2], 8)(_generators((1, 2, 3)))


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_make_batch_per_cell_matches_each_cell_alone(mix_world, beta):
    src, tgt, plan = mix_world
    space = mix_space(tgt, plan)
    cfgs = [MixupConfig(alpha=a, beta=beta, seed=0) for a in (2.0, 0.5, 16.0)]
    pool = CrossDomainPool.of(tgt, src, plan)
    together, alone = _generators((7, 8, 9)), _generators((7, 8, 9))
    for _ in range(10):
        X, P = make_batch(pool, BetaSampler(cfgs, 16), together)
        assert X.shape == (3, 16, 3) and P.shape == (3, 16, space.size)
        for s, (cfg, rng) in enumerate(zip(cfgs, alone)):
            X1, P1 = make_batch(pool, BetaSampler([cfg], 16), [rng])
            assert X[s].tobytes() == X1.tobytes()
            assert P[s].tobytes() == P1.tobytes()
    assert all(_same_state(a, b) for a, b in zip(together, alone))


def _paired_plan():
    """mix_world's classes, each target paired with two or three sources."""
    sims = {0: [0.9, 0.4, 0.3], 1: [0.8, 0.2]}
    return PairingPlan({0: [0, 4, 5], 1: [2, 1]}, sims, 3, False)


@pytest.mark.parametrize("S", [2, 7, 35])
def test_make_batch_holds_halves_across_steps_as_each_cell_alone(mix_world, S):
    # several source classes a target and an odd batch leave 32-bit halves
    # held in the generators from one step to the next; each sampler is
    # built once and draws every step
    src, tgt, _ = mix_world
    plan = _paired_plan()
    pool = CrossDomainPool.of(tgt, src, plan)
    cfgs = [MixupConfig(alpha=1.0 + s % 5, beta=2.0, seed=0) for s in range(S)]
    stack, lone = BetaSampler(cfgs, 31), [BetaSampler([cfg], 31) for cfg in cfgs]
    together, alone = _generators(range(S)), _generators(range(S))
    held = set()
    for _ in range(6):
        X, P = make_batch(pool, stack, together)
        for s, (lam, rng) in enumerate(zip(lone, alone)):
            X1, P1 = make_batch(pool, lam, [rng])
            assert X[s].tobytes() == X1.tobytes() and P[s].tobytes() == P1.tobytes()
        assert all(_same_state(a, b) for a, b in zip(together, alone))
        held.update(a.bit_generator.state["has_uint32"] for a in together)
    assert held == {0, 1}


def test_beta_sampler_is_sample_beta_batch_built_once():
    cfgs = [MixupConfig(alpha=a, beta=2.0, seed=0) for a in (0.3, 2.0, 7.0)]
    sampler = BetaSampler(cfgs, 16)
    together, alone = _generators((1, 2, 3)), _generators((1, 2, 3))
    for _ in range(5):
        assert sampler(together).tobytes() == BetaSampler(cfgs, 16)(alone).tobytes()
    assert all(_same_state(a, b) for a, b in zip(together, alone))


@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize("S", [1, 7, 35])
def test_a_pool_and_sampler_built_once_draw_as_ones_built_each_step(mix_world, S, beta):
    # mix_world's plan pairs target 0 with two source classes, so every
    # step draws its rounds too
    src, tgt, plan = mix_world
    cfgs = [MixupConfig(alpha=0.5 + s % 4, beta=beta, seed=0) for s in range(S)]
    pool, sampler = CrossDomainPool.of(tgt, src, plan), BetaSampler(cfgs, 16)
    once, fresh = _generators(range(S)), _generators(range(S))
    for _ in range(6):
        X, P = make_batch(pool, sampler, once)
        pool1 = CrossDomainPool.of(tgt, src, plan)
        X1, P1 = make_batch(pool1, BetaSampler(cfgs, 16), fresh)
        assert X.tobytes() == X1.tobytes() and P.tobytes() == P1.tobytes()
        assert all(_same_state(a, b) for a, b in zip(once, fresh))


def test_paired_table_follows_the_plans_current_pairs(mix_world):
    _, _, plan = mix_world
    plan = PairingPlan({t: list(s) for t, s in plan.per_target.items()}, plan.scores, 2)
    table, counts = _paired_table(plan, 3)
    assert table.tolist() == [[0, 4], [2, -1], [-1, -1]]
    assert counts.tolist() == [2, 1, 0]
    plan.per_target[1].append(5)
    plan.per_target[2] = [1]
    table, counts = _paired_table(plan, 3)
    assert table.tolist() == [[0, 4], [2, 5], [1, -1]]
    assert counts.tolist() == [2, 2, 1]
