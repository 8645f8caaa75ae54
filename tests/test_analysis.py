"""Feature spectrum via one-sided Jacobi SVD, and linear-probe diagnostics."""
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xmixup.analysis as analysis
from xmixup.analysis import (
    CHUNK_BYTES,
    ProbeConfig,
    ProbeSubset,
    Spectrum,
    _chunks,
    _features,
    _round_robin,
    _train_probe_head,
    linear_probe,
    linear_probes,
    probe_accuracy,
    probe_data,
    singular_values,
    source_subsets,
    spectra,
    spectrum,
)
from xmixup.dataset import Dataset, Domain, class_subset, compact_classes, split
from xmixup.errors import DataError, NumericError
from xmixup.model import TrainConfig, forward, init_linear, log_softmax
from xmixup.training import Strategy, finetune

SVD_TOL = 1e-9


def reference_svd(A):
    return np.sort(np.linalg.svd(A, compute_uv=False))[::-1]


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=12),
    cols=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_singular_values_match_lapack(rows, cols, seed):
    A = np.random.default_rng(seed).normal(size=(rows, cols))
    mine = singular_values(A)
    ref = reference_svd(A)
    assert mine.shape == ref.shape
    assert np.all(np.diff(mine) <= 1e-12)  # descending
    assert np.max(np.abs(mine - ref)) <= SVD_TOL * max(1.0, ref[0])


def test_singular_values_handle_rank_deficiency():
    rng = np.random.default_rng(50)
    base = rng.normal(size=(8, 3))
    A = np.hstack([base, base[:, :2]])      # duplicated columns
    mine = singular_values(A)
    ref = reference_svd(A)
    assert np.max(np.abs(mine - ref)) <= SVD_TOL * ref[0]
    assert np.sum(mine > 1e-10) == 3


def test_singular_values_orthogonal_invariance():
    rng = np.random.default_rng(51)
    A = rng.normal(size=(9, 5))
    Q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
    assert np.max(np.abs(singular_values(Q @ A) - singular_values(A))) <= SVD_TOL


def test_singular_values_frobenius_identity_and_scaling():
    rng = np.random.default_rng(52)
    A = rng.normal(size=(6, 4))
    s = singular_values(A)
    assert np.sum(s**2) == pytest.approx(np.sum(A**2), rel=1e-12)
    assert np.allclose(singular_values(2.5 * A), 2.5 * s, atol=1e-12)


def test_singular_values_zero_matrix_and_bad_input():
    assert np.array_equal(singular_values(np.zeros((4, 3))), np.zeros(3))
    with pytest.raises(NumericError):
        singular_values(np.array([[1.0, np.nan], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "shape", [(60, 32), (240, 32), (512, 32), (61, 33), (7, 5), (33, 61)]
)
def test_singular_values_match_lapack_at_spectrum_shapes(shape):
    """The spectrum's real shapes, and odd column counts that need a pad column."""
    A = np.random.default_rng(sum(shape)).normal(size=shape)
    mine = singular_values(A)
    ref = reference_svd(A)
    assert mine.shape == (min(shape),)
    assert np.all(np.diff(mine) <= 0.0)
    assert np.max(np.abs(mine - ref)) <= SVD_TOL * ref[0]


@pytest.mark.parametrize("n", [2, 4, 6, 34])
def test_round_robin_meets_every_pair_once(n):
    rounds = _round_robin(n)
    assert len(rounds) == n - 1
    seen = set()
    for p, q in rounds:
        assert len(p) == len(q) == n // 2
        assert sorted(np.concatenate([p, q]).tolist()) == list(range(n))
        seen |= {frozenset(pair) for pair in zip(p.tolist(), q.tolist())}
    assert len(seen) == n * (n - 1) // 2


def test_singular_values_that_cannot_settle_raise():
    A = np.random.default_rng(53).normal(size=(8, 5))
    with pytest.raises(NumericError):
        singular_values(A, max_sweeps=1)
    assert np.max(np.abs(singular_values(A) - reference_svd(A))) <= SVD_TOL


def test_spectrum_normalization_rules():
    s = Spectrum(np.array([1.0, 0.5, 0.25]))
    assert s.tail_mean(2) == pytest.approx(0.375)
    assert s.tail_mean(10) == pytest.approx((1.0 + 0.5 + 0.25) / 3)
    with pytest.raises(ValueError):
        s.tail_mean(0)
    with pytest.raises(ValueError):
        Spectrum(np.array([0.9, 0.5]))          # not normalized
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 0.2, 0.3]))     # not sorted
    with pytest.raises(ValueError):
        Spectrum(np.array([]))


def test_spectrum_of_model_features(toy_pretrained, toy_source):
    sp = spectrum(toy_pretrained, toy_source, batch=32, seed=0)
    assert sp.normalized[0] == 1.0
    assert len(sp.normalized) == toy_pretrained.feature_width
    again = spectrum(toy_pretrained, toy_source, batch=32, seed=0)
    assert np.array_equal(sp.normalized, again.normalized)
    other = spectrum(toy_pretrained, toy_source, batch=32, seed=9)
    assert not np.array_equal(sp.normalized, other.normalized)


def test_spectrum_batch_bounds(toy_pretrained, toy_source):
    with pytest.raises(ValueError):
        # fewer rows than feature directions cannot span the spectrum
        spectrum(toy_pretrained, toy_source, batch=toy_pretrained.feature_width - 1)
    with pytest.raises(DataError):
        spectrum(toy_pretrained, toy_source, batch=len(toy_source) + 1)


def test_probe_learns_separable_features(toy_pretrained, toy_source):
    res = linear_probe(toy_pretrained, toy_source, ProbeConfig())
    assert res.subset is ProbeSubset.ALL
    assert res.accuracy > 0.5


def test_probe_is_deterministic(toy_pretrained, toy_source):
    a = linear_probe(toy_pretrained, toy_source, ProbeConfig())
    b = linear_probe(toy_pretrained, toy_source, ProbeConfig())
    assert a.accuracy == b.accuracy


def test_probe_handles_gappy_label_ranges(toy_pretrained, toy_source):
    sub = class_subset(toy_source, [1, 3])
    res = linear_probe(toy_pretrained, sub, ProbeConfig(), ProbeSubset.AUXILIARY)
    assert res.subset is ProbeSubset.AUXILIARY
    assert 0.0 <= res.accuracy <= 1.0


def test_probe_rejects_degenerate_subsets(toy_pretrained, toy_source):
    with pytest.raises(DataError):
        linear_probe(
            toy_pretrained,
            Dataset(np.empty((0, 4)), [], 5, Domain.SOURCE),
            ProbeConfig(),
        )
    with pytest.raises(DataError):
        linear_probe(toy_pretrained, class_subset(toy_source, [2]), ProbeConfig())


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(iterations=0)
    with pytest.raises(ValueError):
        ProbeConfig(lr=0.0)
    with pytest.raises(ValueError):
        ProbeConfig(test_fraction=1.0)


def test_source_subsets_partition_the_classes(toy_source, toy_plan):
    subsets = source_subsets(toy_source, toy_plan)
    aux = subsets[ProbeSubset.AUXILIARY]
    aba = subsets[ProbeSubset.ABA]
    assert subsets[ProbeSubset.ALL] is toy_source
    aux_classes = set(aux.y.tolist())
    aba_classes = set(aba.y.tolist())
    assert aux_classes == set(toy_plan.selected_sources())
    assert not aux_classes & aba_classes
    assert aux_classes | aba_classes == set(range(toy_source.class_count))
    assert len(aux) + len(aba) == len(toy_source)


def test_probe_tracks_feature_quality(toy_source, toy_pretrained):
    """A trained extractor probes better than an untrained one on its task."""
    from xmixup.model import init

    trained = linear_probe(toy_pretrained, toy_source, ProbeConfig())
    blank = linear_probe(
        init(toy_source.d, [10, 8], 5, seed=77), toy_source, ProbeConfig()
    )
    assert trained.accuracy >= blank.accuracy


def reference_probe_head(F, y, k, cfg):
    """The row-major probe fit: log-softmax of N x k logits, then exp."""
    rng = np.random.default_rng(cfg.seed)
    w, b = init_linear(k, F.shape[1], rng)
    target = np.eye(k)[y]
    for _ in range(cfg.iterations):
        logp = log_softmax(F @ w.T + b)
        g = (np.exp(logp) - target) / len(F)
        w = w - cfg.lr * (g.T @ F)
        b = b - cfg.lr * g.sum(axis=0)
    return w, b


def test_probe_head_matches_row_major_reference_on_gappy_subset(
    toy_pretrained, toy_source
):
    cfg = ProbeConfig()
    sub = class_subset(toy_source, [1, 3])
    compact, _ = compact_classes(sub)
    train, test = split(compact, cfg.test_fraction, cfg.seed)
    f_train, _ = forward(toy_pretrained, train.X)
    f_test, _ = forward(toy_pretrained, test.X)
    w, b = _train_probe_head(f_train[None], train.y, compact.class_count, cfg)
    w, b = w[0], b[0]
    w_ref, b_ref = reference_probe_head(f_train, train.y, compact.class_count, cfg)
    assert np.max(np.abs(w - w_ref)) <= 1e-12
    assert np.max(np.abs(b - b_ref)) <= 1e-12
    res = linear_probe(toy_pretrained, sub, cfg, ProbeSubset.AUXILIARY)
    assert res.accuracy == probe_accuracy(w_ref, b_ref, f_test, test.y)


def test_probe_head_matches_row_major_reference_at_scale():
    """A few thousand rows of 32 features, as the large-source probes see."""
    rng = np.random.default_rng(54)
    k, h = 12, 32
    centers = rng.normal(size=(k, h))
    y = rng.integers(0, k, size=3600)
    F = np.maximum(centers[y] + rng.normal(size=(len(y), h)), 0.0)
    cfg = ProbeConfig()
    train, test = slice(0, 2880), slice(2880, None)
    w, b = _train_probe_head(F[None, train], y[train], k, cfg)
    w, b = w[0], b[0]
    w_ref, b_ref = reference_probe_head(F[train], y[train], k, cfg)
    assert np.max(np.abs(w - w_ref)) <= 1e-12
    assert np.max(np.abs(b - b_ref)) <= 1e-12
    acc = probe_accuracy(w, b, F[test], y[test])
    assert acc == probe_accuracy(w_ref, b_ref, F[test], y[test])
    assert acc > 1.0 / k


def transposed_probe_head(F, y, k, cfg):
    """The probe fit as it once ran, subtracting a k x N one-hot target
    matrix. Its heads are the bytes to keep."""
    S, n, h = F.shape
    w0, b0 = init_linear(k, h, np.random.default_rng(cfg.seed))
    w = np.broadcast_to(w0, (S, k, h)).copy()
    b = np.broadcast_to(b0, (S, k)).copy()
    Ft = np.ascontiguousarray(F.transpose(0, 2, 1))
    target = np.zeros((k, n))
    target[y, np.arange(n)] = 1.0
    step = cfg.lr / n
    G, col = np.empty((S, k, n)), np.empty((S, 1, n))
    dw, db = np.empty_like(w), np.empty_like(b)
    for _ in range(cfg.iterations):
        np.matmul(w, Ft, out=G)
        G += b[:, :, None]
        G -= G.max(axis=1, keepdims=True, out=col)
        np.exp(G, out=G)
        G /= G.sum(axis=1, keepdims=True, out=col)
        G -= target
        np.matmul(G, F, out=dw)
        dw *= step
        w -= dw
        G.sum(axis=2, out=db)
        db *= step
        b -= db
    return w, b


# (S, k, N): the all-but-auxiliary probes of large-source and, as stacks of
# 7 and 4, of the default data, whose small gemms BLAS rounds differently
# when it reads the features transposed
@pytest.mark.parametrize(
    "S,k,n", [(1, 14, 4480), (3, 14, 4480), (7, 6, 156), (4, 14, 364)]
)
def test_probe_heads_are_the_bytes_of_the_transposed_fit(S, k, n):
    rng = np.random.default_rng(S)
    h = 32
    y = rng.integers(0, k, size=n)
    F = np.maximum(rng.normal(size=(k, h))[y] + rng.normal(size=(S, n, h)), 0.0)
    cfg = ProbeConfig(iterations=40)
    w, b = _train_probe_head(F, y, k, cfg)
    w_ref, b_ref = transposed_probe_head(F, y, k, cfg)
    assert w.tobytes() == w_ref.tobytes()
    assert b.tobytes() == b_ref.tobytes()


# --- stacked diagnostics: every model of a stack gets the bits it gets alone


@pytest.fixture(scope="module")
def toy_models(toy_source, toy_target, toy_pretrained, toy_plan):
    """Fine-tuned models whose heads differ in width: l2 heads cover the 3
    target classes, cotrain heads the target and the 5 source classes."""
    tgt, _ = toy_target
    tgt_train, tgt_test = split(tgt, 0.25, seed=3)
    cfg = TrainConfig(iterations=40, lr_drop_at=30, batch_size=8)
    models = []
    for strategy in (Strategy.l2(), Strategy.cotrain()):
        for seed in (0, 1):
            res = finetune(
                toy_pretrained, tgt_train, toy_source, toy_plan, strategy,
                replace(cfg, seed=seed), tgt_test,
            )
            models.append(res.params)
    models.insert(1, toy_pretrained)
    assert len({m.label_count for m in models}) == 3
    return models, tgt_train


def _fixed_chunks(size):
    return lambda count, cell_bytes: [
        range(i, min(i + size, count)) for i in range(0, count, size)
    ]


def test_stacked_probe_heads_equal_each_model_alone(toy_models, toy_source, toy_plan):
    models, _ = toy_models
    cfg = ProbeConfig(iterations=120)
    aux = source_subsets(toy_source, toy_plan)[ProbeSubset.AUXILIARY]
    data = probe_data(aux, cfg, ProbeSubset.AUXILIARY)
    F = _features(models, data.train.X)
    w, b = _train_probe_head(F, data.train.y, data.k, cfg)
    assert w.shape == (len(models), data.k, models[0].feature_width)
    for s, params in enumerate(models):
        alone, _ = forward(params, data.train.X)
        assert F[s].tobytes() == alone.tobytes()
        w1, b1 = _train_probe_head(alone[None], data.train.y, data.k, cfg)
        assert w[s].tobytes() == w1[0].tobytes()
        assert b[s].tobytes() == b1[0].tobytes()
    # the fits differ between models, so the stack did not share one
    assert len({w[s].tobytes() for s in range(len(models))}) == len(models)


@pytest.mark.parametrize("size", [1, 2, 5])
def test_stacked_probes_equal_each_model_alone(
    toy_models, toy_source, toy_plan, monkeypatch, size
):
    models, _ = toy_models
    assert len(models) == 5
    cfg = ProbeConfig(iterations=120)
    subsets = source_subsets(toy_source, toy_plan)
    alone = {
        kind: [linear_probe(m, subsets[kind], cfg, kind) for m in models]
        for kind in (ProbeSubset.AUXILIARY, ProbeSubset.ABA)
    }
    monkeypatch.setattr(analysis, "_chunks", _fixed_chunks(size))
    for kind, expected in alone.items():
        got = linear_probes(models, probe_data(subsets[kind], cfg, kind), cfg)
        assert [r.subset for r in got] == [kind] * len(models)
        assert [r.accuracy for r in got] == [r.accuracy for r in expected]


@pytest.mark.parametrize("size", [1, 2, 5])
def test_stacked_spectra_equal_each_model_alone(toy_models, monkeypatch, size):
    models, tgt_train = toy_models
    batch = len(tgt_train)
    alone = [spectrum(m, tgt_train, batch, seed=4).normalized for m in models]
    monkeypatch.setattr(analysis, "_chunks", _fixed_chunks(size))
    got = spectra(models, tgt_train, batch, seed=4)
    assert [g.normalized.tobytes() for g in got] == [a.tobytes() for a in alone]


def test_stacked_singular_values_equal_each_matrix_alone():
    rng = np.random.default_rng(55)
    for shape in ((6, 12, 7), (3, 60, 32), (4, 5, 9)):
        A = rng.normal(size=shape)
        A[1] *= 1e-3  # a different scale settles on its own schedule
        stacked = singular_values(A)
        assert stacked.shape == (shape[0], min(shape[1:]))
        for s in range(shape[0]):
            assert stacked[s].tobytes() == singular_values(A[s]).tobytes()


def test_a_settled_matrix_leaves_the_stack(monkeypatch):
    """Orthogonal columns need no rotation: that matrix drops out after its
    first sweep while the others go on rotating."""
    rng = np.random.default_rng(56)
    orthogonal = np.zeros((8, 5))
    orthogonal[:5, :5] = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
    A = np.stack([rng.normal(size=(8, 5)), orthogonal, rng.normal(size=(8, 5))])
    sizes, rotations = [], []
    sweep = analysis._jacobi_sweep

    def spy(C, rounds, tol):
        before = C.copy()
        rotated = sweep(C, rounds, tol)
        sizes.append(len(C))
        rotations.append(
            [not np.array_equal(x, y) for x, y in zip(before, C)]
        )
        assert rotations[-1] == rotated.tolist()
        return rotated

    monkeypatch.setattr(analysis, "_jacobi_sweep", spy)
    svals = singular_values(A)
    assert sizes[0] == 3 and rotations[0] == [True, False, True]
    assert len(sizes) > 2 and set(sizes[1:-1]) == {2}
    assert svals[1].tolist() == [5.0, 4.0, 3.0, 2.0, 1.0]
    monkeypatch.setattr(analysis, "_jacobi_sweep", sweep)
    for s in range(3):
        assert svals[s].tobytes() == singular_values(A[s]).tobytes()


def test_a_matrix_that_cannot_settle_is_named():
    rng = np.random.default_rng(57)
    orthogonal = np.eye(6)[:, :4]
    A = np.stack([orthogonal, rng.normal(size=(6, 4)), rng.normal(size=(6, 4))])
    with pytest.raises(NumericError) as info:
        singular_values(A, max_sweeps=1)
    assert info.value.cell == 1
    with pytest.raises(NumericError) as info:
        singular_values(A[1], max_sweeps=1)
    assert info.value.cell is None
    A[2, 3, 1] = np.inf
    with pytest.raises(NumericError) as info:
        singular_values(A)
    assert info.value.cell == 2


def test_spectra_name_the_model_across_chunks(toy_models, monkeypatch):
    models, tgt_train = toy_models
    broken = models[3].copy()
    broken.layers[0][0][0, 0] = np.nan
    monkeypatch.setattr(analysis, "_chunks", _fixed_chunks(2))
    with pytest.raises(NumericError) as info:
        spectra(models[:3] + [broken], tgt_train, len(tgt_train))
    assert info.value.cell == 3


def test_probes_name_a_model_of_overflowing_features_across_chunks(
    toy_models, toy_source, toy_plan, monkeypatch
):
    models, _ = toy_models
    broken = models[3].copy()
    for w, _ in broken.layers:  # finite weights whose features overflow
        w[...] *= 1e200
    cfg = ProbeConfig(iterations=5)
    aux = source_subsets(toy_source, toy_plan)[ProbeSubset.AUXILIARY]
    data = probe_data(aux, cfg, ProbeSubset.AUXILIARY)
    monkeypatch.setattr(analysis, "_chunks", _fixed_chunks(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite features") as info:
            linear_probes(models[:3] + [broken], data, cfg)
    assert info.value.cell == 3


def test_probes_name_a_model_whose_probe_head_overflows_across_chunks(
    toy_models, toy_source, toy_pretrained, monkeypatch
):
    # finite features near the float64 limit: the fit's logits overflow, and
    # numpy used to warn and the fit went on to an accuracy of NaN heads
    models, _ = toy_models
    broken = toy_pretrained.copy()
    for part in broken.layers[-1]:
        part[...] *= 1e300
    data = probe_data(toy_source, ProbeConfig(), ProbeSubset.ALL)
    assert np.isfinite(_features([broken], data.train.X)).all()
    monkeypatch.setattr(analysis, "_chunks", _fixed_chunks(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite probe head") as info:
            linear_probes(models[:3] + [broken], data, ProbeConfig())
    assert info.value.cell == 3


def test_chunks_cover_the_cells_within_the_byte_cap():
    for count, cell_bytes in ((7, 1000), (7, CHUNK_BYTES // 3), (3, 2 * CHUNK_BYTES)):
        chunks = _chunks(count, cell_bytes)
        assert [i for c in chunks for i in c] == list(range(count))
        for c in chunks:
            assert len(c) == 1 or len(c) * cell_bytes <= CHUNK_BYTES
    assert [len(c) for c in _chunks(7, CHUNK_BYTES // 3)] == [3, 3, 1]
    assert [len(c) for c in _chunks(3, 2 * CHUNK_BYTES)] == [1, 1, 1]


def test_probe_data_needs_a_held_out_row(toy_source):
    # two rows per class: round(2 * 0.2) = 0 rows held out
    two_each = Dataset(
        toy_source.X[:4], np.array([0, 0, 1, 1]), 2, Domain.SOURCE
    )
    with pytest.raises(DataError, match="holds out no rows"):
        probe_data(two_each, ProbeConfig(), ProbeSubset.ALL)
    half = ProbeConfig(test_fraction=0.5)
    assert len(probe_data(two_each, half, ProbeSubset.ALL).test) == 2
