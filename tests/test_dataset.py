"""Dataset generation, CSV round-trips, and split behavior."""
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmixup import dataset
from xmixup.dataset import (
    Dataset,
    Domain,
    _draw_means,
    class_subset,
    compact_classes,
    gen_source,
    gen_target,
    load_dataset,
    save_dataset,
    source_class_means,
    split,
)
from xmixup.errors import DataError, ParseError


def test_gen_source_shape_and_counts():
    ds = gen_source(6, 9, 3, 0.4, seed=11)
    assert len(ds) == 54
    assert ds.class_count == 6
    assert ds.d == 3
    assert ds.domain is Domain.SOURCE
    assert ds.class_sizes() == {c: 9 for c in range(6)}
    assert ds.X.shape == (54, 3)
    assert ds.y.shape == (54,)


def test_gen_source_is_deterministic():
    a = gen_source(4, 5, 3, 0.2, seed=7)
    b = gen_source(4, 5, 3, 0.2, seed=7)
    c = gen_source(4, 5, 3, 0.2, seed=8)
    assert a == b
    assert a != c


def test_gen_source_means_respect_min_distance():
    spread = 0.6
    means = source_class_means(8, 4, spread, seed=2)
    assert means.shape == (8, 4)
    assert np.all(means >= -1.0) and np.all(means <= 1.0)
    for i in range(8):
        for j in range(i + 1, 8):
            assert np.linalg.norm(means[i] - means[j]) >= 0.5 * spread


def reference_means(rng, count, d, min_dist, avoid=()):
    """Class means as placed one norm at a time: the scalar reference."""
    placed = []
    while len(placed) < count:
        cand = rng.uniform(-1.0, 1.0, size=d)
        if all(np.linalg.norm(cand - m) >= min_dist for m in placed + list(avoid)):
            placed.append(cand)
    return np.array(placed)


def test_draw_means_places_the_means_of_the_scalar_reference():
    for m, d, seed in ((20, 4, 0), (60, 10, 1), (15, 2, 2), (40, 4, 3)):
        got = _draw_means(np.random.default_rng(seed), m, d, 0.4)
        want = reference_means(np.random.default_rng(seed), m, d, 0.4)
        assert got.tobytes() == want.tobytes()
    avoid = list(np.random.default_rng(9).uniform(-1, 1, (10, 4)))
    got = _draw_means(np.random.default_rng(1), 5, 4, 0.3, avoid)
    want = reference_means(np.random.default_rng(1), 5, 4, 0.3, avoid)
    assert got.tobytes() == want.tobytes()
    # at the boundary the scalar norm decides: a candidate exactly min_dist
    # from a mean is placed, and one a float's width closer is not
    first = np.random.default_rng(5).uniform(-1.0, 1.0, size=4)
    anchor = np.full(4, 0.3)
    at = np.linalg.norm(first - anchor)
    got = _draw_means(np.random.default_rng(5), 1, 4, at, [anchor])
    assert got[0].tobytes() == first.tobytes()
    got = _draw_means(np.random.default_rng(5), 1, 4, np.nextafter(at, 2 * at), [anchor])
    assert got[0].tobytes() != first.tobytes()


def test_draw_means_gives_up_on_a_crowded_space_fast(monkeypatch):
    # 1000 means 0.4 apart do not fit in [-1, 1]^4. Placed one norm at a
    # time, the 100 000 tries took about 40 s to fail (gen-data at data.m =
    # 1000); a fifth of them took seconds, and now take a fraction of one
    monkeypatch.setattr(dataset, "_MAX_MEAN_TRIES", 20_000)
    start = time.perf_counter()
    with pytest.raises(DataError, match="could not place 1000 class means"):
        _draw_means(np.random.default_rng(0), 1000, 4, 0.4)
    assert time.perf_counter() - start < 3


def test_gen_source_means_replay_matches_dataset():
    # source_class_means replays the same draws gen_source makes, so the
    # per-class sample means should scatter around them at the noise scale
    ds = gen_source(5, 200, 3, 0.1, seed=9)
    means = source_class_means(5, 3, 0.1, seed=9)
    by_class = ds.indices_by_class()
    for c in range(5):
        centroid = ds.X[by_class[c]].mean(axis=0)
        assert np.linalg.norm(centroid - means[c]) < 0.05


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(m=1, per_class=5, d=3, spread=0.2),
        dict(m=3, per_class=1, d=3, spread=0.2),
        dict(m=3, per_class=5, d=1, spread=0.2),
        dict(m=3, per_class=5, d=3, spread=0.0),
    ],
)
def test_gen_source_rejects_degenerate_args(kwargs):
    with pytest.raises(ValueError):
        gen_source(seed=0, **kwargs)


def test_gen_target_zero_noise_copies_whole_class_exactly():
    src = gen_source(4, 10, 3, 0.5, seed=5)
    tgt, planted = gen_target(src, [2, 0], 0, 10, 0.0, seed=6)
    assert tgt.class_count == 2
    assert planted.mapping == {0: 2, 1: 0}
    by_src = src.indices_by_class()
    for t, s in planted.mapping.items():
        src_xs = src.X[by_src[s]]
        tgt_xs = tgt.X[tgt.y == t]
        # per_class == source class size: the copy is a permutation
        assert np.allclose(
            np.sort(src_xs, axis=0), np.sort(tgt_xs, axis=0), rtol=0, atol=0
        )
        assert np.linalg.norm(src_xs.mean(axis=0) - tgt_xs.mean(axis=0)) < 1e-12


def test_gen_target_noise_perturbs_but_stays_close():
    src = gen_source(4, 30, 3, 0.5, seed=5)
    tgt, _ = gen_target(src, [0], 0, 30, 0.05, seed=6)
    src_xs = src.X[src.y == 0]
    tgt_xs = tgt.X
    assert not np.allclose(np.sort(src_xs, axis=0), np.sort(tgt_xs, axis=0))
    # centroid moves by about noise/sqrt(per_class), far below the spread
    drift = np.linalg.norm(src_xs.mean(axis=0) - tgt_xs.mean(axis=0))
    assert drift < 0.1


def test_gen_target_novel_classes_follow_planted():
    src = gen_source(5, 8, 4, 0.3, seed=1)
    tgt, planted = gen_target(src, [1, 4], 2, 8, 0.1, seed=2)
    assert tgt.class_count == 4
    assert planted.planted_classes() == [0, 1]
    assert planted.novel_classes() == [2, 3]
    assert planted.mapping[2] is None and planted.mapping[3] is None
    assert tgt.class_sizes() == {c: 8 for c in range(4)}
    assert tgt.domain is Domain.TARGET


def test_gen_target_does_not_mutate_source():
    src = gen_source(3, 6, 3, 0.3, seed=4)
    before = src.X.copy()
    gen_target(src, [0, 1], 1, 6, 0.2, seed=9)
    assert np.array_equal(src.X, before)


@pytest.mark.parametrize(
    "planted,novel,per_class,noise,err",
    [
        ([0, 0], 0, 5, 0.1, ValueError),   # duplicate planted class
        ([9], 0, 5, 0.1, ValueError),      # planted index out of range
        ([0], 0, 1, 0.1, ValueError),      # too few samples per class
        ([0], -1, 5, 0.1, ValueError),     # negative novel count
        ([0], 0, 5, -0.5, ValueError),     # negative noise
        ([], 0, 5, 0.1, ValueError),       # no classes at all
    ],
)
def test_gen_target_rejects_bad_args(planted, novel, per_class, noise, err):
    src = gen_source(3, 6, 3, 0.3, seed=4)
    with pytest.raises(err):
        gen_target(src, planted, novel, per_class, noise, seed=0)


def test_planted_mapping_must_be_injective():
    from xmixup.dataset import PlantedMapping

    with pytest.raises(ValueError):
        PlantedMapping({0: 3, 1: 3})
    PlantedMapping({0: 3, 1: None, 2: None})  # novel labels may repeat


def test_dataset_validates_members():
    X = np.zeros((1, 3))
    with pytest.raises(ValueError):
        Dataset(X, [5], 2, Domain.SOURCE)
    with pytest.raises(ValueError):
        Dataset(X, [0, 1], 2, Domain.SOURCE)
    with pytest.raises(ValueError):
        Dataset(np.zeros(3), [0], 2, Domain.SOURCE)
    empty = Dataset(np.empty((0, 3)), [], 2, Domain.SOURCE)
    assert len(empty) == 0
    assert empty.d == 3


def test_save_load_round_trip(tmp_path):
    ds = gen_source(4, 7, 5, 0.3, seed=21)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    assert load_dataset(path) == ds
    # wire format is stable under a second pass
    again = tmp_path / "again.csv"
    save_dataset(load_dataset(path), again)
    assert path.read_bytes() == again.read_bytes()


def test_interrupted_save_keeps_the_previous_file(tmp_path, monkeypatch):
    """A write that fails part-way leaves the old artifact and no temp file."""
    import xmixup.dataset as dataset_module

    path = tmp_path / "ds.csv"
    save_dataset(gen_source(2, 3, 2, 0.3, seed=22), path)
    before = path.read_bytes()
    write_table = dataset_module.write_table

    def interrupted(path, header, rows):
        def failing():  # the rows, cut off by an interrupt after five of them
            for i, row in enumerate(rows):
                if i == 5:
                    raise KeyboardInterrupt
                yield row

        write_table(path, header, failing())

    monkeypatch.setattr(dataset_module, "write_table", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_dataset(gen_source(2, 30, 2, 0.3, seed=23), path)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["ds.csv"]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(
            allow_nan=False,
            allow_infinity=False,
            min_value=-1e12,
            max_value=1e12,
        ),
        min_size=2,
        max_size=2,
    )
)
def test_save_load_preserves_floats_exactly(tmp_path_factory, values):
    ds = Dataset([values], [0], 1, Domain.TARGET)
    path = tmp_path_factory.mktemp("rt") / "one.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.X, ds.X)


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("source,not-an-int,3\n", 1),
        ("weird,2,3\n", 1),
        ("source,2,3\n0,1.0\n", 2),
        ("source,2,3\n7,1.0,2.0,3.0\n", 2),
        ("source,2,3\n0,1.0,nope,3.0\n", 2),
        ("source,2,3\n0,1.0,inf,3.0\n", 2),
        ("source,2,3\n0,1.0,2.0,3.0\n1,1.0,bad,0.0\n", 3),
    ],
)
def test_load_reports_offending_line(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        load_dataset(path)
    assert exc.value.line == line


def test_load_names_the_file_and_the_line(tmp_path):
    path = tmp_path / "target_train.csv"
    path.write_text("target,2,1\n0,1.0\nx,2.0\n")
    with pytest.raises(ParseError) as exc:
        load_dataset(path)
    assert str(exc.value) == f"{path}: line 3: non-numeric label 'x'"
    assert exc.value.line == 3


def test_load_rejects_headers_without_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("source,2,3\n")
    with pytest.raises(DataError):
        load_dataset(path)


def test_split_is_stratified_and_disjoint():
    ds = gen_source(5, 20, 3, 0.4, seed=2)
    train, test = split(ds, 0.25, seed=0)
    assert train.class_sizes() == {c: 15 for c in range(5)}
    assert test.class_sizes() == {c: 5 for c in range(5)}
    train_keys = {(int(y), x.tobytes()) for x, y in zip(train.X, train.y)}
    test_keys = {(int(y), x.tobytes()) for x, y in zip(test.X, test.y)}
    assert not train_keys & test_keys
    assert len(train_keys | test_keys) == len(ds)


def test_split_determinism_and_seed_sensitivity():
    ds = gen_source(3, 10, 3, 0.4, seed=2)
    a = split(ds, 0.3, seed=5)
    b = split(ds, 0.3, seed=5)
    c = split(ds, 0.3, seed=6)
    assert a[0] == b[0] and a[1] == b[1]
    assert a[1] != c[1]


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95))
def test_split_always_leaves_a_train_sample(fraction):
    ds = gen_source(3, 4, 2, 0.5, seed=1)
    train, test = split(ds, fraction, seed=0)
    for c in range(3):
        assert train.class_sizes()[c] >= 1
        assert train.class_sizes()[c] + test.class_sizes()[c] == 4


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
def test_split_rejects_degenerate_fractions(fraction):
    ds = gen_source(3, 4, 2, 0.5, seed=1)
    with pytest.raises(ValueError):
        split(ds, fraction, seed=0)


def test_split_needs_two_samples_per_class():
    ds = Dataset([np.zeros(2), np.ones(2)], [0, 1], 2, Domain.SOURCE)
    with pytest.raises(DataError):
        split(ds, 0.5, seed=0)


def test_class_subset_keeps_original_labels():
    ds = gen_source(5, 6, 3, 0.4, seed=2)
    sub = class_subset(ds, [1, 3])
    assert sub.class_count == 5
    assert sorted(set(sub.y.tolist())) == [1, 3]
    assert len(sub) == 12
    with pytest.raises(ValueError):
        class_subset(ds, [1, 9])


def test_compact_classes_relabels_densely():
    ds = gen_source(5, 6, 3, 0.4, seed=2)
    sub = class_subset(ds, [1, 4])
    compact, remap = compact_classes(sub)
    assert remap == {1: 0, 4: 1}
    assert compact.class_count == 2
    assert sorted(set(compact.y.tolist())) == [0, 1]
    assert np.array_equal(compact.X, sub.X)
    with pytest.raises(DataError):
        compact_classes(Dataset(np.empty((0, 2)), [], 3, Domain.SOURCE))


def test_compact_classes_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call, and the module stays
    # loaded for the life of the process
    code = (
        "import sys\n"
        "from xmixup.dataset import class_subset, compact_classes, gen_source\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "compact_classes(class_subset(gen_source(5, 6, 3, 0.4, seed=2), [1, 4]))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


@pytest.fixture(scope="module")
def big_split(tmp_path_factory):
    """An 8000-row split of width 4 as save_dataset writes it: (path, bytes)."""
    path = tmp_path_factory.mktemp("big") / "source_train.csv"
    save_dataset(gen_source(20, 400, 4, 0.8, seed=5), path)
    return path, path.read_bytes()


def line_start(data: bytes, line: int) -> int:
    """The byte offset of 1-based `line` in data."""
    offset = 0
    for _ in range(line - 1):
        offset = data.index(b"\n", offset) + 1
    return offset


def test_load_reads_crlf_and_a_missing_final_newline_as_the_parser_always_has(
    big_split, tmp_path
):
    # "\r\n" ends a line as "\n" does
    path, data = big_split
    ds = load_dataset(path)
    for name, text in (
        ("crlf.csv", data.replace(b"\n", b"\r\n")),
        ("no-final-newline.csv", data[:-1]),
    ):
        (tmp_path / name).write_bytes(text)
        assert load_dataset(tmp_path / name) == ds
    # so does a lone "\r"; a second newline at the end is an empty line
    for text, message in (
        (
            "source,2,3\n0,1.0,2.0,3.0\n1,1.0\r2.0,3.0\n",
            "line 3: expected 4 columns, got 2",
        ),
        ("source,2,3\n0,1.0,2.0,3.0\n\n", "line 3: expected 4 columns, got 1"),
    ):
        (tmp_path / "bad.csv").write_text(text, newline="")
        with pytest.raises(ParseError) as exc:
            load_dataset(tmp_path / "bad.csv")
        assert str(exc.value) == f"{tmp_path / 'bad.csv'}: {message}"


def test_load_names_a_malformed_row_far_into_the_file(big_split, tmp_path):
    path, data = big_split
    lines = data.split(b"\n")
    lines[4999] = b",".join(lines[4999].split(b",")[:2] + [b"x"] * 3)
    bad = tmp_path / path.name
    bad.write_bytes(b"\n".join(lines))
    with pytest.raises(ParseError) as exc:
        load_dataset(bad)
    assert str(exc.value) == f"{bad}: line 5000: non-numeric feature value"
    assert exc.value.line == 5000


def test_a_byte_that_is_not_utf8_is_reported_wherever_it_lies(big_split, tmp_path):
    # past the first 64 KiB, and also after a malformed line, whose fault a
    # parse that stops at the first bad line would report instead
    path, data = big_split
    at = line_start(data, 5000) + 2
    assert at > 1 << 16
    bad = tmp_path / path.name
    reason = f"'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
    for text in (data, data.replace(b"\n", b"\nx,", 1)):
        bad.write_bytes(text[:at] + b"\xff" + text[at + 1:])
        with pytest.raises(ParseError) as exc:
            load_dataset(bad)
        assert str(exc.value) == f"{bad}: not UTF-8: {reason}"
        assert exc.value.line is None


def test_loading_a_split_holds_little_beyond_its_arrays(big_split):
    # the text, its lines and a Python list per row once peaked near ten
    # times the arrays' bytes
    path, _ = big_split
    tracemalloc.start()
    try:
        ds = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == 8000
    assert peak < 3 * (ds.X.nbytes + ds.y.nbytes)
