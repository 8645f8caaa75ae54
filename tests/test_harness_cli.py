"""Experiment harness and CLI: config handling, artifact pipeline, exit codes,
and byte-for-byte reproducibility of reruns.

All pipeline tests run on a deliberately tiny configuration so the full
gen-data -> pretrain -> pair -> finetune -> report chain stays fast.
"""
import contextlib
import ctypes
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xmixup.analysis import SPECTRUM_ROWS
from xmixup.cli import _build_parser, main
from xmixup.config import (
    BATCH_MAXIMA,
    DATA_MAXIMA,
    ITERATION_MAXIMA,
    SEED_MAXIMUM,
    THRESHOLD_MAXIMUM,
    WIDTH_MAXIMUM,
    DataSpec,
    ExperimentConfig,
    config_from_json,
)
from xmixup.dataset import Dataset, load_dataset, save_dataset
from xmixup.errors import ConfigError, NumericError
from xmixup import dataset, harness, pairing, training
from xmixup.harness import COMPARISON_HEADER, load_lab
from xmixup.mixup import MixupConfig
from xmixup.model import init, load_params, save_params
from xmixup.pairing import default_threshold, load_plan, random_plan
from xmixup.training import Cell, Strategy, StrategyKind, finetune, finetune_cells

MINI = {
    "data": {
        "m": 8,
        "source_per_class": 12,
        "d": 3,
        "spread": 0.6,
        "planted": [0, 1, 2, 3],
        "novel": 2,
        "target_per_class": 10,
        "noise": 0.2,
        "seed": 0,
        "target_test_fraction": 0.5,
    },
    "hidden": [8, 6],
    "pretrain": {"iterations": 120, "lr_drop_at": 90, "batch_size": 16},
    "finetune": {"iterations": 60, "lr_drop_at": 40, "batch_size": 8},
    # one pairing round selects 6 of 8 source classes, leaving two
    # unselected so the forgetting probes have a non-empty complement
    "threshold": 50,
    "strategies": ["l2", "xmixup"],
    "seeds": [0, 1],
    "alpha_grid": [1.0, 4.0],
}


# deeper than the JSON decoder's recursion limit
NESTED = "[" * 3000


def mini_config(tmp_path: Path, **extra) -> Path:
    raw = json.loads(json.dumps(MINI))
    raw.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ------------------------------------------------------------------- config

def test_config_defaults_round_trip():
    cfg = ExperimentConfig()
    again = config_from_json(json.loads(json.dumps(cfg.to_json())))
    assert again == cfg
    assert again.hash() == cfg.hash()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_json({"datum": {}})
    with pytest.raises(ConfigError):
        config_from_json({"finetune": {"iterationz": 5}})
    with pytest.raises(ConfigError):
        config_from_json({"finetune": 3})
    with pytest.raises(ConfigError):
        config_from_json({"strategies": ["warp-speed"]})


@pytest.mark.parametrize(
    "value", ["l2", {"l2": 1, "xmixup": 2}], ids=["string", "object"]
)
def test_strategies_that_are_not_a_list_are_refused_like_every_list(value):
    with pytest.raises(ConfigError, match="strategies must be a list"):
        config_from_json({"strategies": value})


def test_partial_sections_keep_experiment_defaults():
    cfg = config_from_json({"finetune": {"lr": 0.5}})
    assert cfg.finetune.lr == 0.5
    # the experiment-level default budget, not the TrainConfig default
    assert cfg.finetune.iterations == 600
    assert cfg.finetune.lr_drop_at == 400
    assert cfg.pretrain.iterations == 3000


def test_config_hash_tracks_content():
    a = ExperimentConfig()
    b = config_from_json({"sp_weight": 0.5})
    assert a.hash() != b.hash()
    assert len(a.hash()) == 12


def test_default_threshold_scales_with_target():
    assert default_threshold([0] * 60) == 150
    assert default_threshold([0] * 10) == 25


def test_strategy_for_couples_parameters():
    cfg = ExperimentConfig()
    s = cfg.strategy_for(StrategyKind.L2SP)
    assert s.sp_weight == cfg.sp_weight
    assert cfg.strategy_for(StrategyKind.XMIXUP).mixup == cfg.mixup
    assert cfg.strategy_for(StrategyKind.L2).mixup is None


# ----------------------------------------------------------------- pipeline

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One fully-run tiny pipeline shared by the read-only assertions below."""
    tmp = tmp_path_factory.mktemp("pipe")
    config = mini_config(tmp)
    out = tmp / "out"
    for cmd in ("gen-data", "pretrain", "pair", "finetune", "report"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 0
    return config, out


def test_pipeline_writes_expected_artifacts(pipeline):
    _, out = pipeline
    for name in (
        "source_train.csv",
        "source_test.csv",
        "target_train.csv",
        "target_test.csv",
        "planted.json",
        "pretrained.ckpt",
        "plan.csv",
        "manifest.json",
        "comparison.csv",
        "summary.csv",
        "comparison.svg",
    ):
        assert (out / name).exists(), name
    runs = sorted(p.name for p in (out / "runs").glob("*.json"))
    assert runs == ["l2-s0.json", "l2-s1.json", "xmixup-s0.json", "xmixup-s1.json"]


def test_comparison_csv_schema(pipeline):
    _, out = pipeline
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == COMPARISON_HEADER
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        strategy, seed, acc, faux, faba, tail = line.split(",")
        assert strategy in ("l2", "xmixup")
        assert int(seed) in (0, 1)
        for v in (acc, faux, faba, tail):
            float(v)


def test_manifest_lists_every_artifact(pipeline):
    _, out = pipeline
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) >= {
        "source_train",
        "pretrained",
        "plan",
        "run_l2-s0",
        "comparison",
    }
    assert manifest["config_hash"]


def test_rerun_is_byte_identical(tmp_path):
    config = mini_config(tmp_path)
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        for cmd in ("gen-data", "pretrain", "pair", "finetune", "report"):
            assert main([cmd, "--config", str(config), "--out", str(out)]) == 0
        trees.append(read_tree(out))
    assert trees[0] == trees[1]


def test_finetune_strategy_flag_limits_runs(tmp_path):
    config = mini_config(tmp_path, seeds=[0])
    out = tmp_path / "out"
    for cmd in ("gen-data", "pretrain", "pair"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 0
    assert main([
        "finetune", "--config", str(config), "--out", str(out),
        "--strategy", "l2",
    ]) == 0
    assert [p.name for p in sorted((out / "runs").glob("*.json"))] == ["l2-s0.json"]
    # a repeated flag would train one run twice and write it once
    assert main([
        "finetune", "--config", str(config), "--out", str(out),
        "--strategy", "xmixup", "--strategy", "xmixup",
    ]) == 2
    assert [p.name for p in sorted((out / "runs").glob("*.json"))] == ["l2-s0.json"]


# The lines each command prints on MINI, in the order of a full chain. They
# are the CLI's output format: a step may move where a line is formatted,
# not what it says.
STDOUT = {
    "gen-data": "source_train: 80 samples\nsource_test: 16 samples\n"
    "target_train: 30 samples\ntarget_test: 30 samples\n",
    "pretrain": "source test accuracy 0.3125\n",
    "pair": "selected 6 source classes in 1 round(s) (threshold 50)\n",
    "finetune": "l2 seed 0: accuracy 0.4000\nl2 seed 1: accuracy 0.6000\n"
    "xmixup seed 0: accuracy 0.2333\nxmixup seed 1: accuracy 0.4333\n",
    "sweep-alpha": "wrote sweep_alpha.csv (4 runs)\n",
    "sweep-size": "wrote sweep_size.csv (8 runs)\n",
    "randomize-aux": "wrote randomize_aux.csv (4 runs)\n",
    "ablate": "wrote ablate.csv (6 runs)\n",
    "report": "l2: 0.5000 ± 0.1414 over 2 run(s)\n"
    "xmixup: 0.3333 ± 0.1414 over 2 run(s)\n"
    "mixup-indomain: 0.3500 ± 0.0236 over 2 run(s)\n"
    "xmixup-nolabel: 0.4000 ± 0.0471 over 2 run(s)\n",
}


def test_every_command_prints_its_pinned_lines(tmp_path, capsys):
    config = mini_config(tmp_path)
    out = tmp_path / "out"
    printed = {}
    for cmd in STDOUT:
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 0, cmd
        printed[cmd] = capsys.readouterr().out
    assert printed == STDOUT


def test_sweeps_and_ablations_write_their_tables(tmp_path):
    # the second grid and seed list are out of order: sweep rows keep the
    # grid order, then the seed order as given, and randomize-aux lists the
    # centroid rows, then the random rows, each by ascending seed
    for name, seeds, alphas in (("a", [0], [1.0, 4.0]), ("b", [3, 1], [4.0, 1.0])):
        config = mini_config(tmp_path, seeds=seeds, alpha_grid=alphas)
        out = tmp_path / name
        for cmd in ("gen-data", "pretrain", "pair", "sweep-alpha", "randomize-aux"):
            assert main([cmd, "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "sweep_alpha.csv").read_text().splitlines()
        assert lines[0] == "alpha,seed,accuracy"
        cells = [(float(r.split(",")[0]), int(r.split(",")[1])) for r in lines[1:]]
        assert cells == [(a, s) for a in alphas for s in seeds]
        svg = (out / "sweep_alpha.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<circle") == len(alphas)   # one point per grid value

        rows = (out / "randomize_aux.csv").read_text().splitlines()
        assert rows[0] == "mode,seed,accuracy"
        cells = [(r.split(",")[0], int(r.split(",")[1])) for r in rows[1:]]
        assert cells == [(m, s) for m in ("centroid", "random") for s in sorted(seeds)]

    # ablate.csv lists the three recipes in a fixed order, each by ascending seed
    assert main(["ablate", "--config", str(config), "--out", str(out)]) == 0
    rows = (out / "ablate.csv").read_text().splitlines()
    assert rows[0].startswith("strategy,")
    cells = [(r.split(",")[0], int(r.split(",")[1])) for r in rows[1:]]
    assert cells == [
        (k, s) for k in ("xmixup", "mixup-indomain", "xmixup-nolabel") for s in (1, 3)
    ]


def test_sweep_size_reports_selection_growth(tmp_path):
    config = mini_config(tmp_path, seeds=[0], threshold_grid=[20, 70])
    out = tmp_path / "out"
    for cmd in ("gen-data", "pretrain", "pair"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 0
    assert main(["sweep-size", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "sweep_size.csv").read_text().splitlines()
    assert lines[0] == "threshold,selected_classes,selected_samples,seed,accuracy"
    by_threshold = {int(r.split(",")[0]): int(r.split(",")[2]) for r in lines[1:]}
    assert by_threshold[70] >= by_threshold[20] >= 20


def test_sweep_size_computes_the_centroids_once_per_domain(tmp_path, monkeypatch):
    config = mini_config(tmp_path, seeds=[0], threshold_grid=[20, 40, 70, 120])
    out = tmp_path / "out"
    for cmd in ("gen-data", "pretrain"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 0
    domains = []
    centroids = pairing.compute_centroids

    def spy(ds, params):
        domains.append(ds.domain.value)
        return centroids(ds, params)

    monkeypatch.setattr(pairing, "compute_centroids", spy)
    assert main(["sweep-size", "--config", str(config), "--out", str(out)]) == 0
    assert domains == ["source", "target"]


def test_random_plan_is_a_shuffled_cover():
    sizes = {c: 10 for c in range(8)}
    plan = random_plan(6, 8, sizes, 25, np.random.default_rng([0, 4]))
    assert set(plan.per_target) == set(range(6))
    picked = [s for group in plan.per_target.values() for s in group]
    assert len(picked) == len(set(picked))        # no source reused
    assert sum(sizes[s] for s in picked) >= 25    # budget met
    assert all(v == 0.0 for scores in plan.scores.values() for v in scores)
    other = random_plan(6, 8, sizes, 25, np.random.default_rng([1, 4]))
    assert plan.per_target != other.per_target
    with pytest.raises(ValueError):
        random_plan(9, 8, sizes, 25, np.random.default_rng(0))


# --------------------------------------------------------------- exit codes

def test_exit_codes(tmp_path):
    config = mini_config(tmp_path)
    out = tmp_path / "out"

    missing = main(["gen-data", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
    assert missing == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen-data", "--config", str(bad), "--out", str(out)]) == 2

    assert main([
        "gen-data", "--config", str(config), "--out", str(out),
        "--set", "data.noise=-1",
    ]) == 2

    # artifacts missing: pretrain before gen-data
    assert main(["pretrain", "--config", str(config), "--out", str(out)]) == 3

    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
    assert main(["pretrain", "--config", str(config), "--out", str(out)]) == 0
    assert main(["pair", "--config", str(config), "--out", str(out)]) == 0

    # a diverging learning rate must surface as a numeric failure
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([
            "finetune", "--config", str(config), "--out", str(out),
            "--strategy", "l2", "--set", "finetune.lr=1e9",
        ]) == 4


@pytest.mark.parametrize(
    "assignment",
    [
        "data.spread=NaN",
        "data.noise=Infinity",
        "data.source_test_fraction=NaN",
        "data.target_test_fraction=-Infinity",
        "pretrain.lr=NaN",
        "finetune.lr=NaN",
        "finetune.momentum=NaN",
        "finetune.weight_decay=Infinity",
        "finetune.lr_drop_factor=NaN",
        "mixup.alpha=NaN",
        "mixup.beta=Infinity",
        "probe.lr=NaN",
        "probe.test_fraction=NaN",
        "sp_weight=NaN",
        "alpha_grid=[1.0, NaN]",
    ],
)
def test_non_finite_config_floats_are_config_errors(tmp_path, assignment):
    config = mini_config(tmp_path)
    assert main([
        "finetune", "--config", str(config), "--out", str(tmp_path / "out"),
        "--set", assignment,
    ]) == 2


def test_target_split_too_small_for_the_spectrum_is_a_config_error(tmp_path, capsys):
    # 6 classes x (10 - round(10 * 0.8)) = 12 target-train rows < 32 features:
    # every command stops before it writes anything
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": {"target_per_class": 10}, "seeds": [0]}))
    out = tmp_path / "out"
    for cmd in ("gen-data", "pretrain", "pair", "finetune"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    assert "12 training rows" in capsys.readouterr().err
    # one more row per class (11 - 9 = 2, 12 rows) is still too few; at
    # target_per_class = 30 the split leaves 36 rows and the config loads
    for per_class, code in ((11, 2), (30, 0)):
        config.write_text(
            json.dumps({"data": {"target_per_class": per_class}, "seeds": [0]})
        )
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == code


def test_source_split_too_small_for_the_probe_is_a_config_error(tmp_path, capsys):
    # 3 - round(3 * 0.2) = 2 source-train rows per class, and the probe's
    # split holds out round(2 * 0.2) = 0 of them: every command stops before
    # it writes anything
    config = mini_config(tmp_path)
    out = tmp_path / "out"
    commands = [
        ["gen-data"], ["pretrain"], ["pair"], ["finetune"], ["sweep-alpha"],
        ["sweep-size"], ["randomize-aux"], ["ablate"], ["report"],
    ]
    for cmd in commands:
        assert main([
            *cmd, "--config", str(config), "--out", str(out),
            "--set", "data.source_per_class=3",
        ]) == 2, cmd
    assert not out.exists()
    assert "2 training rows per class" in capsys.readouterr().err
    # 4 - 1 = 3 rows per class hold out round(0.6) = 1: the config loads
    assert main([
        "gen-data", "--config", str(config), "--out", str(out),
        "--set", "data.source_per_class=4",
    ]) == 0


def test_an_unprobeable_subset_fails_before_any_cell_trains(
    tmp_path, capsys, monkeypatch
):
    # a threshold above every sample selects all 8 source classes, which
    # leaves the all-but-auxiliary probe subset empty
    config = mini_config(tmp_path, threshold=100_000)
    out = tmp_path / "out"
    for cmd in ("gen-data", "pretrain", "pair"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 0
    monkeypatch.setattr(harness, "finetune_cells", lambda *a: pytest.fail("trained"))
    cause = "lower `threshold` and rerun `pair`"
    for cmd in ("finetune", "ablate"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "cannot probe an empty subset (aba): the plan selects 8 of 8 " in err
        assert f"source classes at threshold 100000; {cause}\n" in err
    # without the last pairing of the last round the plan leaves one class
    plan = out / "plan.csv"
    lines = plan.read_text().splitlines()
    plan.write_text("\n".join(lines[:-1]) + "\n")
    assert len(load_plan(plan).selected_sources()) == 7
    for cmd in ("finetune", "ablate"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "degenerate probe: subset (aba) has a single class: the plan " in err
        assert f"selects 7 of 8 source classes at threshold 100000; {cause}\n" in err
    assert not (out / "runs").exists()


def test_a_diagnostic_numeric_error_names_its_run(tmp_path, capsys, monkeypatch):
    config = mini_config(tmp_path)
    out = tmp_path / "out"
    for cmd in ("gen-data", "pretrain", "pair"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 0

    def unsettled(models, ds, batch, seed=0):
        raise NumericError("Jacobi iteration did not settle in 60 sweeps", cell=1)

    monkeypatch.setattr(harness, "spectra", unsettled)
    assert main(["finetune", "--config", str(config), "--out", str(out)]) == 4
    # cells run strategy-major: l2 seeds 0 and 1, then xmixup
    assert "numeric error: l2-s1: Jacobi" in capsys.readouterr().err
    assert not (out / "runs").exists()


def test_corrupt_artifacts_are_data_errors(tmp_path):
    config = mini_config(tmp_path)
    out = tmp_path / "out"
    (out / "runs").mkdir(parents=True)
    (out / "runs" / "zz.json").write_text("{\"strategy\": \x01}")
    assert main(["report", "--config", str(config), "--out", str(out)]) == 3
    (out / "manifest.json").write_bytes(b"\xff\xfe")
    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 3


@pytest.mark.parametrize("command", ["gen-data", "pretrain", "finetune"])
def test_a_malformed_manifest_stops_a_command_before_it_writes(
    tiny_runs, tmp_path, command
):
    config, lab = tiny_runs
    out = tmp_path / "out"
    shutil.copytree(lab, out)
    (out / "manifest.json").write_bytes(b"[]")
    before = read_tree(out)
    # a second seed changes the config hash, so any file the command wrote
    # would differ from the lab's
    argv = [command, "--config", str(config), "--out", str(out), "--set", "seeds=[0, 1]"]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        assert main(argv) == 3
    assert stderr.getvalue().startswith("data error:")
    assert "manifest.json" in stderr.getvalue()
    assert read_tree(out) == before


def test_the_seed_variable_of_old_releases_changes_nothing(tmp_path, monkeypatch):
    # XMIXUP_SEED once overrode the seeds; `--set data.seed=7 --set
    # pretrain.seed=7 --set seeds=[7]` does that now
    config = mini_config(tmp_path)
    trees = []
    for seed in ("7", None):
        if seed is None:
            monkeypatch.delenv("XMIXUP_SEED")
        else:
            monkeypatch.setenv("XMIXUP_SEED", seed)
        out = tmp_path / f"seed-{seed}"
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
        trees.append(read_tree(out))
    assert trees[0] == trees[1]


@pytest.mark.parametrize(
    "text,overrides",
    [
        ("[]", ["--set", "seeds=[1]"]),
        ("[]", []),
        ('{"data": 5}', []),
        ('{"pretrain": [0]}', []),
        pytest.param(NESTED, [], id="nested-3000-deep"),
    ],
)
def test_a_config_that_is_not_an_object_exits_2_before_writing(
    tmp_path, text, overrides
):
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "out"
    argv = ["gen-data", "--config", str(config), "--out", str(out), *overrides]
    assert main(argv) == 2
    assert not out.exists()


def test_pair_uses_configured_threshold(tmp_path):
    config = mini_config(tmp_path, threshold=70)
    out = tmp_path / "out"
    for cmd in ("gen-data", "pretrain"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 0
    assert main(["pair", "--config", str(config), "--out", str(out)]) == 0
    plan = load_plan(out / "plan.csv")
    src_train = load_dataset(out / "source_train.csv")
    sizes = src_train.class_sizes()
    total = sum(sizes[c] for c in plan.selected_sources())
    assert total >= 70
    assert plan.n_rounds == 2   # one round of 6 classes is not enough


# ------------------------------------------------- fail fast on bad values

@pytest.mark.parametrize(
    "assignment",
    [
        "seeds=[1.5]",
        "seeds=[-1]",
        "seeds=[true]",
        "pretrain.batch_size=2.5",
        "finetune.iterations=true",
        "probe.seed=-2",
        "hidden=[0]",
        "hidden=[8, 2.5]",
        "alpha_grid=[-1]",
        "alpha_grid=[false]",
        "threshold=-5",
        "threshold=1.5",
        "threshold_grid=[-3]",
        "midtune_iterations=-1",
        "sp_weight=-0.5",
        "mixup.seed=0.5",
        "finetune.seed=7",
        "data.m=2.0",
        "data.planted=[0, 0]",
        "data.planted=[0, 99]",
        "data.novel=7",
        "data.d=1",
        "data.seed=-1",
        "data.target_test_fraction=1",
        "seeds=\"abc\"",
        "strategies=[1]",
        "strategies=l2",
        'strategies={"l2": 1, "xmixup": 2}',
        "seeds=[0, 0]",
        "strategies=[\"l2\", \"xmixup\", \"l2\"]",
        "alpha_grid=[2.0, 2.0]",
        "alpha_grid=[1, 1.0]",
        "threshold_grid=[30, 30]",
        "alpha_grid=[]",
        "alpha_grid=\"\"",
        "threshold_grid=\"\"",
        pytest.param("finetune.lr=1" + "0" * 400, id="finetune.lr=10**400"),
        pytest.param("data.noise=-1" + "0" * 400, id="data.noise=-10**400"),
        pytest.param(
            "alpha_grid=[1.0, 1" + "0" * 400 + "]", id="alpha_grid=[1.0, 10**400]"
        ),
        pytest.param("finetune.lr=1" + "0" * 5000, id="finetune.lr=10**5000"),
        pytest.param("seeds=" + NESTED, id="seeds=nested-3000-deep"),
    ],
)
def test_bad_config_values_exit_2_in_every_command_before_writing(tmp_path, assignment):
    config = mini_config(tmp_path)
    out = tmp_path / "out"
    for cmd in ("gen-data", "pretrain", "pair", "finetune", "sweep-alpha", "report"):
        assert main([
            cmd, "--config", str(config), "--out", str(out), "--set", assignment,
        ]) == 2, cmd
    assert not out.exists()


@pytest.mark.parametrize("field", sorted(DATA_MAXIMA))
def test_a_data_count_above_its_maximum_exits_2_before_writing(tmp_path, field):
    config = mini_config(tmp_path)
    out = tmp_path / "out"
    maximum = DATA_MAXIMA[field]
    for value in (str(maximum + 1), "1" + "0" * 400):
        for cmd in ("gen-data", "pretrain", "finetune"):
            assert main([
                cmd, "--config", str(config), "--out", str(out),
                "--set", f"data.{field}={value}",
            ]) == 2, (cmd, value)
    assert not out.exists()
    # the maximum itself is a valid count; configs under the maxima keep the
    # hashes they had before the maxima existed
    at_max = {"data": {field: maximum}}
    assert config_from_json(at_max).data == replace(DataSpec(), **at_max["data"])
    assert config_from_json({}).hash() == "74b1b57d97ce"
    assert config_from_json({"data": {"m": 1000, "d": 10000}}).hash() == "fe0b0a4b1d92"


def every_command(config: Path, out: Path, assignment: str):
    """The argument lists of every command on `config` under one --set."""
    for cmd in (
        "gen-data", "pretrain", "pair", "finetune", "sweep-alpha",
        "sweep-size", "randomize-aux", "ablate", "report",
    ):
        yield [cmd, "--config", str(config), "--out", str(out), "--set", assignment]


@pytest.mark.parametrize("budget", sorted(ITERATION_MAXIMA))
def test_an_iteration_count_above_its_maximum_exits_2_before_writing(tmp_path, budget):
    config = mini_config(tmp_path)
    out = tmp_path / "out"
    maximum = ITERATION_MAXIMA[budget]
    for value in (str(maximum + 1), "1" + "0" * 400):
        for args in every_command(config, out, f"{budget}.iterations={value}"):
            assert main(args) == 2, (args[0], value)
    assert not out.exists()
    # the maximum itself loads (nothing runs it here); configs under the
    # maxima keep the hashes they had before the maxima existed
    at_max = config_from_json({budget: {"iterations": maximum}})
    assert getattr(at_max, budget).iterations == maximum
    hashes = {
        "pretrain": "56c780c49e41", "finetune": "464478065f87", "probe": "3f6703d6f3de",
    }
    assert at_max.hash() == hashes[budget]
    assert config_from_json({}).hash() == "74b1b57d97ce"


@pytest.mark.parametrize(
    "field, maximum, at_max_hash",
    [
        ("pretrain.batch_size", BATCH_MAXIMA["pretrain"], "9e1caee33125"),
        ("finetune.batch_size", BATCH_MAXIMA["finetune"], "d4219e13d9b4"),
        ("seeds", SEED_MAXIMUM, "d708fad2cdff"),
    ],
    ids=["pretrain.batch_size", "finetune.batch_size", "seeds"],
)
def test_a_batch_size_or_seed_above_its_maximum_exits_2_before_writing(
    tmp_path, field, maximum, at_max_hash
):
    # a huge batch size used to end in numpy's refusal of the index block's
    # shape, and a huge seed in a run record's file name too long to write
    config = mini_config(tmp_path)
    out = tmp_path / "out"
    for value in (str(maximum + 1), "1" + "0" * 400):
        setting = f"seeds=[0, {value}]" if field == "seeds" else f"{field}={value}"
        for args in every_command(config, out, setting):
            assert main(args) == 2, (args[0], value)
    assert not out.exists()
    # the maximum itself loads, with the hash it had before the maxima existed
    section, _, name = field.partition(".")
    raw = {section: {name: maximum}} if name else {section: [maximum]}
    assert config_from_json(raw).hash() == at_max_hash
    assert config_from_json({}).hash() == "74b1b57d97ce"


@pytest.mark.parametrize(
    "field, maximum, at_max_hash",
    [
        ("hidden", WIDTH_MAXIMUM, "fe28d50848da"),
        ("threshold", THRESHOLD_MAXIMUM, "44ccbabb4698"),
        ("threshold_grid", THRESHOLD_MAXIMUM, "039d6b3c283e"),
    ],
    ids=["hidden", "threshold", "threshold_grid"],
)
def test_a_width_or_threshold_above_its_maximum_exits_2_before_writing(
    tmp_path, field, maximum, at_max_hash
):
    # a huge width used to end in pretrain's OverflowError after gen-data
    # had written, and a huge threshold to select every class in pair and to
    # end in finetune's data error, "cannot probe an empty subset"
    config = mini_config(tmp_path)
    out = tmp_path / "out"
    for value in (str(maximum + 1), "1" + "0" * 400):
        scalar = field == "threshold"
        setting = f"{field}={value}" if scalar else f"{field}=[{value}, 4]"
        for args in every_command(config, out, setting):
            assert main(args) == 2, (args[0], value)
    assert not out.exists()
    # the maximum itself loads, with the hash it had before the maxima existed
    raw = {field: maximum} if scalar else {field: [maximum, 32]}
    assert config_from_json(raw).hash() == at_max_hash
    assert config_from_json({}).hash() == "74b1b57d97ce"


def test_a_feature_width_above_the_spectrum_rows_exits_2_before_writing(
    tmp_path, capsys
):
    # 3300 target-train rows, of which the spectrum takes SPECTRUM_ROWS (512):
    # a width of 600 used to pass every check and end finetune in a traceback
    config = mini_config(tmp_path, data=MINI["data"] | {"target_per_class": 1100})
    out = tmp_path / "out"
    for args in every_command(config, out, "hidden=[6, 600]"):
        assert main(args) == 2, args[0]
    assert not out.exists()
    err = capsys.readouterr().err
    assert "takes 512 of the target split's 3300 training rows" in err
    # a width of SPECTRUM_ROWS itself loads
    wide = {"hidden": [6, SPECTRUM_ROWS], "data": {"target_per_class": 1100}}
    assert config_from_json(wide).hidden == (6, SPECTRUM_ROWS)


def test_a_midtune_budget_above_the_finetune_budget_exits_2_before_writing(tmp_path):
    # it used to fail only in finetune, after training the stacks before
    # seqtrain's and after gen-data, pretrain and pair had written
    config = mini_config(tmp_path, seeds=[0], strategies=["l2", "seqtrain"])
    out = tmp_path / "out"
    budget = MINI["finetune"]["iterations"]
    for args in every_command(config, out, f"midtune_iterations={budget + 1}"):
        assert main(args) == 2, args[0]
    assert not out.exists()
    # the whole budget is still a valid first phase, with its old hash
    at_budget = config_from_json({"midtune_iterations": 600})
    assert at_budget.strategy_for(StrategyKind.SEQ_TRAIN).midtune_iterations == 600
    assert at_budget.hash() == "b3746c6fa78c"
    assert config_from_json({"midtune_iterations": 300}).hash() == "b8c808f31399"


def test_data_that_cannot_be_drawn_exits_3_before_writing(tmp_path, monkeypatch):
    # class means 5 apart cannot be placed at data.noise=10: gen-data used to
    # make --out first and leave it behind empty, as every command did
    monkeypatch.setattr(dataset, "_MAX_MEAN_TRIES", 100)
    config = mini_config(tmp_path)
    out = tmp_path / "out"
    for args in every_command(config, out, "data.noise=10"):
        assert main(args) == 3, args[0]
    assert not out.exists()


# ------------------------------------------- reports join one config only

def test_report_rejects_run_records_of_another_config(tmp_path, capsys):
    config = mini_config(tmp_path, seeds=[0])
    out = tmp_path / "out"
    for cmd in ("gen-data", "pretrain", "pair"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 0
    finetune_l2 = [
        "finetune", "--config", str(config), "--out", str(out), "--strategy", "l2",
    ]
    assert main(finetune_l2) == 0
    # the same data and checkpoint, a second config differing only in its lr
    assert main(finetune_l2 + ["--set", "finetune.lr=0.02", "--set", "seeds=[1]"]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "l2-s1.json" in err and "config_hash" in err
    assert not (out / "comparison.csv").exists()
    # this config's records alone (a --strategy subset) still report
    (out / "runs" / "l2-s1.json").unlink()
    assert main(["report", "--config", str(config), "--out", str(out)]) == 0


def test_report_after_ablate_lists_every_record_in_both_tables(tmp_path):
    # ablate's recipes are not among the configured strategies: report used
    # to write them into comparison.csv but not into summary.csv, and to fail
    # on an empty chart when no record held a configured strategy
    config = mini_config(tmp_path, seeds=[0], strategies=["l2"])
    out = tmp_path / "out"
    for cmd in ("gen-data", "pretrain", "pair", "finetune", "ablate", "report"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 0, cmd
    # the configured strategies first, then the others in StrategyKind order
    order = ["l2", "mixup-indomain", "xmixup", "xmixup-nolabel"]
    for table in ("comparison.csv", "summary.csv"):
        rows = (out / table).read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == order, table


# ------------------------------------- artifacts that do not fit together

def test_artifacts_that_do_not_fit_are_data_errors(tmp_path, capsys):
    config = mini_config(tmp_path, seeds=[0], strategies=["l2"])
    out = tmp_path / "out"
    for cmd in ("gen-data", "pretrain", "pair"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 0
    # a checkpoint of another input width
    checkpoint = out / "pretrained.ckpt"
    pretrained = checkpoint.read_bytes()
    save_params(init(5, [8, 6], 6, seed=0), checkpoint)
    capsys.readouterr()
    assert main(["pair", "--config", str(config), "--out", str(out)]) == 3
    assert "takes inputs of width 5, the data has 3" in capsys.readouterr().err
    checkpoint.write_bytes(pretrained)
    # the target test split rewritten one column narrower than the rest
    test = load_dataset(out / "target_test.csv")
    narrow = Dataset(test.X[:, :2], test.y, test.class_count, test.domain)
    save_dataset(narrow, out / "target_test.csv")
    for cmd in ("pair", "finetune"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("data error") == 2 and "target_test.csv has width 2" in err


def test_a_split_header_of_an_absurd_class_count_is_a_data_error(tmp_path, capsys):
    # the count agrees across a domain's two splits, so only the config can
    # tell it is wrong; it used to end in numpy's "Unable to allocate 42.6 PiB"
    config = mini_config(tmp_path, seeds=[0], strategies=["l2"])
    out = tmp_path / "out"
    for cmd in ("gen-data", "pretrain", "pair"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 0
    for domain, commands in (
        ("source", ("pretrain", "pair", "finetune")),
        ("target", ("pair", "finetune")),
    ):
        originals = {}
        for split in ("train", "test"):
            path = out / f"{domain}_{split}.csv"
            originals[path] = path.read_text()
            rows = originals[path].split("\n", 1)[1]
            path.write_text(f"{domain},1000000000000000,3\n{rows}")
        capsys.readouterr()
        for cmd in commands:
            assert main([cmd, "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        claim = f"{domain}_train.csv has 1000000000000000 classes"
        assert err.count(claim) == len(commands) and "`gen-data`" in err
        for path, text in originals.items():
            path.write_text(text)


# ------------------------------------------------- a grid's cells as stacks


def train_grid(cfg, lab, cells):
    """finetune_cells of the cells on the lab's artifacts, as a step calls it."""
    return finetune_cells(
        lab.pretrained, lab.tgt_train, lab.src_train, cells, cfg.finetune, lab.tgt_test
    )


def test_run_grid_returns_each_cell_as_if_trained_alone(tmp_path):
    config = mini_config(tmp_path)
    out = tmp_path / "out"
    for cmd in ("gen-data", "pretrain", "pair"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 0
    cfg = config_from_json(json.loads(config.read_text()))
    lab = load_lab(out, cfg.data)
    other = random_plan(6, 8, lab.src_train.class_sizes(), 50, np.random.default_rng(3))
    mix = [MixupConfig(alpha=a, beta=2.0) for a in (1.0, 4.0)]
    cells = [  # interleaved kinds and plans: four groups of one to two cells
        Cell(Strategy.xmixup(mix[0]), 0, lab.plan),
        Cell(Strategy.l2(), 1, lab.plan),
        Cell(Strategy.xmixup(mix[1]), 1, other),
        Cell(Strategy.xmixup(mix[1]), 2, lab.plan),
        Cell(Strategy.cotrain(), 0, lab.plan),
        Cell(Strategy.xmixup(mix[0]), 0, other),
    ]
    results = train_grid(cfg, lab, cells)
    assert len(results) == len(cells)
    for cell, got in zip(cells, results):
        alone = finetune(
            lab.pretrained, lab.tgt_train, lab.src_train, cell.plan, cell.strategy,
            replace(cfg.finetune, seed=cell.seed), lab.tgt_test,
        )
        assert got.params.flat.tobytes() == alone.params.flat.tobytes()
        assert got.trace == alone.trace and got.accuracy == alone.accuracy


@pytest.fixture(scope="module")
def mini_lab(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lab")
    config = mini_config(tmp)
    out = tmp / "out"
    for cmd in ("gen-data", "pretrain", "pair"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 0
    cfg = config_from_json(json.loads(config.read_text()))
    return cfg, load_lab(out, cfg.data)


def seven_strategies(cfg, lab, seeds):
    return [
        Cell(cfg.strategy_for(kind), seed, lab.plan)
        for kind in StrategyKind
        for seed in seeds
    ]


def test_run_grid_gives_every_strategy_its_lone_run(mini_lab):
    # two stacks of mixed strategies: seqtrain switches phase mid-stack, and
    # l2 with l2sp and xmixup with xmixup-nolabel share their draws
    cfg, lab = mini_lab
    cells = seven_strategies(cfg, lab, (0, 3))
    results = train_grid(cfg, lab, cells)
    for cell, got in zip(cells, results):
        alone = finetune(
            lab.pretrained, lab.tgt_train, lab.src_train, cell.plan, cell.strategy,
            replace(cfg.finetune, seed=cell.seed), lab.tgt_test,
        )
        assert got.params.flat.tobytes() == alone.params.flat.tobytes()
        assert np.array(got.trace).tobytes() == np.array(alone.trace).tobytes()
        assert got.accuracy == alone.accuracy and got.config == alone.config


def test_run_grid_trains_seven_strategies_at_five_seeds_as_two_stacks(
    mini_lab, monkeypatch
):
    # one stack per label space, whatever the number of cells: l2, l2sp and
    # in-domain mixup; xmixup, xmixup-nolabel, seqtrain and cotrain
    cfg, lab = mini_lab
    cfg = replace(cfg, seeds=(0, 1, 2, 3, 4))
    stacks = []
    real_train = training._train

    def counted_train(stack, pool, cells, *args):
        stacks.append(len(cells))
        return real_train(stack, pool, cells, *args)

    monkeypatch.setattr(training, "_train", counted_train)
    cells = seven_strategies(cfg, lab, cfg.seeds)
    results = train_grid(cfg, lab, cells)
    assert sorted(stacks) == [15, 20]
    for cell, got in zip(cells, results):
        alone = finetune(
            lab.pretrained, lab.tgt_train, lab.src_train, cell.plan, cell.strategy,
            replace(cfg.finetune, seed=cell.seed), lab.tgt_test,
        )
        assert got.params.flat.tobytes() == alone.params.flat.tobytes()
        assert got.trace == alone.trace and got.accuracy == alone.accuracy


class CountingGenerator:
    """A generator that logs each call as (its seed sequence, the method)."""

    def __init__(self, rng, entropy, log):
        self._rng, self._entropy, self._log = rng, entropy, log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            self._log.append((self._entropy, name))
            return method(*args, **kwargs)

        return call


def test_seven_strategies_at_one_seed_train_as_two_stacks(mini_lab, monkeypatch):
    cfg, lab = mini_lab
    cfg = replace(cfg, finetune=ExperimentConfig().finetune)  # 600 iterations
    stacks, steps, draws = [], [], []
    real_train, real_step = training._train, training.sgd_step
    real_rng = np.random.default_rng

    def counted_train(stack, pool, cells, *args):
        stacks.append([s.kind for s, _ in cells])
        return real_train(stack, pool, cells, *args)

    def counted_step(*args, **kwargs):
        steps.append(1)
        return real_step(*args, **kwargs)

    def counted_rng(entropy):
        rng = real_rng(entropy)
        if entropy[1] == 0:  # a head's initialization, not a batch draw
            return rng
        draws.append((tuple(entropy), "made"))
        return CountingGenerator(rng, tuple(entropy), draws)

    monkeypatch.setattr(training, "_train", counted_train)
    monkeypatch.setattr(training, "sgd_step", counted_step)
    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    train_grid(cfg, lab, seven_strategies(cfg, lab, (0,)))
    assert len(stacks) == 2 and sorted(map(len, stacks)) == [3, 4]
    assert len(steps) == 2 * 600
    # l2sp and xmixup-nolabel make no generator and no call of their own:
    # without them, the grid makes the same generators and the same calls
    seven = sorted(draws)
    draws.clear()
    shared = {StrategyKind.L2SP, StrategyKind.XMIXUP_NO_LABEL}
    cells = seven_strategies(cfg, lab, (0,))
    train_grid(cfg, lab, [c for c in cells if c.strategy.kind not in shared])
    assert seven == sorted(draws)


def test_run_grid_reports_a_diverging_cell_by_its_grid_index(mini_lab):
    # l2 and l2sp form the grid's second stack, where l2sp is row 1
    cfg, lab = mini_lab
    cells = [
        Cell(cfg.strategy_for(StrategyKind.XMIXUP), 0, lab.plan),
        Cell(Strategy.l2(), 0, lab.plan),
        Cell(Strategy.l2sp(1e300), 0, lab.plan),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"^l2sp seed 0: ") as info:
            train_grid(cfg, lab, cells)
    assert info.value.cell == 2


# ---------------------------------------------- fuzzed --set values

TINY = {
    "data": {
        "m": 6, "source_per_class": 6, "d": 3, "planted": [0, 1], "novel": 1,
        "target_per_class": 8, "target_test_fraction": 0.5,
    },
    "hidden": [6, 4],
}
DEFAULTS = {
    f"{section}.{key}": value
    for section, fields in ExperimentConfig().to_json().items()
    if isinstance(fields, dict)
    for key, value in fields.items()
} | {
    key: value
    for key, value in ExperimentConfig().to_json().items()
    if not isinstance(value, dict)
}
SCHEMA_KEYS = sorted(DEFAULTS)
SCALARS = st.one_of(
    st.integers(min_value=-5, max_value=12),
    st.floats(min_value=-10, max_value=10),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300, -0.0]),
    st.booleans(),
    st.text(max_size=6),
    st.none(),
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4))


@settings(
    max_examples=60,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    overrides=st.lists(
        st.tuples(st.sampled_from(SCHEMA_KEYS), VALUES), min_size=1, max_size=3
    )
)
def test_fuzzed_set_values_end_in_a_documented_exit_code(overrides):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(TINY))
        argv = ["gen-data", "--config", str(config), "--out", str(Path(tmp) / "out")]
        for key, value in overrides:
            argv += ["--set", f"{key}={json.dumps(value)}"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(argv)  # any exception fails the test with its traceback
        assert code in (0, 2, 3)


# The training commands on a lab of TINY, with a few iterations of each loop
# and a pairing round that leaves source classes for the forgetting probe.
TINY_LAB = {
    **TINY,
    "pretrain": {"iterations": 6, "lr_drop_at": 4, "batch_size": 8},
    "finetune": {"iterations": 4, "lr_drop_at": 2, "batch_size": 8},
    "probe": {"iterations": 3},
    "threshold": 10,
    "seeds": [0, 1],
    "alpha_grid": [1.0, 4.0],
}


@pytest.fixture(scope="module")
def tiny_lab(tmp_path_factory):
    """gen-data, pretrain and pair of TINY_LAB: (config, output directory)."""
    root = tmp_path_factory.mktemp("tiny_lab")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_LAB))
    for cmd in ("gen-data", "pretrain", "pair"):
        assert main([cmd, "--config", str(config), "--out", str(root / "out")]) == 0
    return config, root / "out"


def typed_values(default):
    """Values of the default's JSON type, most of them in range: without
    them nearly every fuzzed config stops at its checks."""
    if isinstance(default, (list, tuple)):
        named = default and isinstance(default[0], str)
        items = st.sampled_from(default) if named else st.integers(0, 12)
        return st.lists(items, min_size=1, max_size=3, unique=True)
    if isinstance(default, float):
        return st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
    return st.integers(min_value=0, max_value=12)


@pytest.mark.parametrize("command", ["pretrain", "finetune", "sweep-alpha"])
@settings(
    max_examples=30,
    deadline=timedelta(seconds=10),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    typed=st.lists(
        st.sampled_from(SCHEMA_KEYS).flatmap(
            lambda key: st.tuples(st.just(key), typed_values(DEFAULTS[key]))
        ),
        min_size=1,
        max_size=3,
    ),
    wild=st.lists(st.tuples(st.sampled_from(SCHEMA_KEYS), VALUES), max_size=1),
)
def test_fuzzed_set_values_in_training_commands_end_in_a_documented_exit_code(
    tiny_lab, command, typed, wild
):
    config, lab = tiny_lab
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(lab, out)
        argv = [command, "--config", str(config), "--out", str(out)]
        for key, value in typed + wild:
            argv += ["--set", f"{key}={json.dumps(value)}"]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            stderr
        ):
            code = main(argv)  # any exception fails the test with its traceback
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in stderr.getvalue()


def test_a_diverging_finetune_exits_4_naming_the_cell_without_a_warning(tiny_lab, tmp_path):
    # a first layer scaled by 1e160 overflows the logits: numpy used to warn
    # of the overflow before the checks raised
    config, lab = tiny_lab
    out = tmp_path / "out"
    shutil.copytree(lab, out)
    params = load_params(out / "pretrained.ckpt")
    params.layers[0][0][...] *= 1e160
    save_params(params, out / "pretrained.ckpt")
    stderr = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["finetune", "--config", str(config), "--out", str(out)])
    assert code == 4
    cell = r"[a-z-]+ seed \d( alpha \S+)?"  # a strategy, its seed and any alpha
    assert re.search(cell + r": iteration \d+: non-finite", stderr.getvalue())


def test_a_subnormal_beta_exits_4_without_a_warning(tiny_lab, tmp_path):
    # 1 / β overflows in the Gamma boost: every boosted draw is then 0, and
    # the λ redraws give up
    config, lab = tiny_lab
    out = tmp_path / "out"
    shutil.copytree(lab, out)
    argv = ["sweep-alpha", "--config", str(config), "--out", str(out)]
    argv += ["--set", "mixup.beta=2.225073858507203e-309"]
    stderr = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code == 4
    assert "gave no draw inside (0, 1)" in stderr.getvalue()
    assert "Warning" not in stderr.getvalue()


def test_non_finite_features_exit_4_in_pair_and_eval_writing_nothing(
    tiny_lab, tmp_path
):
    # every parameter scaled so the largest is 1e300: the features overflow,
    # and pair used to write NaN similarities
    config, lab = tiny_lab
    out = tmp_path / "out"
    shutil.copytree(lab, out)
    params = load_params(out / "pretrained.ckpt")
    params.flat *= 1e300 / np.abs(params.flat).max()
    save_params(params, out / "pretrained.ckpt")
    before = read_tree(out)
    stderr = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            stderr
        ):
            code = main(["pair", "--config", str(config), "--out", str(out)])
    assert code == 4
    assert "non-finite features" in stderr.getvalue()
    assert read_tree(out) == before


# ------------------------------------------------ malformed artifacts
# Artifacts of a TINY_LAB lab, finetune included, edited or mutated on a
# copy, then read by a command: a malformed artifact exits 3, never with a
# traceback.


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """A lab of TINY_LAB at one seed, `finetune` included: (config, directory)."""
    root = tmp_path_factory.mktemp("tiny_runs")
    config = root / "config.json"
    config.write_text(json.dumps({**TINY_LAB, "seeds": [0]}))
    with contextlib.redirect_stdout(io.StringIO()):
        for cmd in ("gen-data", "pretrain", "pair", "finetune"):
            assert main([cmd, "--config", str(config), "--out", str(root / "out")]) == 0
    return config, root / "out"


def run_on_copy(tiny_runs, artifact, edit, command, tmp):
    """Run `command` on a copy of tiny_runs whose `artifact` is
    edit(its bytes): (exit code, stderr)."""
    config, lab = tiny_runs
    out = Path(tmp) / "out"
    shutil.copytree(lab, out)
    path = out / artifact
    path.write_bytes(edit(path.read_bytes()))
    argv = [command, "--config", str(config), "--out", str(out)]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)  # any exception fails the test with its traceback
    return code, stderr.getvalue()


def test_a_plan_the_source_split_cannot_serve_fails_before_any_stack_trains(
    tiny_runs, tmp_path, monkeypatch
):
    # the plan pairs a source class whose rows are gone from source_train.csv:
    # finetune names it before the l2, l2sp and mixup-indomain stack trains
    gone = load_plan(tiny_runs[1] / "plan.csv").selected_sources()[0]

    def drop(data):
        head, *rows = data.decode().split("\n")
        kept = [row for row in rows if row.split(",")[0] != str(gone)]
        return "\n".join([head, *kept]).encode()

    real_train, entered = training._train, []

    def counted_train(*args):
        entered.append(args)
        return real_train(*args)

    monkeypatch.setattr(training, "_train", counted_train)
    code, err = run_on_copy(tiny_runs, "source_train.csv", drop, "finetune", tmp_path)
    assert code == 3, err
    assert f"source class {gone} has no samples to draw from" in err
    assert entered == []


def plan_source(row, source=None):
    """An edit of plan.csv: the source class of entry `row` set to `source`,
    or by default to the source class of entry 0."""
    def edit(data):
        lines = data.decode().split("\n")
        entry = lines[2 + row].split(",")
        entry[2] = source if source is not None else lines[2].split(",")[2]
        lines[2 + row] = ",".join(entry)
        return "\n".join(lines).encode()
    return edit


def csv_field(row, col, value):
    """An edit of a CSV artifact: field `col` of line `row` (0-based) set to `value`."""
    def edit(data):
        lines = data.decode().split("\n")
        fields = lines[row].split(",")
        fields[col] = value
        lines[row] = ",".join(fields)
        return "\n".join(lines).encode()
    return edit


CKPT = b"XMIXUP-CKPT-1\n"


def json_edit(change):
    def edit(data):
        obj = json.loads(data)
        return json.dumps(change(obj)).encode()
    return edit


def nan_last(data):
    return data[:-8] + np.array([np.nan], "<f8").tobytes()


MALFORMED = {
    "plan-source-minus-1": ("plan.csv", plan_source(0, "-1"), "sweep-alpha"),
    "plan-source-minus-1-finetune": ("plan.csv", plan_source(0, "-1"), "finetune"),
    # entries 0 and 1 are round 1 of targets 0 and 1
    "plan-source-twice-in-a-round": ("plan.csv", plan_source(1), "finetune"),
    "ckpt-layer-count-minus-1": ("pretrained.ckpt", lambda d: CKPT + b"-1\n", "pair"),
    "ckpt-layer-count-0": (
        "pretrained.ckpt", lambda d: CKPT + b"0\n2 3\n" + np.ones(8).tobytes(), "pair"
    ),
    "ckpt-layers-do-not-chain": (
        "pretrained.ckpt",
        lambda d: CKPT + b"1\n4 3\n2 5\n" + np.ones(28).tobytes(),
        "pair",
    ),
    "ckpt-nan-weight": ("pretrained.ckpt", nan_last, "pair"),
    "manifest-list": ("manifest.json", lambda d: b"[]", "pair"),
    "manifest-nested-3000-deep": ("manifest.json", lambda d: NESTED.encode(), "pair"),
    "record-nested-3000-deep": ("runs/l2-s0.json", lambda d: NESTED.encode(), "report"),
    "manifest-artifacts-list": (
        "manifest.json", json_edit(lambda m: m | {"artifacts": [1]}), "report"
    ),
    "record-without-accuracy": (
        "runs/l2-s0.json",
        json_edit(lambda r: {k: v for k, v in r.items() if k != "accuracy"}),
        "report",
    ),
    "record-accuracy-not-a-number": (
        "runs/l2-s0.json", json_edit(lambda r: r | {"accuracy": "high"}), "report"
    ),
    "record-accuracy-beyond-float": (
        "runs/l2-s0.json", json_edit(lambda r: r | {"accuracy": 10**400}), "report"
    ),
    "record-seed-not-an-integer": (
        "runs/l2-s0.json", json_edit(lambda r: r | {"seed": "0"}), "report"
    ),
    # l2sp's record relabelled as l2's reads as a copy of l2-s0.json renamed
    "record-renamed-copy": (
        "runs/l2sp-s0.json", json_edit(lambda r: r | {"strategy": "l2"}), "report"
    ),
    "record-of-an-unknown-strategy": (
        "runs/l2-s0.json", json_edit(lambda r: r | {"strategy": "warp-speed"}), "report"
    ),
    "record-accuracy-of-5000-digits": (
        "runs/l2-s0.json",
        lambda d: re.sub(rb'"accuracy": [^,\n]+', b'"accuracy": 1' + b"0" * 5000, d),
        "report",
    ),
    # a field of line 3 of a CSV file
    "dataset-label-x": ("target_train.csv", csv_field(1, 0, "x"), "pretrain"),
    # the header of a target split swapped in for the source split
    "dataset-of-the-other-domain": (
        "source_train.csv", csv_field(0, 0, "target"), "pretrain"
    ),
    "plan-entry-x": ("plan.csv", csv_field(2, 1, "x"), "finetune"),
    "plan-similarity-nan": ("plan.csv", csv_field(2, 3, "nan"), "finetune"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_artifacts_exit_3_naming_the_file(tiny_runs, tmp_path, case):
    artifact, edit, command = MALFORMED[case]
    code, err = run_on_copy(tiny_runs, artifact, edit, command, tmp_path)
    assert code == 3, err
    assert err.startswith("data error:") and artifact in err


@pytest.mark.parametrize(
    "artifact, command",
    [
        ("plan.csv", "finetune"),
        ("target_train.csv", "pair"),
        ("target_train.csv", "finetune"),
    ],
)
def test_a_csv_artifact_that_is_not_utf8_exits_3_naming_the_file(
    tiny_runs, tmp_path, artifact, command
):
    code, err = run_on_copy(
        tiny_runs, artifact, lambda d: b"\xff\xfe", command, tmp_path
    )
    assert code == 3, err
    assert err.startswith("data error:") and artifact in err


def test_paths_of_the_wrong_kind_exit_with_their_documented_code(
    tiny_runs, tmp_path, capsys
):
    config, lab = tiny_runs
    # a directory as the config file is a configuration error
    assert main(["pretrain", "--config", str(tmp_path), "--out", str(lab)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    # a regular file as the output directory is a data error that says so;
    # nothing is written
    out = tmp_path / "out"
    out.write_text("")
    for cmd in ("gen-data", "pretrain", "report"):
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: --out {out} is not a directory\n", cmd
    assert out.read_text() == "" and sorted(tmp_path.iterdir()) == [out]


# One field or line of one artifact mutated: a field of a CSV line or of a
# checkpoint shape line replaced, a line dropped or repeated, one JSON value
# replaced or deleted, one checkpoint parameter replaced or the payload cut.

FIELDS = st.one_of(
    st.integers(min_value=-1, max_value=8).map(str),
    st.sampled_from(["", "x", "nan", "inf", "1e300", "-0", "0.5", "99999999999999"]),
)
JSON_VALUES = st.one_of(
    VALUES, st.dictionaries(st.text(max_size=3), SCALARS, max_size=2)
)
PARAMETERS = st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, 1.0])


def mutate_lines(text: str, sep: str, draw) -> str:
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["field", "drop", "repeat"]))
    if op == "field":
        cols = lines[i].split(sep)
        j = draw(st.integers(0, len(cols) - 1))
        # any value, or one this column holds on another line
        column = [line.split(sep)[j] for line in lines if line.count(sep) >= j]
        cols[j] = draw(st.one_of(FIELDS, st.sampled_from(column)))
        lines[i] = sep.join(cols)
    elif op == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "\n".join(lines)


def mutate_csv(data: bytes, draw) -> bytes:
    return mutate_lines(data.decode(), ",", draw).encode()


def mutate_json(data: bytes, draw) -> bytes:
    obj = json.loads(data)
    # the root, a key, or a key of a nested object, each about as often
    paths = [st.just(()), st.sampled_from([(k,) for k in obj])]
    nested = [(k, j) for k, v in obj.items() if isinstance(v, dict) for j in v]
    if nested:
        paths.append(st.sampled_from(nested))
    path = draw(st.one_of(paths))
    value = draw(JSON_VALUES)
    if not path:
        return json.dumps(value).encode()
    node = obj
    for key in path[:-1]:
        node = node[key]
    if draw(st.booleans()):
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(obj).encode()


def mutate_checkpoint(data: bytes, draw) -> bytes:
    n_header = int(data.split(b"\n")[1]) + 3  # magic, count, one shape per layer
    *header, payload = data.split(b"\n", n_header)
    op = draw(st.sampled_from(["header", "parameter", "cut"]))
    if op == "header":
        text = mutate_lines(b"\n".join(header[1:]).decode(), " ", draw)
        return b"\n".join([header[0], text.encode(), payload])
    if op == "cut":
        return b"\n".join(header + [payload[: -draw(st.integers(1, 16))]])
    params = np.frombuffer(payload, "<f8").copy()
    params[draw(st.integers(0, params.size - 1))] = draw(PARAMETERS)
    return b"\n".join(header + [params.tobytes()])


MUTATE = {".csv": mutate_csv, ".json": mutate_json, ".ckpt": mutate_checkpoint}
READERS = {
    "plan.csv": ["finetune", "sweep-alpha"],
    "pretrained.ckpt": ["pair", "finetune"],
    "manifest.json": ["pair", "report"],
    "runs/l2-s0.json": ["report"],
    "source_train.csv": ["pretrain", "pair", "finetune"],
    "target_train.csv": ["pair", "finetune"],
    "target_test.csv": ["pair", "finetune"],
}


@pytest.mark.parametrize("artifact", sorted(READERS))
@settings(
    max_examples=30,
    deadline=timedelta(seconds=10),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_fuzzed_artifacts_end_in_a_documented_exit_code(tiny_runs, artifact, data):
    command = data.draw(st.sampled_from(READERS[artifact]))
    mutate = MUTATE[Path(artifact).suffix]
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_on_copy(
            tiny_runs, artifact, lambda b: mutate(b, data.draw), command, tmp
        )
    assert code in (0, 3, 4), err
    assert "Traceback" not in err


# ------------------------------------------------------------ BLAS threads

SRC = Path(__file__).resolve().parent.parent / "src"


MALLOC_VARIABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def run_python(code: str, threads: str | None, *args: str, **variables: str):
    """Run `code` with `args` in a fresh interpreter that imports xmixup
    from this checkout, with OPENBLAS_NUM_THREADS set to `threads` or unset,
    glibc's malloc variables unset and `variables` set; the
    CompletedProcess, output captured as text."""
    unset = ("OPENBLAS_NUM_THREADS", *MALLOC_VARIABLES)
    env = {k: v for k, v in os.environ.items() if k not in unset} | variables
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("threads,expected", [(None, "1"), ("2", "2")])
def test_importing_xmixup_sets_one_blas_thread_unless_the_variable_is_set(
    threads, expected
):
    done = run_python(
        "import os, xmixup; print(os.environ['OPENBLAS_NUM_THREADS'])", threads
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == expected


# Wide enough that the pairing and probe forwards (hundreds of rows by 64 by
# 32) take OpenBLAS's threaded gemm path when two threads are allowed.
THREADED_LAB = TINY_LAB | {
    "data": TINY_LAB["data"] | {"source_per_class": 200, "target_per_class": 24},
    "hidden": [64, 32],
}


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(THREADED_LAB))
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        done = run_python(
            "import sys\n"
            "from xmixup.cli import main\n"
            "config, out = sys.argv[1:]\n"
            "for cmd in ('gen-data', 'pretrain', 'pair', 'finetune', 'report'):\n"
            "    assert main([cmd, '--config', config, '--out', out]) == 0\n",
            threads,
            str(config),
            str(out),
        )
        assert done.returncode == 0, done.stderr
        trees.append(read_tree(out))
    assert trees[0] == trees[1]
    assert len([name for name in trees[0] if name.startswith("runs/")]) == 14


def test_a_pair_and_finetune_chain_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma on its first call, which raises the peak
    # RSS of a process by about a megabyte for the rest of its life
    done = run_python(
        "import sys\n"
        "from xmixup.cli import main\n"
        "config, out = sys.argv[1:]\n"
        "for cmd in ('gen-data', 'pretrain', 'pair', 'finetune'):\n"
        "    assert main([cmd, '--config', config, '--out', out]) == 0\n"
        "print('numpy.ma' in sys.modules)\n",
        None,
        str(mini_config(tmp_path)),
        str(tmp_path / "out"),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


# ------------------------------------------------------------ the allocator

# A 20-cell l2 stack of the default model shape (d = 4, hidden [64, 32],
# B = 32, 6 target classes), run for 100 steps to warm the allocator, then
# again; prints the minor page faults of the second run.
STACK_FAULTS = """
import resource
import xmixup
from xmixup.dataset import gen_source, gen_target
from xmixup.model import TrainConfig, init

src = gen_source(20, 10, 4, 0.8, seed=0)
tgt, _ = gen_target(src, [0, 1, 2, 3], 2, 10, 0.3, seed=0)
pretrained = init(4, [64, 32], 20, seed=0)
cfg = TrainConfig(iterations=100, lr_drop_at=50)
cells = [xmixup.Cell(xmixup.Strategy.l2(), s, None) for s in range(20)]
xmixup.finetune_cells(pretrained, tgt, None, cells, cfg, tgt)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
xmixup.finetune_cells(pretrained, tgt, None, cells, cfg, tgt)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not libc_has_mallopt(), reason="libc has no mallopt")
def test_importing_xmixup_keeps_step_temporaries_mapped_unless_the_variable_is_set():
    # glibc's defaults unmap or trim a large stack's per-step temporaries,
    # which every step then faults in again: about 28 000 faults here
    pinned = run_python(STACK_FAULTS, None)
    assert pinned.returncode == 0, pinned.stderr
    assert int(pinned.stdout) < 1000
    users = run_python(STACK_FAULTS, None, MALLOC_MMAP_THRESHOLD_="131072")
    assert users.returncode == 0, users.stderr
    assert int(users.stdout) > 10_000


def test_importing_xmixup_works_where_libc_has_no_mallopt(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_LAB))
    done = run_python(
        "import ctypes, sys\n"
        "class NoMallopt(ctypes.CDLL):\n"
        "    def __getattr__(self, name):\n"
        "        if name == 'mallopt':\n"
        "            raise AttributeError(name)\n"
        "        return super().__getattr__(name)\n"
        "ctypes.CDLL = NoMallopt\n"
        "from xmixup.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n",
        None,
        "gen-data", "--config", str(config), "--out", str(tmp_path / "out"),
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "source_train.csv").exists()


# ------------------------------------------ integers of too many digits


def test_an_integer_beyond_the_float_range_exits_2_without_a_traceback(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    done = run_python(
        "import sys; from xmixup.cli import main; sys.exit(main(sys.argv[1:]))",
        None,
        "gen-data", "--config", str(config), "--out", str(tmp_path / "out"),
        "--set", "finetune.lr=1" + "0" * 400,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "lr must be finite" in done.stderr


def test_a_config_file_with_an_integer_of_too_many_digits_exits_2(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"finetune": {"lr": 1' + "0" * 5000 + "}}")
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()


# ------------------------------------------------------------- the README


def test_the_readme_lists_exactly_the_subcommands_of_the_cli():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Subcommands\n")[1].split("\n## ")[0]
    documented = re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.MULTILINE)
    usage = _build_parser().format_usage()
    assert documented == re.search(r"\{([a-z,-]+)\}", usage).group(1).split(",")


# ------------------------------------------ the artifact checksum listing


def test_artifact_sums_check_lists_the_paths_that_differ():
    from tools.artifact_sums import differing_paths

    before = ["aa  config0/a.csv", "bb  config0/runs/x.json", "cc  config1/b.csv"]
    assert differing_paths(before, list(before)) == []
    after = ["aa  config0/a.csv", "bd  config0/runs/x.json", "dd  config1/c.csv"]
    assert differing_paths(before, after) == [
        "config0/runs/x.json", "config1/b.csv", "config1/c.csv",
    ]
