"""Experiment orchestration: config schema, artifact layout, pipeline steps.

A pipeline lives in one output directory: generated dataset CSVs, the
pre-trained checkpoint, the pairing plan, per-run JSON records under runs/,
and the joined reports. Every step is a pure function of (config, seeds), so
rerunning a step reproduces its artifacts byte for byte. manifest.json ties
the artifacts in a directory to the hash of the config that produced them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import ProbeConfig, ProbeSubset, linear_probe, source_subsets, spectrum
from .atomic import atomic_open
from .dataset import (
    Dataset,
    gen_source,
    gen_target,
    load_dataset,
    save_dataset,
    split,
    split_test_count,
)
from .errors import ConfigError, DataError, ParseError, require_finite
from .mixup import MixupConfig
from .model import ModelParams, TrainConfig, load_params, save_params
from .pairing import (
    PairingPlan,
    compute_centroids,
    expand_until_threshold,
    load_plan,
    save_plan,
    similarity,
)
from .svg import bar_chart, line_chart, write_svg
from .training import (
    Strategy,
    StrategyKind,
    evaluate,
    finetune,
    pretrain,
    result_to_json,
)

SOURCE_TRAIN = "source_train.csv"
SOURCE_TEST = "source_test.csv"
TARGET_TRAIN = "target_train.csv"
TARGET_TEST = "target_test.csv"
PLANTED = "planted.json"
PRETRAINED = "pretrained.ckpt"
PLAN = "plan.csv"
RUNS_DIR = "runs"
MANIFEST = "manifest.json"

COMPARISON_HEADER = (
    "strategy,seed,accuracy,forgetting_aux,forgetting_aba,spectrum_tail_mean"
)


@dataclass(frozen=True)
class DataSpec:
    """Synthetic data shape: a Gaussian-cluster source domain plus a target
    domain whose planted classes are noisy copies of source classes."""

    m: int = 20
    source_per_class: int = 40
    d: int = 4
    spread: float = 0.8
    planted: tuple[int, ...] = (0, 1, 2, 3)
    novel: int = 2
    target_per_class: int = 50
    noise: float = 0.3
    seed: int = 0
    source_test_fraction: float = 0.2
    target_test_fraction: float = 0.8

    def __post_init__(self):
        require_finite(self)
        object.__setattr__(self, "planted", tuple(self.planted))


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataSpec = field(default_factory=DataSpec)
    hidden: tuple[int, ...] = (64, 32)
    pretrain: TrainConfig = field(default_factory=TrainConfig)
    finetune: TrainConfig = field(
        default_factory=lambda: TrainConfig(iterations=600, lr_drop_at=400)
    )
    mixup: MixupConfig = field(default_factory=MixupConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    sp_weight: float = 0.01
    midtune_iterations: int | None = None
    threshold: int | None = None
    strategies: tuple[StrategyKind, ...] = tuple(StrategyKind)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    alpha_grid: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    threshold_grid: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("hidden", "strategies", "seeds", "alpha_grid", "threshold_grid"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.seeds:
            raise ConfigError("seed list must be non-empty")
        if not self.strategies:
            raise ConfigError("strategy list must be non-empty")
        if not self.hidden:
            raise ConfigError("hidden layer list must be non-empty")
        require_finite(self)
        bad = [a for a in self.alpha_grid if not math.isfinite(a)]
        if bad:
            raise ConfigError(f"alpha_grid must be finite, got {bad}")
        # every run record's spectrum takes min(512, rows) target-train rows
        # and needs at least as many as the feature width
        ds = self.data
        if 0 < ds.target_test_fraction < 1 and ds.target_per_class >= 1:
            per_class = ds.target_per_class - split_test_count(
                ds.target_per_class, ds.target_test_fraction
            )
            rows = (len(ds.planted) + ds.novel) * per_class
            if rows < self.hidden[-1]:
                raise ConfigError(
                    f"the target split leaves {rows} training rows, fewer than "
                    f"the feature width {self.hidden[-1]} the spectrum needs"
                )

    def strategy_for(self, kind: StrategyKind) -> Strategy:
        if kind is StrategyKind.L2SP:
            return Strategy.l2sp(self.sp_weight)
        if kind in (
            StrategyKind.MIXUP_IN_DOMAIN,
            StrategyKind.XMIXUP,
            StrategyKind.XMIXUP_NO_LABEL,
        ):
            return Strategy(kind, mixup=self.mixup)
        if kind is StrategyKind.SEQ_TRAIN:
            return Strategy.seqtrain(self.midtune_iterations)
        return Strategy(kind)

    def to_json(self) -> dict:
        return {
            "data": asdict(self.data),
            "hidden": list(self.hidden),
            "pretrain": asdict(self.pretrain),
            "finetune": asdict(self.finetune),
            "mixup": asdict(self.mixup),
            "probe": asdict(self.probe),
            "sp_weight": self.sp_weight,
            "midtune_iterations": self.midtune_iterations,
            "threshold": self.threshold,
            "strategies": [k.value for k in self.strategies],
            "seeds": list(self.seeds),
            "alpha_grid": list(self.alpha_grid),
            "threshold_grid": list(self.threshold_grid),
        }

    def hash(self) -> str:
        canon = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _build_section(name: str, base, raw: dict):
    """Overlay a JSON section onto the default instance, so partial sections
    keep the experiment defaults for unmentioned fields."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be an object")
    try:
        return replace(base, **raw)
    except TypeError as e:
        raise ConfigError(f"{name}: {e}") from None
    except ValueError as e:
        raise ConfigError(f"{name}: {e}") from None


def config_from_json(raw: dict) -> ExperimentConfig:
    """Build a validated config from parsed JSON; unknown keys are errors."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    defaults = ExperimentConfig()
    sections = {
        "data": defaults.data,
        "pretrain": defaults.pretrain,
        "finetune": defaults.finetune,
        "mixup": defaults.mixup,
        "probe": defaults.probe,
    }
    plain = {
        "hidden",
        "sp_weight",
        "midtune_iterations",
        "threshold",
        "strategies",
        "seeds",
        "alpha_grid",
        "threshold_grid",
    }
    unknown = set(raw) - set(sections) - plain
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, base in sections.items():
        if key in raw:
            kwargs[key] = _build_section(key, base, raw[key])
    for key in plain & set(raw):
        kwargs[key] = raw[key]
    if "strategies" in kwargs:
        try:
            kwargs["strategies"] = tuple(StrategyKind(s) for s in kwargs["strategies"])
        except ValueError as e:
            raise ConfigError(f"strategies: {e}") from None
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from None


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    return config_from_json(raw)


def override_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Collapse every pipeline seed to one value (the XMIXUP_SEED override)."""
    return replace(
        cfg,
        data=replace(cfg.data, seed=seed),
        pretrain=replace(cfg.pretrain, seed=seed),
        seeds=(seed,),
    )


def _fmt17(v: float) -> str:
    return f"{float(v):.17g}"


def _write_json(obj, path: Path) -> None:
    with atomic_open(path) as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _read_json(path: Path):
    """Parse a JSON artifact; an unreadable one is a data error, not a config error."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"{path}: {e}") from None


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise DataError(f"missing artifact {path}; run `{hint}` first")
    return path


def update_manifest(out: Path, cfg: ExperimentConfig, entries: dict[str, str]) -> None:
    """Record artifact names under the current config hash; a hash change
    invalidates (drops) entries from older configs."""
    path = out / MANIFEST
    manifest = {"config_hash": cfg.hash(), "artifacts": {}}
    if path.exists():
        old = _read_json(path)
        if old.get("config_hash") == cfg.hash():
            manifest["artifacts"] = old.get("artifacts", {})
    manifest["artifacts"].update(entries)
    _write_json(manifest, path)


# --- pipeline steps ---------------------------------------------------------


def step_gen_data(cfg: ExperimentConfig, out: Path) -> dict:
    ds = cfg.data
    out.mkdir(parents=True, exist_ok=True)
    src = gen_source(ds.m, ds.source_per_class, ds.d, ds.spread, ds.seed)
    src_train, src_test = split(src, ds.source_test_fraction, ds.seed)
    tgt, planted = gen_target(
        src_train, list(ds.planted), ds.novel, ds.target_per_class, ds.noise, ds.seed
    )
    tgt_train, tgt_test = split(tgt, ds.target_test_fraction, ds.seed)
    save_dataset(src_train, out / SOURCE_TRAIN)
    save_dataset(src_test, out / SOURCE_TEST)
    save_dataset(tgt_train, out / TARGET_TRAIN)
    save_dataset(tgt_test, out / TARGET_TEST)
    _write_json(
        {
            "config_hash": cfg.hash(),
            "seed": ds.seed,
            "mapping": {str(t): s for t, s in sorted(planted.mapping.items())},
        },
        out / PLANTED,
    )
    update_manifest(
        out,
        cfg,
        {
            "source_train": SOURCE_TRAIN,
            "source_test": SOURCE_TEST,
            "target_train": TARGET_TRAIN,
            "target_test": TARGET_TEST,
            "planted": PLANTED,
        },
    )
    return {
        "source_train": len(src_train),
        "source_test": len(src_test),
        "target_train": len(tgt_train),
        "target_test": len(tgt_test),
    }


def load_data(out: Path) -> tuple[Dataset, Dataset, Dataset, Dataset]:
    return (
        load_dataset(_require(out / SOURCE_TRAIN, "gen-data")),
        load_dataset(_require(out / SOURCE_TEST, "gen-data")),
        load_dataset(_require(out / TARGET_TRAIN, "gen-data")),
        load_dataset(_require(out / TARGET_TEST, "gen-data")),
    )


def step_pretrain(cfg: ExperimentConfig, out: Path) -> dict:
    src_train, src_test, _, _ = load_data(out)
    params = pretrain(src_train, cfg.pretrain, list(cfg.hidden))
    save_params(params, out / PRETRAINED)
    info = {
        "config_hash": cfg.hash(),
        "seed": cfg.pretrain.seed,
        "source_test_accuracy": evaluate(params, src_test),
    }
    _write_json(info, out / "pretrain.json")
    update_manifest(out, cfg, {"pretrained": PRETRAINED, "pretrain_info": "pretrain.json"})
    return info


def default_threshold(tgt_train: Dataset) -> int:
    """Auxiliary sample budget when none is configured: 2.5x the target set.

    Sized so the default suite selects a single pairing round; a second round
    drags in weakly-matched source classes that dilute the label mixing.
    """
    return 5 * len(tgt_train) // 2


def build_plan(
    cfg: ExperimentConfig,
    params: ModelParams,
    src_train: Dataset,
    tgt_train: Dataset,
    threshold: int | None = None,
) -> PairingPlan:
    if threshold is None:
        threshold = (
            cfg.threshold if cfg.threshold is not None else default_threshold(tgt_train)
        )
    sims = similarity(
        compute_centroids(src_train, params), compute_centroids(tgt_train, params)
    )
    return expand_until_threshold(sims, src_train.class_sizes(), threshold)


def step_pair(cfg: ExperimentConfig, out: Path) -> dict:
    src_train, _, tgt_train, _ = load_data(out)
    params = load_params(_require(out / PRETRAINED, "pretrain"))
    plan = build_plan(cfg, params, src_train, tgt_train)
    save_plan(plan, out / PLAN)
    info = {
        "config_hash": cfg.hash(),
        "threshold": (
            cfg.threshold if cfg.threshold is not None else default_threshold(tgt_train)
        ),
        "rounds": plan.n_rounds,
        "exhausted": plan.exhausted,
        "selected_sources": plan.selected_sources(),
    }
    _write_json(info, out / "pair.json")
    update_manifest(out, cfg, {"plan": PLAN, "pair_info": "pair.json"})
    return info


def run_record(
    cfg: ExperimentConfig,
    pretrained: ModelParams,
    src_train: Dataset,
    tgt_train: Dataset,
    tgt_test: Dataset,
    plan: PairingPlan,
    kind: StrategyKind,
    seed: int,
) -> dict:
    """One fine-tuning run plus its diagnostics, as a JSON-able record."""
    strategy = cfg.strategy_for(kind)
    result = finetune(
        pretrained,
        tgt_train,
        src_train,
        plan,
        strategy,
        replace(cfg.finetune, seed=seed),
        tgt_test,
    )
    subsets = source_subsets(src_train, plan)
    probe_aux = linear_probe(
        result.params, subsets[ProbeSubset.AUXILIARY], cfg.probe, ProbeSubset.AUXILIARY
    )
    probe_aba = linear_probe(
        result.params, subsets[ProbeSubset.ABA], cfg.probe, ProbeSubset.ABA
    )
    tail = spectrum(
        result.params, tgt_train, min(512, len(tgt_train))
    ).tail_mean(10)
    return {
        "strategy": kind.value,
        "seed": seed,
        "accuracy": result.accuracy,
        "forgetting_aux": probe_aux.accuracy,
        "forgetting_aba": probe_aba.accuracy,
        "spectrum_tail_mean": tail,
        "config_hash": cfg.hash(),
        "run": result_to_json(result),
    }


def run_name(kind: StrategyKind, seed: int) -> str:
    return f"{kind.value}-s{seed}"


def step_finetune(
    cfg: ExperimentConfig,
    out: Path,
    strategies: tuple[StrategyKind, ...] | None = None,
) -> list[dict]:
    src_train, _, tgt_train, tgt_test = load_data(out)
    pretrained = load_params(_require(out / PRETRAINED, "pretrain"))
    plan = load_plan(_require(out / PLAN, "pair"))
    runs = out / RUNS_DIR
    runs.mkdir(exist_ok=True)
    kinds = strategies if strategies is not None else cfg.strategies
    cells = [(kind, seed) for kind in kinds for seed in cfg.seeds]
    records = [
        run_record(cfg, pretrained, src_train, tgt_train, tgt_test, plan, kind, seed)
        for kind, seed in cells
    ]
    entries = {}
    for (kind, seed), record in zip(cells, records):
        name = f"{run_name(kind, seed)}.json"
        _write_json(record, runs / name)
        entries[f"run_{run_name(kind, seed)}"] = f"{RUNS_DIR}/{name}"
    update_manifest(out, cfg, entries)
    return records


def step_eval(cfg: ExperimentConfig, out: Path, params_path) -> dict:
    _, _, _, tgt_test = load_data(out)
    params = load_params(_require(Path(params_path), "finetune"))
    try:
        shown = str(Path(params_path).resolve().relative_to(out.resolve()))
    except ValueError:
        shown = str(params_path)
    info = {
        "config_hash": cfg.hash(),
        "params": shown,
        "accuracy": evaluate(params, tgt_test),
    }
    _write_json(info, out / "eval.json")
    update_manifest(out, cfg, {"eval": "eval.json"})
    return info


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return float(arr.mean()), std


def write_comparison_csv(records: list[dict], path: Path) -> None:
    with atomic_open(path) as f:
        f.write(COMPARISON_HEADER + "\n")
        for r in records:
            f.write(
                ",".join(
                    [
                        r["strategy"],
                        str(r["seed"]),
                        _fmt17(r["accuracy"]),
                        _fmt17(r["forgetting_aux"]),
                        _fmt17(r["forgetting_aba"]),
                        _fmt17(r["spectrum_tail_mean"]),
                    ]
                )
                + "\n"
            )


def summarize(records: list[dict], order: tuple[StrategyKind, ...]) -> list[dict]:
    """Per-strategy aggregation in the given order (sample std, ddof=1)."""
    rows = []
    for kind in order:
        group = [r for r in records if r["strategy"] == kind.value]
        if not group:
            continue
        acc_mean, acc_std = _mean_std([r["accuracy"] for r in group])
        rows.append(
            {
                "strategy": kind.value,
                "runs": len(group),
                "accuracy_mean": acc_mean,
                "accuracy_std": acc_std,
                "forgetting_aux_mean": _mean_std(
                    [r["forgetting_aux"] for r in group]
                )[0],
                "forgetting_aba_mean": _mean_std(
                    [r["forgetting_aba"] for r in group]
                )[0],
                "spectrum_tail_mean": _mean_std(
                    [r["spectrum_tail_mean"] for r in group]
                )[0],
            }
        )
    return rows


def write_summary_csv(rows: list[dict], path: Path) -> None:
    header = (
        "strategy,runs,accuracy_mean,accuracy_std,"
        "forgetting_aux_mean,forgetting_aba_mean,spectrum_tail_mean"
    )
    with atomic_open(path) as f:
        f.write(header + "\n")
        for r in rows:
            f.write(
                ",".join(
                    [
                        r["strategy"],
                        str(r["runs"]),
                        _fmt17(r["accuracy_mean"]),
                        _fmt17(r["accuracy_std"]),
                        _fmt17(r["forgetting_aux_mean"]),
                        _fmt17(r["forgetting_aba_mean"]),
                        _fmt17(r["spectrum_tail_mean"]),
                    ]
                )
                + "\n"
            )


def load_run_records(out: Path) -> list[dict]:
    runs = out / RUNS_DIR
    if not runs.is_dir():
        raise DataError(f"missing artifact {runs}; run `finetune` first")
    records = []
    for path in sorted(runs.glob("*.json")):
        records.append(_read_json(path))
    if not records:
        raise DataError(f"no run records under {runs}; run `finetune` first")
    return records


def step_report(cfg: ExperimentConfig, out: Path) -> list[dict]:
    records = load_run_records(out)
    order = {k.value: i for i, k in enumerate(cfg.strategies)}
    records.sort(key=lambda r: (order.get(r["strategy"], len(order)), r["seed"]))
    write_comparison_csv(records, out / "comparison.csv")
    rows = summarize(records, cfg.strategies)
    write_summary_csv(rows, out / "summary.csv")
    chart = bar_chart(
        [r["strategy"] for r in rows],
        [r["accuracy_mean"] for r in rows],
        title="Mean target accuracy by strategy",
        ylabel="accuracy",
    )
    write_svg(chart, out / "comparison.svg")
    update_manifest(
        out,
        cfg,
        {
            "comparison": "comparison.csv",
            "summary": "summary.csv",
            "comparison_chart": "comparison.svg",
        },
    )
    return rows


def _light_accuracy(
    cfg: ExperimentConfig,
    pretrained: ModelParams,
    src_train: Dataset,
    tgt_train: Dataset,
    tgt_test: Dataset,
    plan: PairingPlan,
    strategy: Strategy,
    seed: int,
) -> float:
    result = finetune(
        pretrained,
        tgt_train,
        src_train,
        plan,
        strategy,
        replace(cfg.finetune, seed=seed),
        tgt_test,
    )
    return result.accuracy


def step_sweep_alpha(cfg: ExperimentConfig, out: Path) -> list[dict]:
    """Sweep cross-domain mixing strength: accuracy as a function of alpha
    with beta held fixed."""
    src_train, _, tgt_train, tgt_test = load_data(out)
    pretrained = load_params(_require(out / PRETRAINED, "pretrain"))
    plan = load_plan(_require(out / PLAN, "pair"))
    cells = [(alpha, seed) for alpha in cfg.alpha_grid for seed in cfg.seeds]
    rows = [
        {
            "alpha": alpha,
            "seed": seed,
            "accuracy": _light_accuracy(
                cfg,
                pretrained,
                src_train,
                tgt_train,
                tgt_test,
                plan,
                Strategy.xmixup(replace(cfg.mixup, alpha=alpha)),
                seed,
            ),
        }
        for alpha, seed in cells
    ]
    with atomic_open(out / "sweep_alpha.csv") as f:
        f.write("alpha,seed,accuracy\n")
        for r in rows:
            f.write(f"{_fmt17(r['alpha'])},{r['seed']},{_fmt17(r['accuracy'])}\n")
    means = [
        (
            float(np.log2(alpha)),
            float(np.mean([r["accuracy"] for r in rows if r["alpha"] == alpha])),
        )
        for alpha in cfg.alpha_grid
    ]
    chart = line_chart(
        [("xmixup", [x for x, _ in means], [y for _, y in means])],
        title="Accuracy vs mixing strength",
        xlabel="log2(alpha)",
        ylabel="mean accuracy",
    )
    write_svg(chart, out / "sweep_alpha.svg")
    update_manifest(
        out, cfg, {"sweep_alpha": "sweep_alpha.csv", "sweep_alpha_chart": "sweep_alpha.svg"}
    )
    return rows


def step_sweep_size(cfg: ExperimentConfig, out: Path) -> list[dict]:
    """Sweep the selection threshold: accuracy as the auxiliary set grows."""
    src_train, _, tgt_train, tgt_test = load_data(out)
    pretrained = load_params(_require(out / PRETRAINED, "pretrain"))
    grid = cfg.threshold_grid
    if not grid:
        base = len(tgt_train)
        grid = (base, 2 * base, 4 * base, 8 * base)
    plans = {
        t: build_plan(cfg, pretrained, src_train, tgt_train, threshold=t) for t in grid
    }
    sizes = src_train.class_sizes()
    cells = [(t, seed) for t in grid for seed in cfg.seeds]
    rows = []
    for thr, seed in cells:
        selected = plans[thr].selected_sources()
        acc = _light_accuracy(
            cfg,
            pretrained,
            src_train,
            tgt_train,
            tgt_test,
            plans[thr],
            Strategy.xmixup(cfg.mixup),
            seed,
        )
        rows.append(
            {
                "threshold": thr,
                "selected_classes": len(selected),
                "selected_samples": sum(sizes[c] for c in selected),
                "seed": seed,
                "accuracy": acc,
            }
        )
    with atomic_open(out / "sweep_size.csv") as f:
        f.write("threshold,selected_classes,selected_samples,seed,accuracy\n")
        for r in rows:
            f.write(
                f"{r['threshold']},{r['selected_classes']},{r['selected_samples']},"
                f"{r['seed']},{_fmt17(r['accuracy'])}\n"
            )
    means = [
        (
            float(sum(sizes[c] for c in plans[t].selected_sources())),
            float(np.mean([r["accuracy"] for r in rows if r["threshold"] == t])),
        )
        for t in grid
    ]
    chart = line_chart(
        [("xmixup", [x for x, _ in means], [y for _, y in means])],
        title="Accuracy vs auxiliary set size",
        xlabel="selected auxiliary samples",
        ylabel="mean accuracy",
    )
    write_svg(chart, out / "sweep_size.svg")
    update_manifest(
        out, cfg, {"sweep_size": "sweep_size.csv", "sweep_size_chart": "sweep_size.svg"}
    )
    return rows


def random_plan(
    n_target: int, m: int, src_class_sizes: dict[int, int], threshold: int, rng
) -> PairingPlan:
    """Similarity-blind control: deal a shuffled source-class order to the
    targets round-robin until the sample budget is met. Scores are zero."""
    if m < n_target:
        raise ValueError(f"need at least {n_target} source classes, got {m}")
    order = [int(c) for c in rng.permutation(m)]
    per_target: dict[int, list[int]] = {t: [] for t in range(n_target)}
    scores: dict[int, list[float]] = {t: [] for t in range(n_target)}
    total = 0
    n_rounds = 0
    taken = 0
    while taken < m:
        chunk = order[taken : taken + n_target]
        for t, s in enumerate(chunk):
            per_target[t].append(s)
            scores[t].append(0.0)
            total += src_class_sizes[s]
        taken += len(chunk)
        n_rounds += 1
        if total >= threshold:
            break
    return PairingPlan(per_target, scores, n_rounds, exhausted=taken >= m)


def step_randomize_aux(cfg: ExperimentConfig, out: Path) -> list[dict]:
    """Control experiment: centroid-paired vs randomly assigned auxiliary
    classes, same sample budget."""
    src_train, _, tgt_train, tgt_test = load_data(out)
    pretrained = load_params(_require(out / PRETRAINED, "pretrain"))
    centroid_plan = load_plan(_require(out / PLAN, "pair"))
    threshold = (
        cfg.threshold if cfg.threshold is not None else default_threshold(tgt_train)
    )
    sizes = src_train.class_sizes()
    cells = []
    for seed in cfg.seeds:
        cells.append(("centroid", seed, centroid_plan))
        cells.append(
            (
                "random",
                seed,
                random_plan(
                    tgt_train.class_count,
                    src_train.class_count,
                    sizes,
                    threshold,
                    np.random.default_rng([seed, 4]),
                ),
            )
        )
    rows = [
        {
            "mode": mode,
            "seed": seed,
            "accuracy": _light_accuracy(
                cfg,
                pretrained,
                src_train,
                tgt_train,
                tgt_test,
                plan,
                Strategy.xmixup(cfg.mixup),
                seed,
            ),
        }
        for mode, seed, plan in cells
    ]
    rows.sort(key=lambda r: (r["mode"], r["seed"]))
    with atomic_open(out / "randomize_aux.csv") as f:
        f.write("mode,seed,accuracy\n")
        for r in rows:
            f.write(f"{r['mode']},{r['seed']},{_fmt17(r['accuracy'])}\n")
    update_manifest(out, cfg, {"randomize_aux": "randomize_aux.csv"})
    return rows


def step_ablate(cfg: ExperimentConfig, out: Path) -> list[dict]:
    """Ablation over the mixing recipe: cross-domain vs in-domain vs
    label-free mixing."""
    kinds = (
        StrategyKind.XMIXUP,
        StrategyKind.MIXUP_IN_DOMAIN,
        StrategyKind.XMIXUP_NO_LABEL,
    )
    records = step_finetune(cfg, out, strategies=kinds)
    order = {k.value: i for i, k in enumerate(kinds)}
    records.sort(key=lambda r: (order[r["strategy"]], r["seed"]))
    write_comparison_csv(records, out / "ablate.csv")
    update_manifest(out, cfg, {"ablate": "ablate.csv"})
    return records
