"""Experiment orchestration: artifact layout and pipeline steps.

A pipeline lives in one output directory: generated dataset CSVs, the
pre-trained checkpoint, the pairing plan, per-run JSON records under runs/,
and the joined reports. Every step is a pure function of (config, seeds), so
rerunning a step reproduces its artifacts byte for byte. manifest.json ties
the artifacts in a directory to the hash of the config that produced them,
and `report` joins only run records carrying that hash.

Every command runs through run_command: it reads and checks the manifest,
runs the command's step, which writes its artifacts and returns their
manifest entries and the lines the CLI prints, and then writes the
manifest once, last. So a malformed manifest stops a command before it
writes anything.

Every step that fine-tunes lists its runs as cells (training.Cell: a
strategy, a seed and the pairing plan its source draws follow) and hands
them to training.finetune_cells, which trains the cells sharing a label
space as one stack, whatever their strategies, and returns one result per
cell in cell order. `finetune` and `ablate` turn the results into run
records: the two probe subsets are compacted and split once, before any
cell trains, and the probes and spectra of all cells are computed together
(analysis.linear_probes and analysis.spectra, stacked in chunks of about
1 MiB). The grid commands (`sweep-alpha`, `sweep-size`, `randomize-aux`)
only list their cells in output order, each with the key columns of its
row; one writer, _grid_table, trains them, writes the table and the
optional mean-accuracy chart, and returns their manifest entries and the
command's one line.

The harness builds no plans: `pair` and `sweep-size` expand one
pairing.centroid_similarity per command to their thresholds, and
`randomize-aux` takes its control plans from pairing.random_plan.

Artifacts are checked against each other where they are loaded: datasets,
checkpoint and plan that do not fit together, or dataset splits of another
width or class count than the config's data section makes, are a
DataError, not a failure deep inside a step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import (
    SPECTRUM_ROWS,
    ProbeData,
    ProbeSubset,
    linear_probes,
    probe_data,
    source_subsets,
    spectra,
)
from .atomic import atomic_open, write_table
# config_from_json is not used here: bench/workload.py imports it from this module
from .config import DataSpec, ExperimentConfig, config_from_json  # noqa: F401
from .dataset import Dataset, gen_source, gen_target, load_dataset, save_dataset, split
from .errors import DataError, NumericError, ParseError
from .model import ModelParams, load_params, save_params
from .pairing import (
    PairingPlan,
    centroid_similarity,
    default_threshold,
    expand_until_threshold,
    load_plan,
    random_plan,
    save_plan,
)
from .svg import bar_chart, line_chart, write_svg
from .training import (
    Cell,
    RunResult,
    Strategy,
    StrategyKind,
    evaluate,
    finetune_cells,
    pretrain,
    result_to_json,
)

SOURCE_TRAIN = "source_train.csv"
SOURCE_TEST = "source_test.csv"
TARGET_TRAIN = "target_train.csv"
TARGET_TEST = "target_test.csv"
SPLITS = (SOURCE_TRAIN, SOURCE_TEST, TARGET_TRAIN, TARGET_TEST)
PLANTED = "planted.json"
PRETRAINED = "pretrained.ckpt"
PLAN = "plan.csv"
RUNS_DIR = "runs"
MANIFEST = "manifest.json"

COMPARISON_HEADER = (
    "strategy,seed,accuracy,forgetting_aux,forgetting_aba,spectrum_tail_mean"
)
RECORD_SCORES = COMPARISON_HEADER.split(",")[2:]

#: A step's manifest entries of what it wrote, and the lines the CLI prints.
Output = tuple[dict[str, str], list[str]]


def _write_json(obj, path: Path) -> None:
    with atomic_open(path) as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _read_json(path: Path):
    """Parse a JSON artifact; an unreadable one is a data error, not a config error."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    # undecodable, not JSON, an integer of too many digits, or nesting too deep
    except (ValueError, RecursionError) as e:
        raise ParseError(str(e), path=path) from None


def _is_finite(v) -> bool:
    """Whether a JSON value is a number (not a bool) and a finite float."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise DataError(f"missing artifact {path}; run `{hint}` first")
    return path


# --- loading and checking artifacts -----------------------------------------


def load_data(out: Path, spec: DataSpec) -> tuple[Dataset, Dataset, Dataset, Dataset]:
    """The four dataset splits, checked to hold the domain their file is
    named for, to share one width and, per domain, one class count, and
    then to have the width and class counts that `spec` generates, before
    anything is sized by them."""
    sets = tuple(load_dataset(_require(out / name, "gen-data")) for name in SPLITS)
    for name, ds in zip(SPLITS, sets):
        if ds.domain.value != name.partition("_")[0]:  # source_*.csv: source rows
            message = f"{out / name} holds {ds.domain.value} rows; rerun `gen-data`"
            raise DataError(message)
        if ds.d != sets[0].d:
            raise DataError(
                f"{out / name} has width {ds.d}, {SOURCE_TRAIN} has {sets[0].d}"
            )
    for train, test in ((0, 1), (2, 3)):
        if sets[test].class_count != sets[train].class_count:
            raise DataError(
                f"{out / SPLITS[test]} has {sets[test].class_count} classes, "
                f"{SPLITS[train]} has {sets[train].class_count}"
            )
    source, target = spec.m, len(spec.planted) + spec.novel
    for name, ds, classes in zip(SPLITS, sets, (source, source, target, target)):
        if (ds.class_count, ds.d) != (classes, spec.d):
            raise DataError(
                f"{out / name} has {ds.class_count} classes of width {ds.d}, the "
                f"config's data section makes {classes} of width {spec.d}; rerun "
                f"`gen-data` with this config"
            )
    return sets


@dataclass(frozen=True)
class Lab:
    """The artifacts a fine-tuning step reads, loaded and checked."""

    src_train: Dataset
    tgt_train: Dataset
    tgt_test: Dataset
    pretrained: ModelParams
    plan: PairingPlan | None


def load_lab(out: Path, cfg: ExperimentConfig, with_plan: bool = True) -> Lab:
    """The splits, the checkpoint and, with_plan, the plan, checked to fit
    together and the checkpoint to be the architecture cfg pretrains."""
    src_train, _, tgt_train, tgt_test = load_data(out, cfg.data)
    pretrained = load_params(_require(out / PRETRAINED, "pretrain"))
    if pretrained.d != src_train.d:
        raise DataError(
            f"{out / PRETRAINED} takes inputs of width {pretrained.d}, "
            f"the data has {src_train.d}"
        )
    widths = [pretrained.d] + [w.shape[0] for w, _ in pretrained.layers]
    want = [cfg.data.d, *cfg.hidden]
    if widths != want or pretrained.label_count != cfg.data.m:
        raise DataError(
            f"{out / PRETRAINED} holds layer widths {widths} and a head of "
            f"{pretrained.label_count}, the config pretrains {want} and a head "
            f"of {cfg.data.m}; rerun `pretrain` with this config"
        )
    plan = None
    if with_plan:
        plan = load_plan(_require(out / PLAN, "pair"))
        if sorted(plan.per_target) != list(range(tgt_train.class_count)) or any(
            not 0 <= s < src_train.class_count for s in plan.selected_sources()
        ):
            raise DataError(
                f"{out / PLAN} does not pair the {tgt_train.class_count} target "
                f"classes with the {src_train.class_count} source classes"
            )
    return Lab(src_train, tgt_train, tgt_test, pretrained, plan)


# --- pipeline steps ---------------------------------------------------------


def step_gen_data(cfg: ExperimentConfig, out: Path) -> Output:
    ds = cfg.data
    src = gen_source(ds.m, ds.source_per_class, ds.d, ds.spread, ds.seed)
    src_train, src_test = split(src, ds.source_test_fraction, ds.seed)
    tgt, planted = gen_target(
        src_train, list(ds.planted), ds.novel, ds.target_per_class, ds.noise, ds.seed
    )
    tgt_train, tgt_test = split(tgt, ds.target_test_fraction, ds.seed)
    splits = dict(zip(SPLITS, (src_train, src_test, tgt_train, tgt_test)))
    out.mkdir(parents=True, exist_ok=True)  # only once the data is drawn
    for name, dataset in splits.items():
        save_dataset(dataset, out / name)
    _write_json(
        {
            "config_hash": cfg.hash(),
            "seed": ds.seed,
            "mapping": {str(t): s for t, s in sorted(planted.mapping.items())},
        },
        out / PLANTED,
    )
    # manifest keys and counts are named like the files, without ".csv"
    entries = {n[:-4]: n for n in SPLITS} | {"planted": PLANTED}
    return entries, [f"{n[:-4]}: {len(ds)} samples" for n, ds in splits.items()]


def step_pretrain(cfg: ExperimentConfig, out: Path) -> Output:
    src_train, src_test, _, _ = load_data(out, cfg.data)
    params = pretrain(src_train, cfg.pretrain, list(cfg.hidden))
    save_params(params, out / PRETRAINED)
    info = {
        "config_hash": cfg.hash(),
        "seed": cfg.pretrain.seed,
        "source_test_accuracy": evaluate(params, src_test),
    }
    _write_json(info, out / "pretrain.json")
    entries = {"pretrained": PRETRAINED, "pretrain_info": "pretrain.json"}
    return entries, [f"source test accuracy {info['source_test_accuracy']:.4f}"]


def _threshold(cfg: ExperimentConfig, tgt_train: Dataset) -> int:
    return cfg.threshold if cfg.threshold is not None else default_threshold(tgt_train)


def step_pair(cfg: ExperimentConfig, out: Path) -> Output:
    lab = load_lab(out, cfg, with_plan=False)
    threshold = _threshold(cfg, lab.tgt_train)
    sims = centroid_similarity(lab.pretrained, lab.src_train, lab.tgt_train)
    plan = expand_until_threshold(sims, lab.src_train.class_sizes(), threshold)
    save_plan(plan, out / PLAN)
    info = {
        "config_hash": cfg.hash(),
        "threshold": threshold,
        "rounds": plan.n_rounds,
        "exhausted": plan.exhausted,
        "selected_sources": plan.selected_sources(),
    }
    _write_json(info, out / "pair.json")
    return {"plan": PLAN, "pair_info": "pair.json"}, [
        f"selected {len(info['selected_sources'])} source classes "
        f"in {info['rounds']} round(s) (threshold {threshold})"
    ]


def run_record(
    cfg: ExperimentConfig,
    kind: StrategyKind,
    result: RunResult,
    forgetting_aux: float,
    forgetting_aba: float,
    spectrum_tail_mean: float,
) -> dict:
    """One fine-tuning result plus its diagnostics, as a JSON-able record."""
    return {
        "strategy": kind.value,
        "seed": result.seed,
        "accuracy": result.accuracy,
        "forgetting_aux": forgetting_aux,
        "forgetting_aba": forgetting_aba,
        "spectrum_tail_mean": spectrum_tail_mean,
        "config_hash": cfg.hash(),
        "run": result_to_json(result),
    }


def run_name(kind: StrategyKind, seed: int) -> str:
    return f"{kind.value}-s{seed}"


def run_records(
    cfg: ExperimentConfig,
    lab: Lab,
    cells: list[Cell],
    results: list[RunResult],
    probes: list[ProbeData],
) -> list[dict]:
    """The run record of each cell, with the auxiliary and the all-but-
    auxiliary probe (in that order in `probes`) and the spectrum of all cells
    computed as stacks; a NumericError names the run it concerns."""
    models = [r.params for r in results]
    try:
        aux, aba = (linear_probes(models, data, cfg.probe) for data in probes)
        tails = spectra(models, lab.tgt_train, min(SPECTRUM_ROWS, len(lab.tgt_train)))
    except NumericError as e:
        if e.cell is None:
            raise
        cell = cells[e.cell]
        who = run_name(cell.strategy.kind, cell.seed)
        raise NumericError(f"{who}: {e}", cell=e.cell) from None
    return [
        run_record(cfg, c.strategy.kind, r, p.accuracy, q.accuracy, t.tail_mean(10))
        for c, r, p, q, t in zip(cells, results, aux, aba, tails)
    ]


def _probes(cfg: ExperimentConfig, lab: Lab) -> list[ProbeData]:
    """The auxiliary and the all-but-auxiliary probe subsets, compacted and
    split before any cell trains, so that a subset that cannot be probed
    fails fast. A subset of fewer than two classes is a DataError that
    names the plan's selection and the threshold to change."""
    subsets = source_subsets(lab.src_train, lab.plan)
    selected, total = len(lab.plan.selected_sources()), lab.src_train.class_count
    probes = []
    for kind, classes, fix in (
        (ProbeSubset.AUXILIARY, selected, "raise"),
        (ProbeSubset.ABA, total - selected, "lower"),
    ):
        try:
            probes.append(probe_data(subsets[kind], cfg.probe, kind))
        except DataError as e:
            if classes > 1:
                raise
            raise DataError(
                f"{e}: the plan selects {selected} of {total} source classes "
                f"at threshold {_threshold(cfg, lab.tgt_train)}; {fix} "
                "`threshold` and rerun `pair`"
            ) from None
    return probes


def step_finetune(
    cfg: ExperimentConfig,
    out: Path,
    strategies: tuple[StrategyKind, ...] | None = None,
) -> Output:
    lab = load_lab(out, cfg)
    kinds = strategies if strategies is not None else cfg.strategies
    cells = [
        Cell(cfg.strategy_for(kind), seed, lab.plan)
        for kind in kinds
        for seed in cfg.seeds
    ]
    probes = _probes(cfg, lab)
    results = finetune_cells(
        lab.pretrained, lab.tgt_train, lab.src_train, cells, cfg.finetune, lab.tgt_test
    )
    records = run_records(cfg, lab, cells, results, probes)
    runs = out / RUNS_DIR
    runs.mkdir(exist_ok=True)
    entries = {}
    for cell, record in zip(cells, records):
        name = run_name(cell.strategy.kind, cell.seed)
        _write_json(record, runs / f"{name}.json")
        entries[f"run_{name}"] = f"{RUNS_DIR}/{name}.json"
    return entries, [
        f"{r['strategy']} seed {r['seed']}: accuracy {r['accuracy']:.4f}"
        for r in records
    ]


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return float(arr.mean()), std


def write_comparison_csv(
    records: list[dict], path: Path, order: tuple[StrategyKind, ...]
) -> None:
    """Sort records in place by strategy in the given order, which names
    every record's strategy, then by seed, and write them as one CSV row each."""
    rank = {k.value: i for i, k in enumerate(order)}
    records.sort(key=lambda r: (rank[r["strategy"]], r["seed"]))
    rows = (
        [r["strategy"], r["seed"]] + [float(r[c]) for c in RECORD_SCORES]
        for r in records
    )
    write_table(path, COMPARISON_HEADER, rows)


def summarize(records: list[dict], order: tuple[StrategyKind, ...]) -> list[dict]:
    """Per-strategy aggregation in the given order (sample std, ddof=1)."""
    rows = []
    for kind in order:
        group = [r for r in records if r["strategy"] == kind.value]
        if not group:
            continue
        acc_mean, acc_std = _mean_std([r["accuracy"] for r in group])
        row = {"strategy": kind.value, "runs": len(group)}
        row |= {"accuracy_mean": acc_mean, "accuracy_std": acc_std}
        for key, column in (
            ("forgetting_aux_mean", "forgetting_aux"),
            ("forgetting_aba_mean", "forgetting_aba"),
            ("spectrum_tail_mean", "spectrum_tail_mean"),
        ):
            row[key] = _mean_std([r[column] for r in group])[0]
        rows.append(row)
    return rows


SUMMARY_COLUMNS = (
    "strategy",
    "runs",
    "accuracy_mean",
    "accuracy_std",
    "forgetting_aux_mean",
    "forgetting_aba_mean",
    "spectrum_tail_mean",
)


def write_summary_csv(rows: list[dict], path: Path) -> None:
    write_table(
        path, ",".join(SUMMARY_COLUMNS), ([r[c] for c in SUMMARY_COLUMNS] for r in rows)
    )


def load_run_records(out: Path, config_hash: str) -> list[dict]:
    """Every run record under runs/; a record written under another config
    hash is a DataError naming the first such file, so a report never joins
    runs of different configs. A record without the name of a strategy, an
    integer seed and the four scores as finite numbers, or in a file not
    named for its strategy and seed (a renamed copy), is a ParseError."""
    runs = out / RUNS_DIR
    if not runs.is_dir():
        raise DataError(f"missing artifact {runs}; run `finetune` first")
    records = []
    for path in sorted(runs.glob("*.json")):
        record = _read_json(path)
        if not isinstance(record, dict):
            raise ParseError("a run record must be a JSON object", path=path)
        if record.get("config_hash") != config_hash:
            raise DataError(
                f"{path} has config_hash {record.get('config_hash')!r}, not this "
                f"config's {config_hash!r}; rerun `finetune` with this config "
                f"or report it from its own --out directory"
            )
        strategy, seed = record.get("strategy"), record.get("seed")
        if strategy not in [k.value for k in StrategyKind] or type(seed) is not int:
            raise ParseError("a run record needs a strategy name and a seed", path=path)
        name = run_name(StrategyKind(strategy), seed) + ".json"
        if path.name != name:
            message = f"a record of {strategy} seed {seed} belongs in {name}"
            raise ParseError(message, path=path)
        for key in RECORD_SCORES:
            if not _is_finite(record.get(key)):
                raise ParseError(f"{key} is not a finite number", path=path)
        records.append(record)
    if not records:
        raise DataError(f"no run records under {runs}; run `finetune` first")
    return records


def step_report(cfg: ExperimentConfig, out: Path) -> Output:
    records = load_run_records(out, cfg.hash())
    # the configured strategies first, then any other a record holds (ablate's)
    order = cfg.strategies + tuple(k for k in StrategyKind if k not in cfg.strategies)
    write_comparison_csv(records, out / "comparison.csv", order)
    rows = summarize(records, order)
    write_summary_csv(rows, out / "summary.csv")
    chart = bar_chart(
        [r["strategy"] for r in rows],
        [r["accuracy_mean"] for r in rows],
        title="Mean target accuracy by strategy",
        ylabel="accuracy",
    )
    write_svg(chart, out / "comparison.svg")
    entries = {
        "comparison": "comparison.csv",
        "summary": "summary.csv",
        "comparison_chart": "comparison.svg",
    }
    return entries, [
        f"{r['strategy']}: {r['accuracy_mean']:.4f} "
        f"± {r['accuracy_std']:.4f} over {r['runs']} run(s)"
        for r in rows
    ]


def _grid_table(
    cfg: ExperimentConfig,
    out: Path,
    lab: Lab,
    name: str,
    header: str,
    cells: list[Cell],
    keys: list[tuple],
    chart: tuple | None = None,
) -> Output:
    """Train the cells through finetune_cells and write `<name>.csv`, one
    row per cell in cell order: the cell's key columns, its seed and its
    accuracy.

    Given chart = (title, xlabel, x_of_key), also write `<name>.svg` with
    the mean accuracy of each key, in first-seen key order, at x_of_key(key).
    Returns the manifest entries of both files and the command's one line.
    """
    results = finetune_cells(
        lab.pretrained, lab.tgt_train, lab.src_train, cells, cfg.finetune, lab.tgt_test
    )
    rows = [[*key, cell.seed, r.accuracy] for key, cell, r in zip(keys, cells, results)]
    write_table(out / f"{name}.csv", header, rows)
    entries = {name: f"{name}.csv"}
    if chart is not None:
        title, xlabel, x_of_key = chart
        by_key: dict[tuple, list[float]] = {}
        for key, r in zip(keys, results):
            by_key.setdefault(key, []).append(r.accuracy)
        xs = [x_of_key(key) for key in by_key]
        ys = [float(np.mean(accs)) for accs in by_key.values()]
        svg = line_chart("xmixup", xs, ys, title, xlabel, "mean accuracy")
        write_svg(svg, out / f"{name}.svg")
        entries[f"{name}_chart"] = f"{name}.svg"
    return entries, [f"wrote {name}.csv ({len(rows)} runs)"]


def step_sweep_alpha(cfg: ExperimentConfig, out: Path) -> Output:
    """Sweep cross-domain mixing strength: accuracy as a function of alpha
    with beta held fixed."""
    lab = load_lab(out, cfg)
    cells = [
        Cell(Strategy.xmixup(replace(cfg.mixup, alpha=alpha)), seed, lab.plan)
        for alpha in cfg.alpha_grid
        for seed in cfg.seeds
    ]
    keys = [(float(cell.strategy.mixup.alpha),) for cell in cells]
    chart = (
        "Accuracy vs mixing strength", "log2(alpha)", lambda k: float(np.log2(k[0]))
    )
    header = "alpha,seed,accuracy"
    return _grid_table(cfg, out, lab, "sweep_alpha", header, cells, keys, chart)


def step_sweep_size(cfg: ExperimentConfig, out: Path) -> Output:
    """Sweep the selection threshold: accuracy as the auxiliary set grows."""
    lab = load_lab(out, cfg, with_plan=False)
    grid = cfg.threshold_grid
    if not grid:
        base = len(lab.tgt_train)
        grid = (base, 2 * base, 4 * base, 8 * base)
    sizes = lab.src_train.class_sizes()
    sims = centroid_similarity(lab.pretrained, lab.src_train, lab.tgt_train)
    cells, keys = [], []
    for t in grid:
        plan = expand_until_threshold(sims, sizes, t)
        chosen = plan.selected_sources()
        for seed in cfg.seeds:
            cells.append(Cell(Strategy.xmixup(cfg.mixup), seed, plan))
            keys.append((t, len(chosen), sum(sizes[c] for c in chosen)))
    header = "threshold,selected_classes,selected_samples,seed,accuracy"
    chart = (
        "Accuracy vs auxiliary set size", "selected auxiliary samples",
        lambda k: float(k[2]),
    )
    return _grid_table(cfg, out, lab, "sweep_size", header, cells, keys, chart)


def step_randomize_aux(cfg: ExperimentConfig, out: Path) -> Output:
    """Control experiment: centroid-paired vs randomly assigned auxiliary
    classes, same sample budget."""
    lab = load_lab(out, cfg)
    threshold = _threshold(cfg, lab.tgt_train)
    sizes = lab.src_train.class_sizes()
    strategy = Strategy.xmixup(cfg.mixup)
    seeds = sorted(cfg.seeds)
    cells = [Cell(strategy, seed, lab.plan) for seed in seeds] + [
        Cell(
            strategy,
            seed,
            random_plan(
                lab.tgt_train.class_count,
                lab.src_train.class_count,
                sizes,
                threshold,
                np.random.default_rng([seed, 4]),
            ),
        )
        for seed in seeds
    ]
    keys = [("centroid",)] * len(seeds) + [("random",)] * len(seeds)
    header = "mode,seed,accuracy"
    return _grid_table(cfg, out, lab, "randomize_aux", header, cells, keys)


def step_ablate(cfg: ExperimentConfig, out: Path) -> Output:
    """Ablation over the mixing recipe: cross-domain vs in-domain vs
    label-free mixing."""
    kinds = (
        StrategyKind.XMIXUP,
        StrategyKind.MIXUP_IN_DOMAIN,
        StrategyKind.XMIXUP_NO_LABEL,
    )
    entries, _ = step_finetune(cfg, out, strategies=kinds)
    # the table holds the records as written, like report's
    records = [_read_json(out / path) for path in entries.values()]
    write_comparison_csv(records, out / "ablate.csv", kinds)
    entries["ablate"] = "ablate.csv"
    return entries, [f"wrote ablate.csv ({len(records)} runs)"]


def run_command(
    name: str,
    cfg: ExperimentConfig,
    out: Path,
    strategies: tuple[StrategyKind, ...] | None = None,
) -> list[str]:
    """Run the command `name` in `out` and return the lines it prints.

    A manifest that is not an object with an object of artifacts is a
    ParseError before the step writes anything. The step's entries join
    those of this config's hash (another hash's are dropped), and the
    manifest is written once, last."""
    path = out / MANIFEST
    artifacts = {}
    if path.exists():
        old = _read_json(path)
        if not isinstance(old, dict) or not isinstance(old.get("artifacts", {}), dict):
            raise ParseError("not an object with an object of artifacts", path=path)
        if old.get("config_hash") == cfg.hash():
            artifacts = old.get("artifacts", {})
    # built per call, so a step rebound on this module (by a tracer) is the one run
    step = {
        "gen-data": step_gen_data,
        "pretrain": step_pretrain,
        "pair": step_pair,
        "finetune": partial(step_finetune, strategies=strategies),
        "sweep-alpha": step_sweep_alpha,
        "sweep-size": step_sweep_size,
        "randomize-aux": step_randomize_aux,
        "ablate": step_ablate,
        "report": step_report,
    }[name]
    entries, lines = step(cfg, out)
    _write_json({"config_hash": cfg.hash(), "artifacts": artifacts | entries}, path)
    return lines
