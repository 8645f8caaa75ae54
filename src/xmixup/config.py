"""The experiment config: its schema, its checks and how JSON becomes one.

An ExperimentConfig holds the data shape, the network widths, the pre-train
and fine-tune budgets, the mixing, probe and penalty settings, and the
strategy, seed, alpha and threshold grids of the experiments. Every value is
checked when the config is built, for its type (check_fields) and its range,
along with the cross-field rules the pipeline relies on, so a bad value
stops every command with a ConfigError before it writes anything.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace

from .analysis import SPECTRUM_ROWS, ProbeConfig
from .dataset import split_test_count
from .errors import ConfigError, check_fields
from .mixup import MixupConfig
from .model import TrainConfig
from .training import NEEDS_MIXUP, Strategy, StrategyKind


def _require_range(name: str, ok: bool, rule: str, value) -> None:
    if not ok:
        raise ConfigError(f"{name} must be {rule}, got {value!r}")


def check_distinct(name: str, values) -> None:
    """Reject a list that repeats an entry: a repeated seed, strategy or grid
    point would train the same cell twice and write it once."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ConfigError(f"{name} repeats {repeated}")


#: The largest value each count of DataSpec takes; novel is bounded by m.
#: Class means are placed by pairwise rejection, quadratic in m, and a
#: split holds m x per-class rows of d floats, so a larger count would not
#: fail fast but run or allocate without end.
DATA_MAXIMA = {
    "m": 1000,
    "source_per_class": 100_000,
    "d": 10_000,
    "target_per_class": 100_000,
}

#: The largest iteration count of each budget. Training lists one learning
#: rate and keeps one loss per step, so a larger count would not fail fast
#: but allocate or run without end.
ITERATION_MAXIMA = {"pretrain": 100_000, "finetune": 100_000, "probe": 100_000}

#: The largest batch size of each training budget. A generator draws the
#: indices of a block of steps at once, so a larger size would not fail fast
#: but allocate without end, or end in numpy's refusal of the shape.
BATCH_MAXIMA = {"pretrain": 10_000, "finetune": 10_000}

#: The largest entry of `seeds`. A run's name, and so its record's file
#: name, holds its seed, which this keeps to ten digits.
SEED_MAXIMUM = 2**32 - 1

#: The largest entry of `hidden`, as for DataSpec.d. A layer's weights are
#: allocated whole, so a wider layer would not fail fast but allocate
#: without end, or end in an overflow of the initialization's scale.
WIDTH_MAXIMUM = 10_000

#: The largest `threshold` and entry of `threshold_grid`: the most source
#: rows a split can hold. A larger one selects every class, as does any
#: threshold above the split's row count.
THRESHOLD_MAXIMUM = DATA_MAXIMA["m"] * DATA_MAXIMA["source_per_class"]


@dataclass(frozen=True)
class DataSpec:
    """Synthetic data shape: a Gaussian-cluster source domain plus a target
    domain whose planted classes are noisy copies of source classes. Each
    count is at most its entry of DATA_MAXIMA."""

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
        check_fields(self)
        object.__setattr__(self, "planted", tuple(self.planted))
        for name in ("m", "source_per_class", "d", "target_per_class"):
            _require_range(name, getattr(self, name) >= 2, ">= 2", getattr(self, name))
        for name, maximum in DATA_MAXIMA.items():
            value = getattr(self, name)
            _require_range(name, value <= maximum, f"<= {maximum}", value)
        _require_range("spread", self.spread > 0, "> 0", self.spread)
        for name in ("novel", "noise", "seed"):
            _require_range(name, getattr(self, name) >= 0, ">= 0", getattr(self, name))
        for name in ("source_test_fraction", "target_test_fraction"):
            value = getattr(self, name)
            _require_range(name, 0 < value < 1, "in (0, 1)", value)
        _require_range(
            "planted",
            len(set(self.planted)) == len(self.planted)
            and all(0 <= c < self.m for c in self.planted),
            f"distinct source classes in [0, {self.m})",
            list(self.planted),
        )
        # pairing matches every target class to its own source class
        classes = len(self.planted) + self.novel
        _require_range(
            "the target class count (planted + novel)",
            1 <= classes <= self.m,
            f"between 1 and m = {self.m}",
            classes,
        )


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
            value = getattr(self, name)
            if isinstance(value, list):  # a string stays one, for check_fields
                object.__setattr__(self, name, tuple(value))
        check_fields(self)
        if not self.seeds:
            raise ConfigError("seed list must be non-empty")
        if not self.alpha_grid:
            raise ConfigError("alpha_grid must be non-empty")
        if not self.strategies:
            raise ConfigError("strategy list must be non-empty")
        if not self.hidden:
            raise ConfigError("hidden layer list must be non-empty")
        wide, seed, top = WIDTH_MAXIMUM, SEED_MAXIMUM, THRESHOLD_MAXIMUM
        grid = self.threshold_grid
        for name, values, ok, rule in (
            ("hidden", self.hidden, lambda v: 1 <= v <= wide, f"in [1, {wide}]"),
            ("seeds", self.seeds, lambda v: 0 <= v <= seed, f"in [0, {seed}]"),
            ("alpha_grid", self.alpha_grid, lambda v: v > 0, "> 0"),
            ("threshold_grid", grid, lambda v: 0 <= v <= top, f"in [0, {top}]"),
        ):
            bad = [v for v in values if not ok(v)]
            _require_range(f"every entry of {name}", not bad, rule, bad)
        check_distinct("strategies", [k.value for k in self.strategies])
        for name in ("seeds", "alpha_grid", "threshold_grid"):
            check_distinct(name, getattr(self, name))
        _require_range("sp_weight", self.sp_weight >= 0, ">= 0", self.sp_weight)
        value, rule = self.finetune.seed, "0 (each run takes its seed from `seeds`)"
        _require_range("finetune.seed", value == 0, rule, value)
        for name in ("threshold", "midtune_iterations"):
            value = getattr(self, name)
            _require_range(name, value is None or value >= 0, ">= 0 or null", value)
        value, rule = self.threshold, f"<= {top} or null"
        _require_range("threshold", value is None or value <= top, rule, value)
        counts = (("iterations", ITERATION_MAXIMA), ("batch_size", BATCH_MAXIMA))
        for count, maxima in counts:
            for name, maximum in maxima.items():
                value = getattr(getattr(self, name), count)
                rule = f"<= {maximum}"
                _require_range(f"{name}.{count}", value <= maximum, rule, value)
        mid, budget = self.midtune_iterations, self.finetune.iterations
        rule = f"<= finetune.iterations = {budget} or null"
        _require_range("midtune_iterations", mid is None or mid <= budget, rule, mid)
        # every run record's spectrum takes min(SPECTRUM_ROWS, rows)
        # target-train rows and needs at least as many as the feature width
        ds = self.data
        per_class = ds.target_per_class - split_test_count(
            ds.target_per_class, ds.target_test_fraction
        )
        rows = (len(ds.planted) + ds.novel) * per_class
        taken = min(SPECTRUM_ROWS, rows)
        if taken < self.hidden[-1]:
            raise ConfigError(
                f"the spectrum takes {taken} of the target split's {rows} "
                f"training rows, fewer than the feature width {self.hidden[-1]}"
            )
        # every forgetting probe splits whole source-train classes and needs
        # a held-out row of each
        per_class = ds.source_per_class - split_test_count(
            ds.source_per_class, ds.source_test_fraction
        )
        if split_test_count(per_class, self.probe.test_fraction) < 1:
            raise ConfigError(
                f"the source split leaves {per_class} training rows per class, "
                f"too few for the probe to hold one out at test_fraction "
                f"{self.probe.test_fraction}"
            )

    def strategy_for(self, kind: StrategyKind) -> Strategy:
        if kind is StrategyKind.L2SP:
            return Strategy.l2sp(self.sp_weight)
        if kind in NEEDS_MIXUP:
            return Strategy(kind, mixup=self.mixup)
        if kind is StrategyKind.SEQ_TRAIN:
            return Strategy.seqtrain(self.midtune_iterations)
        return Strategy(kind)

    def to_json(self) -> dict:
        out = asdict(self)
        out["strategies"] = [k.value for k in self.strategies]
        return out

    def hash(self) -> str:
        canon = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


SECTIONS = ("data", "pretrain", "finetune", "mixup", "probe")


def _build_section(name: str, base, raw: dict):
    """Overlay a JSON section onto the default instance, so partial sections
    keep the experiment defaults for unmentioned fields."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be an object")
    try:
        return replace(base, **raw)
    except (TypeError, ValueError, ConfigError) as e:
        raise ConfigError(f"{name}: {e}") from None


def config_from_json(raw: dict) -> ExperimentConfig:
    """Build a validated config from parsed JSON; unknown keys are errors."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    defaults = ExperimentConfig()
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(raw)
    for key in SECTIONS:
        if key in raw:
            kwargs[key] = _build_section(key, getattr(defaults, key), raw[key])
    try:
        if isinstance(raw.get("strategies"), list):  # else check_fields refuses it
            kwargs["strategies"] = tuple(StrategyKind(s) for s in raw["strategies"])
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from None
