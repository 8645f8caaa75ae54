"""Command-line pipeline driver.

Every subcommand takes `--config <json>` and `--out <dir>`; steps read the
artifacts earlier steps left in the output directory. `--set` flags
override the config file. The CLI loads and checks the config, the
`finetune --strategy` flags and `--out`, hands the command to
harness.run_command, which runs its step and writes the manifest, and
prints the lines it returns.

Exit codes: 0 success, 2 configuration error, 3 data/artifact error,
4 numeric failure. Every config value is checked when the config loads, and
artifacts are checked against each other when a step loads them, so a
ValueError from inside a step is a defect and is not mapped to an exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ExperimentConfig, check_distinct, config_from_json
from .errors import ConfigError, DataError, NumericError
from .harness import run_command
from .training import StrategyKind


def _apply_set(raw: dict, assignment: str) -> None:
    key, eq, value = assignment.partition("=")
    if not eq or not key:
        raise ConfigError(f"--set expects KEY=VALUE, got {assignment!r}")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    except (ValueError, RecursionError) as e:  # too many digits, or too deep
        raise ConfigError(f"--set {key}: {e}") from None
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {key}: {part} is not an object")
    node[parts[-1]] = parsed


def _load_config(path: str, overrides: list[str]) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:  # missing, a directory, or not readable
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from None
    # JSONDecodeError, an integer of too many digits, or nesting too deep
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for assignment in overrides:
        _apply_set(raw, assignment)
    return config_from_json(raw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmixup",
        description="Cross-domain mixup transfer-learning pipeline on synthetic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, type=Path, help="artifact directory")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            dest="overrides",
            metavar="KEY=VALUE",
            help="override a (dotted) config key, e.g. data.noise=0.2",
        )
        return p

    add("gen-data", "generate and save the synthetic source/target datasets")
    add("pretrain", "train the source model from scratch")
    add("pair", "pair target classes to source classes via feature centroids")
    p = add("finetune", "run fine-tuning strategies across seeds")
    p.add_argument(
        "--strategy",
        action="append",
        dest="strategies",
        choices=[k.value for k in StrategyKind],
        help="restrict to one strategy (repeatable); default: all configured",
    )
    add("sweep-alpha", "accuracy across the mixing-strength grid")
    add("sweep-size", "accuracy across auxiliary-budget thresholds")
    add("randomize-aux", "compare centroid pairing against random pairing")
    add("ablate", "run the mixing ablations (cross-domain/in-domain/no-label)")
    add("report", "join run records into comparison CSVs and a chart")
    return parser


def _dispatch(args) -> None:
    cfg = _load_config(args.config, args.overrides)
    strategies = None
    if args.command == "finetune" and args.strategies:
        check_distinct("--strategy", args.strategies)
        strategies = tuple(StrategyKind(s) for s in args.strategies)
    out = Path(args.out)  # gen-data makes it; every other command reads it first
    if out.exists() and not out.is_dir():
        raise DataError(f"--out {out} is not a directory")
    for line in run_command(args.command, cfg, out, strategies):
        print(line)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _dispatch(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, OSError) as e:  # OSError: a missing or unusable artifact path
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
