#!/usr/bin/env python3
"""End-to-end benchmark of the xmixup lab.

    python3 bench/run.py --workload pipeline --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 1

Run from the repository root. Each repetition of a workload is one fresh
Python process (bench/workload.py) that imports xmixup from `src/`, runs the
set-up commands `gen-data`, `pretrain` and `pair`, then the workload's
measured commands, all through `xmixup.cli.main` with the default `--jobs`
of 1 and BLAS threads left at their default. Repetitions run one at a time
until `--seconds` is used up (at least MIN_REPEATS of them); each metric is
the median over the repetitions. The workload seed becomes `data.seed` and
`pretrain.seed` of the generated config; xmixup only ever sees that config.

After every repetition the outputs are checked (one artifact per cell,
record count, accuracies finite and in [0, 1], every run record carrying the
config's hash), and the output CSV must hash identically in every repetition
of the run. A command that exits non-zero or whose output fails a check
counts as failed.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced repetitions and reports per-layer metrics from the spans of the
traced ones (see spans.py), the tracing overhead and the per-strategy cost of
one run. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--results FILE` also
appends a full record per workload, with machine facts, for compare.py.
"""

from __future__ import annotations

import argparse
import copy
import csv
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_out"

MIN_REPEATS = 3
RUN_LIMIT_S = 150.0

SETUP = ("gen-data", "pretrain", "pair")
# Pinned here rather than left to the program's defaults, so the workloads
# stay the same when the defaults change.
STRATEGIES = ("l2", "l2sp", "mixup-indomain", "xmixup", "xmixup-nolabel", "seqtrain", "cotrain")
ALPHA_GRID = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
FINETUNE_SEEDS = (0,)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "target_acc": "frac",
    "ops_ok_frac": "frac",
}


@dataclass(frozen=True)
class Workload:
    config: dict
    measured: tuple[str, ...]


WORKLOADS = {
    # The default experiment, fine-tune + report: every layer does a share of
    # the work and none more than about 40%.
    "pipeline": Workload({}, ("finetune", "report")),
    # beta != 1 sends every lambda through the Marsaglia-Tsang gamma path and
    # no probe or spectrum runs: mixup does most of the work, analysis none.
    "alpha-sweep": Workload({"mixup": {"beta": 2.0}}, ("sweep-alpha",)),
    # Probes fit on thousands of rows, so analysis.linear_probe dominates and
    # is BLAS-bound; dataset I/O and subsetting grow about tenfold.
    "large-source": Workload(
        {"data": {"source_per_class": 500, "target_per_class": 200}},
        ("finetune", "report"),
    ),
}


def workload_config(workload: Workload, seed: int) -> dict:
    config = {
        "data": {"seed": seed},
        "pretrain": {"seed": seed},
        "strategies": list(STRATEGIES),
        "seeds": list(FINETUNE_SEEDS),
        "alpha_grid": list(ALPHA_GRID),
    }
    for key, value in copy.deepcopy(workload.config).items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    return config


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "load1_at_start": os.getloadavg()[0],
    }


# --- output check -------------------------------------------------------------


def _unit_interval(value: str) -> bool:
    try:
        x = float(value)
    except ValueError:
        return False
    return math.isfinite(x) and 0.0 <= x <= 1.0


def check_outputs(workload: Workload, config: dict, out: Path, config_hash: str):
    """Returns (problems, sha256 of the output CSV or None, mean accuracy or None)."""
    seeds = config["seeds"]
    if "sweep-alpha" in workload.measured:
        csv_path = out / "sweep_alpha.csv"
        cells = sorted((float(a), s) for a in config["alpha_grid"] for s in seeds)
        key = lambda row: (float(row["alpha"]), int(row["seed"]))  # noqa: E731
        scores = ("accuracy",)
        artifacts = []
    else:
        csv_path = out / "comparison.csv"
        cells = sorted((st, s) for st in config["strategies"] for s in seeds)
        key = lambda row: (row["strategy"], int(row["seed"]))  # noqa: E731
        scores = ("accuracy", "forgetting_aux", "forgetting_aba")
        artifacts = [out / "runs" / f"{st}-s{s}.json" for st, s in cells]
    problems = [f"missing artifact {p.relative_to(out)}" for p in artifacts if not p.is_file()]
    for path in sorted(glob.glob(str(out / "runs" / "*.json"))):
        with open(path, encoding="utf-8") as f:
            found = json.load(f).get("config_hash")
        if found != config_hash:
            problems.append(f"{Path(path).name}: config_hash {found} != {config_hash}")
    if not csv_path.is_file():
        return problems + [f"missing {csv_path.name}"], None, None
    data = csv_path.read_bytes()
    rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
    if len(rows) != len(cells):
        problems.append(f"{csv_path.name}: {len(rows)} records for {len(cells)} cells")
    try:
        if sorted(key(r) for r in rows) != cells:
            problems.append(f"{csv_path.name}: records do not match the cells")
    except (KeyError, TypeError, ValueError):
        problems.append(f"{csv_path.name}: unreadable cell keys")
    for i, row in enumerate(rows):
        bad = [c for c in scores if not _unit_interval(row.get(c) or "")]
        if bad:
            problems.append(f"{csv_path.name} row {i + 1}: {bad} not finite in [0, 1]")
    accuracy = None
    if rows and all(_unit_interval(r.get("accuracy") or "") for r in rows):
        accuracy = statistics.fmean(float(r["accuracy"]) for r in rows)
    return problems, hashlib.sha256(data).hexdigest(), accuracy


# --- one repetition -------------------------------------------------------------


def run_repeat(name: str, seed: int, index: int, traced: bool, work: Path, deadline: float):
    workload = WORKLOADS[name]
    config = workload_config(workload, seed)
    out = work / f"r{index}"
    spans_path = work / f"spans{index}.npz"
    spec = {
        "root": str(ROOT),
        "out": str(out),
        "config": config,
        "setup": list(SETUP),
        "measured": list(workload.measured),
        "trace": traced,
        "spans_path": str(spans_path),
    }
    env = {k: v for k, v in os.environ.items() if k != "XMIXUP_SEED"}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "workload.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        stdout = ""
        print(f"{name} repeat {index}: timed out", file=sys.stderr)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    try:
        child = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        child = {}

    commands = SETUP + workload.measured
    codes = child.get("codes", {})
    rep = {
        "traced": traced,
        "attempted": len(commands),
        "failed_cmds": sorted(c for c in commands if codes.get(c) != 0),
        "problems": [],
        "digest": None,
        "target_acc": None,
        "machine": child.get("machine", {}),
    }
    if "wall_s" in child:
        rep.update(
            setup_s=child["setup_end"] - t0,
            wall_s=child["wall_s"],
            cpu_s=child["cpu_s"],
            peak_rss_mb=child["peak_rss_mb"],
        )
        rep["problems"], rep["digest"], rep["target_acc"] = check_outputs(
            workload, config, out, child["config_hash"]
        )
    if traced and spans_path.is_file():
        import spans

        recorded = spans.load(spans_path)
        rep["layers"] = spans.layer_metrics(recorded)
        rep["measured_self"] = spans.measured_layer_self(recorded)
        rep["strategies"] = spans.strategy_costs(recorded)
        rep["missing_spans"] = child.get("missing_spans", [])
    shutil.rmtree(out, ignore_errors=True)
    spans_path.unlink(missing_ok=True)
    return rep


# --- one workload ----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=WORK))
    cycle = (False, True) if trace else (False,)
    min_cycles = 1 if trace else MIN_REPEATS
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    repeats: list[dict] = []
    try:
        cycles = 0
        while True:
            for traced in cycle:
                repeats.append(run_repeat(name, seed, len(repeats), traced, work, deadline))
            cycles += 1
            elapsed = time.perf_counter() - started
            next_end = elapsed + elapsed / cycles
            if (cycles >= min_cycles and next_end > seconds) or next_end > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = next((r["digest"] for r in repeats if r["digest"]), None)
    producer = WORKLOADS[name].measured[-1]
    for r in repeats:
        if r["digest"] and r["digest"] != reference:
            r["problems"].append("output CSV differs from the first repetition")
        if r["problems"] and producer not in r["failed_cmds"]:
            r["failed_cmds"].append(producer)
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(len(r["failed_cmds"]) for r in repeats)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "repeats": repeats,
    }


def end_to_end_metrics(result: dict) -> dict:
    timed = [r for r in result["repeats"] if not r["traced"] and "wall_s" in r]
    if not timed:
        return {}
    metrics = {
        m: statistics.median(r[m] for r in timed)
        for m in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
    }
    accs = [r["target_acc"] for r in timed if r["target_acc"] is not None]
    if accs:
        metrics["target_acc"] = statistics.median(accs)
    metrics["ops_ok_frac"] = 1.0 - result["failed"] / result["attempted"]
    return metrics


def per_layer_metrics(result: dict) -> dict:
    traced = [r for r in result["repeats"] if r["traced"] and "layers" in r and "wall_s" in r]
    plain = [r for r in result["repeats"] if not r["traced"] and "wall_s" in r]
    if not traced or not plain:
        return {}
    metrics = {
        key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]
    }
    metrics["trace_overhead_s"] = statistics.median(
        r["wall_s"] for r in traced
    ) - statistics.median(r["wall_s"] for r in plain)
    return metrics


def per_layer_unit(name: str) -> str:
    return "count" if name.endswith(".calls") else "s"


# --- printing ------------------------------------------------------------------


def print_end_to_end(result: dict, metrics: dict) -> None:
    timed = [r for r in result["repeats"] if not r["traced"] and "wall_s" in r]
    for name, unit in END_TO_END.items():
        samples = [r[name] for r in timed if r.get(name) is not None]
        if name in metrics and samples:
            print(
                f"  {name:<16} {metrics[name]:>12.6g} {unit:<5} median of {len(samples)};"
                f" min {min(samples):.6g} max {max(samples):.6g}"
            )
    counts = f"{result['failed']}/{result['attempted']} commands"
    frac = result["failed"] / result["attempted"]
    print(f"  {'ops_failed_frac':<16} {frac:>12.6g} frac  {counts}")
    print(f"  {'ops_ok_frac':<16} {metrics['ops_ok_frac']:>12.6g} frac  {counts}")


def print_trace(result: dict, metrics: dict) -> None:
    traced = [r for r in result["repeats"] if r["traced"] and "layers" in r]
    if not traced:
        return
    rep = traced[0]
    if rep["missing_spans"]:
        print(f"  not traced (not found): {', '.join(rep['missing_spans'])}")
    print("  per-layer metrics (median over traced repetitions; set-up included):")
    import spans

    for qualified in spans.TRACED:
        print(
            f"    {qualified:<34} calls {metrics[qualified + '.calls']:>9.0f}"
            f"  total {metrics[qualified + '.total_s']:>9.4f} s"
            f"  self {metrics[qualified + '.self_s']:>9.4f} s"
        )
    print(f"  trace_overhead_s {metrics['trace_overhead_s']:.4f} s")
    wall = rep["wall_s"]
    print(f"  self time per layer in the measured commands, share of traced wall_s {wall:.3f} s:")
    for layer, self_s in rep["measured_self"].items():
        print(f"    {layer:<10} {self_s:>9.4f} s  {100.0 * self_s / wall:5.1f}%")
    if rep["strategies"]:
        labels = [label for label, _ in spans.RUN_PARTS]
        print("  cost of one run, mean seconds per run by strategy (first traced repetition):")
        print("    | strategy | runs | " + " | ".join(labels) + " | whole run |")
        print("    | --- | --- | " + " | ".join("---" for _ in labels) + " | --- |")
        for row in rep["strategies"]:
            cells = " | ".join(f"{row[label]:.3f} s" for label in labels)
            print(f"    | {row['strategy']} | {row['runs']} | {cells} | {row['run']:.3f} s |")


def print_result(result: dict, metrics: dict) -> None:
    print(
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}"
        f"  repetitions {len(result['repeats'])}"
    )
    print("  machine " + " ".join(f"{k}={v!r}" for k, v in result["machine"].items()))
    if result["trace"]:
        print_trace(result, metrics)
    else:
        print_end_to_end(result, metrics)
    problems = sorted({p for r in result["repeats"] for p in r["problems"]})
    verdict = "ok" if result["correct"] else "FAILED: " + "; ".join(
        problems or ["a command exited non-zero"]
    )
    print(f"  output check: {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, help="append full records (JSON lines) here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "xmixup" / "cli.py").is_file():
        print(f"no xmixup sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    machine = machine_facts()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        metrics = per_layer_metrics(result) if args.trace else end_to_end_metrics(result)
        if not metrics:
            print(f"{name}: no repetition completed; nothing to report", file=sys.stderr)
            return 1
        result["metrics"] = metrics
        child_facts = next((r["machine"] for r in result["repeats"] if r["machine"]), {})
        result["machine"] = {**machine, **child_facts}
        print_result(result, metrics)
        results.append(result)
    try:
        os.rmdir(WORK)
    except OSError:
        pass

    if args.results:
        with open(args.results, "a", encoding="utf-8") as f:
            for result in results:
                f.write(json.dumps(result) + "\n")

    def entry(name: str, value: float) -> dict:
        unit = per_layer_unit(name) if args.trace else END_TO_END[name]
        return {"value": value, "unit": unit}

    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): entry(k, v)
            for r in results
            for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
