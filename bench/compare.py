#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py parent.jsonl change.jsonl

Each file holds the records that `run.py --trace 0 --results FILE` appends,
one per workload run. For every workload and end-to-end metric named in
BENCHMARK.json it prints one table row: each side's median, quartiles and run
count, the relative change of the median, the runs the change won out of the
runs paired by seed (ties count for neither), and a verdict:

- unresolved: the parent's quartile spread exceeds the bound and not every
  change run beats every parent run;
- regressed: the change's median is worse by more than the bound;
- better: the change won at least 9 in 10 pairs and the medians differ by
  more than the parent's quartile spread;
- within bound: anything else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def paired(parent: list[dict], change: list[dict], metric: str) -> list[tuple[float, float]]:
    pool: dict[int, list[float]] = {}
    for r in parent:
        if metric in r["metrics"]:
            pool.setdefault(r["seed"], []).append(r["metrics"][metric])
    pairs = []
    for r in change:
        if metric in r["metrics"] and pool.get(r["seed"]):
            pairs.append((pool[r["seed"]].pop(0), r["metrics"][metric]))
    return pairs


def verdict(
    parent: list[float], change: list[float], wins: int, n_pairs: int, bound: float, higher: bool
) -> str:
    sign = 1.0 if higher else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    if pm and (p3 - p1) / abs(pm) > bound:
        if min(sign * c for c in change) <= max(sign * p for p in parent):
            return "unresolved"
    if gain < -bound * abs(pm):
        return "regressed"
    if n_pairs and wins >= 0.9 * n_pairs and abs(cm - pm) > p3 - p1:
        return "better"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(args.parent), load(args.change)

    print("| workload | metric | unit | parent median [q1, q3] (n) "
          "| change median [q1, q3] (n) | change | wins | verdict |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name] for r in parent.get(workload, []) if name in r["metrics"]]
            c = [r["metrics"][name] for r in change.get(workload, []) if name in r["metrics"]]
            if not p or not c:
                print(f"| {workload} | {name} | {m['unit']} | n={len(p)} | n={len(c)} | | | missing |")
                continue
            pairs = paired(parent[workload], change[workload], name)
            higher = m["better"] == "higher"
            wins = sum(1 for a, b in pairs if (b > a if higher else b < a))
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            rel = f"{100.0 * (cm - pm) / pm:+.2f}%" if pm else "n/a"
            print(
                f"| {workload} | {name} | {m['unit']} "
                f"| {pm:.6g} [{p1:.6g}, {p3:.6g}] ({len(p)}) "
                f"| {cm:.6g} [{c1:.6g}, {c3:.6g}] ({len(c)}) "
                f"| {rel} | {wins}/{len(pairs)} "
                f"| {verdict(p, c, wins, len(pairs), m['bound'], higher)} |"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
