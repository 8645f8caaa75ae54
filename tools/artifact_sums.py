#!/usr/bin/env python3
"""Checksums of every artifact the five reference command chains write.

    python3 tools/artifact_sums.py > sums.txt
    python3 tools/artifact_sums.py --check sums.txt

Runs each chain below with the `src/` of this checkout, through
`xmixup.cli.main` in one interpreter, into a fresh temporary directory, and
prints one `sha256  path` line per file written, sorted by path. The
commands' own output goes to standard error. Two checkouts write the same
artifacts when `diff` of their two outputs is empty. With `--check FILE`
the lines are compared with FILE instead of printed: the paths whose sums
differ, or that only one side lists, are printed and the exit status is 1;
it is 0 when every line matches.

The chains: the default config through all nine commands; a gamma-path
(β = 2) alpha sweep; 10× source and 4× target data through the five-command
pipeline at one seed; small alpha and threshold grids over two seeds; and a
chain whose index draws leave 32-bit halves held in the generators from one
step to the next: batches of 31, three source classes paired to every
target, and fine-tuning at two seeds, whose xmixup stack of two cells draws
across seqtrain's phase switch.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from xmixup import cli  # noqa: E402

CHAINS = (
    (
        {},
        "gen-data pretrain pair finetune report "
        "sweep-alpha sweep-size randomize-aux ablate",
    ),
    ({"mixup": {"beta": 2.0}}, "gen-data pretrain pair sweep-alpha"),
    (
        {"data": {"source_per_class": 500, "target_per_class": 200}, "seeds": [0]},
        "gen-data pretrain pair finetune report",
    ),
    (
        {
            "mixup": {"beta": 2.0},
            "alpha_grid": [8.0, 1.0, 2.0],
            "threshold_grid": [120, 30],
            "seeds": [3, 0],
        },
        "gen-data pretrain pair sweep-alpha sweep-size randomize-aux",
    ),
    (
        {
            "mixup": {"beta": 2.0},
            "finetune": {"batch_size": 31},
            "threshold": 400,
            "seeds": [0, 1],
        },
        "gen-data pretrain pair finetune sweep-alpha",
    ),
)


def run_chains(root: Path, chains=CHAINS) -> None:
    """Run every chain into root/config<i>; exits on the first failure."""
    for i, (config, commands) in enumerate(chains):
        out = root / f"config{i}"
        path = root / f"config{i}.json"  # beside the artifacts, not summed
        path.write_text(json.dumps(config))
        for command in commands.split():
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main([command, "--config", str(path), "--out", str(out)])
            if code:
                sys.exit(f"config{i} {command}: exit {code}")


def sums(root: Path) -> list[str]:
    return [
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root)}"
        for p in sorted(root.glob("config*/**/*"))
        if p.is_file()
    ]


def differing_paths(expected: list[str], actual: list[str]) -> list[str]:
    """The paths of two `sha256  path` listings whose sums differ or that
    only one of them lists, sorted."""

    def by_path(lines):
        return {path: digest for digest, _, path in (l.partition("  ") for l in lines)}

    want, got = by_path(expected), by_path(actual)
    return sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE", help="compare with a saved listing")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        run_chains(Path(tmp))
        lines = sums(Path(tmp))
    if args.check is None:
        print("\n".join(lines))
        return
    expected = Path(args.check).read_text().splitlines()
    differing = differing_paths(expected, lines)
    if differing:
        print("\n".join(differing))
        sys.exit(f"{len(differing)} paths differ from {args.check}")
    print(f"all {len(lines)} artifacts match {args.check}", file=sys.stderr)


if __name__ == "__main__":
    main()
