"""One repetition of a benchmark workload, in a fresh interpreter.

Started by run.py with a JSON spec as its only argument. It imports xmixup
from `<root>/src`, runs the set-up commands and then the measured commands
through `xmixup.cli.main` in this process, and prints one JSON line with
the exit code of each command, its clocks and facts about numpy and BLAS.
With `"trace": true` it records spans (see spans.py) and writes them to
`spans_path` after the last command.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time
import traceback


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def blas_facts() -> dict:
    """numpy version, BLAS name/version and the BLAS thread count."""
    import numpy as np

    facts = {"numpy": np.__version__, "blas": "unknown", "blas_threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from xmixup.cli import main as xmixup_main

    recorder = None
    missing: list[str] = []
    if spec["trace"]:
        from spans import SpanRecorder, install

        recorder = SpanRecorder()
        missing = install(recorder)

    out = spec["out"]
    os.makedirs(out, exist_ok=True)
    config_path = os.path.join(out, "config.json")
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(spec["config"], f)

    codes: dict[str, int] = {}

    def run(commands) -> bool:
        for cmd in commands:
            argv = [cmd, "--config", config_path, "--out", out]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes[cmd] = xmixup_main(argv)
            except SystemExit as e:
                codes[cmd] = e.code if isinstance(e.code, int) else 1
            except Exception:
                traceback.print_exc()
                codes[cmd] = 1
            if codes[cmd] != 0:
                return False
        return True

    result: dict = {"codes": codes, "missing_spans": missing}
    if run(spec["setup"]):
        result["setup_end"] = time.perf_counter()
        measured_from = len(recorder) if recorder else 0
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        if run(spec["measured"]):
            result["wall_s"] = time.perf_counter() - t0
            result["cpu_s"] = cpu_seconds() - cpu0
        if recorder is not None:
            recorder.dump(spec["spans_path"], measured_from)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from xmixup.harness import config_from_json

    result["config_hash"] = config_from_json(spec["config"]).hash()
    result["machine"] = blas_facts()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
