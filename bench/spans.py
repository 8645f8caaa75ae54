"""Span recorder for the traced benchmark run, and the statistics taken from it.

The recorder times xmixup from outside: `install` replaces each function in
`TRACED` with a wrapper and rebinds every `xmixup.*` module attribute that
refers to the original, so calls between modules and calls through the
package re-exports are all seen. Nothing inside `src/` reads a clock.

A span has a name, a start, an end, a parent span and a run id. The run id
is the index of the root span the span descends from, so all spans of one
CLI command share it. Spans live in flat arrays while the workload runs and
are written once, by `dump`, when it ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS: dict[str, tuple[str, ...]] = {
    "mixup": ("make_batch", "sample_beta", "sample_gamma"),
    "model": (
        "loss_and_grad_arrays",
        "forward_cache",
        "backward_from_dlogits",
        "sgd_step",
        "forward",
    ),
    "training": ("finetune", "pretrain", "evaluate", "masked_loss_and_grad", "sp_penalty"),
    "analysis": ("linear_probe", "singular_values", "spectrum"),
    "dataset": ("load_dataset", "save_dataset", "split", "class_subset", "compact_classes"),
    "pairing": ("compute_centroids", "similarity", "expand_until_threshold"),
    "harness": (
        "step_gen_data",
        "step_pretrain",
        "step_pair",
        "step_finetune",
        "step_sweep_alpha",
        "step_report",
        "run_record",
        "load_data",
    ),
}
TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Spans of these functions carry the value of the named argument as a tag;
# the per-strategy breakdown groups fine-tune runs by it.
TAG_ARGUMENT = {"harness.run_record": "kind"}

RUN_RECORD = "harness.run_record"
RUN_PARTS = (
    ("fine-tune", "training.finetune"),
    ("two probes", "analysis.linear_probe"),
    ("spectrum", "analysis.spectrum"),
)


class SpanRecorder:
    """In-memory spans of one single-threaded workload process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, str] = {}
        self._stack: list[int] = []

    def __len__(self):
        return len(self.start)

    def wrap(self, name: str, fn, tag_argument: str | None = None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parents, runs = self.name_id, self.parent, self.run
        starts, ends, stack, tags = self.start, self.end, self._stack, self.tags
        clock = time.perf_counter
        signature = inspect.signature(fn) if tag_argument else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            parent = stack[-1] if stack else -1
            name_id.append(nid)
            parents.append(parent)
            runs.append(runs[parent] if parent >= 0 else i)
            if signature is not None:
                value = signature.bind(*args, **kwargs).arguments.get(tag_argument)
                tags[i] = str(getattr(value, "value", value))
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def dump(self, path, measured_from: int) -> None:
        """Write the spans as an .npz file; spans with index >= measured_from
        belong to the measured commands."""
        import numpy as np

        tag_index = sorted(self.tags)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            run=np.frombuffer(self.run, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            tag_index=np.array(tag_index, dtype=np.int64),
            tag_value=np.array([self.tags[i] for i in tag_index], dtype=str),
            measured_from=np.array(measured_from),
        )


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap every function in TRACED; returns the names that were not found."""
    import xmixup.cli  # noqa: F401  (loads every module the CLI reaches)

    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "xmixup" or name.startswith("xmixup.")
    ]
    missing = []
    for qualified in TRACED:
        layer, fn_name = qualified.split(".")
        fn = getattr(sys.modules.get(f"xmixup.{layer}"), fn_name, None)
        if not callable(fn):
            missing.append(qualified)
            continue
        wrapped = recorder.wrap(qualified, fn, TAG_ARGUMENT.get(qualified))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
    return missing


def load(path) -> dict:
    import numpy as np

    with np.load(path) as z:
        return {key: z[key] for key in z.files}


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-function calls, total_s and self_s, and per-layer self_s.

    Self time is a span's duration minus the durations of its direct child
    spans (single-threaded, so children never overlap). total_s leaves out
    spans whose parent is the same function, so recursion is counted once.
    """
    import numpy as np

    names = [str(n) for n in spans["names"]]
    name_id, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    k = len(names)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    outer = ~has_parent | (name_id[np.where(has_parent, parent, 0)] != name_id)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id[outer], weights=dur[outer], minlength=k)
    own = np.bincount(name_id, weights=self_s, minlength=k)
    by_name = {n: i for i, n in enumerate(names)}
    metrics: dict[str, float] = {}
    for qualified in TRACED:
        i = by_name.get(qualified)
        metrics[f"{qualified}.calls"] = int(calls[i]) if i is not None else 0
        metrics[f"{qualified}.total_s"] = float(total[i]) if i is not None else 0.0
        metrics[f"{qualified}.self_s"] = float(own[i]) if i is not None else 0.0
    for layer, fns in LAYERS.items():
        metrics[f"layer.{layer}.self_s"] = sum(
            metrics[f"{layer}.{fn}.self_s"] for fn in fns
        )
    return metrics


def measured_layer_self(spans: dict) -> dict[str, float]:
    """Self time per layer over the measured commands only."""
    import numpy as np

    cut = int(spans["measured_from"])
    part = {
        "names": spans["names"],
        "name_id": spans["name_id"][cut:],
        "parent": np.maximum(spans["parent"][cut:] - cut, -1),
        "start": spans["start"][cut:],
        "end": spans["end"][cut:],
    }
    metrics = layer_metrics(part)
    return {layer: metrics[f"layer.{layer}.self_s"] for layer in LAYERS}


def strategy_costs(spans: dict) -> list[dict]:
    """Mean seconds per run of each RUN_PARTS function under run_record,
    grouped by the run's strategy, in first-seen order."""
    names = [str(n) for n in spans["names"]]
    if RUN_RECORD not in names:
        return []
    record_id = names.index(RUN_RECORD)
    part_ids = {names.index(fn): label for label, fn in RUN_PARTS if fn in names}
    tags = dict(zip(spans["tag_index"].tolist(), spans["tag_value"].tolist()))
    name_id, parent = spans["name_id"].tolist(), spans["parent"].tolist()
    dur = (spans["end"] - spans["start"]).tolist()
    per_run: dict[int, dict[str, float]] = {}
    for i, nid in enumerate(name_id):
        if nid == record_id:
            per_run[i] = {label: 0.0 for label, _ in RUN_PARTS}
            per_run[i]["run"] = dur[i]
        elif nid in part_ids and parent[i] in per_run:
            per_run[parent[i]][part_ids[nid]] += dur[i]
    rows: dict[str, dict] = {}
    for i, costs in per_run.items():
        row = rows.setdefault(tags.get(i, "?"), {"runs": 0, **{k: 0.0 for k in costs}})
        row["runs"] += 1
        for key, value in costs.items():
            row[key] += value
    return [
        {"strategy": strategy, "runs": row["runs"]}
        | {k: v / row["runs"] for k, v in row.items() if k != "runs"}
        for strategy, row in rows.items()
    ]
