"""Atomic artifact writes: a temp file beside the target, then os.replace.
write_table writes every CSV artifact through it.

A command interrupted mid-write leaves the previous artifact (or none) in
place, never a truncated one that a later command would read. The temp file
is removed when the write raises; a killed process can leave one behind, as
a dot-file that no artifact lookup matches. There is no fsync: this guards
against interrupted commands, not against power loss.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, binary: bool = False):
    """Yield a file opened for writing; on a clean exit it replaces `path`.

    Text files are UTF-8 with "\\n" line endings, as every artifact is.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    kwargs = {} if binary else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, "wb" if binary else "w", **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_table(path, header: str, rows) -> None:
    """Write a CSV atomically: `header` (one line or several), then one line
    per row of `rows`, floats at 17 significant digits so that they read
    back exactly, everything else as str."""
    with atomic_open(path) as f:
        f.write(header + "\n")
        for row in rows:
            f.write(
                ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                + "\n"
            )
