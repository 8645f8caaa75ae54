"""Golden checksums: every artifact of two small command chains keeps its
bytes, as the listing committed for xmixup.STREAM_VERSION records them.

    PYTHONPATH=src python3 tests/test_golden.py > tests/golden/<STREAM_VERSION>.txt

writes that listing: the Python, numpy and BLAS versions it is made under,
as comment lines, then one `sha256  path` line per artifact. A refactor or
an optimisation keeps every line. A change meant to move a stream bumps
STREAM_VERSION and writes a new listing; any other mismatch is a defect.
Under other versions of Python, numpy or the BLAS the test compares all
the same, and a failure names both sets of versions.
`tools/artifact_sums.py` is the larger check, on the default data.
"""
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from xmixup import STREAM_VERSION

from test_harness_cli import MINI

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import artifact_sums  # noqa: E402

LISTING = ROOT / "tests" / "golden" / f"{STREAM_VERSION}.txt"

# MINI through all nine commands; then batches of 31, which leave 32-bit
# halves held in the index generators from one step to the next, with
# three source classes paired to every target and every strategy at two
# seeds, so stacks of two cells draw across seqtrain's phase switch
CHAINS = (
    (
        MINI,
        "gen-data pretrain pair finetune report "
        "sweep-alpha sweep-size randomize-aux ablate",
    ),
    (
        {key: value for key, value in MINI.items() if key != "strategies"}
        | {
            "data": MINI["data"] | {"m": 20},
            "mixup": {"beta": 2.0},
            "finetune": MINI["finetune"] | {"batch_size": 31},
            "threshold": 150,
        },
        "gen-data pretrain pair finetune report sweep-alpha",
    ),
)


def versions() -> list[str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"python {platform.python_version()}",
        f"numpy {np.__version__}",
        f"blas {blas.get('name')} {blas.get('version')}",
    ]


def chain_sums() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        artifact_sums.run_chains(Path(tmp), CHAINS)
        return artifact_sums.sums(Path(tmp))


def test_every_artifact_keeps_its_golden_bytes():
    listed = LISTING.read_text().splitlines()
    made_under = [line[2:] for line in listed if line.startswith("# ")]
    expected = [line for line in listed if not line.startswith("#")]
    moved = artifact_sums.differing_paths(expected, chain_sums())
    assert not moved, (
        f"{len(moved)} artifacts moved from {LISTING.name}: {', '.join(moved)}. "
        "Bump xmixup.STREAM_VERSION and write its listing if the change means "
        "to alter a stream; otherwise find the defect. Listed under "
        f"{', '.join(made_under)}; run under {', '.join(versions())}."
    )


if __name__ == "__main__":
    print("\n".join([f"# {line}" for line in versions()] + chain_sums()))
