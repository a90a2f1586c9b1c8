"""The artifact digest ledger: every bit an artifact moves shows in the diff.

``run_pipeline`` (conftest) runs fit -> decompose -> scan (2049 points over
4 T_cl) -> density (five times, t = 0 among them) at nbar 20, 85 and 150
through ``cli.main``, and the SHA-256 of each of the 30 artifacts must equal
its entry in ``tests/data/artifact_digests.json``.  A change that moves bits
on purpose regenerates the ledger in the same diff, from the repository
root:

    PYTHONPATH=src python tests/test_artifact_digests.py

which prints each (nbar, file) whose digest moved against the ledger it
replaces.  The ledger also records the numeric libraries that decide the
bits of the kernel-dependent files (`library_fingerprint`).  Where this
machine's differ, only the files that come from Python's ``math`` alone
(``KERNEL_FREE``, the determinism contract of ``rydpack.io``) are compared.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import LEDGER_NBARS, run_pipeline

LEDGER = Path(__file__).parent / "data" / "artifact_digests.json"

# the artifacts whose bytes no BLAS kernel, thread count or CPU dispatch moves
KERNEL_FREE = ("fit_report.json", "state.json")

# the environment variables that pick the BLAS kernel.  The thread count is
# left out: every digest is the same with one BLAS thread as with the default
BLAS_VARIABLES = ("OPENBLAS_CORETYPE",)


def library_fingerprint():
    """NumPy's version, its BLAS (the build entry without its install
    directories), the CPU features NumPy's dispatch assumes and finds, and
    the BLAS kernel variables: what the same bytes need."""
    from numpy._core import _multiarray_umath as umath

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {k: v for k, v in blas.items() if not k.endswith("directory")},
        "cpu_baseline": list(umath.__cpu_baseline__),
        "cpu_features": sorted(name for name, on in umath.__cpu_features__.items() if on),
        "blas_variables": {name: os.environ.get(name) for name in BLAS_VARIABLES},
    }


@pytest.fixture(scope="module")
def ledger():
    return json.loads(LEDGER.read_text())


@pytest.mark.parametrize("nbar", LEDGER_NBARS)
def test_artifacts_match_the_ledger(pipeline, ledger, nbar):
    _, digests = pipeline(nbar)
    expected = ledger["digests"][str(nbar)]
    assert sorted(digests) == sorted(expected), nbar
    same_libraries = ledger["fingerprint"] == library_fingerprint()
    names = sorted(expected) if same_libraries else KERNEL_FREE
    moved = [f"nbar {nbar}: {name}" for name in names if digests[name] != expected[name]]
    assert not moved, f"artifacts differ from {LEDGER.name}: {', '.join(moved)}"
    if not same_libraries:
        differ = [k for k, v in ledger["fingerprint"].items() if library_fingerprint().get(k) != v]
        pytest.skip(
            f"compared only {', '.join(KERNEL_FREE)}: the ledger was made with other numeric "
            f"libraries ({', '.join(differ)} differ), which may move the other files' bits"
        )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for nbar in LEDGER_NBARS:
            out = Path(tmp) / str(nbar)
            out.mkdir()
            digests[str(nbar)] = run_pipeline(nbar, out)
    old = json.loads(LEDGER.read_text())["digests"] if LEDGER.exists() else {}
    for nbar, files in digests.items():
        for name, digest in files.items():
            if old.get(nbar, {}).get(name) != digest:
                print(f"moved: nbar {nbar} {name}")
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text(json.dumps({"fingerprint": library_fingerprint(), "digests": digests}, indent=2) + "\n")
    print(f"wrote {LEDGER}")
