"""Process preparation shared by every perfbench entry point.

Must run before numpy is imported: the BLAS thread count is read from the
environment once, when the library loads.  Pinning it to one thread gives
the single-threaded baseline the benchmark reports; OpenBLAS would
otherwise start a thread per core and charge the extra CPU to wall time.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class MissingSource(RuntimeError):
    """The checkout holds no euciso sources to benchmark."""


def prepare() -> None:
    """Pin BLAS threads and make the checkout's own euciso importable."""
    if not (SRC / "euciso" / "__init__.py").is_file():
        raise MissingSource(f"no euciso package under {SRC}")
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import euciso

    if Path(euciso.__file__).resolve().parent != SRC / "euciso":
        raise MissingSource(f"euciso was imported from {euciso.__file__}")
