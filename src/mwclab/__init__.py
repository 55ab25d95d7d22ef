"""Conditioning laboratory for modulated wideband converter sign
patterns: family generators, quality measures, recovery guarantees,
Monte Carlo validation and a greedy support-recovery experiment.

Importing any submodule runs this file first, so the thread pools are
pinned here, before numpy loads, and artifacts never depend on the host
core count.  A numpy imported before the package keeps its own pools.
"""

import os

__version__ = "0.1.0"


def _pin_threads() -> None:
    """MWCLAB_THREADS, when set, overwrites the five BLAS/OpenMP thread
    variables; otherwise an exported one is kept and the rest are 1."""
    threads = os.environ.get("MWCLAB_THREADS")
    for var in (
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "OMP_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        if threads is None:
            os.environ.setdefault(var, "1")
        else:
            os.environ[var] = threads


_pin_threads()
