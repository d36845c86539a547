"""The one door through which the library loads numpy.

The representation layer and the dense projector check are the only code
that needs numpy, and every matrix product they make is an int64 one, which
numpy computes in its own loops: none reaches BLAS.  numpy's OpenBLAS
nevertheless starts a pool of one idle thread per core when it loads, which
took about 70 of the 150-160 ms that importing numpy took on a 2-core
x86-64 host (at other times the same host started it for next to nothing).
So :func:`load_numpy` has numpy load single-threaded when nothing
else has chosen a size for that pool, and leaves the environment as it
found it.
"""

from __future__ import annotations

import functools
import os
import sys
import threading

# The variables that size OpenBLAS's pool when it loads, each one honoured
# by the OpenBLAS that numpy ships.
_POOL_SIZES = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_DEFAULT_NUM_THREADS",
)

# First calls from several threads would otherwise each set and remove the
# variable, and one could remove it while another still imports.
_FIRST_CALL = threading.Lock()


@functools.cache
def load_numpy():
    """numpy, imported on the first call.

    If numpy is not loaded yet and none of the variables that size
    OpenBLAS's pool is set, ``OPENBLAS_NUM_THREADS=1`` is set for the length
    of ``import numpy`` and removed after it, so OpenBLAS starts no pool and
    no variable reaches the caller's environment or its child processes.  A
    preset variable, or a numpy already loaded, is left alone.  The cost is
    a one-thread OpenBLAS in a process where this library is the first to
    import numpy: a caller who wants a pool for its own float products
    imports numpy first or sets one of the variables."""
    with _FIRST_CALL:
        if "numpy" in sys.modules or any(name in os.environ for name in _POOL_SIZES):
            import numpy
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
            try:
                import numpy
            finally:
                del os.environ["OPENBLAS_NUM_THREADS"]
    return numpy
