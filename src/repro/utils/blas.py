"""Thread control for numpy's bundled OpenBLAS, without extra packages.

numpy wheels ship OpenBLAS as ``libscipy_openblas64_*.so``, loaded with
local symbol scope, so its thread-count entry points are reached by opening
the already-mapped library again by path.  Both helpers do nothing (and
report so) when that library is not loaded.
"""

from __future__ import annotations

import ctypes
from typing import Optional

import numpy as np  # noqa: F401  (maps the BLAS library into the process)


def _openblas() -> Optional[ctypes.CDLL]:
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


def blas_threads() -> Optional[int]:
    """OpenBLAS's current thread count, or ``None`` if it is not reachable."""
    lib = _openblas()
    return None if lib is None else int(lib.scipy_openblas_get_num_threads64_())


def set_blas_threads(n: int) -> bool:
    """Run OpenBLAS GEMMs on ``n`` threads; ``False`` if it is not reachable."""
    lib = _openblas()
    if lib is None:
        return False
    lib.scipy_openblas_set_num_threads64_(ctypes.c_int(max(1, int(n))))
    return True
