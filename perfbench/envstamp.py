"""The environment record stamped on every result.

Two result sets are comparable only when their stamps are equal: same
Python, numpy, BLAS library and version, BLAS thread count, and processor
count and model.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
    "bli_thread_get_num_threads",
)


def _loaded_blas_libraries() -> list[str]:
    """Paths of shared libraries this process has mapped whose name mentions a BLAS."""
    found = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                name = os.path.basename(path).lower()
                if path.startswith("/") and any(k in name for k in ("blas", "mkl", "blis")) and path not in found:
                    found.append(path)
    except OSError:
        pass
    return found


def blas_threads() -> int | None:
    """Thread count the loaded BLAS reports, or None if it cannot be asked."""
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _THREAD_QUERIES:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def collect() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    np.ones((2, 2)) @ np.ones((2, 2))  # make sure the BLAS library is loaded before asking it
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
    }
