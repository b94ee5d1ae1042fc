"""Shared test set-up: deterministic Hypothesis draws, the one shapes classifier two modules use, a traced-peak probe, and forced-split helpers."""

import ctypes
import os
import tracemalloc

import pytest
from hypothesis import settings

from spjscc import split
from spjscc.classifier import TrainClassifierConfig, pretrain_classifier
from spjscc.dataio import generate_shapes

# Hypothesis draws the same examples on every run, so a failure reproduces and tier-1 time stays fixed.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def shapes_classifier():
    """(dataset, classifier) of 400 32×32 shapes, trained once for the whole session; tests must not change it."""
    ds = generate_shapes(11, 400, 32, 32)
    return ds, pretrain_classifier(ds, TrainClassifierConfig(epochs=12, lr=2e-3, batch=32, seed=2))


@pytest.fixture(scope="session")
def traced_peak():
    """`traced_peak(fn) -> (peak_bytes, result)`: fn()'s traced allocation high-water mark above what was allocated when it started."""

    def measure(fn):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn()
            return tracemalloc.get_traced_memory()[1] - start, result
        finally:
            tracemalloc.stop()

    return measure


# Thread-count setters of the BLAS builds `split._BLAS_THREAD_QUERIES` asks.
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
    "MKL_Set_Num_Threads",
)


@pytest.fixture
def one_blas_thread():
    """The loaded BLAS runs one thread for the test, and its own count again afterwards.

    A test that forces a split into several processes runs them at one BLAS
    thread each, as the process-count rule would, instead of a thread per CPU
    in every process. Where the BLAS has no known setter, nothing changes.
    """
    query, setter = split._blas_thread_query(), split._blas_function(_BLAS_THREAD_SETTERS)
    if query is None or setter is None:
        yield
        return
    setter.restype, setter.argtypes = None, [ctypes.c_int]
    before = query()
    setter(1)
    try:
        yield
    finally:
        setter(before)


@pytest.fixture
def no_child_left():
    """`no_child_left()` fails unless every child process this one forked has been reaped."""

    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    return check
