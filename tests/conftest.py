"""Shared test set-up: deterministic Hypothesis draws, the one shapes classifier two modules use, and a traced-peak probe."""

import tracemalloc

import pytest
from hypothesis import settings

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
