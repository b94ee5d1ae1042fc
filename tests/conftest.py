"""Shared test set-up: deterministic Hypothesis draws, and the one shapes classifier two modules use."""

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
