"""Hypothesis draws the same examples on every run, so a failure reproduces and tier-1 time stays fixed."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
