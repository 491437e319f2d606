"""Shared test fixtures."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls ``fn()`` under ``tracemalloc`` and returns
    its result and the traced peak in bytes."""

    def measure(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
