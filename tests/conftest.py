"""Shared test settings: one deterministic hypothesis profile for every property test, and a
``traced_peak`` fixture for memory bounds."""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile(
    "netinfluence", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("netinfluence")


@pytest.fixture
def traced_peak():
    """``traced_peak(call, *args, **kwargs)``: the bytes tracemalloc sees at its peak during one call."""

    def measure(call, *args, **kwargs):
        tracemalloc.start()
        try:
            call(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
