"""Shared test settings: one deterministic hypothesis profile for every property test."""

from hypothesis import settings

settings.register_profile(
    "netinfluence", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("netinfluence")
