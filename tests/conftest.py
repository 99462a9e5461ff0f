"""Shared test setup: property tests draw the same examples on every run.

Each ``hypothesis`` test keeps its own ``max_examples`` and
``deadline``; the profile only fixes the seed of its example search.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
