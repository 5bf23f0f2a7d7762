"""Shared pytest settings."""

from hypothesis import settings

# Every property test draws the same examples on every run, so a failure
# replays from the test alone; solves on 50-D examples take a few ms, too
# uneven for a per-example deadline.
settings.register_profile("mtil", derandomize=True, deadline=None)
settings.load_profile("mtil")
