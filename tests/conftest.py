"""Test-wide settings: hypothesis draws the same examples on every run."""

from hypothesis import settings

# derandomize seeds each test's examples from the test itself, so a failure
# repeats on the next run and a pass stays a pass; max_examples stay per test.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
