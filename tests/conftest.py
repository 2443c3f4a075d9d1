"""Test-wide settings and fixtures: hypothesis draws the same examples on
every run, and `sims_tables` counts the Sims tables a test builds."""

import pytest
from hypothesis import settings

from amoebagraph import permgroup

# derandomize seeds each test's examples from the test itself, so a failure
# repeats on the next run and a pass stays a pass; max_examples stay per test.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def sims_tables(monkeypatch) -> list:
    """A list that gains one entry per Sims table built during the test."""
    calls = []
    table = permgroup._sims_table

    def counted(domain, generators):
        calls.append(None)
        return table(domain, generators)

    monkeypatch.setattr(permgroup, "_sims_table", counted)
    return calls
