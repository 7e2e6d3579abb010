from __future__ import annotations

import pytest

from chaoscope import dynamics, verify


@pytest.fixture(scope="session")
def materialized():
    """Materialized levels 0..3, shared with the acceptance criteria's cache."""
    return {n: verify._materialized(n) for n in range(4)}


@pytest.fixture(autouse=True)
def cold_walk():
    """Each test starts with no kept walk, so a test that counts kernel work
    cannot pass on a walk that an earlier test left."""
    dynamics._kept = ()
