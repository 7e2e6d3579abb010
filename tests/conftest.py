from __future__ import annotations

import pytest

from chaoscope import verify


@pytest.fixture(scope="session")
def materialized():
    """Materialized levels 0..3, shared with the acceptance criteria's cache."""
    return {n: verify._materialized(n) for n in range(4)}
