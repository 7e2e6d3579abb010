from __future__ import annotations

import pytest

from chaoscope import dynamics


@pytest.fixture(autouse=True)
def cold_walk():
    """Each test, under tests/ or perfbench/, starts with no kept walk, so a
    test that counts kernel work cannot pass or fail on a walk that an
    earlier test left."""
    dynamics._kept = ()
