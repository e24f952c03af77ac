"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs the fork map sees in the affinity mask."""
    def force(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
    return force
