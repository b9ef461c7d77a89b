"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count that sizes a fork-join."""
    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
    return use
