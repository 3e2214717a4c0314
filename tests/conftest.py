"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name for the test and returns a
    list that grows by one per call; `monkeypatch.undo()` unwraps it."""
    def wrap(owner, name):
        calls = []
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return wrap
