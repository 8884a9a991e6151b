"""Fixtures shared by the engine, conflict and analysis tests."""

import pytest

from subsim import engine


@pytest.fixture
def assemble_calls(monkeypatch):
    """The tables built through `engine.assemble_ccdf` from now on, in call order."""
    calls = []
    assemble = engine.assemble_ccdf

    def counting(blocks, config):
        calls.append(assemble(blocks, config))
        return calls[-1]

    monkeypatch.setattr(engine, "assemble_ccdf", counting)
    return calls

