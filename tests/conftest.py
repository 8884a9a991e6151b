"""Fixtures shared by the engine, conflict and toy tests."""

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


@pytest.fixture
def eager_tables(monkeypatch):
    """A switch: once called, every engine result assembles its CCDF table
    as soon as its problem's descent stops, before the run goes on."""

    def switch():
        finish = engine._finish

        def eager(*args):
            result = finish(*args)
            result.table
            return result

        monkeypatch.setattr(engine, "_finish", eager)

    return switch
