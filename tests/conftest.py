from __future__ import annotations

from importlib import resources

import pytest

from roadmnet.algorithms import (
    design_greedy,
    design_legacy,
    design_optimal,
    design_simple,
)
from roadmnet import milp
from roadmnet.io import load_inputs

# One line per acceptance criterion, printed after the run (see
# test_acceptance.py, which appends to this).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def fixture_path(name: str) -> str:
    return str(resources.files("roadmnet") / "data" / f"{name}.json")


@pytest.fixture
def own_helper(monkeypatch):
    """The next paired solve forks an LP helper process for this test alone.

    The test may patch what the helper runs or kill it; the helper is killed
    afterwards and the interpreter's shared one comes back.
    """
    monkeypatch.setattr(milp, "_HELPER", milp._UNSTARTED)
    yield
    helper = milp._HELPER
    if isinstance(helper, milp._Helper):
        helper.process.kill()
        helper.process.join(timeout=10)
        assert not helper.process.is_alive()


@pytest.fixture(scope="session")
def toy_inputs():
    return load_inputs(fixture_path("toy2x5"))


@pytest.fixture(scope="session")
def grid_inputs():
    return load_inputs(fixture_path("grid3x3_600"))


@pytest.fixture(scope="session")
def toy_optimal(toy_inputs):
    """(design, plans) of the joint solve on the toy fixture."""
    return design_optimal(*toy_inputs)


@pytest.fixture(scope="session")
def grid_optimal(grid_inputs):
    return design_optimal(*grid_inputs)


@pytest.fixture(scope="session")
def toy_designs(toy_inputs, toy_optimal):
    """One design per algorithm on the toy fixture."""
    topology, demands, costs = toy_inputs
    legacy, _ = design_legacy(topology, demands, costs)
    return {
        "optimal": toy_optimal[0],
        "simple": design_simple(topology, demands, costs),
        "greedy": design_greedy(topology, demands, costs),
        "legacy": legacy,
    }


@pytest.fixture(scope="session")
def grid_designs(grid_inputs, grid_optimal):
    topology, demands, costs = grid_inputs
    legacy, _ = design_legacy(topology, demands, costs)
    return {
        "optimal": grid_optimal[0],
        "simple": design_simple(topology, demands, costs),
        "greedy": design_greedy(topology, demands, costs),
        "legacy": legacy,
    }
