"""Shared benchmark fixtures.

Each bench runs one extension, ablation or performance experiment and
prints its table; the paper's own tables and figures are functions of
``repro.analysis.paper``, run by ``python -m repro report``.  Simulation
benches time their experiment via pytest-benchmark (single round — the
experiments are deterministic, so repetition only measures interpreter
noise).
"""

from __future__ import annotations

import pytest

from repro.analysis import bc_scenario


@pytest.fixture(scope="session")
def wg_scenario():
    return bc_scenario("WG")


@pytest.fixture(scope="session")
def cp_scenario():
    return bc_scenario("CP")
