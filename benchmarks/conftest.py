"""Shared benchmark fixtures.

Every bench regenerates one table or figure of the paper at
``BENCH_SCALE`` (see ``repro.analysis.scenarios``), prints a
paper-vs-measured comparison, and times the underlying experiment run via
pytest-benchmark (single round — the experiments are deterministic
simulations, so repetition only measures interpreter noise).
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
