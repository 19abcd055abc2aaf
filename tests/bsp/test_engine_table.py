"""The one engine table: every name runs, and every consumer reads it."""

import argparse
from dataclasses import asdict

import pytest

from repro.algorithms import PageRankProgram
from repro.analysis import engine_select
from repro.bsp import JobSpec, run_job
from repro.bsp.engine import ENGINES, make_engine
from repro.cli import build_parser
from repro.graph import generators as gen


def _job(num_workers):
    return JobSpec(
        program=PageRankProgram(iterations=6),
        graph=gen.watts_strogatz(60, 4, 0.1, seed=7),
        num_workers=num_workers,
    )


@pytest.mark.parametrize("name", list(ENGINES))
def test_every_engine_matches_sim_bitwise(name):
    # The equivalence contract (docs/runtime.md): every engine agrees with
    # the sim at the same worker count and partition.
    ref = run_job(_job(3), engine="sim")
    res = run_job(_job(3), engine=name)
    assert res.values == ref.values
    assert res.supersteps == ref.supersteps


def test_dense_ref_trace_is_the_sims_at_the_same_worker_count():
    # Contract (a) beyond values (the full differential is
    # tests/bsp/test_dense_trace.py).
    sim, dense = run_job(_job(3), engine="sim"), run_job(_job(3), "dense-ref")
    assert [asdict(s) for s in dense.trace] == [asdict(s) for s in sim.trace]
    assert dense.total_time == sim.total_time > 0
    assert dense.total_cost == sim.total_cost > 0


def test_cli_engine_choices_come_from_the_table():
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    flag = next(
        a for a in sub.choices["run"]._actions
        if "--engine" in a.option_strings
    )
    assert flag.choices == [*ENGINES, "auto"]


def test_score_tables_cover_exactly_the_table():
    assert set(engine_select._SCORES_MULTI) == set(ENGINES)
    assert set(engine_select._SCORES_SINGLE) == set(ENGINES)


def test_unknown_engine_names_every_valid_one():
    with pytest.raises(ValueError) as exc_info:
        make_engine("warp", _job(2))
    assert all(repr(name) in str(exc_info.value) for name in ENGINES)
