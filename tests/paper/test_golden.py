"""Paper numbers against ``tests/paper/golden.json``, compared exactly.

``python -m repro report`` writes the golden file from every figure at
``BENCH_SCALE``; a change that moves a paper number must regenerate it
(and EXPERIMENTS.md) and say why.  Table 1 and Fig. 3 are recomputed
here and compared exactly: their numbers are counts, or NumPy arithmetic
on counts, which every Python computes alike.  Figs. 15-16 (the §VIII
projection) and the two records that migrate vertices mid-run, live
elastic resizing and dynamic re-partitioning, are recomputed too and
their checks asserted.  Their times and costs are Python float sums,
which the compensated ``sum`` of Python 3.12 rounds differently, so only
their integers are compared exactly and the rest to a relative 1e-9.  ``repro report``
compares every number exactly, on one Python.
"""

import json
import math
from pathlib import Path

import pytest

from repro.analysis import bc_scenario, paper, paper_partitioners
from repro.graph import datasets
from repro.partition.dynamic import DynamicRepartitioner

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


def _columns(record: dict, exact: bool) -> dict:
    """(figure, row, column, index) -> value of ``record``'s integers
    (``exact``) or of its floats; a list column yields one per element."""
    return {
        (key, label, col, i): x
        for key, rows in record.items() for label, row in rows.items()
        for col, v in row.items()
        for i, x in enumerate(v if isinstance(v, list) else [v])
        if isinstance(x, int) == exact
    }


def _assert_matches_golden(figs: list) -> None:
    fresh = paper.golden(figs)
    want = {key: GOLDEN[key] for key in fresh}
    assert _columns(fresh, exact=True) == _columns(want, exact=True)
    assert _columns(fresh, exact=False) == pytest.approx(
        _columns(want, exact=False), rel=1e-9)
    assert [(f.key, f.failures()) for f in figs] == [(f.key, []) for f in figs]


@pytest.fixture(scope="module")
def scs():
    return {ds: bc_scenario(ds) for ds in ("WG", "CP")}


@pytest.fixture(scope="module")
def elastic(scs):
    """Figs. 15-16's static 4- and 8-worker runs, per dataset."""
    return {ds: paper.elastic_runs(sc) for ds, sc in scs.items()}


def test_table1_and_fig3_equal_the_golden_file():
    wg = bc_scenario("WG")
    fresh = paper.golden([
        paper.table1({key: datasets.load(key) for key in ("SD", "WG", "CP", "LJ")}),
        paper.fig03(wg, paper.pagerank_run(wg.graph)),
    ])
    assert paper.compare({key: GOLDEN[key] for key in fresh}, fresh) == []


def test_fig15_and_fig16_match_the_golden_file_and_pass_their_checks(scs, elastic):
    traces = {ds: paper.elastic_traces(scs[ds], runs) for ds, runs in elastic.items()}
    _assert_matches_golden([paper.fig15(traces), paper.fig16(traces)])


def test_migration_records_match_the_golden_file_and_pass_their_checks(
    scs, elastic
):
    parts = {
        ds: {
            name: {"BC": paper.partition_run(sc, paper_partitioners()[name], "BC")}
            for name in ("Hash", "METIS")
        }
        for ds, sc in scs.items()
    }
    _assert_matches_golden([
        paper.live_elastic(scs["WG"], elastic["WG"]),
        paper.dynamic_repartitioning(scs, parts),
    ])


def test_compare_names_figure_row_and_column_of_a_one_ulp_change():
    moved = json.loads(json.dumps(GOLDEN))
    f8 = moved["fig16"]["WG Fixed-8"]
    f8["norm_time"] = math.nextafter(f8["norm_time"], math.inf)
    mem = moved["fig05"]["baseline"]["peak_mem"]
    mem[3] = math.nextafter(mem[3], -math.inf)
    assert paper.compare(GOLDEN, moved) == [
        f"fig05 / baseline / peak_mem[3]: "
        f"{GOLDEN['fig05']['baseline']['peak_mem'][3]!r} -> {mem[3]!r}",
        f"fig16 / WG Fixed-8 / norm_time: "
        f"{GOLDEN['fig16']['WG Fixed-8']['norm_time']!r} -> {f8['norm_time']!r}",
    ]


def test_compare_names_an_added_or_removed_figure_or_row_in_one_line():
    old = {"a": {"r": {"c": 1.0}}, "gone": {"r": {"c": [1.0, 2.0]}}}
    new = {"a": {"r": {"c": 1.0}, "s": {"c": 2.0}}, "b": {"r": {"c": [1.0], "d": 2}}}
    assert paper.compare(old, new) == ["a / s: added", "gone: removed", "b: added"]


def test_dynamic_repartitioning_without_a_migration_fails_its_check_by_name(
    monkeypatch,
):
    never = DynamicRepartitioner(interval=10**6)
    monkeypatch.setattr(paper, "DynamicRepartitioner", lambda interval: never)
    scs = {ds: bc_scenario(ds, scale=0.05) for ds in ("WG", "CP")}
    parts = {}
    for ds, sc in scs.items():
        hash_bc = paper.partition_run(sc, paper_partitioners()["Hash"], "BC")
        parts[ds] = {"Hash": {"BC": hash_bc}, "METIS": {"BC": hash_bc}}
    fig = paper.dynamic_repartitioning(scs, parts)
    assert never.migrations == []
    assert "WG: remote edges end < 0.75 × where they started" in fig.failures()
