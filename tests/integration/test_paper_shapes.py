"""The paper's qualitative results at test scale.

Runs the figure functions of ``repro.analysis.paper`` on scenarios at
scale 0.2 (``python -m repro report`` runs them at ``BENCH_SCALE``) and
asserts the *shape* of each headline claim on the rows they return.
"""

import pytest

from repro.analysis import bc_scenario, paper
from repro.graph import datasets

SCALE = 0.2  # smaller than bench scale; still shows every effect


@pytest.fixture(scope="module")
def wg():
    return bc_scenario("WG", scale=SCALE)


@pytest.fixture(scope="module")
def both(wg):
    return {"WG": wg, "CP": bc_scenario("CP", scale=SCALE)}


@pytest.fixture(scope="module")
def sizing(wg):
    return paper.sizing_runs(wg)


@pytest.fixture(scope="module")
def parts(both):
    return {ds: paper.partition_runs(sc) for ds, sc in both.items()}


class TestFig2ComplexityGap:
    def test_bc_and_apsp_dwarf_pagerank(self, wg):
        """BC/APSP extrapolated totals are orders of magnitude above PR."""
        pagerank = {
            "WG": paper.pagerank_run(wg.graph),
            "LJ": paper.pagerank_run(datasets.load("LJ", scale=SCALE)),
        }
        rows = paper.fig02({"WG": wg}, pagerank).rows
        pr, bc, apsp = (rows[f"WG {a}"]["time_s"] for a in ("PageRank", "BC", "APSP"))
        # The paper's 4-orders-of-magnitude gap scales with |V| (the
        # extrapolation factor); at this 350-vertex test scale the expected
        # gap is ~1.5 orders.
        assert bc > 20 * pr
        assert apsp > 8 * pr
        assert bc > apsp  # BC's backward phase makes it the most expensive


class TestFig3MessageProfiles:
    def test_pagerank_flat_bc_triangular(self, wg):
        rows = paper.fig03(wg, paper.pagerank_run(wg.graph)).rows
        pr_msgs = rows["PageRank"]["msgs"][1:-1]
        assert pr_msgs.std() / pr_msgs.mean() < 0.01

        msgs = rows["BC"]["msgs"]
        peak = msgs.argmax()
        assert 0 < peak < len(msgs) - 1
        assert msgs.max() > 5 * max(msgs[0], msgs[-1], 1)


class TestFig4SwathSizeSpeedup:
    def test_heuristics_beat_baseline(self, wg, sizing):
        rows = paper.fig04({"WG": wg}, {"WG": sizing}).rows
        assert rows["WG baseline"]["peak_bytes"] > wg.capacity_bytes  # spills
        for name in ("sampling-8w", "adaptive-8w"):
            speedup = rows[f"WG {name}"]["speedup"]
            assert speedup > 1.5, f"{name}: only {speedup:.2f}x"
            assert rows[f"WG {name}"]["peak_bytes"] <= wg.capacity_bytes * 1.05

    def test_adaptive_on_4_workers_beats_baseline_on_8(self, wg, sizing):
        """§VI-B: 4 workers + adaptive ≈ two-thirds the 8-worker baseline."""
        rows = paper.fig04({"WG": wg}, {"WG": sizing}).rows
        assert rows["WG adaptive-4w"]["time_s"] < rows["WG baseline"]["time_s"]


class TestFig5MemoryTrace:
    def test_baseline_spills_heuristic_hugs_target(self, wg, sizing):
        rows = paper.fig05(wg, sizing).rows
        assert rows["baseline"]["peak_mem"].max() > wg.capacity_bytes
        peak = rows["adaptive-8w"]["peak_mem"].max()
        assert 0.3 * wg.target_bytes < peak <= 1.1 * wg.target_bytes


class TestFig6InitiationSpeedup:
    def test_overlap_beats_sequential(self, wg):
        rows = paper.fig06({"WG": wg}, {"WG": paper.initiation_runs(wg)}).rows
        seq = rows["WG Sequential"]
        for name in ("Static-4", "Dynamic"):
            assert rows[f"WG {name}"]["time_s"] < seq["time_s"]
            assert rows[f"WG {name}"]["supersteps"] < seq["supersteps"]


class TestFig8Partitioning:
    def test_metis_wins_on_wg_not_on_cp(self, both, parts):
        rows = paper.fig08(both, parts).rows
        wg_gain = rows["WG METIS"]["BC_s"] / rows["WG Hash"]["BC_s"]
        cp_gain = rows["CP METIS"]["BC_s"] / rows["CP Hash"]["BC_s"]
        assert wg_gain < 0.85  # clear win on WG
        assert cp_gain > wg_gain + 0.1  # benefit collapses on CP

    def test_hash_highest_utilization(self, parts):
        rows = paper.fig09_12(parts).rows
        # Figs. 9/12's pattern
        assert rows["WG Hash"]["utilization"] > rows["WG METIS"]["utilization"]


class TestFig15And16Elastic:
    @pytest.fixture(scope="class")
    def traces(self, wg):
        return {"WG": paper.elastic_traces(wg, paper.elastic_runs(wg))}

    def test_superlinear_spikes_at_peaks(self, traces):
        row = paper.fig15(traces).rows["WG"]
        sp, active = row["speedup"], row["active"]
        assert sp.max() > 2.0
        # The superlinear step coincides with high activity.
        assert active[int(sp.argmax())] > 0.5 * active.max()

    def test_subunit_speedup_in_troughs(self, traces):
        assert paper.fig15(traces).rows["WG"]["speedup"].min() < 1.0

    def test_dynamic_approaches_fixed8_time_at_lower_cost(self, traces):
        rows = paper.fig16(traces).rows
        f8, dyn = rows["WG Fixed-8"], rows[f"WG {paper.DYNAMIC}"]
        assert dyn["time_s"] <= 1.1 * f8["time_s"]
        assert dyn["cost_usd"] < f8["cost_usd"]

    def test_oracle_is_lower_bound(self, traces):
        rows = paper.fig16(traces).rows
        oracle = rows["WG Oracle"]["time_s"]
        for policy in ("Fixed-4", "Fixed-8", paper.DYNAMIC):
            assert oracle <= rows[f"WG {policy}"]["time_s"] + 1e-12
