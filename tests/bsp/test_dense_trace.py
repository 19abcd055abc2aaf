"""Contract (d) of docs/runtime.md: dense-ref == sim at the same worker
count and partition on every trace row, the clock and the bill; values
stay bitwise the 1-worker sim's (contract (c)).

dense-ref runs inside ``BSPEngine._run_one_superstep`` and fills the
per-worker step stats from array ops; this is the gate that keeps those
array ops equal to what the partition workers count message by message.
"""

from dataclasses import asdict

import pytest

from repro.algorithms import (
    ConnectedComponentsProgram,
    KCoreProgram,
    LabelPropagationProgram,
    PageRankProgram,
    SSSPProgram,
    WCCProgram,
)
from repro.bsp import JobSpec, SuperstepObserver, run_job
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder
from repro.obs import PostmortemWriter

PROGRAMS = {
    "pagerank": lambda: PageRankProgram(iterations=6),
    "pagerank-nocombiner": lambda: PageRankProgram(6, use_combiner=False),
    "cc": ConnectedComponentsProgram,
    "wcc": WCCProgram,
    "sssp": lambda: SSSPProgram(source=0),
    "lpa": lambda: LabelPropagationProgram(max_rounds=8),
    "kcore": lambda: KCoreProgram(k=6),  # peels for several supersteps
}
GRAPHS = {
    "ws": lambda: gen.watts_strogatz(120, 6, 0.1, seed=5),
    # directed, with dangling vertices and non-reciprocal arcs
    "rmat": lambda: gen.rmat(scale=7, edge_factor=6, seed=1, undirected=False),
}


def assert_same_run(sim, dense):
    assert len(dense.trace) == len(sim.trace)
    for ours, theirs in zip(dense.trace, sim.trace):
        assert asdict(ours) == asdict(theirs), theirs.index
    assert dense.total_time == sim.total_time > 0
    assert dense.total_cost == sim.total_cost
    assert dense.cost.total == sim.cost.total
    assert asdict(dense.cost) == asdict(sim.cost)
    assert (dense.halted, dense.supersteps) == (sim.halted, sim.supersteps)
    assert dense.aggregates == sim.aggregates
    assert dense.recoveries == sim.recoveries


@pytest.mark.parametrize("workers", [1, 3, 4])
@pytest.mark.parametrize("graph", list(GRAPHS))
@pytest.mark.parametrize("program", list(PROGRAMS))
def test_trace_clock_and_bill_equal_sim(program, graph, workers):
    g = GRAPHS[graph]()

    def job(num_workers):
        return JobSpec(PROGRAMS[program](), g, num_workers=num_workers)

    sim = run_job(job(workers), "sim")
    dense = run_job(job(workers), "dense-ref")
    assert_same_run(sim, dense)
    one = sim if workers == 1 else run_job(job(1), "sim")
    assert dense.values == one.values


@pytest.mark.parametrize("program", ["pagerank", "sssp", "kcore"])
def test_checkpoint_and_scheduled_failure(program):
    g = GRAPHS["ws"]()

    def job():
        return JobSpec(
            PROGRAMS[program](), g, num_workers=3,
            checkpoint_interval=2, failure_schedule={3: 1},
        )

    sim, dense = run_job(job(), "sim"), run_job(job(), "dense-ref")
    assert dense.recoveries
    assert_same_run(sim, dense)
    assert dense.values == run_job(
        JobSpec(PROGRAMS[program](), g, num_workers=1), "sim"
    ).values


def test_injected_messages_and_active_subset():
    g = GRAPHS["rmat"]()
    for kwargs in (
        dict(initially_active=False, initial_messages=[(0, 0.0), (0, 1.5)]),
        dict(initially_active=[0, 3, 9]),
    ):
        def job():
            return JobSpec(SSSPProgram(source=0), g, num_workers=3, **kwargs)

        assert_same_run(run_job(job(), "sim"), run_job(job(), "dense-ref"))


# -- all-arcs supersteps: dense-ref keeps their in-degree and worker-pair
# tallies; whatever breaks "one message along every arc, none injected"
# must fall back to counting and still equal sim.
def test_pagerank_with_injected_messages():
    class InjectAt(SuperstepObserver):
        """Control-plane messages landing beside an all-arcs scatter's."""

        def on_superstep_end(self, engine, stats):
            if stats.index in (1, 2, 4):
                engine.inject_messages([(0, 0.125), (0, 0.5), (7, 0.25)])

    for use_combiner in (True, False):
        def job():
            return JobSpec(
                PageRankProgram(6, use_combiner=use_combiner), GRAPHS["rmat"](),
                num_workers=3, initial_messages=[(0, 0.25), (5, 0.5), (5, 1.0)],
                observers=[InjectAt()],
            )

        sim, dense = run_job(job(), "sim"), run_job(job(), "dense-ref")
        assert_same_run(sim, dense)
        assert sum(step.injected for step in dense.trace) == 12


@pytest.mark.parametrize("program", ["pagerank", "sssp", "kcore"])
def test_graph_without_arcs(program):
    def job(num_workers=3):
        return JobSpec(
            PROGRAMS[program](), GraphBuilder(7, undirected=True).build(),
            num_workers=num_workers,
        )

    dense = run_job(job(), "dense-ref")
    assert_same_run(run_job(job(), "sim"), dense)
    assert dense.values == run_job(job(1), "sim").values
    assert sum(step.total_messages for step in dense.trace) == 0


def test_pagerank_restored_twice_resumes_the_kept_tallies():
    # the superstep after each restore gathers from deep-copied pending
    # arrays (not the graph's own), the ones after it from the graph's again
    g = GRAPHS["rmat"]()

    def job():
        return JobSpec(
            PROGRAMS["pagerank"](), g, num_workers=3,
            checkpoint_interval=1, failure_schedule={2: 0, 4: 1},
        )

    sim, dense = run_job(job(), "sim"), run_job(job(), "dense-ref")
    assert len(dense.recoveries) == 2
    assert_same_run(sim, dense)
    assert dense.values == run_job(
        JobSpec(PROGRAMS["pagerank"](), g, num_workers=1), "sim"
    ).values


def test_master_compute_failure_writes_the_postmortem(tmp_path):
    class Boom(LabelPropagationProgram):
        def master_compute(self, master):
            if master.superstep == 2:
                raise RuntimeError("master boom")

    bundle = tmp_path / "crash.postmortem"
    writer = PostmortemWriter(str(bundle))
    job = JobSpec(
        Boom(), GRAPHS["ws"](), num_workers=3, postmortem=writer,
    )
    with pytest.raises(RuntimeError, match="master boom"):
        # the plan is LPA's: the subclass changes master_compute only,
        # which the engine runs natively
        run_job(job, "dense-ref", plan=_lpa_plan())
    assert writer.written is not None and bundle.exists()


def _lpa_plan():
    from repro.check.vectorize import lift_of

    return lift_of(LabelPropagationProgram).plan
