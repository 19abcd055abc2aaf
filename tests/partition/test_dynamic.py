"""GPS-style dynamic re-partitioning policy."""

import numpy as np
import pytest

from repro.algorithms import (
    BCProgram,
    KCoreProgram,
    PageRankProgram,
    betweenness_reference,
    pagerank_reference,
)
from repro.algorithms import bc as bc_mod
from repro.bsp import JobSpec, run_job
from repro.bsp.debug import InvariantChecker
from repro.bsp.engine import BSPEngine
from repro.partition.dynamic import DynamicRepartitioner


def pr_job(graph, **kw):
    return JobSpec(program=PageRankProgram(10), graph=graph, num_workers=4, **kw)


def repartitioned(job, **kw):
    """Run ``job`` under a :class:`DynamicRepartitioner`; returns the
    policy, the engine (for its final fleet) and the result."""
    policy = DynamicRepartitioner(**kw)
    job.observers = [*job.observers, policy]
    engine = BSPEngine(job)
    return policy, engine, engine.run()


class TestCorrectness:
    def test_pagerank_identical_to_static(self, small_world):
        ref = pagerank_reference(small_world, iterations=10)
        *_, res = repartitioned(pr_job(small_world), interval=2)
        assert np.allclose(res.values_array(), ref, atol=1e-10)

    def test_bc_identical_to_reference(self, small_world):
        job = JobSpec(
            program=BCProgram(), graph=small_world, num_workers=4,
            initially_active=False,
            initial_messages=bc_mod.start_messages(range(8)),
        )
        *_, res = repartitioned(job, interval=3)
        ref = betweenness_reference(small_world, roots=range(8))
        assert np.allclose(res.values_array(), ref, atol=1e-9)

    def test_mutating_program_survives_migration(self, small_world):
        import networkx as nx

        from tests.conftest import to_networkx

        job = JobSpec(program=KCoreProgram(2), graph=small_world, num_workers=4)
        *_, res = repartitioned(job, interval=2)
        ours = {v for v, alive in res.values.items() if alive}
        theirs = set(nx.k_core(to_networkx(small_world), 2).nodes())
        assert ours == theirs

    def test_invariants_hold_during_migration(self, small_world):
        checker = InvariantChecker()
        repartitioned(pr_job(small_world, observers=[checker]), interval=2)
        assert checker.ok, checker.violations


class TestMigrationBehaviour:
    def test_remote_fraction_decreases(self, small_world):
        policy, *_ = repartitioned(pr_job(small_world), interval=2)
        assert policy.migrations
        first = policy.migrations[0]
        last = policy.migrations[-1]
        assert last.remote_fraction_after < first.remote_fraction_before
        for ev in policy.migrations:
            assert ev.remote_fraction_after <= ev.remote_fraction_before + 1e-9

    def test_balance_guard_respected(self, small_world):
        slack = 1.15
        _, engine, _ = repartitioned(pr_job(small_world), interval=2, slack=slack)
        sizes = engine.partition.sizes()
        assert sizes.max() <= slack * small_world.num_vertices / 4 + 1

    def test_batch_fraction_bounds_churn(self, small_world):
        policy, *_ = repartitioned(
            pr_job(small_world), interval=2, batch_fraction=0.02
        )
        cap = max(1, int(0.02 * small_world.num_vertices))
        assert all(ev.vertices_moved <= cap for ev in policy.migrations)

    def test_migration_charges_time(self, small_world):
        static = run_job(pr_job(small_world))
        policy, _, dyn = repartitioned(pr_job(small_world), interval=2)
        overhead = sum(ev.overhead_seconds for ev in policy.migrations)
        assert overhead > 0
        # PageRank gains little from locality here, so time >= static - eps.
        assert dyn.total_time >= static.total_time - 1e-6

    def test_every_vertex_still_owned_once(self, small_world):
        _, engine, _ = repartitioned(pr_job(small_world), interval=2)
        owned = sorted(
            v for w in engine.workers for v in w.states.keys()
        )
        assert owned == list(range(small_world.num_vertices))
        # Partition assignment agrees with actual ownership.
        for w in engine.workers:
            for v in w.states:
                assert engine.partition.assignment[v] == w.worker_id

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicRepartitioner(interval=0)
        with pytest.raises(ValueError):
            DynamicRepartitioner(batch_fraction=0)
        with pytest.raises(ValueError):
            DynamicRepartitioner(min_gain=0)
        with pytest.raises(ValueError):
            DynamicRepartitioner(slack=0.9)

    def test_failure_injection_incompatible(self, small_world):
        job = pr_job(
            small_world, checkpoint_interval=2, failure_schedule={1: 0}
        )
        with pytest.raises(ValueError, match="failure"):
            repartitioned(job)
